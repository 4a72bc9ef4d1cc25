"""Randomized property suites for lifts, distances, replacement and products."""

from __future__ import annotations

import functools
import math

from hypothesis import given, settings, strategies as st

from oaqec.arrays import (
    derive_subarray,
    distance_profile,
    expansive_replacement,
    is_orthogonal_array,
    multiply_oa,
)
from oaqec.constructions import bush, full_factorial_mixed, hyperoval_oa
from oaqec.schemes import d3_scheme, d_2s, oa_from_scheme

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9)
SCHEME_CASES = tuple(("shift", s) for s in range(2, 10)) + \
    tuple(("paired", s) for s in PRIME_POWERS)
BUSH_CASES = tuple((q, t) for q in PRIME_POWERS for t in (2, 3, 4, 5)
                   if q ** t <= 10_000 and t <= q + 1)
HYPEROVAL_CASES = (2, 4, 8)


@functools.lru_cache(maxsize=None)
def cached_bush(q, t):
    return bush(q, t)


@functools.lru_cache(maxsize=None)
def replacement_parent(key):
    q, t = key
    return cached_bush(q, t)


def factor_splits(v):
    """All one- and two-factor tuples whose product divides v."""
    singles = [(a,) for a in range(2, v + 1) if v % a == 0]
    doubles = [(a, b) for a in range(2, v + 1) for b in range(2, a + 1)
               if v % (a * b) == 0]
    return singles + doubles


# --- checks shared with the acceptance gate -----------------------------------


def check_scheme_lift(kind, s):
    """A lifted difference scheme is balanced at the scheme's strength."""
    scheme = d3_scheme(s) if kind == "shift" else d_2s(s)
    lifted = oa_from_scheme(scheme)
    assert lifted.r == s * scheme.r
    ok, witness = is_orthogonal_array(lifted, scheme.strength)
    assert ok, witness


def check_index_unity_distance(array, t):
    """An index-unity strength-t array meets distance n - t + 1 exactly."""
    assert array.r == math.prod(array.alphabets[:1]) ** t  # symmetric, unit index
    assert distance_profile(array) == array.n - t + 1


def check_replacement_preserves_strength(parent, col, factors):
    """Replacing one column by a balanced factorial keeps the strength."""
    v = parent.alphabets[col]
    lam = v // math.prod(factors)
    ingredient = full_factorial_mixed(factors, lam)
    out = expansive_replacement(parent, col, ingredient)
    assert out.r == parent.r
    ok, witness = is_orthogonal_array(out, parent.strength)
    assert ok, witness


def check_product_strength_and_distance(A, B):
    """The columnwise product keeps min strength and min distance exactly."""
    P = multiply_oa(A, B)
    assert P.r == A.r * B.r
    t = min(A.strength, B.strength)
    ok, witness = is_orthogonal_array(P, t)
    assert ok, witness
    md_a = distance_profile(A)
    md_b = distance_profile(B)
    assert distance_profile(P) == min(md_a, md_b)


def check_derivation_drops_one_strength(A, col, symbol):
    """Fixing one column's symbol and deleting it keeps strength t - 1."""
    D = derive_subarray(A, col, symbol)
    assert D.n == A.n - 1
    assert D.r == A.r // A.alphabets[col]
    ok, witness = is_orthogonal_array(D, A.strength - 1)
    assert ok, witness


# --- hypothesis wrappers --------------------------------------------------------


@settings(max_examples=len(SCHEME_CASES), deadline=None)
@given(case=st.sampled_from(SCHEME_CASES))
def test_scheme_lifts_are_balanced(case):
    check_scheme_lift(*case)


@settings(max_examples=len(BUSH_CASES) + len(HYPEROVAL_CASES), deadline=None)
@given(case=st.sampled_from(BUSH_CASES + tuple(("oval", q) for q in HYPEROVAL_CASES)))
def test_index_unity_arrays_meet_the_distance_formula(case):
    if case[0] == "oval":
        check_index_unity_distance(hyperoval_oa(case[1]), 3)
    else:
        q, t = case
        check_index_unity_distance(cached_bush(q, t), t)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_expansive_replacement_preserves_strength(data):
    key = data.draw(st.sampled_from(BUSH_CASES), label="parent")
    parent = replacement_parent(key)
    col = data.draw(st.integers(0, parent.n - 1), label="column")
    splits = factor_splits(parent.alphabets[col])
    factors = data.draw(st.sampled_from(splits), label="factors")
    check_replacement_preserves_strength(parent, col, factors)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_products_keep_min_strength_and_distance(data):
    pairs = [(a, b) for a in BUSH_CASES for b in BUSH_CASES
             if a[0] == b[0]  # same q gives matching column counts
             and a[0] ** a[1] * b[0] ** b[1] <= 10_000]
    a, b = data.draw(st.sampled_from(pairs), label="pair")
    check_product_strength_and_distance(cached_bush(*a), cached_bush(*b))


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_derivation_drops_exactly_one_strength(data):
    eligible = [k for k in BUSH_CASES if k[1] >= 2] + [("oval", q) for q in HYPEROVAL_CASES]
    key = data.draw(st.sampled_from(eligible), label="array")
    A = hyperoval_oa(key[1]) if key[0] == "oval" else cached_bush(*key)
    col = data.draw(st.integers(0, A.n - 1), label="column")
    symbol = data.draw(st.integers(0, A.alphabets[col] - 1), label="symbol")
    check_derivation_drops_one_strength(A, col, symbol)
