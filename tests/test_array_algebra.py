"""Differential test of the ndarray array algebra.

Each operation is compared with a pure-tuple transcription of its row map,
written here, on random small arrays (n <= 5, alphabets 2-4).  Row order and
the claims each result carries must both be identical.  Input arrays carry
their true strength and distance (from the naive oracles), recorded either
checked or unchecked, so the carried claims are exercised in both states.
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import naive_distance_set, naive_strength
from oaqec.arrays import (
    DEFAULT_VERIFICATION_BUDGET,
    MixedLevelArray,
    attach_index_column,
    claim,
    delete_columns,
    derive_subarray,
    expansive_replacement,
    multiply_oa,
)
from oaqec.constructions import full_factorial_mixed
from oaqec.errors import (
    EmptyResult,
    NotDivisible,
    NotPartitionable,
    ShapeMismatch,
)
from oaqec.synthesis import partition_by_prefix

BUDGETS = (None, 0, 60)

# --- tuple transcriptions of the row maps ---------------------------------------


def ref_multiply(arows, brows, q):
    out = []
    for arow in arows:
        scaled = tuple(a * qj for a, qj in zip(arow, q))
        for brow in brows:
            out.append(tuple(x + b for x, b in zip(scaled, brow)))
    return out


def ref_splice(rows, col, brows):
    lookup = sorted(brows)
    return [row[:col] + lookup[row[col]] + row[col + 1:] for row in rows]


def ref_delete(rows, keep):
    return [tuple(row[j] for j in keep) for row in rows]


def ref_derive(rows, col, symbol):
    return [row[:col] + row[col + 1:] for row in rows if row[col] == symbol]


def ref_attach(rows, block_size):
    return [(i // block_size,) + row for i, row in enumerate(rows)]


def ref_prefix_blocks(rows, l):
    groups = {}
    for row in sorted(rows):
        groups.setdefault(row[:l], []).append(row[l:])
    return [tuple(blk) for blk in groups.values()]


def ref_factorial(alphabets, lam):
    return [tup for tup in itertools.product(*(range(a) for a in alphabets))
            for _ in range(lam)]


# --- claims ------------------------------------------------------------------------


def flags(A):
    return A.strength, A.strength_checked, A.md, A.md_checked


def checked_flags(strength, md, r, n, budget, strength_checked=False,
                  md_checked=False):
    """The flags ensure_checked leaves on an r x n array with true claims."""
    budget = DEFAULT_VERIFICATION_BUDGET if budget is None else budget
    if strength > 0 and not strength_checked:
        strength_checked = r * math.comb(n, strength) <= budget
    if md is not None and not md_checked:
        md_checked = r * (r - 1) // 2 <= budget
    return strength, strength_checked, md, md_checked


# --- inputs ------------------------------------------------------------------------


def alphabets_st(n=None):
    size = {"min_size": 1, "max_size": 5} if n is None else {"min_size": n, "max_size": n}
    return st.lists(st.integers(2, 4), **size).map(tuple)


@st.composite
def arrays_st(draw, alphabets=None, r=None):
    """An array with its true strength and distance claimed, checked or not:
    random rows, or a row-shuffled full factorial with index 1 or 2."""
    if alphabets is None:
        alphabets = draw(alphabets_st())
    if r is None and draw(st.booleans()) and math.prod(alphabets) <= 36:
        rows = ref_factorial(alphabets, draw(st.integers(1, 2)))
        rows = draw(st.permutations(rows))
    else:
        cells = st.tuples(*(st.integers(0, s - 1) for s in alphabets))
        rows = draw(st.lists(cells, min_size=r or 1, max_size=r or 12))
    A = MixedLevelArray(rows, alphabets)
    t = naive_strength(rows, alphabets)
    md = min(naive_distance_set(rows)) if len(rows) > 1 else None
    claim(A, strength=t or None, md=md, budget=draw(st.sampled_from((0, None))))
    return A


def raises_same(fn, ref):
    """Run fn and ref; return (fn's result, ref's result) or assert that both
    raise the same exception type."""
    try:
        want = ref()
    except Exception as exc:  # noqa: BLE001 - the type is compared below
        with pytest.raises(type(exc)):
            fn()
        return None, None
    return fn(), want


# --- the operations -----------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(data=st.data(), budget=st.sampled_from(BUDGETS))
def test_multiply_oa_matches_tuple_product(data, budget):
    A = data.draw(arrays_st())
    B = data.draw(arrays_st(alphabets=data.draw(alphabets_st(n=A.n))))
    out = multiply_oa(A, B, budget)
    assert out.rows == tuple(ref_multiply(A.rows, B.rows, B.alphabets))
    assert out.alphabets == tuple(s * q for s, q in zip(A.alphabets, B.alphabets))
    md = None if A.md is None or B.md is None else min(A.md, B.md)
    assert flags(out) == checked_flags(min(A.strength, B.strength), md,
                                       out.r, out.n, budget)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), budget=st.sampled_from(BUDGETS))
def test_expansive_replacement_matches_tuple_splice(data, budget):
    A = data.draw(arrays_st())
    col = data.draw(st.integers(0, A.n - 1))
    B = data.draw(arrays_st(r=A.alphabets[col]))
    out, want = raises_same(lambda: expansive_replacement(A, col, B, budget),
                            lambda: _checked_splice(A, col, B))
    if out is not None:
        assert out.rows == tuple(want)
        assert out.alphabets == A.alphabets[:col] + B.alphabets + A.alphabets[col + 1:]
        assert flags(out) == checked_flags(A.strength, None, out.r, out.n, budget)


def _checked_splice(A, col, B):
    if B.strength < min(A.strength, B.n):
        raise ShapeMismatch("replacement is not balanced enough")
    return ref_splice(A.rows, col, B.rows)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), budget=st.sampled_from(BUDGETS))
def test_delete_columns_matches_tuple_projection(data, budget):
    A = data.draw(arrays_st())
    drop = data.draw(st.sets(st.integers(0, A.n - 1)))
    keep = [j for j in range(A.n) if j not in drop]
    out, want = raises_same(lambda: delete_columns(A, drop, budget),
                            lambda: _nonempty(ref_delete(A.rows, keep), keep))
    if out is not None:
        assert out.rows == tuple(want)
        assert out.alphabets == tuple(A.alphabets[j] for j in keep)
        assert flags(out) == checked_flags(
            min(A.strength, len(keep)), None, out.r, out.n, budget,
            strength_checked=A.strength_checked)


def _nonempty(rows, cols):
    if not rows or not cols:
        raise EmptyResult("no rows or no columns left")
    return rows


@settings(max_examples=150, deadline=None)
@given(data=st.data(), budget=st.sampled_from(BUDGETS))
def test_derive_subarray_matches_tuple_selection(data, budget):
    A = data.draw(arrays_st())
    col = data.draw(st.integers(0, A.n - 1))
    symbol = data.draw(st.integers(0, A.alphabets[col] - 1))
    out, want = raises_same(
        lambda: derive_subarray(A, col, symbol, budget),
        lambda: _nonempty(ref_derive(A.rows, col, symbol), range(A.n - 1)))
    if out is not None:
        assert out.rows == tuple(want)
        assert out.alphabets == A.alphabets[:col] + A.alphabets[col + 1:]
        t = min(max(A.strength - 1, 0), A.n - 1)
        assert flags(out) == checked_flags(t, None, out.r, out.n, budget)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_attach_index_column_matches_tuple_labels(data):
    A = data.draw(arrays_st())
    block_size = data.draw(st.integers(1, A.r))
    if A.r % block_size or A.r // block_size < 2:
        with pytest.raises(NotDivisible):
            attach_index_column(A, block_size)
        return
    out = attach_index_column(A, block_size)
    assert out.rows == tuple(ref_attach(A.rows, block_size))
    assert out.alphabets == (A.r // block_size,) + A.alphabets
    assert flags(out) == (0, False, None, False)


@settings(max_examples=100, deadline=None)
@given(A=arrays_st())
def test_sorted_rows_matches_tuple_sort(A):
    out = A.sorted_rows()
    assert out.rows == tuple(sorted(A.rows))
    assert out.alphabets == A.alphabets
    assert flags(out) == flags(A)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), budget=st.sampled_from(BUDGETS))
def test_partition_by_prefix_blocks_match_tuple_grouping(data, budget):
    A = data.draw(arrays_st())
    l = data.draw(st.integers(0, A.n - 1))
    if l > 0 and A.strength <= l or l == 0 and A.strength == 0:
        with pytest.raises(ValueError):
            partition_by_prefix(A, l, budget)
        return
    blocks = ref_prefix_blocks(A.rows, l)
    if len({len(blk) for blk in blocks}) != 1:
        with pytest.raises(NotPartitionable):
            partition_by_prefix(A, l, budget)
        return
    parent, part = partition_by_prefix(A, l, budget)
    assert parent.rows == tuple(row[l:] for row in sorted(A.rows))
    arrays = part.block_arrays()
    assert [arr.rows for arr in arrays] == blocks
    t = A.strength - l
    checked = sum(arr.r * math.comb(arr.n, t) for arr in arrays) <= (
        DEFAULT_VERIFICATION_BUDGET if budget is None else budget)
    assert {flags(arr) for arr in arrays} == {(t, checked, None, False)}
    assert (part.K, part.block_size) == (len(blocks), len(blocks[0]))


@settings(max_examples=60, deadline=None)
@given(alphabets=alphabets_st().filter(lambda a: math.prod(a) <= 64),
       lam=st.integers(1, 3))
def test_full_factorial_mixed_matches_tuple_product(alphabets, lam):
    A = full_factorial_mixed(alphabets, lam)
    assert A.rows == tuple(ref_factorial(alphabets, lam))
    md = None if A.r == 1 else (1 if lam == 1 else 0)
    assert flags(A) == (len(alphabets), True, md, md is not None)
