"""Acceptance gate: nine end-to-end criteria, one test and one report line each."""

from __future__ import annotations

import functools
import itertools
import math
import random
import time

import pytest

from oaqec.arrays import attach_index_column, distance_profile
from oaqec.constructions import hyperoval_oa
from oaqec.errors import IngredientUnavailable, NegativeM
from oaqec.schemes import d_2s, oa_from_scheme
from oaqec.synthesis import (
    QuantumCode,
    admissible_m_range,
    m_value,
    make_code_params,
    singleton_bound,
    theorem_s1,
)
from oaqec.tables import NOT_CONSTRUCTIBLE, build_row, compare_row, expectations
from oaqec.verify import cross_validate, verify_code

from conftest import (load_fixture, naive_distance_set, saturated_hd_formula,
                      saturation_check)
import test_properties as props


def report(num, budget_s, started, detail):
    elapsed = time.monotonic() - started
    cap = f" < {budget_s:.0f}s" if budget_s is not None else ""
    print(f"criterion {num}: PASS -- {detail} ({elapsed:.1f}s{cap})")
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s"


@functools.lru_cache(maxsize=None)
def catalogue_one_codes():
    rows = [r for r in expectations("I") if r.s in (2, 3, 4, 5, 8, 9)]
    return tuple((row, build_row(row)) for row in rows)


@functools.lru_cache(maxsize=None)
def spot_row_codes():
    return (theorem_s1(4, 1, 2), theorem_s1(8, 2, 2),
            theorem_s1(9, 2, 3), theorem_s1(8, 3, 2))


@functools.lru_cache(maxsize=None)
def catalogue_four_and_six_codes():
    four = [r for r in expectations("IV") if r.q_factors is None]
    six = [r for r in expectations("VI")
           if r.s in (4, 8) and r.d in (1, 2)
           and r.annotation != NOT_CONSTRUCTIBLE]
    return tuple((row, build_row(row)) for row in four + six)


def emitted_codes():
    return ([code for _, code in catalogue_one_codes()]
            + list(spot_row_codes())
            + [code for _, code in catalogue_four_and_six_codes()])


def corrupted(code, rng):
    """Copy of the code with one random ket moved to an unused word."""
    taken = {ket for state in code.basis for ket in state}
    basis = [list(state) for state in code.basis]
    si = rng.randrange(len(basis))
    ki = rng.randrange(len(basis[si]))
    ket = basis[si][ki]
    order = list(range(code.params.n))
    rng.shuffle(order)
    for c in order:
        s = code.params.alphabets[c]
        for delta in range(1, s):
            cand = ket[:c] + ((ket[c] + delta) % s,) + ket[c + 1:]
            if cand not in taken:
                basis[si][ki] = cand
                return QuantumCode(code.params, basis, code.provenance)
    raise AssertionError("every neighbouring word is already a ket")


def test_criterion_1_catalogue_one_reproduction():
    t0 = time.monotonic()
    pairs = catalogue_one_codes()
    assert len(pairs) == 20
    assert {row.builder for row, _ in pairs} == {"t1", "t2"}
    for row, code in pairs:
        ok, detail = compare_row(row, code.params)
        assert ok, f"{row.label}: {detail}"
        assert row.m == row.s - 1
        assert verify_code(code, 2, "strict-uniform").passed, row.label
    report(1, 30, t0, "20 distance-3 codes (both drivers, s in {2,3,4,5,8,9}) "
           "match the published rows and verify at d=2")


def test_criterion_2_saturated_array_distance():
    t0 = time.monotonic()
    for s in (2, 3, 4, 5):
        A = attach_index_column(oa_from_scheme(d_2s(s)), s)
        assert A.r == 2 * s * s and A.n == 2 * s + 1
        assert saturation_check(A)
        formula = saturated_hd_formula(2 * s * s, 1, 2 * s, 2 * s, s)
        assert distance_profile(A) == 2 * s - 1 == min(formula)
        assert naive_distance_set(A.rows) == formula
    report(2, 5, t0, "saturated arrays for s in {2..5} meet MD = 2s-1 and "
           "their exact distance sets match the closed formula")


def test_criterion_3_reference_code_certification():
    t0 = time.monotonic()
    want = {
        "qmds_4_12_2": ("((4,12,2))_{12^3 2^1}", 1),
        "qmds_5_1_3_12": ("((5,1,3))_{12^4 2^1}", 2),
        "qmds_5_1_3_9": ("((5,1,3))_{9^4 3^1}", 2),
        "qmds_8_8_3": ("((8,8,3))_{4^3 2^5}", 2),
    }
    for name, (string, d) in want.items():
        code, claimed = load_fixture(name)
        assert claimed == d, name
        assert code.params.code_string() == string
        assert verify_code(code, d, "strict-uniform").passed, name
    report(3, 60, t0, "all 4 bundled reference codes PASS strict-uniform "
           "verification at d = 1, 2, 2, 2")


def test_criterion_4_nested_column_spot_rows():
    t0 = time.monotonic()
    want = (("((3,1,2))_{4^1 2^2}", 1), ("((5,1,3))_{8^3 4^1 2^1}", 1),
            ("((5,1,3))_{9^3 3^2}", 2), ("((7,1,4))_{8^5 4^1 2^1}", 1))
    for code, (string, m) in zip(spot_row_codes(), want):
        assert code.params.code_string() == string
        assert code.params.m == m
        assert code.status() == "verified"
        assert verify_code(code, code.params.d_plus_1 - 1).passed
    report(4, 60, t0, "4 nested-alphabet spot rows rebuild with m = {1,1,2,1}, "
           "all fully verified")


def test_criterion_5_catalogue_four_and_six_rows():
    t0 = time.monotonic()
    pairs = catalogue_four_and_six_codes()
    four = [(row, code) for row, code in pairs if row.table == "IV"]
    six = [(row, code) for row, code in pairs if row.table == "VI"]
    assert len(four) == 9 and len(six) == 22
    for row, code in pairs:
        ok, detail = compare_row(row, code.params)
        assert ok, f"{row.label}: {detail}"
        assert row.m == (math.prod(row.factors) - 1) * row.s ** row.l
        assert verify_code(code, row.d).passed, row.label
    assert [code.params.m for _, code in four] == [
        12, 24, 36, 60, 132, 132, 60, 36, 132]
    assert all(code.params.K == 12 for _, code in four)
    # two published rows need a seven-column strength-3 ingredient over four
    # symbols, which cannot exist; the toolkit must refuse them, not fake them
    impossible = [r for r in expectations("VI")
                  if r.s == 4 and r.d == 2 and r.l == 1]
    assert len(impossible) == 2
    for row in impossible:
        assert row.annotation == NOT_CONSTRUCTIBLE
        with pytest.raises(IngredientUnavailable):
            build_row(row)
    report(5, 120, t0, "9 dimension-12 rows and 22 small split rows match "
           "(5 with corrected misprints); 2 rows are impossible as printed "
           "and are reported not-constructible")


def test_criterion_6_structural_property_sweeps():
    t0 = time.monotonic()
    for case in props.SCHEME_CASES:
        props.check_scheme_lift(*case)
    for q, t in props.BUSH_CASES:
        props.check_index_unity_distance(props.cached_bush(q, t), t)
    for q in props.HYPEROVAL_CASES:
        props.check_index_unity_distance(hyperoval_oa(q), 3)
    rng = random.Random(61803)
    for _ in range(50):
        key = rng.choice(props.BUSH_CASES)
        parent = props.cached_bush(*key)
        col = rng.randrange(parent.n)
        factors = rng.choice(props.factor_splits(parent.alphabets[col]))
        props.check_replacement_preserves_strength(parent, col, factors)
    pairs = [(a, b) for a in props.BUSH_CASES for b in props.BUSH_CASES
             if a[0] == b[0] and a[0] ** a[1] * b[0] ** b[1] <= 10_000]
    for a, b in pairs:
        props.check_product_strength_and_distance(
            props.cached_bush(*a), props.cached_bush(*b))
    derivation_pool = (
        [props.cached_bush(*k) for k in props.BUSH_CASES]
        + [hyperoval_oa(q) for q in props.HYPEROVAL_CASES]
        + [oa_from_scheme(d_2s(s)) for s in (2, 3, 4, 5)])
    derived = 0
    for A in derivation_pool:
        if A.strength >= 2 and A.r <= 10_000:
            for col, sym in ((0, 0), (A.n - 1, A.alphabets[-1] - 1)):
                props.check_derivation_drops_one_strength(A, col, sym)
                derived += 1
    report(6, 180, t0, f"scheme lifts ({len(props.SCHEME_CASES)}), exact "
           f"distances ({len(props.BUSH_CASES) + 3}), 50 replacements, "
           f"{len(pairs)} products, {derived} derivations all hold")


def test_criterion_7_cross_oracle_agreement():
    t0 = time.monotonic()
    pool = emitted_codes()
    assert len(pool) == 55
    for code in pool:
        crossed = cross_validate(code)
        assert crossed.quantum_pass and crossed.combinatorial_pass, \
            code.params.code_string()
        assert crossed.agree
    rng = random.Random(271828)
    for code in rng.sample(pool, 20):
        crossed = cross_validate(corrupted(code, rng))
        assert not crossed.quantum_pass, code.params.code_string()
        assert not crossed.combinatorial_pass, code.params.code_string()
    report(7, 120, t0, "both oracles agree on all 55 emitted codes; "
           "20 corrupted mutants fail both")


def test_criterion_8_defect_window_gate():
    t0 = time.monotonic()
    pool = emitted_codes()
    above = []
    for code in pool:
        p = code.params
        assert p.m >= 0
        assert p.m_range == admissible_m_range(p.n, p.d_plus_1 - 1, p.alphabets)
        if not p.m_range[0] <= p.m <= p.m_range[1]:
            # published multi-factor rows may exceed the window, never undershoot
            assert p.m > p.m_range[1], p.code_string()
            above.append(code)
    with pytest.raises(NegativeM):
        m_value(5, 2, (4, 2, 2, 2, 2), 3)
    with pytest.raises(NegativeM):
        make_code_params(4, 1, (12, 12, 12, 2), 25)
    report(8, None, t0, f"all {len(pool)} emitted codes have m >= 0 with the "
           f"recorded window exact; {len(above)} published rows sit above the "
           "window; dimensions beyond the bound are build errors")


def test_criterion_9_singleton_bound_brute_force():
    t0 = time.monotonic()
    rng = random.Random(31415)
    for _ in range(100):
        d = rng.randrange(0, 4)
        n = rng.randrange(max(2 * d, 1), 2 * d + 5)
        alphabets = tuple(rng.randrange(2, 10) for _ in range(n))
        brute = min(math.prod(sub)
                    for sub in itertools.combinations(alphabets, n - 2 * d))
        assert singleton_bound(n, d, alphabets) == brute
    report(9, 10, t0, "singleton_bound equals the brute-force subset minimum "
           "on 100 random geometries")
