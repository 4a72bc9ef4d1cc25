"""Tests for code parameters, orthogonal partitions and the construction drivers."""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oaqec import arrays, cli, constructions, schemes, synthesis
from oaqec.arrays import (MixedLevelArray, claim, delete_columns, distance_profile,
                          ensure_checked, storage_dtype)
from oaqec.constructions import bush, resolve_symmetric_oa
from oaqec.errors import (
    BadFactorization,
    BadGeometry,
    BadRecipe,
    ClaimFailed,
    DivisibilityViolated,
    ExcludedS,
    IngredientUnavailable,
    NegativeM,
    NotFromOA,
    NotPartitionable,
    SBoundViolated,
    SymbolOutOfRange,
)
from oaqec.formats import code_to_ket_text, provenance_block
from oaqec.synthesis import (
    OrthogonalPartition,
    QuantumCode,
    _base_52s,
    admissible_m_range,
    build,
    code_from_partitioned_oa,
    corollary_5lie,
    m_value,
    make_code_params,
    partition_by_prefix,
    singleton_bound,
    theorem_52s,
    theorem_5s2,
    theorem_huan,
    theorem_s1,
    theorem_tn,
)
from oaqec.tables import TABLE_IDS, expectations
from oaqec.verify import cross_validate, verify_code

from conftest import load_fixture, naive_canonical_basis, naive_is_oa, saturation_check
from test_acceptance import corrupted


def sorted_alphabets(code):
    return tuple(sorted(code.params.alphabets, reverse=True))


# --- parameter arithmetic ----------------------------------------------------


def test_singleton_bound_is_product_of_smallest_alphabets():
    assert singleton_bound(5, 2, (4, 2, 2, 2, 2)) == 2
    assert singleton_bound(4, 1, (12, 12, 12, 2)) == 24
    assert singleton_bound(4, 2, (3, 3, 3, 3)) == 1


def test_singleton_bound_rejects_bad_geometry():
    with pytest.raises(BadGeometry):
        singleton_bound(3, 2, (2, 2, 2))
    with pytest.raises(BadGeometry):
        singleton_bound(4, 1, (2, 2, 2))
    # a negative d is refused as such, before n >= 2d is tested
    with pytest.raises(BadGeometry, match=r"^need d >= 0, got d=-1$"):
        singleton_bound(4, -1, (2, 2, 2, 2))


def test_m_value_matches_bound_minus_dimension():
    assert m_value(5, 2, (4, 2, 2, 2, 2), 1) == 1
    assert m_value(4, 1, (12, 12, 12, 2), 12) == 12


def test_m_value_rejects_dimension_above_bound():
    with pytest.raises(NegativeM):
        m_value(5, 2, (4, 2, 2, 2, 2), 3)


def test_admissible_m_range_window():
    assert admissible_m_range(5, 2, (4, 2, 2, 2, 2)) == (0, 1)
    assert admissible_m_range(4, 1, (12, 12, 12, 2)) == (0, 22)
    assert admissible_m_range(6, 2, (16, 4, 4, 4, 2, 2)) == (0, 2)


def test_make_code_params_and_rendering():
    p = make_code_params(5, 2, (4, 2, 2, 2, 2), 1)
    assert (p.n, p.K, p.d_plus_1, p.m) == (5, 1, 3, 1)
    assert p.m_range == (0, 1)
    assert p.code_string() == "((5,1,3))_{4^1 2^4}"


def test_make_code_params_computes_the_singleton_bound_once():
    with mock.patch.object(synthesis, "singleton_bound",
                           wraps=synthesis.singleton_bound) as bound:
        p = make_code_params(4, 1, (12, 12, 12, 2), 12)
        assert bound.call_count == 1
        assert (p.singleton, p.m) == (24, 12)
        with pytest.raises(NegativeM, match="dimension 25 exceeds the singleton bound 24"):
            make_code_params(4, 1, (12, 12, 12, 2), 25)
        with pytest.raises(BadGeometry, match="need n >= 2d\\+1, got n=4, d=2"):
            make_code_params(4, 2, (12, 12, 12, 2), 1)
    assert bound.call_count == 2


@pytest.mark.parametrize("alphabets", [(1, 1), (2, 1), (-2, 2), (0, 3)])
def test_make_code_params_refuses_an_alphabet_below_two(alphabets):
    # (1, 1) had singleton bound 1 and passed as a code; (-2, 2) was refused
    # only by the sign of its bound
    with pytest.raises(BadGeometry, match="alphabet sizes must each be at least 2"):
        make_code_params(2, 0, alphabets, 1)
    with pytest.raises(BadGeometry):
        singleton_bound(2, 0, alphabets)


def test_code_string_groups_repeated_sizes_descending():
    p = make_code_params(6, 1, (12, 2, 12, 6, 12, 2), 12)
    assert p.code_string() == "((6,12,2))_{12^3 6^1 2^2}"


# --- partitions ----------------------------------------------------------------


def test_partition_by_prefix_strips_and_groups():
    A = bush(3, 3)  # OA(27, 4, 3, 3)
    parent, K = partition_by_prefix(A, 1)
    assert parent.n == A.n - 1 and parent.r == A.r
    assert K == 3
    part = OrthogonalPartition(parent, K, A.strength - 1)
    assert part.block_size == 9 and part.strength_checked
    for block in np.split(parent.matrix, K):
        assert naive_is_oa(block.tolist(), parent.alphabets, 2)


def test_partition_by_prefix_zero_keeps_everything_in_one_block():
    A = bush(2, 2)
    parent, K = partition_by_prefix(A, 0)
    assert parent.n == A.n and K == 1
    assert parent.rows == tuple(sorted(A.rows))


def test_partition_by_prefix_sorts_rows_only_when_they_are_out_of_order():
    # a Bush table is lexsorted, and stays so with its trailing columns deleted
    A = delete_columns(bush(5, 3), [5])
    shuffled = MixedLevelArray(A.matrix[::-1], A.alphabets)
    sorts, real = [], arrays.lexsorted

    def spy(matrix):
        out = real(matrix)
        sorts.append((matrix, out))
        return out

    with mock.patch.object(arrays, "lexsorted", spy):
        parent, K = partition_by_prefix(claim(A, strength=3), 1)
        again, _ = partition_by_prefix(claim(shuffled, strength=3), 1)
    # rows in order come back as the same matrix, rows out of order sorted
    [(kept, kept_out), (moved, moved_out)] = sorts
    assert kept is A.matrix and kept_out is kept
    assert moved is shuffled.matrix and np.array_equal(moved_out, A.matrix)
    assert K == 5 and np.array_equal(parent.matrix, again.matrix)
    assert np.array_equal(parent.matrix, A.matrix[:, 1:])


def test_partition_by_prefix_rejects_width_at_or_above_strength():
    A = bush(3, 2)
    with pytest.raises(ValueError):
        partition_by_prefix(A, 2)
    with pytest.raises(ValueError):
        partition_by_prefix(A, A.n)


def test_partition_refuses_a_block_count_that_does_not_split_the_rows():
    A = bush(2, 2)
    for K in (0, 3, A.r + 1):
        with pytest.raises(NotPartitionable, match="equal nonempty blocks"):
            OrthogonalPartition(A, K, 1)
    with pytest.raises(ValueError, match="at least 1"):
        OrthogonalPartition(A, 2, 0)


def test_unbalanced_partition_fails_its_check_or_is_carried_unchecked():
    # sorted rows of OA(4, 3, 2, 2): column 0 is constant on each half
    A = bush(2, 2).sorted_rows()
    assert not naive_is_oa(A.rows[:2], A.alphabets, 1)
    with pytest.raises(ClaimFailed, match=r"^block is not balanced to strength 1: "
                                          r"columns \(0,\), levels \(1,\)"):
        OrthogonalPartition(A, 2, 1)
    part = OrthogonalPartition(A, 2, 1, budget=0)
    assert part.strength_checked is False


@pytest.mark.parametrize("t", [2, 1])
def test_a_single_block_partition_checks_strength_once(t):
    # the one block is the parent: its checked claim of strength >= t covers it
    A = claim(bush(3, 2), strength=2)
    with mock.patch.object(arrays, "is_orthogonal_array",
                           wraps=arrays.is_orthogonal_array) as check:
        part = OrthogonalPartition(A, 1, t)
    assert check.call_count == 1 and check.call_args.args[1:] == (2,)
    assert part.strength_checked and part.parent.strength_checked
    assert not A.strength_checked


def test_a_single_block_partition_above_the_parent_claim_is_checked():
    A = bush(3, 2)
    with pytest.raises(ClaimFailed, match="^block is not balanced to strength 3: "):
        OrthogonalPartition(A, 1, 3)


# --- first driver family ------------------------------------------------------


def test_first_driver_smallest_case():
    code = theorem_5s2(2, [2])
    p = code.params
    assert (p.n, p.K, p.d_plus_1, p.m) == (5, 1, 3, 1)
    assert sorted_alphabets(code) == (4, 2, 2, 2, 2)
    assert code.status() == "verified"
    assert verify_code(code, 2).passed


def test_first_driver_composite_alphabet_with_split():
    code = theorem_5s2(6, [2, 3])
    p = code.params
    assert (p.n, p.K, p.d_plus_1, p.m) == (6, 1, 3, 5)
    assert sorted_alphabets(code) == (36, 6, 6, 6, 3, 2)
    assert verify_code(code, 2).passed


def test_first_driver_defect_is_s_minus_1():
    for s in (2, 3, 4, 5):
        assert theorem_5s2(s, [s]).params.m == s - 1


def test_second_driver_doubled_column():
    code = theorem_52s(3, [3])
    p = code.params
    assert (p.n, p.K, p.d_plus_1, p.m) == (5, 1, 3, 2)
    assert sorted_alphabets(code) == (6, 3, 3, 3, 3)
    assert verify_code(code, 2).passed


def test_second_driver_full_split():
    code = theorem_52s(8, [2, 2, 2])
    p = code.params
    assert (p.n, p.K, p.d_plus_1, p.m) == (7, 1, 3, 7)
    assert sorted_alphabets(code) == (16, 8, 8, 8, 2, 2, 2)
    assert verify_code(code, 2).passed


#: rows of the arrays once registered as oa_8_5_4_2222 and oa_18_5_6_3333,
#: one digit per column
FORMER_BUILDER_ROWS = {
    2: "00000 01111 10101 11010 20011 21100 30110 31001",
    3: "00000 01111 02222 10121 11202 12010 20211 21022 22100 "
       "30220 31001 32112 40012 41120 42201 50102 51210 52021",
}


@pytest.mark.parametrize("s", [2, 3])
def test_base_52s_is_the_former_builder_array(s):
    ingredients = []
    A = _base_52s(s, ingredients)
    assert ingredients == [f"saturated lift of D({2 * s},{2 * s},{s})"]
    assert A.alphabets == (2 * s,) + (s,) * 4
    assert ["".join(map(str, row)) for row in A.rows] == FORMER_BUILDER_ROWS[s].split()
    assert (A.strength, A.md) == (2, 3) and ensure_checked(A).verified


def test_base_52s_of_2_is_saturated():
    # 3 + 4 * 1 = 8 - 1: the 8-row array has no room for another column
    assert saturation_check(_base_52s(2, []))
    assert not saturation_check(_base_52s(3, []))


@pytest.mark.parametrize("s, first", [
    (6, "asset oa_72_5_12_6666 (sha256 "),
    (10, "saturated lift of D(4,4,2)"),
    (12, "saturated lift of D(6,6,3)"),
    (20, "saturated lift of D(8,8,4)"),
])
def test_base_52s_of_a_composite_takes_its_smallest_piece(s, first):
    ingredients = []
    A = _base_52s(s, ingredients)
    assert ingredients[0].startswith(first)
    assert all(note.endswith("by polynomial construction") for note in ingredients[1:])
    assert A.alphabets == (2 * s,) + (s,) * 4 and A.r == 2 * s * s
    assert (A.strength, A.md) == (2, 3) and ensure_checked(A).verified


def test_driver_rejects_factor_product_not_dividing_s():
    with pytest.raises(BadFactorization):
        theorem_5s2(6, [4])
    with pytest.raises(BadFactorization):
        theorem_52s(8, [3])


# --- nested-column driver ------------------------------------------------------


@pytest.mark.parametrize("s,d,s1,n,m,alphabets", [
    (4, 1, 2, 3, 1, (4, 2, 2)),
    (8, 2, 2, 5, 1, (8, 8, 8, 4, 2)),
    (9, 2, 3, 5, 2, (9, 9, 9, 3, 3)),
    (8, 3, 2, 7, 1, (8, 8, 8, 8, 8, 4, 2)),
])
def test_nested_driver_cases(s, d, s1, n, m, alphabets):
    code = theorem_s1(s, d, s1)
    p = code.params
    assert (p.n, p.K, p.d_plus_1, p.m) == (n, 1, d + 1, m)
    assert sorted_alphabets(code) == alphabets
    assert verify_code(code, d).passed
    assert cross_validate(code).agree


def test_nested_driver_requires_s1_divides_s():
    with pytest.raises(DivisibilityViolated):
        theorem_s1(9, 2, 2)


def test_nested_driver_requires_s_at_least_s1_squared():
    with pytest.raises(SBoundViolated):
        theorem_s1(12, 2, 4)


def test_nested_driver_missing_ingredient():
    with pytest.raises(IngredientUnavailable):
        theorem_s1(18, 2, 2)


# --- column-splitting driver ----------------------------------------------------


def test_split_driver_positive_dimension():
    code = theorem_tn(12, 1, 1, [2])
    p = code.params
    assert (p.n, p.K, p.d_plus_1, p.m) == (4, 12, 2, 12)
    assert sorted_alphabets(code) == (12, 12, 12, 2)
    assert p.m_range == (0, 22)
    assert verify_code(code, 1).passed
    assert cross_validate(code).agree


def test_split_driver_defect_closed_form():
    for s, f in ((8, (2,)), (9, (3,)), (12, (4, 3)), (12, (3, 2))):
        code = theorem_tn(s, 1, 1, list(f))
        want = (math.prod(f) - 1) * s
        assert code.params.m == want
        assert code.params.K == s


def test_split_driver_second_column():
    code = theorem_tn(12, 2, 0, [2], [6, 2])
    p = code.params
    assert (p.n, p.K, p.d_plus_1, p.m) == (6, 1, 3, 3)
    assert sorted_alphabets(code) == (12, 12, 12, 6, 2, 2)
    assert p.m > p.m_range[1]  # sits above the published window
    assert verify_code(code, 2).passed


def test_split_driver_dimension_eight():
    code = theorem_tn(8, 2, 1, [2, 2])
    p = code.params
    assert (p.n, p.K, p.d_plus_1) == (7, 8, 3)
    assert sorted_alphabets(code) == (8, 8, 8, 8, 8, 2, 2)
    assert verify_code(code, 2).passed
    assert cross_validate(code).agree


def test_split_driver_rejects_second_split_without_room():
    # the second split replaces a full-alphabet column exactly
    with pytest.raises(BadFactorization):
        theorem_tn(12, 1, 1, [2], [5, 2])


def test_convenience_wrapper_five_columns():
    code = corollary_5lie(9, [3])
    p = code.params
    assert (p.n, p.K, p.d_plus_1, p.m) == (5, 1, 3, 2)
    assert sorted_alphabets(code) == (9, 9, 9, 9, 3)
    assert verify_code(code, 2).passed


def test_convenience_wrapper_excluded_sizes():
    for s in (2, 3, 6, 10):
        with pytest.raises(ExcludedS):
            corollary_5lie(s, [2])


# --- column re-splitting ---------------------------------------------------------


def test_resplit_needs_array_backing():
    code, _ = load_fixture("qmds_5_1_3_12")
    with pytest.raises(NotFromOA):
        theorem_huan(code, None, [6, 2])


def test_resplit_factor_product_must_match_column():
    base = theorem_tn(12, 1, 1, [2])
    with pytest.raises(BadFactorization):
        theorem_huan(base, 0, [5, 2])


@pytest.mark.parametrize("col", [4, 99, -1])
def test_resplit_refuses_a_column_outside_the_array(col):
    # 99 raised a bare IndexError, and -1 indexed the last column
    base = theorem_tn(12, 1, 1, [2])
    with pytest.raises(SymbolOutOfRange, match=f"^column {col} out of range for 4 columns$"):
        theorem_huan(base, col, [6, 2])


def test_resplit_produces_the_published_shape():
    base = theorem_tn(12, 1, 1, [2])
    code = theorem_huan(base, None, [6, 2])
    p = code.params
    assert (p.n, p.K, p.d_plus_1) == (5, 12, 2)
    assert sorted_alphabets(code) == (12, 12, 6, 2, 2)
    assert verify_code(code, 1).passed
    assert cross_validate(code).agree


def test_resplit_reproduces_bundled_code_from_merged_columns():
    # Merge two binary legs of the bundled 8-state code back into one 4-symbol
    # column, rebuild the array-backed input, then split the column again:
    # the resulting basis must be identical to the bundled one.
    from oaqec.arrays import claim
    from oaqec.synthesis import code_from_partitioned_oa

    fixture, _ = load_fixture("qmds_8_8_3")

    def merge(ket):
        return ket[:3] + (2 * ket[3] + ket[4],) + ket[5:]

    blocks = [tuple(merge(k) for k in state) for state in fixture.basis]
    parent = claim(MixedLevelArray([r for b in blocks for r in b],
                                   (4, 4, 4, 4, 2, 2, 2)), strength=2)
    assert distance_profile(parent) == 3
    part = OrthogonalPartition(parent, len(blocks), 2)
    merged = code_from_partitioned_oa(part, 3, construction="merged-bit reference input")
    assert merged.params.code_string() == "((7,8,3))_{4^4 2^3}"
    assert merged.provenance.h_exact  # the partition measured md 3
    assert verify_code(merged).passed

    code = theorem_huan(merged, 3, [2, 2])
    assert code.params.code_string() == fixture.params.code_string()
    assert code.basis == fixture.basis


# --- recipes: one dispatch and one factor-list check ------------------------------

#: the builders `build` reaches for each theorem label, in call order
BUILDERS = {"t1": ["theorem_5s2"], "t2": ["theorem_52s"], "t3": ["theorem_s1"],
            "c1": ["theorem_s1"], "t4": ["theorem_tn"], "c2": ["theorem_tn"],
            "c3": ["corollary_5lie"], "t5": ["theorem_tn", "theorem_huan"]}


@pytest.mark.parametrize("theorem", cli.THEOREMS)
def test_build_reaches_a_builder_for_every_cli_label(monkeypatch, theorem):
    calls = []
    for name in {name for names in BUILDERS.values() for name in names}:
        monkeypatch.setattr(synthesis, name,
                            lambda *args, name=name: calls.append((name, args)))
    build(theorem, 12, 1, 1, [2], [6, 2])
    assert [name for name, _ in calls] == BUILDERS[theorem]
    assert calls[0][1][0] == 12


def test_build_defaults_t1_and_t2_to_an_unsplit_column():
    for theorem, builder in (("t1", theorem_5s2), ("t2", theorem_52s)):
        assert build(theorem, 3, None, 0, None, None).basis == builder(3, [3]).basis


def test_build_refuses_an_unknown_label():
    with pytest.raises(ValueError, match="unknown theorem 't9'"):
        build("t9", 4, 1, 0, [2], None)


@pytest.mark.parametrize("theorem,d,l,factors,q_factors,message", [
    ("t3", 2, 0, [3, 3], None, "t3 needs --factors with exactly one entry"),
    ("c1", 2, 0, None, None, "c1 needs --factors with exactly one entry"),
    ("t3", None, 0, [3], None, "t3 needs --d"),
    ("t4", None, 1, [3], None, "t4 needs --d"),
    ("c2", 1, 1, None, None, "c2 needs --factors"),
    ("c3", None, 0, None, None, "c3 needs --factors"),
    ("t5", 1, 1, None, [3, 3], "t5 needs --factors for the base construction"),
    ("t5", 1, 1, [3], None, "t5 needs --q-factors for the column split"),
    ("t5", None, 1, [3], [3, 3], "t5 needs --d"),
])
def test_build_refuses_a_recipe_without_a_field_its_theorem_reads(theorem, d, l, factors,
                                                                  q_factors, message):
    # t3 with [3, 3] built the s1=3 code, and a missing d or factor list
    # ended in a TypeError inside the builder
    with pytest.raises(BadRecipe) as exc:
        build(theorem, 9, d, l, factors, q_factors)
    assert str(exc.value) == message


def test_every_catalogue_row_names_a_cli_label():
    assert set(BUILDERS) == set(cli.THEOREMS)
    labels = {row.builder for tid in TABLE_IDS for row in expectations(tid)}
    assert labels <= set(cli.THEOREMS)


#: (theorem, s, d, l, factors, q_factors, error, message) of factor lists
#: every builder refuses through the one check
FACTOR_FAULTS = [
    ("t1", 6, None, 0, [2, 2], None, BadFactorization,
     "factors [2, 2] do not multiply to 6"),
    ("t2", 6, None, 0, [5], None, BadFactorization, "factors [5] do not multiply to 6"),
    ("t4", 12, 2, 0, [2], [5, 2], BadFactorization,
     "factors [5, 2] do not multiply to 12"),
    ("t5", 12, 1, 1, [2], [5, 2], BadFactorization,
     "factors [5, 2] do not multiply to 12"),
    ("t4", 12, 2, 0, [5], None, DivisibilityViolated, "factor product 5 must divide 12"),
    ("c3", 9, None, 0, [2], None, DivisibilityViolated, "factor product 2 must divide 9"),
    ("t1", 4, None, 0, [1, 4], None, BadFactorization,
     "factors must each be at least 2, got [1, 4]"),
    ("t4", 12, 2, 0, [1], None, BadFactorization,
     "factors must each be at least 2, got [1]"),
    ("t4", 12, 2, 0, [2], [1, 12], BadFactorization,
     "factors must each be at least 2, got [1, 12]"),
    ("t5", 12, 1, 1, [2], [1, 12], BadFactorization,
     "factors must each be at least 2, got [1, 12]"),
]
FAULT_IDS = [f"{fault[0]}-{fault[6].__name__}-{i}" for i, fault in enumerate(FACTOR_FAULTS)]


@pytest.mark.parametrize("theorem,s,d,l,factors,q_factors,error,message",
                         FACTOR_FAULTS, ids=FAULT_IDS)
def test_build_refuses_factor_faults(theorem, s, d, l, factors, q_factors, error,
                                     message):
    with pytest.raises(error) as exc:
        build(theorem, s, d, l, factors, q_factors)
    assert type(exc.value) is error and str(exc.value) == message


# --- shared driver behaviour -----------------------------------------------------


# SHA-256 of the canonical ket bytes of one build per builder
EMITTED_KETS = {
    "t1 s=6 f=2x3": ("93f8791c26867f1bfebbaacc63bf30d08ad68927ae3be413763d4caada9d124f",
                     lambda: theorem_5s2(6, [2, 3])),
    "t2 s=6 f=2x3": ("8c543919bc1ebd47d45161d830ceaa53ee4ff9db1b3c47363e8b355501246021",
                     lambda: theorem_52s(6, [2, 3])),
    "t3 s=49 d=2 s1=7": ("a24a1b421eec9c7c61559190f2ec0c82c5513c1c3b3974482cf195a68b7851a2",
                         lambda: theorem_s1(49, 2, 7)),
    "t4 s=8 d=3 l=1 f=2": ("486816732670936f1ce1f9275b84c536e60dda8506ae5bc09799f2325575edf6",
                           lambda: theorem_tn(8, 3, 1, [2])),
    "t4 s=9 d=2 l=1 f=3": ("e8585cd08d3e4873b974d75f2daa585da8f226efea49cdcc6a544a1c9c89213c",
                           lambda: theorem_tn(9, 2, 1, [3])),
    "t4 s=7 d=1 l=2 f=7": ("ac570a1c9a857640494093edcd270d1ae688bbddba4c6fa277292f447d82311c",
                           lambda: theorem_tn(7, 1, 2, [7])),
    "t4 s=12 d=1 l=1 f=3 q=4x3": (
        "a473c31e91244e46431c035177d66451d0421aba877753672da9313d2b9aae27",
        lambda: theorem_tn(12, 1, 1, [3], [4, 3])),
    "c3 s=4 f=2x2": ("ac719c5f2e9c34bbfd2f18de79810e8fddda4a0d5015b36b8f7a074c0b45b44c",
                     lambda: corollary_5lie(4, [2, 2])),
    "t5 s=12 d=1 l=1 f=2 q=6x2": (
        "dfab95bb6d6de1bfde71c4b8ab7b867e19391f29195b37d26ae495df4c6d4494",
        lambda: theorem_huan(theorem_tn(12, 1, 1, [2]), None, [6, 2])),
}


@pytest.mark.parametrize("name", sorted(EMITTED_KETS))
def test_builders_emit_pinned_kets(name):
    digest, build = EMITTED_KETS[name]
    assert hashlib.sha256(build().kets.tobytes()).hexdigest() == digest


def test_recorded_window_matches_recomputation():
    for code in (theorem_5s2(3, [3]), theorem_52s(4, [2, 2]),
                 theorem_s1(9, 2, 3), theorem_tn(12, 1, 1, [3, 2])):
        p = code.params
        assert p.m_range == admissible_m_range(p.n, p.d_plus_1 - 1, p.alphabets)
        assert p.m == m_value(p.n, p.d_plus_1 - 1, p.alphabets, p.K)


def test_states_partition_all_parent_rows():
    code = theorem_tn(8, 1, 1, [2])
    kets = [ket for state in code.basis for ket in state]
    assert len(kets) == len(set(kets)) == code.provenance.parent.r


def test_tiny_budget_leaves_code_unverified():
    code = theorem_5s2(2, [2], budget=5)
    assert code.status() == "constructed, unverified"
    # the claims are still exact: full re-verification passes
    assert verify_code(code, 2).passed


def _corrupted(build):
    """build, with the entry in row 0, column 2 of its scheme changed: a
    column the code keeps."""
    def corrupted_build(s):
        D = build(s)
        rows = D.matrix.copy()
        rows[0, 2] = (rows[0, 2] + 1) % s
        return schemes.DifferenceScheme(rows, s, strength=D.strength, field=D.field)
    return corrupted_build


@pytest.mark.parametrize("s", [3, 4, 5])
@pytest.mark.parametrize("name, theorem", [("d3_scheme", theorem_5s2),
                                           ("d_2s", theorem_52s)])
def test_a_corrupted_scheme_fails_where_its_code_partition_is_formed(
        monkeypatch, name, theorem, s):
    # schemes record their strength unchecked: the lift's claim is checked
    # where the partition is formed, and over budget both routes reject it
    monkeypatch.setattr(synthesis, name, _corrupted(getattr(schemes, name)))
    # a lift is made once per process: build this test's from the corrupted
    # scheme, uncached, and leave the process's lifts as they are
    lift = {"d3_scheme": "_d3_lift", "d_2s": "_d_2s_lift"}[name]
    monkeypatch.setattr(synthesis, lift, getattr(synthesis, lift).__wrapped__)
    with pytest.raises(ClaimFailed) as failure:
        theorem(s, [s])
    assert str(failure.value).startswith("strength 2 claim failed")
    code = theorem(s, [s], budget=0)
    assert code.status() == "constructed, unverified"
    check = cross_validate(code)
    assert not check.quantum_pass and not check.combinatorial_pass


def test_provenance_records_route_and_ingredients():
    code = theorem_tn(12, 1, 1, [2])
    prov = code.provenance
    assert prov is not None
    assert prov.ingredients
    assert prov.t_prime == 1 and prov.h >= 2
    assert any("asset" in ing for ing in prov.ingredients)


# --- ingredients shared within a process --------------------------------------------


@pytest.mark.parametrize("s,d,s1,route", [(9, 2, 3, "by polynomial construction"),
                                          (6, 1, 2, "as a columnwise product")])
def test_a_resolved_ingredient_is_shared_and_rows_leave_it_unchecked(s, d, s1, route):
    first, second = [], []
    A = resolve_symmetric_oa(s, 2 * d, d, first)
    assert route in first[0]
    # the code's array is a column split of this very array, and is checked
    assert theorem_s1(s, d, s1).status() == "verified"
    assert resolve_symmetric_oa(s, 2 * d, d, second) is A and second == first
    assert not A.matrix.flags.writeable
    assert not (A.strength_checked or A.md_checked)


#: a recipe (theorem, s, d, l, factors, q_factors) of every builder and route:
#: the d3 lift, the d_2s lift alone and times a polynomial piece, the
#: polynomial route (through a prefix partition for t4), the product route
#: and the asset route
REBUILT = [("t1", 3, None, 0, [3], None), ("t2", 4, None, 0, [2, 2], None),
           ("t2", 10, None, 0, [10], None), ("t3", 9, 2, 0, [3], None),
           ("t4", 4, 1, 1, [2], None), ("c2", 6, 1, 0, [2, 3], None),
           ("c3", 7, None, 0, [7], None), ("t5", 12, 1, 1, [2], [6, 2])]


@pytest.mark.parametrize("recipe", REBUILT, ids=lambda recipe: f"{recipe[0]}-s{recipe[1]}")
def test_a_rebuilt_recipe_replays_its_ingredient_notes(recipe):
    # start cold, so that the first build makes every shared ingredient
    for memo in (constructions._prime_power_piece, constructions._product_piece,
                 synthesis._d3_lift, synthesis._d_2s_lift):
        memo.cache_clear()
    synthesis._PREFIX_PARTITIONS.clear()
    first, second = build(*recipe), build(*recipe)
    assert first.provenance.ingredients
    assert provenance_block(second) == provenance_block(first)
    assert code_to_ket_text(second) == code_to_ket_text(first)


def test_rebuilding_a_recipe_runs_every_check_again():
    # a process shares ingredients, never checks: every build checks its array
    calls = []
    for _ in range(3):
        with mock.patch.object(arrays, "is_orthogonal_array",
                               wraps=arrays.is_orthogonal_array) as check:
            theorem_tn(4, 1, 1, [2])
        calls.append(check.call_count)
    assert calls[1] == calls[2] > 0


def test_uncovered_parent_raises_claim_failed_under_optimize():
    from test_cli import run_optimized

    script = """
import sys
from dataclasses import replace
from oaqec.arrays import MixedLevelArray
from oaqec.errors import ClaimFailed
from oaqec.synthesis import OrthogonalPartition, QuantumCode, theorem_5s2

assert sys.flags.optimize
code = theorem_5s2(3, [3])
prov = code.provenance
parent = MixedLevelArray(prov.parent.rows + (prov.parent.rows[0],),
                         prov.parent.alphabets)
partition = OrthogonalPartition(parent, 1, prov.t_prime, budget=0)
try:
    QuantumCode(code.params, code.basis, replace(prov, partition=partition))
except ClaimFailed as exc:
    print(exc)
    sys.exit(0)
sys.exit(1)
"""
    proc = run_optimized(["-c", script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "basis states do not cover the parent array\n"


# --- the ket matrix of a code ---------------------------------------------------


@st.composite
def shuffled_bases(draw):
    """(params, states): K disjoint equal-size ket sets in random order."""
    n = draw(st.integers(1, 4), label="n")
    alphabets = tuple(draw(st.lists(st.integers(2, 5), min_size=n, max_size=n)))
    words = math.prod(alphabets)
    K = draw(st.integers(1, min(4, words)), label="K")
    block = draw(st.integers(1, min(5, words // K)), label="block")
    picks = draw(st.lists(st.integers(0, words - 1), min_size=K * block,
                          max_size=K * block, unique=True))
    kets = [tuple(int(x) for x in np.unravel_index(w, alphabets)) for w in picks]
    params = make_code_params(n, 0, alphabets, K)
    return params, [kets[i * block:(i + 1) * block] for i in range(K)]


def _one_matrix(states, order=None, dtype=None, writeable=True):
    """The kets as one (K * block, n) matrix, state i its i-th run of rows,
    each state's kets sorted by `order` (None keeps them as drawn)."""
    kets = [ket for state in states
            for ket in (state if order is None else sorted(state, reverse=order == "reversed"))]
    matrix = np.array(kets, dtype=dtype)
    matrix.setflags(write=writeable)
    return matrix


INPUT_FORMS = {
    "lists": lambda states: [list(state) for state in states],
    "generators": lambda states: ((ket for ket in state) for state in states),
    "lists of lists": lambda states: [[list(ket) for ket in state] for state in states],
    "matrices": lambda states: [np.array(state) for state in states],
    "one array": lambda states: np.array(states, dtype=np.uint64),
    "one matrix": _one_matrix,
    "one matrix, states sorted": lambda states: _one_matrix(states, "sorted"),
    "one matrix, states unsorted": lambda states: _one_matrix(states, "reversed"),
    "one read-only matrix in canonical order": lambda states: _one_matrix(
        naive_canonical_basis(states), dtype=np.uint8, writeable=False),
}


@settings(max_examples=100, deadline=None)
@given(data=shuffled_bases(), form=st.sampled_from(sorted(INPUT_FORMS)),
       key_max=st.sampled_from((1, 30, arrays._KEY_MAX)))
def test_ket_matrix_is_the_canonical_basis(data, form, key_max):
    params, states = data
    # a small key cap makes row_keys re-rank the ket keys, and at 1 the
    # ket entries too
    with mock.patch.object(arrays, "_KEY_MAX", key_max):
        code = QuantumCode(params, INPUT_FORMS[form](states))
    want = naive_canonical_basis(states)
    assert code.basis == want
    assert code.kets.tolist() == [list(ket) for state in want for ket in state]
    assert code.kets.dtype == np.min_scalar_type(max(params.alphabets) - 1)
    assert not code.kets.flags.writeable
    assert code.kets_per_state == len(states[0])
    for i, state in enumerate(want):
        assert code.state(i).tolist() == [list(ket) for ket in state]


@settings(max_examples=100, deadline=None)
@given(data=shuffled_bases(), form=st.sampled_from(sorted(INPUT_FORMS)))
def test_ket_matrix_past_int64_keys_is_the_canonical_basis(data, form):
    # alphabets past 2^63 make row_keys re-rank the keys and the ket entries
    params, states = data
    wide = make_code_params(params.n, 0, [2 ** 63 + s for s in params.alphabets], params.K)
    code = QuantumCode(wide, INPUT_FORMS[form](states))
    want = naive_canonical_basis(states)
    assert code.kets.tolist() == [list(ket) for state in want for ket in state]
    assert code.kets.dtype == np.int64 and not code.kets.flags.writeable


def test_code_does_not_share_a_writeable_ket_matrix():
    params = make_code_params(2, 0, (3, 3), 2)
    matrix = np.array([[0, 0], [1, 0], [0, 1], [2, 2]], dtype=np.uint8)
    code = QuantumCode(params, matrix)
    matrix[0, 0] = 2
    assert code.kets.tolist() == [[0, 0], [1, 0], [0, 1], [2, 2]]
    assert not code.kets.flags.writeable and matrix.flags.writeable


@pytest.mark.parametrize("basis,message", [
    (np.zeros((3, 2), dtype=int), "^3 kets do not split into 2 equal states$"),
    (np.zeros((0, 2), dtype=int), "^basis states hold no kets$"),
    (np.zeros((3, 1, 2), dtype=int), "^3 states for dimension 2$"),
    (np.zeros((2, 1, 3), dtype=int), "^ket length 3 != 2$"),
    (np.array([[0, 0], [1, 3]]), "^ket entry 3 out of range for alphabet 3$"),
    (np.array([[0, 1], [0, 1]]), r"^ket \(0, 1\) appears in more than one state$"),
])
def test_code_geometry_refusals_of_one_matrix(basis, message):
    with pytest.raises(BadGeometry, match=message):
        QuantumCode(_params(), basis)


@st.composite
def bases_with_repeats(draw):
    """(params, states, repeated): a shuffled basis in which some kets were
    overwritten by copies of others, and the kets that now occur twice."""
    params, states = draw(shuffled_bases())
    kets = [ket for state in states for ket in state]
    assume(len(kets) > 1)
    for _ in range(draw(st.integers(1, 3), label="copies")):
        src, dst = draw(st.lists(st.integers(0, len(kets) - 1), min_size=2, max_size=2,
                                 unique=True), label="copy")
        kets[dst] = kets[src]
    counts = {ket: kets.count(ket) for ket in kets}
    block = len(states[0])
    states = [kets[i * block:(i + 1) * block] for i in range(params.K)]
    return params, states, {ket for ket, count in counts.items() if count > 1}


@settings(max_examples=100, deadline=None)
@given(data=bases_with_repeats(), form=st.sampled_from(sorted(INPUT_FORMS)),
       wide=st.booleans())
def test_a_repeated_ket_named_is_the_lexicographically_first(data, form, wide):
    params, states, repeated = data
    if wide:
        params = make_code_params(params.n, 0, [2 ** 63 + s for s in params.alphabets],
                                  params.K)
    with pytest.raises(BadGeometry) as exc:
        QuantumCode(params, INPUT_FORMS[form](states))
    assert str(exc.value) == f"ket {min(repeated)} appears in more than one state"


@pytest.mark.parametrize("alphabet,dtype", [
    (2 ** 8, np.uint8), (2 ** 8 + 1, np.uint16), (2 ** 32, np.uint32),
    (2 ** 32 + 1, np.int64), (2 ** 64, np.int64), (2 ** 70, np.int64),
])
def test_kets_are_stored_in_the_arrays_storage_dtype(alphabet, dtype):
    # np.min_scalar_type(2**70 - 1) is object: kets take storage_dtype's int64
    params = make_code_params(3, 0, (alphabet,) * 3, 2)
    top = min(alphabet - 1, 2 ** 63 - 1)
    code = QuantumCode(params, [[(top, 0, 1)], [(0, top, 0)]])
    assert code.kets.dtype == storage_dtype(params.alphabets) == dtype
    assert code.kets.tolist() == [[0, top, 0], [top, 0, 1]]


def test_states_of_mixed_dtypes_join_exactly():
    # uint64 and int64 states promote to float64, which would round 2^62 + 1
    params = make_code_params(2, 0, (2 ** 63,) * 2, 2)
    code = QuantumCode(params, [np.array([[2 ** 62 + 1, 0]], dtype=np.uint64),
                                [(0, 2 ** 62 + 1)]])
    assert code.kets.tolist() == [[0, 2 ** 62 + 1], [2 ** 62 + 1, 0]]


def _params(n=2, alphabets=(3, 3), K=2):
    return make_code_params(n, 0, alphabets, K)


@pytest.mark.parametrize("basis,message", [
    ([[(0, 0)]], "1 states for dimension 2"),
    ([[(0, 0)], [(1, 1)], [(2, 2)]], "3 states for dimension 2"),
    ([[(0, 0), (1, 1)], [(2, 2)]], r"unequal ket counts \[1, 2\]"),
    ([[(0, 0)], [(1, 1, 1)]], "ket length 3 != 2"),
    ([[(0, 0), (1,)], [(2, 2), (1, 1)]], "ket length 1 != 2"),
    ([np.zeros((1, 3), dtype=int), [(1, 1)]], "ket length 3 != 2"),
    ([[0, 1], [2, 2]], "a state must list kets of length 2"),
    ([[(0, "x")], [(1, 1)]], "kets must be sequences of 2 integers"),
    ([[(0, 3)], [(1, 1)]], "ket entry 3 out of range for alphabet 3"),
    ([[(0, 0)], [(-1, 1)]], "ket entry -1 out of range for alphabet 3"),
    ([[(0, 0)], [(1, 2 ** 70)]], "outside the int64 range"),
    ([[(0, 0)], [np.array([2 ** 64 - 1, 0], dtype=np.uint64)]], "outside the int64 range"),
    ([[(0, 0), (0, 0)], [(1, 1), (2, 2)]], r"ket \(0, 0\) appears"),
    ([[(0, 0), (1, 2)], [(1, 1), (1, 2)]], r"ket \(1, 2\) appears"),
    ([[], []], "^basis states hold no kets$"),
    ([], "^a code needs at least one basis state, not K=0$"),
    ([[(0, 0)], [(1, 2 ** 64 - 1)]], "^ket entry outside the int64 range$"),
    ([[(0, 0)], np.array([[1, 2 ** 64 - 1]], dtype=np.uint64)],
     "^ket entry outside the int64 range$"),
    ([[(0, 0)], np.array([[1, 2 ** 63]], dtype=np.uint64)],
     "^ket entry outside the int64 range$"),
    ([[(0, 0)], [(1, 0.5)]], "^ket entry 0.5 is not an integer$"),
    ([[(0, 0)], np.array([[np.nan, 1]])], "^ket entry nan is not an integer$"),
    ([[(0, 0)], np.array([[1e30, 1]])], "^ket entry outside the int64 range$"),
])
def test_code_geometry_refusals(basis, message):
    # an empty basis is tried at dimension 0, every other one at dimension 2
    with pytest.raises(BadGeometry, match=message):
        QuantumCode(_params(K=2 if basis else 0), basis)


@pytest.mark.parametrize("basis,message", [
    ([[(0, "1")], [(1, 1)]], "^kets must be sequences of 2 integers: entry '1' is not an integer$"),
    ([[(0, None)], [(1, 1)]], "^kets must be sequences of 2 integers: entry None is not an integer$"),
    ([[(0, Fraction(1, 2))], [(1, 1)]],
     r"^kets must be sequences of 2 integers: entry Fraction\(1, 2\) is not an integer$"),
    ([[(0, 0), None], [(1, 1), (2, 2)]], "^kets must be sequences of 2 integers$"),
    ([[(0.5, 2 ** 70)], [(1, 1)]],
     "^kets must be sequences of 2 integers: entry 0.5 is not an integer$"),
    ([None, [(1, 1)]], "^a basis must list states, each a list of kets$"),
    (None, "^a basis must list states, each a list of kets$"),
])
def test_code_refuses_ket_entries_that_are_not_integers(basis, message):
    with pytest.raises(BadGeometry, match=message):
        QuantumCode(_params(), basis)


def test_code_accepts_bool_kets():
    code = QuantumCode(_params(), [[(True, False)], [(0, 1)]])
    assert code.basis == (((0, 1),), ((1, 0),))


def test_code_accepts_integral_float_kets():
    code = QuantumCode(_params(), [[(0.0, 1.0)], np.array([[2.0, 2.0]])])
    assert code.basis == (((0, 1),), ((2, 2),))
    assert code.kets.dtype == storage_dtype((3, 3))


def test_code_geometry_checks_entries_against_their_own_alphabet():
    params = _params(alphabets=(2, 4))
    assert QuantumCode(params, [[(1, 3)], [(0, 2)]]).basis == (((0, 2),), ((1, 3),))
    with pytest.raises(BadGeometry, match="ket entry 2 out of range for alphabet 2"):
        QuantumCode(params, [[(2, 1)], [(0, 2)]])


def test_code_refuses_kets_that_do_not_cover_the_parent():
    code = theorem_5s2(3, [3])
    prov = code.provenance
    parent = MixedLevelArray(np.vstack([prov.parent.matrix, prov.parent.matrix[:1]]),
                             prov.parent.alphabets)
    partition = OrthogonalPartition(parent, 1, prov.t_prime, budget=0)
    with pytest.raises(ClaimFailed, match="basis states do not cover the parent array"):
        QuantumCode(code.params, code.basis, replace(prov, partition=partition))


def test_no_caller_can_mark_the_distance_floor_exact():
    # the parent of ((5,1,3))_{9^1 3^4}: strength 2, minimal distance 3
    prov = theorem_5s2(3, [3]).provenance

    def parent():
        return claim(MixedLevelArray(prov.parent.matrix, prov.parent.alphabets), strength=2)

    for h in (1, 2, 3, 4, 9):
        code = code_from_partitioned_oa(OrthogonalPartition(parent(), 1, 2, budget=0), h)
        assert (code.provenance.h, code.provenance.h_exact) == (h, False)
        assert f"distance floor h={h} (lower bound)" in provenance_block(code)
        assert code.status() == "constructed, unverified"
    # the partition's distance check sets h, whatever floor is passed
    code = code_from_partitioned_oa(OrthogonalPartition(parent(), 1, 2), 9)
    assert (code.provenance.h, code.provenance.h_exact) == (3, True)
    assert "distance floor h=3 (exact)" in provenance_block(code)
    assert code.status() == "verified"
    # a provenance takes h only as a floor over the partition's check
    exact = code.provenance
    assert replace(exact, h=99).h == 3
    assert replace(exact, partition=OrthogonalPartition(parent(), 1, 2, budget=0)).h == 3
    assert replace(exact, partition=OrthogonalPartition(parent(), 1, 2, budget=0), h=99).h == 99
    # exactness is not a parameter of the compiler or of the provenance
    with pytest.raises(TypeError):
        code_from_partitioned_oa(OrthogonalPartition(parent(), 1, 2, budget=0), 3,
                                 h_exact=True)
    with pytest.raises(TypeError):
        replace(prov, h_exact=True)


@pytest.mark.parametrize("build", [
    lambda: theorem_tn(4, 1, 1, [2]),
    lambda: theorem_tn(8, 1, 1, [2]),
    lambda: theorem_s1(9, 2, 3),
], ids=["tn-4", "tn-8", "s1-9"])
def test_reports_do_not_depend_on_the_basis_input_form(build):
    code = build()
    rng = random.Random(3)
    for bad in (False, True):
        if bad:
            code = corrupted(code, rng)
        shuffled = [list(state) for state in code.basis]
        for state in shuffled:
            rng.shuffle(state)
        rng.shuffle(shuffled)
        from_tuples = QuantumCode(code.params, shuffled, code.provenance)
        block = code.kets_per_state
        from_matrix = QuantumCode(
            code.params, code.kets.reshape(code.params.K, block, code.params.n),
            code.provenance)
        assert np.array_equal(from_tuples.kets, from_matrix.kets)
        d = code.params.d_plus_1 - 1
        for mode in ("strict-uniform", "definition-5"):
            assert verify_code(from_tuples, d, mode) == verify_code(from_matrix, d, mode)
        assert cross_validate(from_tuples) == cross_validate(from_matrix)
        assert cross_validate(from_tuples).quantum_pass is not bad
