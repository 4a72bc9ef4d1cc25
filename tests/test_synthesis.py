"""Tests for code parameters, orthogonal partitions and the construction drivers."""

from __future__ import annotations

import itertools
import math

import pytest

from oaqec.arrays import distance_profile, is_orthogonal_array
from oaqec.constructions import bush, resolve_symmetric_oa
from oaqec.errors import (
    BadFactorization,
    BadGeometry,
    DivisibilityViolated,
    ExcludedS,
    IngredientUnavailable,
    NegativeM,
    NotFromOA,
    NotPartitionable,
    SBoundViolated,
)
from oaqec.formats import load_fixture
from oaqec.synthesis import (
    admissible_m_range,
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
from oaqec.verify import cross_validate, verify_code

from conftest import naive_is_oa


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
    assert p.in_admissible_range
    assert p.code_string() == "((5,1,3))_{4^1 2^4}"


def test_code_string_groups_repeated_sizes_descending():
    p = make_code_params(6, 1, (12, 2, 12, 6, 12, 2), 12)
    assert p.code_string() == "((6,12,2))_{12^3 6^1 2^2}"


# --- partitions ----------------------------------------------------------------


def test_partition_by_prefix_strips_and_groups():
    A = bush(3, 3)  # OA(27, 4, 3, 3)
    parent, part = partition_by_prefix(A, 1)
    assert parent.n == A.n - 1 and parent.r == A.r
    assert part.K == 3 and part.block_size == 9
    assert part.strength == 2
    for block in part.block_arrays():
        assert naive_is_oa(block.rows, block.alphabets, 2)


def test_partition_by_prefix_zero_keeps_everything_in_one_block():
    A = bush(2, 2)
    parent, part = partition_by_prefix(A, 0)
    assert parent.n == A.n and part.K == 1
    assert part.block_size == A.r


def test_partition_by_prefix_rejects_width_at_or_above_strength():
    A = bush(3, 2)
    with pytest.raises(ValueError):
        partition_by_prefix(A, 2)
    with pytest.raises(ValueError):
        partition_by_prefix(A, A.n)


def test_partition_rejects_uneven_blocks():
    A = bush(2, 2)
    from oaqec.synthesis import OrthogonalPartition

    with pytest.raises(NotPartitionable):
        OrthogonalPartition(A, (A.rows[:1], A.rows[1:]), 1)
    with pytest.raises(NotPartitionable):
        OrthogonalPartition(A, (A.rows[:2], A.rows[:2]), 1)


def test_partition_rejects_an_empty_block():
    A = bush(2, 2)
    from oaqec.synthesis import OrthogonalPartition

    with pytest.raises(NotPartitionable, match="nonempty"):
        OrthogonalPartition(A, (A.rows, ()), 1)
    with pytest.raises(NotPartitionable, match="nonempty"):
        OrthogonalPartition(A, (A.matrix, A.matrix[:0]), 1)
    with pytest.raises(NotPartitionable, match="nonempty"):
        OrthogonalPartition(A, (), 1)


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
    assert p.m_range == (0, 22) and p.in_admissible_range
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
    assert not p.in_admissible_range  # sits above the published window
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
    with pytest.raises(DivisibilityViolated):
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
    from oaqec.arrays import MixedLevelArray, claim
    from oaqec.synthesis import OrthogonalPartition, code_from_partitioned_oa

    fixture, _ = load_fixture("qmds_8_8_3")

    def merge(ket):
        return ket[:3] + (2 * ket[3] + ket[4],) + ket[5:]

    blocks = [tuple(merge(k) for k in state) for state in fixture.basis]
    parent = claim(MixedLevelArray([r for b in blocks for r in b],
                                   (4, 4, 4, 4, 2, 2, 2)).sorted_rows(), strength=2)
    assert distance_profile(parent).md == 3
    part = OrthogonalPartition(parent, blocks, 2)
    merged = code_from_partitioned_oa(parent, part, 2, 3, h_exact=True,
                                      construction="merged-bit reference input")
    assert merged.params.code_string() == "((7,8,3))_{4^4 2^3}"
    assert verify_code(merged).passed

    code = theorem_huan(merged, 3, [2, 2])
    assert code.params.code_string() == fixture.params.code_string()
    assert code.basis == fixture.basis


# --- shared driver behaviour -----------------------------------------------------


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


def test_provenance_records_route_and_ingredients():
    code = theorem_tn(12, 1, 1, [2])
    prov = code.provenance
    assert prov is not None
    assert prov.ingredients
    assert prov.t_prime == 1 and prov.h >= 2
    assert any("asset" in ing for ing in prov.ingredients)


def test_uncovered_parent_raises_claim_failed_under_optimize():
    from test_cli import run_optimized

    script = """
import sys
from dataclasses import replace
from oaqec.arrays import MixedLevelArray
from oaqec.errors import ClaimFailed
from oaqec.synthesis import QuantumCode, theorem_5s2

assert sys.flags.optimize
code = theorem_5s2(3, [3])
prov = code.provenance
parent = MixedLevelArray(prov.parent.rows + (prov.parent.rows[0],),
                         prov.parent.alphabets)
try:
    QuantumCode(code.params, code.basis, replace(prov, parent=parent))
except ClaimFailed as exc:
    print(exc)
    sys.exit(0)
sys.exit(1)
"""
    proc = run_optimized(["-c", script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "basis states do not cover the parent array\n"
