import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import naive_distance_set, naive_is_oa, naive_strength
from oaqec import arrays
from oaqec.arrays import (
    BalanceWitness,
    MixedLevelArray,
    attach_index_column,
    certify,
    claim,
    delete_columns,
    derive_subarray,
    distance_profile,
    ensure_checked,
    expansive_replacement,
    from_text,
    is_orthogonal_array,
    multiply_oa,
    saturated_hd_formula,
    saturation_check,
    strength,
    to_text,
)
from oaqec.errors import (
    ClaimFailed,
    EmptyResult,
    NotDivisible,
    RowCountMismatch,
    ShapeMismatch,
    SymbolOutOfRange,
    TooFewRows,
)


# --- constructor contract ------------------------------------------------------


@pytest.mark.parametrize("rows,alphabets,error", [
    ([(0, 1), (1,)], (2, 2), ShapeMismatch),
    ([(0, 1, 0)], (2, 2), ShapeMismatch),
    (np.zeros((3, 3), dtype=np.int64), (2, 2), ShapeMismatch),
    ([(0, 1), (1, -1)], (2, 2), SymbolOutOfRange),
    ([(0, 1), (2, 1)], (2, 2), SymbolOutOfRange),
    ([(0, 2**70)], (2, 2), SymbolOutOfRange),
    ([], (2, 2), EmptyResult),
    (np.zeros((0, 2), dtype=np.int64), (2, 2), EmptyResult),
    ([(0, 0)], (), EmptyResult),
    ([(0, 0)], (2, 1), ValueError),
])
def test_constructor_rejects_malformed_input(rows, alphabets, error):
    with pytest.raises(error):
        MixedLevelArray(rows, alphabets)


def test_constructor_names_the_first_out_of_range_entry():
    with pytest.raises(SymbolOutOfRange, match="^entry 3 out of range for alphabet 3$"):
        MixedLevelArray([(0, 1), (1, 3), (5, 0)], (2, 3))


def test_matrix_is_a_read_only_copy_of_the_callers_array():
    source = np.array([[0, 1], [1, 0]])
    A = MixedLevelArray(source, (2, 2))
    source[0, 0] = 1
    assert A.rows == ((0, 1), (1, 0))
    assert A.matrix.dtype == np.int64
    assert not A.matrix.flags.writeable
    with pytest.raises(ValueError):
        A.matrix[0, 0] = 1


def test_rows_and_witnesses_hold_python_ints():
    A = MixedLevelArray(np.array([[0, 0], [0, 1], [1, 0], [1, 0]], dtype=np.uint8), (2, 2))
    assert all(type(x) is int for row in A.rows for x in row)
    ok, witness = is_orthogonal_array(A, 2)
    assert not ok
    assert witness == BalanceWitness((0, 1), (1, 1), 0, 1, "level tuple missing")
    assert all(type(x) is int for x in witness.levels + (witness.observed,))
    _, witness = is_orthogonal_array(MixedLevelArray(A.rows + ((1, 0),), (2, 2)), 1)
    assert type(witness.observed) is int
    assert str(witness) == ("columns (0,), levels (0,): observed 2, "
                            "expected 2.5 (index r/prod(s_j) is not an integer)")


def full_factorial(alphabets):
    return MixedLevelArray(itertools.product(*(range(s) for s in alphabets)),
                           alphabets)


EVEN_WEIGHT = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]


def test_is_oa_full_factorial():
    ok, witness = is_orthogonal_array(full_factorial((2, 2, 2)), 3)
    assert ok and witness is None


def test_is_oa_even_weight_rows():
    A = MixedLevelArray(EVEN_WEIGHT, (2, 2, 2))
    assert is_orthogonal_array(A, 2)[0]
    ok, witness = is_orthogonal_array(A, 3)
    assert not ok
    assert witness.columns == (0, 1, 2)


def test_is_oa_witness_contents():
    A = MixedLevelArray([(0, 0), (1, 1)], (2, 2))
    ok, witness = is_orthogonal_array(A, 2)
    assert not ok
    assert witness.levels == (0, 0)  # fractional index: first tuple is named
    assert witness.observed == 1


def test_is_oa_missing_tuple_witness():
    A = MixedLevelArray([(0, 0), (1, 1), (0, 1), (0, 1)], (2, 2))
    ok, witness = is_orthogonal_array(A, 2)
    assert not ok
    assert witness.levels == (1, 0) and witness.observed == 0


def test_is_oa_non_integer_index():
    A = MixedLevelArray([(0, 0), (1, 1), (0, 1)], (2, 2))
    ok, witness = is_orthogonal_array(A, 2)
    assert not ok and "integer" in witness.reason


def test_strength_values():
    assert strength(MixedLevelArray(EVEN_WEIGHT, (2, 2, 2))) == 2
    assert strength(MixedLevelArray([(0, 0)], (2, 2))) == 0
    assert strength(full_factorial((3, 2))) == 2


def test_distance_profile_cases():
    prof = distance_profile(MixedLevelArray(EVEN_WEIGHT, (2, 2, 2)))
    assert prof.md == 2 and prof.hd == {2}
    assert distance_profile(full_factorial((2, 2, 2))).md == 1
    dup = MixedLevelArray([(0, 1), (0, 1)], (2, 2))
    assert distance_profile(dup).md == 0
    with pytest.raises(TooFewRows):
        distance_profile(MixedLevelArray([(0, 0)], (2, 2)))


def test_distance_profile_matches_naive_oracle():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 5)
        alphabets = [rng.randint(2, 4) for _ in range(n)]
        rows = [tuple(rng.randrange(s) for s in alphabets)
                for _ in range(rng.randint(2, 12))]
        A = MixedLevelArray(rows, alphabets)
        prof = distance_profile(A)
        oracle = naive_distance_set(rows)
        assert set(prof.hd) == oracle
        assert prof.md == min(oracle)


def test_is_oa_matches_naive_oracle():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 4)
        alphabets = [rng.randint(2, 3) for _ in range(n)]
        r = rng.choice([4, 6, 8, 9, 12])
        rows = [tuple(rng.randrange(s) for s in alphabets) for _ in range(r)]
        A = MixedLevelArray(rows, alphabets)
        for t in range(1, n + 1):
            assert is_orthogonal_array(A, t)[0] == naive_is_oa(rows, alphabets, t)


@st.composite
def small_arrays(draw):
    """Random arrays (r <= 40, n <= 6, alphabets 2-5), or a full factorial
    with one row dropped, duplicated or changed."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 6), label="n")
        alphabets = draw(st.lists(st.integers(2, 5), min_size=n, max_size=n))
        rows = draw(st.lists(st.tuples(*(st.integers(0, s - 1) for s in alphabets)),
                             min_size=1, max_size=40))
        return rows, alphabets
    alphabets = draw(st.lists(st.integers(2, 5), min_size=1, max_size=4))
    while math.prod(alphabets) > 19:
        alphabets.pop()
    lam = draw(st.integers(1, 39 // math.prod(alphabets)), label="lambda")
    rows = [list(tup) for tup in itertools.product(*(range(s) for s in alphabets))
            for _ in range(lam)]
    i = draw(st.integers(0, len(rows) - 1), label="row")
    op = draw(st.sampled_from(("drop", "duplicate", "change")), label="op")
    if op == "drop" and len(rows) > 1:
        rows.pop(i)
    elif op == "duplicate":
        rows.append(list(rows[i]))
    else:
        j = draw(st.integers(0, len(alphabets) - 1), label="column")
        rows[i][j] = draw(st.integers(0, alphabets[j] - 1), label="symbol")
    return [tuple(row) for row in rows], alphabets


def first_failing_subset(rows, alphabets, t):
    """Scan t-subsets in combinations order with the naive oracle."""
    for cols in itertools.combinations(range(len(alphabets)), t):
        projected = [tuple(row[c] for c in cols) for row in rows]
        if not naive_is_oa(projected, [alphabets[c] for c in cols], t):
            return cols
    return None


@settings(max_examples=300, deadline=None)
@given(case=small_arrays(), chunk_cells=st.sampled_from((1, 7, 64, 1 << 15)))
def test_strength_kernel_matches_naive_oracle_and_exact_witness(case, chunk_cells):
    rows, alphabets = case
    A = MixedLevelArray(rows, alphabets)
    with mock.patch.object(arrays, "_CHUNK_CELLS", chunk_cells):
        for t in range(1, A.n + 1):
            ok, witness = is_orthogonal_array(A, t)
            assert ok == naive_is_oa(rows, alphabets, t)
            cols = first_failing_subset(rows, alphabets, t)
            assert witness == (None if cols is None else arrays._subset_witness(A, cols))


FACTORIAL_22 = list(itertools.product(range(2), repeat=2))


@pytest.mark.parametrize("rows,witness", [
    (FACTORIAL_22[:3],
     BalanceWitness((0,), (0,), 2, 1.5, "index r/prod(s_j) is not an integer")),
    ([(0, 0), (0, 1), (1, 0), (1, 0)],
     BalanceWitness((0, 1), (1, 1), 0, 1, "level tuple missing")),
    (FACTORIAL_22 + [(0, 0), (0, 1), (1, 0), (1, 0)],
     BalanceWitness((0, 1), (1, 0), 3, 2, "unbalanced count")),
])
def test_perturbed_factorials_hit_every_failure_kind(rows, witness):
    A = MixedLevelArray(rows, (2, 2))
    t = len(witness.columns)
    assert is_orthogonal_array(A, t) == (False, witness)


def test_is_oa_single_row():
    A = MixedLevelArray([(1, 0, 2)], (2, 3, 3))
    for t in (1, 2, 3):
        ok, witness = is_orthogonal_array(A, t)
        assert not ok
        assert witness.columns == tuple(range(t))
        assert witness.reason == "index r/prod(s_j) is not an integer"
    assert is_orthogonal_array(A, 1)[1] == BalanceWitness(
        (0,), (0,), 0, 0.5, "index r/prod(s_j) is not an integer")


def test_is_oa_at_full_width():
    assert is_orthogonal_array(full_factorial((2, 3, 2)), 3) == (True, None)
    rows = list(full_factorial((2, 3, 2)).rows)
    rows[-1] = (1, 2, 0)
    ok, witness = is_orthogonal_array(MixedLevelArray(rows, (2, 3, 2)), 3)
    assert not ok
    assert witness == BalanceWitness((0, 1, 2), (1, 2, 1), 0, 1, "level tuple missing")


def test_is_oa_subset_product_beyond_int64():
    # prod(s_j) = 10^20 does not fit in int64: the index check must fail the
    # subset before any mixed-radix key is formed
    A = MixedLevelArray([(0,) * 5, (1,) * 5], (10**4,) * 5)
    assert 10**20 > 2**63
    ok, witness = is_orthogonal_array(A, 5)
    assert not ok
    assert witness == BalanceWitness((0, 1, 2, 3, 4), (0,) * 5, 1, 2 / 10**20,
                                     "index r/prod(s_j) is not an integer")


def test_multiply_oa():
    A = certify(MixedLevelArray(EVEN_WEIGHT, (2, 2, 2)), 2)
    B = certify(MixedLevelArray([(a, b, (a + b) % 3)
                                 for a in range(3) for b in range(3)], (3, 3, 3)), 2)
    out = multiply_oa(A, B)
    assert out.alphabets == (6, 6, 6)
    assert out.r == 36
    assert naive_is_oa(out.rows, out.alphabets, 2)
    assert distance_profile(out).md == 2
    assert min(distance_profile(A).md, distance_profile(B).md) == 2


def test_multiply_oa_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        multiply_oa(full_factorial((2, 2)), full_factorial((3, 3, 3)))


def test_expansive_replacement_identity_relabel():
    A = certify(MixedLevelArray(EVEN_WEIGHT, (2, 2, 2)), 2)
    B = certify(MixedLevelArray([(0,), (1,)], (2,)), 1)
    out = expansive_replacement(A, 1, B)
    assert out.rows == A.rows
    assert out.strength == 2


def test_expansive_replacement_row_count_mismatch():
    A = certify(full_factorial((4, 2)), 2)
    B = certify(MixedLevelArray([(0,), (1,)], (2,)), 1)
    with pytest.raises(RowCountMismatch):
        expansive_replacement(A, 0, B)


def test_expansive_replacement_needs_balanced_replacement():
    A = certify(full_factorial((4, 4)), 2)
    lopsided = MixedLevelArray([(0, 0), (0, 1), (1, 0), (1, 1)], (2, 2))
    with pytest.raises(ShapeMismatch):
        expansive_replacement(A, 0, lopsided)  # strength claim is 0


def test_expansive_replacement_strength_preserved():
    A = certify(full_factorial((4, 4)), 2)
    B = certify(full_factorial((2, 2)), 2)
    out = expansive_replacement(A, 0, B)
    assert out.alphabets == (2, 2, 4)
    assert naive_is_oa(out.rows, out.alphabets, 2)


def test_delete_columns():
    A = certify(full_factorial((2, 3, 2)), 3)
    out = delete_columns(A, [1])
    assert out.alphabets == (2, 2)
    assert out.strength == 2
    same = delete_columns(A, [])
    assert same.rows == A.rows
    with pytest.raises(EmptyResult):
        delete_columns(A, [0, 1, 2])


def test_derive_subarray():
    A = certify(full_factorial((2, 2, 2)), 3)
    out = derive_subarray(A, 0, 0)
    assert out.rows == tuple(itertools.product(range(2), range(2)))
    assert naive_strength(out.rows, out.alphabets) == 2
    with pytest.raises(SymbolOutOfRange):
        derive_subarray(A, 0, 5)


def test_attach_index_column():
    A = full_factorial((2, 2))
    out = attach_index_column(A, 2)
    assert [row[0] for row in out.rows] == [0, 0, 1, 1]
    assert out.alphabets == (2, 2, 2)
    with pytest.raises(NotDivisible):
        attach_index_column(MixedLevelArray([(0,)] * 5, (2,)), 2)


def test_saturation_check():
    assert saturation_check(MixedLevelArray(EVEN_WEIGHT, (2, 2, 2)))
    assert not saturation_check(full_factorial((2, 2)))


def test_saturated_hd_formula():
    assert saturated_hd_formula(8, 1, 4, 4, 2) == {3, 4}
    assert saturated_hd_formula(4, 1, 2, 4, 2) == {1, 2}
    assert saturated_hd_formula(7, 3, 3, 2, 2) == set()


def test_text_roundtrip():
    A = certify(MixedLevelArray(EVEN_WEIGHT, (2, 2, 2)), 2)
    out = from_text(to_text(A))
    assert out.rows == A.rows
    assert out.alphabets == A.alphabets
    assert out.strength == 2 and not out.strength_checked


def test_ensure_checked_budget_and_failure():
    A = MixedLevelArray(EVEN_WEIGHT, (2, 2, 2))
    with pytest.raises(AssertionError):
        claim(A, strength=3, budget=10**6)  # false claim
    with pytest.raises(ClaimFailed, match="strength 3 claim failed"):
        ensure_checked(A, budget=10**6)
    B = MixedLevelArray(EVEN_WEIGHT, (2, 2, 2))
    claim(B, strength=3, budget=1)  # too small to check anything
    assert not B.strength_checked
    assert B.status() == "constructed, unverified"
