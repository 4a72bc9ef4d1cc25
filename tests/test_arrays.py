import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (levels_st, naive_distance_set, naive_is_oa, naive_strength,
                      saturated_hd_formula, saturation_check, with_wide_column)
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
    measure_md,
    minimal_distance,
    multiply_oa,
    storage_dtype,
    to_text,
)
from oaqec.constructions import bush
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
    ([(2**64 - 1, 0)], (2**64, 2), SymbolOutOfRange),
    (np.array([[2**64 - 1, 0]], dtype=np.uint64), (2**64, 2), SymbolOutOfRange),
    (np.array([[2**63, 0]], dtype=np.uint64), (2**64, 2), SymbolOutOfRange),
])
def test_constructor_rejects_malformed_input(rows, alphabets, error):
    with pytest.raises(error):
        MixedLevelArray(rows, alphabets)


@pytest.mark.parametrize("entry", [2**63, 2**64 - 1])
def test_entries_past_int64_are_refused_as_such_in_either_form(entry):
    # a uint64 entry must not be read as its wrapped int64 value
    for rows in ([(entry, 0)], np.array([[entry, 0]], dtype=np.uint64)):
        with pytest.raises(SymbolOutOfRange, match="^entry outside the int64 range"):
            MixedLevelArray(rows, (2**64, 2))
    A = MixedLevelArray(np.array([[2**63 - 1, 0]], dtype=np.uint64), (2**64, 2))
    assert A.matrix.dtype == np.int64 and A.rows == ((2**63 - 1, 0),)


@pytest.mark.parametrize("rows,message", [
    ([[0.5, 1]], "^entry 0.5 is not an integer$"),
    (np.array([[1, 1], [0, 1.25]]), "^entry 1.25 is not an integer$"),
    (np.array([[np.nan, 1]]), "^entry nan is not an integer$"),
    (np.array([[1, np.inf]]), "^entry inf is not an integer$"),
    (np.array([[1e30, 1]]), "^entry outside the int64 range: 1000000000000000019884624838656$"),
])
def test_float_entries_that_are_not_int64_integers_are_refused(rows, message):
    # an int64 conversion would truncate 0.5 to 0 and wrap nan, inf and 1e30
    with pytest.raises(SymbolOutOfRange, match=message):
        MixedLevelArray(rows, (2, 2))


def test_integral_float_entries_are_accepted():
    for rows in ([[1.0, 0.0], [0.0, 1.0]], np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)):
        A = MixedLevelArray(rows, (2, 2))
        assert A.rows == ((1, 0), (0, 1)) and A.matrix.dtype == storage_dtype((2, 2))


@pytest.mark.parametrize("rows,message", [
    ([["1", "0"]], "^entry '1' is not an integer$"),
    ([[1, "0"]], "^entry '0' is not an integer$"),
    (np.array([[b"1", b"0"]]), "^entry b'1' is not an integer$"),
    ([[Fraction(1, 2), 1]], r"^entry Fraction\(1, 2\) is not an integer$"),
    ([[Fraction(1, 1), 1]], r"^entry Fraction\(1, 1\) is not an integer$"),
    ([[0, None]], "^entry None is not an integer$"),
    ([[1 + 0j, 0]], r"^entry \(1\+0j\) is not an integer$"),
    # beside an int past int64 numpy keeps every entry as an object
    ([[0.5, 2 ** 70]], "^entry 0.5 is not an integer$"),
])
def test_entries_that_are_not_integers_are_refused(rows, message):
    # an int64 conversion would read '1' as 1 and Fraction(1, 2) as 0
    with pytest.raises(SymbolOutOfRange, match=message):
        MixedLevelArray(rows, (2, 2))


def test_bool_and_integer_object_entries_are_accepted():
    A = MixedLevelArray([[True, False], [False, True]], (2, 2))
    assert A.rows == ((1, 0), (0, 1)) and A.matrix.dtype == storage_dtype((2, 2))
    B = MixedLevelArray(np.array([[1, 0.0], [np.int64(0), np.True_]], dtype=object), (2, 2))
    assert B.rows == ((1, 0), (0, 1)) and B.matrix.dtype == storage_dtype((2, 2))


def test_constructor_names_the_first_out_of_range_entry():
    with pytest.raises(SymbolOutOfRange, match="^entry 3 out of range for alphabet 3$"):
        MixedLevelArray([(0, 1), (1, 3), (5, 0)], (2, 3))


def test_matrix_is_a_read_only_copy_of_the_callers_array():
    source = np.array([[0, 1], [1, 0]])
    A = MixedLevelArray(source, (2, 2))
    source[0, 0] = 1
    assert A.rows == ((0, 1), (1, 0))
    assert A.matrix.dtype == storage_dtype((2, 2))
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
    # strength t: balanced at t (when t > 0) and, below n columns, not at t + 1
    for A, t in ((MixedLevelArray(EVEN_WEIGHT, (2, 2, 2)), 2),
                 (MixedLevelArray([(0, 0)], (2, 2)), 0),
                 (full_factorial((3, 2)), 2)):
        assert t == 0 or is_orthogonal_array(A, t)[0]
        assert t == A.n or not is_orthogonal_array(A, t + 1)[0]
        assert naive_strength(A.rows, A.alphabets) == t


def test_distance_profile_cases():
    assert distance_profile(MixedLevelArray(EVEN_WEIGHT, (2, 2, 2))) == 2
    assert distance_profile(full_factorial((2, 2, 2))) == 1
    dup = MixedLevelArray([(0, 1), (0, 1)], (2, 2))
    assert distance_profile(dup) == 0
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
        assert distance_profile(A) == min(naive_distance_set(rows))


@st.composite
def distance_arrays(draw):
    """Random arrays (2 <= r <= 40, n <= 7, alphabets 2-5, and sometimes one
    wide column more), some with a repeated row and some with two rows that
    differ in few columns."""
    n = draw(st.integers(1, 7), label="n")
    alphabets = draw(with_wide_column(draw(st.lists(st.integers(2, 5), min_size=n,
                                                    max_size=n))))
    n = len(alphabets)
    rows = draw(st.lists(st.tuples(*map(levels_st, alphabets)), min_size=2, max_size=40))
    i = draw(st.integers(0, len(rows) - 1), label="row")
    near = list(rows[i])
    for j in draw(st.sets(st.integers(0, n - 1), max_size=n), label="changed"):
        near[j] = draw(levels_st(alphabets[j]))
    if draw(st.booleans()):
        rows = rows[:-1] + [tuple(near)]
    return rows, alphabets


@settings(max_examples=300, deadline=None)
@given(case=distance_arrays(), key_max=st.sampled_from((1, 30, arrays._KEY_MAX)),
       max_sorts=st.sampled_from((0, 1, 3, math.inf)))
def test_minimal_distance_matches_naive_oracle(case, key_max, max_sorts):
    rows, alphabets = case
    A = MixedLevelArray(rows, alphabets)
    md = min(naive_distance_set(rows))
    # a small key cap forces the np.unique re-rank on small arrays
    with mock.patch.object(arrays, "_KEY_MAX", key_max):
        assert minimal_distance(A) == md
        assert arrays._projection_md(A, math.inf) == md
        # a capped search either gives up or is exact
        assert arrays._projection_md(A, max_sorts) in (None, md)


@pytest.mark.parametrize("rows,alphabets,md", [
    ([(0, 1), (0, 1)], (2, 2), 0),  # repeated row
    ([(0, 1, 2), (1, 0, 2), (0, 1, 2)], (2, 2, 3), 0),
    ([(0, 1), (1, 1)], (2, 2), 1),  # r = 2
    ([(0, 1, 2), (1, 0, 0)], (2, 2, 3), 3),
    ([(0,), (1,), (2,)], (3,), 1),  # a single column
    ([(0,), (1,), (0,)], (3,), 0),
    (EVEN_WEIGHT, (2, 2, 2), 2),
    # a re-ranked key times the alphabet 2^62 would wrap around int64
    ([(i, i * 2 ** 59 % 2 ** 62, 0) for i in range(8)], (2 ** 62,) * 3, 2),
])
def test_minimal_distance_cases(rows, alphabets, md):
    assert minimal_distance(MixedLevelArray(rows, alphabets)) == md
    assert md == min(naive_distance_set(rows))


@pytest.mark.parametrize("s", [2, 3, 4, 5, 7])
def test_minimal_distance_is_n_on_strength_one_bush_arrays(s):
    A = bush(s, 1)
    assert minimal_distance(A) == A.n == min(naive_distance_set(A.rows))


def test_minimal_distance_reranks_keys_beyond_int64():
    rng = random.Random(144)
    rows = [tuple(rng.randrange(144) for _ in range(10)) for _ in range(30)]
    rows.append(rows[0][:7] + tuple((x + 1) % 144 for x in rows[0][7:]))
    A = MixedLevelArray(rows, (144,) * 10)
    assert 144 ** 10 > 2 ** 63
    with mock.patch.object(arrays.np, "unique", wraps=np.unique) as unique:
        assert minimal_distance(A) == min(naive_distance_set(rows)) == 3
    assert unique.called


#: strength-1 binary array, 4 x 40, md 20: its projection search would have
#: to show all C(40, 21) projections injective
WIDE_MD_20 = [(0,) * 40, (1,) * 40, (0,) * 20 + (1,) * 20, (1,) * 20 + (0,) * 20]


def bounded_projection_sorts(limit):
    """Patch arrays._projection_collides to fail the test after `limit`
    sorted projections instead of running an exponential search."""
    real = arrays._projection_collides

    def counted(*args):
        counted.calls += 1
        assert counted.calls <= limit, "projection search did not hand over"
        return real(*args)
    counted.calls = 0
    return mock.patch.object(arrays, "_projection_collides", counted)


def test_minimal_distance_hands_a_wide_array_to_the_pair_scan():
    def wide():
        return MixedLevelArray(WIDE_MD_20, (2,) * 40)
    assert min(naive_distance_set(WIDE_MD_20)) == 20
    # per call: the full-width check plus at most (r-1)/2 = 1 projection
    with bounded_projection_sorts(2):
        assert minimal_distance(wide()) == 20
    with bounded_projection_sorts(2), \
            mock.patch.object(arrays, "distance_profile",
                              wraps=arrays.distance_profile) as pair_scan:
        assert ensure_checked(claim(wide(), strength=1, md=20)).verified
    assert pair_scan.call_count == 1
    with bounded_projection_sorts(2):
        assert measure_md(wide()).md == 20
    with bounded_projection_sorts(2), \
            pytest.raises(ClaimFailed, match=r"^md claim 19 != actual 20$"):
        ensure_checked(claim(wide(), md=19))


def test_minimal_distance_needs_two_rows():
    with pytest.raises(TooFewRows):
        minimal_distance(MixedLevelArray([(0, 0)], (2, 2)))


# --- distance under a checked strength claim -------------------------------------


@st.composite
def checked_strength_arrays(draw):
    """(rows, alphabets, t) of an array of strength t >= 1: Bush arrays and
    their column subsets (index unity, r = s gives md = n), column splits
    into mixed alphabets, two stacked copies (index 2, repeated rows
    possible), projections of mixed full factorials, and two binary rows
    that differ everywhere (r = 2, md = n); rows shuffled and levels
    relabelled column by column."""
    kind = draw(st.sampled_from(("bush", "split", "doubled", "factorial", "pair")),
                label="kind")
    if kind == "factorial":
        alphabets = draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))
        keep = sorted(draw(st.sets(st.integers(0, len(alphabets) - 1), min_size=1)))
        rows = [tuple(row[j] for j in keep)
                for row in itertools.product(*(range(s) for s in alphabets))]
        alphabets, t = [alphabets[j] for j in keep], len(keep)
    elif kind == "pair":
        n = draw(st.integers(1, 6), label="n")
        rows, alphabets, t = [(0,) * n, (1,) * n], [2] * n, 1
    else:
        s, t = draw(st.sampled_from(((2, 1), (3, 1), (2, 2), (3, 2), (4, 2), (5, 2),
                                     (8, 2), (3, 3), (4, 3))), label="(s, t)")
        A = bush(s, t)
        if kind == "split" and s in (4, 8):
            # a column of s levels becomes the columns of a full factorial
            B = claim(full_factorial((2, s // 2)), strength=2)
            for col in sorted(draw(st.sets(st.integers(0, A.n - 1), min_size=1,
                                           max_size=3)), reverse=True):
                A = expansive_replacement(A, col, B)
        drop = draw(st.sets(st.integers(0, A.n - 1), max_size=A.n - 1), label="drop")
        A = delete_columns(A, drop)
        rows, alphabets, t = list(A.rows), list(A.alphabets), A.strength
        if kind == "doubled":
            rows += [tuple((x + 1) % s for x, s in zip(row, alphabets)) for row in rows]
    perms = [draw(st.permutations(range(s)), label="levels") for s in alphabets]
    rows = [tuple(p[x] for p, x in zip(perms, row)) for row in draw(st.permutations(rows))]
    return rows, alphabets, t


@settings(max_examples=150, deadline=None)
@given(case=checked_strength_arrays())
def test_minimal_distance_under_a_checked_strength_matches_naive_oracle(case):
    rows, alphabets, t = case
    A = certify(MixedLevelArray(rows, alphabets), t)
    assert A.strength_checked and A.strength == t
    md = min(naive_distance_set(rows))
    assert minimal_distance(A) == md
    assert arrays._projection_md(A, math.inf) == md
    # ensure_checked measures with the strength certificate it has just earned
    assert ensure_checked(claim(MixedLevelArray(rows, alphabets), strength=t, md=md)).verified


def per_projection_md(rows, alphabets, t, max_sorts):
    """The projection search one projection at a time, as the reference for
    `_projection_md`: the same levels and visit count, a projection settled
    when t (a checked strength, 0 for none) of its largest alphabets
    multiply to the row count, any other one tested by a set of its tuples."""
    r, n = len(rows), len(alphabets)

    def injective(cols):
        if t and math.prod(sorted(alphabets[c] for c in cols)[-t:]) == r:
            return True
        return len({tuple(row[c] for c in cols) for row in rows}) == r

    if math.prod(alphabets) < r or not injective(range(n)):
        return 0
    visited = 0
    for k in range(1, n):
        if math.prod(sorted(alphabets)[:k]) < r:
            continue
        for cols in itertools.combinations(range(n), k):
            visited += 1
            if visited > max_sorts:
                return None
            if not injective(cols):
                break
        else:
            return n - k + 1
    return 1


@settings(max_examples=300, deadline=None)
@given(case=checked_strength_arrays(), claimed=st.sampled_from(("checked", "carried", "false")),
       max_sorts=st.sampled_from((0, 1, 3, math.inf)))
# settled levels of C(4, 3) = 4 and C(3, 1) = 3 projections: one past the cap, and at it
@example(case=(list(bush(3, 3).rows), [3] * 4, 3), claimed="checked", max_sorts=3)
@example(case=(list(bush(2, 1).rows), [2] * 3, 1), claimed="checked", max_sorts=3)
def test_projection_search_decides_a_level_as_the_per_projection_loop(case, claimed,
                                                                      max_sorts):
    rows, alphabets, t = case
    if claimed == "false":
        # the first entry moved to the next level: the strength-t claim fails
        rows = [((rows[0][0] + 1) % alphabets[0],) + rows[0][1:]] + rows[1:]
        assert not naive_is_oa(rows, alphabets, t)
    A = claim(MixedLevelArray(rows, alphabets), strength=t)
    if claimed == "checked":
        A = certify(A, t)
    md = min(naive_distance_set(rows))
    got = arrays._projection_md(A, max_sorts)
    # only a checked claim settles projections; a carried one, true or false, never
    assert got == per_projection_md(rows, alphabets, t if claimed == "checked" else 0,
                                    max_sorts)
    assert got in (None, md)
    if max_sorts == math.inf:
        assert got == md


def projection_sorts(A):
    """(minimal_distance(A), the column tuples of the projections it sorted)."""
    with mock.patch.object(arrays, "_projection_collides",
                           wraps=arrays._projection_collides) as sort:
        md = minimal_distance(A)
    return md, [tuple(call.args[2]) for call in sort.call_args_list]


@pytest.mark.parametrize("s,t", [(3, 3), (4, 3), (5, 2), (4, 2)])
def test_only_a_checked_strength_claim_spares_projection_sorts(s, t):
    plain = MixedLevelArray(bush(s, t).matrix, bush(s, t).alphabets)
    md, sorts = projection_sorts(plain)
    assert md == s + 1 - t + 1 == min(naive_distance_set(plain.rows))
    # a carried claim, true or false, sorts what a claim-free array sorts
    for claimed in (t, t + 1):
        assert projection_sorts(claim(plain, strength=claimed)) == (md, sorts)
    # a checked one makes every t-column projection injective without a sort
    assert projection_sorts(certify(plain, t)) == (md, [])
    # and ensure_checked measures with the strength certificate it has just earned
    with mock.patch.object(arrays, "_projection_collides",
                           wraps=arrays._projection_collides) as sort:
        assert ensure_checked(claim(plain, strength=t, md=md)).verified
    assert not sort.called


def test_claim_free_projection_sorts_are_pinned():
    # the full-width check, then every 3-column projection of OA(27, 4, 3, 3)
    plain = MixedLevelArray(bush(3, 3).matrix, (3,) * 4)
    assert projection_sorts(plain) == (2, [(0, 1, 2, 3), (0, 1, 2), (0, 1, 3), (0, 2, 3),
                                           (1, 2, 3)])


def corrupted_bush(s, t):
    """Bush(s, t) with the first entry of its first row moved to the next level:
    no longer of strength t, and at a smaller distance."""
    rows = [list(row) for row in bush(s, t).rows]
    rows[0][0] = (rows[0][0] + 1) % s
    return MixedLevelArray(rows, (s,) * (s + 1))


def test_a_corrupted_index_unity_array_fails_its_strength_and_is_measured_in_full():
    M = corrupted_bush(4, 3)  # the parent has md 3
    md = min(naive_distance_set(M.rows))
    assert md == 2
    message = r"^strength 3 claim failed: columns \(0, 1, 2\)"
    with pytest.raises(ClaimFailed, match=message):
        certify(M, 3)
    with pytest.raises(ClaimFailed, match=message):
        ensure_checked(claim(M, strength=3, md=3))
    # carried only, the claim would put md at 3 if the search believed it:
    # the full-width check, the first (colliding) 3-column projection, then
    # every 4-column one, all sorted
    plain_sorts = (md, [(0, 1, 2, 3, 4), (0, 1, 2)] + list(itertools.combinations(range(5), 4)))
    assert projection_sorts(M) == plain_sorts
    carried = claim(M, strength=3)
    assert projection_sorts(carried) == plain_sorts
    out = measure_md(carried)
    assert (out.md, out.md_checked, out.strength_checked) == (md, True, False)


def test_with_its_strength_over_budget_a_distance_check_finds_the_true_md():
    M = corrupted_bush(4, 2)  # OA(16, 5, 4, 2) has md 4; the mutant 3
    assert min(naive_distance_set(M.rows)) == 3
    budget = 150
    assert arrays.distance_check_cost(M) <= budget < arrays.strength_check_cost(M, 2)
    with pytest.raises(ClaimFailed, match=r"^md claim 4 != actual 3$"):
        ensure_checked(claim(M, strength=2, md=4), budget)
    out = ensure_checked(claim(M, strength=2, md=3), budget)
    assert (out.md_checked, out.strength_checked) == (True, False)


def test_a_wide_index_unity_array_still_hands_over_to_the_pair_scan():
    # OA(1024, 33, 32, 2): its C(33, 2) = 528 two-column projections pass the
    # (r-1)/2 = 511 visits after which the search hands over, sorted or not
    A = certify(bush(32, 2), 2)
    with bounded_projection_sorts(0), \
            mock.patch.object(arrays, "distance_profile",
                              wraps=arrays.distance_profile) as pair_scan:
        assert minimal_distance(A) == 32
    assert pair_scan.call_count == 1
    # OA(4096, 17, 16, 3): 680 three-column projections, all injective, so
    # the distance 15 takes no sort and no pair scan
    A = certify(bush(16, 3), 3)
    with bounded_projection_sorts(0), \
            mock.patch.object(arrays, "distance_profile",
                              wraps=arrays.distance_profile) as pair_scan:
        assert minimal_distance(A) == 15
    assert pair_scan.call_count == 0


def _wide_arrays():
    """Claim-free arrays over more than 30 columns on which the projection
    search finishes within its (r-1)/2 visits, with their level."""
    rng = random.Random(30)
    # 65 rows over 32 columns, each a permutation of 0..64: every column is
    # injective, so the 32 visits of level 1 give md 32
    columns = [rng.sample(range(65), 65) for _ in range(32)]
    yield 1, MixedLevelArray(np.array(columns).T, (65,) * 32)
    # OA(961, 31, 31, 2): level 1 collides by pigeonhole, and the C(31, 2) =
    # 465 injective pairs of level 2 stay within 480 visits, giving md 30
    A = delete_columns(bush(31, 2), [31])
    yield 2, MixedLevelArray(A.matrix, A.alphabets)


@pytest.mark.parametrize("level, A", list(_wide_arrays()), ids=["level-1", "level-2"])
def test_minimal_distance_finishes_the_projection_search_on_wide_arrays(level, A):
    # no pair scan: the answer n - k + 1 comes from the search itself
    with mock.patch.object(arrays, "distance_profile",
                           side_effect=AssertionError("pair scan")):
        md = minimal_distance(A)
    assert md == A.n - level + 1 == min(naive_distance_set(A.rows))


def test_false_distance_claims_fail_with_pinned_messages():
    # one message for a false md claim, whichever call finds it
    def even_weight():
        return MixedLevelArray(EVEN_WEIGHT, (2, 2, 2))  # md 2
    with pytest.raises(ClaimFailed, match=r"^md claim 3 != actual 2$"):
        ensure_checked(claim(even_weight(), md=3))
    with pytest.raises(ClaimFailed, match=r"^md claim 1 != actual 2$"):
        certify(even_weight(), 2, md=1)
    A = claim(even_weight(), md=3)  # recorded, not checked
    assert not A.md_checked
    with pytest.raises(ClaimFailed, match=r"^md claim 3 != actual 2$"):
        measure_md(A)
    assert measure_md(claim(even_weight(), md=2)).md_checked


def test_false_strength_claims_fail_with_one_pinned_message():
    def even_weight():
        return MixedLevelArray(EVEN_WEIGHT, (2, 2, 2))  # strength 2
    message = (r"^strength 3 claim failed: columns \(0, 1, 2\), levels \(0, 0, 0\): "
               r"observed 1, expected 0\.5 \(index r/prod\(s_j\) is not an integer\)$")
    with pytest.raises(ClaimFailed, match=message):
        ensure_checked(claim(even_weight(), strength=3))
    with pytest.raises(ClaimFailed, match=message):
        certify(even_weight(), 3)


def test_measure_md_checks_a_claimed_distance_within_its_budget():
    A = claim(MixedLevelArray(EVEN_WEIGHT, (2, 2, 2)), strength=2, md=3)
    # over budget a claim stays unchecked and nothing is measured
    assert measure_md(A, budget=0) is A
    assert (A.md, A.md_checked) == (3, False)
    B = MixedLevelArray(EVEN_WEIGHT, (2, 2, 2))
    assert measure_md(B, budget=0) is B and B.md is None
    # an unclaimed distance is measured and recorded as checked, on a new
    # array over the same matrix
    out = measure_md(B)
    assert (out.md, out.md_checked) == (2, True) and out.matrix is B.matrix
    assert B.md is None
    # a claimed one goes through ensure_checked with the array's other claims
    C = claim(MixedLevelArray(EVEN_WEIGHT, (2, 2, 2)), strength=2, md=2)
    with mock.patch.object(arrays, "ensure_checked", wraps=arrays.ensure_checked) as check:
        out = measure_md(C)
    assert check.call_count == 1 and out.verified and out.md == 2
    assert not C.verified


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
    """Random arrays (r <= 40, n <= 6, alphabets 2-5, and sometimes one wide
    column more), or a full factorial with one row dropped, duplicated or
    changed."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 6), label="n")
        alphabets = draw(with_wide_column(draw(st.lists(st.integers(2, 5), min_size=n,
                                                        max_size=n))))
        rows = draw(st.lists(st.tuples(*map(levels_st, alphabets)),
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
@given(case=small_arrays())
def test_strength_kernel_matches_naive_oracle_and_exact_witness(case):
    rows, alphabets = case
    A = MixedLevelArray(rows, alphabets)
    for t in range(1, A.n + 1):
        ok, witness = is_orthogonal_array(A, t)
        assert ok == naive_is_oa(rows, alphabets, t)
        cols = first_failing_subset(rows, alphabets, t)
        assert witness == (None if cols is None else arrays._subset_witness(A, cols))


@st.composite
def blocked_arrays(draw):
    """(rows, alphabets, K): K equal blocks of random rows (sometimes with
    one wide column more), or of row-shuffled full factorials (index 1 or 2),
    each maybe with one entry changed."""
    alphabets = draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))
    while math.prod(alphabets) > 16:
        alphabets.pop()
    K = draw(st.integers(1, 4), label="K")
    if draw(st.booleans()):
        alphabets = draw(with_wide_column(alphabets))
        size = draw(st.integers(1, 10), label="block size")
        rows = draw(st.lists(st.tuples(*map(levels_st, alphabets)),
                             min_size=K * size, max_size=K * size))
        return rows, alphabets, K
    lam = draw(st.integers(1, 2), label="lambda")
    factorial = [tup for tup in itertools.product(*(range(s) for s in alphabets))
                 for _ in range(lam)]
    rows = []
    for _ in range(K):
        block = [list(tup) for tup in draw(st.permutations(factorial))]
        if draw(st.booleans(), label="change"):
            i = draw(st.integers(0, len(block) - 1), label="row")
            j = draw(st.integers(0, len(alphabets) - 1), label="column")
            block[i][j] = draw(st.integers(0, alphabets[j] - 1), label="symbol")
        rows.extend(map(tuple, block))
    return rows, alphabets, K


@settings(max_examples=300, deadline=None)
@given(case=blocked_arrays())
def test_block_strength_kernel_matches_naive_oracle_on_each_block(case):
    rows, alphabets, K = case
    A = MixedLevelArray(rows, alphabets)
    b = len(rows) // K
    blocks = [rows[i * b:(i + 1) * b] for i in range(K)]
    for t in range(1, A.n + 1):
        ok, witness = is_orthogonal_array(A, t, K)
        assert ok == all(naive_is_oa(blk, alphabets, t) for blk in blocks)
        # combinations order is tuple order, so the first failing subset
        # is the least of the blocks' first failing subsets
        firsts = [first_failing_subset(blk, alphabets, t) for blk in blocks]
        cols = min((c for c in firsts if c is not None), default=None)
        if cols is None:
            assert witness is None
        else:
            block = MixedLevelArray(blocks[firsts.index(cols)], alphabets)
            assert witness == arrays._subset_witness(block, cols)


def kernel_matches_oracle(rows, alphabets, t, K=1):
    """Assert that the kernel returns the naive oracle's first failing subset
    and block, and the exact witness of that block; return the kernel's
    (subset, block) or None."""
    A = MixedLevelArray(rows, alphabets)
    b = len(rows) // K
    blocks = [rows[i * b:(i + 1) * b] for i in range(K)]
    firsts = [first_failing_subset(blk, alphabets, t) for blk in blocks]
    cols = min((c for c in firsts if c is not None), default=None)
    got = arrays._first_unbalanced_subset(A, t, K)
    ok, witness = is_orthogonal_array(A, t, K)
    if cols is None:
        assert got is None and (ok, witness) == (True, None)
        return None
    block = firsts.index(cols)
    assert got == (cols, block)
    assert not ok
    assert witness == arrays._subset_witness(MixedLevelArray(blocks[block], alphabets), cols)
    return got


def test_strength_kernel_at_t_one_and_t_n():
    # t = 1 extends the empty prefix; t = n has one prefix and one extension
    alphabets = (2, 3, 2)
    rows = list(itertools.product(*(range(s) for s in alphabets)))
    assert kernel_matches_oracle(rows, alphabets, 1) is None
    assert kernel_matches_oracle(rows, alphabets, 3) is None
    rows[-1] = (1, 2, 0)
    assert kernel_matches_oracle(rows, alphabets, 1) == ((2,), 0)
    assert kernel_matches_oracle(rows, alphabets, 3) == ((0, 1, 2), 0)
    assert kernel_matches_oracle([(0,), (1,)], (2,), 1) is None
    assert kernel_matches_oracle([(0,), (0,)], (2,), 1) == ((0,), 0)


def test_strength_kernel_fails_a_non_dividing_prefix_without_counting():
    # the first prefix (0, 1) has product 6, which does not divide b = 4
    alphabets = (2, 3, 2, 2)
    rows = [(a, 0, c, d) for a, c, d in itertools.product(range(2), repeat=3)]
    with mock.patch.object(arrays.np, "bincount", wraps=np.bincount) as bincount:
        assert kernel_matches_oracle(rows, alphabets, 3, K=2) == ((0, 1, 2), 0)
    # the kernel itself counted nothing; the witness count is a dict count
    assert bincount.call_count == 0
    # a non-dividing extension after a balanced one: (0, 1) is counted first
    rows = [(a, b, 0, c) for a, b, c in itertools.product(range(2), repeat=3)]
    assert kernel_matches_oracle(rows, (2, 2, 3, 2), 2) == ((0, 2), 0)


def test_strength_kernel_names_a_later_block():
    factorial = list(itertools.product(range(2), repeat=3))
    broken_02 = [(a, b, a) for a, b in itertools.product(range(2), repeat=2) for _ in range(2)]
    broken_01 = [(a, a, c) for a, c in itertools.product(range(2), repeat=2) for _ in range(2)]
    alphabets = (2, 2, 2)
    assert kernel_matches_oracle(factorial + factorial[::-1] + broken_02, alphabets, 2, K=3) \
        == ((0, 2), 2)
    # the first failing subset wins over the first failing block
    assert kernel_matches_oracle(factorial + broken_02 + broken_01, alphabets, 2, K=3) \
        == ((0, 1), 2)
    # mixed alphabets, K = 4: only the last block is unbalanced, on a pair
    # whose columns are each balanced there, or on column 1 alone
    factorial = list(itertools.product(range(2), range(3)))
    pair_broken = [(0, 1), (0, 1), (0, 2), (1, 0), (1, 0), (1, 2)]
    column_broken = [(0, 0), (0, 0), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert kernel_matches_oracle(factorial * 3 + pair_broken, (2, 3), 2, K=4) == ((0, 1), 3)
    assert kernel_matches_oracle(factorial * 3 + pair_broken, (2, 3), 1, K=4) is None
    assert kernel_matches_oracle(factorial[::-1] * 3 + column_broken, (2, 3), 1, K=4) \
        == ((1,), 3)


def test_strength_kernel_scales_a_prefix_key_once_per_alphabet():
    # prefix (0,) extends to columns 1 and 2 (alphabet 2), then 3 (alphabet 3)
    alphabets = (2, 2, 2, 3)
    rows = list(itertools.product(*(range(s) for s in alphabets)))
    assert kernel_matches_oracle(rows, alphabets, 2) is None
    # moving a 0 and a 1 of column 3 between the halves of column 0 leaves
    # every column, and the pairs (1, 3) and (2, 3), balanced
    rows[rows.index((0, 0, 0, 0))] = (0, 0, 0, 1)
    rows[rows.index((1, 0, 0, 1))] = (1, 0, 0, 0)
    assert kernel_matches_oracle(rows, alphabets, 2) == ((0, 3), 0)


def test_strength_kernel_with_prefix_products_beyond_int64():
    rows = [(0, 0, 0), (1, 1, 1)]
    # a prefix key is never formed, so not even a radix beyond int64 reaches numpy
    for alphabets in ((2**62, 2**62, 2), (2**64, 2**64, 2)):
        for t in (1, 2, 3):
            assert kernel_matches_oracle(rows, alphabets, t) == (tuple(range(t)), 0)
    # balanced small columns first, then an extension beyond int64
    rows = [(a, b, 0) for a, b in itertools.product(range(2), repeat=2)]
    assert kernel_matches_oracle(rows, (2, 2, 2**62), 2) == ((0, 2), 0)
    assert kernel_matches_oracle(rows, (2, 2, 2**62), 3) == ((0, 1, 2), 0)


@pytest.mark.parametrize("failing,expected", [
    ({4: "unbalanced"}, ((0, 4), 0)),
    ({5: "unbalanced"}, ((0, 5), 0)),
    ({3: "unbalanced", 4: "levels"}, ((0, 3), 0)),
    ({4: "levels", 5: "unbalanced"}, ((0, 4), 0)),
])
def test_strength_kernel_takes_extensions_of_one_prefix_in_order(failing, expected):
    # prefix (0,) extends to columns 1-5; the first unbalanced or
    # non-dividing one fails
    alphabets = [2] * 6
    rows = [[a, b] + [(a + b + j) % 2 for j in range(4)]
            for a, b in itertools.product(range(2), repeat=2)]
    rows = [row[:] for row in rows for _ in range(2)]
    for col, kind in failing.items():
        if kind == "unbalanced":
            for row in rows:
                row[col] = row[0]
        else:
            alphabets[col] = 3
    rows = [tuple(row) for row in rows]
    assert kernel_matches_oracle(rows, alphabets, 2) == expected


def test_is_oa_refuses_a_block_count_that_does_not_split_the_rows():
    A = full_factorial((2, 2, 3))
    assert is_orthogonal_array(A, 2, 2) == (False, BalanceWitness(
        (0, 1), (0, 0), 3, 1.5, "index r/prod(s_j) is not an integer"))
    for K in (0, 5, 13, -1):
        with pytest.raises(ValueError, match="rows do not split into"):
            is_orthogonal_array(A, 1, K)


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
    assert distance_profile(out) == 2
    assert min(distance_profile(A), distance_profile(B)) == 2


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


@settings(max_examples=100, deadline=None)
@given(case=small_arrays())
def test_text_roundtrip_keeps_rows_in_every_storage_dtype(case):
    rows, alphabets = case
    A = MixedLevelArray(rows, alphabets)
    assert A.matrix.dtype == storage_dtype(alphabets)
    out = from_text(to_text(A))
    assert out.rows == A.rows == tuple(map(tuple, rows))
    assert out.alphabets == A.alphabets and out.matrix.dtype == A.matrix.dtype


def test_text_roundtrip():
    A = certify(MixedLevelArray(EVEN_WEIGHT, (2, 2, 2)), 2)
    out = from_text(to_text(A))
    assert out.rows == A.rows
    assert out.alphabets == A.alphabets
    assert out.strength == 2 and not out.strength_checked


def test_ensure_checked_budget_and_failure():
    A = claim(MixedLevelArray(EVEN_WEIGHT, (2, 2, 2)), strength=3)  # false claim
    with pytest.raises(AssertionError):
        ensure_checked(A, 10**6)
    with pytest.raises(ClaimFailed, match="strength 3 claim failed"):
        ensure_checked(A, budget=10**6)
    B = ensure_checked(claim(MixedLevelArray(EVEN_WEIGHT, (2, 2, 2)), strength=3),
                       1)  # too small to check anything
    assert not B.strength_checked
    assert B.status() == "constructed, unverified"
