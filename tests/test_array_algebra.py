"""Differential test of the ndarray array algebra.

Each operation is compared with a pure-tuple transcription of its row map,
written here, on random small arrays (n <= 5, alphabets 2-4, and sometimes
one wide column more, stored as uint16, uint32 or int64).  Row order and
the claims each result carries must both be identical.  Input arrays carry
their true strength and distance (from the naive oracles), recorded
unchecked; an operation records its result's claims unchecked, and
ensure_checked then checks them within the budget.  No claim, check or
operation changes the claims of the array it is given.
"""

from __future__ import annotations

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (WIDE_ALPHABETS, levels_st, naive_distance_set, naive_is_oa,
                      naive_strength, with_wide_column)
from oaqec import arrays
from oaqec.arrays import (
    DEFAULT_VERIFICATION_BUDGET,
    MixedLevelArray,
    attach_index_column,
    certify,
    claim,
    delete_columns,
    derive_subarray,
    ensure_checked,
    expansive_replacement,
    lexsorted,
    measure_md,
    multiply_oa,
    storage_dtype,
)
from oaqec.constructions import full_factorial_mixed
from oaqec.errors import (
    EmptyResult,
    NotDivisible,
    NotPartitionable,
    ShapeMismatch,
    SymbolOutOfRange,
    ToolkitError,
)
from oaqec.synthesis import OrthogonalPartition, partition_by_prefix

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
    random rows, or a row-shuffled full factorial with index 1 or 2.  Drawn
    alphabets sometimes gain one wide column (random rows only)."""
    if alphabets is None:
        alphabets = tuple(draw(with_wide_column(draw(alphabets_st()))))
    if r is None and draw(st.booleans()) and math.prod(alphabets) <= 36:
        rows = ref_factorial(alphabets, draw(st.integers(1, 2)))
        rows = draw(st.permutations(rows))
    else:
        cells = st.tuples(*map(levels_st, alphabets))
        rows = draw(st.lists(cells, min_size=r or 1, max_size=r or 12))
    A = MixedLevelArray(rows, alphabets)
    t = naive_strength(rows, alphabets)
    md = min(naive_distance_set(rows)) if len(rows) > 1 else None
    return claim(A, strength=t or None, md=md)


def narrow_column(A):
    """A column of A over at most 4 levels: one a full factorial or a
    replacement array can have a row for each level of."""
    return st.sampled_from([j for j, s in enumerate(A.alphabets) if s <= 4])


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
    out = ensure_checked(multiply_oa(A, B), budget)
    assert out.rows == tuple(ref_multiply(A.rows, B.rows, B.alphabets))
    assert out.alphabets == tuple(s * q for s, q in zip(A.alphabets, B.alphabets))
    md = None if A.md is None or B.md is None else min(A.md, B.md)
    assert flags(out) == checked_flags(min(A.strength, B.strength), md,
                                       out.r, out.n, budget)


@pytest.mark.parametrize("a,q,b,fits", [
    (2 ** 32, 2 ** 32 + 1, 2 ** 32, False),  # two columns just above 2^32
    (1, 2 ** 62, 2 ** 62 - 1, True),  # the product entry is 2^63 - 1
    (1, 2 ** 62, 2 ** 62 - 2, True),
    (0, 2 ** 63, 2 ** 63 - 1, True),  # a weight past int64 on zeros of A
    (1, 2 ** 63, 0, False),
])
def test_multiply_oa_refuses_entries_past_int64(a, q, b, fits):
    A = MixedLevelArray([(a, 1)], (a + 1 if a else 2, 2))
    B = MixedLevelArray([(b, 0), (0, 1)], (q, 2))
    want = tuple(ref_multiply(A.rows, B.rows, B.alphabets))
    if fits:
        assert multiply_oa(A, B).rows == want
    else:
        assert max(max(row) for row in want) > 2 ** 63 - 1
        with pytest.raises(SymbolOutOfRange, match="^entry outside the int64 range"):
            multiply_oa(A, B)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), budget=st.sampled_from(BUDGETS))
def test_expansive_replacement_matches_tuple_splice(data, budget):
    A = data.draw(arrays_st())
    col = data.draw(narrow_column(A))
    B = data.draw(arrays_st(r=A.alphabets[col]))
    out, want = raises_same(lambda: ensure_checked(expansive_replacement(A, col, B), budget),
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
    out, want = raises_same(lambda: ensure_checked(delete_columns(A, drop), budget),
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
        lambda: ensure_checked(derive_subarray(A, col, symbol), budget),
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


@settings(max_examples=200, deadline=None)
@given(data=st.data(), key_max=st.sampled_from((1, 30, arrays._KEY_MAX)))
def test_lexsorted_sorts_exactly_when_a_neighbour_is_out_of_order(data, key_max):
    A = data.draw(arrays_st())
    rows = sorted(A.rows) if data.draw(st.booleans(), label="presorted") else list(A.rows)
    matrix = MixedLevelArray(rows, A.alphabets).matrix
    in_order = rows == sorted(rows)
    # a small key cap makes row_keys re-rank its keys, and at 1 the
    # column's values too
    with mock.patch.object(arrays, "_KEY_MAX", key_max):
        out = lexsorted(matrix)
    assert out.tolist() == [list(row) for row in sorted(rows)]
    assert (out is matrix) == in_order


def assert_as_validated(out):
    """`out` is what the validating constructor builds from its matrix: the
    same entries, in storage_dtype(alphabets), read-only."""
    ref = MixedLevelArray(out.matrix, out.alphabets)
    assert out.matrix.dtype == ref.matrix.dtype == storage_dtype(out.alphabets)
    assert np.array_equal(out.matrix, ref.matrix)
    assert not out.matrix.flags.writeable


@settings(max_examples=200, deadline=None)
@given(data=st.data(), op=st.sampled_from(("multiply", "replace", "delete", "index", "sort")))
def test_unvalidated_outputs_are_what_the_validating_constructor_builds(data, op):
    # these operations skip the entry check and the cast: in range by construction
    A = data.draw(arrays_st())
    if op == "multiply":
        out = multiply_oa(A, data.draw(arrays_st(alphabets=data.draw(alphabets_st(n=A.n)))))
    elif op == "replace":
        col = data.draw(narrow_column(A))
        B = data.draw(arrays_st(r=A.alphabets[col]))
        out = expansive_replacement(claim(A, strength=0), col, B)
    elif op == "delete":
        out = delete_columns(A, data.draw(st.sets(st.integers(0, A.n - 1), max_size=A.n - 1)))
    elif op == "index":
        assume(A.r > 1)
        sizes = [b for b in range(1, A.r) if A.r % b == 0]
        out = attach_index_column(A, data.draw(st.sampled_from(sizes)))
    else:
        out = A.sorted_rows()
    assert_as_validated(out)


def test_unvalidated_outputs_take_the_storage_dtype_of_their_alphabets():
    wide = MixedLevelArray([(299, 1), (0, 0)], (300, 2))
    huge = MixedLevelArray([(2 ** 40, 1), (0, 0)], (2 ** 40 + 1, 2))
    cases = {
        # the replaced or deleted column held the widest level
        np.uint8: [expansive_replacement(wide, 0, full_factorial_mixed((20, 15))),
                   delete_columns(wide, [0]), delete_columns(huge, [0])],
        np.uint16: [attach_index_column(full_factorial_mixed((2,) * 9), 1),
                    multiply_oa(wide, MixedLevelArray([(0, 1)], (2, 2)))],
        np.int64: [multiply_oa(MixedLevelArray([(1, 1)], (2 ** 20, 2)),
                               MixedLevelArray([(2 ** 20 - 1, 0)], (2 ** 20, 2)))],
    }
    for dtype, outs in cases.items():
        for out in outs:
            assert out.matrix.dtype == dtype
            assert_as_validated(out)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_operations_record_their_claims_unchecked(data):
    # arrays this small fit the default budget, so every input claim is checked
    A = ensure_checked(data.draw(arrays_st()))
    # narrow alphabets for B, as two wide columns could multiply past int64
    B = ensure_checked(data.draw(arrays_st(alphabets=data.draw(alphabets_st(n=A.n)))))
    assert A.strength == 0 or A.strength_checked
    col = data.draw(narrow_column(A))
    F = full_factorial_mixed((A.alphabets[col],), 1)
    results = [multiply_oa(A, B), A.sorted_rows(), expansive_replacement(A, col, F)]
    if A.n > 1:
        results += [delete_columns(A, [col]),
                    derive_subarray(A, col, int(A.matrix[0, col]))]
    for out in results:
        assert not out.strength_checked and not out.md_checked


@settings(max_examples=150, deadline=None)
@given(data=st.data(), budget=st.sampled_from(BUDGETS))
def test_claims_checks_and_operations_leave_their_argument_unchanged(data, budget):
    A = data.draw(arrays_st())
    if data.draw(st.booleans()):
        A = ensure_checked(A, budget)
    B = data.draw(arrays_st(alphabets=A.alphabets))
    before = flags(A), flags(B)
    t = data.draw(st.integers(0, A.n))
    md = data.draw(st.none() | st.integers(0, A.n))
    # a claim or a check returns an array over the same matrix, or A itself
    # when it changes nothing
    results = [claim(A, strength=t, md=md), claim(A), ensure_checked(A, budget),
               certify(A, A.strength, A.md)]
    if A.r > 1:
        results.append(measure_md(A, budget))
    for out in results:
        assert out.matrix is A.matrix and out.alphabets == A.alphabets
    assert results[1] is A
    assert ensure_checked(results[2], budget) is results[2]
    col = data.draw(narrow_column(A))
    F = full_factorial_mixed((A.alphabets[col],), 1)
    operations = [
        lambda: multiply_oa(A, B), A.sorted_rows,
        lambda: expansive_replacement(A, col, F),
        lambda: delete_columns(A, [col]),
        lambda: derive_subarray(A, col, int(A.matrix[0, col])),
        lambda: attach_index_column(A, 1),
        lambda: partition_by_prefix(A, 0),
        lambda: OrthogonalPartition(A, 1, 1, budget),
    ]
    for operation in operations:
        try:
            operation()
        except (ToolkitError, ValueError):
            pass  # a refused operation must leave its argument alone too
    assert (flags(A), flags(B)) == before


def split_rows(A, K):
    """The K blocks of A's rows, as tuples of int tuples."""
    return [tuple(map(tuple, blk.tolist())) for blk in np.split(A.matrix, K)]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_partition_by_prefix_splits_wide_prefixes(data):
    # a random array balances no wide column, so its true strength is 0; a
    # strength claim, which partition_by_prefix only requires, lets a wide
    # first column be the prefix, its levels near 0 and near the top
    alphabets = ((data.draw(st.sampled_from(WIDE_ALPHABETS)),)
                 + tuple(data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=2))))
    rows = data.draw(st.lists(st.tuples(*map(levels_st, alphabets)), min_size=1,
                              max_size=12))
    A = claim(MixedLevelArray(rows, alphabets), strength=2)
    blocks = ref_prefix_blocks(A.rows, 1)
    if len({len(blk) for blk in blocks}) != 1:
        with pytest.raises(NotPartitionable):
            partition_by_prefix(A, 1)
        return
    parent, K = partition_by_prefix(A, 1)
    assert parent.rows == tuple(row[1:] for row in sorted(A.rows))
    assert split_rows(parent, K) == blocks


@settings(max_examples=150, deadline=None)
@given(data=st.data(), budget=st.sampled_from(BUDGETS))
def test_partition_by_prefix_blocks_match_tuple_grouping(data, budget):
    A = data.draw(arrays_st())
    l = data.draw(st.integers(0, A.n - 1))
    if A.strength <= l:
        with pytest.raises(ValueError):
            partition_by_prefix(A, l)
        return
    blocks = ref_prefix_blocks(A.rows, l)
    if len({len(blk) for blk in blocks}) != 1:
        with pytest.raises(NotPartitionable):
            partition_by_prefix(A, l)
        return
    parent, K = partition_by_prefix(A, l)
    assert parent.rows == tuple(row[l:] for row in sorted(A.rows))
    assert split_rows(parent, K) == blocks
    t = A.strength - l
    assert all(naive_is_oa(blk, parent.alphabets, t) for blk in blocks)
    part = OrthogonalPartition(parent, K, t, budget)
    checked = parent.r * math.comb(parent.n, t) <= (
        DEFAULT_VERIFICATION_BUDGET if budget is None else budget)
    assert part.strength_checked is checked
    assert (part.K, part.block_size) == (len(blocks), len(blocks[0]))


#: the full factorials F (alphabets, index) with F.r rows, by row count
FACTORIALS = {2: [((2,), 1)], 3: [((3,), 1)], 4: [((4,), 1), ((2, 2), 1), ((2,), 2)]}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), budget=st.sampled_from(BUDGETS))
def test_partition_survives_expansive_replacement(data, budget):
    # narrow alphabets: a random array balances no wide column, so it has no
    # prefix partition and could only be filtered out
    A = data.draw(arrays_st(alphabets=data.draw(alphabets_st())))
    l = data.draw(st.integers(0, A.n - 1))
    try:
        parent, K = partition_by_prefix(A, l)
    except (ValueError, NotPartitionable):
        assume(False)
    col = data.draw(st.integers(0, parent.n - 1))
    F = full_factorial_mixed(*data.draw(st.sampled_from(FACTORIALS[parent.alphabets[col]])))
    replaced = OrthogonalPartition(expansive_replacement(parent, col, F),
                                   K, A.strength - l, budget)
    # the per-block splice is the oracle: blocks stay runs of parent rows
    blocks = split_rows(replaced.parent, K)
    assert blocks == [tuple(ref_splice(blk, col, F.rows)) for blk in split_rows(parent, K)]
    assert all(naive_is_oa(blk, replaced.parent.alphabets, A.strength - l) for blk in blocks)


@settings(max_examples=60, deadline=None)
@given(alphabets=alphabets_st().filter(lambda a: math.prod(a) <= 64),
       lam=st.integers(1, 3))
def test_full_factorial_mixed_matches_tuple_product(alphabets, lam):
    A = full_factorial_mixed(alphabets, lam)
    assert A.rows == tuple(ref_factorial(alphabets, lam))
    md = None if A.r == 1 else (1 if lam == 1 else 0)
    assert flags(A) == (len(alphabets), True, md, md is not None)
