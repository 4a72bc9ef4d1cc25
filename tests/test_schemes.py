"""Tests for difference schemes and their orthogonal-array lifts."""

from __future__ import annotations

import functools
import random

import numpy as np
import pytest

from oaqec.algebra import field_create, is_prime_power
from oaqec.arrays import distance_profile, ensure_checked, is_orthogonal_array
from oaqec.errors import NotPrimePower
from oaqec.schemes import (
    DifferenceScheme,
    d3_scheme,
    d_2s,
    oa_from_scheme,
)

from conftest import (
    d_sss,
    field_add,
    field_sub,
    naive_d3_rows,
    naive_d_2s_even_rows,
    naive_d_2s_odd_rows,
    naive_d_sss_rows,
    naive_is_difference_scheme,
    naive_scheme_witness,
    naive_strength,
)


def group_sub(D):
    """Subtraction in the scheme's group: the field's, or Z_s's."""
    return (functools.partial(field_sub, D.field) if D.field is not None
            else lambda a, b: (a - b) % D.s)


def test_d_sss_2_is_the_gf2_table():
    D = d_sss(2)
    assert D.rows == ((0, 0), (0, 1))
    assert D.strength == 2 and D.group_tag() == "field"


def test_d_sss_3_is_the_gf3_table():
    D = d_sss(3)
    assert D.rows == ((0, 0, 0), (0, 1, 2), (0, 2, 1))


@pytest.mark.parametrize("s", [2, 3, 4, 5, 7, 8, 9])
def test_d_sss_strength_two(s):
    D = d_sss(s)
    assert is_orthogonal_array(oa_from_scheme(D), 2) == (True, None)
    assert naive_is_difference_scheme(D.rows, s, 2, sub=group_sub(D))


def test_d_sss_rejects_non_prime_power():
    with pytest.raises(NotPrimePower):
        d_sss(6)


def test_gf4_table_is_not_a_cyclic_scheme():
    # The field table satisfies the coset condition only for the field's own
    # additive group; reinterpreting the entries mod 4 must fail.
    D = d_sss(4)
    cyclic = DifferenceScheme(D.rows, 4)
    assert not naive_is_difference_scheme(cyclic.rows, 4, 2)
    assert not is_orthogonal_array(oa_from_scheme(cyclic), 2)[0]


@pytest.mark.parametrize("s", [2, 3, 4, 5, 6, 7])
def test_d3_scheme_strength_three(s):
    D = d3_scheme(s)
    assert D.r == s * s and D.c == 4 and D.strength == 3
    assert naive_is_difference_scheme(D.rows, s, 3)
    # strength 3 implies strength 2 on every projection
    assert naive_is_difference_scheme(D.rows, s, 2)
    assert is_orthogonal_array(oa_from_scheme(D), 3)[0]


def test_d3_scheme_2_rows_pinned():
    assert d3_scheme(2).rows == (
        (0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0))


@pytest.mark.parametrize("s", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_d_2s_dimensions_and_strength(s):
    D = d_2s(s)
    assert D.r == 2 * s and D.c == 2 * s and D.strength == 2
    assert naive_is_difference_scheme(D.rows, s, 2, sub=group_sub(D))


def test_d_2s_rejects_non_prime_power():
    with pytest.raises(NotPrimePower):
        d_2s(6)


def test_oa_from_scheme_d3_2_gives_the_even_weight_extension():
    A = ensure_checked(oa_from_scheme(d3_scheme(2)))
    assert (A.r, A.n, A.strength) == (8, 4, 3)
    ok, _ = is_orthogonal_array(A, 3)
    assert ok
    assert A.strength_checked
    assert naive_strength(A.rows, A.alphabets) == 3


def test_oa_from_scheme_rows_pinned():
    # each scheme row is followed by its shifts, in consecutive blocks of s
    out = oa_from_scheme(DifferenceScheme([(0, 0), (0, 1)], 2))
    assert out.rows == ((0, 0), (1, 1), (0, 1), (1, 0))
    assert is_orthogonal_array(out, 2)[0]


def test_oa_from_scheme_zero_row():
    out = oa_from_scheme(DifferenceScheme([(0, 0, 0)], 3))
    assert out.rows == tuple((v, v, v) for v in range(3))


@pytest.mark.parametrize("s", [s for s in range(2, 17) if is_prime_power(s)])
def test_oa_from_scheme_d_2s_shape(s):
    A = oa_from_scheme(d_2s(s))
    assert (A.r, A.n) == (2 * s * s, 2 * s)
    # the s = 2 lift happens to be the even-weight code, whose true strength
    # (3) exceeds the claimed 2
    assert is_orthogonal_array(A, 2)[0]
    assert distance_profile(A) == 2 * s - 2



def _schemes():
    for s in (2, 3, 4, 5, 7, 8, 9):
        yield d_sss(s)
        yield d_2s(s)
    for s in (2, 3, 4, 6):
        yield d3_scheme(s)
    # the field's multiplication table read as a cyclic scheme
    yield DifferenceScheme(d_sss(4).rows, 4)


@pytest.mark.parametrize("D", list(_schemes()), ids=repr)
def test_scheme_lift_is_balanced_exactly_when_the_coset_oracle_passes(D):
    # the scheme itself and copies with one entry changed
    rng = random.Random(D.s * 100 + D.c)
    variants = [D]
    for _ in range(6):
        rows = [list(row) for row in D.rows]
        i, j = rng.randrange(D.r), rng.randrange(D.c)
        rows[i][j] = (rows[i][j] + rng.randrange(1, D.s)) % D.s
        variants.append(DifferenceScheme(rows, D.s, field=D.field))
    for E in variants:
        for t in range(2, min(D.c, 3 if D.c <= 6 else 2) + 1):
            ok, witness = is_orthogonal_array(oa_from_scheme(E), t)
            assert ok == naive_is_difference_scheme(E.rows, E.s, t, sub=group_sub(E))
            # a lift is balanced on a column subset exactly when its scheme
            # is, and both search the subsets in combinations order, so both
            # fail first on the same one (every one, when s^(t-1) does not
            # divide the row count)
            naive = naive_scheme_witness(E.rows, E.s, t, group_sub(E))
            assert (witness is None) == (naive is None)
            assert witness is None or witness.columns == naive[0]


@pytest.mark.parametrize("D", list(_schemes())[:-1], ids=repr)
def test_oa_from_scheme_shifts_by_the_scheme_group(D):
    add = (functools.partial(field_add, D.field) if D.field is not None
           else lambda x, y: (x + y) % D.s)
    want = tuple(tuple(add(a, v) for a in row) for row in D.rows for v in range(D.s))
    assert oa_from_scheme(D).rows == want


PRIME_POWERS_TO_37 = [s for s in range(2, 38) if is_prime_power(s)]
#: the table-built _d_2s_odd against its scalar loop on every odd prime power
#: up to 127, and _d_2s_even on the field of order 128
D_2S_LARGER_ORDERS = [s for s in range(38, 128) if s % 2 and is_prime_power(s)] + [64]


@pytest.mark.parametrize("build, s", [(d3_scheme, s) for s in range(2, 30)]
                         + [(d_sss, s) for s in PRIME_POWERS_TO_37]
                         + [(d_2s, s) for s in PRIME_POWERS_TO_37 + D_2S_LARGER_ORDERS],
                         ids=lambda v: getattr(v, "__name__", v))
def test_table_built_schemes_match_the_scalar_loops(build, s):
    D = build(s)
    if build is d3_scheme:
        want = naive_d3_rows(s)
    elif build is d_sss:
        want = naive_d_sss_rows(field_create(s))
    elif s % 2:
        want = naive_d_2s_odd_rows(field_create(s))
    else:
        want = naive_d_2s_even_rows(field_create(2 * s), s)
    assert D.rows == tuple(want)
    assert D.matrix.dtype == np.int64 and not D.matrix.flags.writeable


#: every scheme a catalogue pass builds at max_s=12
CATALOGUE_SCHEMES = ([(d3_scheme, s) for s in range(2, 13)]
                     + [(d_2s, s) for s in (2, 3, 4, 5, 7, 8, 9, 11)])


@pytest.mark.parametrize("build, s", CATALOGUE_SCHEMES,
                         ids=lambda v: getattr(v, "__name__", v))
def test_every_catalogue_scheme_lifts_to_its_strength(build, s):
    # no constructor checks its scheme, so this test covers every one in use
    D = build(s)
    assert is_orthogonal_array(oa_from_scheme(D), D.strength) == (True, None)
