"""Tests for difference schemes and their orthogonal-array lifts."""

from __future__ import annotations

import pytest

from oaqec.algebra import is_prime_power
from oaqec.arrays import distance_profile, is_orthogonal_array, strength
from oaqec.errors import NotPrimePower
from oaqec.schemes import (
    DifferenceScheme,
    d3_scheme,
    d_2s,
    d_sss,
    is_difference_scheme,
    oa_from_scheme,
)

from conftest import naive_is_difference_scheme


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
    ok, witness = is_difference_scheme(D, 2)
    assert ok and witness is None
    assert naive_is_difference_scheme(D.rows, s, 2, sub=D.sub)


def test_d_sss_rejects_non_prime_power():
    with pytest.raises(NotPrimePower):
        d_sss(6)


def test_gf4_table_is_not_a_cyclic_scheme():
    # The field table satisfies the coset condition only for the field's own
    # additive group; reinterpreting the entries mod 4 must fail.
    D = d_sss(4)
    cyclic = DifferenceScheme(D.rows, 4)
    ok, witness = is_difference_scheme(cyclic, 2)
    assert not ok and witness.reason == "coset unbalanced"


@pytest.mark.parametrize("s", [2, 3, 4, 5, 6, 7])
def test_d3_scheme_strength_three(s):
    D = d3_scheme(s)
    assert D.r == s * s and D.c == 4 and D.strength == 3
    assert naive_is_difference_scheme(D.rows, s, 3)
    # strength 3 implies strength 2 on every projection
    ok, _ = is_difference_scheme(D, 2)
    assert ok


def test_d3_scheme_2_rows_pinned():
    assert d3_scheme(2).rows == (
        (0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0))


@pytest.mark.parametrize("s", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_d_2s_dimensions_and_strength(s):
    D = d_2s(s)
    assert D.r == 2 * s and D.c == 2 * s and D.strength == 2
    assert naive_is_difference_scheme(D.rows, s, 2, sub=D.sub)


def test_d_2s_rejects_non_prime_power():
    with pytest.raises(NotPrimePower):
        d_2s(6)


def test_is_difference_scheme_row_count_witness():
    D = DifferenceScheme([(0, 0), (0, 1), (0, 0)], 2)
    ok, witness = is_difference_scheme(D, 2)
    assert not ok
    assert witness.reason == "row count not divisible by s^(t-1)"


def test_is_difference_scheme_unbalanced_witness():
    D = DifferenceScheme([(0, 0), (0, 0)], 2)
    ok, witness = is_difference_scheme(D, 2)
    assert not ok
    assert witness.columns == (0, 1)
    assert witness.levels == (0,) and witness.observed == 2 and witness.expected == 1


def test_is_difference_scheme_strength_out_of_range():
    D = d_sss(3)
    with pytest.raises(ValueError):
        is_difference_scheme(D, 1)
    with pytest.raises(ValueError):
        is_difference_scheme(D, 4)


def test_oa_from_scheme_d3_2_gives_the_even_weight_extension():
    A = oa_from_scheme(d3_scheme(2))
    assert (A.r, A.n, A.strength) == (8, 4, 3)
    ok, _ = is_orthogonal_array(A, 3)
    assert ok
    assert A.strength_checked
    assert strength(A) == 3


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
    assert strength(A) >= 2
    assert distance_profile(A).md == 2 * s - 2

