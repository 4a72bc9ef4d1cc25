"""Difference schemes over Z_s or a field-additive group, and their OA lifts.

A scheme of strength t hits every coset of the diagonal subgroup equally
often on each t-column projection.  Like every other construction, the
constructors record that strength as a claim and check nothing: a lift
is balanced exactly when its scheme is (`oa_from_scheme`), and it is
checked where a code's partition is formed.  Rows are one read-only int64
matrix, built from the field's tables.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .algebra import Field, field_create, is_prime_power, prime_power_decomposition
from .arrays import MixedLevelArray, claim
from .errors import NotPrimePower


class DifferenceScheme:
    """An r x c read-only int64 `matrix` with entries in 0..s-1 and a
    declared group law.

    The group is Z_s (cyclic) by default; for prime-power s a field of
    order s may be declared instead, in which case differences are taken in
    the field's additive group and one construction never mixes the two.
    """

    __slots__ = ("matrix", "s", "strength", "field")

    def __init__(self, rows, s: int, strength: int = 0,
                 field: Optional[Field] = None):
        self.s = int(s)
        self.strength = strength
        if field is not None and field.q != s:
            raise ValueError(f"field order {field.q} != group order {s}")
        self.field = field
        matrix = np.array(rows, dtype=np.int64)  # ValueError when ragged
        if matrix.ndim != 2:
            raise ValueError("ragged scheme rows")
        if ((matrix < 0) | (matrix >= s)).any():
            raise ValueError("scheme entry out of range")
        matrix.setflags(write=False)
        self.matrix = matrix

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The rows as tuples of Python ints (a copy, built on each call)."""
        return tuple(map(tuple, self.matrix.tolist()))

    @property
    def r(self) -> int:
        return self.matrix.shape[0]

    @property
    def c(self) -> int:
        return self.matrix.shape[1]

    def add_table(self) -> np.ndarray:
        """s x s table of the group law: the field's addition, or Z_s's."""
        if self.field is not None:
            return self.field.add_table
        e = np.arange(self.s)
        return (e[:, None] + e[None, :]) % self.s

    def group_tag(self) -> str:
        return "field" if self.field is not None else "cyclic"

    def __repr__(self):
        return (f"DifferenceScheme(r={self.r}, c={self.c}, s={self.s}, "
                f"t={self.strength}, group={self.group_tag()})")


def d3_scheme(s: int) -> DifferenceScheme:
    """Strength-3 scheme with s^2 rows and 4 columns over Z_s, any s >= 2.

    Rows are (0, a, b, a+b); every 3-column difference projection is a
    linear bijection of (a, b), so strength 3 holds for every s.
    """
    if s < 2:
        raise ValueError("need s >= 2")
    a, b = np.indices((s, s)).reshape(2, -1)
    return DifferenceScheme(np.stack([np.zeros_like(a), a, b, (a + b) % s], axis=1),
                            s, strength=3)


def _d_2s_odd(s: int) -> DifferenceScheme:
    """Width-2s scheme over GF(s) for odd prime power s.

    Rows are indexed by (h, a) with h in {0,1}, a in GF(s).  Half the
    columns are linear forms j*a, the other half quadratic forms a^2 + J*a;
    the h=1 copy multiplies the quadratic part by a fixed non-square rho and
    adds per-column constants chosen so that, for every linear/quadratic
    column pair, the two completed-square offsets coincide while the two
    square-class cosets partition the nonzero values.
    """
    f = field_create(s)
    add, mul = f.add_table, f.mul_table
    e = np.arange(s)
    a, square = e[:, None], mul[e, e]
    rho = int(np.flatnonzero(~np.isin(e, square))[0])  # the least non-square
    neg = np.argmax(add == 0, axis=1)  # -x, the y with x + y = 0
    inv = np.argmax(mul == 1, axis=1)  # 1/x for x != 0
    inv4 = inv[add[add[1, 1], add[1, 1]]]
    gamma_scale = mul[add[1, neg[inv[rho]]], inv4]  # (1 - 1/rho) / 4
    Gamma_scale = mul[add[rho, neg[1]], inv4]       # (rho - 1) / 4
    # [a, j] and [a, J] of the h = 0 copy
    linear = mul[a, e]
    quadratic = add[mul[a, a], mul[e, a]]
    rows = np.vstack([np.hstack([linear, quadratic]),
                      np.hstack([add[linear, mul[square, gamma_scale]],
                                 add[mul[rho, quadratic], mul[square, Gamma_scale]]])])
    return DifferenceScheme(rows, s, strength=2, field=f)


def _d_2s_even(s: int) -> DifferenceScheme:
    """Width-2s scheme for s = 2^k: the multiplication table of the field of
    order 2s, with entries pushed through the coefficient-dropping
    epimorphism onto the additive group of GF(s)."""
    f = field_create(s) if s > 2 else None
    return DifferenceScheme(field_create(2 * s).mul_table % s, s, strength=2, field=f)


def d_2s(s: int) -> DifferenceScheme:
    """A width-2s, 2s-row scheme of claimed strength 2 over a group of order
    s, by the algebraic construction for even or odd prime powers."""
    if not is_prime_power(s):
        raise NotPrimePower(f"{s} is not a prime power")
    (p, _), = prime_power_decomposition(s)
    return _d_2s_even(s) if p == 2 else _d_2s_odd(s)


def oa_from_scheme(D: DifferenceScheme) -> MixedLevelArray:
    """Lift a scheme to an orthogonal array: every scheme row is followed by
    its shifts by each constant vector (v, ..., v) of the scheme's own group,
    so consecutive blocks of s rows come from one scheme row.  The scheme's
    strength carries over as the array's claim, recorded unchecked.

    On t columns a lifted row D_i + v is fixed by its last entry, which
    gives v, and its differences against the last column, which give D_i's:
    each level tuple appears as often as its difference vector, so the lift
    is balanced at strength t exactly when the scheme passes the coset test,
    and checking the lift's claim checks the scheme."""
    shifted = D.add_table()[D.matrix[:, None, :], np.arange(D.s)[:, None]]
    return claim(MixedLevelArray(shifted.reshape(-1, D.c), (D.s,) * D.c),
                 strength=D.strength)

