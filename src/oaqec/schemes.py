"""Difference schemes over Z_s or a field-additive group, and their OA lifts.

A scheme of strength t hits every coset of the diagonal subgroup equally
often on each t-column projection; the constructors here verify that
property before returning, so no unverified scheme ever escapes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .algebra import Field, field_create, is_prime_power, prime_power_decomposition
from .arrays import BalanceWitness, MixedLevelArray, ensure_checked, kronecker_sum
from .errors import ClaimFailed, IngredientUnavailable, NotPrimePower


class DifferenceScheme:
    """An r x c matrix with entries in 0..s-1 and a declared group law.

    The group is Z_s (cyclic) by default; for prime-power s a field of
    order s may be declared instead, in which case differences are taken in
    the field's additive group and one construction never mixes the two.
    """

    __slots__ = ("rows", "s", "strength", "field")

    def __init__(self, rows, s: int, strength: int = 0,
                 field: Optional[Field] = None):
        self.rows = tuple(tuple(int(x) for x in row) for row in rows)
        self.s = int(s)
        self.strength = strength
        if field is not None and field.q != s:
            raise ValueError(f"field order {field.q} != group order {s}")
        self.field = field
        c = len(self.rows[0])
        for row in self.rows:
            if len(row) != c:
                raise ValueError("ragged scheme rows")
            if any(not 0 <= x < s for x in row):
                raise ValueError("scheme entry out of range")

    @property
    def r(self) -> int:
        return len(self.rows)

    @property
    def c(self) -> int:
        return len(self.rows[0])

    def sub(self, a: int, b: int) -> int:
        if self.field is not None:
            return self.field.sub(a, b)
        return (a - b) % self.s

    def group_tag(self) -> str:
        return "field" if self.field is not None else "cyclic"

    def to_array(self) -> MixedLevelArray:
        return MixedLevelArray(self.rows, (self.s,) * self.c)

    def __repr__(self):
        return (f"DifferenceScheme(r={self.r}, c={self.c}, s={self.s}, "
                f"t={self.strength}, group={self.group_tag()})")


def is_difference_scheme(D: DifferenceScheme, t: int):
    """Coset test at strength t: for every t-column subset the difference
    vectors against the last chosen column must hit each group tuple
    r / s^(t-1) times.  Returns (True, None) or (False, witness)."""
    if not 2 <= t <= D.c:
        raise ValueError(f"strength {t} out of range 2..{D.c}")
    r, s = D.r, D.s
    expected, rem = divmod(r, s ** (t - 1))
    if rem:
        return False, BalanceWitness(tuple(range(t)), None, None,
                                     r / s ** (t - 1),
                                     "row count not divisible by s^(t-1)")
    for cols in itertools.combinations(range(D.c), t):
        counts: dict[tuple[int, ...], int] = {}
        for row in D.rows:
            base = row[cols[-1]]
            key = tuple(D.sub(row[c], base) for c in cols[:-1])
            counts[key] = counts.get(key, 0) + 1
        for key in itertools.product(range(s), repeat=t - 1):
            if counts.get(key, 0) != expected:
                return False, BalanceWitness(cols, key, counts.get(key, 0),
                                             expected, "coset unbalanced")
    return True, None


def _verified(rows, s, t, field=None) -> DifferenceScheme:
    D = DifferenceScheme(rows, s, strength=t, field=field)
    ok, witness = is_difference_scheme(D, t)
    if not ok:
        raise ClaimFailed(f"scheme self-check failed at strength {t}: {witness}")
    return D


def d_sss(s: int) -> DifferenceScheme:
    """Square scheme of side s: the multiplication table of GF(s)."""
    if not is_prime_power(s):
        raise NotPrimePower(f"{s} is not a prime power")
    f = field_create(s)
    rows = [[f.mul(a, b) for b in f.elements()] for a in f.elements()]
    return _verified(rows, s, 2, field=f)


def d3_scheme(s: int) -> DifferenceScheme:
    """Strength-3 scheme with s^2 rows and 4 columns over Z_s, any s >= 2.

    Rows are (0, a, b, a+b); every 3-column difference projection is a
    linear bijection of (a, b), so strength 3 holds for every s.
    """
    if s < 2:
        raise ValueError("need s >= 2")
    rows = [(0, a, b, (a + b) % s) for a in range(s) for b in range(s)]
    return _verified(rows, s, 3)


def _first_nonsquare(f: Field) -> int:
    half = (f.q - 1) // 2
    for e in range(2, f.q):
        if f.pow(e, half) != 1:
            return e
    raise AssertionError("no non-square found (field of odd order must have one)")


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
    rho = _first_nonsquare(f)
    four = f.add(f.add(1, 1), f.add(1, 1))
    inv4 = f.inv(four)
    gamma_scale = f.mul(f.sub(1, f.inv(rho)), inv4)   # (1 - 1/rho) / 4
    Gamma_scale = f.mul(f.sub(rho, 1), inv4)          # (rho - 1) / 4
    rows = []
    for h in (0, 1):
        for a in f.elements():
            row = []
            for j in f.elements():
                v = f.mul(j, a)
                if h:
                    v = f.add(v, f.mul(f.mul(j, j), gamma_scale))
                row.append(v)
            for J in f.elements():
                v = f.add(f.mul(a, a), f.mul(J, a))
                if h:
                    v = f.add(f.mul(rho, v), f.mul(f.mul(J, J), Gamma_scale))
                row.append(v)
            rows.append(row)
    return _verified(rows, s, 2, field=f)


def _d_2s_even(s: int) -> DifferenceScheme:
    """Width-2s scheme for s = 2^k: the multiplication table of the field of
    order 2s, with entries pushed through the coefficient-dropping
    epimorphism onto the additive group of GF(s)."""
    big = field_create(2 * s)
    rows = [[big.mul(a, b) % s for b in big.elements()] for a in big.elements()]
    f = field_create(s) if s > 2 else None
    return _verified(rows, s, 2, field=f)


def _search_scheme(r: int, c: int, s: int, t: int,
                   node_budget: int = 2_000_000) -> Optional[list[tuple[int, ...]]]:
    """Deterministic backtracking search for a scheme, first column zero,
    rows filled in lexicographic value order.  Small cases only."""
    lam = r // s ** (t - 1)
    rows: list[list[int]] = []
    # pair-difference counters, keyed (col_a, col_b) -> value -> count
    counts = {(a, b): [0] * s for a in range(c) for b in range(a + 1, c)}

    def place(row):
        for (a, b), tally in counts.items():
            tally[(row[a] - row[b]) % s] += 1

    def unplace(row):
        for (a, b), tally in counts.items():
            tally[(row[a] - row[b]) % s] -= 1

    def feasible(row):
        return all(tally[(row[a] - row[b]) % s] < lam
                   for (a, b), tally in counts.items())

    nodes = 0

    def extend():
        nonlocal nodes
        if len(rows) == r:
            return True
        for tail in itertools.product(range(s), repeat=c - 1):
            row = [0, *tail]
            if rows and row <= rows[-1]:
                continue  # rows kept strictly increasing to break symmetry
            nodes += 1
            if nodes > node_budget:
                return False
            if feasible(row):
                place(row)
                rows.append(row)
                if extend():
                    return True
                rows.pop()
                unplace(row)
        return False

    if t != 2 or r % s ** (t - 1):
        return None
    if extend():
        return [tuple(row) for row in rows]
    return None


def d_2s(s: int) -> DifferenceScheme:
    """A verified width-2s, 2s-row scheme over a group of order s.

    Strategy order: the algebraic construction (covers every prime power),
    then a budgeted backtracking search.
    """
    if not is_prime_power(s):
        raise NotPrimePower(f"{s} is not a prime power")
    (p, _), = prime_power_decomposition(s)
    try:
        return _d_2s_even(s) if p == 2 else _d_2s_odd(s)
    except AssertionError:
        found = _search_scheme(2 * s, 2 * s, s, 2)
        if found is None:
            raise IngredientUnavailable(
                f"no width-{2 * s} scheme over Z_{s} found within budget") from None
        return _verified(found, s, 2)


def oa_from_scheme(D: DifferenceScheme, budget: Optional[int] = None) -> MixedLevelArray:
    """Lift a scheme to an orthogonal array by summing it with the full
    one-column array over its own group (strength carries over)."""
    col = MixedLevelArray([(v,) for v in range(D.s)], (D.s,))
    out = kronecker_sum(D.to_array(), col, group=D.field,
                        strength_claim=D.strength, budget=budget)
    return out


# --- plain-text serialization -------------------------------------------------


def scheme_to_text(D: DifferenceScheme) -> str:
    """Text format: `DS r c s t [group]`, then the rows (group defaults to
    cyclic when the tag is omitted)."""
    head = f"DS {D.r} {D.c} {D.s} {D.strength}"
    if D.field is not None:
        head += " field"
    lines = [head]
    lines.extend(" ".join(str(x) for x in row) for row in D.rows)
    return "\n".join(lines) + "\n"


def scheme_from_text(text: str) -> DifferenceScheme:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines())
             if ln and not ln.startswith("#")]
    head = lines[0].split()
    if head[0] != "DS" or len(head) not in (5, 6):
        raise ValueError(f"bad header: {lines[0]!r}")
    r, c, s, t = (int(x) for x in head[1:5])
    field = None
    if len(head) == 6:
        if head[5] != "field":
            raise ValueError(f"unknown group tag {head[5]!r}")
        field = field_create(s)
    rows = [tuple(int(x) for x in ln.split()) for ln in lines[1:1 + r]]
    if len(rows) != r or any(len(row) != c for row in rows):
        raise ValueError("scheme body does not match header dimensions")
    D = DifferenceScheme(rows, s, strength=t, field=field)
    if t:
        ok, witness = is_difference_scheme(D, t)
        if not ok:
            raise ValueError(f"declared strength {t} fails: {witness}")
    return D
