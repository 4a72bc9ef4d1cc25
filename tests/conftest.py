"""Shared naive oracles, deliberately written as direct transcriptions of the
definitions (independent double loops, no hashing, no early exits) so the
optimized implementations have something dumb and trustworthy to agree with;
the hypothesis strategies that give the differential tests' random arrays a
wide column, so every storage dtype meets the oracles; and the loader of the
bundled reference codes, which only tests read.
"""

from __future__ import annotations

import functools
import itertools
import re
from importlib import resources

import numpy as np
from hypothesis import strategies as st

from oaqec.algebra import field_create
from oaqec.formats import FIXTURES, code_from_ket_text
from oaqec.schemes import DifferenceScheme
from oaqec.synthesis import QuantumCode

#: one alphabet just above the range of uint8, uint16 and uint32: an array
#: with a column over it is stored as uint16, uint32 or int64
WIDE_ALPHABETS = (2 ** 8 + 1, 2 ** 16 + 1, 2 ** 32 + 1)


def levels_st(s):
    """One level of a column over s symbols: any level of an alphabet below
    2^8, and a level near 0 or near the top of a wider one."""
    if s < 2 ** 8:
        return st.integers(0, s - 1)
    return st.integers(0, 2) | st.integers(s - 3, s - 1)


@st.composite
def with_wide_column(draw, alphabets):
    """The alphabets as a list or, one draw in three, with one alphabet of
    WIDE_ALPHABETS inserted at a drawn position."""
    wide = draw(st.sampled_from((None,) * 6 + WIDE_ALPHABETS), label="wide")
    alphabets = list(alphabets)
    if wide is not None:
        alphabets.insert(draw(st.integers(0, len(alphabets)), label="position"), wide)
    return alphabets


def naive_is_oa(rows, alphabets, t) -> bool:
    """Equal-frequency check by scanning every level tuple separately."""
    n = len(alphabets)
    r = len(rows)
    for cols in itertools.combinations(range(n), t):
        prod = 1
        for c in cols:
            prod *= alphabets[c]
        if r % prod:
            return False
        lam = r // prod
        for levels in itertools.product(*(range(alphabets[c]) for c in cols)):
            count = 0
            for row in rows:
                if all(row[c] == v for c, v in zip(cols, levels)):
                    count += 1
            if count != lam:
                return False
    return True


def naive_strength(rows, alphabets) -> int:
    best = 0
    for t in range(1, len(alphabets) + 1):
        if not naive_is_oa(rows, alphabets, t):
            break
        best = t
    return best


def saturation_check(A) -> bool:
    """True iff sum of (s_i - 1) over all columns equals r - 1."""
    return sum(s - 1 for s in A.alphabets) == A.r - 1


def saturated_hd_formula(r: int, m1: int, m2: int, s1: int, s2: int) -> set[int]:
    """Distance set forced by saturation for a two-alphabet strength-2 array.

    Enumerates {d1 + d2 : s1*d1 + s2*d2 = r, 0 <= d_i <= m_i}.
    """
    out = set()
    for d1 in range(m1 + 1):
        rem = r - s1 * d1
        if rem >= 0 and rem % s2 == 0 and rem // s2 <= m2:
            out.add(d1 + rem // s2)
    return out


def naive_distance_set(rows) -> set[int]:
    out = set()
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            out.add(sum(1 for a, b in zip(rows[i], rows[j]) if a != b))
    return out


def naive_is_difference_scheme(rows, s, t, sub=None) -> bool:
    """Coset test: difference vectors against the last chosen column must be
    uniform over Z_s^(t-1) for every t-column subset.  `sub` overrides the
    group subtraction (cyclic by default)."""
    if sub is None:
        sub = lambda a, b: (a - b) % s
    c = len(rows[0])
    r = len(rows)
    if r % s ** (t - 1):
        return False
    lam = r // s ** (t - 1)
    for cols in itertools.combinations(range(c), t):
        counts = {}
        for row in rows:
            key = tuple(sub(row[cols[i]], row[cols[-1]]) for i in range(t - 1))
            counts[key] = counts.get(key, 0) + 1

        for key in itertools.product(range(s), repeat=t - 1):
            if counts.get(key, 0) != lam:
                return False
    return True


def naive_cross_counts(block_i, block_j, subset, n):
    """Reduction counts by brute-force double loop over ket pairs."""
    comp = [c for c in range(n) if c not in subset]
    counts = {}
    for u in block_i:
        for v in block_j:
            if all(u[c] == v[c] for c in comp):
                key = (tuple(u[c] for c in subset), tuple(v[c] for c in subset))
                counts[key] = counts.get(key, 0) + 1
    return counts


def naive_field_axiom_failure(add, mul, neg, inv):
    """First field axiom violated by the q x q tables add and mul (nested
    lists), as the message after 'GF(q): ', or None.  neg and inv list each
    element's negative and inverse (inv[0] is ignored).  Scans element a and
    then the pairs (a, b) for each a, then every triple, in index order."""
    q = len(add)
    for a in range(q):
        if not (add[a][0] == a and mul[a][1] == a and mul[a][0] == 0
                and add[a][neg[a]] == 0 and (not a or mul[a][inv[a]] == 1)):
            return f"identity or inverse fails at {a}"
        for b in range(q):
            if not (add[a][b] == add[b][a] and mul[a][b] == mul[b][a]):
                return f"commutativity fails at {(a, b)}"
    for a in range(q):
        for b in range(q):
            for c in range(q):
                if not (mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
                        and mul[a][mul[b][c]] == mul[mul[a][b]][c]
                        and add[a][add[b][c]] == add[add[a][b]][c]):
                    return f"distributivity or associativity fails at {(a, b, c)}"
    return None


def naive_canonical_basis(states):
    """A basis in canonical order by plain tuple sorting: kets sorted within
    each state, then the states sorted."""
    return tuple(sorted(tuple(sorted(tuple(int(x) for x in ket) for ket in state))
                        for state in states))


def naive_scheme_witness(rows, s, t, sub):
    """(columns, key, count) of the first unbalanced difference vector:
    column subsets in combinations order, keys in product order; None when
    the scheme is balanced.  The row count must be divisible by s^(t-1)."""
    lam = len(rows) // s ** (t - 1)
    for cols in itertools.combinations(range(len(rows[0])), t):
        for key in itertools.product(range(s), repeat=t - 1):
            count = 0
            for row in rows:
                if all(sub(row[c], row[cols[-1]]) == k for c, k in zip(cols, key)):
                    count += 1
            if count != lam:
                return cols, key, count
    return None


# --- scalar field arithmetic: one element at a time ---------------------------


def field_add(f, a: int, b: int) -> int:
    """a + b in the field f, digit by digit: the reference that
    Field.add_table is tested against."""
    p = f.p
    out = 0
    pi = 1
    for _ in range(f.k):
        out += ((a + b) % p) * pi
        a //= p
        b //= p
        pi *= p
    return out


def field_neg(f, a: int) -> int:
    """-a in the field f, digit by digit."""
    p = f.p
    out = 0
    pi = 1
    for _ in range(f.k):
        out += (-a % p) * pi
        a //= p
        pi *= p
    return out


def field_sub(f, a: int, b: int) -> int:
    return field_add(f, a, field_neg(f, b))


def field_mul(f, a: int, b: int) -> int:
    """a * b in the field f, read from its multiplication table."""
    return f.mul_table.item(a, b)


def field_inv(f, a: int) -> int:
    """1/a in the field f: where 1 stands in a's row of the multiplication
    table."""
    if a == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse")
    return int(np.argmax(f.mul_table[a] == 1))


def naive_pow(f, a: int, n: int) -> int:
    """a^n in the field f, one multiplication at a time."""
    out = 1
    for _ in range(n):
        out = field_mul(f, out, a)
    return out


def naive_first_nonsquare(f) -> int:
    """The least element e >= 2 of an odd-order field with e^((q-1)/2) != 1."""
    for e in range(2, f.q):
        if naive_pow(f, e, (f.q - 1) // 2) != 1:
            return e
    raise AssertionError("no non-square found")


def d_sss(s: int):
    """Square scheme of side s: the multiplication table of GF(s), checked at
    strength 2 (NotPrimePower unless s is a prime power)."""
    f = field_create(s)
    D = DifferenceScheme(f.mul_table, s, strength=2, field=f)
    if not naive_is_difference_scheme(D.rows, s, 2, sub=functools.partial(field_sub, f)):
        raise AssertionError(f"the GF({s}) table is not a difference scheme")
    return D


def naive_d_sss_rows(f):
    """The multiplication table of the field f, entry by entry."""
    return [tuple(field_mul(f, a, b) for b in range(f.q)) for a in range(f.q)]


def naive_d3_rows(s):
    """The rows (0, a, b, a+b mod s) of the strength-3 scheme over Z_s."""
    return [(0, a, b, (a + b) % s) for a in range(s) for b in range(s)]


def naive_d_2s_odd_rows(f):
    """Width-2s scheme rows over an odd-order field f, one field operation
    at a time: rows (h, a), linear columns j*a and quadratic columns
    a^2 + J*a, the h = 1 copy scaled by the first non-square and shifted."""
    add, sub = functools.partial(field_add, f), functools.partial(field_sub, f)
    mul, inv = functools.partial(field_mul, f), functools.partial(field_inv, f)
    rho = naive_first_nonsquare(f)
    inv4 = inv(add(add(1, 1), add(1, 1)))
    gamma_scale = mul(sub(1, inv(rho)), inv4)
    Gamma_scale = mul(sub(rho, 1), inv4)
    rows = []
    for h in (0, 1):
        for a in range(f.q):
            row = []
            for j in range(f.q):
                v = mul(j, a)
                if h:
                    v = add(v, mul(mul(j, j), gamma_scale))
                row.append(v)
            for J in range(f.q):
                v = add(mul(a, a), mul(J, a))
                if h:
                    v = add(mul(rho, v), mul(mul(J, J), Gamma_scale))
                row.append(v)
            rows.append(tuple(row))
    return rows


def naive_d_2s_even_rows(big, s):
    """The multiplication table of the field `big` of order 2s, each entry
    reduced mod s."""
    return [tuple(field_mul(big, a, b) % s for b in range(big.q)) for a in range(big.q)]


def poly_mul(a, b, p) -> tuple[int, ...]:
    """Product of two polynomials over Z_p (coefficients low degree first,
    trailing zeros dropped), by the schoolbook double loop: the scalar
    reference that Field.mul_table is tested against."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_eval(f, coeffs, point: int) -> int:
    """Evaluate a polynomial (coefficients low degree first) at a point of
    the field f by Horner's rule, one field operation at a time: the Bush
    oracle."""
    if not coeffs:
        raise ValueError("coeffs must be nonempty")
    acc = 0
    for c in reversed(coeffs):
        acc = field_add(f, field_mul(f, acc, point), c)
    return acc


# --- ket text: the per-ket reader and writer ---------------------------------

_ORACLE_KET = re.compile(r"\|([^|>⟩]+)[>⟩]")
_ORACLE_SEP = re.compile(r"[,\s]+")
_ORACLE_GAP = re.compile(r"[+\s]*")


def state_to_line(state) -> str:
    """One basis state as |a,b,...> kets joined by plus signs, one string
    join per ket."""
    return " + ".join("|" + ",".join(map(str, ket)) + ">" for ket in state)


def naive_ket_text(code) -> str:
    """A code's ket text written one state, and one ket, at a time."""
    p = code.params
    lines = [f"QKET {p.n} {p.K}", " ".join(str(s) for s in p.alphabets)]
    lines.extend(state_to_line(code.state(i).tolist()) for i in range(p.K))
    return "\n".join(lines) + "\n"


def parse_state_line(line: str) -> list[tuple[int, ...]]:
    """One superposition line read ket by ket: entries split on commas or
    whitespace and read by int(), only plus signs and whitespace between
    the kets.  Raises ValueError for an entry int() refuses."""
    parts = _ORACLE_KET.split(line)
    if len(parts) == 1:
        raise ValueError(f"no kets found in line: {line[:60]!r}")
    if not _ORACLE_GAP.fullmatch("".join(parts[::2])):
        raise ValueError(f"text outside the kets in line: {line[:60]!r}")
    return [tuple(map(int, _ORACLE_SEP.split(body.strip()))) for body in parts[1::2]]


# --- the bundled reference codes ------------------------------------------------


def fixture_names() -> list[str]:
    return sorted(FIXTURES)


def load_fixture(name: str) -> tuple[QuantumCode, int]:
    """A bundled reference code and the error count d it is claimed to correct."""
    filename, d = FIXTURES[name]
    text = (resources.files("oaqec.fixtures") / filename).read_text()
    return code_from_ket_text(text, d), d
