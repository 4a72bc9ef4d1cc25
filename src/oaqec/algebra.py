"""Exact arithmetic over Z_s and Galois fields GF(p^k).

Field elements are dense integer indices 0..q-1 encoding the coefficient
vector of the element in base p, low-degree digit first.  The reduction
polynomial is the lexicographically smallest monic irreducible (coefficients
compared low-degree-first), found by exhaustive search, so two invocations
always produce identical tables.

A field's arithmetic is two q x q numpy tables: `add_table` (a ^ b in
characteristic 2, else the digits added mod p in the table's own narrow
dtype) and `mul_table`; a negative or an inverse is where 0 or 1 stands in
an element's row.  The multiplication table is built with numpy, one block
of rows at a time: the carry-less product of the digit vectors, reduced
modulo the polynomial.
A field builds its tables and checks nothing, as a construction builds an
array: the tables reach an output only through arrays that carry their
strength and distance as claims (`bush`, `hyperoval_oa` and the difference
schemes), which are checked where a code's partition is formed, and cross
validation re-derives every emitted code from its kets.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import NotPrimePower

_MAX_FIELD_ORDER = 4096  # the constructions here never need larger fields

#: cells of one block of rows of a table under construction
_TABLE_BLOCK_CELLS = 1 << 18


def prime_power_decomposition(s: int) -> list[tuple[int, int]]:
    """Factor s into [(p1, l1), (p2, l2), ...] with distinct primes ascending."""
    if s < 2:
        raise ValueError(f"cannot factor {s} (need s >= 2)")
    out = []
    n = s
    p = 2
    while p * p <= n:
        if n % p == 0:
            l = 0
            while n % p == 0:
                n //= p
                l += 1
            out.append((p, l))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def factorize_prime_powers(s: int) -> list[int]:
    """Coprime prime-power factors of s, sorted by prime: 56 -> [8, 7]."""
    return [p**l for p, l in prime_power_decomposition(s)]


def is_prime_power(q: int) -> bool:
    return q >= 2 and len(prime_power_decomposition(q)) == 1


# --- polynomial helpers over Z_p (coefficient tuples, low degree first) -----

def _poly_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mod(a, m, p):
    """Remainder of a modulo the monic polynomial m, coefficients mod p."""
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1] % p
        if lead:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * mi) % p
        a.pop()
    return _poly_trim(a)


def _is_irreducible(poly, p) -> bool:
    """Trial division of a monic poly by every monic divisor of degree <= deg/2."""
    deg = len(poly) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = tuple(tail) + (1,)
            if not _poly_mod(poly, divisor, p):
                return False
    # degree-1 factors are caught above (d=1 scans all roots) except deg==1
    return True


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    # candidates ordered by their base-p integer encoding (low-degree digit
    # least significant), the same encoding used for field elements
    for c in range(p**k):
        tail = tuple((c // p**i) % p for i in range(k))
        cand = tail + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError(f"no monic irreducible of degree {k} over Z_{p}")


class Field:
    """GF(p^k) with dense integer element indices and precomputed tables."""

    def __init__(self, p: int, k: int):
        self.p = p
        self.k = k
        self.q = p**k
        self.poly = (0, 1) if k == 1 else _smallest_irreducible(p, k)

    @functools.cached_property
    def add_table(self) -> np.ndarray:
        """q x q addition table, in the smallest unsigned dtype holding q-1.

        For p = 2 it is a ^ b.  Otherwise the base-p digits are added mod p
        one digit at a time, in the table's dtype, one block of rows at a
        time; a digit sum that wraps around the dtype comes back below p
        once p is subtracted."""
        p, q = self.p, self.q
        e = np.arange(q, dtype=np.uint8 if q <= 256 else np.uint16)
        if p == 2:
            return np.bitwise_xor.outer(e, e)
        out = np.zeros((q, q), dtype=e.dtype)
        rows = max(1, _TABLE_BLOCK_CELLS // q)
        for lo in range(0, q, rows):
            a, block = e[lo:lo + rows, None], out[lo:lo + rows]
            pi = 1
            for _ in range(self.k):
                da, db = a // pi % p, e // pi % p
                digit = da + db
                np.subtract(digit, p, out=digit, where=da >= p - db)
                digit *= pi
                block += digit
                pi *= p
        return out

    @functools.cached_property
    def mul_table(self) -> np.ndarray:
        """q x q multiplication table, same dtype as add_table.

        a * b is the carry-less product of the digit vectors, reduced modulo
        poly: the sum over the digits a_i of a of a_i * (x^i * b mod poly).
        The table is built one block of rows at a time: the rows of the
        elements a + c x^i with a < p^i are the rows of the elements a < p^i,
        already built, plus the row of the monomial c x^i, which is one
        add_table lookup per entry."""
        p, k, q = self.p, self.k, self.q
        add = self.add_table
        out = np.zeros((q, q), dtype=add.dtype)
        weights = p ** np.arange(k)
        # digit vectors of x^i * b mod poly for every b, starting at i = 0
        shifted = (np.arange(q)[:, None] // weights) % p
        # x^k = -(poly_0 + poly_1 x + ... + poly_(k-1) x^(k-1)) modulo poly
        wrap = -np.array(self.poly[:k])
        for i in range(k):
            if i:
                top = shifted[:, -1:]
                shifted = (np.hstack([np.zeros_like(top), shifted[:, :-1]]) + top * wrap) % p
            block = p**i
            for c in range(1, p):
                monomial = (c * shifted) % p @ weights
                out[c * block:(c + 1) * block] = add[out[:block], monomial]
        return out

    def __repr__(self):
        return f"Field(q={self.q})"


@functools.lru_cache(maxsize=None)
def field_create(q: int) -> Field:
    """Create (and cache) the field of order q; q must be a prime power."""
    if q < 2 or not is_prime_power(q):
        raise NotPrimePower(f"{q} is not a prime power")
    if q > _MAX_FIELD_ORDER:
        raise NotPrimePower(f"field order {q} exceeds the supported limit {_MAX_FIELD_ORDER}")
    (p, k), = prime_power_decomposition(q)
    return Field(p, k)

