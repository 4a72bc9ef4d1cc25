"""Exact arithmetic over Z_s and Galois fields GF(p^k).

Field elements are dense integer indices 0..q-1 encoding the coefficient
vector of the element in base p, low-degree digit first.  The reduction
polynomial is the lexicographically smallest monic irreducible (coefficients
compared low-degree-first), found by exhaustive search and re-checked at
creation, so two invocations always produce identical tables.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import ClaimFailed, NotPrimePower

_MAX_FIELD_ORDER = 4096  # the constructions here never need larger fields


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


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


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
        self._mul = self._build_mul_table()
        self._inv = [0] * self.q
        for a in range(1, self.q):
            self._inv[a] = self._mul[a].index(1)
        if self.q <= 64:
            self._check_axioms()

    # element index <-> coefficient vector, low-degree digit first
    def _coeffs(self, e: int) -> tuple[int, ...]:
        p, k = self.p, self.k
        return tuple((e // p**i) % p for i in range(k))

    def _index(self, coeffs) -> int:
        return sum(c * self.p**i for i, c in enumerate(coeffs))

    def _build_mul_table(self):
        table = [[0] * self.q for _ in range(self.q)]
        for a in range(self.q):
            ca = self._coeffs(a)
            for b in range(a, self.q):
                prod = _poly_mod(_poly_mul(ca, self._coeffs(b), self.p), self.poly, self.p)
                v = self._index(prod)
                table[a][b] = v
                table[b][a] = v
        return table

    def add(self, a: int, b: int) -> int:
        p = self.p
        out = 0
        pi = 1
        for _ in range(self.k):
            out += ((a + b) % p) * pi
            a //= p
            b //= p
            pi *= p
        return out

    def neg(self, a: int) -> int:
        p = self.p
        out = 0
        pi = 1
        for _ in range(self.k):
            out += (-a % p) * pi
            a //= p
            pi *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._inv[a]

    def div(self, a: int, b: int) -> int:
        return self._mul[a][self.inv(b)]

    def pow(self, a: int, n: int) -> int:
        out = 1
        for _ in range(n):
            out = self._mul[out][a]
        return out

    def elements(self) -> range:
        return range(self.q)

    @functools.cached_property
    def add_table(self) -> np.ndarray:
        """q x q addition table, in the smallest unsigned dtype holding q-1."""
        a = np.arange(self.q)
        out = np.zeros((self.q, self.q), dtype=np.uint8 if self.q <= 256 else np.uint16)
        pi = 1
        for _ in range(self.k):
            out += ((a[:, None] // pi + a[None, :] // pi) % self.p * pi).astype(out.dtype)
            pi *= self.p
        return out

    @functools.cached_property
    def mul_table(self) -> np.ndarray:
        """q x q multiplication table, same dtype as add_table."""
        return np.array(self._mul, dtype=self.add_table.dtype)

    def __repr__(self):
        return f"Field(q={self.q})"

    def _check_axioms(self):
        q, add, mul = self.q, self.add, self.mul
        rng = range(q)
        for a in rng:
            if not (add(a, 0) == a and mul(a, 1) == a and mul(a, 0) == 0
                    and add(a, self.neg(a)) == 0
                    and (not a or mul(a, self._inv[a]) == 1)):
                raise ClaimFailed(f"GF({q}): identity or inverse fails at {a}")
            for b in rng:
                if not (add(a, b) == add(b, a) and mul(a, b) == mul(b, a)):
                    raise ClaimFailed(f"GF({q}): commutativity fails at {(a, b)}")
        for a in rng:
            for b in rng:
                for c in rng:
                    if not (mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
                            and mul(a, mul(b, c)) == mul(mul(a, b), c)
                            and add(a, add(b, c)) == add(add(a, b), c)):
                        raise ClaimFailed(f"GF({q}): distributivity or "
                                          f"associativity fails at {(a, b, c)}")


@functools.lru_cache(maxsize=None)
def field_create(q: int) -> Field:
    """Create (and cache) the field of order q; q must be a prime power."""
    if q < 2 or not is_prime_power(q):
        raise NotPrimePower(f"{q} is not a prime power")
    if q > _MAX_FIELD_ORDER:
        raise NotPrimePower(f"field order {q} exceeds the supported limit {_MAX_FIELD_ORDER}")
    (p, k), = prime_power_decomposition(q)
    return Field(p, k)


def poly_eval(f: Field, coeffs, point: int) -> int:
    """Evaluate a polynomial (coefficients low-degree-first) at a field point."""
    if not coeffs:
        raise ValueError("coeffs must be nonempty")
    acc = 0
    for c in reversed(coeffs):
        acc = f.add(f.mul(acc, point), c)
    return acc
