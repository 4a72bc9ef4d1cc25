"""Mixed-level array data model and generic array algebra.

Rows are stored as immutable tuples of ints; every operation returns a new
array.  Constructed arrays carry claimed strength / minimal-distance
certificates; claims are re-checked immediately when the work fits inside a
configurable verification budget, otherwise the array is marked
"constructed, unverified" and reports surface that status.  A claim that
fails its re-check raises ClaimFailed.

Strength is checked by vectorized counts: each t-column subset's rows become
mixed-radix keys, and one np.bincount per chunk of subsets counts them.  The
exact dict count runs only on the first failing subset, to extract the
BalanceWitness that reports name.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .algebra import Field
from .errors import (
    AlphabetMismatch,
    ClaimFailed,
    EmptyResult,
    NotDivisible,
    RowCountMismatch,
    ShapeMismatch,
    SymbolOutOfRange,
    TooFewRows,
)

#: default cap on elementary checks (tuples counted or row pairs scanned)
#: that constructors spend on re-verifying their own output
DEFAULT_VERIFICATION_BUDGET = 10**6


@dataclass(frozen=True)
class BalanceWitness:
    """One concrete violation of the equal-frequency condition."""

    columns: tuple[int, ...]
    levels: Optional[tuple[int, ...]]
    observed: Optional[int]
    expected: float
    reason: str

    def __str__(self):
        if self.levels is None:
            return (f"columns {self.columns}: {self.reason} "
                    f"(expected count {self.expected})")
        return (f"columns {self.columns}, levels {self.levels}: "
                f"observed {self.observed}, expected {self.expected} ({self.reason})")


@dataclass(frozen=True)
class DistanceProfile:
    """Minimal distance and the full set of pairwise Hamming distances."""

    md: int
    hd: frozenset[int]


class MixedLevelArray:
    """An r x n integer matrix with per-column alphabet sizes."""

    __slots__ = ("rows", "alphabets", "_strength", "_strength_checked",
                 "_md", "_md_checked", "_np_cache")

    def __init__(self, rows: Iterable[Sequence[int]], alphabets: Sequence[int]):
        self.alphabets = tuple(int(s) for s in alphabets)
        if not self.alphabets:
            raise EmptyResult("array needs at least one column")
        if any(s < 2 for s in self.alphabets):
            raise ValueError("alphabet sizes must be >= 2")
        self.rows = tuple(tuple(int(x) for x in row) for row in rows)
        if not self.rows:
            raise EmptyResult("array needs at least one row")
        n = len(self.alphabets)
        for row in self.rows:
            if len(row) != n:
                raise ShapeMismatch(f"row length {len(row)} != {n} columns")
            for x, s in zip(row, self.alphabets):
                if not 0 <= x < s:
                    raise SymbolOutOfRange(f"entry {x} out of range for alphabet {s}")
        self._strength = 0
        self._strength_checked = False
        self._md = None
        self._md_checked = False
        self._np_cache = None

    # -- basic shape --------------------------------------------------------

    @property
    def r(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.alphabets)

    @property
    def strength(self) -> int:
        """Claimed strength (0 = no claim)."""
        return self._strength

    @property
    def strength_checked(self) -> bool:
        return self._strength_checked

    @property
    def md(self) -> Optional[int]:
        """Claimed minimal distance (None = no claim)."""
        return self._md

    @property
    def md_checked(self) -> bool:
        return self._md_checked

    @property
    def verified(self) -> bool:
        """True when every claim this array carries has been re-checked."""
        return self._strength_checked and (self._md is None or self._md_checked)

    def status(self) -> str:
        return "verified" if self.verified else "constructed, unverified"

    def _as_np(self) -> np.ndarray:
        if self._np_cache is None:
            self._np_cache = np.array(self.rows, dtype=np.int64)
        return self._np_cache

    def sorted_rows(self) -> "MixedLevelArray":
        """Same array with rows in lexicographic order (claims carry over)."""
        out = MixedLevelArray(sorted(self.rows), self.alphabets)
        out._strength = self._strength
        out._strength_checked = self._strength_checked
        out._md = self._md
        out._md_checked = self._md_checked
        return out

    def __repr__(self):
        alpha = "x".join(str(s) for s in self.alphabets) if self.n <= 8 else \
            f"{self.alphabets[0]}..{self.alphabets[-1]}"
        return (f"MixedLevelArray(r={self.r}, n={self.n}, alphabets={alpha}, "
                f"strength={self._strength}, md={self._md}, {self.status()})")


# --- verification ------------------------------------------------------------


#: cap on rows x subsets counted by one np.bincount in is_orthogonal_array,
#: which bounds the kernel's scratch memory independently of C(n, t)
_CHUNK_CELLS = 1 << 15


def _subset_witness(A: MixedLevelArray, cols: tuple[int, ...]) -> Optional[BalanceWitness]:
    """Exact dict count on one column subset: the first violation, or None."""
    r = A.r
    prod = math.prod(A.alphabets[c] for c in cols)
    counts: dict[tuple[int, ...], int] = {}
    for row in A.rows:
        key = tuple(row[c] for c in cols)
        counts[key] = counts.get(key, 0) + 1
    if r % prod:
        # the index is fractional, so no balanced count exists; name the
        # lexicographically first tuple as the concrete witness
        first = (0,) * len(cols)
        return BalanceWitness(cols, first, counts.get(first, 0), r / prod,
                              "index r/prod(s_j) is not an integer")
    lam = r // prod
    if len(counts) != prod:
        missing = next(levels for levels in
                       itertools.product(*(range(A.alphabets[c]) for c in cols))
                       if levels not in counts)
        return BalanceWitness(cols, missing, 0, lam, "level tuple missing")
    for key, cnt in counts.items():
        if cnt != lam:
            return BalanceWitness(cols, key, cnt, lam, "unbalanced count")
    return None


def _first_unbalanced(A: MixedLevelArray, chunk: list[tuple[int, ...]],
                      prods: list[int]) -> Optional[int]:
    """Index in `chunk` of the first subset whose level counts are not all
    r/prod, or None.  Every prod divides r, so each key fits in int64."""
    m = A._as_np()
    r = A.r
    cols = np.array(chunk, dtype=np.intp)
    radix = np.array([[A.alphabets[c] for c in subset] for subset in chunk], dtype=np.int64)
    # mixed-radix weights, last column of each subset least significant
    weights = np.ones_like(radix)
    weights[:, :-1] = np.cumprod(radix[:, :0:-1], axis=1)[:, ::-1]
    sizes = np.array(prods, dtype=np.int64)
    # each subset's keys get their own range of the one bincount
    offsets = np.cumsum(sizes) - sizes
    keys = np.broadcast_to(offsets, (r, len(chunk))).copy()
    for j in range(cols.shape[1]):
        keys += m[:, cols[:, j]] * weights[:, j]
    counts = np.bincount(keys.ravel(), minlength=int(sizes.sum()))
    lam = np.repeat(r // sizes, sizes)
    bad = np.flatnonzero(counts != lam)
    if not bad.size:
        return None
    return int(np.searchsorted(offsets, bad[0], side="right")) - 1


def is_orthogonal_array(A: MixedLevelArray, t: int):
    """Check the equal-frequency condition at strength t.

    Returns (True, None) or (False, BalanceWitness).  A non-integer index
    r / prod(s_j) is reported as a witness, not an exception.  The witness
    names the first failing column subset in itertools.combinations order.
    """
    if not 1 <= t <= A.n:
        raise ValueError(f"strength {t} out of range 1..{A.n}")
    r = A.r
    subsets = itertools.combinations(range(A.n), t)
    per_chunk = max(1, _CHUNK_CELLS // r)
    while chunk := list(itertools.islice(subsets, per_chunk)):
        prods = [math.prod(A.alphabets[c] for c in cols) for cols in chunk]
        # a subset whose prod does not divide r fails without counting; only
        # the subsets before the first such one can fail earlier
        stop = next((i for i, p in enumerate(prods) if r % p), len(chunk))
        bad = _first_unbalanced(A, chunk[:stop], prods[:stop]) if stop else None
        if bad is None and stop < len(chunk):
            bad = stop
        if bad is not None:
            return False, _subset_witness(A, chunk[bad])
    return True, None


def strength(A: MixedLevelArray) -> int:
    """Largest t with is_orthogonal_array(A, t); 0 if even t=1 fails."""
    best = 0
    for t in range(1, A.n + 1):
        ok, _ = is_orthogonal_array(A, t)
        if not ok:
            break
        best = t
    return best


def distance_profile(A: MixedLevelArray) -> DistanceProfile:
    """Exact minimal distance and distance set over all row pairs."""
    if A.r < 2:
        raise TooFewRows("distance needs at least two rows")
    m = A._as_np()
    seen = np.zeros(A.n + 1, dtype=bool)
    for i in range(A.r - 1):
        d = np.count_nonzero(m[i + 1:] != m[i], axis=1)
        seen[np.unique(d)] = True
    hd = frozenset(int(v) for v in np.nonzero(seen)[0])
    return DistanceProfile(md=min(hd), hd=hd)


def strength_check_cost(A: MixedLevelArray, t: int) -> int:
    return A.r * math.comb(A.n, t)


def distance_check_cost(A: MixedLevelArray) -> int:
    return A.r * (A.r - 1) // 2


def ensure_checked(A: MixedLevelArray, budget: Optional[int] = None) -> MixedLevelArray:
    """Re-check the array's claims, spending at most `budget` elementary checks.

    Claims that fit the budget are verified (ClaimFailed means the
    construction is buggy); claims that do not remain marked unverified.
    """
    if budget is None:
        budget = DEFAULT_VERIFICATION_BUDGET
    if A._strength > 0 and not A._strength_checked:
        if strength_check_cost(A, A._strength) <= budget:
            ok, witness = is_orthogonal_array(A, A._strength)
            if not ok:
                raise ClaimFailed(f"strength {A._strength} claim failed: {witness}")
            A._strength_checked = True
    if A._md is not None and not A._md_checked:
        if distance_check_cost(A) <= budget:
            prof = distance_profile(A)
            if prof.md != A._md:
                raise ClaimFailed(f"md claim {A._md} != actual {prof.md}")
            A._md_checked = True
    return A


def _claimed(rows, alphabets, strength_claim: int = 0, md_claim: Optional[int] = None,
             budget: Optional[int] = None) -> MixedLevelArray:
    A = MixedLevelArray(rows, alphabets)
    A._strength = strength_claim
    A._md = md_claim
    return ensure_checked(A, budget)


def certify(A: MixedLevelArray, t: int, md: Optional[int] = None) -> MixedLevelArray:
    """Unconditionally verify strength t (and md, if given) and record it."""
    ok, witness = is_orthogonal_array(A, t)
    if not ok:
        raise ClaimFailed(f"strength {t} verification failed: {witness}")
    A._strength = t
    A._strength_checked = True
    if md is not None:
        prof = distance_profile(A)
        if prof.md != md:
            raise ClaimFailed(f"md {md} verification failed: actual {prof.md}")
        A._md = md
        A._md_checked = True
    return A


# --- array algebra -----------------------------------------------------------


def kronecker_sum(A: MixedLevelArray, B: MixedLevelArray,
                  group: Optional[Field] = None,
                  strength_claim: int = 0,
                  budget: Optional[int] = None) -> MixedLevelArray:
    """Blockwise sum: the (i,j) block of the result is a_ij + B.

    All columns of both operands must share one alphabet size s; addition is
    in Z_s unless a field of order s is supplied as the group.
    """
    s_set = set(A.alphabets) | set(B.alphabets)
    if len(s_set) != 1:
        raise AlphabetMismatch(f"operands must share one alphabet, got {sorted(s_set)}")
    s = s_set.pop()
    if group is not None and group.q != s:
        raise AlphabetMismatch(f"group order {group.q} != alphabet {s}")
    add = group.add if group is not None else (lambda x, y: (x + y) % s)
    rows = []
    for arow in A.rows:
        for brow in B.rows:
            rows.append(tuple(add(a, b) for a in arow for b in brow))
    return _claimed(rows, (s,) * (A.n * B.n), strength_claim, budget=budget)


def multiply_oa(A: MixedLevelArray, B: MixedLevelArray,
                budget: Optional[int] = None) -> MixedLevelArray:
    """Columnwise product of two arrays with the same column count.

    Row (u, v) of the result has entries a_uj * q_j + b_vj where q_j is B's
    j-th alphabet size; column j of the result has s_j * q_j levels.  The
    product keeps the smaller of the two strengths and the smaller of the
    two minimal distances.
    """
    if A.n != B.n:
        raise ShapeMismatch(f"column counts differ: {A.n} != {B.n}")
    q = B.alphabets
    rows = []
    for arow in A.rows:
        scaled = tuple(a * qj for a, qj in zip(arow, q))
        for brow in B.rows:
            rows.append(tuple(x + b for x, b in zip(scaled, brow)))
    alphabets = tuple(sj * qj for sj, qj in zip(A.alphabets, q))
    t = min(A.strength, B.strength)
    md = None
    if A.md is not None and B.md is not None:
        md = min(A.md, B.md)
    return _claimed(rows, alphabets, t, md, budget)


def expansive_replacement(A: MixedLevelArray, col: int, B: MixedLevelArray,
                          budget: Optional[int] = None) -> MixedLevelArray:
    """Replace the levels of one column by the rows of a smaller array.

    Level i of the column maps to row i of B after B's rows are sorted
    lexicographically (repeated rows are legal and simply merge levels).
    Strength is preserved as long as B is balanced on every projection it
    can see, i.e. B's certified strength is at least min(t, B.n).
    """
    if not 0 <= col < A.n:
        raise SymbolOutOfRange(f"column {col} out of range")
    if B.r != A.alphabets[col]:
        raise RowCountMismatch(
            f"column has {A.alphabets[col]} levels but replacement has {B.r} rows")
    t = A.strength
    if B.strength < min(t, B.n):
        raise ShapeMismatch(
            f"replacement needs strength >= {min(t, B.n)}, has {B.strength}")
    lookup = sorted(B.rows)
    rows = [row[:col] + lookup[row[col]] + row[col + 1:] for row in A.rows]
    alphabets = A.alphabets[:col] + B.alphabets + A.alphabets[col + 1:]
    return _claimed(rows, alphabets, t, budget=budget)


def delete_columns(A: MixedLevelArray, cols: Iterable[int],
                   budget: Optional[int] = None) -> MixedLevelArray:
    """Project the array onto the complement of `cols`."""
    drop = set(cols)
    for c in drop:
        if not 0 <= c < A.n:
            raise SymbolOutOfRange(f"column {c} out of range")
    keep = [j for j in range(A.n) if j not in drop]
    if not keep:
        raise EmptyResult("cannot delete every column")
    rows = [tuple(row[j] for j in keep) for row in A.rows]
    alphabets = tuple(A.alphabets[j] for j in keep)
    t = min(A.strength, len(keep))
    out = MixedLevelArray(rows, alphabets)
    out._strength = t
    # any projection of a checked strength-t array is itself checked
    out._strength_checked = A.strength_checked
    return ensure_checked(out, budget)


def derive_subarray(A: MixedLevelArray, col: int, symbol: int,
                    budget: Optional[int] = None) -> MixedLevelArray:
    """Rows whose `col` entry equals `symbol`, with that column removed.

    The result keeps strength at least t-1.
    """
    if not 0 <= col < A.n:
        raise SymbolOutOfRange(f"column {col} out of range")
    if not 0 <= symbol < A.alphabets[col]:
        raise SymbolOutOfRange(f"symbol {symbol} out of range for alphabet "
                               f"{A.alphabets[col]}")
    rows = [row[:col] + row[col + 1:] for row in A.rows if row[col] == symbol]
    alphabets = A.alphabets[:col] + A.alphabets[col + 1:]
    t = max(A.strength - 1, 0)
    return _claimed(rows, alphabets, min(t, len(alphabets)), budget=budget)


def attach_index_column(A: MixedLevelArray, block_size: int) -> MixedLevelArray:
    """Prepend a column that labels consecutive blocks of `block_size` rows."""
    if block_size < 1 or A.r % block_size:
        raise NotDivisible(f"{A.r} rows not divisible into blocks of {block_size}")
    levels = A.r // block_size
    if levels < 2:
        raise NotDivisible("index column needs at least two blocks")
    rows = [(i // block_size,) + row for i, row in enumerate(A.rows)]
    return MixedLevelArray(rows, (levels,) + A.alphabets)


def saturation_check(A: MixedLevelArray) -> bool:
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


# --- plain-text serialization --------------------------------------------------


def to_text(A: MixedLevelArray) -> str:
    """Shared text format: `OA r n t`, alphabet line, then the rows."""
    lines = [f"OA {A.r} {A.n} {A.strength}",
             " ".join(str(s) for s in A.alphabets)]
    lines.extend(" ".join(str(x) for x in row) for row in A.rows)
    return "\n".join(lines) + "\n"


def from_text(text: str) -> MixedLevelArray:
    """Parse the shared text format; the strength header is kept as a claim."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines())
             if ln and not ln.startswith("#")]
    head = lines[0].split()
    if len(head) != 4 or head[0] != "OA":
        raise ValueError(f"bad header: {lines[0]!r}")
    r, n, t = int(head[1]), int(head[2]), int(head[3])
    alphabets = tuple(int(x) for x in lines[1].split())
    if len(alphabets) != n:
        raise ValueError(f"alphabet line has {len(alphabets)} entries, expected {n}")
    rows = [tuple(int(x) for x in ln.split()) for ln in lines[2:2 + r]]
    if len(rows) != r:
        raise ValueError(f"expected {r} rows, found {len(rows)}")
    A = MixedLevelArray(rows, alphabets)
    A._strength = t
    return A
