"""Mixed-level array data model and generic array algebra.

Each array is one read-only ndarray in `storage_dtype(alphabets)`: uint8,
uint16 or uint32 when the largest level fits, else int64; `rows` is a
computed tuple view.  The ndarray is validated once, where it enters the
package: `MixedLevelArray` checks every entry of outside input against its
alphabet and casts it to the storage dtype.  The operations here are
ndarray operations that return new arrays, and their outputs are in range
and in the storage dtype by construction (a product's levels are
a * q + b < s * q, a replacement's are rows of a valid array, a projection
or a row permutation moves entries, an index column counts blocks), so
they go through the private constructor `_in_range_array`, which neither
checks nor casts.  An array's claimed strength and minimal distance are
each None or a frozen `Certificate` (the value, and whether a check
confirmed it), fixed when the array is made; only this module makes
certificates.

Operations record, partitions and assets check.  `claim` only records a
claim, unchecked, and every operation here (and every construction built
from them) returns its result with the claims it inherits recorded that
way.  `ensure_checked` is the one place a claim is compared with a computed
strength or distance: it checks every claim an array carries whose check
fits a verification budget, and leaves the rest "constructed, unverified"
for reports to surface.  `certify` claims and checks whatever it costs
(arrays from outside input and full factorials), and `measure_md` records
the exact distance of an array that claims none when its check fits the
budget; both hand every claim to `ensure_checked`, so a false claim fails
with the same ClaimFailed message whichever call finds it.  None of these
changes its argument: each returns an array over the same matrix with the
new certificates, or its argument itself when nothing changed, so an array
can be shared freely.  `claim_blocks` checks a partition's blocks, all
together or not at all.  A code's builder checks only the array the code is
compiled from, where its partition is formed; no status reads the claims of
an intermediate array.

Rows are ordered and compared one way, by `row_keys`: a row's key is its
mixed-radix number, and before the next digit would pass int64 the keys
are replaced by their ranks (and, when even those would pass it, that
column's values by theirs), so equal keys mean equal rows and the keys sort
rows lexicographically.  `lexsorted` sorts a matrix by them, or returns it
when they never decrease; a distance check sorts a projection's keys and
looks for a tie; `synthesis` puts a code's kets in canonical order by them.
`verify` keeps its own copy of the rule (`_slice_keys`), so that the
reduction route of cross-validation shares no key kernel with the array
route, whose distance comes from here.

Strength is checked by vectorized counts over one contiguous column-major
int64 copy of the matrix.  The t-column subsets are taken as the one-column
extensions of each (t-1)-column prefix: the prefix's mixed-radix key is
built once, from the key of the prefix it shares the most columns with, and
each extension costs one add and one np.bincount.  The
exact dict count runs only on the first failing subset, to extract the
BalanceWitness that reports name.  A partition's blocks share one pass: the
block number is the most significant digit of each key.

Minimal distance is computed from column projections (`minimal_distance`):
with distinct rows, md >= h exactly when every projection onto n - h + 1
columns is injective.  A projection is tested by sorting its mixed-radix
keys, and a level with fewer level tuples than rows needs no sort.  A
checked strength claim t settles more: a projection whose t largest
alphabets multiply to r holds each of their level tuples once, so it is
injective without a sort (an index-unity array's t-column projections and
every projection above them), and a level whose projections it settles
all is decided without visiting them one by one.  A carried claim settles
nothing.  When the search would visit more than (r-1)/2 projections,
sorted or settled (a wide array with a large distance), `minimal_distance`
runs the pair scan of `distance_profile` instead.  The budget prices a
distance check as the r(r-1)/2 row pairs of a pair scan
(`distance_check_cost`), whatever the claim spares.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    ClaimFailed,
    EmptyResult,
    NotDivisible,
    RowCountMismatch,
    ShapeMismatch,
    SymbolOutOfRange,
    TooFewRows,
)

#: default cap on elementary checks (tuples counted or row pairs scanned)
#: that ensure_checked, measure_md and claim_blocks spend on one array
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
class Certificate:
    """One claim about an array: its value, and whether a check confirmed it."""

    value: int
    checked: bool


#: largest entry a stored matrix may hold, whatever its alphabet
_INT64_MAX = np.iinfo(np.int64).max
#: (largest level, dtype) of the unsigned storage dtypes, narrowest first
_NARROW = tuple((np.iinfo(d).max, np.dtype(d)) for d in (np.uint8, np.uint16, np.uint32))


def storage_dtype(alphabets: Sequence[int]) -> np.dtype:
    """The dtype a matrix of levels over these alphabets is stored in: the
    narrowest of uint8, uint16 and uint32 holding the largest level
    max(alphabets) - 1, else int64 (entries above 2^63 - 1 are refused).  No
    stored matrix is uint64 or object, so int64 arithmetic on one is exact."""
    top = max(alphabets) - 1
    return next((dtype for most, dtype in _NARROW if top <= most), np.dtype(np.int64))


def _whole(x) -> bool:
    """Whether x is an integer, a bool or a float with an integer value."""
    if isinstance(x, (int, np.integer, np.bool_)):
        return True
    return isinstance(x, (float, np.floating)) and float(x).is_integer()


def _integer_matrix(rows) -> np.ndarray:
    """`rows` (an ndarray or a list) as an integer ndarray, an integer ndarray
    as it is.  Only integer, bool and integral float entries pass:
    SymbolOutOfRange for a float entry that is not an integer, TypeError for
    any other entry (or a float one beside a Python int past int64),
    OverflowError for an entry outside the int64 range, ValueError when the
    rows are ragged."""
    matrix = rows if isinstance(rows, np.ndarray) else np.array(rows)
    kind = matrix.dtype.kind
    if kind == "b":
        return matrix.astype(np.uint8)
    if kind == "f":
        # an int64 conversion would truncate 0.5 and wrap nan or 1e30
        whole = np.isfinite(matrix) & (matrix == np.trunc(matrix))
        if not whole.all():
            raise SymbolOutOfRange(f"entry {matrix[~whole][0]} is not an integer")
        outside = (matrix < -2.0 ** 63) | (matrix >= 2.0 ** 63)
        if outside.any():
            raise OverflowError(f"{matrix[outside][0]:.0f}")
        return matrix.astype(np.int64)
    if kind not in "iu":
        # Python ints past int64 and entries that are no numbers (None,
        # strings, fractions), looked at as they were given: an int64
        # conversion would read '1' as 1 and Fraction(1, 2) as 0
        cells = np.array(rows, dtype=object).ravel().tolist()
        bad = [x for x in cells if not _whole(x)]
        if bad:
            raise TypeError(f"entry {bad[0]!r} is not an integer")
        return np.array([int(x) for x in cells], dtype=np.int64).reshape(matrix.shape)
    if matrix.dtype == np.uint64 and matrix.max(initial=0) > _INT64_MAX:
        raise OverflowError(f"{matrix.max()} > {_INT64_MAX}")
    return matrix


def _out_of_range_entry(matrix: np.ndarray, alphabets: Sequence[int]
                        ) -> Optional[tuple[int, int]]:
    """(entry, alphabet) of the first entry of an integer matrix outside
    0..s_j - 1, in row-major order, or None; compared in the matrix's dtype."""
    top = np.iinfo(matrix.dtype).max
    bad = matrix > np.array([min(s - 1, top) for s in alphabets], dtype=matrix.dtype)
    if matrix.dtype.kind == "i":
        bad |= matrix < 0
    if not bad.any():
        return None
    i, j = np.argwhere(bad)[0]
    return int(matrix[i, j]), alphabets[j]


class MixedLevelArray:
    """An r x n read-only `matrix`, in storage_dtype(alphabets), with
    per-column alphabet sizes."""

    # __weakref__: a process memo may key on a shared array without keeping it
    __slots__ = ("matrix", "alphabets", "_strength", "_md", "__weakref__")

    def __init__(self, rows: np.ndarray | Iterable[Sequence[int]],
                 alphabets: Sequence[int]):
        self.alphabets = tuple(int(s) for s in alphabets)
        if not self.alphabets:
            raise EmptyResult("array needs at least one column")
        if any(s < 2 for s in self.alphabets):
            raise ValueError("alphabet sizes must be >= 2")
        try:
            matrix = _integer_matrix(rows if isinstance(rows, np.ndarray) else list(rows))
        except OverflowError as exc:
            raise SymbolOutOfRange(f"entry outside the int64 range: {exc}") from None
        except TypeError as exc:
            raise SymbolOutOfRange(str(exc)) from None
        except ValueError as exc:
            raise ShapeMismatch(f"rows do not form an integer matrix: {exc}") from None
        if len(matrix) == 0:
            raise EmptyResult("array needs at least one row")
        if matrix.ndim != 2 or matrix.shape[1] != self.n:
            raise ShapeMismatch(f"rows do not form a matrix with {self.n} columns")
        bad = _out_of_range_entry(matrix, self.alphabets)
        if bad is not None:
            raise SymbolOutOfRange(f"entry {bad[0]} out of range for alphabet {bad[1]}")
        matrix = matrix.astype(storage_dtype(self.alphabets))
        matrix.setflags(write=False)
        self.matrix = matrix
        self._strength: Optional[Certificate] = None
        self._md: Optional[Certificate] = None

    # -- basic shape --------------------------------------------------------

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The rows as tuples of Python ints (a copy, built on each call)."""
        return tuple(map(tuple, self.matrix.tolist()))

    @property
    def r(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return len(self.alphabets)

    @property
    def strength(self) -> int:
        """Claimed strength (0 = no claim)."""
        return 0 if self._strength is None else self._strength.value

    @property
    def strength_checked(self) -> bool:
        return self._strength is not None and self._strength.checked

    @property
    def md(self) -> Optional[int]:
        """Claimed minimal distance (None = no claim)."""
        return None if self._md is None else self._md.value

    @property
    def md_checked(self) -> bool:
        return self._md is not None and self._md.checked

    @property
    def verified(self) -> bool:
        """True when every claim this array carries has been re-checked."""
        return self.strength_checked and (self._md is None or self._md.checked)

    def status(self) -> str:
        return "verified" if self.verified else "constructed, unverified"

    def sorted_rows(self) -> "MixedLevelArray":
        """Same array with rows in lexicographic order, its claims recorded
        unchecked; rows already in order keep their matrix (`lexsorted`)."""
        return claim(_in_range_array(lexsorted(self.matrix), self.alphabets),
                     strength=self.strength, md=self.md)

    def __repr__(self):
        alpha = "x".join(str(s) for s in self.alphabets) if self.n <= 8 else \
            f"{self.alphabets[0]}..{self.alphabets[-1]}"
        return (f"MixedLevelArray(r={self.r}, n={self.n}, alphabets={alpha}, "
                f"strength={self.strength}, md={self.md}, {self.status()})")


def _with_certificates(A: MixedLevelArray, strength: Optional[Certificate],
                       md: Optional[Certificate]) -> MixedLevelArray:
    """An array over A's matrix and alphabets with these certificates, built
    without validating the matrix again; A itself when they are A's."""
    if strength is A._strength and md is A._md:
        return A
    out = _in_range_array(A.matrix, A.alphabets)
    out._strength, out._md = strength, md
    return out


def _in_range_array(matrix: np.ndarray, alphabets: tuple[int, ...]) -> MixedLevelArray:
    """An array over `matrix`, which becomes read-only, with no claims.  Only
    for a matrix whose entries are in range of `alphabets` and whose dtype
    is storage_dtype(alphabets) by construction, or a code's kets, which
    the code has checked: nothing is checked or cast.  Outside input goes
    through MixedLevelArray, which checks every entry."""
    matrix.setflags(write=False)
    out = object.__new__(MixedLevelArray)
    out.matrix, out.alphabets = matrix, alphabets
    out._strength = out._md = None
    return out


#: largest mixed-radix key row_keys builds before re-ranking
_KEY_MAX = np.iinfo(np.int64).max


def row_keys(columns: Sequence[np.ndarray], radices: Sequence[int]) -> np.ndarray:
    """One int64 key per row, columns[j] holding column j of the rows and
    radices[j] bounding its values: equal keys mean equal rows, and the keys
    order the rows lexicographically, first column most significant.  A
    key is its row's mixed-radix number until the next digit would pass
    _KEY_MAX; then the keys are replaced by their ranks, and when even the
    ranks would pass it, the column's values by theirs."""
    keys = np.zeros(len(columns[0]), dtype=np.int64)
    radix = 1
    for digits, s in zip(columns, radices):
        if radix > _KEY_MAX // s:
            uniq, keys = np.unique(keys, return_inverse=True)
            radix = len(uniq)
            if radix > _KEY_MAX // s:
                uniq, digits = np.unique(digits, return_inverse=True)
                s = len(uniq)
        keys *= s
        keys += digits
        radix *= s
    return keys


def lexsorted(matrix: np.ndarray) -> np.ndarray:
    """The rows of a non-negative integer `matrix` in lexicographic order,
    first column most significant: `matrix` itself when their keys
    (`row_keys`, every column's radix the largest entry + 1) never
    decrease, else one sort of the keys."""
    keys = row_keys(matrix.T, [int(matrix.max(initial=0)) + 1] * matrix.shape[1])
    if np.all(keys[1:] >= keys[:-1]):
        return matrix
    # equal keys are equal rows, so the sort need not be stable; numpy's
    # default argsort is several times faster than the stable one on r keys
    return matrix[np.argsort(keys)]


# --- verification ------------------------------------------------------------


def _subset_witness(A: MixedLevelArray, cols: tuple[int, ...]) -> Optional[BalanceWitness]:
    """Exact dict count on one column subset: the first violation, or None."""
    r = A.r
    prod = math.prod(A.alphabets[c] for c in cols)
    counts: dict[tuple[int, ...], int] = {}
    for key in map(tuple, A.matrix[:, list(cols)].tolist()):
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


def _first_unbalanced_subset(A: MixedLevelArray, t: int, blocks: int
                             ) -> Optional[tuple[tuple[int, ...], int]]:
    """(subset, block): the first t-column subset, in itertools.combinations
    order, whose level counts are unbalanced on some run of b = r / blocks
    consecutive rows, and the first such block; or None.

    The subsets come as the one-column extensions of each (t-1)-column
    prefix.  A prefix's key (block number most significant, then its levels)
    is built once, from the key of the prefix it shares the most columns
    with, and scaled once per alphabet among its extensions; each extension
    then costs one add and one np.bincount over its blocks * size cells,
    size its level product.  A subset whose level product does not divide b
    fails in every block without counting, and so does every subset through
    a prefix that does not divide b: it fails with its first extension,
    block 0.  Every other key stays below blocks * size <= r, so no key
    overflows int64.  A block's size cells add up to b, so they all equal
    b / size exactly when none exceeds it: only a subset whose largest count
    does is searched for its first bad cell.
    """
    r, n, alphabets = A.r, A.n, A.alphabets
    if not 1 <= t <= n:
        raise ValueError(f"strength {t} out of range 1..{n}")
    if not 1 <= blocks <= r or r % blocks:
        raise ValueError(f"{r} rows do not split into {blocks} equal blocks")
    b = r // blocks
    columns = np.ascontiguousarray(A.matrix.T, dtype=np.int64)
    # keys[d] and prods[d]: key and level product of the prefix's first d columns
    keys, prods, prev = [np.arange(r) // b], [1], ()
    for prefix in itertools.combinations(range(n - 1), t - 1):
        # keep the keys of the columns this prefix shares with the previous one
        d = next((i for i, (u, v) in enumerate(zip(prev, prefix)) if u != v), len(prev))
        del keys[d + 1:], prods[d + 1:]
        prev = prefix
        for c in prefix[d:]:
            prods.append(prods[-1] * alphabets[c])
            if b % prods[-1]:
                # combinations order sets the columns after a changed one to
                # consecutive values, so this is the first subset through
                # the failing columns
                return prefix + (prefix[-1] + 1,), 0
            keys.append(keys[-1] * alphabets[c] + columns[c])
        scaled: dict[int, np.ndarray] = {}
        for c in range(prefix[-1] + 1 if prefix else 0, n):
            s = alphabets[c]
            size = prods[-1] * s
            if b % size:
                return prefix + (c,), 0
            if s not in scaled:
                scaled[s] = keys[-1] * s
            counts = np.bincount(scaled[s] + columns[c], minlength=blocks * size)
            if counts.max() > b // size:
                return prefix + (c,), int(np.argmax(counts != b // size)) // size
    return None


def is_orthogonal_array(A: MixedLevelArray, t: int, blocks: int = 1):
    """Check the equal-frequency condition at strength t on each of `blocks`
    runs of b = r / blocks consecutive rows.

    Returns (True, None) or (False, BalanceWitness).  A non-integer index
    b / prod(s_j) is reported as a witness, not an exception.  The witness
    names the first failing column subset in itertools.combinations order,
    taken on the first block that fails there.
    """
    bad = _first_unbalanced_subset(A, t, blocks)
    if bad is None:
        return True, None
    cols, block = bad
    if blocks > 1:
        b = A.r // blocks
        A = _in_range_array(A.matrix[block * b:(block + 1) * b], A.alphabets)
    return False, _subset_witness(A, cols)


def distance_profile(A: MixedLevelArray) -> int:
    """Exact minimal distance by a scan of all row pairs."""
    if A.r < 2:
        raise TooFewRows("distance needs at least two rows")
    m = A.matrix
    seen = np.zeros(A.n + 1, dtype=bool)
    for i in range(A.r - 1):
        seen[np.count_nonzero(m[i + 1:] != m[i], axis=1)] = True
    return int(np.argmax(seen))


def _projection_collides(columns: np.ndarray, alphabets: Sequence[int],
                         cols: Iterable[int]) -> bool:
    """True when two rows agree on every column in `cols`, decided by sorting
    their keys (`row_keys`).  columns[j] holds column j of the array,
    contiguous."""
    cols = list(cols)
    keys = row_keys([columns[c] for c in cols], [alphabets[c] for c in cols])
    keys.sort()
    return bool(np.any(keys[1:] == keys[:-1]))


def _projection_md(A: MixedLevelArray, max_sorts: float) -> Optional[int]:
    """Minimal distance of A from its column projections, or None once
    deciding it would visit more than `max_sorts` projections.

    Two rows at distance d agree on n - d columns, so with distinct rows the
    minimal distance is n - k + 1 for the smallest k at which every k-column
    projection is injective (Hedayat, Sloane & Stufken 1999, ch. 4).  Levels
    k = 1, 2, ... are searched for a colliding projection; 0 means repeated
    rows.  At a level whose k smallest alphabets have fewer level tuples
    than there are rows, some projection collides by pigeonhole, so the
    level needs no sort; at any other level every projection is visited
    until one collides.

    A visited projection is sorted unless A carries a checked strength
    claim t and the t largest alphabets of its columns multiply to r: those
    t columns then hold every level tuple once (chs. 1 and 4), so the
    projection, like the full-width one, is injective without a sort.  When
    that holds for the t largest of the k smallest alphabets, it holds for
    every k-column projection, and the level is decided at once.  A settled
    projection still counts as visited, so the hand-over to the pair scan
    does not depend on the claim.
    """
    r, n, alphabets = A.r, A.n, A.alphabets
    columns = np.ascontiguousarray(A.matrix.T, dtype=np.int64)
    t = A.strength if A.strength_checked else 0

    def collides(cols) -> bool:
        if t and math.prod(sorted(alphabets[c] for c in cols)[-t:]) == r:
            return False
        return _projection_collides(columns, alphabets, cols)

    if math.prod(alphabets) < r or collides(range(n)):
        return 0
    smallest = sorted(alphabets)
    visited = 0
    for k in range(1, n):
        if math.prod(smallest[:k]) < r:
            continue
        if t and k >= t and math.prod(smallest[k - t:k]) == r:
            # no k-projection's t largest alphabets multiply to less than
            # these, and a passing strength check makes each product divide
            # r: every projection of the level is settled
            visited += math.comb(n, k)
            return None if visited > max_sorts else n - k + 1
        for cols in itertools.combinations(range(n), k):
            visited += 1
            if visited > max_sorts:
                return None
            if collides(cols):
                break
        else:
            return n - k + 1
    return 1


def minimal_distance(A: MixedLevelArray) -> int:
    """Exact minimal Hamming distance between two rows of A.

    The projection search (`_projection_md`) keys r rows per projection it
    sorts, and the pair scan of distance_profile compares r(r-1)/2 row
    pairs.  The search runs first and hands over to the pair scan once it
    would visit more than (r-1)/2 projections, so a wide array with a large
    distance, whose last level has C(n, n-md+1) projections, costs at most
    about twice the pair scan.  A checked strength claim on A spares the
    sorts of the projections it shows injective, and only a checked one: it
    changes neither the result nor where the search hands over.
    """
    if A.r < 2:
        raise TooFewRows("distance needs at least two rows")
    md = _projection_md(A, (A.r - 1) // 2)
    return distance_profile(A) if md is None else md


def strength_check_cost(A: MixedLevelArray, t: int) -> int:
    return A.r * math.comb(A.n, t)


def distance_check_cost(A: MixedLevelArray) -> int:
    return A.r * (A.r - 1) // 2


def _budget(budget: Optional[int]) -> int:
    return DEFAULT_VERIFICATION_BUDGET if budget is None else budget


def ensure_checked(A: MixedLevelArray, budget: Optional[int] = None) -> MixedLevelArray:
    """A with the claims it carries checked, spending at most `budget`
    elementary checks.

    Claims that fit the budget are verified (ClaimFailed means the
    construction is buggy); claims that do not remain marked unverified.
    A distance claim is priced as a pair scan, r(r-1)/2 checks, and
    checked with minimal_distance on A with the strength certificate it has
    by then: a strength checked here or before spares projection sorts, one
    left over budget does not.  A itself is left as it is.
    """
    budget = _budget(budget)
    t, md = A._strength, A._md
    if t is not None and not t.checked and strength_check_cost(A, t.value) <= budget:
        ok, witness = is_orthogonal_array(A, t.value)
        if not ok:
            raise ClaimFailed(f"strength {t.value} claim failed: {witness}")
        t = Certificate(t.value, True)
    if md is not None and not md.checked and distance_check_cost(A) <= budget:
        actual = minimal_distance(_with_certificates(A, t, md))
        if actual != md.value:
            raise ClaimFailed(f"md claim {md.value} != actual {actual}")
        md = Certificate(md.value, True)
    return _with_certificates(A, t, md)


def claim(A: MixedLevelArray, *, strength: Optional[int] = None,
          md: Optional[int] = None) -> MixedLevelArray:
    """A with a strength and/or minimal-distance claim recorded; nothing is
    checked (see ensure_checked).

    A claim equal to the one A already carries keeps its certificate; a
    different one replaces it unchecked (strength 0 is no claim).  A itself
    is left as it is.
    """
    t, dist = A._strength, A._md
    if strength is not None and strength != A.strength:
        t = Certificate(strength, False) if strength > 0 else None
    if md is not None and md != A.md:
        dist = Certificate(md, False)
    return _with_certificates(A, t, dist)


def certify(A: MixedLevelArray, t: int, md: Optional[int] = None) -> MixedLevelArray:
    """A with strength t (and md, if given) claimed and all its claims
    checked at any cost."""
    return ensure_checked(claim(A, strength=t, md=md), math.inf)


def measure_md(A: MixedLevelArray, budget: Optional[int] = None) -> MixedLevelArray:
    """A with its minimal distance checked within `budget` when that fits.  A
    claimed distance is checked by ensure_checked (with A's other claims); any
    other is measured when its check, priced as a pair scan, fits, and
    recorded checked.  The result's md_checked says whether a check ran."""
    if A._md is not None:
        return ensure_checked(A, budget)
    if distance_check_cost(A) > _budget(budget):
        return A
    return _with_certificates(A, A._strength, Certificate(minimal_distance(A), True))


def claim_blocks(parent: MixedLevelArray, K: int, t: int,
                 budget: Optional[int] = None) -> bool:
    """Check the K blocks of consecutive rows of `parent` at strength t in
    one pass when the blocks' summed cost, strength_check_cost(parent, t),
    fits the budget.  Returns whether the check ran; ClaimFailed if it failed.
    One block is the parent itself: a checked strength claim of t or more
    on the parent is that check, and is not run again."""
    if K == 1 and parent.strength_checked and parent.strength >= t:
        return True
    if strength_check_cost(parent, t) > _budget(budget):
        return False
    ok, witness = is_orthogonal_array(parent, t, K)
    if not ok:
        raise ClaimFailed(f"block is not balanced to strength {t}: {witness}")
    return True


# --- array algebra -----------------------------------------------------------


def multiply_oa(A: MixedLevelArray, B: MixedLevelArray) -> MixedLevelArray:
    """Columnwise product of two arrays with the same column count.

    Row (u, v) of the result has entries a_uj * q_j + b_vj where q_j is B's
    j-th alphabet size; column j of the result has s_j * q_j levels.  The
    product keeps the smaller of the two strengths and the smaller of the
    two minimal distances.  A product entry above 2^63 - 1 is refused, as the
    constructor refuses it, before the int64 arithmetic could wrap.
    """
    if A.n != B.n:
        raise ShapeMismatch(f"column counts differ: {A.n} != {B.n}")
    q = B.alphabets
    top = max(int(a) * qj + int(b)
              for a, qj, b in zip(A.matrix.max(axis=0), q, B.matrix.max(axis=0)))
    if top > _INT64_MAX:
        raise SymbolOutOfRange(f"entry outside the int64 range: {top}")
    alphabets = tuple(sj * qj for sj, qj in zip(A.alphabets, q))
    # computed in the result's storage dtype, which holds every entry; a
    # q_j past int64 weighs only zeros of A, so clamping it changes nothing
    weights = np.array([min(qj, _INT64_MAX) for qj in q], dtype=storage_dtype(alphabets))
    rows = (A.matrix[:, None, :] * weights + B.matrix[None, :, :]).reshape(-1, A.n)
    t = min(A.strength, B.strength)
    md = None
    if A.md is not None and B.md is not None:
        md = min(A.md, B.md)
    # a * q_j + b <= (s_j - 1) * q_j + q_j - 1: every entry is in range
    return claim(_in_range_array(rows, alphabets), strength=t, md=md)


def expansive_replacement(A: MixedLevelArray, col: int,
                          B: MixedLevelArray) -> MixedLevelArray:
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
    alphabets = A.alphabets[:col] + B.alphabets + A.alphabets[col + 1:]
    M = A.matrix
    # every entry is an entry of A or of B, in its column's range, so the
    # join may narrow A's dtype when the replaced column held its widest level
    rows = np.hstack([M[:, :col], lexsorted(B.matrix)[M[:, col]], M[:, col + 1:]],
                     dtype=storage_dtype(alphabets), casting="unsafe")
    return claim(_in_range_array(rows, alphabets), strength=t)


def delete_columns(A: MixedLevelArray, cols: Iterable[int]) -> MixedLevelArray:
    """Project the array onto the complement of `cols`."""
    drop = set(cols)
    for c in drop:
        if not 0 <= c < A.n:
            raise SymbolOutOfRange(f"column {c} out of range")
    keep = [j for j in range(A.n) if j not in drop]
    if not keep:
        raise EmptyResult("cannot delete every column")
    alphabets = tuple(A.alphabets[j] for j in keep)
    # a dropped column may have held the widest level
    rows = A.matrix[:, keep].astype(storage_dtype(alphabets), copy=False)
    return claim(_in_range_array(rows, alphabets), strength=min(A.strength, len(keep)))


def derive_subarray(A: MixedLevelArray, col: int, symbol: int) -> MixedLevelArray:
    """Rows whose `col` entry equals `symbol`, with that column removed.

    The result keeps strength at least t-1.
    """
    if not 0 <= col < A.n:
        raise SymbolOutOfRange(f"column {col} out of range")
    if not 0 <= symbol < A.alphabets[col]:
        raise SymbolOutOfRange(f"symbol {symbol} out of range for alphabet "
                               f"{A.alphabets[col]}")
    rows = np.delete(A.matrix[A.matrix[:, col] == symbol], col, axis=1)
    alphabets = A.alphabets[:col] + A.alphabets[col + 1:]
    t = max(A.strength - 1, 0)
    return claim(MixedLevelArray(rows, alphabets), strength=min(t, len(alphabets)))


def attach_index_column(A: MixedLevelArray, block_size: int) -> MixedLevelArray:
    """Prepend a column that labels consecutive blocks of `block_size` rows."""
    if block_size < 1 or A.r % block_size:
        raise NotDivisible(f"{A.r} rows not divisible into blocks of {block_size}")
    levels = A.r // block_size
    if levels < 2:
        raise NotDivisible("index column needs at least two blocks")
    alphabets = (levels,) + A.alphabets
    dtype = storage_dtype(alphabets)
    index = np.arange(levels, dtype=dtype).repeat(block_size)[:, None]
    return _in_range_array(np.hstack([index, A.matrix], dtype=dtype), alphabets)


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
    if len(lines) < 2:
        raise ValueError("array text needs an OA header line and an alphabet line")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "OA":
        raise ValueError(f"bad header: {lines[0]!r}")
    r, n, t = int(head[1]), int(head[2]), int(head[3])
    alphabets = tuple(int(x) for x in lines[1].split())
    if len(alphabets) != n:
        raise ValueError(f"alphabet line has {len(alphabets)} entries, expected {n}")
    rows = [tuple(int(x) for x in ln.split()) for ln in lines[2:]]
    if len(rows) != r:
        raise ValueError(f"expected {r} rows, found {len(rows)}")
    return claim(MixedLevelArray(rows, alphabets), strength=t)
