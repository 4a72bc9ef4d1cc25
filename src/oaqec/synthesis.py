"""Compile orthogonal arrays with orthogonal partitions into explicit quantum codes.

An orthogonal partition is its parent array's row order: block i is a run of
consecutive rows.  Expansive replacement keeps row order, so a partition of
an array is one of every array replaced from it, and the builders never
split or re-sort blocks; a code canonicalises its kets, so row order never
reaches an output.  A partition is also the one source of a code's distance
floor h: its parent's minimal distance when that check ran (h exact), else
the floor the construction guarantees (a lower bound).  A check returns a
new array instead of marking its argument, so a partition keeps the checked
parent the checks return.

Rows of a catalogue share their ingredients, and a process builds each
once: besides the arrays `constructions` shares, the lift of `d3_scheme(s)`
that `theorem_5s2` splits, the prime-power base of `_base_52s(s)` (each
with its ingredient notes, replayed into every row's provenance), and the
prefix partition of a shared base array (`partition_by_prefix`).  A process
never shares a check (`ensure_checked`, `measure_md`, `claim_blocks`, and so
no `OrthogonalPartition` or `QuantumCode`), a row's own array (the output
of `_split`) or a registry lookup (`asset_get`): every row runs every check
on its own array."""
from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import factorize_prime_powers, is_prime_power
from .arrays import (MixedLevelArray, _integer_matrix, _out_of_range_entry,
                     attach_index_column, claim, claim_blocks, delete_columns,
                     ensure_checked, expansive_replacement, measure_md,
                     multiply_oa, row_keys, storage_dtype)
# re-exported: the benchmark harness wraps and calls it through this module
from .arrays import is_orthogonal_array  # noqa: F401
from .constructions import asset_get, full_factorial_mixed, resolve_symmetric_oa
from .errors import (BadFactorization, BadGeometry, BadRecipe, ClaimFailed,
                     DivisibilityViolated, ExcludedS, IngredientUnavailable,
                     NegativeM, NotFromOA, NotPartitionable, SBoundViolated,
                     SymbolOutOfRange)
from .schemes import d3_scheme, d_2s, oa_from_scheme

# --- quantum singleton arithmetic ---------------------------------------------


def singleton_bound(n: int, d: int, alphabets: Sequence[int]) -> int:
    """Largest dimension a distance-(d+1) code on these alphabets can have."""
    if d < 0:
        raise BadGeometry(f"need d >= 0, got d={d}")
    alphabets = tuple(int(s) for s in alphabets)
    if len(alphabets) != n:
        raise BadGeometry(f"{len(alphabets)} alphabet sizes for {n} parties")
    if any(s < 2 for s in alphabets):
        raise BadGeometry(f"alphabet sizes must each be at least 2, got {list(alphabets)}")
    if n < 2 * d:
        raise BadGeometry(f"need n >= 2d, got n={n}, d={d}")
    return math.prod(sorted(alphabets)[:n - 2 * d])


def m_value(n: int, d: int, alphabets: Sequence[int], K: int) -> int:
    """Gap between the singleton bound and the dimension K (0 for an NQMDS code)."""
    if n < 2 * d + 1:
        raise BadGeometry(f"need n >= 2d+1, got n={n}, d={d}")
    bound = singleton_bound(n, d, alphabets)
    if K > bound:
        raise NegativeM(f"dimension {K} exceeds the singleton bound {bound}")
    return bound - K


def admissible_m_range(n: int, d: int, alphabets: Sequence[int]) -> tuple[int, int]:
    """Inclusive window [0, upper] of defect values m considered admissible."""
    if n < 2 * d + 1:
        raise BadGeometry(f"need n >= 2d+1, got n={n}, d={d}")
    srt = sorted(int(s) for s in alphabets)
    if len(srt) != n:
        raise BadGeometry(f"{len(srt)} alphabet sizes for {n} parties")
    return 0, math.prod(srt[:n - 2 * d]) - math.prod(srt[:n - 2 * d - 1])


@dataclass(frozen=True)
class CodeParams:
    """Shape of an ((n, K, d+1)) code over mixed alphabets, with its defect m."""
    n: int
    K: int
    d_plus_1: int
    alphabets: tuple[int, ...]
    singleton: int
    m: int
    m_range: tuple[int, int]

    def code_string(self) -> str:
        """Render as ((n,K,d+1))_{a^i b^j ...} with alphabet sizes descending."""
        counts: dict[int, int] = {}
        for s in sorted(self.alphabets, reverse=True):
            counts[s] = counts.get(s, 0) + 1
        sub = " ".join(f"{s}^{k}" for s, k in counts.items())
        return f"(({self.n},{self.K},{self.d_plus_1}))_{{{sub}}}"


def make_code_params(n: int, d: int, alphabets: Sequence[int], K: int) -> CodeParams:
    """Assemble CodeParams, refusing dimensions above the singleton bound."""
    alphabets = tuple(int(s) for s in alphabets)
    m = m_value(n, d, alphabets, K)  # the singleton bound minus K
    return CodeParams(n=n, K=int(K), d_plus_1=d + 1, alphabets=alphabets,
                      singleton=m + K, m=m,
                      m_range=admissible_m_range(n, d, alphabets))


# --- orthogonal partitions ------------------------------------------------------


class OrthogonalPartition:
    """A parent array whose rows are stored block by block: K equal blocks,
    block i being rows i*b ... (i+1)*b - 1 with b = r / K, each balanced to
    a stated strength.

    Forming a partition is where a code's array is checked: the claims the
    parent carries are checked within `budget` (ensure_checked), its
    minimal distance is measured within the same budget (measure_md), then
    its blocks are checked, all together in one pass over the parent or not
    at all, within the same budget (claim_blocks).  `parent` is the array
    those checks return, with their certificates."""

    def __init__(self, parent: MixedLevelArray, K: int, strength: int,
                 budget: Optional[int] = None):
        if strength < 1:
            raise ValueError("partition strength must be at least 1")
        if not 1 <= K <= parent.r or parent.r % K:
            raise NotPartitionable(f"{parent.r} rows do not split into {K} "
                                   f"equal nonempty blocks")
        self.parent = measure_md(ensure_checked(parent, budget), budget)
        self.K = int(K)
        self.strength = int(strength)
        self.strength_checked = claim_blocks(self.parent, self.K, self.strength, budget)

    @property
    def block_size(self) -> int:
        return self.parent.r // self.K

    def distance_floor(self, floor: int) -> int:
        """The parent's minimal distance when its check ran, else `floor`."""
        return self.parent.md if self.parent.md_checked else floor

    def __repr__(self):
        return (f"OrthogonalPartition(K={self.K}, block_size={self.block_size}, "
                f"strength={self.strength})")


#: partition_by_prefix results by base array (held weakly, keyed by
#: identity), then by prefix width
_PREFIX_PARTITIONS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def partition_by_prefix(A: MixedLevelArray, l: int) -> tuple[MixedLevelArray, int]:
    """Strip the first l columns and group rows by the removed prefix.

    Returns the stripped array, its rows sorted so that each prefix group
    is one block of consecutive rows, and the number K of groups.  Each
    group inherits strength A.strength - l, so the stripped array with K
    blocks is a partition of that strength.  The rows are sorted at most
    once: not at all when their keys (`arrays.row_keys`) never decrease, as
    a Bush table's do with its trailing columns deleted (`sorted_rows`).

    The result is made once per (A, l) and returned again while A lives:
    the rows that partition one shared base array share its partition."""
    by_width = _PREFIX_PARTITIONS.setdefault(A, {})
    if l not in by_width:
        by_width[l] = _prefix_partition(A, l)
    return by_width[l]


def _prefix_partition(A: MixedLevelArray, l: int) -> tuple[MixedLevelArray, int]:
    if not 0 <= l < A.n:
        raise ValueError(f"prefix width {l} out of range for {A.n} columns")
    if A.strength <= l:
        raise ValueError(f"prefix width {l} needs array strength above {l}")
    srt = A.sorted_rows()
    if l == 0:
        return srt, 1
    parent = delete_columns(srt, range(l))
    # sorted rows with one prefix are consecutive: split where the prefix changes
    prefix = srt.matrix[:, :l]
    starts = np.flatnonzero((prefix[1:] != prefix[:-1]).any(axis=1)) + 1
    sizes = set(np.diff(starts, prepend=0, append=srt.r).tolist())
    if len(sizes) != 1:
        raise NotPartitionable(f"prefix groups have unequal sizes {sorted(sizes)}")
    return parent, len(starts) + 1


# --- compiled codes -------------------------------------------------------------


@dataclass(frozen=True)
class Provenance:
    """How a code was built: construction route, ingredients and certificates.

    The parent array is the partition's: its rows in block order.  The h a
    caller gives is a floor: h is the partition's distance_floor(h)."""
    construction: str
    parameters: tuple[tuple[str, str], ...]
    ingredients: tuple[str, ...]
    partition: OrthogonalPartition
    h: int
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "h", self.partition.distance_floor(self.h))

    @property
    def parent(self) -> MixedLevelArray:
        return self.partition.parent

    @property
    def h_exact(self) -> bool:
        return self.parent.md_checked

    @property
    def t_prime(self) -> int:
        return self.partition.strength


def _state_matrix(state, n: int) -> np.ndarray:
    """One state's kets as an integer matrix with n columns, an integer
    ndarray in its own dtype, refusing a ket of another length, an entry
    outside the int64 range or an entry that is not an integer, a bool or a
    float with an integer value."""
    try:
        matrix = _integer_matrix(state)
    except OverflowError:
        raise BadGeometry("ket entry outside the int64 range") from None
    except SymbolOutOfRange as exc:
        raise BadGeometry(f"ket {exc}") from None
    except TypeError as exc:
        raise BadGeometry(f"kets must be sequences of {n} integers: {exc}") from None
    except ValueError:
        # ragged kets: name the first one of the wrong length
        bad = next((len(ket) for ket in state
                    if hasattr(ket, "__len__") and len(ket) != n), None)
        raise BadGeometry(f"ket length {bad} != {n}" if bad is not None
                          else f"kets must be sequences of {n} integers") from None
    if matrix.ndim != 2:
        raise BadGeometry(f"a state must list kets of length {n}")
    if matrix.shape[1] != n:
        raise BadGeometry(f"ket length {matrix.shape[1]} != {n}")
    return matrix


def _ket_matrix(basis, n: int, K: int) -> np.ndarray:
    """The kets of a basis as one integer matrix of K * block rows and n
    columns, state i being rows i * block ... (i + 1) * block - 1: a
    (K * block, n) ndarray as it is, a (K, block, n) one reshaped, and any
    other basis, a list of K states each a list or matrix of kets, joined
    state by state."""
    if isinstance(basis, np.ndarray) and basis.ndim in (2, 3):
        if basis.ndim == 3:
            if len(basis) != K:
                raise BadGeometry(f"{len(basis)} states for dimension {K}")
            basis = basis.reshape(K * basis.shape[1], basis.shape[2])
        matrix = _state_matrix(basis, n)
        if len(matrix) % K:
            raise BadGeometry(f"{len(matrix)} kets do not split into {K} equal states")
        if not len(matrix):
            raise BadGeometry("basis states hold no kets")
        return matrix
    try:
        states = [state if isinstance(state, np.ndarray) else list(state)
                  for state in basis]
    except TypeError:
        raise BadGeometry("a basis must list states, each a list of kets") from None
    if len(states) != K:
        raise BadGeometry(f"{len(states)} states for dimension {K}")
    sizes = {len(state) for state in states}
    if len(sizes) != 1:
        raise BadGeometry(f"states have unequal ket counts {sorted(sizes)}")
    if not sizes.pop():
        raise BadGeometry("basis states hold no kets")
    states = [_state_matrix(state, n) for state in states]
    # the states' common dtype, or int64 where it is not an integer one
    # (uint64 with a signed dtype): no entry is past int64 by now
    common = np.result_type(*{state.dtype for state in states})
    return np.concatenate(states, dtype=common if common.kind in "iu" else np.int64)


def _canonical_rows(kets: np.ndarray, alphabets: tuple[int, ...],
                    K: int) -> Optional[np.ndarray]:
    """The row order that puts K equal runs of kets in canonical order (kets
    sorted within each state, states ordered by their first ket), or None
    when they are in it already; BadGeometry naming the lexicographically
    first ket that occurs twice.

    Each ket is keyed by one int64 whose order is the kets' lexicographic
    order (`row_keys` over the alphabets).  One neighbour comparison of the
    keys shows which states are already sorted with distinct kets, as a
    partition's blocks are; only the others are sorted.  One sort of all
    keys finds a ket repeated anywhere, and the states are reordered only
    when their first keys are out of order."""
    keys = row_keys(kets.T, alphabets).reshape(K, -1)
    block = keys.shape[1]
    rows = None
    unsorted = np.flatnonzero(np.any(keys[:, 1:] <= keys[:, :-1], axis=1))
    if unsorted.size:
        # stable argsorts: numpy's default argsort kernel would add its
        # own code pages (about 0.25 MB resident) for these small sorts
        within = np.argsort(keys[unsorted], axis=1, kind="stable")
        rows = np.arange(keys.size).reshape(K, block)
        rows[unsorted] = np.take_along_axis(rows[unsorted], within, axis=1)
        keys[unsorted] = np.take_along_axis(keys[unsorted], within, axis=1)
    flat = np.sort(keys, axis=None)
    repeated = np.flatnonzero(flat[1:] == flat[:-1])
    if repeated.size:
        at = np.flatnonzero(keys.ravel() == flat[repeated[0]])[0]
        ket = tuple(kets[at if rows is None else rows.flat[at]].tolist())
        raise BadGeometry(f"ket {ket} appears in more than one state")
    # the states are disjoint, so their first kets alone order them
    if np.any(keys[1:, 0] < keys[:-1, 0]):
        order = np.argsort(keys[:, 0], kind="stable")
        rows = order[:, None] * block + np.arange(block) if rows is None else rows[order]
    return None if rows is None else rows.ravel()


class QuantumCode:
    """A K-dimensional code whose basis states superpose disjoint row blocks.

    `kets` is the basis as one read-only matrix of K * kets_per_state rows
    and n columns, in storage_dtype(alphabets), as arrays store theirs: the
    rows of state i are kets[i * kets_per_state:(i + 1) * kets_per_state]
    (`state(i)`).  The order is canonical: kets sorted within each state,
    and states ordered by their first ket.  `basis` is the same kets as a
    tuple of states, each a tuple of int tuples, built when first read.

    The basis is one (K * block, n) matrix, state i its i-th run of block
    rows, as `code_from_partitioned_oa` passes its parent's matrix; a
    (K, block, n) ndarray, or a list of K states (each a list or matrix of
    kets), is joined into one.  The geometry is checked on the whole matrix
    with numpy when the code is built: K >= 1 states of one nonzero size,
    kets of length n, every entry inside its alphabet, no ket repeated
    within or across states, and, for a code with provenance, as many kets
    as parent rows.  A violation raises BadGeometry (ClaimFailed for the
    parent count); a repeated ket named is the lexicographically first.
    The kets are sorted only where they are out of order
    (`_canonical_rows`), and a matrix handed in is never kept: it is copied
    when no sort moved its rows, so later writes to it cannot reach `kets`."""

    def __init__(self, params: CodeParams, basis, provenance: Optional[Provenance] = None):
        self.params = params
        self.provenance = provenance
        K, n = params.K, params.n
        if K < 1:
            raise BadGeometry(f"a code needs at least one basis state, not K={K}")
        kets = _ket_matrix(basis, n, K)
        bad = _out_of_range_entry(kets, params.alphabets)
        if bad is not None:
            raise BadGeometry(f"ket entry {bad[0]} out of range for alphabet {bad[1]}")
        kets = kets.astype(storage_dtype(params.alphabets), copy=False)
        rows = _canonical_rows(kets, params.alphabets, K)
        if rows is not None:
            kets = kets[rows]
        elif isinstance(basis, np.ndarray) and np.may_share_memory(kets, basis):
            kets = kets.copy()
        kets.setflags(write=False)
        self.kets = kets
        if provenance is not None and len(kets) != provenance.parent.r:
            raise ClaimFailed("basis states do not cover the parent array")

    @property
    def kets_per_state(self) -> int:
        return len(self.kets) // self.params.K

    def state(self, i: int) -> np.ndarray:
        """The kets of basis state i: a read-only slice of `kets`."""
        block = self.kets_per_state
        return self.kets[i * block:(i + 1) * block]

    @functools.cached_property
    def basis(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The kets as a tuple of states, each a tuple of int tuples."""
        rows = list(map(tuple, self.kets.tolist()))
        block = self.kets_per_state
        return tuple(tuple(rows[i * block:(i + 1) * block])
                     for i in range(self.params.K))

    def status(self) -> str:
        """Whether every combinatorial claim behind this code was re-checked."""
        prov = self.provenance
        if prov is None:
            return "constructed, unverified"
        ok = prov.parent.verified and prov.partition.strength_checked and prov.h_exact
        return "verified" if ok else "constructed, unverified"

    def __repr__(self):
        return f"QuantumCode({self.params.code_string()}, {self.status()})"


def code_from_partitioned_oa(partition: OrthogonalPartition, floor: int, *,
                             construction: str = "orthogonal-partition compilation",
                             parameters: tuple[tuple[str, str], ...] = (),
                             ingredients: tuple[str, ...] = (),
                             notes: tuple[str, ...] = ()) -> QuantumCode:
    """Compile a strength-t' partition of an array into an ((n,K,min(t'+1,h))) code,
    h being the partition's distance_floor(floor)."""
    A = partition.parent
    prov = Provenance(construction=construction, parameters=tuple(parameters),
                      ingredients=tuple(ingredients), partition=partition,
                      h=floor, notes=tuple(notes))
    if prov.h < 1:
        raise ValueError(f"distance floor h={prov.h} must be positive")
    d_plus_1 = min(partition.strength + 1, prov.h)
    params = make_code_params(A.n, d_plus_1 - 1, A.alphabets, partition.K)
    return QuantumCode(params, A.matrix, prov)


# --- shared helpers -------------------------------------------------------------


def _factors(factors, whole: int, exact: bool = True) -> tuple[int, ...]:
    """A factor list sorted descending, refused unless nonempty, each >= 2
    (BadFactorization), and multiplying to `whole` when `exact`
    (BadFactorization), else to a divisor of it (DivisibilityViolated)."""
    out = tuple(sorted((int(f) for f in factors), reverse=True))
    if not out or any(f < 2 for f in out):
        raise BadFactorization(f"factors must each be at least 2, got {factors}")
    product = math.prod(out)
    if exact and product != whole:
        raise BadFactorization(f"factors {factors} do not multiply to {whole}")
    if whole % product:
        raise DivisibilityViolated(f"factor product {product} must divide {whole}")
    return out


def _claim_equal(value: int, expected: int, what: str) -> None:
    """Refuse a built code whose parameter contradicts its family's closed form."""
    if value != expected:
        raise ClaimFailed(f"{what} {value} != closed form {expected}")


def _split(B: MixedLevelArray, col: int, factors, ingredients: list[str],
           lam: int = 1) -> MixedLevelArray:
    """B with column `col` replaced by the full factorial on the factors,
    each level tuple repeated lam times; the factorial is noted in
    `ingredients`."""
    F = full_factorial_mixed(factors, lam)
    B = expansive_replacement(B, col, F)
    ingredients.append(f"full factorial on {F.alphabets} with index {lam}")
    return B


def _unit_index_oa(s: int, n_cols: int, t: int,
                   ingredients: list[str]) -> MixedLevelArray:
    """A symmetric OA(s^t, n_cols, s, t), its route noted in `ingredients`;
    an array of index above 1 is refused."""
    A = resolve_symmetric_oa(s, n_cols, t, ingredients)
    if A.r != s ** t:
        raise IngredientUnavailable(
            f"resolved array has {A.r} rows, need the unit-index {s ** t}")
    return A


# --- ((4+k, 1, 3)) codes from a width-4 difference-scheme lift ------------------


def _lifted_code(B: MixedLevelArray, s: int, factors: tuple[int, ...],
                 budget: Optional[int], ingredients: list[str],
                 construction: str) -> QuantumCode:
    """The ((4+k, 1, 3)) code of a strength-2, distance-3 lift B: split the
    last column of B into the factors (when there are several), compile B
    as one block and check the defect m = s - 1."""
    if len(factors) > 1:
        B = _split(B, B.n - 1, factors, ingredients)
    code = code_from_partitioned_oa(
        OrthogonalPartition(B, 1, 2, budget), 3, construction=construction,
        parameters=(("s", str(s)), ("factors", str(factors))),
        ingredients=tuple(ingredients))
    _claim_equal(code.params.m, s - 1, "defect")
    return code


def theorem_5s2(s: int, factors, *, budget: Optional[int] = None) -> QuantumCode:
    """Distance-3 code on alphabets (s^2)^1 s^(4-k) f_1..f_k with defect m = s-1."""
    factors = _factors(factors, s)
    B, notes = _d3_lift(s)
    return _lifted_code(B, s, factors, budget, list(notes),
                        "width-4 difference-scheme lift with index column")


@functools.lru_cache(maxsize=None)
def _d3_lift(s: int) -> tuple[MixedLevelArray, tuple[str, ...]]:
    """The lift of d3_scheme(s) with its index column, claimed strength 2
    and distance 3, and its ingredient notes: made once per s."""
    D = d3_scheme(s)
    # pairs sharing a scheme row at the same shift differ in 3 places
    B = claim(attach_index_column(oa_from_scheme(D), s), strength=2, md=3)
    return B, (f"difference scheme D({D.r},{D.c},{s}) of width {D.c}",
               f"index column over {B.alphabets[0]} blocks")


# --- ((4+k, 1, 3)) codes from a width-2s difference-scheme lift -----------------


def _base_52s(s: int, ingredients: list[str]) -> MixedLevelArray:
    """A strength-2, distance-3 array on (2s)^1 s^4 for any s >= 2 with one."""
    if is_prime_power(s):
        A, notes = _d_2s_lift(s)
        ingredients.extend(notes)
        return A
    pieces = factorize_prime_powers(s)
    if 2 in pieces and 3 in pieces:
        # the bases for 2 and 3 would multiply to a 24-level first column,
        # not 12: the base for 6 is a bundled asset
        P, taken = asset_get("oa_72_5_12_6666", trace=ingredients), {2, 3}
    else:
        P, taken = _base_52s(min(pieces), ingredients), {min(pieces)}
    for u in pieces:
        if u not in taken:
            # a unit-index piece has distance 4 > 3, so the product keeps P's
            P = multiply_oa(P, resolve_symmetric_oa(u, 5, 2, ingredients))
    return P


@functools.lru_cache(maxsize=None)
def _d_2s_lift(s: int) -> tuple[MixedLevelArray, tuple[str, ...]]:
    """The base of _base_52s for a prime power s, and its ingredient notes:
    made once per s."""
    # the saturated strength-2 array on (2s)^1 s^(2s) from the width-2s
    # scheme; its five-column projection has distance exactly 3
    sat = attach_index_column(oa_from_scheme(d_2s(s)), s)
    A = sat if sat.n == 5 else delete_columns(sat, range(5, sat.n))
    return claim(A, strength=2, md=3), (f"saturated lift of D({2 * s},{2 * s},{s})",)


def theorem_52s(s: int, factors, *, budget: Optional[int] = None) -> QuantumCode:
    """Distance-3 code on alphabets (2s)^1 s^(4-k) f_1..f_k with defect m = s-1."""
    factors = _factors(factors, s)
    ingredients: list[str] = []
    B = _base_52s(s, ingredients)
    return _lifted_code(B, s, factors, budget, ingredients,
                        "width-2s difference-scheme lift with index column")


# --- ((2d+1, 1, d+1)) codes from an index-unity symmetric array -----------------


def theorem_s1(s: int, d: int, s1: int, *,
               budget: Optional[int] = None) -> QuantumCode:
    """Distance-(d+1) code on s^(2d-1) (s/s1)^1 s1^1 with defect m = s1 - 1:
    the last column of a unit-index symmetric array is split in two."""
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    if s1 < 2:
        raise ValueError(f"s1 must be at least 2, got {s1}")
    if s % s1:
        raise DivisibilityViolated(f"{s1} does not divide {s}")
    if s < s1 * s1:
        raise SBoundViolated(f"need s >= s1^2 = {s1 * s1}, got s={s}")
    ingredients: list[str] = []
    base = _unit_index_oa(s, 2 * d, d, ingredients)
    B = _split(base, base.n - 1, (s // s1, s1), ingredients)
    code = code_from_partitioned_oa(
        OrthogonalPartition(B, 1, d, budget), d + 1,
        construction="unit-index symmetric array with one column split in two",
        parameters=(("s", str(s)), ("d", str(d)), ("s1", str(s1))),
        ingredients=tuple(ingredients))
    _claim_equal(code.params.m, s1 - 1, "defect")
    return code


# --- ((n, s^l, d+1)) codes from a prefix-partitioned symmetric array ------------


def theorem_tn(s: int, d: int, l: int, s_factors, q_factors=None, *,
               budget: Optional[int] = None) -> QuantumCode:
    """Dimension-s^l, distance-(d+1) code built by splitting symmetric columns.

    The last s-column is replaced by a factorial on s_factors (product
    dividing s); optionally the s-column before it is split exactly into
    q_factors (product s)."""
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    if l < 0:
        raise ValueError(f"l must be nonnegative, got {l}")
    s_factors = _factors(s_factors, s, exact=False)
    w1 = math.prod(s_factors)
    if q_factors is not None:
        q_factors = _factors(q_factors, s)

    ingredients: list[str] = []
    base = _unit_index_oa(s, 2 * d + 2 * l + 1, d + l, ingredients)
    stripped, K = partition_by_prefix(base, l)

    # stripped keeps 2d + l + 1 >= 3 columns, so col - 1 is an s-column
    col = stripped.n - 1
    B = _split(stripped, col, s_factors, ingredients, s // w1)
    if q_factors is not None:
        B = _split(B, col - 1, q_factors, ingredients)
    notes: list[str] = []

    # replacement keeps row order, so B's rows are still in the prefix blocks
    part = OrthogonalPartition(B, K, d, budget)
    d_eff = min(d + 1, part.distance_floor(d + 1)) - 1
    m_pred = m_value(B.n, d_eff, B.alphabets, s ** l)
    if q_factors is None or l >= 1:
        _claim_equal(m_pred, (w1 - 1) * s ** l, "defect")
    else:
        w = max(s_factors + q_factors)
        closed = s * w1 // w - 1
        agree = "matches" if m_pred == closed else "DIFFERS FROM"
        notes.append(f"defect {m_pred} {agree} the closed form {closed}")
    code = code_from_partitioned_oa(
        part, d + 1,
        construction="prefix-partitioned symmetric array with split columns",
        parameters=(("s", str(s)), ("d", str(d)), ("l", str(l)),
                    ("s_factors", str(s_factors)),
                    ("q_factors", str(q_factors))),
        ingredients=tuple(ingredients), notes=tuple(notes))
    _claim_equal(code.params.K, s ** l, "dimension")
    return code


def corollary_5lie(s: int, factors, *, budget: Optional[int] = None) -> QuantumCode:
    """Distance-3 code on s^4 f_1..f_k via the d=2, l=0 column split."""
    if s < 4 or s in (6, 10):
        raise ExcludedS(
            f"s={s} has no five-column strength-2 symmetric ingredient")
    return theorem_tn(s, 2, 0, factors, None, budget=budget)


# --- splitting one column of an existing code -----------------------------------


def theorem_huan(code: QuantumCode, col: Optional[int], q_factors, *,
                 budget: Optional[int] = None) -> QuantumCode:
    """Split one full-alphabet column of an array-backed code into a factorial;
    a `col` outside 0..n-1 is refused (SymbolOutOfRange), None picks the
    last widest column."""
    prov = code.provenance
    if prov is None:
        raise NotFromOA("code carries no orthogonal-array provenance")
    parent = prov.parent
    if col is None:
        smax = max(parent.alphabets)
        col = max(i for i, s in enumerate(parent.alphabets) if s == smax)
    elif not 0 <= col < parent.n:
        raise SymbolOutOfRange(f"column {col} out of range for {parent.n} columns")
    s1 = parent.alphabets[col]
    q_factors = _factors(q_factors, s1)
    ingredients = list(prov.ingredients)
    # replacement keeps row order, so B's rows are still in block order
    B = _split(parent, col, q_factors, ingredients)
    return code_from_partitioned_oa(
        OrthogonalPartition(B, prov.partition.K, prov.t_prime, budget), prov.h,
        construction="column split of an array-backed code",
        parameters=(("column", str(col)), ("q_factors", str(q_factors))),
        ingredients=tuple(ingredients),
        notes=(f"derived from {code.params.code_string()}",))


# --- recipes ----------------------------------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BadRecipe(message)


def build(theorem: str, s: int, d: int, l: int, factors, q_factors) -> QuantumCode:
    """The code of one recipe: a theorem label (t1, t2, t3/c1, t4/c2, c3 or
    t5) with its s, d, l and factor lists, each read only by the builders
    that take it.  t1 and t2 split no column when factors is None; t3/c1
    take exactly one factor, s1; t5 splits the last widest column of the t4
    code into q_factors.  A recipe without a field its theorem reads raises
    BadRecipe naming the `oaqec construct` flag that sets it."""
    if theorem in ("t1", "t2"):
        builder = theorem_5s2 if theorem == "t1" else theorem_52s
        return builder(s, [s] if factors is None else factors)
    if theorem in ("t3", "c1"):
        _require(d is not None, f"{theorem} needs --d")
        _require(factors is not None and len(factors) == 1,
                 f"{theorem} needs --factors with exactly one entry")
        return theorem_s1(s, d, factors[0])
    if theorem in ("t4", "c2"):
        _require(d is not None, f"{theorem} needs --d")
        _require(factors is not None, f"{theorem} needs --factors")
        return theorem_tn(s, d, l, factors, q_factors)
    if theorem == "c3":
        _require(factors is not None, "c3 needs --factors")
        return corollary_5lie(s, factors)
    if theorem == "t5":
        _require(factors is not None, "t5 needs --factors for the base construction")
        _require(q_factors is not None, "t5 needs --q-factors for the column split")
        _require(d is not None, "t5 needs --d")
        return theorem_huan(theorem_tn(s, d, l, factors, None), None, q_factors)
    raise ValueError(f"unknown theorem {theorem!r}")
