"""Compile orthogonal arrays with orthogonal partitions into explicit quantum codes."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import factorize_prime_powers, is_prime_power
from .arrays import (MixedLevelArray, attach_index_column, claim, claim_blocks,
                     delete_columns, expansive_replacement, lexsorted,
                     measure_md, multiply_oa, splice_rows)
# re-exported: the benchmark harness wraps and calls it through this module
from .arrays import is_orthogonal_array  # noqa: F401
from .constructions import (asset_get, bush, full_factorial_mixed,
                            resolve_symmetric_oa)
from .errors import (BadFactorization, BadGeometry, ClaimFailed,
                     DivisibilityViolated, ExcludedS, IngredientUnavailable,
                     NegativeM, NotFromOA, NotPartitionable, SBoundViolated)
from .schemes import d3_scheme, d_2s, oa_from_scheme

# --- quantum singleton arithmetic ---------------------------------------------


def singleton_bound(n: int, d: int, alphabets: Sequence[int]) -> int:
    """Largest dimension a distance-(d+1) code on these alphabets can have."""
    alphabets = tuple(int(s) for s in alphabets)
    if len(alphabets) != n:
        raise BadGeometry(f"{len(alphabets)} alphabet sizes for {n} parties")
    if d < 0 or n < 2 * d:
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

    @property
    def in_admissible_range(self) -> bool:
        return self.m_range[0] <= self.m <= self.m_range[1]

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
    m = m_value(n, d, alphabets, K)
    return CodeParams(n=n, K=int(K), d_plus_1=d + 1, alphabets=alphabets,
                      singleton=singleton_bound(n, d, alphabets), m=m,
                      m_range=admissible_m_range(n, d, alphabets))


# --- orthogonal partitions ------------------------------------------------------


class OrthogonalPartition:
    """Rows of a parent array split into equal blocks, each balanced to a stated strength."""

    def __init__(self, parent: MixedLevelArray, blocks, strength: int,
                 budget: Optional[int] = None):
        if strength < 1:
            raise ValueError("partition strength must be at least 1")
        blocks = list(blocks)
        if not blocks or any(len(blk) == 0 for blk in blocks):
            raise NotPartitionable("partition needs nonempty blocks")
        if len({len(blk) for blk in blocks}) != 1:
            raise NotPartitionable("blocks must all have the same number of rows")
        arrays = [MixedLevelArray(blk, parent.alphabets) for blk in blocks]
        merged = np.vstack([arr.matrix for arr in arrays])
        if not np.array_equal(lexsorted(merged), lexsorted(parent.matrix)):
            raise NotPartitionable("blocks do not cover the parent rows exactly")
        self.parent = parent
        self.strength = int(strength)
        self._arrays = claim_blocks(arrays, self.strength, budget)
        self.strength_checked = self._arrays[0].strength_checked

    @property
    def K(self) -> int:
        return len(self._arrays)

    @property
    def block_size(self) -> int:
        return self._arrays[0].r

    def block_arrays(self) -> list[MixedLevelArray]:
        """The blocks as arrays over the parent's alphabets (claims attached)."""
        return list(self._arrays)

    def __repr__(self):
        return (f"OrthogonalPartition(K={self.K}, block_size={self.block_size}, "
                f"strength={self.strength})")


def partition_by_prefix(A: MixedLevelArray, l: int,
                        budget: Optional[int] = None
                        ) -> tuple[MixedLevelArray, OrthogonalPartition]:
    """Strip the first l columns and group rows by the removed prefix.

    Returns the stripped parent and the partition of its rows into one block
    per prefix value; each block inherits strength A.strength - l."""
    if not 0 <= l < A.n:
        raise ValueError(f"prefix width {l} out of range for {A.n} columns")
    if A.strength <= l and l > 0:
        raise ValueError(f"prefix width {l} needs array strength above {l}")
    srt = A.sorted_rows()
    if l == 0:
        return srt, OrthogonalPartition(srt, (srt.matrix,), A.strength, budget)
    parent = delete_columns(srt, range(l), budget)
    # sorted rows with one prefix are consecutive: split where the prefix changes
    starts = np.flatnonzero(np.diff(srt.matrix[:, :l], axis=0).any(axis=1)) + 1
    sizes = set(np.diff(starts, prepend=0, append=srt.r).tolist())
    if len(sizes) != 1:
        raise NotPartitionable(f"prefix groups have unequal sizes {sorted(sizes)}")
    blocks = np.split(parent.matrix, starts)
    return parent, OrthogonalPartition(parent, blocks, A.strength - l, budget)


# --- compiled codes -------------------------------------------------------------


@dataclass(frozen=True)
class Provenance:
    """How a code was built: construction route, ingredients and certificates."""
    construction: str
    parameters: tuple[tuple[str, str], ...]
    ingredients: tuple[str, ...]
    parent: MixedLevelArray
    partition: OrthogonalPartition
    t_prime: int
    h: int
    h_exact: bool
    notes: tuple[str, ...] = ()


class QuantumCode:
    """A K-dimensional code whose basis states superpose disjoint row blocks."""

    def __init__(self, params: CodeParams, basis, provenance: Optional[Provenance] = None):
        states = []
        for state in basis:
            kets = sorted(tuple(int(x) for x in ket) for ket in state)
            states.append(tuple(kets))
        self.basis = tuple(sorted(states))
        self.params = params
        self.provenance = provenance
        if len(self.basis) != params.K:
            raise BadGeometry(f"{len(self.basis)} states for dimension {params.K}")
        sizes = {len(state) for state in self.basis}
        if len(sizes) != 1:
            raise BadGeometry(f"states have unequal ket counts {sorted(sizes)}")
        seen = set()
        for state in self.basis:
            for ket in state:
                if len(ket) != params.n:
                    raise BadGeometry(f"ket length {len(ket)} != {params.n}")
                for x, s in zip(ket, params.alphabets):
                    if not 0 <= x < s:
                        raise BadGeometry(f"ket entry {x} out of range for alphabet {s}")
                if ket in seen:
                    raise BadGeometry(f"ket {ket} appears in more than one state")
                seen.add(ket)
        if provenance is not None and \
                params.K * self.kets_per_state != provenance.parent.r:
            raise ClaimFailed("basis states do not cover the parent array")

    @property
    def kets_per_state(self) -> int:
        return len(self.basis[0])

    def status(self) -> str:
        """Whether every combinatorial claim behind this code was re-checked."""
        prov = self.provenance
        if prov is None:
            return "constructed, unverified"
        ok = prov.parent.verified and prov.partition.strength_checked and prov.h_exact
        return "verified" if ok else "constructed, unverified"

    def __repr__(self):
        return f"QuantumCode({self.params.code_string()}, {self.status()})"


def code_from_partitioned_oa(A: MixedLevelArray, partition: OrthogonalPartition,
                             t_prime: int, h: int, *,
                             construction: str = "orthogonal-partition compilation",
                             parameters: tuple[tuple[str, str], ...] = (),
                             ingredients: tuple[str, ...] = (),
                             h_exact: bool = False,
                             notes: tuple[str, ...] = ()) -> QuantumCode:
    """Compile an array plus a strength-t' partition into an ((n,K,min(t'+1,h))) code."""
    if partition.parent is not A and (partition.parent.alphabets != A.alphabets or
                                      not np.array_equal(partition.parent.matrix, A.matrix)):
        raise ValueError("partition does not belong to the given array")
    if t_prime < 1 or t_prime > partition.strength:
        raise ValueError(f"t'={t_prime} outside the partition strength {partition.strength}")
    if h < 1:
        raise ValueError(f"distance floor h={h} must be positive")
    d_plus_1 = min(t_prime + 1, h)
    params = make_code_params(A.n, d_plus_1 - 1, A.alphabets, partition.K)
    prov = Provenance(construction=construction, parameters=tuple(parameters),
                      ingredients=tuple(ingredients), parent=A,
                      partition=partition, t_prime=t_prime, h=h,
                      h_exact=h_exact, notes=tuple(notes))
    return QuantumCode(params, (arr.rows for arr in partition.block_arrays()), prov)


# --- shared helpers -------------------------------------------------------------


def _certified_h(A: MixedLevelArray, fallback: int,
                 budget: Optional[int]) -> tuple[int, bool]:
    """Exact minimal distance when the pair scan fits the budget, else a floor."""
    md = measure_md(A, budget)
    return (fallback, False) if md is None else (md, True)


def _normalized_factors(factors) -> tuple[int, ...]:
    """A factor list sorted descending, refused unless nonempty and each >= 2."""
    out = tuple(sorted((int(f) for f in factors), reverse=True))
    if not out or any(f < 2 for f in out):
        raise BadFactorization(f"factors must each be at least 2, got {factors}")
    return out


def _claim_equal(value: int, expected: int, what: str) -> None:
    """Refuse a built code whose parameter contradicts its family's closed form."""
    if value != expected:
        raise ClaimFailed(f"{what} {value} != closed form {expected}")


def _whole_partition(A: MixedLevelArray, t_prime: int,
                     budget: Optional[int]) -> OrthogonalPartition:
    """The trivial one-block partition of A at strength t'."""
    return OrthogonalPartition(A, (A.matrix,), t_prime, budget)


def _factorial_ingredient(F: MixedLevelArray) -> str:
    lam = F.r // math.prod(F.alphabets)
    return f"full factorial on {F.alphabets} with index {lam}"


# --- ((4+k, 1, 3)) codes from a width-4 difference-scheme lift ------------------


def theorem_5s2(s: int, factors, *, replace_col: Optional[int] = None,
                budget: Optional[int] = None) -> QuantumCode:
    """Distance-3 code on alphabets (s^2)^1 s^(4-k) f_1..f_k with defect m = s-1."""
    factors, given = _normalized_factors(factors), factors
    if math.prod(factors) != s:
        raise BadFactorization(f"factors {given} do not multiply to {s}")
    D = d3_scheme(s)
    # pairs sharing a scheme row at the same shift differ in 3 places
    B = claim(attach_index_column(oa_from_scheme(D, budget), s),
              strength=2, md=3, budget=budget)
    ingredients = [f"difference scheme D({D.r},{D.c},{s}) of width {D.c}",
                   f"index column over {B.alphabets[0]} blocks"]
    if len(factors) > 1:
        col = B.n - 1 if replace_col is None else replace_col
        F = full_factorial_mixed(factors, 1)
        B = expansive_replacement(B, col, F, budget)
        ingredients.append(_factorial_ingredient(F))
    B = B.sorted_rows()
    h, h_exact = _certified_h(B, 3, budget)
    part = _whole_partition(B, 2, budget)
    code = code_from_partitioned_oa(
        B, part, 2, h,
        construction="width-4 difference-scheme lift with index column",
        parameters=(("s", str(s)), ("factors", str(factors))),
        ingredients=tuple(ingredients), h_exact=h_exact)
    _claim_equal(code.params.m, s - 1, "defect")
    return code


# --- ((4+k, 1, 3)) codes from a width-2s difference-scheme lift -----------------


def _base_52s(s: int, budget: Optional[int], asset_dir: Optional[str],
              ingredients: list[str]) -> MixedLevelArray:
    """A strength-2, distance-3 array on (2s)^1 s^4 for any s >= 2 with one."""
    if is_prime_power(s):
        # the saturated strength-2 array on (2s)^1 s^(2s) from the width-2s
        # scheme; its five-column projection has distance exactly 3
        sat = attach_index_column(oa_from_scheme(d_2s(s), budget), s)
        ingredients.append(f"saturated lift of D({2 * s},{2 * s},{s})")
        A = sat if sat.n == 5 else delete_columns(sat, range(5, sat.n), budget)
        return claim(A, strength=2, md=3, budget=budget)
    pieces = factorize_prime_powers(s)
    small = [u for u in pieces if u < 4]
    if small == [2, 3] or small == [3, 2]:
        P = asset_get("oa_72_5_12_6666", asset_dir, budget)
        ingredients.append("asset oa_72_5_12_6666")
        taken = {2, 3}
    elif small == [2]:
        P = asset_get("oa_8_5_4_2222", asset_dir, budget)
        ingredients.append("asset oa_8_5_4_2222")
        taken = {2}
    elif small == [3]:
        P = asset_get("oa_18_5_6_3333", asset_dir, budget)
        ingredients.append("asset oa_18_5_6_3333")
        taken = {3}
    else:
        u0 = min(pieces)
        P = _base_52s(u0, budget, asset_dir, ingredients)
        taken = {u0}
    for u in pieces:
        if u in taken:
            continue
        Q = bush(u, 2, budget)
        if Q.n > 5:
            Q = delete_columns(Q, range(5, Q.n), budget)
        ingredients.append(f"OA({Q.r},5,{u},2) by polynomial construction")
        # Q has unit index, so its distance is 4 > 3 and the product keeps P's
        P = claim(multiply_oa(P, Q, budget), md=P.md, budget=budget)
    return P


def theorem_52s(s: int, factors, *, replace_col: Optional[int] = None,
                budget: Optional[int] = None,
                asset_dir: Optional[str] = None) -> QuantumCode:
    """Distance-3 code on alphabets (2s)^1 s^(4-k) f_1..f_k with defect m = s-1."""
    factors, given = _normalized_factors(factors), factors
    if math.prod(factors) != s:
        raise BadFactorization(f"factors {given} do not multiply to {s}")
    ingredients: list[str] = []
    B = _base_52s(s, budget, asset_dir, ingredients)
    if len(factors) > 1:
        col = B.n - 1 if replace_col is None else replace_col
        F = full_factorial_mixed(factors, 1)
        B = expansive_replacement(B, col, F, budget)
        ingredients.append(_factorial_ingredient(F))
    B = B.sorted_rows()
    h, h_exact = _certified_h(B, 3, budget)
    part = _whole_partition(B, 2, budget)
    code = code_from_partitioned_oa(
        B, part, 2, h,
        construction="width-2s difference-scheme lift with index column",
        parameters=(("s", str(s)), ("factors", str(factors))),
        ingredients=tuple(ingredients), h_exact=h_exact)
    _claim_equal(code.params.m, s - 1, "defect")
    return code


# --- ((2d+1, 1, d+1)) codes from an index-unity symmetric array -----------------


def theorem_s1(s: int, d: int, s1: int, *, replace_col: Optional[int] = None,
               budget: Optional[int] = None,
               asset_dir: Optional[str] = None) -> QuantumCode:
    """Distance-(d+1) code on s^(2d-1) (s/s1)^1 s1^1 with defect m = s1 - 1."""
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    if s1 < 2:
        raise ValueError(f"s1 must be at least 2, got {s1}")
    if s % s1:
        raise DivisibilityViolated(f"{s1} does not divide {s}")
    if s < s1 * s1:
        raise SBoundViolated(f"need s >= s1^2 = {s1 * s1}, got s={s}")
    trace: list[str] = []
    base = resolve_symmetric_oa(s, 2 * d, d, budget, asset_dir, trace)
    if base.r != s ** d:
        raise IngredientUnavailable(
            f"resolved array has {base.r} rows, need the unit-index {s ** d}")
    # unit index forces the distance
    base = claim(base.sorted_rows(), md=d + 1, budget=budget)
    col = base.n - 1 if replace_col is None else replace_col
    F = full_factorial_mixed((s // s1, s1), 1)
    B = expansive_replacement(base, col, F, budget).sorted_rows()
    h, h_exact = _certified_h(B, d + 1, budget)
    part = _whole_partition(B, d, budget)
    code = code_from_partitioned_oa(
        B, part, d, h,
        construction="unit-index symmetric array with one column split in two",
        parameters=(("s", str(s)), ("d", str(d)), ("s1", str(s1))),
        ingredients=tuple(trace) + (_factorial_ingredient(F),),
        h_exact=h_exact)
    _claim_equal(code.params.m, s1 - 1, "defect")
    return code


# --- ((n, s^l, d+1)) codes from a prefix-partitioned symmetric array ------------


def _original_positions(n_after: int, col: int, width: int) -> list[int]:
    """Positions in the replaced array that survive from the original columns."""
    return list(range(col)) + list(range(col + width, n_after))


def theorem_tn(s: int, d: int, l: int, s_factors, q_factors=None, *,
               replace_col: Optional[int] = None, q_col: Optional[int] = None,
               budget: Optional[int] = None,
               asset_dir: Optional[str] = None) -> QuantumCode:
    """Dimension-s^l, distance-(d+1) code built by splitting symmetric columns.

    One s-column is replaced by a factorial on s_factors (product dividing s);
    optionally a second s-column is split exactly into q_factors (product s)."""
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    if l < 0:
        raise ValueError(f"l must be nonnegative, got {l}")
    s_factors = _normalized_factors(s_factors)
    w1 = math.prod(s_factors)
    if s % w1:
        raise DivisibilityViolated(f"factor product {w1} must divide {s}")
    if q_factors is not None:
        q_factors = _normalized_factors(q_factors)
        if math.prod(q_factors) != s:
            raise DivisibilityViolated(
                f"second factor product {math.prod(q_factors)} must equal {s}")

    trace: list[str] = []
    base = resolve_symmetric_oa(s, 2 * d + 2 * l + 1, d + l, budget, asset_dir, trace)
    if base.r != s ** (d + l):
        raise IngredientUnavailable(
            f"resolved array has {base.r} rows, need the unit-index {s ** (d + l)}")
    # unit index forces the distance
    base = claim(base.sorted_rows(), md=d + l + 2, budget=budget)
    stripped, part = partition_by_prefix(base, l, budget)
    if l > 0:
        # unit index survives dropping the prefix
        stripped = claim(stripped, md=d + 2, budget=budget)

    col = stripped.n - 1 if replace_col is None else replace_col
    F1 = full_factorial_mixed(s_factors, s // w1)
    B = expansive_replacement(stripped, col, F1, budget)
    blocks = [splice_rows(blk.matrix, col, F1) for blk in part.block_arrays()]
    ingredients = list(trace) + [_factorial_ingredient(F1)]
    notes: list[str] = []

    if q_factors is not None:
        originals = [p for p in _original_positions(B.n, col, len(s_factors))
                     if B.alphabets[p] == s]
        if not originals:
            raise BadGeometry("no full-alphabet column left for the second split")
        col2 = max(originals) if q_col is None else q_col
        if col2 not in originals:
            raise BadGeometry(f"column {col2} is not an original {s}-level column")
        F2 = full_factorial_mixed(q_factors, 1)
        B = expansive_replacement(B, col2, F2, budget)
        blocks = [splice_rows(blk, col2, F2) for blk in blocks]
        ingredients.append(_factorial_ingredient(F2))

    B = B.sorted_rows()
    h, h_exact = _certified_h(B, d + 1, budget)
    d_eff = min(d + 1, h) - 1
    m_pred = m_value(B.n, d_eff, B.alphabets, s ** l)
    if q_factors is None or l >= 1:
        _claim_equal(m_pred, (w1 - 1) * s ** l, "defect")
    else:
        w = max(s_factors + q_factors)
        closed = s * w1 // w - 1
        agree = "matches" if m_pred == closed else "DIFFERS FROM"
        notes.append(f"defect {m_pred} {agree} the closed form {closed}")
    part = OrthogonalPartition(B, blocks, d, budget)
    code = code_from_partitioned_oa(
        B, part, d, h,
        construction="prefix-partitioned symmetric array with split columns",
        parameters=(("s", str(s)), ("d", str(d)), ("l", str(l)),
                    ("s_factors", str(s_factors)),
                    ("q_factors", str(q_factors))),
        ingredients=tuple(ingredients), h_exact=h_exact,
        notes=tuple(notes))
    _claim_equal(code.params.K, s ** l, "dimension")
    return code


def corollary_5lie(s: int, factors, *, replace_col: Optional[int] = None,
                   budget: Optional[int] = None,
                   asset_dir: Optional[str] = None) -> QuantumCode:
    """Distance-3 code on s^4 f_1..f_k via the d=2, l=0 column split."""
    if s < 4 or s in (6, 10):
        raise ExcludedS(
            f"s={s} has no five-column strength-2 symmetric ingredient")
    return theorem_tn(s, 2, 0, factors, None, replace_col=replace_col,
                      budget=budget, asset_dir=asset_dir)


# --- splitting one column of an existing code -----------------------------------


def theorem_huan(code: QuantumCode, col: Optional[int], q_factors, *,
                 budget: Optional[int] = None) -> QuantumCode:
    """Split one full-alphabet column of an array-backed code into a factorial."""
    prov = code.provenance
    if prov is None:
        raise NotFromOA("code carries no orthogonal-array provenance")
    parent = prov.parent
    if col is None:
        smax = max(parent.alphabets)
        col = max(i for i, s in enumerate(parent.alphabets) if s == smax)
    s1 = parent.alphabets[col]
    q_factors = _normalized_factors(q_factors)
    if math.prod(q_factors) != s1:
        raise BadFactorization(
            f"factor product {math.prod(q_factors)} must equal the column alphabet {s1}")
    F = full_factorial_mixed(q_factors, 1)
    B = expansive_replacement(parent, col, F, budget).sorted_rows()
    blocks = [splice_rows(blk.matrix, col, F) for blk in prov.partition.block_arrays()]
    h, h_exact = _certified_h(B, prov.h, budget)
    part = OrthogonalPartition(B, blocks, prov.t_prime, budget)
    return code_from_partitioned_oa(
        B, part, prov.t_prime, h,
        construction="column split of an array-backed code",
        parameters=(("column", str(col)), ("q_factors", str(q_factors))),
        ingredients=prov.ingredients + (_factorial_ingredient(F),),
        h_exact=h_exact,
        notes=(f"derived from {code.params.code_string()}",))
