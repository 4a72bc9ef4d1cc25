"""Exact reduction checks certifying distances of compiled quantum codes.

All coordinate subsets S of one size are decided together, in chunked numpy
passes over subsets x the kets of all states, stacked.  The kets of a code
are distinct, so a reduced cross matrix has an entry off its diagonal, or
between two states, exactly when two kets agree on the complement of S.
strict-uniform therefore passes S when no two kets collide on the
complement and every state counts each level tuple on S block/prod(s_j)
times.  definition-5 fails S when kets of two states collide on the
complement, and otherwise compares the states' level counts on S.  Column
slices are keyed by exact int64 mixed-radix keys: a complement's key is a
ket's full key minus its S columns' terms when the product of all alphabets
fits int64, and `_slice_keys` keys each column set otherwise.  Exact reduced
cross matrices are built only for the ReductionWitnesses of failing subsets
and to decide a definition-5 subset on which kets of one state collide, and
then only for the self reductions and state pairs that flag a violation.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import combinations, islice
from math import prod
from typing import Optional

import numpy as np

from .arrays import MixedLevelArray, _first_unbalanced_subset, minimal_distance
# re-exported: the benchmark harness wraps and checks this binding
from .arrays import is_orthogonal_array  # noqa: F401
from .errors import ClaimFailed, ProvenanceMissing
from .synthesis import CodeParams, QuantumCode

MODES = ("strict-uniform", "definition-5")


@dataclass(frozen=True)
class ReducedCrossMatrix:
    """Exact pair counts between two basis states, reduced to a coordinate subset.

    counts maps (x, y) -> |{(u, v) : u|S = x, v|S = y, u and v agree off S}|
    over kets u of state i and v of state j; zero entries are omitted."""
    i: int
    j: int
    subset: tuple[int, ...]
    counts: dict

    def is_zero(self) -> bool:
        return not self.counts

    def trace(self) -> int:
        return sum(v for (x, y), v in self.counts.items() if x == y)

    def diagonal(self) -> dict:
        return {x: v for (x, y), v in self.counts.items() if x == y}

    def off_diagonal(self) -> dict:
        return {k: v for k, v in self.counts.items() if k[0] != k[1]}


def reduced_cross_matrix(code: QuantumCode, i: int, j: int,
                         subset) -> ReducedCrossMatrix:
    """Count ket pairs of states i and j that agree everywhere off the subset."""
    S = tuple(subset)
    comp = [c for c in range(code.params.n) if c not in S]

    def split(state: int):
        """(complement slice, S slice) of each ket of the state, as tuples."""
        kets = code.state(state)
        return zip(map(tuple, kets[:, comp].tolist()),
                   map(tuple, kets[:, list(S)].tolist()))

    kets_j = list(split(j))
    groups: dict = defaultdict(list)
    for key, y in kets_j:
        groups[key].append(y)
    counts: Counter = Counter()
    for key, x in kets_j if i == j else split(i):
        for y in groups.get(key, ()):
            counts[(x, y)] += 1
    return ReducedCrossMatrix(i=i, j=j, subset=S, counts=dict(counts))


@dataclass(frozen=True)
class ReductionWitness:
    """One offending entry found while checking a subset of coordinates."""
    subset: tuple[int, ...]
    i: int
    j: int
    x: Optional[tuple[int, ...]]
    y: Optional[tuple[int, ...]]
    count: int
    expected: Optional[int]
    reason: str

    def render(self) -> str:
        where = f"S={self.subset} states ({self.i},{self.j})"
        entry = "" if self.x is None else f" entry ({self.x},{self.y})={self.count}"
        want = "" if self.expected is None else f" (expected {self.expected})"
        return f"{where}: {self.reason}{entry}{want}"


#: most witnesses _check_subset extracts from one subset
_SUBSET_WITNESSES = 4


def _check_subset(code: QuantumCode, S: tuple[int, ...], mode: str,
                  states: list[int], pairs: list[tuple[int, int]]
                  ) -> list[ReductionWitness]:
    """All violations (up to _SUBSET_WITNESSES) of the reduction conditions
    on one subset, from the exact self reductions of `states` and cross
    reductions of `pairs` (both ascending).  The reductions left out must
    hold no violation, and in definition-5 `states` starts with the
    reference 0."""
    block = code.kets_per_state
    out: list[ReductionWitness] = []
    reference: Optional[dict] = None
    for i in states:
        M = reduced_cross_matrix(code, i, i, S)
        if M.trace() != block:
            raise ClaimFailed("self pair count must equal the state size")
        if mode == "strict-uniform":
            levels = prod(code.params.alphabets[c] for c in S)
            if block % levels:
                out.append(ReductionWitness(S, i, i, None, None, block, levels,
                                            "state size not divisible by the level count"))
                continue
            uniform = block // levels
            for (x, y), v in sorted(M.off_diagonal().items()):
                out.append(ReductionWitness(S, i, i, x, y, v, 0,
                                            "off-diagonal reduction entry"))
            diag = M.diagonal()
            if len(diag) != levels:
                missing = levels - len(diag)
                out.append(ReductionWitness(S, i, i, None, None, 0, uniform,
                                            f"{missing} level tuples never occur"))
            for x, v in sorted(diag.items()):
                if v != uniform:
                    out.append(ReductionWitness(S, i, i, x, x, v, uniform,
                                                "nonuniform diagonal entry"))
        else:
            if reference is None:
                reference = M.counts
            elif M.counts != reference:
                keys = set(M.counts) | set(reference)
                x, y = min(k for k in keys
                           if M.counts.get(k, 0) != reference.get(k, 0))
                out.append(ReductionWitness(S, i, i, x, y, M.counts.get((x, y), 0),
                                            reference.get((x, y), 0),
                                            "reduction differs from state 0"))
        if len(out) >= _SUBSET_WITNESSES:
            return out[:_SUBSET_WITNESSES]
    for i, j in pairs:
        M = reduced_cross_matrix(code, i, j, S)
        if not M.is_zero():
            (x, y), v = sorted(M.counts.items())[0]
            out.append(ReductionWitness(S, i, j, x, y, v, 0,
                                        "cross reduction is nonzero"))
            if len(out) >= _SUBSET_WITNESSES:
                return out[:_SUBSET_WITNESSES]
    return out


#: largest mixed-radix key _slice_keys builds before re-ranking
_KEY_MAX = np.iinfo(np.int64).max


def _slice_keys(kets: np.ndarray, alphabets, cols) -> np.ndarray:
    """One int64 key per ket, equal for two kets exactly when they agree on
    cols: the slice's mixed-radix number (its level tuple's index below
    prod(s_j) until a re-rank).  Before a key would pass _KEY_MAX the keys
    are re-ranked, and when even their ranks would, the column's values too
    (ranks stay below the ket count).  Digits are cast to int64 first: mixed
    with int64 keys, any stored ket dtype (never uint64) would stay exact,
    but slower."""
    keys = np.zeros(len(kets), dtype=np.int64)
    radix = 1
    for c in cols:
        s, digits = alphabets[c], kets[:, c].astype(np.int64)
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


def _cross_pairs(states: np.ndarray, collide: np.ndarray) -> list[tuple[int, int]]:
    """Ascending state pairs (i, j), i < j, with kets that agree on the
    complement.  states[p] is the state of the p-th ket in complement order,
    and collide[p] says the p-th and (p+1)-th kets agree on the complement."""
    # each run of colliding neighbours [lo, hi) joins kets lo..hi
    edges = np.flatnonzero(np.diff(collide, prepend=False, append=False))
    pairs: set[tuple[int, int]] = set()
    for lo, hi in zip(edges[::2].tolist(), edges[1::2].tolist()):
        pairs.update(combinations(np.unique(states[lo:hi + 1]).tolist(), 2))
    return sorted(pairs)


def _flagged_reductions(code: QuantumCode, S: tuple[int, ...], mode: str
                        ) -> tuple[list[int], list[tuple[int, int]]]:
    """(states, pairs): the states whose self reduction on S may hold a
    violation and the state pairs whose cross reduction is nonzero, as
    _check_subset takes them, for a subset the level pass failed or left
    undecided."""
    kets, K, block = code.kets, code.params.K, code.kets_per_state
    alphabets = code.params.alphabets
    keys = _slice_keys(kets, alphabets, [c for c in range(code.params.n) if c not in S])
    # a stable sort keeps one state's colliding kets adjacent
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    collide = sorted_keys[1:] == sorted_keys[:-1]
    states = order // block
    within = collide & (states[1:] == states[:-1])
    flagged = np.zeros(K, dtype=bool)
    flagged[states[1:][within]] = True
    if mode == "strict-uniform":
        levels = prod(alphabets[c] for c in S)
        uniform, rest = divmod(block, levels)
        if rest:
            flagged[:] = True
        else:
            # levels divides block, so no S-key is re-ranked: each is its
            # level tuple's index below `levels`
            keys = _slice_keys(kets, alphabets, S).reshape(K, block)
            offsets = np.arange(K, dtype=np.int64)[:, None] * levels
            counts = np.bincount((keys + offsets).ravel(),
                                 minlength=K * levels).reshape(K, levels)
            flagged |= np.any(counts != uniform, axis=1)
    else:
        per_state = np.sort(_slice_keys(kets, alphabets, S).reshape(K, block), axis=1)
        # a state's self reduction equals state 0's when both have no
        # colliding kets and the same multiset of S-slices; when both have
        # colliding kets, only the exact reductions can tell
        flagged |= np.any(per_state != per_state[0], axis=1) | flagged[0]
        flagged[0] = True  # the reference the other states are compared with
    return np.flatnonzero(flagged).tolist(), _cross_pairs(states, collide)


#: cap on subsets x kets keyed in one numpy pass of _decide_level, which
#: bounds its scratch memory independently of C(n, d)
_CHUNK_CELLS = 1 << 11


def _decide_level(code: QuantumCode, dp: int, mode: str
                  ) -> list[tuple[tuple[int, ...], Optional[bool]]]:
    """(S, passes) for every dp-subset S in combinations order, decided in
    numpy passes over chunks of at most _CHUNK_CELLS subsets x kets.  passes
    is None for a definition-5 subset on which kets collide only within
    states: only the exact reductions decide it.

    When the product of all alphabets fits _KEY_MAX, a complement key is
    the ket's full mixed-radix key minus its S columns' terms, and those
    terms key S; otherwise _slice_keys keys each column set."""
    kets, K, block = code.kets, code.params.K, code.kets_per_state
    alphabets, n = code.params.alphabets, code.params.n
    subsets = list(combinations(range(n), dp))
    strict = mode == "strict-uniform"
    if not strict and K == 1:
        return [(S, True) for S in subsets]
    levels = [prod(alphabets[c] for c in S) for S in subsets]
    passes: list[Optional[bool]] = [False] * len(subsets)
    # a strict-uniform subset whose level count does not divide the state
    # size fails without keying
    todo = [i for i, size in enumerate(levels) if not strict or block % size == 0]
    columns = np.ascontiguousarray(kets.T)
    full = None
    if prod(alphabets) <= _KEY_MAX:
        full = _slice_keys(kets, alphabets, range(n))
        weights = np.array([prod(alphabets[c + 1:]) for c in range(n)], dtype=np.int64)
    per_chunk = max(1, _CHUNK_CELLS // len(kets))
    for lo in range(0, len(todo), per_chunk):
        rows = todo[lo:lo + per_chunk]
        chunk = np.array([subsets[i] for i in rows], dtype=np.intp).reshape(len(rows), dp)
        if full is None:
            keys = np.stack([_slice_keys(kets, alphabets,
                                         [c for c in range(n) if c not in subsets[i]])
                             for i in rows])
        else:
            keys = np.repeat(full[None], len(rows), axis=0)
            for cols in chunk.T:
                term = columns[cols].astype(np.int64)
                term *= weights[cols][:, None]
                keys -= term
        if strict:
            keys.sort(axis=1)
            hit = np.any(keys[:, 1:] == keys[:, :-1], axis=1)
            del keys  # free for the counts: only its collisions matter
            # a ket's cell: its subset's offset, then state * levels + the
            # index of its level tuple on S (levels divides block, so no
            # index overflows)
            size = np.array([levels[i] for i in rows], dtype=np.int64)
            cells = K * size
            offsets = np.cumsum(cells) - cells
            ext = np.repeat((np.arange(len(kets), dtype=np.int64) // block)[None],
                            len(rows), axis=0)
            for cols in chunk.T:
                radix = np.array([alphabets[c] for c in cols.tolist()], dtype=np.int64)
                ext *= radix[:, None]
                ext += columns[cols].astype(np.int64)
            ext += offsets[:, None]
            counts = np.bincount(ext.ravel(), minlength=int(cells.sum()))
            bad = counts != np.repeat(block // size, cells)
            verdicts: list[Optional[bool]] = (
                ~hit & ~np.logical_or.reduceat(bad, offsets)).tolist()
        else:
            if full is None:
                s_keys = np.stack([_slice_keys(kets, alphabets, subsets[i]) for i in rows])
            else:
                s_keys = full - keys  # the S columns' terms key S
            s_keys = s_keys.reshape(len(rows), K, block)
            s_keys.sort(axis=2)
            same = np.all(s_keys == s_keys[:, :1], axis=(1, 2))
            del s_keys
            sorted_keys = np.sort(keys, axis=1)
            collide = sorted_keys[:, 1:] == sorted_keys[:, :-1]
            hit = np.any(collide, axis=1)
            verdicts = (~hit & same).tolist()
            if hit.any():
                # a collision between two states fails S, and one within
                # a state leaves S to the exact reductions; a stable sort,
                # as numpy's default argsort of int64 takes scratch memory
                # of its own, a peak-RSS cost on small codes
                states = np.argsort(keys[hit], axis=1, kind="stable") // block
                cross = np.any(collide[hit] & (states[:, 1:] != states[:, :-1]), axis=1)
                for k, crossed in zip(np.flatnonzero(hit).tolist(), cross.tolist()):
                    verdicts[k] = False if crossed else None
        for i, verdict in zip(rows, verdicts):
            passes[i] = verdict
    return list(zip(subsets, passes))


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the reduction checks for one code at one claimed distance."""
    params: CodeParams
    mode: str
    claimed_distance: int
    certified_distance: int
    passed: bool
    subsets_checked: int
    per_subset: tuple[tuple[tuple[int, ...], bool], ...]
    witnesses: tuple[ReductionWitness, ...]

    def render(self) -> str:
        lines = [f"code {self.params.code_string()}  mode {self.mode}",
                 f"claimed distance {self.claimed_distance}, "
                 f"certified distance {self.certified_distance}",
                 f"subsets checked: {self.subsets_checked}",
                 f"result: {'PASS' if self.passed else 'FAIL'}"]
        failing = [s for s, ok in self.per_subset if not ok]
        if failing:
            lines.append(f"failing subsets at the claimed level: {failing[:8]}")
        for w in self.witnesses[:8]:
            lines.append("  " + w.render())
        return "\n".join(lines)


def _assert_hermitian_samples(code: QuantumCode, S: tuple[int, ...]) -> None:
    """Spot-check that swapping the states transposes the reduction counts."""
    for i, j in islice(combinations(range(code.params.K), 2), 3):
        M = reduced_cross_matrix(code, i, j, S)
        W = reduced_cross_matrix(code, j, i, S)
        flipped = {(y, x): v for (x, y), v in W.counts.items()}
        if M.counts != flipped:
            raise ClaimFailed("pair counts must transpose under state swap")


def verify_code(code: QuantumCode, d: Optional[int] = None,
                mode: str = "strict-uniform") -> VerificationReport:
    """Check every coordinate subset of sizes 1..d and certify the distance.

    strict-uniform demands diagonal, uniform self reductions; definition-5
    only demands self reductions identical across states.  Both demand all
    cross reductions vanish.  The certified distance is the largest d'+1 whose
    level fully passes; passing at a level implies passing below (checked).
    Witnesses come from the exact reductions of the first failing subsets of
    the claimed level."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if d is None:
        d = code.params.d_plus_1 - 1
    if d < 0 or d > code.params.n:
        raise ValueError(f"claimed error count {d} out of range")
    n = code.params.n
    subsets_checked = 0
    level_ok: list[bool] = []
    per_subset: list[tuple[tuple[int, ...], bool]] = []
    witnesses: list[ReductionWitness] = []
    for dp in range(1, d + 1):
        ok = True
        for S, passed in _decide_level(code, dp, mode):
            subsets_checked += 1
            explain = dp == d and len(witnesses) < 8
            if passed is None or (not passed and explain):
                exact = _check_subset(code, S, mode, *_flagged_reductions(code, S, mode))
                if passed is None:
                    passed = not exact
                elif not exact:
                    raise ClaimFailed(f"subset {S} failed the {mode} counts "
                                      "but its exact reductions show no violation")
            if dp == d:
                per_subset.append((S, passed))
                if not passed and explain:
                    witnesses.extend(exact)
            ok = ok and passed
        level_ok.append(ok)
    if d >= 1:
        _assert_hermitian_samples(code, (0,))
    certified = 0
    while certified < d and level_ok[certified]:
        certified += 1
    if any(level_ok[certified:]):
        raise ClaimFailed("a level passed above a failing one; "
                          "reductions must be monotone")
    return VerificationReport(params=code.params, mode=mode,
                              claimed_distance=d + 1,
                              certified_distance=certified + 1,
                              passed=certified == d,
                              subsets_checked=subsets_checked,
                              per_subset=tuple(per_subset),
                              witnesses=tuple(witnesses))


@dataclass(frozen=True)
class CrossValidation:
    """Agreement between the reduction checks and the array-side checks.

    report is the strict-uniform verify_code report of the code at its
    claimed distance."""
    report: VerificationReport
    combinatorial_pass: bool
    parent_md: int
    blocks_balanced: bool

    @property
    def quantum_pass(self) -> bool:
        return self.report.passed

    @property
    def agree(self) -> bool:
        return self.quantum_pass == self.combinatorial_pass

    def render(self) -> str:
        return (f"reduction checks: {'PASS' if self.quantum_pass else 'FAIL'}; "
                f"array checks: {'PASS' if self.combinatorial_pass else 'FAIL'} "
                f"(parent distance {self.parent_md}, blocks "
                f"{'balanced' if self.blocks_balanced else 'unbalanced'}); "
                f"{'agree' if self.agree else 'DISAGREE'}")


def cross_validate(code: QuantumCode) -> CrossValidation:
    """Independently re-derive the distance from the basis kets two ways.

    The array side rebuilds the parent from the union of all kets, computes
    its exact minimal distance from column projections (minimal_distance,
    which shares no code with the key and level kernels of the reduction
    side), and re-checks every state's balance at strength d in one pass
    over it (each state is a block of its rows); the reduction side runs
    verify_code in strict-uniform mode.  Neither side reuses any claim
    carried by the construction."""
    if code.provenance is None:
        raise ProvenanceMissing("cross validation needs an array-backed code")
    d = code.params.d_plus_1 - 1
    rebuilt = MixedLevelArray(code.kets, code.params.alphabets)
    md = minimal_distance(rebuilt) if rebuilt.r > 1 else rebuilt.n + 1
    # state i is the i-th run of kets_per_state rows of the rebuilt parent
    blocks_ok = d == 0 or _first_unbalanced_subset(rebuilt, d, code.params.K) is None
    comb = md >= d + 1 and blocks_ok
    return CrossValidation(report=verify_code(code, d, "strict-uniform"),
                           combinatorial_pass=comb, parent_md=md,
                           blocks_balanced=blocks_ok)
