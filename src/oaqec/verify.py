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
fits int64, and `_slice_keys` keys each column set otherwise.  The
ReductionWitnesses of a failing subset, and the verdict on a definition-5
subset on which kets of one state collide, come from one pass over the
subset's sorted complement keys (`_check_subset`): it enumerates the ket
pairs inside each run of colliding kets, for the self reductions and state
pairs that can still add a witness, and counts their reduction entries.
`verify_code` decides the claimed level first: a subset passing at level d
passes on each of its subsets, so the levels below are decided only when
level d fails.  `reduced_cross_matrix` builds one exact reduction as a
dict, a plain reference for tests and the benchmark; no check calls it.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import combinations
from math import comb, prod
from typing import Optional

import numpy as np

from .arrays import _first_unbalanced_subset, _in_range_array, minimal_distance
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


#: largest mixed-radix key _slice_keys builds before re-ranking
_KEY_MAX = np.iinfo(np.int64).max


def _slice_keys(kets: np.ndarray, alphabets, cols) -> np.ndarray:
    """One int64 key per ket, equal for two kets exactly when they agree on
    cols: the slice's mixed-radix number (its level tuple's index below
    prod(s_j) until a re-rank).  Before a key would pass _KEY_MAX the keys
    are re-ranked, and when even their ranks would, the column's values too
    (ranks stay below the ket count).  Re-ranks keep the order, so keys
    order the slices as their level tuples.  Digits are cast to int64
    first: mixed with int64 keys, any stored ket dtype (never uint64) would
    stay exact, but slower."""
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


#: most witnesses _check_subset extracts from one subset
_SUBSET_WITNESSES = 4
#: most witnesses a report holds: verify_code explains failing subsets
#: until it holds this many, and keeps the first this many
_REPORT_WITNESSES = 8


def _runs(split: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, length) of each run of a sequence of len(split) + 1 items,
    from the flags that say which neighbours differ."""
    first = np.zeros(np.count_nonzero(split) + 1, dtype=np.intp)
    first[1:] = np.flatnonzero(split)
    first[1:] += 1
    length = np.empty_like(first)
    length[:-1] = first[1:] - first[:-1]
    length[-1] = len(split) + 1 - first[-1]
    return first, length


def _products(lo_a: np.ndarray, len_a: np.ndarray, lo_b: np.ndarray,
              len_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, q) for every p in [lo_a[r], lo_a[r] + len_a[r]) and q in
    [lo_b[r], lo_b[r] + len_b[r]), row r by row, p-major."""
    cells = len_a * len_b
    row = np.repeat(np.arange(len(cells)), cells)
    t = np.arange(len(row))
    t -= np.repeat(np.cumsum(cells) - cells, cells)
    width = len_b[row]
    q = t % width
    t //= width
    del width
    t += lo_a[row]
    q += lo_b[row]
    return t, q


def _check_subset(code: QuantumCode, S: tuple[int, ...], mode: str
                  ) -> list[ReductionWitness]:
    """All violations (up to _SUBSET_WITNESSES) of the reduction conditions
    on one subset, read off one pass over the kets sorted by complement key.

    A stable sort of the complement keys lays the kets out in runs that
    agree off S, each run in state order, and splits a run into parts, its
    kets of one state.  S-keys order entries (x, y) as their level tuples.
    Lower bounds on the witnesses of each self reduction, read off the parts
    and the states' level counts, pick the self reductions that can still
    add a witness before the cap and how many of the first nonzero cross
    reductions can.  Only their ket pairs inside each run are enumerated,
    and one lexsort counts their entries: it keeps the S-keys x and y apart,
    and a reduction's key i * K + j is below K^2 <= (ket count)^2, exact in
    int64."""
    kets, K, block = code.kets, code.params.K, code.kets_per_state
    alphabets = code.params.alphabets
    strict, cap = mode == "strict-uniform", _SUBSET_WITNESSES
    levels = prod(alphabets[c] for c in S)
    uniform, rest = divmod(block, levels)
    out: list[ReductionWitness] = []
    if strict and rest:
        # every state fails, without an entry to show
        out = [ReductionWitness(S, i, i, None, None, block, levels,
                                "state size not divisible by the level count")
               for i in range(min(K, cap))]
        if K >= cap:
            return out
    keys = _slice_keys(kets, alphabets, [c for c in range(code.params.n) if c not in S])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    split = keys[1:] != keys[:-1]
    del keys  # at scale, the arrays over all kets and over ket pairs add up
    state = order // block
    start, size = _runs(split | (state[1:] != state[:-1]))
    part_state, part_run = state[start], np.zeros(len(start), dtype=np.intp)
    part_run[1:] = np.cumsum(split)[start[1:] - 1]
    s_keys = _slice_keys(kets, alphabets, S)  # below levels, in level tuple order
    collided = np.zeros(K, dtype=bool)
    collided[part_state[size > 1]] = True
    if strict and rest:
        selves, need = [], cap - K
    else:
        if strict:
            # levels divides block, so the K x levels counts fit the ket count
            counts = np.bincount(np.arange(len(kets)) // block * levels + s_keys,
                                 minlength=K * levels).reshape(K, levels)
            bound = (collided + ((counts != uniform) & (counts != 0)).sum(axis=1)
                     + (counts == 0).any(axis=1))
            flagged = bound > 0
        else:
            # a state's self reduction equals state 0's when both have no
            # colliding kets and the same multiset of S-slices
            per_state = np.sort(s_keys.reshape(K, block), axis=1)
            bound = (per_state != per_state[0]).any(axis=1)
            del per_state
            flagged = collided | bound | collided[0]
            flagged[0] = True  # the reference the other states are compared with
        candidates = np.flatnonzero(flagged)
        before = np.cumsum(bound[candidates]) - bound[candidates]
        selves, need = candidates[before < cap].tolist(), cap - int(bound.sum())
    # rows (a, b) of parts whose ket pairs make the wanted reductions
    is_self = np.zeros(K, dtype=bool)
    is_self[selves] = True
    a = b = np.flatnonzero(is_self[part_state])
    pairs: list[tuple[int, int]] = []
    shared = part_run[1:] == part_run[:-1]  # neighbouring parts of one run
    if need > 0 and shared.any():
        # the parts of runs that hold two states or more, in pairs a < b
        # (a run's parts follow state order), keyed i * K + j
        multi = np.zeros(len(start), dtype=bool)
        multi[1:] = shared
        multi[:-1] |= shared
        cp = np.flatnonzero(multi)
        lo, width = _runs(part_run[cp[1:]] != part_run[cp[:-1]])
        ca, cb = _products(lo, width, lo, width)
        lower = ca < cb
        ca, cb = cp[ca[lower]], cp[cb[lower]]
        pair_code = part_state[ca] * K + part_state[cb]
        # the first nonzero cross reductions are the smallest pair keys
        # (np.unique would import numpy.ma)
        chosen = np.sort(pair_code)
        chosen = chosen[np.append(True, chosen[1:] != chosen[:-1])][:need]
        pairs = [divmod(c, K) for c in chosen.tolist()]
        keep = pair_code <= chosen[-1]
        a, b = np.concatenate((a, ca[keep])), np.concatenate((b, cb[keep]))
    if not len(a):
        return out
    # their ket pairs, keyed and sorted one array at a time
    p, q = _products(start[a], size[a], start[b], size[b])
    s_keys = s_keys[order]
    x, y, pair_code = s_keys[p], s_keys[q], state[p]
    pair_code *= K
    pair_code += state[q]
    del p, q
    by = np.lexsort((y, x, pair_code))
    x = x[by]
    y = y[by]
    pair_code = pair_code[by]
    del by
    first, number = _runs((pair_code[1:] != pair_code[:-1])
                          | (x[1:] != x[:-1]) | (y[1:] != y[:-1]))
    # each entry's (x, y, count), and each reduction's rows of entries
    entries = np.empty((len(first), 3), dtype=np.int64)
    entries[:, 0], entries[:, 1], entries[:, 2] = x[first], y[first], number
    pair_code = pair_code[first]
    lo, width = _runs(pair_code[1:] != pair_code[:-1])
    rows = dict(zip(pair_code[lo].tolist(), zip(lo.tolist(), (lo + width).tolist())))
    cols = list(S)

    def level(s_key) -> tuple[int, ...]:
        """The level tuple on S of the kets with this S-key."""
        return tuple(kets[order[np.argmax(s_keys == s_key)], cols].tolist())

    reference: Optional[np.ndarray] = None
    for i in selves:
        lo, hi = rows[i * K + i]
        mine = entries[lo:hi]
        diag = mine[:, 0] == mine[:, 1]
        if int(mine[diag, 2].sum()) != block:
            raise ClaimFailed("self pair count must equal the state size")
        if strict:
            for x, y, v in mine[~diag][:cap].tolist():
                out.append(ReductionWitness(S, i, i, level(x), level(y), v, 0,
                                            "off-diagonal reduction entry"))
            seen = int(np.count_nonzero(diag))
            if seen != levels:
                out.append(ReductionWitness(S, i, i, None, None, 0, uniform,
                                            f"{levels - seen} level tuples never occur"))
            for x, _, v in mine[diag & (mine[:, 2] != uniform)][:cap].tolist():
                out.append(ReductionWitness(S, i, i, level(x), level(x), v, uniform,
                                            "nonuniform diagonal entry"))
        elif reference is None:
            reference = mine
        elif not np.array_equal(mine, reference):
            # the entries agree above row k, so the smaller key at row k is
            # the first to differ: missing from one side, or counted apart
            m = min(len(mine), len(reference))
            k = int(np.argmax(np.append(np.any(mine[:m] != reference[:m], axis=1), True)))
            x, y = min(tuple(e[k, :2].tolist()) for e in (mine, reference) if k < len(e))
            got, want = (int(e[k, 2]) if k < len(e) and tuple(e[k, :2]) == (x, y) else 0
                         for e in (mine, reference))
            out.append(ReductionWitness(S, i, i, level(x), level(y), got, want,
                                        "reduction differs from state 0"))
        if len(out) >= cap:
            return out[:cap]
    for i, j in pairs:
        x, y, v = entries[rows[i * K + j][0]].tolist()
        out.append(ReductionWitness(S, i, j, level(x), level(y), v, 0,
                                    "cross reduction is nonzero"))
    return out[:cap]


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
        for w in self.witnesses:
            lines.append("  " + w.render())
        return "\n".join(lines)


def verify_code(code: QuantumCode, d: Optional[int] = None,
                mode: str = "strict-uniform") -> VerificationReport:
    """Check every coordinate subset of sizes 1..d and certify the distance.

    strict-uniform demands diagonal, uniform self reductions; definition-5
    only demands self reductions identical across states.  Both demand all
    cross reductions vanish.  The certified distance is the largest d'+1 whose
    level fully passes.  Level d is decided first.  Passing at a level implies
    passing below, so the lower levels are implied; they are decided only when
    level d fails, and then must be monotone (checked).  subsets_checked
    counts the subsets of sizes 1..d, settled directly or by implication.
    Witnesses come from the exact reductions of the first failing subsets of
    the claimed level."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if d is None:
        d = code.params.d_plus_1 - 1
    if d < 0 or d > code.params.n:
        raise ValueError(f"claimed error count {d} out of range")
    per_subset: list[tuple[tuple[int, ...], bool]] = []
    witnesses: list[ReductionWitness] = []

    def decide(dp: int) -> bool:
        """Whether every dp-subset passes; at the claimed level, record each
        verdict and explain the first failing subsets."""
        ok = True
        for S, passed in _decide_level(code, dp, mode):
            explain = dp == d and len(witnesses) < _REPORT_WITNESSES
            if passed is None or (not passed and explain):
                exact = _check_subset(code, S, mode)
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
        return ok

    if d == 0 or decide(d):
        level_ok = [True] * d  # a subset's reductions trace down to its subsets'
    else:
        level_ok = [decide(dp) for dp in range(1, d)] + [False]
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
                              subsets_checked=sum(comb(code.params.n, k)
                                                  for k in range(1, d + 1)),
                              per_subset=tuple(per_subset),
                              witnesses=tuple(witnesses[:_REPORT_WITNESSES]))


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
    # QuantumCode checked the kets' range and stored them in the storage dtype
    rebuilt = _in_range_array(code.kets, code.params.alphabets)
    md = minimal_distance(rebuilt) if rebuilt.r > 1 else rebuilt.n + 1
    # state i is the i-th run of kets_per_state rows of the rebuilt parent
    blocks_ok = d == 0 or _first_unbalanced_subset(rebuilt, d, code.params.K) is None
    comb = md >= d + 1 and blocks_ok
    return CrossValidation(report=verify_code(code, d, "strict-uniform"),
                           combinatorial_pass=comb, parent_md=md,
                           blocks_balanced=blocks_ok)
