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
ReductionWitnesses of a level's failing subsets, and the verdicts on its
definition-5 subsets on which kets of one state collide, come from one
chunked pass over those subsets' sorted complement keys (`_explain_level`).
A self reduction's diagonal is its state's count of each level tuple on S,
and every other entry comes from two distinct kets that agree off S, so the
pass enumerates only such pairs inside each run of colliding kets, for the
self reductions and state pairs that can still add a witness, and counts
their reduction entries.  `verify_code` decides the claimed level first: a
subset passing at level d passes on each of its subsets, so the levels
below are decided only when level d fails, and it makes at most one witness
pass per level.  `reduced_cross_matrix` builds one exact reduction as a
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


#: most witnesses _explain_level extracts from one subset
_SUBSET_WITNESSES = 4
#: most witnesses a report holds: verify_code explains failing subsets
#: until it holds this many, and keeps the first this many
_REPORT_WITNESSES = 8
#: cap on subsets x kets keyed in one numpy pass of _decide_level or
#: _explain_level, which bounds their scratch memory independently of C(n, d)
_CHUNK_CELLS = 1 << 12


def _chunks(subsets: list, kets: int) -> list[list]:
    """The subsets in runs of at most _CHUNK_CELLS subsets x kets (one at least)."""
    per_chunk = max(1, _CHUNK_CELLS // kets)
    return [subsets[lo:lo + per_chunk] for lo in range(0, len(subsets), per_chunk)]


def _subset_keyer(code: QuantumCode):
    """(complement keys, S-keys, columns).  The first two are functions from
    a chunk of equal-size subsets, an intp array of subsets x columns, to an
    int64 array of subsets x kets; the second also takes the first's keys.
    Both order a ket's slices as their level tuples.  When the product of
    all alphabets fits _KEY_MAX, a complement key is the ket's full
    mixed-radix key minus its S columns' terms, and those terms key S;
    otherwise _slice_keys keys each column set.  columns holds the kets
    column by column."""
    kets, alphabets, n = code.kets, code.params.alphabets, code.params.n
    columns = np.ascontiguousarray(kets.T)
    if prod(alphabets) > _KEY_MAX:
        def sliced(chunk, inside: bool) -> np.ndarray:
            """_slice_keys of each subset's columns, or of its complement's."""
            return np.stack([_slice_keys(kets, alphabets,
                                         [c for c in range(n) if (c in S) == inside])
                             for S in chunk.tolist()])
        return (lambda chunk: sliced(chunk, False),
                lambda chunk, keys: sliced(chunk, True), columns)
    full = _slice_keys(kets, alphabets, range(n))
    weights = np.array([prod(alphabets[c + 1:]) for c in range(n)], dtype=np.int64)

    def complement_keys(chunk):
        keys = np.repeat(full[None], len(chunk), axis=0)
        for cols in chunk.T:
            term = columns[cols].astype(np.int64)
            term *= weights[cols][:, None]
            keys -= term
        return keys
    return complement_keys, lambda chunk, keys: full - keys, columns


def _runs(split: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, length) of each run of a sequence of len(split) + 1 items,
    from the flags that say which neighbours differ."""
    edge = np.empty(len(split) + 2, dtype=bool)
    edge[0] = edge[-1] = True
    edge[1:-1] = split
    bounds = edge.nonzero()[0]
    return bounds[:-1], bounds[1:] - bounds[:-1]


def _products(lo_a: np.ndarray, len_a: np.ndarray, lo_b: np.ndarray,
              len_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, q) for every p in [lo_a[r], lo_a[r] + len_a[r]) and q in
    [lo_b[r], lo_b[r] + len_b[r]), row r by row, p-major."""
    cells = len_a * len_b
    row = np.arange(len(cells)).repeat(cells)
    t = np.arange(len(row))
    t -= (cells.cumsum() - cells).repeat(cells)
    width = len_b[row]
    q = t % width
    t //= width
    del width
    t += lo_a[row]
    q += lo_b[row]
    return t, q


def _sorted_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(at, values, split) for a 2-D array of keys: at holds each row's flat
    indices in stable key order, values the keys in that order, and split
    whether each two neighbours differ or lie in different rows."""
    width = keys.shape[1]
    at = keys.argsort(axis=1, kind="stable")
    at += np.arange(0, keys.size, width)[:, None]
    at = at.ravel()
    values = keys.ravel()[at]
    split = values[1:] != values[:-1]
    split[width - 1::width] = True
    return at, values, split


def _cross_pairs(joined: np.ndarray, part_row: np.ndarray, need: np.ndarray,
                 K: int) -> tuple[np.ndarray, np.ndarray, list[list[tuple[int, int]]]]:
    """(a, b, pairs): the parts a < b of one run whose ket pairs make each
    subset's first need[subset] nonzero cross reductions, and those state
    pairs (i, j) by subset.  A run's parts follow state order, and a pair
    of parts is keyed (subset * K + i) * K + j by their rows subset * K + i
    and subset * K + j."""
    multi = joined.copy()
    multi[1:] |= joined[:-1]
    cp = multi.nonzero()[0]
    lo, width = _runs(~joined[cp[:-1]])
    a, b = _products(lo, width, lo, width)
    lower = a < b
    a, b = cp[a[lower]], cp[b[lower]]
    pair_code = part_row[a] * K + part_row[b] % K
    # a subset's first nonzero cross reductions are its smallest pair keys
    # (np.unique would import numpy.ma)
    uniq = np.sort(pair_code)
    new = np.ones(len(uniq), dtype=bool)
    new[1:] = uniq[1:] != uniq[:-1]
    uniq = uniq[new]
    owner = uniq // (K * K)
    chosen = np.arange(len(uniq)) - owner.searchsorted(owner) < need[owner]
    pairs: list[list[tuple[int, int]]] = [[] for _ in need]
    for t, ij in zip(owner[chosen].tolist(), (uniq[chosen] % (K * K)).tolist()):
        pairs[t].append(divmod(ij, K))
    keep = chosen[uniq.searchsorted(pair_code)]
    return a[keep], b[keep], pairs


def _explain_level(code: QuantumCode, subsets: list, mode: str
                   ) -> list[list[ReductionWitness]]:
    """For each of a list of equal-size subsets, all violations (up to
    _SUBSET_WITNESSES) of the reduction conditions on it, read off numpy
    passes over chunks of at most _CHUNK_CELLS subsets x kets.

    The kets are distinct, so two kets that agree off S differ on S: a self
    reduction's diagonal is its state's count of each level tuple on S,
    read off the state's sorted S-keys, and every other entry comes from a
    pair of distinct kets that agree off S.  A stable sort of each subset's
    complement keys lays its kets out in runs that agree off S, each run in
    state order (the subsets' rows lie end to end), and a run splits into
    parts, its kets of one state.  Lower bounds on the witnesses of each self
    reduction, read off the parts and the level counts, pick the self
    reductions that can still add a witness before the cap and how many of
    the first nonzero cross reductions can.  Only their pairs of distinct
    kets inside each run are enumerated, and one lexsort counts their
    entries: S-keys order entries (x, y) as their level tuples, and a
    reduction's key (subset * K + i) * K + j is below subsets x K^2, exact in
    int64.  A witness reads its level tuples off the rows of kets that hold
    them."""
    kets, K, block = code.kets, code.params.K, code.kets_per_state
    alphabets, N = code.params.alphabets, len(code.kets)
    strict, cap = mode == "strict-uniform", _SUBSET_WITNESSES

    complement_keys, s_keys_of, _ = _subset_keyer(code)
    explained: list[list[ReductionWitness]] = []
    for chunk in _chunks(subsets, N):
        m = len(chunk)
        levels = [prod(alphabets[c] for c in S) for S in chunk]
        short = [strict and block % size != 0 for size in levels]
        uniform = [block // size for size in levels]
        columns = np.array(chunk, dtype=np.intp)
        keys = complement_keys(columns)
        s_keys = s_keys_of(columns, keys)
        # flat indices subset * N + ket of the kets in runs that agree off S,
        # whose // block is their row subset * K + state
        at, keys, split = _sorted_rows(keys)
        del keys  # at scale, the arrays over all kets and over ket pairs add up
        row = at // block
        start, size = _runs(split | (row[1:] != row[:-1]))
        del row
        # each part's row, and whether the next part continues its run
        part_row = at[start] // block
        joined = np.zeros(len(start), dtype=bool)
        joined[:-1] = ~split[start[1:] - 1]
        del split
        collided = np.zeros((m, K), dtype=bool)
        collided.ravel()[part_row[size > 1]] = True
        # each row's S-keys sorted, in runs of one level tuple
        hist, values, edge = _sorted_rows(s_keys.reshape(m * K, block))
        if not strict:
            # a state's self reduction equals state 0's when both have no
            # colliding kets and the same multiset of S-slices
            values = values.reshape(m, K, block)
            bound = (values != values[:, :1]).any(axis=2)
        del values
        h_first, h_count = _runs(edge)
        del edge
        # each run's first index subset * N + ket of s_keys, whose // block
        # is its row; the run's level tuple as an S-key and as a ket holding it
        hist = hist[h_first]
        del h_first
        h_value, h_ket, h_row = s_keys.ravel()[hist], hist % N, hist // block
        del hist
        seen = np.bincount(h_row, minlength=m * K)
        h_start = seen.cumsum() - seen  # each row's first run
        if strict:
            bound = np.bincount(h_row[h_count != np.repeat(uniform, K)[h_row]], minlength=m * K)
            bound += seen < np.repeat([min(size, block + 1) for size in levels], K)
            bound = bound.reshape(m, K) + collided
            flagged = bound > 0
        else:
            flagged = collided | bound | collided[:, :1]
            flagged[:, 0] = True  # the reference the other states are compared with
        del h_row
        selves = flagged & (bound.cumsum(axis=1) - bound < cap)
        need = cap - bound.sum(axis=1)
        if any(short):
            selves[short] = False
            need[short] = cap - K
        # rows (a, b) of parts whose ket pairs make the wanted reductions:
        # a self reduction's parts of two kets or more
        a = b = (selves.ravel()[part_row] & (size > 1)).nonzero()[0]
        pairs: list[list[tuple[int, int]]] = [[] for _ in chunk]
        if joined.any() and (need > 0).any():
            ca, cb, pairs = _cross_pairs(joined, part_row, need, K)
            a, b = np.concatenate((a, ca)), np.concatenate((b, cb))
        rows: dict = {}
        entries = np.empty((0, 5), dtype=np.int64)
        if len(a):
            # their pairs of distinct kets, keyed and sorted one array at a time
            p, q = _products(start[a], size[a], start[b], size[b])
            distinct = p != q
            p, q = at[p[distinct]], at[q[distinct]]
            x, y = s_keys.ravel()[p], s_keys.ravel()[q]
            pair_code = p // block * K
            pair_code += q // block % K
            by = np.lexsort((y, x, pair_code))
            x = x[by]
            y = y[by]
            pair_code = pair_code[by]
            first, number = _runs((pair_code[1:] != pair_code[:-1])
                                  | (x[1:] != x[:-1]) | (y[1:] != y[:-1]))
            # each entry (x, y, count, ket, ket), and each reduction's rows
            by = by[first]
            entries = np.stack((x[first], y[first], number, p[by] % N, q[by] % N), axis=1)
            del p, q, by, x, y
            pair_code = pair_code[first]
            lo, width = _runs(pair_code[1:] != pair_code[:-1])
            rows = dict(zip(pair_code[lo].tolist(), zip(lo.tolist(), (lo + width).tolist())))
        seen, h_start = seen.tolist(), h_start.tolist()

        def off_diagonal(key: int) -> np.ndarray:
            """The entries off the diagonal of the reduction keyed
            (subset * K + i) * K + j, sorted by (x, y)."""
            lo, hi = rows.get(key, (0, 0))
            return entries[lo:hi]

        def self_reduction(r: int) -> np.ndarray:
            """Every entry of row r's self reduction, sorted by (x, y)."""
            h = slice(h_start[r], h_start[r] + seen[r])
            x, ket = h_value[h], h_ket[h]
            table = np.concatenate((np.stack((x, x, h_count[h], ket, ket), axis=1),
                                    off_diagonal(r * K + r % K)))
            return table[np.lexsort((table[:, 1], table[:, 0]))]

        for t, S in enumerate(chunk):
            cols = columns[t]

            def witness(i: int, j: int, ket_x: int, ket_y: int, count: int, expected: int,
                        reason: str) -> ReductionWitness:
                """A witness on S, reading its level tuples off two kets."""
                return ReductionWitness(S, i, j, tuple(kets[ket_x, cols].tolist()),
                                        tuple(kets[ket_y, cols].tolist()), count,
                                        expected, reason)

            # strict-uniform fails every state of a subset whose level count
            # does not divide the state size, without an entry to show
            out = [ReductionWitness(S, i, i, None, None, block, levels[t],
                                    "state size not divisible by the level count")
                   for i in range(min(K, cap))] if short[t] else []
            explained.append(out)
            for i in selves[t].nonzero()[0].tolist():
                r = t * K + i
                if strict:
                    h, u, missing = h_start[r], uniform[t], levels[t] - seen[r]
                    for _, _, v, ket_x, ket_y in off_diagonal(r * K + i)[:cap].tolist():
                        out.append(witness(i, i, ket_x, ket_y, v, 0,
                                           "off-diagonal reduction entry"))
                    if missing:
                        out.append(ReductionWitness(S, i, i, None, None, 0, u,
                                                    f"{missing} level tuples never occur"))
                    bad = (h_count[h:h + seen[r]] != u).nonzero()[0][:cap] + h
                    for ket, v in zip(h_ket[bad].tolist(), h_count[bad].tolist()):
                        out.append(witness(i, i, ket, ket, v, u, "nonuniform diagonal entry"))
                elif i:
                    off, ref = off_diagonal(r * K + i), off_diagonal(t * K * K)
                    if bound[t, i] or len(off) != len(ref) or (off[:, :3] != ref[:, :3]).any():
                        # the reductions differ: on their sorted entries,
                        # which agree above row k, the smaller key at row k is
                        # the first to differ, missing from one side or
                        # counted apart
                        mine, ref = self_reduction(r), self_reduction(t * K)
                        n = min(len(mine), len(ref))
                        k = int(np.append((mine[:n, :3] != ref[:n, :3]).any(axis=1),
                                          True).argmax())
                        x, y, _, ket_x, ket_y = min(e[k].tolist() for e in (mine, ref)
                                                    if k < len(e))
                        got, want = (int(e[k, 2]) if k < len(e) and e[k, :2].tolist() == [x, y]
                                     else 0 for e in (mine, ref))
                        out.append(witness(i, i, ket_x, ket_y, got, want,
                                           "reduction differs from state 0"))
                if len(out) >= cap:
                    break
            else:
                for i, j in pairs[t]:
                    _, _, v, ket_x, ket_y = off_diagonal((t * K + i) * K + j)[0].tolist()
                    out.append(witness(i, j, ket_x, ket_y, v, 0, "cross reduction is nonzero"))
            del out[cap:]
    return explained


def _decide_level(code: QuantumCode, dp: int, mode: str
                  ) -> list[tuple[tuple[int, ...], Optional[bool]]]:
    """(S, passes) for every dp-subset S in combinations order, decided in
    numpy passes over chunks of at most _CHUNK_CELLS subsets x kets, keyed
    by _subset_keyer.  passes is None for a definition-5 subset on which
    kets collide only within states: only the exact reductions decide it."""
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
    complement_keys, s_keys_of, columns = _subset_keyer(code)
    for rows in _chunks(todo, len(kets)):
        chunk = np.array([subsets[i] for i in rows], dtype=np.intp)
        keys = complement_keys(chunk)
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
            s_keys = s_keys_of(chunk, keys).reshape(len(rows), K, block)
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
        verdict and explain the first failing subsets.  One _explain_level
        pass reads the exact reductions of every undecided subset and, at
        the claimed level, of the first _REPORT_WITNESSES failing ones: each
        explained failing subset adds a witness, so no later one is read."""
        verdicts = _decide_level(code, dp, mode)
        failing = [S for S, passed in verdicts if passed is False]
        first = set(failing[:_REPORT_WITNESSES] if dp == d else ())
        wanted = [S for S, passed in verdicts if passed is None or S in first]
        exact = dict(zip(wanted, _explain_level(code, wanted, mode))) if wanted else {}
        ok = True
        for S, passed in verdicts:
            if passed is None:
                passed = not exact[S]
            elif not passed and S in exact and not exact[S]:
                raise ClaimFailed(f"subset {S} failed the {mode} counts "
                                  "but its exact reductions show no violation")
            if dp == d:
                per_subset.append((S, passed))
                if not passed and len(witnesses) < _REPORT_WITNESSES:
                    witnesses.extend(exact[S])
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
