"""One-shot generator for the bundled ingredient arrays.

Produces the three data assets the package ships and admits each through
`oaqec.constructions.asset_add`, which certifies it, then writes its file
and its sha256-pinned manifest entry:

  * oa_144_5_12_2   OA(144,5,12,2)  MD 4  -- difference matrix over Z2xZ2xZ3
  * oa_100_4_10_2   OA(100,4,10,2)  MD 3  -- a pair of orthogonal Latin squares
  * oa_72_5_12_6666 OA(72,5,12^1 6^4,2) MD 3 -- indexed width-4 scheme over Z6

Run from the repository root:  python3 tools/gen_assets.py
Deterministic given the seeds below; each search logs its attempts.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from oaqec.arrays import MixedLevelArray, attach_index_column, claim, to_text
from oaqec.constructions import MANIFEST_NAME, asset_add

OUT_DIR = Path(__file__).resolve().parents[1] / "src" / "oaqec" / "assets"


# --- OA(144,5,12,2), MD 4 ------------------------------------------------------
#
# Build a 12x5 difference matrix of index 1 over G = Z2 x Z2 x Z3 (the
# abelian group of order 12 whose Sylow 2-subgroup is non-cyclic, hence the
# one admitting orthomorphisms).  Columns are 0, id, and three mappings
# sigma_k that are bijective, differ bijectively from the identity, and
# differ bijectively from each other.  Index-1 differences force all five
# entries of every row-pair difference vector to be distinct, so the lifted
# 144-row array has minimum distance 4 by construction; we verify anyway.

G_ADD = [[0] * 12 for _ in range(12)]
G_SUB = [[0] * 12 for _ in range(12)]
for x1 in range(2):
    for y1 in range(2):
        for z1 in range(3):
            a = 6 * x1 + 3 * y1 + z1
            for x2 in range(2):
                for y2 in range(2):
                    for z2 in range(3):
                        b = 6 * x2 + 3 * y2 + z2
                        G_ADD[a][b] = 6 * ((x1 + x2) % 2) + 3 * ((y1 + y2) % 2) + (z1 + z2) % 3
                        G_SUB[a][b] = 6 * ((x1 - x2) % 2) + 3 * ((y1 - y2) % 2) + (z1 - z2) % 3


def find_orthomorphism_triple(rng: random.Random, max_nodes: int = 2_000_000):
    """Three mappings sigma_1..3 of G, found by interleaved backtracking:
    for each g in turn choose sigma_1(g), sigma_2(g), sigma_3(g), keeping
    every required difference mapping injective so far."""
    order = list(range(12))
    sigma = [[None] * 12 for _ in range(3)]
    used_val = [set(), set(), set()]        # values taken by sigma_k
    used_dif = [set(), set(), set()]        # values of sigma_k(g) - g
    used_pair = {(0, 1): set(), (0, 2): set(), (1, 2): set()}
    nodes = 0

    def extend(g: int, k: int) -> bool:
        nonlocal nodes
        if g == 12:
            return True
        if k == 3:
            return extend(g + 1, 0)
        choices = order[:]
        rng.shuffle(choices)
        for v in choices:
            nodes += 1
            if nodes > max_nodes:
                return False
            if v in used_val[k]:
                continue
            d = G_SUB[v][g]
            if d in used_dif[k]:
                continue
            pairs = [(j, k) for j in range(k)]
            pd = [G_SUB[v][sigma[j][g]] for j, _ in pairs]
            if any(x in used_pair[p] for p, x in zip(pairs, pd)):
                continue
            sigma[k][g] = v
            used_val[k].add(v)
            used_dif[k].add(d)
            for p, x in zip(pairs, pd):
                used_pair[p].add(x)
            if extend(g, k + 1):
                return True
            sigma[k][g] = None
            used_val[k].discard(v)
            used_dif[k].discard(d)
            for p, x in zip(pairs, pd):
                used_pair[p].discard(x)
        return False

    if extend(0, 0):
        return sigma
    return None


def gen_oa_144() -> MixedLevelArray:
    rng = random.Random(20240601)
    for attempt in range(1, 200):
        sigma = find_orthomorphism_triple(rng)
        if sigma is not None:
            print(f"  [144] orthomorphism triple found on attempt {attempt}")
            break
    else:
        raise SystemExit("  [144] FAILED: no orthomorphism triple found")
    dm = [(0, g, sigma[0][g], sigma[1][g], sigma[2][g]) for g in range(12)]
    rows = [tuple(G_ADD[e][h] for e in row) for row in dm for h in range(12)]
    A = MixedLevelArray(sorted(rows), (12,) * 5)
    return claim(A, strength=2, md=4)


# --- OA(100,4,10,2), MD 3 ------------------------------------------------------
#
# Two orthogonal Latin squares of order 10: generate a random square, list
# its transversals, and look for ten pairwise-disjoint ones (an exact cover
# of the 100 cells); the cover is the second square.  Squares without such
# a decomposition are simply discarded and the search restarts.


def random_latin_square(rng: random.Random, n: int = 10):
    while True:
        square = []
        ok = True
        col_used = [set() for _ in range(n)]
        for _ in range(n):
            row = _fill_row(rng, n, col_used)
            if row is None:
                ok = False
                break
            square.append(row)
            for c, v in enumerate(row):
                col_used[c].add(v)
        if ok:
            return square


def _fill_row(rng: random.Random, n, col_used, tries: int = 60):
    for _ in range(tries):
        row = [None] * n
        vals = list(range(n))
        rng.shuffle(vals)
        cols = list(range(n))
        rng.shuffle(cols)
        ok = True
        for c in cols:
            for i, v in enumerate(vals):
                if v is not None and v not in col_used[c]:
                    row[c] = v
                    vals[i] = None
                    break
            else:
                ok = False
                break
        if ok:
            return row
    return None


def transversals(square, n: int = 10):
    """All cell sets hitting each row, column, and symbol once (as bitmasks
    over the n*n cells, row-major)."""
    out = []
    cells = [0] * n

    def walk(r, col_mask, sym_mask, acc):
        if r == n:
            out.append(acc)
            return
        for c in range(n):
            if col_mask >> c & 1:
                continue
            s = square[r][c]
            if sym_mask >> s & 1:
                continue
            walk(r + 1, col_mask | 1 << c, sym_mask | 1 << s,
                 acc | 1 << (r * n + c))

    walk(0, 0, 0, 0)
    return out


def disjoint_cover(trans, n: int = 10, max_nodes: int = 400_000):
    """Exact cover of the n^2 cells by n pairwise-disjoint transversals."""
    full = (1 << n * n) - 1
    by_cell = [[] for _ in range(n * n)]
    for idx, t in enumerate(trans):
        m = t
        while m:
            cell = (m & -m).bit_length() - 1
            by_cell[cell].append(idx)
            m &= m - 1
    nodes = 0

    def search(covered, chosen):
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            return None
        if covered == full:
            return chosen
        # branch on the uncovered cell with fewest usable transversals
        best_cell, best_opts = None, None
        m = full & ~covered
        while m:
            cell = (m & -m).bit_length() - 1
            m &= m - 1
            opts = [i for i in by_cell[cell] if not trans[i] & covered]
            if best_opts is None or len(opts) < len(best_opts):
                best_cell, best_opts = cell, opts
                if not opts:
                    return None
                if len(opts) == 1:
                    break
        for i in best_opts:
            got = search(covered | trans[i], chosen + [i])
            if got is not None:
                return got
        return None

    return search(0, [])


def gen_oa_100() -> MixedLevelArray:
    rng = random.Random(20240602)
    n = 10
    for attempt in range(1, 500):
        L1 = random_latin_square(rng, n)
        trans = transversals(L1, n)
        if len(trans) < n:
            continue
        cover = disjoint_cover(trans, n)
        if cover is None:
            if attempt % 10 == 0:
                print(f"  [100] attempt {attempt}: {len(trans)} transversals, no cover yet")
            continue
        print(f"  [100] mate found on attempt {attempt} ({len(trans)} transversals)")
        L2 = [[None] * n for _ in range(n)]
        for sym, idx in enumerate(cover):
            m = trans[idx]
            while m:
                cell = (m & -m).bit_length() - 1
                m &= m - 1
                L2[cell // n][cell % n] = sym
        rows = sorted((i, j, L1[i][j], L2[i][j])
                      for i in range(n) for j in range(n))
        A = MixedLevelArray(rows, (10,) * 4)
        return claim(A, strength=2, md=3)
    raise SystemExit("  [100] FAILED: no orthogonal mate found")


# --- OA(72,5,12^1 6^4,2), MD 3 -------------------------------------------------
#
# A 12x4 index-2 difference scheme over Z6 whose row-pair difference
# vectors never repeat a value three times.  Lifting by Z6 and prepending
# the block index gives the target array: the index column restores one
# unit of distance across blocks, and within a block all four shifted
# columns differ.  First column and first row are normalized to zero (row
# translations and per-column constants change nothing that is checked).


def find_scheme_72(rng: random.Random, max_nodes: int = 3_000_000):
    lam = 2
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    counts = {p: [0] * 6 for p in pairs}
    rows: list[tuple[int, ...]] = []
    nodes = 0

    def row_ok(cand):
        for (a, b) in pairs:
            if counts[(a, b)][(cand[a] - cand[b]) % 6] >= lam:
                return False
        for prev in rows:
            diffs = [(cand[j] - prev[j]) % 6 for j in range(4)]
            if any(diffs.count(v) >= 3 for v in set(diffs)):
                return False
        return True

    def place(cand, sign):
        for (a, b) in pairs:
            counts[(a, b)][(cand[a] - cand[b]) % 6] += sign

    def extend():
        nonlocal nodes
        if len(rows) == 12:
            return True
        cands = [(0, a, b, c) for a in range(6) for b in range(6) for c in range(6)]
        rng.shuffle(cands)
        for cand in cands:
            nodes += 1
            if nodes > max_nodes:
                return False
            if row_ok(cand):
                place(cand, +1)
                rows.append(cand)
                if extend():
                    return True
                rows.pop()
                place(cand, -1)
        return False

    place((0, 0, 0, 0), +1)
    rows.append((0, 0, 0, 0))
    if extend():
        return rows
    return None


def gen_oa_72() -> MixedLevelArray:
    rng = random.Random(20240603)
    for attempt in range(1, 60):
        scheme = find_scheme_72(rng)
        if scheme is not None:
            print(f"  [72] scheme found on attempt {attempt}")
            break
    else:
        raise SystemExit("  [72] FAILED: no width-4 scheme over Z6 found")
    lifted = [tuple((e + h) % 6 for e in row) for row in scheme for h in range(6)]
    A = attach_index_column(MixedLevelArray(lifted, (6,) * 4), 6)
    return claim(A, strength=2, md=3)


# --- driver ----------------------------------------------------------------------


def main():
    # asset_add extends an existing manifest; a regeneration starts from none
    (OUT_DIR / MANIFEST_NAME).unlink(missing_ok=True)
    for name, gen in [("oa_144_5_12_2", gen_oa_144),
                      ("oa_72_5_12_6666", gen_oa_72),
                      ("oa_100_4_10_2", gen_oa_100)]:
        print(f"generating {name} ...")
        t0 = time.time()
        A = gen()
        rec = asset_add(to_text(A), name, OUT_DIR, A.strength, A.md)
        print(f"  wrote {name}.txt: OA({rec.r},{rec.n}) strength {rec.strength} "
              f"MD {rec.md}")
        print(f"  done in {time.time() - t0:.1f}s")
    print("manifest written")


if __name__ == "__main__":
    main()
