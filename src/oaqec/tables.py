"""Catalogue of the published code tables, with regeneration and diffing."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import prod
from typing import Optional

from .errors import ClaimFailed, IngredientUnavailable
from .synthesis import (
    CodeParams,
    QuantumCode,
    corollary_5lie,
    theorem_52s,
    theorem_5s2,
    theorem_s1,
    theorem_tn,
)

TABLE_IDS = ("I", "II", "III", "IV", "V", "VI", "VII")

OK = "ok"
SUSPECTED_TYPO = "suspected-typo"
INGREDIENT_GAP = "ingredient-gap"
NOT_CONSTRUCTIBLE = "not-constructible"

PUBLISHED_MATCHES = "matches-published"
TYPO_CORRECTED = "typo-corrected"
MISMATCH = "mismatch"
SKIPPED = "skipped"
EXCLUDED = "excluded"


@dataclass(frozen=True)
class TableRowExpectation:
    """One published table row: a build recipe plus the expected parameters."""

    table: str
    builder: str
    s: int
    d: int
    l: int
    factors: tuple[int, ...]
    q_factors: Optional[tuple[int, ...]]
    n: int
    K: int
    d_plus_1: int
    alphabets: tuple[int, ...]
    m: int
    annotation: str = OK
    note: str = ""

    def __post_init__(self) -> None:
        if len(self.alphabets) != self.n:
            raise ClaimFailed(f"{self.label}: {len(self.alphabets)} alphabet "
                              f"sizes for n={self.n}")
        if self.d_plus_1 != self.d + 1:
            raise ClaimFailed(f"{self.label}: stored d+1={self.d_plus_1} "
                              f"for d={self.d}")
        bound = prod(sorted(self.alphabets)[: self.n - 2 * self.d])
        if self.m != bound - self.K:
            raise ClaimFailed(
                f"{self.label}: stored m={self.m} but the window arithmetic "
                f"gives {bound - self.K}")

    @property
    def label(self) -> str:
        bits = [f"s={self.s}", f"d={self.d}"]
        if self.l:
            bits.append(f"l={self.l}")
        bits.append("f=" + "x".join(str(v) for v in self.factors))
        if self.q_factors:
            bits.append("q=" + "x".join(str(v) for v in self.q_factors))
        return f"{self.builder} " + " ".join(bits)


@dataclass(frozen=True)
class RowResult:
    """Outcome of regenerating one table row."""

    row: TableRowExpectation
    status: str
    built: Optional[CodeParams]
    detail: str = ""


def _desc(values) -> tuple[int, ...]:
    return tuple(sorted(values, reverse=True))


def _row(table: str, builder: str, s: int, d: int, l: int, factors,
         q_factors, m: int, annotation: str = OK, note: str = "") -> TableRowExpectation:
    factors = tuple(factors)
    q = tuple(q_factors) if q_factors else None
    if builder in ("t1", "t2"):
        wide = s * s if builder == "t1" else 2 * s
        if factors == (s,):
            alphabets = (wide,) + (s,) * 4
        else:
            alphabets = (wide,) + (s,) * 3 + _desc(factors)
        K, d_eff = 1, 2
    elif builder == "t3":
        s1 = factors[0]
        alphabets = (s,) * (2 * d - 1) + _desc((s // s1, s1))
        K, d_eff = 1, d
    elif builder in ("t4", "c3"):
        if q:
            alphabets = (s,) * (2 * d + l - 1) + _desc(factors) + _desc(q)
        else:
            alphabets = (s,) * (2 * d + l) + _desc(factors)
        K, d_eff = s ** l, d
    else:
        raise ValueError(f"unknown builder {builder!r}")
    return TableRowExpectation(table, builder, s, d_eff, l, factors, q,
                               len(alphabets), K, d_eff + 1, alphabets, m,
                               annotation, note)


# --- row data -----------------------------------------------------------------

_TABLE_I_SHAPES = (
    (2, (2,)), (3, (3,)), (4, (4,)), (4, (2, 2)), (5, (5,)), (6, (6,)),
    (6, (2, 3)), (7, (7,)), (8, (8,)), (8, (2, 4)), (8, (2, 2, 2)), (9, (9,)),
    (9, (3, 3)), (10, (10,)), (10, (2, 5)), (11, (11,)), (12, (12,)),
    (12, (2, 6)), (12, (3, 4)),
)

_TABLE_II_S = {
    1: (4, 6, 8, 10, 12, 14),
    2: (4, 8, 10, 12, 16, 18),
    3: (8, 16, 20, 28, 32, 36, 40, 44, 52, 56),
    4: (8, 16, 32, 56, 64, 72, 88),
    5: (16, 32, 64, 128, 144),
}

_TABLE_III_S = {
    1: (9, 12, 15, 18, 21),
    2: (9, 12, 15, 18, 21),
    3: (9, 27, 36, 45, 63),
    4: (9, 27, 63, 72, 81, 99, 117),
    5: (9, 27, 81, 99, 117, 144, 153),
}

_T45_FACTORS = ((2,), (3,), (4,), (6,), (6, 2), (4, 3), (3, 2), (2, 2),
                (3, 2, 2))
_T45_QS = ((6, 2), (4, 3), (3, 2, 2))

# Printed second-code m values for each (factors, q) pair of the s=12, d=2,
# l=0 table; every cell agrees with s*prod(factors)/max(factors+q) - 1.
_TABLE_V_M2 = {
    (2,): (3, 5, 7),
    (3,): (5, 8, 11),
    (4,): (7, 11, 11),
    (6,): (11, 11, 11),
    (6, 2): (23, 23, 23),
    (4, 3): (23, 35, 35),
    (3, 2): (11, 17, 23),
    (2, 2): (7, 11, 15),
    (3, 2, 2): (23, 35, 47),
}

_TABLE_VI_L0 = {
    1: ((4, (2, 2), 3), (6, (3,), 2), (6, (2, 3), 5), (8, (4,), 3),
        (8, (4, 2), 7), (8, (2, 2), 3), (8, (2, 2, 2), 7)),
    2: ((4, (2, 2), 3), (8, (4,), 3), (8, (4, 2), 7), (8, (2, 2), 3),
        (8, (2, 2, 2), 7)),
    3: ((8, (4,), 3), (8, (4, 2), 7), (8, (2, 2), 3), (8, (2, 2, 2), 7),
        (9, (3,), 2), (9, (3, 3), 8)),
    4: ((8, (4,), 3), (8, (4, 2), 7), (8, (2, 2), 3), (8, (2, 2, 2), 7),
        (9, (3,), 2), (9, (3, 3), 8)),
}

_TABLE_VI_L1_D1 = ((4, (2,), 4), (4, (2, 2), 12), (8, (2,), 8), (8, (4,), 24),
                   (8, (4, 2), 56), (8, (2, 2), 24), (8, (2, 2, 2), 56))

_TABLE_VI_L1_D3 = ((8, (2,), 8), (8, (4,), 24), (8, (4, 2), 56),
                   (8, (2, 2), 24), (8, (2, 2, 2), 56), (9, (3,), 18),
                   (9, (3, 3), 72))

_TABLE_VI_L1_D4 = (((2,), 16), ((4,), 48), ((8,), 112), ((8, 2), 240),
                   ((4, 4), 240), ((4, 2), 112), ((2, 2), 48),
                   ((4, 2, 2), 240), ((2, 2, 2), 112), ((2, 2, 2, 2), 240))

_TABLE_VII_S = {
    1: (6, 9, 12, 15, 18, 21),
    2: (9, 12, 15, 18, 21),
    3: (9, 27, 45, 63, 72, 81),
    4: (9, 27, 63, 72, 81),
    5: (27, 81, 243, 297),
}


def _table_i() -> tuple[TableRowExpectation, ...]:
    rows = []
    for s, factors in _TABLE_I_SHAPES:
        for builder in ("t1", "t2"):
            rows.append(_row("I", builder, s, 2, 0, factors, None, s - 1))
    return tuple(rows)


def _two_level_split_rows(table: str, s1: int, by_d) -> tuple[TableRowExpectation, ...]:
    rows = []
    for d in sorted(by_d):
        for s in by_d[d]:
            annotation, note = OK, ""
            if table == "III" and (d, s) == (3, 9):
                annotation = SUSPECTED_TYPO
                note = ("printed as ((7,1,4))_{8^5 4^1 2^1}, duplicating the "
                        "s=8 entry of the previous catalogue; corrected to "
                        "((7,1,4))_{9^5 3^2}")
            elif d == 2 and s == 18:
                annotation = INGREDIENT_GAP
                note = ("needs a strength-2 array on four columns over 18 "
                        "symbols; the prime-power pieces of 18 supply only "
                        "three columns")
            rows.append(_row(table, "t3", s, d, 0, (s1,), None, s1 - 1,
                             annotation, note))
    return tuple(rows)


def _table_iv() -> tuple[TableRowExpectation, ...]:
    rows = []
    for factors in _T45_FACTORS:
        m = (prod(factors) - 1) * 12
        rows.append(_row("IV", "t4", 12, 1, 1, factors, None, m))
        for q in _T45_QS:
            rows.append(_row("IV", "t4", 12, 1, 1, factors, q, m))
    return tuple(rows)


def _table_v() -> tuple[TableRowExpectation, ...]:
    rows = []
    for factors in _T45_FACTORS:
        rows.append(_row("V", "t4", 12, 2, 0, factors, None, prod(factors) - 1))
        for q, m2 in zip(_T45_QS, _TABLE_V_M2[factors]):
            rows.append(_row("V", "t4", 12, 2, 0, factors, q, m2))
    return tuple(rows)


def _table_vi() -> tuple[TableRowExpectation, ...]:
    rows = []
    for d in sorted(_TABLE_VI_L0):
        for s, factors, m in _TABLE_VI_L0[d]:
            rows.append(_row("VI", "t4", s, d, 0, factors, None, m))
    for s, factors, m in _TABLE_VI_L1_D1:
        rows.append(_row("VI", "t4", s, 1, 1, factors, None, m))

    block_note = ("printed with a four-column wide-alphabet subscript; "
                  "five wide columns are required at d=2, l=1")
    for s, factors, m in ((4, (2,), 4), (4, (2, 2), 12)):
        rows.append(_row(
            "VI", "t4", s, 2, 1, factors, None, m, NOT_CONSTRUCTIBLE,
            "requires an index-unity strength-3 array on seven columns over "
            "four symbols, which exceeds the n <= s+2 cap for even alphabets "
            "at strength 3; " + block_note))
    for s, factors, m, extra in (
            (8, (2,), 8, "printed m=4, copied from the s=4 row above; "
                         "corrected to 8"),
            (8, (4,), 24, "printed m=12, copied from the s=4 row above; "
                          "corrected to 24"),
            (8, (4, 2), 56, ""), (8, (2, 2), 24, ""), (8, (2, 2, 2), 56, "")):
        note = (extra + "; " if extra else "") + block_note
        rows.append(_row("VI", "t4", s, 2, 1, factors, None, m,
                         SUSPECTED_TYPO, note))

    for s, factors, m in _TABLE_VI_L1_D3:
        rows.append(_row("VI", "t4", s, 3, 1, factors, None, m))

    for index, (factors, m) in enumerate(_TABLE_VI_L1_D4):
        if index == 0:
            rows.append(_row("VI", "t4", 16, 4, 1, factors, None, m))
        else:
            rows.append(_row(
                "VI", "t4", 16, 4, 1, factors, None, m, SUSPECTED_TYPO,
                "printed with the factor subscript 2^1 of the first row in "
                "this block; the n and m columns are consistent with "
                "factors " + "x".join(str(v) for v in factors)))
    return tuple(rows)


def _table_vii() -> tuple[TableRowExpectation, ...]:
    rows = []
    for d in sorted(_TABLE_VII_S):
        for s in _TABLE_VII_S[d]:
            builder = "c3" if d == 2 else "t4"
            annotation, note = OK, ""
            if d == 2 and s in (15, 18, 21):
                annotation = INGREDIENT_GAP
                note = (f"needs a strength-2 array on five columns over {s} "
                        "symbols (three mutually orthogonal Latin squares); "
                        "known to exist but outside this toolkit's "
                        "constructions")
            elif (d, s) == (3, 45):
                annotation = NOT_CONSTRUCTIBLE
                note = ("requires an index-unity strength-3 array on seven "
                        "columns over five symbols, which exceeds the "
                        "n <= s+1 cap for odd alphabets at strength 3")
            elif (d, s) == (4, 63):
                annotation = NOT_CONSTRUCTIBLE
                note = ("requires an index-unity strength-4 array on nine "
                        "columns over seven symbols; the seven-symbol factor "
                        "supplies only eight columns, and a linear "
                        "realization would exceed the length cap for "
                        "maximum-distance codes over a prime field")
            rows.append(_row("VII", builder, s, d, 0, (3,), None, 2,
                             annotation, note))
    return tuple(rows)


_TABLES: dict[str, tuple[TableRowExpectation, ...]] = {
    "I": _table_i(),
    "II": _two_level_split_rows("II", 2, _TABLE_II_S),
    "III": _two_level_split_rows("III", 3, _TABLE_III_S),
    "IV": _table_iv(),
    "V": _table_v(),
    "VI": _table_vi(),
    "VII": _table_vii(),
}


# --- regeneration ---------------------------------------------------------------

def expectations(table_id: str) -> tuple[TableRowExpectation, ...]:
    """All rows of one catalogue, with corrected values on annotated rows."""
    key = table_id.strip().upper()
    if key not in _TABLES:
        raise ValueError(
            f"unknown table {table_id!r}; choose from {', '.join(TABLE_IDS)}")
    return _TABLES[key]


def build_row(row: TableRowExpectation, *, budget: Optional[int] = None,
              asset_dir: Optional[str] = None) -> QuantumCode:
    """Run the construction a table row points at and return the code."""
    factors = list(row.factors)
    q = list(row.q_factors) if row.q_factors else None
    if row.builder == "t1":
        return theorem_5s2(row.s, factors, budget=budget)
    if row.builder == "t2":
        return theorem_52s(row.s, factors, budget=budget, asset_dir=asset_dir)
    if row.builder == "t3":
        return theorem_s1(row.s, row.d, factors[0], budget=budget,
                          asset_dir=asset_dir)
    if row.builder == "c3":
        return corollary_5lie(row.s, factors, budget=budget,
                              asset_dir=asset_dir)
    if row.builder == "t4":
        return theorem_tn(row.s, row.d, row.l, factors, q, budget=budget,
                          asset_dir=asset_dir)
    raise ValueError(f"unknown builder {row.builder!r}")


def compare_row(row: TableRowExpectation, params: CodeParams) -> tuple[bool, str]:
    """Diff (n, K, d+1, alphabet multiset, m) between expectation and build."""
    got = (params.n, params.K, params.d_plus_1,
           tuple(sorted(params.alphabets)), params.m)
    want = (row.n, row.K, row.d_plus_1, tuple(sorted(row.alphabets)), row.m)
    if got == want:
        return True, ""
    names = ("n", "K", "d+1", "alphabets", "m")
    diffs = [f"{name}: expected {w}, built {g}"
             for name, w, g in zip(names, want, got) if w != g]
    return False, "; ".join(diffs)


def reproduce(table_id: str, *, max_s: int = 12, budget: Optional[int] = None,
              asset_dir: Optional[str] = None) -> tuple[RowResult, ...]:
    """Rebuild every row of one catalogue and classify the outcome."""
    results = []
    for row in expectations(table_id):
        if row.s > max_s:
            results.append(RowResult(row, EXCLUDED, None,
                                     f"s={row.s} beyond the size cutoff {max_s}"))
            continue
        try:
            code = build_row(row, budget=budget, asset_dir=asset_dir)
        except IngredientUnavailable as exc:
            if row.annotation in (INGREDIENT_GAP, NOT_CONSTRUCTIBLE):
                results.append(RowResult(row, SKIPPED, None,
                                         f"{row.annotation}: {exc}"))
            else:
                results.append(RowResult(row, MISMATCH, None,
                                         f"unexpected ingredient failure: {exc}"))
            continue
        ok, detail = compare_row(row, code.params)
        if not ok:
            results.append(RowResult(row, MISMATCH, code.params, detail))
        elif row.annotation == SUSPECTED_TYPO:
            results.append(RowResult(row, TYPO_CORRECTED, code.params, row.note))
        elif row.annotation in (INGREDIENT_GAP, NOT_CONSTRUCTIBLE):
            results.append(RowResult(row, MISMATCH, code.params,
                                     "annotated unbuildable, yet the "
                                     "construction succeeded"))
        else:
            results.append(RowResult(row, PUBLISHED_MATCHES, code.params))
    return tuple(results)


def has_mismatch(results) -> bool:
    return any(res.status == MISMATCH for res in results)


def render_report(table_id: str, results) -> str:
    """Human-readable diff summary for one catalogue."""
    lines = [f"TABLE {table_id.strip().upper()}: {len(results)} rows"]
    for res in results:
        line = f"  {res.row.label}: {res.status}"
        if res.built is not None:
            line += f" {res.built.code_string()} m={res.built.m}"
        if res.detail:
            line += f" -- {res.detail}"
        lines.append(line)
    counts = Counter(res.status for res in results)
    lines.append("  summary: " + ", ".join(
        f"{status}={count}" for status, count in sorted(counts.items())))
    return "\n".join(lines)
