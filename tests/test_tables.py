"""Tests for the published-table catalogue and its regeneration machinery."""

from __future__ import annotations

from collections import Counter

import pytest

from oaqec.tables import (
    EXCLUDED,
    INGREDIENT_GAP,
    MISMATCH,
    NOT_CONSTRUCTIBLE,
    OK,
    PUBLISHED_MATCHES,
    SKIPPED,
    SUSPECTED_TYPO,
    TABLE_IDS,
    TYPO_CORRECTED,
    TableRowExpectation,
    build_row,
    compare_row,
    expectations,
    has_mismatch,
    render_report,
    reproduce,
)


def status_counts(results):
    return dict(Counter(res.status for res in results))


# --- catalogue shape --------------------------------------------------------


def test_row_counts_per_table():
    want = {"I": 38, "II": 34, "III": 29, "IV": 36, "V": 36, "VI": 55, "VII": 26}
    for tid in TABLE_IDS:
        assert len(expectations(tid)) == want[tid]


def test_annotation_counts_per_table():
    want = {
        "I": {OK: 38},
        "II": {OK: 33, INGREDIENT_GAP: 1},
        "III": {OK: 27, INGREDIENT_GAP: 1, SUSPECTED_TYPO: 1},
        "IV": {OK: 36},
        "V": {OK: 36},
        "VI": {OK: 39, NOT_CONSTRUCTIBLE: 2, SUSPECTED_TYPO: 14},
        "VII": {OK: 21, INGREDIENT_GAP: 3, NOT_CONSTRUCTIBLE: 2},
    }
    for tid in TABLE_IDS:
        got = dict(Counter(r.annotation for r in expectations(tid)))
        assert got == want[tid], tid


def test_every_annotated_row_carries_a_note():
    for tid in TABLE_IDS:
        for row in expectations(tid):
            if row.annotation != OK:
                assert row.note, row.label


def test_expectations_normalizes_and_rejects_unknown_ids():
    assert expectations("vii") == expectations("VII")
    assert expectations(" i ") == expectations("I")
    with pytest.raises(ValueError):
        expectations("VIII")


def test_row_labels_are_compact():
    assert expectations("I")[0].label == "t1 s=2 d=2 f=2"
    labels = {r.label for r in expectations("IV")}
    assert "t4 s=12 d=1 l=1 f=3x2 q=4x3" in labels


def test_rows_self_check_their_defect_arithmetic():
    good = expectations("I")[0]
    with pytest.raises(AssertionError):
        TableRowExpectation(
            table=good.table, builder=good.builder, s=good.s, d=good.d,
            l=good.l, factors=good.factors, q_factors=good.q_factors,
            n=good.n, K=good.K, d_plus_1=good.d_plus_1,
            alphabets=good.alphabets, m=good.m + 1)


def test_wrong_stored_m_raises_claim_failed_under_optimize():
    from test_cli import run_optimized

    script = """
import sys
from dataclasses import replace
from oaqec.errors import ClaimFailed
from oaqec.tables import expectations

assert sys.flags.optimize
good = expectations("I")[0]
try:
    replace(good, m=good.m + 1)
except ClaimFailed as exc:
    print(exc)
    sys.exit(0)
sys.exit(1)
"""
    proc = run_optimized(["-c", script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("t1 s=2 d=2 f=2: stored m=2 but the window "
                           "arithmetic gives 1\n")


# --- row comparison -----------------------------------------------------------


def test_compare_row_reports_each_field():
    row = expectations("I")[0]
    params = build_row(row).params
    ok, detail = compare_row(row, params)
    assert ok and detail == ""
    wrong = next(r for r in expectations("I") if r.s == 3)
    ok, detail = compare_row(wrong, params)
    assert not ok
    assert "alphabets" in detail or "n" in detail


# --- regeneration --------------------------------------------------------------


def test_table_one_regenerates_exactly():
    results = reproduce("I")
    assert status_counts(results) == {PUBLISHED_MATCHES: 38}
    assert not has_mismatch(results)


def test_table_four_regenerates_exactly():
    results = reproduce("IV")
    assert status_counts(results) == {PUBLISHED_MATCHES: 36}
    assert not has_mismatch(results)


def test_table_five_regenerates_exactly():
    results = reproduce("V")
    assert status_counts(results) == {PUBLISHED_MATCHES: 36}
    assert not has_mismatch(results)


def test_table_two_regenerates_within_cutoff():
    results = reproduce("II", max_s=12)
    assert status_counts(results) == {PUBLISHED_MATCHES: 11, EXCLUDED: 23}
    assert not has_mismatch(results)


def test_table_three_regenerates_with_one_correction():
    results = reproduce("III", max_s=12)
    assert status_counts(results) == {
        PUBLISHED_MATCHES: 6, TYPO_CORRECTED: 1, EXCLUDED: 22}
    corrected = [r for r in results if r.status == TYPO_CORRECTED]
    assert corrected[0].row.s == 9 and corrected[0].row.d == 3
    assert not has_mismatch(results)


def test_table_six_regenerates_with_corrections_and_skips():
    results = reproduce("VI", max_s=9)
    assert status_counts(results) == {
        PUBLISHED_MATCHES: 38, TYPO_CORRECTED: 5, SKIPPED: 2, EXCLUDED: 10}
    skipped = [r for r in results if r.status == SKIPPED]
    assert all(r.row.annotation == NOT_CONSTRUCTIBLE for r in skipped)
    assert all(r.row.s == 4 and r.row.d == 2 and r.row.l == 1 for r in skipped)
    assert not has_mismatch(results)


def test_table_seven_regenerates_within_cutoff():
    results = reproduce("VII", max_s=12)
    assert status_counts(results) == {PUBLISHED_MATCHES: 7, EXCLUDED: 19}
    assert not has_mismatch(results)


def test_report_rendering():
    results = reproduce("I", max_s=3)
    text = render_report("I", results)
    assert text.startswith("TABLE I: 38 rows")
    assert "summary:" in text
    assert PUBLISHED_MATCHES in text and EXCLUDED in text


# --- classification of engineered rows -----------------------------------------


def row_like(template, **overrides):
    fields = dict(table=template.table, builder=template.builder, s=template.s,
                  d=template.d, l=template.l, factors=template.factors,
                  q_factors=template.q_factors, n=template.n, K=template.K,
                  d_plus_1=template.d_plus_1, alphabets=template.alphabets,
                  m=template.m, annotation=template.annotation,
                  note=template.note)
    fields.update(overrides)
    return TableRowExpectation(**fields)


def test_wrong_expected_alphabets_classify_as_mismatch(monkeypatch):
    import oaqec.tables as tables

    base = expectations("I")[0]
    wrong = row_like(base, table="ZZ", alphabets=(8, 2, 2, 2, 2))
    monkeypatch.setitem(tables._TABLES, "ZZ", (wrong,))
    results = reproduce("ZZ")
    assert status_counts(results) == {MISMATCH: 1}
    assert "alphabets" in results[0].detail
    assert has_mismatch(results)


def test_unannotated_ingredient_failure_classifies_as_mismatch(monkeypatch):
    import oaqec.tables as tables

    gap = TableRowExpectation(
        table="ZZ", builder="t3", s=18, d=2, l=0, factors=(2,), q_factors=None,
        n=5, K=1, d_plus_1=3, alphabets=(18, 18, 18, 9, 2), m=1)
    monkeypatch.setitem(tables._TABLES, "ZZ", (gap,))
    results = reproduce("ZZ", max_s=18)
    assert status_counts(results) == {MISMATCH: 1}
    assert "unexpected ingredient failure" in results[0].detail


def test_buildable_row_wrongly_annotated_classifies_as_mismatch(monkeypatch):
    import oaqec.tables as tables

    base = expectations("I")[0]
    wrong = row_like(base, table="ZZ", annotation=INGREDIENT_GAP, note="n/a")
    monkeypatch.setitem(tables._TABLES, "ZZ", (wrong,))
    results = reproduce("ZZ")
    assert status_counts(results) == {MISMATCH: 1}
    assert "yet the construction succeeded" in results[0].detail


def test_build_row_rejects_unknown_builder():
    base = expectations("I")[0]
    with pytest.raises(ValueError):
        build_row(row_like(base, builder="t9"))
