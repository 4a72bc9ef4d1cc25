"""The benchmark's own tests: span arithmetic, tracing, the mutant generator,
the output checkers and the BENCHMARK.json contract.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import tracing
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def span(name, start, end, parent=-1, item=None):
    return (name, start, end, parent, item)


# --- span arithmetic -------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [span("a", 0.0, 10.0),
             span("b", 1.0, 4.0, 0),
             span("c", 2.0, 3.0, 1),
             span("d", 5.0, 8.0, 0)]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 3.0])


def test_self_time_counts_overlapping_children_once():
    spans = [span("a", 0.0, 10.0),
             span("b", 1.0, 5.0, 0),
             span("c", 3.0, 7.0, 0),
             span("d", 9.0, 12.0, 0)]  # sticks out past its parent
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_totals_do_not_double_count_reentry():
    spans = [span("f", 0.0, 10.0),
             span("f", 2.0, 6.0, 0),
             span("g", 3.0, 4.0, 1),
             span("f", 12.0, 13.0)]
    calls, incl, own = tracing.span_totals(spans)["f"]
    assert calls == 3
    assert incl == pytest.approx(11.0)
    assert own == pytest.approx(6.0 + 3.0 + 1.0)
    assert tracing.span_totals(spans)["g"] == (1, pytest.approx(1.0),
                                               pytest.approx(1.0))


def test_nested_calls_looks_through_intermediate_spans():
    spans = [span("outer", 0, 10), span("mid", 1, 9, 0),
             span("leaf", 2, 3, 1), span("leaf", 11, 12)]
    assert tracing.nested_calls(spans, "leaf", "outer") == 1


# --- tracer on the real package ----------------------------------------------------


def test_tracer_wraps_every_binding_and_restores_them():
    import oaqec
    from oaqec import arrays, constructions, synthesis, verify
    original = arrays.is_orthogonal_array
    tracer = tracing.Tracer().install()
    try:
        for module in (oaqec, arrays, synthesis, verify):
            assert module.is_orthogonal_array is not original
        A = constructions.bush(3, 2)
        ok, _ = synthesis.is_orthogonal_array(A, 2)
        assert ok
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    for module in (oaqec, arrays, synthesis, verify):
        assert module.is_orthogonal_array is original
    # one explicit call plus the claim check inside bush's ensure_checked
    assert metrics["arrays.is_orthogonal_array.calls"] == 2
    assert metrics["arrays.is_orthogonal_array.cells"] == 2 * 9 * math.comb(4, 2)
    assert metrics["constructions.bush.calls"] == 1
    assert metrics["constructions.bush.distinct"] == 1
    assert metrics["arrays.claims.checked"] >= 1
    names = {spec["name"] for spec in tracing.metric_specs()}
    assert set(metrics) == names - {"trace.overhead_s"}


# --- mutants ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_pool():
    from oaqec.synthesis import theorem_5s2, theorem_s1, theorem_tn
    return [theorem_s1(4, 1, 2), theorem_5s2(3, [3]), theorem_tn(4, 1, 1, [2])]


def test_mutants_repeat_for_a_seed_and_move_one_ket(small_pool):
    first = workloads.make_mutants(small_pool, 7)
    again = workloads.make_mutants(small_pool, 7)
    other = workloads.make_mutants(small_pool, 8)
    assert [m[2] for m in first] == [m[2] for m in again]
    assert [m[2] for m in first] != [m[2] for m in other]
    assert len(first) == workloads.MUTANTS_PER_CODE * len(small_pool)
    for index, (K, d, text, mutant) in enumerate(first):
        code = small_pool[index // workloads.MUTANTS_PER_CODE]
        before = {ket for state in code.basis for ket in state}
        after = {ket for state in mutant.basis for ket in state}
        moved, = after - before
        gone, = before - after
        assert moved not in before
        assert sum(a != b for a, b in zip(moved, gone)) == 1
        assert (K, d) == (code.params.K, code.params.d_plus_1 - 1)


def test_mutate_refuses_a_code_with_no_free_neighbour():
    from oaqec.synthesis import QuantumCode, make_code_params
    params = make_code_params(3, 1, (2, 2, 2), 1)
    full = [tuple((i >> b) & 1 for b in range(3)) for i in range(8)]
    with pytest.raises(ValueError):
        workloads.mutate(QuantumCode(params, [full]), random.Random(0))


# --- output checkers reject wrong results --------------------------------------------


def test_reject_check_fails_a_mutant_that_passes():
    expected = {"pool": 1, "mutants": 4}
    good = {"pool": 1, "verified": 1,
            "results": [(2, False, False, False), (1, True, False, False)] * 2}
    assert workloads.reject_check(good, expected).failed == 0
    for bad_row in [(2, False, True, False),    # reduction checks pass
                    (2, False, False, True),    # array checks pass
                    (2, True, False, False),    # K >= 2 passes definition-5
                    (1, False, False, False)]:  # K = 1 fails definition-5
        bad = dict(good, results=[bad_row] + good["results"][1:])
        outcome = workloads.reject_check(bad, expected)
        assert outcome.failed == 1, bad_row
    short = dict(good, results=good["results"][:3])
    assert workloads.reject_check(short, expected).failed == 4


def construct_output(code_string="((5,1,3))_{9^4 3^1}", rc=0,
                     status="verified", agree="agree"):
    text = (f"result: PASS\nreduction checks: PASS; array checks: PASS "
            f"(parent distance 3, blocks balanced); {agree}\n"
            f"code: {code_string}\ndefect m: 2\nstatus: {status}\n")
    return [("t1 --s 9", rc, text, ""), ("verify f", 0, "result: PASS\n", "")]


def test_construct_check_fails_wrong_exit_code_string_or_route():
    expected = {"jobs": ["t1 --s 9", "verify f"],
                "recipes": {"t1 --s 9": "((5,1,3))_{9^4 3^1}"}}
    ok = workloads.construct_check(construct_output(), expected)
    assert (ok.attempted, ok.failed, ok.verified) == (2, 0, 1)
    unverified = construct_output(status="constructed, unverified")
    assert workloads.construct_check(unverified, expected).verified == 0
    for bad in (construct_output(rc=4),
                construct_output(code_string="((5,1,3))_{9^3 3^2}"),
                construct_output(agree="DISAGREE")):
        assert workloads.construct_check(bad, expected).failed == 1
    failing_fixture = construct_output()[:1] + [("verify f", 4, "result: FAIL\n", "")]
    assert workloads.construct_check(failing_fixture, expected).failed == 1
    assert workloads.construct_check(construct_output()[:1], expected).failed == 2


def test_catalogue_check_fails_a_changed_row_or_a_mismatch():
    rows = [SimpleNamespace(status="matches-published"),
            SimpleNamespace(status="skipped")]
    expected = {"tables": {"I": {"rows": ["matches-published", "skipped"],
                                 "summary": {"matches-published": 1,
                                             "skipped": 1}}}}
    out = {"results": {"I": rows}, "statuses": ["verified"],
           "has_mismatch": False}
    ok = workloads.catalogue_check(out, expected)
    assert (ok.attempted, ok.failed, ok.verified) == (2, 0, 1)
    changed = dict(out, results={"I": [rows[0], SimpleNamespace(status="mismatch")]})
    assert workloads.catalogue_check(changed, expected).failed == 1
    flagged = dict(out, has_mismatch=True)
    assert workloads.catalogue_check(flagged, expected).failed == 2


# --- the BENCHMARK.json contract ------------------------------------------------------


def test_benchmark_json_names_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert spec["per_layer"] == tracing.metric_specs()
    assert len(spec["per_layer"]) <= 128
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "setup_s", "peak_rss_mb", "verified", "passed_frac"}
    expected = json.loads((BENCH / "expected.json").read_text())
    assert set(expected) == set(workloads.NAMES)


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "reject", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
