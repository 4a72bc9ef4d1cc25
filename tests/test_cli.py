"""Tests for the command-line interface: exit codes, output files, registries."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path
from unittest import mock

import pytest

import oaqec
from oaqec import cli, verify
from oaqec.cli import main
from oaqec.formats import code_from_ket_text, code_from_record_text, code_to_ket_text


def fixture_path(filename):
    return str(resources.files("oaqec.fixtures") / filename)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# --- construct --------------------------------------------------------------


def test_construct_prints_report_and_code(capsys):
    rc, out, err = run(capsys, "construct", "--theorem", "t1", "--s", "2")
    assert rc == 0 and not err
    assert "code ((5,1,3))_{4^1 2^4}" in out
    assert "result: PASS" in out
    assert "agree" in out
    assert "QKET 5 1" in out


def test_construct_writes_file_and_sidecar(tmp_path, capsys):
    out_file = tmp_path / "code.ket"
    rc, out, err = run(capsys, "construct", "--theorem", "t4", "--s", "12",
                       "--d", "1", "--l", "1", "--factors", "2",
                       "--out", str(out_file))
    assert rc == 0
    code = code_from_ket_text(out_file.read_text(), 1)
    assert code.params.code_string() == "((4,12,2))_{12^3 2^1}"
    sidecar = tmp_path / "code.ket.provenance.txt"
    assert "construction:" in sidecar.read_text()


def test_construct_record_format(tmp_path, capsys):
    out_file = tmp_path / "code.json"
    rc, out, err = run(capsys, "construct", "--theorem", "t3", "--s", "9",
                       "--d", "2", "--factors", "3", "--format", "record",
                       "--out", str(out_file))
    assert rc == 0
    code = code_from_record_text(out_file.read_text())
    assert code.params.code_string() == "((5,1,3))_{9^3 3^2}"


def test_construct_composed_split(capsys):
    rc, out, err = run(capsys, "construct", "--theorem", "t5", "--s", "12",
                       "--d", "1", "--l", "1", "--factors", "2",
                       "--q-factors", "6,2")
    assert rc == 0
    assert "((5,12,2))_{12^2 6^1 2^2}" in out


def test_construct_runs_the_reduction_checks_once(capsys):
    calls = []
    real = verify.verify_code

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return real(*args, **kwargs)

    with mock.patch.object(verify, "verify_code", counted), \
            mock.patch.object(cli, "verify_code", counted):
        rc, out, err = run(capsys, "construct", "--theorem", "t4", "--s", "12",
                           "--d", "1", "--l", "1", "--factors", "2")
    assert rc == 0 and "result: PASS" in out and "; agree" in out
    assert calls == [(1, "strict-uniform")]


def test_construct_nine_state_distance_four_code(capsys):
    # ((8,9,4))_{9^7 3^1}: 6561 kets, 92 subsets per reduction check
    rc, out, err = run(capsys, "construct", "--theorem", "t4", "--s", "9",
                       "--d", "3", "--l", "1", "--factors", "3",
                       "--unverified-ok")
    assert rc == 0
    assert "code ((8,9,4))_{9^7 3^1}" in out
    assert "result: PASS" in out
    assert "; agree" in out


def test_construct_missing_ingredient_exits_3(capsys):
    rc, out, err = run(capsys, "construct", "--theorem", "c3", "--s", "6",
                       "--factors", "2")
    assert rc == 3
    assert "ingredient unavailable" in err


def test_construct_usage_errors_exit_2(capsys):
    rc, _, err = run(capsys, "construct", "--theorem", "t3", "--s", "8",
                     "--factors", "2")  # missing --d
    assert rc == 2 and "invalid request" in err
    rc, _, err = run(capsys, "construct", "--theorem", "t1", "--s", "6",
                     "--factors", "2,x")
    assert rc == 2 and "invalid request" in err
    rc, _, err = run(capsys, "construct", "--theorem", "t3", "--s", "9",
                     "--d", "2", "--factors", "2")  # 2 does not divide 9
    assert rc == 2 and "invalid request" in err


def test_construct_unknown_theorem_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--theorem", "t9", "--s", "2"])
    assert exc.value.code == 2


def test_budget_exceeded_build_exits_4_unless_allowed(capsys):
    argv = ["construct", "--theorem", "t3", "--s", "49", "--d", "2",
            "--factors", "7"]
    rc, out, err = run(capsys, *argv)
    assert rc == 4
    assert "result: PASS" in out  # the exact checks still pass
    assert "constructed, unverified" in err
    rc, out, err = run(capsys, *argv, "--unverified-ok")
    assert rc == 0
    assert "accepted via --unverified-ok" in out


# --- verify -----------------------------------------------------------------


def test_verify_bundled_file_passes(capsys):
    rc, out, err = run(capsys, "verify", "--code",
                       fixture_path("qmds_4_12_2_12p3_2p1.ket"), "--d", "1")
    assert rc == 0
    assert "result: PASS" in out


def test_verify_corrupted_file_fails_with_witness(tmp_path, capsys):
    text = (resources.files("oaqec.fixtures") /
            "qmds_4_12_2_12p3_2p1.ket").read_text()
    code = code_from_ket_text(text, 1)
    taken = {k for state in code.basis for k in state}
    basis = [list(state) for state in code.basis]
    ket = basis[0][0]
    for delta in range(1, 12):
        cand = ((ket[0] + delta) % 12,) + ket[1:]
        if cand not in taken:
            basis[0][0] = cand
            break
    from oaqec.synthesis import QuantumCode

    bad = tmp_path / "bad.ket"
    bad.write_text(code_to_ket_text(QuantumCode(code.params, basis)))
    rc, out, err = run(capsys, "verify", "--code", str(bad), "--d", "1")
    assert rc == 4
    assert "result: FAIL" in out
    assert "S=" in out  # at least one rendered witness


def test_verify_record_file(tmp_path, capsys):
    out_file = tmp_path / "code.json"
    assert main(["construct", "--theorem", "c3", "--s", "9", "--factors", "3",
                 "--format", "record", "--out", str(out_file)]) == 0
    capsys.readouterr()
    rc, out, err = run(capsys, "verify", "--code", str(out_file), "--d", "2")
    assert rc == 0 and "result: PASS" in out


def test_verify_modes(tmp_path, capsys):
    single = tmp_path / "one.ket"
    single.write_text("QKET 4 1\n2 2 2 2\n|0,0,0,0>\n")
    rc, out, _ = run(capsys, "verify", "--code", str(single), "--d", "1",
                     "--mode", "def5")
    assert rc == 0 and "definition-5" in out
    rc, out, _ = run(capsys, "verify", "--code", str(single), "--d", "1",
                     "--mode", "strict")
    assert rc == 4 and "strict-uniform" in out


def test_verify_missing_file_exits_2(capsys):
    rc, _, err = run(capsys, "verify", "--code", "/nonexistent.ket", "--d", "1")
    assert rc == 2 and "invalid request" in err


# --- tables -----------------------------------------------------------------


def test_tables_report(capsys):
    rc, out, err = run(capsys, "tables", "--id", "I", "--max-s", "5")
    assert rc == 0
    assert out.startswith("TABLE I: 38 rows")
    assert "summary:" in out


def test_tables_unknown_id_exits_2(capsys):
    rc, _, err = run(capsys, "tables", "--id", "IX")
    assert rc == 2 and "invalid request" in err


# --- assets -----------------------------------------------------------------


def test_assets_list_names_bundled_ingredients(capsys):
    rc, out, err = run(capsys, "assets", "list")
    assert rc == 0
    for name in ("oa_144_5_12_2", "oa_72_5_12_6666", "oa_100_4_10_2",
                 "oa_18_5_6_3333", "oa_8_5_4_2222"):
        assert name in out


def test_assets_verify_recomputes_digests(capsys):
    rc, out, err = run(capsys, "assets", "verify")
    assert rc == 0
    assert "ok" in out


PARITY = "OA 4 3 2\n2 2 2\n0 0 0\n0 1 1\n1 0 1\n1 1 0\n"


def test_assets_add_and_env_pickup(tmp_path, capsys, monkeypatch):
    src = tmp_path / "parity.txt"
    src.write_text(PARITY)
    store = tmp_path / "store"
    store.mkdir()
    rc, out, err = run(capsys, "assets", "add", "--file", str(src),
                       "--name", "oa_4_3_2_parity", "--dir", str(store))
    assert rc == 0 and "oa_4_3_2_parity" in out
    manifest = json.loads((store / "manifest.json").read_text())
    assert manifest["oa_4_3_2_parity"]["r"] == 4
    monkeypatch.setenv("OAQEC_ASSET_DIR", str(store))
    rc, out, err = run(capsys, "assets", "list")
    assert rc == 0 and "oa_4_3_2_parity" in out


def test_assets_add_rejects_wrong_distance(tmp_path, capsys):
    src = tmp_path / "parity.txt"
    src.write_text(PARITY)
    store = tmp_path / "store"
    store.mkdir()
    rc, _, err = run(capsys, "assets", "add", "--file", str(src),
                     "--md", "3", "--dir", str(store))
    assert rc == 4 and "asset corrupt" in err


def test_assets_add_rejects_wrong_strength(tmp_path, capsys):
    src = tmp_path / "parity.txt"
    src.write_text(PARITY)
    store = tmp_path / "store"
    store.mkdir()
    rc, _, err = run(capsys, "assets", "add", "--file", str(src),
                     "--strength", "3", "--dir", str(store))
    assert rc == 4 and "asset corrupt" in err


def test_assets_add_requires_file_and_dir(capsys):
    rc, _, err = run(capsys, "assets", "add")
    assert rc == 2 and "invalid request" in err


@pytest.mark.parametrize("text", [
    "OA 4 3 2\n2 2 2\n0 0 0\n0 1 1\n1 0 2\n1 1 0\n",
    "OA 0 3 2\n2 2 2\n",
], ids=["entry-outside-alphabet", "zero-rows"])
def test_assets_add_rejects_malformed_array_as_usage_error(tmp_path, capsys, text):
    src = tmp_path / "bad.txt"
    src.write_text(text)
    store = tmp_path / "store"
    rc, _, err = run(capsys, "assets", "add", "--file", str(src), "--dir", str(store))
    assert rc == 2 and err.startswith("invalid request: ")
    assert not store.exists()


# --- claim checks under python -O --------------------------------------------------


def run_optimized(args, env=None):
    """Run a Python child with -O (asserts stripped) that imports this oaqec."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = str(Path(oaqec.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-O", *args], capture_output=True,
                          text=True, env=env, timeout=120)


def test_false_strength_claim_exits_4_under_optimize():
    script = """
import sys
from oaqec import cli
from oaqec.arrays import MixedLevelArray, claim

assert sys.flags.optimize

def false_claim(args):
    A = MixedLevelArray([(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)], (2, 2, 2))
    return claim(A, strength=3)

cli._dispatch = false_claim
sys.exit(cli.main(["construct", "--theorem", "t1", "--s", "2"]))
"""
    proc = run_optimized(["-c", script])
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("verification failed: strength 3 claim failed")
    assert "Traceback" not in proc.stderr


def test_false_asset_claim_is_corrupt_under_optimize(tmp_path):
    (tmp_path / "bad.txt").write_text("OA 4 3 3\n2 2 2\n0 0 0\n0 1 1\n1 0 1\n1 1 0\n")
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"bad": {"r": 4, "n": 3, "alphabets": [2, 2, 2], "t": 3, "md": 2,
                 "file": "bad.txt"}}))
    env = dict(os.environ, OAQEC_ASSET_DIR=str(tmp_path))
    proc = run_optimized(["-m", "oaqec.cli", "assets", "verify"], env)
    assert proc.returncode == 4, proc.stdout
    assert proc.stderr.startswith("asset corrupt: bad: strength 3 verification failed")
