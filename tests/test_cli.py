"""Tests for the command-line interface: exit codes, output files, registries."""

from __future__ import annotations

import dataclasses
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

from test_arrays import bounded_projection_sorts
from test_synthesis import FACTOR_FAULTS, FAULT_IDS


def fixture_path(filename):
    return str(resources.files("oaqec.fixtures") / filename)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_the_parser_is_built_once_and_shared_by_every_call(capsys):
    cli.build_parser.cache_clear()
    fixture = fixture_path("qmds_5_1_3_9p4_3p1.ket")
    first = run(capsys, "verify", "--code", fixture, "--d", "2")
    with pytest.raises(SystemExit):
        main(["tables", "--max-s", "2"])
    refused = capsys.readouterr().err
    again = run(capsys, "verify", "--code", fixture, "--d", "2")
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert first == again and first[0] == 0
    assert refused.startswith("usage: oaqec tables ") and "--id" in refused


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


def test_construct_exits_4_when_the_two_routes_disagree(capsys):
    real = verify.cross_validate

    def failing(code):
        return dataclasses.replace(real(code), combinatorial_pass=False,
                                   blocks_balanced=False)

    with mock.patch.object(cli, "cross_validate", failing):
        rc, out, err = run(capsys, "construct", "--theorem", "t4", "--s", "7",
                           "--d", "1", "--l", "2", "--factors", "7")
    assert (rc, err) == (4, "verification FAILED\n")
    assert "code ((5,49,2))_{7^5}  mode strict-uniform" in out and "result: PASS" in out
    assert ("reduction checks: PASS; array checks: FAIL (parent distance 3, "
            "blocks unbalanced); DISAGREE") in out
    assert "construction: prefix-partitioned symmetric array" in out and "QKET 5 49" in out


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


@pytest.mark.parametrize("args,message", [
    (("t3", "--s", "9", "--factors", "3"), "t3 needs --d"),
    (("t3", "--s", "9", "--d", "2", "--factors", "3,3"),
     "t3 needs --factors with exactly one entry"),
    (("c2", "--s", "9", "--d", "1"), "c2 needs --factors"),
    (("t5", "--s", "12", "--d", "1", "--l", "1", "--factors", "2"),
     "t5 needs --q-factors for the column split"),
])
def test_construct_names_the_missing_recipe_flag(capsys, args, message):
    # `build` refuses the recipe; the CLI reports it as before the check moved
    rc, out, err = run(capsys, "construct", "--theorem", *args)
    assert (rc, out, err) == (2, "", f"invalid request: {message}\n")


RECIPE_BASES = {
    "t1": ("--s", "4"),
    "t2": ("--s", "4"),
    "t3": ("--s", "4", "--d", "1"),
    "t4": ("--s", "4", "--d", "1", "--l", "1"),
    "c3": ("--s", "4"),
    "t5": ("--s", "12", "--d", "1", "--l", "1"),
}
# factor lists the builders refuse; the CLI only parses them
BAD_FACTORS = [(theorem, ("--factors", text) + (("--q-factors", "6,2") if theorem == "t5" else ()))
               for theorem in RECIPE_BASES for text in ("1,4", ",", "1")]
BAD_FACTORS += [("t4", ("--factors", "2", "--q-factors", "1,4")),
                ("t4", ("--factors", "2", "--q-factors", ",")),
                ("t5", ("--factors", "2", "--q-factors", "1,12")),
                ("t5", ("--factors", "2", "--q-factors", ","))]


@pytest.mark.parametrize("theorem,factors", BAD_FACTORS,
                         ids=[f"{t}{''.join(f)}" for t, f in BAD_FACTORS])
def test_construct_refuses_bad_factor_lists_with_exit_2(capsys, theorem, factors):
    rc, _, err = run(capsys, "construct", "--theorem", theorem,
                     *RECIPE_BASES[theorem], *factors)
    assert rc == 2 and "invalid request" in err


@pytest.mark.parametrize("theorem,s,d,l,factors,q_factors,error,message",
                         FACTOR_FAULTS, ids=FAULT_IDS)
def test_construct_names_each_factor_fault_with_exit_2(capsys, theorem, s, d, l,
                                                       factors, q_factors, error,
                                                       message):
    argv = ["construct", "--theorem", theorem, "--s", str(s)]
    for flag, value in (("--d", d), ("--l", l or None), ("--factors", factors),
                        ("--q-factors", q_factors)):
        if value is not None:
            argv += [flag, ",".join(map(str, value)) if isinstance(value, list)
                     else str(value)]
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (2, "", f"invalid request: {message}\n")


# flags each theorem leaves unread, with a recipe the theorem would build
UNREAD_FLAGS = [(theorem, base, flag, value)
                for theorem, base in (("t1", ("--s", "3")), ("t2", ("--s", "3")),
                                      ("c3", ("--s", "4", "--factors", "2,2")),
                                      ("t3", ("--s", "4", "--d", "1", "--factors", "2")),
                                      ("c1", ("--s", "4", "--d", "1", "--factors", "2")))
                for flag, value in (("d", "2"), ("l", "1"), ("q-factors", "2,2"))
                if not (flag == "d" and theorem in ("t3", "c1"))]


@pytest.mark.parametrize("theorem,base,flag,value", UNREAD_FLAGS,
                         ids=[f"{t}--{f}" for t, _, f, _ in UNREAD_FLAGS])
def test_construct_refuses_a_flag_its_theorem_does_not_read(capsys, theorem, base,
                                                            flag, value):
    rc, out, err = run(capsys, "construct", "--theorem", theorem, *base,
                       f"--{flag}", value)
    assert rc == 2 and not out
    assert err == f"invalid request: {theorem} does not take --{flag}\n"


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


def test_verify_refuses_a_negative_distance(capsys):
    rc, out, err = run(capsys, "verify", "--code",
                       fixture_path("qmds_4_12_2_12p3_2p1.ket"), "--d", "-1")
    assert (rc, out, err) == (2, "", "invalid request: need d >= 0, got d=-1\n")


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


@pytest.mark.parametrize("record", [
    {"foo": 1},
    {"params": [], "basis": []},
    {"params": {"n": 4, "K": 1, "d_plus_1": 2, "alphabets": [2, 2, 2, 2], "m": 1,
                "singleton": 4, "m_range": [0, 2]}},
    {"params": {"n": 4, "K": 1, "alphabets": [2, 2, 2, 2]}, "basis": []},
    {"params": {"n": 3, "K": 1, "d_plus_1": 2, "alphabets": [2, 2, 2], "m": 1,
                "singleton": 2, "m_range": [0, 1]}, "basis": [[]]},
    {"params": {"n": 3, "K": 0, "d_plus_1": 2, "alphabets": [2, 2, 2], "m": 2,
                "singleton": 2, "m_range": [0, 1]}, "basis": []},
    # a params field of the wrong JSON type ended in a TypeError traceback
    {"params": {"n": "2", "K": 1, "d_plus_1": 1, "alphabets": [2, 2], "m": 3,
                "singleton": 4, "m_range": [0, 2]}, "basis": [[[0, 1]]]},
    {"params": {"n": 2, "K": 1, "d_plus_1": 1, "alphabets": 7, "m": 3,
                "singleton": 4, "m_range": [0, 2]}, "basis": [[[0, 1]]]},
], ids=["no-params", "params-not-object", "no-basis", "params-field-missing",
        "state-without-kets", "no-states", "string-n", "number-alphabets"])
def test_verify_refuses_a_malformed_record_with_exit_2(tmp_path, capsys, record):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(record))
    rc, out, err = run(capsys, "verify", "--code", str(path), "--d", "1")
    assert rc == 2 and out == ""
    assert err.startswith("invalid request: ") and "Error" not in err


@pytest.mark.parametrize("entry,rc", [(0.5, 2), (1.0, 0)], ids=["fraction", "integral"])
def test_verify_refuses_a_record_ket_that_is_not_an_integer(tmp_path, capsys, entry, rc):
    # a truncated 0.5 would make the record the passing single ket |0,1>
    record = {"params": {"n": 2, "K": 1, "d_plus_1": 1, "alphabets": [2, 2], "m": 3,
                         "singleton": 4, "m_range": [0, 2]},
              "basis": [[[entry, 1]]]}
    path = tmp_path / "r.json"
    path.write_text(json.dumps(record))
    got, out, err = run(capsys, "verify", "--code", str(path), "--d", "0")
    assert got == rc
    if rc:
        assert out == "" and err == "invalid request: ket entry 0.5 is not an integer\n"
    else:
        assert "result: PASS" in out


@pytest.mark.parametrize("basis,message", [
    ([[[None, 1]]], "kets must be sequences of 2 integers: entry None is not an integer"),
    ([[["1", 1]]], "kets must be sequences of 2 integers: entry '1' is not an integer"),
    ([[[0, 1], None]], "kets must be sequences of 2 integers"),
    ([None], "a basis must list states, each a list of kets"),
], ids=["null entry", "string entry", "null ket", "null state"])
def test_verify_refuses_a_record_ket_that_is_no_number(tmp_path, capsys, basis, message):
    # int() would read "1" as 1, and None raised a TypeError traceback
    record = {"params": {"n": 2, "K": 1, "d_plus_1": 1, "alphabets": [2, 2], "m": 3,
                         "singleton": 4, "m_range": [0, 2]},
              "basis": basis}
    path = tmp_path / "r.json"
    path.write_text(json.dumps(record))
    rc, out, err = run(capsys, "verify", "--code", str(path), "--d", "0")
    assert (rc, out, err) == (2, "", f"invalid request: {message}\n")


@pytest.mark.parametrize("text,message", [
    ("QKET 2 1\n", "ket text needs an alphabet line after its QKET header"),
    ("QKET 2 1\n2 2\n|0,1> junk |1,0>\n",
     "text outside the kets in line: '|0,1> junk |1,0>'"),
    ("QKET 2 1\n2 2\n|0,1> + |1,0\n", "text outside the kets in line: '|0,1> + |1,0'"),
    ("QKET 2 1\n2 2\n|0,x>\n",
     "ket entries must be integers separated by commas or whitespace, not '0,x'"),
    ("QKET 2 1\n2 2\n|,0,1>\n",
     "ket entries must be integers separated by commas or whitespace, not ',0,1'"),
    ("QKET 2 1\n2 2\n| >\n",
     "ket entries must be integers separated by commas or whitespace, not ' '"),
], ids=["no alphabet line", "text between kets", "unterminated ket", "letter entry",
        "leading comma", "blank ket"])
def test_verify_refuses_malformed_ket_text_with_exit_2(tmp_path, capsys, text, message):
    # the first raised an IndexError (exit 1); the next two parsed as the
    # one-ket code |0,1> and passed at --d 0; the last three quoted int()'s
    # own ValueError
    path = tmp_path / "a.ket"
    path.write_text(text)
    rc, out, err = run(capsys, "verify", "--code", str(path), "--d", "0")
    assert (rc, out, err) == (2, "", f"invalid request: {message}\n")


@pytest.mark.parametrize("name,text,message", [
    ("a.ket", "QKET 2 1\n1 1\n|0,0>\n", "[1, 1]"),
    ("a.ket", "QKET 2 1\n-2 2\n|0,0>\n", "[-2, 2]"),
    ("r.json", json.dumps({"params": {"n": 2, "K": 1, "d_plus_1": 1,
                                      "alphabets": [1, 1], "m": 0, "singleton": 1,
                                      "m_range": [0, 0]},
                           "basis": [[[0, 0]]]}), "[1, 1]"),
], ids=["ket-1", "ket-negative", "record-1"])
def test_verify_refuses_an_alphabet_below_two_with_exit_2(tmp_path, capsys, name, text,
                                                          message):
    # the alphabet-1 codes passed at --d 0; -2 was refused by its bound's sign
    path = tmp_path / name
    path.write_text(text)
    rc, out, err = run(capsys, "verify", "--code", str(path), "--d", "0")
    assert (rc, out) == (2, "")
    assert err == f"invalid request: alphabet sizes must each be at least 2, got {message}\n"


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
    for name in ("oa_144_5_12_2", "oa_72_5_12_6666", "oa_100_4_10_2"):
        assert name in out
    # every registered ingredient is a sha256-pinned file
    assert len(out.splitlines()) == 3 and out.count(" sha256=") == 3


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


def test_external_registry_reaches_the_builders_through_the_environment(
        tmp_path, capsys, monkeypatch):
    # a copy of the bundled OA(100,4,10,2) under a name that sorts first
    bundled = Path(oaqec.__file__).resolve().parent / "assets" / "oa_100_4_10_2.txt"
    store = tmp_path / "store"
    rc, _, _ = run(capsys, "assets", "add", "--file", str(bundled),
                   "--name", "a_100", "--dir", str(store))
    assert rc == 0
    monkeypatch.setenv("OAQEC_ASSET_DIR", str(store))
    rc, out, err = run(capsys, "construct", "--theorem", "t3", "--s", "10",
                       "--d", "2", "--factors", "2", "--unverified-ok")
    assert rc == 0 and not err
    assert "  - OA(100,4,10,2) from asset a_100 (" in out


def test_an_unpinned_external_asset_is_labelled_unhashed(tmp_path, capsys, monkeypatch):
    bundled = Path(oaqec.__file__).resolve().parent / "assets" / "oa_100_4_10_2.txt"
    store = tmp_path / "store"
    store.mkdir()
    (store / "a_100.txt").write_bytes(bundled.read_bytes())
    (store / "manifest.json").write_text(json.dumps(
        {"a_100": {"r": 100, "n": 4, "alphabets": [10] * 4, "t": 2, "md": 3,
                   "file": "a_100.txt"}}))
    monkeypatch.setenv("OAQEC_ASSET_DIR", str(store))
    rc, out, err = run(capsys, "construct", "--theorem", "t3", "--s", "10",
                       "--d", "2", "--factors", "2", "--unverified-ok")
    assert rc == 0 and not err
    assert "  - OA(100,4,10,2) from asset a_100 (unhashed)\n" in out
    assert "builder" not in out


def test_assets_add_rejects_wrong_distance(tmp_path, capsys):
    src = tmp_path / "parity.txt"
    src.write_text(PARITY)
    store = tmp_path / "store"
    store.mkdir()
    rc, _, err = run(capsys, "assets", "add", "--file", str(src),
                     "--md", "3", "--dir", str(store))
    assert rc == 4 and "asset corrupt" in err
    assert err == "asset corrupt: parity: md claim 3 != actual 2\n"
    assert list(store.iterdir()) == []


def test_assets_add_measures_a_wide_array_with_a_large_distance(tmp_path, capsys):
    # 4 x 40, md 20: the projection search hands over to the pair scan
    rows = ["0" * 40, "1" * 40, "0" * 20 + "1" * 20, "1" * 20 + "0" * 20]
    src = tmp_path / "wide.txt"
    src.write_text("OA 4 40 1\n" + " ".join(["2"] * 40) + "\n"
                   + "".join(" ".join(row) + "\n" for row in rows))
    store = tmp_path / "store"
    with bounded_projection_sorts(2):
        rc, out, _ = run(capsys, "assets", "add", "--file", str(src),
                         "--md", "20", "--dir", str(store))
    assert rc == 0 and "OA(4,40) strength 1 MD 20" in out
    assert json.loads((store / "manifest.json").read_text())["wide"]["md"] == 20


def test_assets_add_rejects_wrong_strength(tmp_path, capsys):
    src = tmp_path / "parity.txt"
    src.write_text(PARITY)
    store = tmp_path / "store"
    store.mkdir()
    rc, _, err = run(capsys, "assets", "add", "--file", str(src),
                     "--strength", "3", "--dir", str(store))
    assert rc == 4 and "asset corrupt" in err


@pytest.mark.parametrize("header, flags", [("OA 4 3 2", ("--strength", "0")),
                                           ("OA 4 3 0", ())],
                         ids=["flag", "header"])
def test_assets_add_refuses_strength_zero_and_creates_no_store(tmp_path, capsys,
                                                                header, flags):
    # strength 0 claims nothing, so certifying it would check nothing
    src = tmp_path / "parity.txt"
    src.write_text(PARITY.replace("OA 4 3 2", header))
    store = tmp_path / "store"
    rc, _, err = run(capsys, "assets", "add", "--file", str(src), *flags,
                     "--dir", str(store))
    assert rc == 2 and err == "invalid request: strength must be >= 1, got 0\n"
    assert not store.exists()


def test_assets_add_refuses_to_extend_a_corrupt_manifest(tmp_path, capsys):
    src = tmp_path / "parity.txt"
    src.write_text(PARITY)
    store = tmp_path / "store"
    store.mkdir()
    (store / "manifest.json").write_text('{"x": {"n": 3}}')
    rc, _, err = run(capsys, "assets", "add", "--file", str(src), "--dir", str(store))
    assert rc == 4 and err.startswith("asset corrupt: manifest ")
    assert sorted(path.name for path in store.iterdir()) == ["manifest.json"]


@pytest.mark.parametrize("name", ["../escaped", "a/b"])
def test_assets_add_refuses_a_name_that_leaves_the_store(tmp_path, capsys, name):
    src = tmp_path / "parity.txt"
    src.write_text(PARITY)
    store = tmp_path / "store"
    rc, out, err = run(capsys, "assets", "add", "--file", str(src), "--name", name,
                       "--dir", str(store))
    assert rc == 2 and out == ""
    assert err == f"invalid request: asset name {name!r} is not a plain file name\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["parity.txt"]


def test_assets_add_requires_file_and_dir(capsys):
    rc, _, err = run(capsys, "assets", "add")
    assert rc == 2 and "invalid request" in err


@pytest.mark.parametrize("text", [
    "OA 4 3 2\n2 2 2\n0 0 0\n0 1 1\n1 0 2\n1 1 0\n",
    "OA 0 3 2\n2 2 2\n",
    "OA 4 3 2\n",
    "",
    # the header promises 4 rows, the file holds 6: none of them is dropped
    "OA 4 2 1\n2 2\n0 0\n0 1\n1 0\n1 1\n0 0\n1 1\n",
], ids=["entry-outside-alphabet", "zero-rows", "no-alphabet-line", "empty", "extra-rows"])
def test_assets_add_rejects_malformed_array_as_usage_error(tmp_path, capsys, text):
    src = tmp_path / "bad.txt"
    src.write_text(text)
    store = tmp_path / "store"
    rc, _, err = run(capsys, "assets", "add", "--file", str(src), "--dir", str(store))
    assert rc == 2 and err.startswith("invalid request: ")
    assert not store.exists()


def test_assets_verify_reports_rows_beyond_the_header_count_as_corrupt(tmp_path, capsys,
                                                                       monkeypatch):
    (tmp_path / "long.txt").write_text("OA 4 2 1\n2 2\n0 0\n0 1\n1 0\n1 1\n0 0\n1 1\n")
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"long": {"r": 4, "n": 2, "alphabets": [2, 2], "t": 1, "md": 1,
                  "file": "long.txt"}}))
    monkeypatch.setenv("OAQEC_ASSET_DIR", str(tmp_path))
    rc, _, err = run(capsys, "assets", "verify")
    assert rc == 4
    assert err == "asset corrupt: long: unreadable payload: expected 4 rows, found 6\n"


def test_assets_verify_reports_an_unparsable_payload_as_corrupt(tmp_path, capsys,
                                                               monkeypatch):
    # the header promises 4 rows, the file holds 2
    (tmp_path / "short.txt").write_text("OA 4 3 2\n2 2 2\n0 0 0\n0 1 1\n")
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"short": {"r": 4, "n": 3, "alphabets": [2, 2, 2], "t": 2, "md": 2,
                   "file": "short.txt"}}))
    monkeypatch.setenv("OAQEC_ASSET_DIR", str(tmp_path))
    rc, _, err = run(capsys, "assets", "verify")
    assert rc == 4
    assert err == "asset corrupt: short: unreadable payload: expected 4 rows, found 2\n"


@pytest.mark.parametrize("manifest, detail", [
    ({"x": {"n": 3}}, "entry 'x' lacks or mistypes r, alphabets, t, md, file"),
    ([1], "is not a JSON object"),
    ({"x": {"r": 4, "n": True, "alphabets": [2, 2, 2], "t": 2, "md": 2,
            "file": "x.txt"}}, "entry 'x' lacks or mistypes n"),
    ({"x": {"r": 4, "n": 3, "alphabets": [2, "2", 2], "t": 2, "md": 2,
            "file": "x.txt"}}, "entry 'x' lacks or mistypes alphabets"),
    ({"x": 7}, "entry 'x' lacks or mistypes r, n, alphabets, t, md, file"),
    ({"x": {"r": 4, "n": 3, "alphabets": [2, 2, 2], "t": 2, "md": 2,
            "file": "x.txt", "sha256": 12345}}, "entry 'x' lacks or mistypes sha256"),
    ({"x": {"r": 4, "n": 3, "alphabets": [2, 2, 2], "t": 2, "md": 2,
            "file": "../x.txt"}}, "entry 'x' file '../x.txt' is not a plain file name"),
    ({"x": {"r": 4, "n": 3, "alphabets": [2, 2, 2], "t": 2, "md": 2,
            "file": "/etc/hostname"}},
     "entry 'x' file '/etc/hostname' is not a plain file name"),
    ({"x": {"r": 4, "n": 3, "alphabets": [2, 2, 2], "t": 2, "md": 2,
            "file": "sub/x.txt"}}, "entry 'x' file 'sub/x.txt' is not a plain file name"),
    # a strength-0 entry would load its payload without a strength check
    ({"x": {"r": 4, "n": 2, "alphabets": [2, 2], "t": 0, "md": 0,
            "file": "x.txt"}}, "entry 'x' has strength 0, not >= 1"),
], ids=["missing-fields", "not-an-object", "bool-count", "string-alphabet",
        "entry-not-object", "number-sha256", "parent-file", "absolute-file", "nested-file",
        "zero-strength"])
def test_assets_list_reports_a_malformed_manifest_as_corrupt(tmp_path, capsys, monkeypatch,
                                                             manifest, detail):
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    monkeypatch.setenv("OAQEC_ASSET_DIR", str(tmp_path))
    rc, out, err = run(capsys, "assets", "list")
    assert rc == 4 and out == ""
    assert err.startswith("asset corrupt: manifest ") and err.endswith(f"{detail}\n")


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
from oaqec.arrays import MixedLevelArray, claim, ensure_checked

assert sys.flags.optimize

def false_claim(args):
    A = MixedLevelArray([(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)], (2, 2, 2))
    return ensure_checked(claim(A, strength=3))

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
    assert proc.stderr.startswith("asset corrupt: bad: strength 3 claim failed")
