"""Tests for ket text, structured records, provenance blocks and bundled codes."""

from __future__ import annotations

import json

import pytest

from oaqec.errors import ShapeMismatch
from oaqec.formats import (
    code_from_ket_text,
    code_from_record_text,
    code_record,
    code_to_ket_text,
    code_to_record_text,
    fixture_names,
    load_fixture,
    parse_ket_text,
    parse_state_line,
    provenance_block,
    state_to_line,
)
from oaqec.synthesis import theorem_s1, theorem_tn
from oaqec.verify import verify_code


# --- ket text ---------------------------------------------------------------


def test_state_line_round_trip():
    state = [(0, 1, 2), (3, 0, 1)]
    line = state_to_line(state)
    assert line == "|0,1,2> + |3,0,1>"
    assert parse_state_line(line) == state


def test_parse_state_line_accepts_unicode_bracket_and_spaces():
    assert parse_state_line("|0 1 2⟩ + |1,0,0⟩") == [(0, 1, 2), (1, 0, 0)]
    assert parse_state_line("\t|0,1>|1,0> +\t+ |1,1> ") == [(0, 1), (1, 0), (1, 1)]


def test_parse_state_line_needs_at_least_one_ket():
    with pytest.raises(ShapeMismatch):
        parse_state_line("nothing here")


@pytest.mark.parametrize("line", ["|0,1> junk |1,0>", "|0,1> + |1,0", "x |0,1>",
                                  "|0,1> + |1,0> ,"],
                         ids=["between", "unterminated", "before", "after"])
def test_parse_state_line_refuses_text_outside_the_kets(line):
    # findall alone kept only |0,1> of each line and dropped the rest
    with pytest.raises(ShapeMismatch, match="text outside the kets"):
        parse_state_line(line)


def test_ket_text_round_trip_on_driver_output():
    code = theorem_tn(8, 1, 1, [2])
    text = code_to_ket_text(code)
    assert text.startswith(f"QKET {code.params.n} {code.params.K}\n")
    back = code_from_ket_text(text, 1)
    assert back.basis == code.basis
    assert back.params == code.params
    assert back.provenance is None


def test_ket_text_round_trip_on_all_bundled_codes():
    for name in fixture_names():
        code, d = load_fixture(name)
        back = code_from_ket_text(code_to_ket_text(code), d)
        assert back.basis == code.basis and back.params == code.params


def test_parse_ket_text_ignores_comments_and_blank_lines():
    text = "# comment\nQKET 2 1\n\n2 2\n# another\n|0,0> + |1,1>\n"
    alphabets, states = parse_ket_text(text)
    assert alphabets == (2, 2)
    assert states == [[(0, 0), (1, 1)]]


@pytest.mark.parametrize("text", [
    "2 2\n|0,0>\n",                      # missing header
    "QKET two 1\n2 2\n|0,0>\n",          # malformed header
    "QKET 3 1\n2 2\n|0,0>\n",            # alphabet count disagrees with n
    "QKET 2 2\n2 2\n|0,0> + |1,1>\n",    # state count disagrees with K
    "QKET 2 1\n",                        # no alphabet line
    "QKET 2 2\nx 2\n|0,0>\n|1,1>\n",       # alphabet token not an integer
    "QKET 1 1\n|0>\n",                   # a state line read as the alphabet line
])
def test_parse_ket_text_rejects_malformed_input(text):
    with pytest.raises(ShapeMismatch):
        parse_ket_text(text)


def test_ket_text_rejects_out_of_range_symbols():
    from oaqec.errors import BadGeometry

    with pytest.raises(BadGeometry):
        code_from_ket_text("QKET 2 1\n2 2\n|0,5>\n", 0)


# --- structured records --------------------------------------------------------


def test_record_round_trip():
    code = theorem_s1(9, 2, 3)
    rec = code_record(code)
    assert rec["params"]["n"] == 5 and rec["params"]["K"] == 1
    assert rec["status"] == "verified"
    back = code_from_record_text(code_to_record_text(code))
    assert back.basis == code.basis and back.params == code.params


def test_record_text_is_json():
    code = theorem_tn(8, 1, 1, [2])
    rec = json.loads(code_to_record_text(code))
    assert rec["params"]["m"] == code.params.m
    assert len(rec["basis"]) == code.params.K


@pytest.mark.parametrize("key,value", [("n", "2"), ("alphabets", 7), ("K", True),
                                       ("m", 3.0), ("alphabets", [2, "2"])])
def test_record_params_of_the_wrong_json_type_are_rejected(key, value):
    rec = code_record(theorem_tn(8, 1, 1, [2]))
    rec["params"][key] = value
    with pytest.raises(ShapeMismatch, match="params must be integers"):
        code_from_record_text(json.dumps(rec))


def test_tampered_record_is_rejected():
    code = theorem_tn(8, 1, 1, [2])
    rec = json.loads(code_to_record_text(code))
    rec["params"]["m"] += 1
    with pytest.raises(ShapeMismatch):
        code_from_record_text(json.dumps(rec))


# --- provenance blocks -----------------------------------------------------------


def test_provenance_block_for_driver_output():
    code = theorem_tn(12, 1, 1, [2])
    block = provenance_block(code)
    assert block.startswith("code: ((4,12,2))_{12^3 2^1}\n")
    assert "status: verified" in block
    assert "construction:" in block and "ingredients:" in block
    assert "partition: K=12" in block
    assert "distance floor h=2 (exact)" in block


def test_provenance_block_carries_asset_digest():
    from oaqec.constructions import asset_records

    code = theorem_tn(12, 1, 1, [2])
    block = provenance_block(code)
    assert "asset oa_144_5_12_2" in block
    assert asset_records()["oa_144_5_12_2"].sha256[:16] in block


def test_provenance_block_prints_the_digest_recorded_at_load():
    from oaqec.constructions import asset_records
    from oaqec.synthesis import Provenance, QuantumCode, theorem_52s

    code = theorem_52s(6, [6])
    digest = asset_records()["oa_72_5_12_6666"].sha256[:16]
    assert code.provenance.ingredients[0] == f"asset oa_72_5_12_6666 (sha256 {digest})"
    assert f"  - asset oa_72_5_12_6666 (sha256 {digest})\n" in provenance_block(code)
    # the block prints ingredients as recorded: it reads no registry
    prov = code.provenance
    bare = Provenance(construction=prov.construction, parameters=prov.parameters,
                      ingredients=("asset oa_72_5_12_6666",),
                      partition=prov.partition, h=prov.h)
    block = provenance_block(QuantumCode(code.params, code.basis, bare))
    assert "  - asset oa_72_5_12_6666\n" in block and digest not in block


def test_provenance_block_without_provenance():
    code, _ = load_fixture("qmds_4_12_2")
    block = provenance_block(code)
    assert "none recorded (loaded from text)" in block


# --- bundled codes ----------------------------------------------------------------


def test_four_bundled_codes_are_listed():
    assert fixture_names() == [
        "qmds_4_12_2", "qmds_5_1_3_12", "qmds_5_1_3_9", "qmds_8_8_3"]


@pytest.mark.parametrize("name,n,K,d,alphabets", [
    ("qmds_4_12_2", 4, 12, 1, (12, 12, 12, 2)),
    ("qmds_5_1_3_12", 5, 1, 2, (12, 12, 12, 12, 2)),
    ("qmds_5_1_3_9", 5, 1, 2, (9, 9, 9, 9, 3)),
    ("qmds_8_8_3", 8, 8, 2, (4, 4, 4, 2, 2, 2, 2, 2)),
])
def test_bundled_code_shapes(name, n, K, d, alphabets):
    code, claimed_d = load_fixture(name)
    p = code.params
    assert claimed_d == d
    assert (p.n, p.K, p.d_plus_1) == (n, K, d + 1)
    assert tuple(sorted(p.alphabets, reverse=True)) == alphabets
    assert verify_code(code, d).passed
