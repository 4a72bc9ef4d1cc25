"""Tests for ket text, structured records, provenance blocks and bundled codes."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import fixture_names, load_fixture, naive_ket_text, parse_state_line
from oaqec.errors import BadGeometry, ShapeMismatch
from oaqec.formats import (
    code_from_ket_text,
    code_from_record_text,
    code_record,
    code_to_ket_text,
    code_to_record_text,
    parse_ket_text,
    provenance_block,
)
from oaqec.synthesis import QuantumCode, build, make_code_params, theorem_s1, theorem_tn
from oaqec.verify import verify_code


# --- ket text ---------------------------------------------------------------


def one_state(line: str, n: int) -> list[list[int]]:
    """The kets of a one-state ket text over n binary parties whose state
    line is `line`."""
    _, states = parse_ket_text(f"QKET {n} 1\n{' '.join(['2'] * n)}\n{line}\n")
    assert len(states) == 1 and states[0].dtype == np.int64
    return states[0].tolist()


def test_state_line_round_trip():
    state = [(0, 1, 2), (3, 0, 1)]
    code = QuantumCode(make_code_params(3, 0, (4, 4, 4), 1), [state])
    line = code_to_ket_text(code).splitlines()[-1]
    assert line == "|0,1,2> + |3,0,1>"
    assert one_state(line, 3) == [[0, 1, 2], [3, 0, 1]]


def test_parse_state_line_accepts_unicode_bracket_and_spaces():
    assert one_state("|0 1 2⟩ + |1,0,0⟩", 3) == [[0, 1, 2], [1, 0, 0]]
    assert one_state("\t|0,1>|1,0> +\t+ |1,1> ", 2) == [[0, 1], [1, 0], [1, 1]]


def test_parse_state_line_needs_at_least_one_ket():
    with pytest.raises(ShapeMismatch, match="no kets found"):
        one_state("nothing here", 2)


@pytest.mark.parametrize("line", ["|0,1> junk |1,0>", "|0,1> + |1,0", "x |0,1>",
                                  "|0,1> + |1,0> ,"],
                         ids=["between", "unterminated", "before", "after"])
def test_parse_state_line_refuses_text_outside_the_kets(line):
    # findall alone kept only |0,1> of each line and dropped the rest
    with pytest.raises(ShapeMismatch, match="text outside the kets"):
        one_state(line, 2)


@pytest.mark.parametrize("line,body", [
    ("|0,x>", "0,x"), ("|,0,1>", ",0,1"), ("|0,1,>", "0,1,"), ("| >", " "),
    ("|0,1> + |+-0,1>", "+-0,1"), ("|0+1>", "0+1"), ("|0,+>", "0,+"),
    ("|1.0,1>", "1.0,1"), ("|1_0,1>", "1_0,1"), ("|١,1>", "١,1"),
], ids=["letter", "leading-comma", "trailing-comma", "blank", "double-sign",
        "inner-sign", "bare-sign", "decimal-point", "underscore", "arabic-indic-digit"])
def test_ket_entries_must_be_signed_decimal_integers(line, body):
    # int() raised a bare ValueError for the first eight and read the last
    # two as 10 and 1; loadtxt would skip the blank ket and read ,0,1 as 0 1
    with pytest.raises(ShapeMismatch) as exc:
        one_state(line, 2)
    assert str(exc.value) == ("ket entries must be integers separated by commas "
                              f"or whitespace, not {body!r}")


def test_a_text_without_states_reads_as_no_states():
    text = "QKET 2 0\n2 2\n"
    alphabets, kets = parse_ket_text(text)
    assert alphabets == (2, 2) and kets.shape == (0, 0, 2) and kets.dtype == np.int64
    with pytest.raises(BadGeometry, match="^a code needs at least one basis state, not K=0$"):
        code_from_ket_text(text, 0)


@pytest.mark.parametrize("line,message", [
    ("|0,1>|0>", "ket length 1 != 2"),
    ("|0,1,1>|0,1>", "ket length 3 != 2"),
    ("|0,9223372036854775808>", "ket entry outside the int64 range"),
    ("|-9223372036854775809,0>", "ket entry outside the int64 range"),
])
def test_ragged_kets_and_entries_past_int64_are_bad_geometry(line, message):
    text = f"QKET 2 1\n2 2\n{line}\n"
    for read in (parse_ket_text, lambda text: code_from_ket_text(text, 0)):
        with pytest.raises(BadGeometry) as exc:
            read(text)
        assert str(exc.value) == message


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
    assert [state.tolist() for state in states] == [[[0, 0], [1, 1]]]


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


def test_ket_text_reads_all_states_into_one_matrix():
    text = "QKET 2 2\n3 3\n|2,2> + |0,1>\n|1,0>|0,0>\n"
    alphabets, kets = parse_ket_text(text)
    assert kets.shape == (2, 2, 2) and kets.dtype == np.int64 and kets.base is not None
    assert kets.tolist() == [[[2, 2], [0, 1]], [[1, 0], [0, 0]]]
    assert code_from_ket_text(text, 0).kets.tolist() == [[0, 0], [1, 0], [0, 1], [2, 2]]


def test_ket_text_refuses_states_of_unequal_ket_counts():
    text = "QKET 2 2\n3 3\n|2,2> + |0,1>\n|1,0>\n"
    for read in (parse_ket_text, lambda text: code_from_ket_text(text, 0)):
        with pytest.raises(BadGeometry, match=r"^states have unequal ket counts \[1, 2\]$"):
            read(text)


def test_ket_text_rejects_out_of_range_symbols():
    with pytest.raises(BadGeometry):
        code_from_ket_text("QKET 2 1\n2 2\n|0,5>\n", 0)


@st.composite
def small_codes(draw):
    """A code of n <= 6 parties over alphabets of up to 300 symbols (so
    uint16 storage and multi-digit entries occur), with K <= 4 states of
    up to 3 distinct kets each."""
    n = draw(st.integers(1, 6), label="n")
    alphabets = draw(st.lists(st.integers(2, 300), min_size=n, max_size=n),
                     label="alphabets")
    words = math.prod(alphabets)
    K = draw(st.integers(1, min(4, words)), label="K")
    block = draw(st.integers(1, min(3, words // K)), label="block")
    kets = draw(st.lists(st.tuples(*(st.integers(0, s - 1) for s in alphabets)),
                         min_size=K * block, max_size=K * block, unique=True),
                label="kets")
    states = [kets[i * block:(i + 1) * block] for i in range(K)]
    return QuantumCode(make_code_params(n, 0, alphabets, K), states)


#: what may stand between two entries, between or around kets, and after a ket
SEPARATORS = (",", " ", "\t", ", ", " ,\t", ",,")
GAPS = ("", " ", " + ", "+", "\t+\t", " ++ ", "+ +")
CLOSERS = (">", "⟩")


def render_state(draw, state) -> str:
    """A state line in a drawn mix of the grammar's spellings: signs and
    leading zeros on entries, comma and whitespace separators, padded
    bodies, both closers and runs of plus signs between the kets."""
    pick = lambda options: draw(st.sampled_from(options))  # noqa: E731
    kets = []
    for ket in state:
        entries = [pick(("", "+", "0")) + str(v) for v in ket]
        body = entries[0] + "".join(pick(SEPARATORS) + entry for entry in entries[1:])
        kets.append("|" + pick(("", " ", "\t")) + body + pick(("", " ")) + pick(CLOSERS))
    return pick(GAPS) + "".join(ket + pick(GAPS) for ket in kets)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_ket_text_agrees_with_the_per_ket_oracles(data):
    code = data.draw(small_codes(), label="code")
    p = code.params
    assert code_to_ket_text(code) == naive_ket_text(code)
    lines = [render_state(data.draw, code.state(i).tolist()) for i in range(p.K)]
    text = "\n".join([f"QKET {p.n} {p.K}", "# a comment", " ".join(map(str, p.alphabets)),
                      "", *lines]) + "\n"
    alphabets, states = parse_ket_text(text)
    assert alphabets == p.alphabets
    assert all(state.dtype == np.int64 for state in states)
    assert [state.tolist() for state in states] == [
        [list(ket) for ket in parse_state_line(line)] for line in lines]
    back = code_from_ket_text(text, 0)
    assert back.params == p and back.kets.dtype == code.kets.dtype
    assert np.array_equal(back.kets, code.kets)


#: `build` arguments of the five `oaqec construct` recipes the benchmark times
CONSTRUCT_RECIPES = [("t4", 8, 3, 1, [2], None), ("t3", 49, 2, 0, [7], None),
                     ("t4", 9, 2, 1, [3], None), ("t4", 7, 1, 2, [7], None),
                     ("t5", 12, 1, 1, [2], [6, 2])]


@pytest.mark.parametrize("source", [*CONSTRUCT_RECIPES, *sorted(
    ["qmds_4_12_2", "qmds_5_1_3_12", "qmds_5_1_3_9", "qmds_8_8_3"])], ids=str)
def test_ket_text_is_byte_identical_to_the_per_ket_writer(source):
    code = load_fixture(source)[0] if isinstance(source, str) else build(*source)
    text = code_to_ket_text(code)
    assert text == naive_ket_text(code)
    back = code_from_ket_text(text, code.params.d_plus_1 - 1)
    assert back.params == code.params and back.kets.dtype == code.kets.dtype
    assert np.array_equal(back.kets, code.kets)


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
