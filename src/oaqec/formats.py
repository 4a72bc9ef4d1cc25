"""Read and write codes as ket text, structured records and provenance blocks."""
from __future__ import annotations

import json
import re

import numpy as np

from .errors import BadGeometry, ShapeMismatch
from .synthesis import QuantumCode, make_code_params

_KET = re.compile(r"\|([^|>⟩]+)[>⟩]")
_GAP = re.compile(r"[+\s]*")
# a ket's entries: optional-sign decimal integers split by runs of commas
# and whitespace
_ENTRIES = re.compile(r"\s*[+-]?[0-9]+(?:[,\s]+[+-]?[0-9]+)*\s*")
# a state line: kets of entry characters with runs of plus signs and
# whitespace around them (_STATE_SHAPE), and no opener whose entries break
# _ENTRIES (_BAD_KET).  Two passes: _ENTRIES nested in the repeat of kets
# would keep regex state for every ket of the line.
_STATE_SHAPE = re.compile(r"[+\s]*(?:\|[\s,0-9+-]+[>⟩][+\s]*)+")
_BAD_KET = re.compile(rf"\|(?!{_ENTRIES.pattern}[>⟩])")
# in checked state lines a closer ends a ket's row, and a + is a gap or the
# sign of the entry after it, which reads the same without it
_KET_ROWS = str.maketrans({"|": " ", ",": " ", "+": " ", ">": "\n", "⟩": "\n"})
_RECORD_PARAMS = ("n", "K", "d_plus_1", "alphabets", "m", "singleton")


def _well_formed(line: str) -> bool:
    return bool(_STATE_SHAPE.fullmatch(line)) and not _BAD_KET.search(line)


def _state_line_error(line: str) -> ShapeMismatch:
    """What is wrong with a state line that is not _well_formed."""
    parts = _KET.split(line)
    if len(parts) == 1:
        return ShapeMismatch(f"no kets found in line: {line[:60]!r}")
    if not _GAP.fullmatch("".join(parts[::2])):
        return ShapeMismatch(f"text outside the kets in line: {line[:60]!r}")
    bad = next(body for body in parts[1::2] if not _ENTRIES.fullmatch(body))
    return ShapeMismatch("ket entries must be integers separated by commas or "
                         f"whitespace, not {bad[:60]!r}")


def _ket_rows_error(rows: list[str], n: int) -> BadGeometry:
    """Why loadtxt refused the rows of checked kets: the first ket whose
    length is not n when the lengths differ, else an entry outside the int64
    range, the one entry of the grammar it cannot read."""
    lengths = [len(row.split()) for row in rows if row.strip()]
    if len(set(lengths)) > 1:
        return BadGeometry(f"ket length {next(k for k in lengths if k != n)} != {n}")
    return BadGeometry("ket entry outside the int64 range")


def code_to_ket_text(code: QuantumCode) -> str:
    """Serialize a code as a QKET header, an alphabet line and one state per
    line, each state's kets |a,b,...> joined by plus signs."""
    p = code.params
    ket = "|" + ",".join(["{}"] * p.n) + ">"
    state = " + ".join([ket] * code.kets_per_state)
    lines = [f"QKET {p.n} {p.K}", " ".join(map(str, p.alphabets))]
    lines += [state.format(*row) for row in code.kets.reshape(p.K, -1).tolist()]
    return "\n".join(lines) + "\n"


def parse_ket_text(text: str) -> tuple[tuple[int, ...], np.ndarray]:
    """Parse QKET text back into (alphabets, kets): the kets of all states as
    one int64 matrix, shaped (K, kets per state, n) so that kets[i] is state
    i, one row per ket.  Every state line is checked against the ket grammar
    first (ShapeMismatch); then all kets of the text are read in one numpy
    table pass, which refuses ragged kets and entries outside the int64
    range, and states of unequal ket counts are refused (BadGeometry)."""
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines or not lines[0].startswith("QKET"):
        raise ShapeMismatch("ket text must start with a QKET header line")
    try:
        _, n_str, k_str = lines[0].split()
        n, K = int(n_str), int(k_str)
    except ValueError as exc:
        raise ShapeMismatch(f"bad QKET header: {lines[0]!r}") from exc
    if len(lines) < 2:
        raise ShapeMismatch("ket text needs an alphabet line after its QKET header")
    try:
        alphabets = tuple(int(tok) for tok in lines[1].split())
    except ValueError as exc:
        raise ShapeMismatch(f"bad alphabet line: {lines[1]!r}") from exc
    if len(alphabets) != n:
        raise ShapeMismatch(f"{len(alphabets)} alphabet sizes for {n} parties")
    states = lines[2:]
    if not all(map(_well_formed, states)):
        raise _state_line_error(next(ln for ln in states if not _well_formed(ln)))
    if len(states) != K:
        raise ShapeMismatch(f"{len(states)} states for declared dimension {K}")
    if not states:
        return alphabets, np.zeros((0, 0, n), dtype=np.int64)
    rows = "".join(states).translate(_KET_ROWS).splitlines()
    try:
        kets = np.loadtxt(rows, dtype=np.int64, ndmin=2, comments=None)
    except ValueError:
        raise _ket_rows_error(rows, n) from None
    sizes = {line.count("|") for line in states}
    if len(sizes) != 1:
        raise BadGeometry(f"states have unequal ket counts {sorted(sizes)}")
    return alphabets, kets.reshape(K, sizes.pop(), kets.shape[1])


def code_from_ket_text(text: str, d: int) -> QuantumCode:
    """Build a code (without provenance) from QKET text and a claimed distance d+1."""
    alphabets, kets = parse_ket_text(text)
    params = make_code_params(len(alphabets), d, alphabets, len(kets))
    return QuantumCode(params, kets)


def code_record(code: QuantumCode) -> dict:
    """Structured record of the parameters and integer basis of a code."""
    p = code.params
    return {"params": {"n": p.n, "K": p.K, "d_plus_1": p.d_plus_1,
                       "alphabets": list(p.alphabets), "m": p.m,
                       "singleton": p.singleton,
                       "m_range": list(p.m_range)},
            "basis": [code.state(i).tolist() for i in range(p.K)],
            "status": code.status()}


def code_to_record_text(code: QuantumCode) -> str:
    return json.dumps(code_record(code), indent=1) + "\n"


def code_from_record_text(text: str) -> QuantumCode:
    """Rebuild a code from a structured record, re-deriving its parameters."""
    rec = json.loads(text)
    p = rec.get("params") if isinstance(rec, dict) else None
    if not isinstance(p, dict) or "basis" not in rec or not p.keys() >= set(_RECORD_PARAMS):
        raise ShapeMismatch("a code record needs a basis and params with "
                            + ", ".join(_RECORD_PARAMS))
    integers = [p[key] for key in _RECORD_PARAMS if key != "alphabets"]
    if not isinstance(p["alphabets"], list) or not all(
            type(v) is int for v in integers + p["alphabets"]):
        raise ShapeMismatch("code record params must be integers, with "
                            "alphabets a list of integers")
    params = make_code_params(p["n"], p["d_plus_1"] - 1, p["alphabets"], p["K"])
    if params.m != p["m"] or params.singleton != p["singleton"]:
        raise ShapeMismatch("recorded parameters disagree with the recomputed ones")
    return QuantumCode(params, rec["basis"])


def provenance_block(code: QuantumCode) -> str:
    """Human-readable account of how a code was built; an asset ingredient
    names the digest recorded when it was loaded."""
    prov = code.provenance
    lines = [f"code: {code.params.code_string()}",
             f"defect m: {code.params.m} "
             f"(admissible window {list(code.params.m_range)})",
             f"status: {code.status()}"]
    if prov is None:
        lines.append("construction: none recorded (loaded from text)")
        return "\n".join(lines) + "\n"
    lines.append(f"construction: {prov.construction}")
    if prov.parameters:
        lines.append("parameters: " +
                     ", ".join(f"{k}={v}" for k, v in prov.parameters))
    lines.append("ingredients:")
    lines.extend(f"  - {ing}" for ing in prov.ingredients)
    lines.append(f"partition: K={prov.partition.K}, "
                 f"block size {prov.partition.block_size}, "
                 f"strength {prov.t_prime}")
    lines.append(f"distance floor h={prov.h} "
                 f"({'exact' if prov.h_exact else 'lower bound'})")
    for note in prov.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


# --- bundled reference codes -----------------------------------------------------

#: name -> (ket text file in `oaqec/fixtures`, the error count d it is claimed
#: to correct)
FIXTURES = {
    "qmds_4_12_2": ("qmds_4_12_2_12p3_2p1.ket", 1),
    "qmds_5_1_3_12": ("qmds_5_1_3_12p4_2p1.ket", 2),
    "qmds_5_1_3_9": ("qmds_5_1_3_9p4_3p1.ket", 2),
    "qmds_8_8_3": ("qmds_8_8_3_4p3_2p5.ket", 2),
}
