"""Read and write codes as ket text, structured records and provenance blocks."""
from __future__ import annotations

import json
import re
from importlib import resources

from .errors import ShapeMismatch
from .synthesis import QuantumCode, make_code_params

_KET = re.compile(r"\|([^|>⟩]+)[>⟩]")
_SEP = re.compile(r"[,\s]+")
_GAP = re.compile(r"[+\s]*")
_RECORD_PARAMS = ("n", "K", "d_plus_1", "alphabets", "m", "singleton")


def state_to_line(state) -> str:
    """One basis state as |a,b,...> kets joined by plus signs."""
    return " + ".join("|" + ",".join(map(str, ket)) + ">" for ket in state)


def parse_state_line(line: str) -> list[tuple[int, ...]]:
    """Parse a superposition line; ket entries split on commas or whitespace,
    and only plus signs and whitespace may stand between the kets."""
    parts = _KET.split(line)
    if len(parts) == 1:
        raise ShapeMismatch(f"no kets found in line: {line[:60]!r}")
    if not _GAP.fullmatch("".join(parts[::2])):
        raise ShapeMismatch(f"text outside the kets in line: {line[:60]!r}")
    return [tuple(map(int, _SEP.split(body.strip()))) for body in parts[1::2]]


def code_to_ket_text(code: QuantumCode) -> str:
    """Serialize a code as a QKET header, an alphabet line and one state per line."""
    p = code.params
    lines = [f"QKET {p.n} {p.K}", " ".join(str(s) for s in p.alphabets)]
    lines.extend(state_to_line(code.state(i).tolist()) for i in range(p.K))
    return "\n".join(lines) + "\n"


def parse_ket_text(text: str) -> tuple[tuple[int, ...], list[list[tuple[int, ...]]]]:
    """Parse QKET text back into (alphabets, basis states)."""
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
    states = [parse_state_line(ln) for ln in lines[2:]]
    if len(states) != K:
        raise ShapeMismatch(f"{len(states)} states for declared dimension {K}")
    return alphabets, states


def code_from_ket_text(text: str, d: int) -> QuantumCode:
    """Build a code (without provenance) from QKET text and a claimed distance d+1."""
    alphabets, states = parse_ket_text(text)
    params = make_code_params(len(alphabets), d, alphabets, len(states))
    return QuantumCode(params, states)


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

FIXTURES = {
    "qmds_4_12_2": ("qmds_4_12_2_12p3_2p1.ket", 1),
    "qmds_5_1_3_12": ("qmds_5_1_3_12p4_2p1.ket", 2),
    "qmds_5_1_3_9": ("qmds_5_1_3_9p4_3p1.ket", 2),
    "qmds_8_8_3": ("qmds_8_8_3_4p3_2p5.ket", 2),
}


def fixture_names() -> list[str]:
    return sorted(FIXTURES)


def load_fixture(name: str) -> tuple[QuantumCode, int]:
    """A bundled reference code and the error count d it is claimed to correct."""
    filename, d = FIXTURES[name]
    text = (resources.files("oaqec.fixtures") / filename).read_text()
    return code_from_ket_text(text, d), d
