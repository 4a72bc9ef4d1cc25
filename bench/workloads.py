"""The three benchmark workloads: inputs, the timed part, and output checks.

Each workload has
  setup(seed)              -> inputs           (untimed, counted in setup_s)
  run(inputs, tracer)      -> outputs          (the timed part)
  check(outputs, expected) -> Outcome          (correctness of every item)

Only `reject` uses the seed.  All three go through the package's public
entry points; nothing here reaches into `oaqec` internals.
"""

from __future__ import annotations

import contextlib
import io
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

NAMES = ("catalogue", "construct", "reject")

CATALOGUE_MAX_S = 12

# construct: `oaqec construct --unverified-ok` recipes.  The first is
# ((8,8,4))_{8^7 2^1}, where the reduction checks dominate; the others span
# K=1 (t3 s=49), K=9, K=49 and a t5 column split.
RECIPES = (
    ("t4", "--s", "8", "--d", "3", "--l", "1", "--factors", "2"),
    ("t3", "--s", "49", "--d", "2", "--factors", "7"),
    ("t4", "--s", "9", "--d", "2", "--l", "1", "--factors", "3"),
    ("t4", "--s", "7", "--d", "1", "--l", "2", "--factors", "7"),
    ("t5", "--s", "12", "--d", "1", "--l", "1", "--factors", "2",
     "--q-factors", "6,2"),
)

MUTANTS_PER_CODE = 2


@dataclass
class Outcome:
    """Result of checking one pass: items attempted and failed, plus the
    `verified` count and workload-specific facts for the result file."""

    attempted: int
    failed: int
    verified: int
    failures: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)


def _set_item(tracer, item: str) -> None:
    if tracer is not None:
        tracer.item = item


# --- catalogue -------------------------------------------------------------------


def catalogue_setup(seed: int):
    from oaqec import tables
    return tables


def catalogue_run(tables, tracer=None):
    """`oaqec tables` for every catalogue, with each built code's status.

    `reproduce` keeps only the built parameters, so `build_row` is observed
    (one extra Python call per row) to read each code's status as it is
    built; the code itself is not kept, so memory matches a plain run."""
    statuses: list[str] = []
    build_row = tables.build_row

    def observed(row, *args, **kwargs):
        code = build_row(row, *args, **kwargs)
        statuses.append(code.status())
        return code

    tables.build_row = observed
    try:
        results = {tid: tables.reproduce(tid, max_s=CATALOGUE_MAX_S)
                   for tid in tables.TABLE_IDS}
    finally:
        tables.build_row = build_row
    return {"results": results, "statuses": statuses,
            "has_mismatch": any(tables.has_mismatch(res)
                                for res in results.values())}


def catalogue_summary(results) -> dict:
    return {tid: dict(sorted(Counter(r.status for r in res).items()))
            for tid, res in results.items()}


def catalogue_check(out, expected) -> Outcome:
    failures = []
    attempted = failed = 0
    for tid, want in expected["tables"].items():
        got = out["results"].get(tid, ())
        if len(got) != len(want["rows"]):
            failures.append(f"{tid}: {len(got)} rows, expected {len(want['rows'])}")
        for index, status in enumerate(want["rows"]):
            attempted += 1
            res = got[index] if index < len(got) else None
            if res is None or res.status != status:
                failed += 1
                failures.append(f"{tid} row {index}: "
                                f"{res.status if res else 'missing'}, "
                                f"expected {status}")
    summary = catalogue_summary(out["results"])
    for tid, want in expected["tables"].items():
        if summary.get(tid) != want["summary"]:
            failures.append(f"{tid}: summary {summary.get(tid)} != {want['summary']}")
    if out["has_mismatch"]:
        failures.append("a catalogue reports a mismatch")
    if failures and not failed:
        failed = attempted  # a table-level fault taints every row
    built = len(out["statuses"])
    verified = out["statuses"].count("verified")
    return Outcome(attempted, failed, verified, failures,
                   {"summary": summary, "built": built,
                    "unverified": built - verified})


# --- construct -------------------------------------------------------------------


def construct_setup(seed: int):
    from oaqec import cli, formats
    fixtures = Path(formats.__file__).resolve().parent / "fixtures"
    jobs = [(" ".join(recipe),
             ["construct", "--theorem", *recipe, "--unverified-ok"])
            for recipe in RECIPES]
    jobs += [(f"verify {name}",
              ["verify", "--code", str(fixtures / filename), "--d", str(d)])
             for name, (filename, d) in sorted(formats.FIXTURES.items())]
    return cli, jobs


def construct_run(inputs, tracer=None):
    cli, jobs = inputs
    out = []
    for label, argv in jobs:
        _set_item(tracer, label)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        out.append((label, code, stdout.getvalue(), stderr.getvalue()))
    return out


def construct_check(out, expected) -> Outcome:
    failures = []
    failed = verified = 0
    want_codes = expected["recipes"]
    for label, code, stdout, stderr in out:
        problems = []
        if code != 0:
            problems.append(f"exit {code}: {stderr.strip()[:200]}")
        if "result: PASS" not in stdout:
            problems.append("reduction checks did not PASS")
        if label in want_codes:
            if "; agree\n" not in stdout:
                problems.append("the two verification routes do not agree")
            if f"\ncode: {want_codes[label]}\n" not in stdout:
                problems.append(f"expected code {want_codes[label]}")
            if "\nstatus: verified\n" in stdout:
                verified += 1
        if problems:
            failed += 1
            failures.append(f"{label}: " + "; ".join(problems))
    labels = [label for label, *_ in out]
    missing = [label for label in expected["jobs"] if label not in labels]
    if missing or len(out) != len(expected["jobs"]):
        failures.append(f"jobs ran {labels}, expected {expected['jobs']}")
        failed = len(expected["jobs"])
    return Outcome(len(expected["jobs"]), failed, verified, failures)


# --- reject ----------------------------------------------------------------------


def reject_pool():
    """The 55 emitted codes of acceptance criterion 7: catalogue I rows with
    s in {2,3,4,5,8,9}, the theorem_s1 spot rows, the catalogue IV rows
    without q, and the constructible VI rows with s in {4,8}, d in {1,2}."""
    from oaqec.synthesis import theorem_s1
    from oaqec.tables import NOT_CONSTRUCTIBLE, build_row, expectations
    rows = [r for r in expectations("I") if r.s in (2, 3, 4, 5, 8, 9)]
    pool = [build_row(row) for row in rows]
    pool += [theorem_s1(4, 1, 2), theorem_s1(8, 2, 2),
             theorem_s1(9, 2, 3), theorem_s1(8, 3, 2)]
    rows = [r for r in expectations("IV") if r.q_factors is None]
    rows += [r for r in expectations("VI")
             if r.s in (4, 8) and r.d in (1, 2)
             and r.annotation != NOT_CONSTRUCTIBLE]
    pool += [build_row(row) for row in rows]
    return pool


def mutate(code, rng: random.Random):
    """Copy of the code with one ket moved to an unused neighbouring word
    (one coordinate changed), drawn from rng."""
    from oaqec.synthesis import QuantumCode
    taken = {ket for state in code.basis for ket in state}
    basis = [list(state) for state in code.basis]
    si = rng.randrange(len(basis))
    ki = rng.randrange(len(basis[si]))
    ket = basis[si][ki]
    order = list(range(code.params.n))
    rng.shuffle(order)
    for c in order:
        s = code.params.alphabets[c]
        for delta in range(1, s):
            cand = ket[:c] + ((ket[c] + delta) % s,) + ket[c + 1:]
            if cand not in taken:
                basis[si][ki] = cand
                return QuantumCode(code.params, basis, code.provenance)
    raise ValueError(f"every neighbour of {ket} is already a ket")


def make_mutants(pool, seed: int):
    """MUTANTS_PER_CODE mutants per code as (K, d, ket text, in-memory code)."""
    from oaqec.formats import code_to_ket_text
    rng = random.Random(seed)
    out = []
    for code in pool:
        d = code.params.d_plus_1 - 1
        for _ in range(MUTANTS_PER_CODE):
            mutant = mutate(code, rng)
            out.append((code.params.K, d, code_to_ket_text(mutant), mutant))
    return out


def reject_setup(seed: int):
    pool = reject_pool()
    verified = sum(1 for code in pool if code.status() == "verified")
    return {"mutants": make_mutants(pool, seed), "pool": len(pool),
            "verified": verified}


def reject_run(inputs, tracer=None):
    """Per mutant: `oaqec verify --mode def5` on its ket text, then both
    routes of `cross_validate` on the in-memory mutant."""
    from oaqec.formats import code_from_ket_text
    from oaqec.verify import cross_validate, verify_code
    results = []
    for index, (K, d, text, mutant) in enumerate(inputs["mutants"]):
        _set_item(tracer, f"mutant {index}")
        loaded = code_from_ket_text(text, d)
        def5 = verify_code(loaded, d, "definition-5").passed
        crossed = cross_validate(mutant)
        results.append((K, def5, crossed.quantum_pass,
                        crossed.combinatorial_pass))
    return {"results": results, "pool": inputs["pool"],
            "verified": inputs["verified"]}


def reject_check(out, expected) -> Outcome:
    """Every mutant fails both cross_validate routes; a mutant of a K >= 2
    code fails definition-5 too.  A K=1 mutant passes definition-5 by
    definition (one state has nothing to differ from): counted, and a K=1
    mutant that fails it is a fault."""
    failures = []
    failed = k1_def5_pass = 0
    for index, (K, def5, quantum, combinatorial) in enumerate(out["results"]):
        problems = []
        if quantum:
            problems.append("passes the reduction checks")
        if combinatorial:
            problems.append("passes the array checks")
        if K >= 2 and def5:
            problems.append(f"K={K} mutant passes definition-5")
        if K == 1:
            if def5:
                k1_def5_pass += 1
            else:
                problems.append("K=1 mutant fails definition-5")
        if problems:
            failed += 1
            failures.append(f"mutant {index}: " + "; ".join(problems))
    attempted = len(out["results"])
    if out["pool"] != expected["pool"] or attempted != expected["mutants"]:
        failures.append(f"pool {out['pool']} codes / {attempted} mutants, "
                        f"expected {expected['pool']} / {expected['mutants']}")
        failed = max(attempted, expected["mutants"])
        attempted = failed
    return Outcome(attempted, failed, out["verified"], failures,
                   {"k1_def5_pass": k1_def5_pass,
                    "k2_mutants": sum(1 for K, *_ in out["results"] if K >= 2)})


WORKLOADS = {
    "catalogue": (catalogue_setup, catalogue_run, catalogue_check),
    "construct": (construct_setup, construct_run, construct_check),
    "reject": (reject_setup, reject_run, reject_check),
}
