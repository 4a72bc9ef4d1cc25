"""One pass of one workload, in a fresh process.

Started by run.py, never by hand: field and Bush tables start cold, as they
do for a user's CLI call, and the process's peak RSS belongs to this pass
alone.  Prints one JSON line with the pass's measurements.

    python3 bench/worker.py --workload W --seed N --spawned-at T
        [--setup-only] [--trace]

A traced pass writes its spans to bench/out/<workload>-seed<N>-trace1.spans.jsonl.

--spawned-at is the parent's time.monotonic() just before it started this
process, so setup_s covers interpreter start, import and input generation.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from probe import SpeedProbe  # noqa: E402

# Probe intervals: set-up is short, so it is sampled more densely.
SETUP_PROBE_S = 0.01
RUN_PROBE_S = 0.05


def _check_import_location() -> None:
    import oaqec
    where = Path(oaqec.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"oaqec imported from {where}, not from {SRC}")


def main(setup_probe: SpeedProbe, argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    setup, run, check = workloads.WORKLOADS[args.workload]
    inputs = setup(args.seed)
    raw_setup_s = time.monotonic() - args.spawned_at
    setup_s = setup_probe.stop().normalize(raw_setup_s)
    _check_import_location()
    times = {"setup_s": setup_s, "raw_setup_s": raw_setup_s}
    if args.setup_only:
        print(json.dumps(times))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer().install()
    probe = SpeedProbe(RUN_PROBE_S).start()
    start = time.perf_counter()
    out = run(inputs, tracer)
    raw_wall_s = time.perf_counter() - start
    wall_s = probe.stop().normalize(raw_wall_s)
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    expected = json.loads((HERE / "expected.json").read_text())
    outcome = check(out, expected[args.workload])
    record = {**times, "wall_s": wall_s, "raw_wall_s": raw_wall_s,
              "probes": len(probe.samples), "peak_rss_mb": peak_rss_mb,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "verified": outcome.verified,
              "failures": outcome.failures[:20], "facts": outcome.facts}
    if tracer is not None:
        record["layers"] = tracer.metrics()
        record["spans"] = len(tracer.spans)
        _write_spans(HERE / "out" / f"{args.workload}-seed{args.seed}"
                     "-trace1.spans.jsonl", tracer.spans)
    print(json.dumps(record))
    return 0


def _write_spans(path: Path, spans) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for index, (name, start, end, parent, item) in enumerate(spans):
            fh.write(json.dumps([index, name, start, end, parent, item]) + "\n")


if __name__ == "__main__":
    sys.exit(main(SpeedProbe(SETUP_PROBE_S).start()))
