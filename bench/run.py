"""oaqec benchmark: one run of one workload, end to end or traced.

    python3 bench/run.py --workload {catalogue,construct,reject} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the program under test is always the `src/oaqec` next to
this directory, and every pass runs in a fresh process (bench/worker.py).

--trace 0: passes are repeated until their timed parts add up to S seconds
  (at least one), plus set-up-only processes until SETUP_SAMPLES set-ups
  were measured.  Reports the medians of wall_s, setup_s and peak_rss_mb,
  the `verified` count and passed_frac (1 - failed/attempted).  Times are
  in reference seconds, normalized for CPU speed by bench/probe.py.
--trace 1: one traced pass, then up to PLAIN_SAMPLES untraced passes as
  time allows.  Reports every per-layer metric of bench/tracing.py plus
  trace.overhead_s, the traced wall time minus the untraced median.

Every pass checks its outputs (bench/expected.json).  The last stdout line
is one JSON object {"correct", "attempted", "failed", "metrics"}; the full
record, with machine facts and each pass, goes to bench/out/.  A run whose
checks failed still prints that line, then exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# setup_s is the median of SETUP_SAMPLES set-ups, fewer (but at least
# MIN_SETUP_SAMPLES) when set-up-only processes would take over SETUP_BUDGET_S.
SETUP_SAMPLES = 9
MIN_SETUP_SAMPLES = 3
SETUP_BUDGET_S = 5.0
# A run must end within 180 s; stop starting passes that would cross this.
DEADLINE_S = 170.0
# Untraced passes of a traced run, for the median behind trace.overhead_s.
PLAIN_SAMPLES = 3


def machine_facts() -> dict:
    """Core count, CPU model, Python, numpy, git commit and dirty flag."""
    import numpy
    facts = {"cores": os.cpu_count(),
             "cores_usable": len(os.sched_getaffinity(0)),
             "cpu_model": None,
             "python": platform.python_version(),
             "numpy": numpy.__version__,
             "platform": platform.platform(),
             "git_commit": None, "git_dirty": None}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args],
                                  capture_output=True, text=True,
                                  check=True).stdout.strip()
        try:
            facts["git_commit"] = git("rev-parse", "HEAD")
            facts["git_dirty"] = bool(git("status", "--porcelain"))
        except (OSError, subprocess.CalledProcessError):
            pass
    return facts


class RunFailed(Exception):
    pass


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def spawn(self, *flags: str) -> dict:
        """Run one worker process to completion and return its record."""
        env = dict(os.environ)
        env.pop("PYTHONPATH", None)
        spawned_at = time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--spawned-at", repr(spawned_at), *flags]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT, env=env,
                                  timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            raise RunFailed(f"a {self.workload} pass did not finish within "
                            f"the run's {DEADLINE_S:.0f} s")
        if proc.returncode != 0:
            raise RunFailed(f"worker exited {proc.returncode}:\n"
                            f"{proc.stderr.strip()[-2000:]}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        record["process_s"] = time.monotonic() - spawned_at
        return record


def untraced(runner: Runner, seconds: float) -> tuple[dict, list]:
    passes, setups = [], []
    measured = 0.0
    while not passes or (measured < seconds and
                         runner.remaining() > 2 * passes[-1]["process_s"]):
        record = runner.spawn()
        passes.append(record)
        setups.append(record["setup_s"])
        measured += record["wall_s"]
    spent = 0.0
    while len(setups) < SETUP_SAMPLES and (len(setups) < MIN_SETUP_SAMPLES
                                           or spent < SETUP_BUDGET_S):
        record = runner.spawn("--setup-only")
        setups.append(record["setup_s"])
        spent += record["process_s"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "verified": (min(p["verified"] for p in passes), "count"),
        "passed_frac": (1 - failed / attempted, "frac"),
    }
    return metrics, passes + [{"setup_only_s": s} for s in setups[len(passes):]]


def traced(runner: Runner) -> tuple[dict, list]:
    record = runner.spawn("--trace")
    plain = [runner.spawn()]
    # A pass may take up to 1.5x its predecessor before the deadline cuts it.
    while (len(plain) < PLAIN_SAMPLES and
           runner.remaining() > 1.5 * plain[-1]["process_s"]):
        plain.append(runner.spawn())
    untraced_wall_s = statistics.median(p["wall_s"] for p in plain)
    import tracing
    metrics = {}
    for spec in tracing.metric_specs():
        name = spec["name"]
        if name == "trace.overhead_s":
            value = record["wall_s"] - untraced_wall_s
        else:
            value = record["layers"][name]
        metrics[name] = (value, spec["unit"])
    return metrics, [record, *plain]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="oaqec benchmark, one run")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "oaqec" / "__init__.py").is_file():
        print(f"no oaqec sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            metrics, passes = traced(runner)
        else:
            metrics, passes = untraced(runner, args.seconds)
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    full = [p for p in passes if "attempted" in p]
    attempted = sum(p["attempted"] for p in full)
    failed = sum(p["failed"] for p in full)
    result = {"correct": failed == 0 and all(not p["failures"] for p in full),
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_facts(), "passes": passes, "result": result}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    for p in full:
        for line in p["failures"]:
            print(f"check failed: {line}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
