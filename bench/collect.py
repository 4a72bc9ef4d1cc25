"""Run the benchmark several times and write one BENCH_*.json result file.

    python3 bench/collect.py --runs 10 --out bench/results/BENCH_name.json

For each workload: `--runs` untraced runs, seeds 1, 2, ..., then TRACED
traced runs on seed 1.  The file records every run's
metrics; for each end-to-end metric the median, the quartiles and the spread
(Q3 - Q1) / median; the per-layer metrics of the first traced run; whether
the exact work counts repeated across traced runs; and the machine facts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench_run  # noqa: E402
import workloads  # noqa: E402

# Traced runs per workload; two, so the exact counts can be compared.
TRACED = 2
# Per-layer values that must repeat exactly between traced runs.
EXACT = ("arrays.is_orthogonal_array.cells", "arrays.distance_profile.pairs",
         "verify.verify_code.subsets", "verify.reduced_cross_matrix.calls",
         "constructions.bush.calls", "constructions.bush.distinct")


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          cwd=HERE.parent, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}{proc.stdout[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {"machine": bench_run.machine_facts(),
              "run_seconds": seconds, "workloads": {}}
    for name in workloads.NAMES:
        seeds = range(1, 1 + args.runs)
        runs = []
        for seed in seeds:
            result = one_run(name, seed, seconds, 0)
            runs.append(result)
            print(name, seed, json.dumps({k: round(v["value"], 4) for k, v
                                          in result["metrics"].items()}),
                  flush=True)
        end_to_end = {}
        for metric in bounds:
            stats = summarize([r["metrics"][metric]["value"] for r in runs])
            stats["bound"] = bounds[metric]
            end_to_end[metric] = stats
        traced = [one_run(name, 1, seconds, 1) for _ in range(TRACED)]
        layers = {k: v["value"] for k, v in traced[0]["metrics"].items()}
        repeat = {key: len({t["metrics"][key]["value"] for t in traced}) == 1
                  for key in EXACT}
        report["workloads"][name] = {
            "seeds": list(seeds),
            "correct": all(r["correct"] for r in runs + traced),
            "attempted": sum(r["attempted"] for r in runs + traced),
            "failed": sum(r["failed"] for r in runs + traced),
            "end_to_end": end_to_end,
            "per_layer": layers,
            "exact_counts": {key: layers.get(key) for key in EXACT},
            "exact_counts_repeat": repeat,
        }
        print(name, json.dumps({m: round(s["spread"] or 0, 4)
                                for m, s in end_to_end.items()}),
              "repeat" if all(repeat.values()) else repeat, flush=True)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
