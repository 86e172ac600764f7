"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workloads corpus binpack planted --seeds 1-10 --out runs.json

Runs ``run.py`` once per workload and seed, one run at a time, and prints
per metric the median and the quartile spread (Q3 - Q1) / median over the
seeds, as ``statistics.quantiles(values, n=4)`` gives them.  ``--out``
writes every run's result and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summary(results: list[dict]) -> dict[str, dict[str, float]]:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "spread": (q3 - q1) / median if median else 0.0}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    report = {}
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(SPEC["run_seconds"])]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
            if proc.returncode:
                sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(workload, seed, json.dumps(result), flush=True)
            results.append(result)
        report[workload] = {"runs": results, "summary": summary(results)}
        for name, s in report[workload]["summary"].items():
            print(f"{workload:8s} {name:34s} median {s['median']:12.6g}  spread {s['spread']:.3f}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
