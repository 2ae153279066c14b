"""Steadiness: run the benchmark repeatedly and show each end-to-end
metric's median and quartiles per workload next to its bound.

    python3 perfbench/steady.py --runs 10 --first-seed 1
    python3 perfbench/steady.py --workloads paper-suite --runs 5 --same-seed

Each run gets its own seed (``--first-seed``, the next one, ...) unless
``--same-seed`` repeats the first, which isolates run-to-run noise
from the spread the seeds themselves cause.  The spread is the distance
between the first and third quartile (``statistics.quantiles(n=4)``)
as a share of the median; a metric whose spread exceeds its bound is
marked ``OVER``.  Every run's result is also written as JSON lines to
``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=str(HERE / "out" / "steady.jsonl"))
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    exit_code = 0
    with out.open("a") as log:
        for workload in args.workloads.split(","):
            results = []
            for run in range(args.runs):
                seed = args.first_seed + (0 if args.same_seed else run)
                start = time.perf_counter()
                result = _run_once(workload, seed, args.seconds)
                wall = time.perf_counter() - start
                log.write(json.dumps(
                    {"workload": workload, "seed": seed, "wall_s": wall,
                     **result}
                ) + "\n")
                log.flush()
                results.append(result)
                print(f"{workload} seed {seed} ({wall:.1f} s): "
                      f"{result['failed']}/{result['attempted']} failed, "
                      + ", ".join(
                          f"{name}={metric['value']:.4g}"
                          for name, metric in result["metrics"].items()
                      ), flush=True)
            exit_code |= _report(workload, results, spec["end_to_end"])
    return exit_code


def _run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, check=True
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _report(workload: str, results: list, metrics: list) -> int:
    """Print the table; 1 if a spread exceeds its bound or the failed
    share differs between runs."""
    shares = {
        (result["failed"], result["attempted"]) for result in results
    }
    ratios = {failed / attempted for failed, attempted in shares}
    status = 0 if len(ratios) == 1 else 1
    print(f"\n{workload}: {len(results)} runs, failed share "
          f"{sorted(ratios)}" + ("" if status == 0 else "  UNEQUAL"))
    print(f"  {'metric':<18} {'q1':>12} {'median':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for metric in metrics:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = median
        spread = (q3 - q1) / median if median else float("inf")
        over = metric["name"] != "setup_s" and spread > metric["bound"]
        status |= over
        print(f"  {metric['name']:<18} {q1:>12.5g} {median:>12.5g} "
              f"{q3:>12.5g} {spread:>7.3f} {metric['bound']:>6}"
              + ("  OVER" if over else ""))
    print(flush=True)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
