"""The end-to-end benchmark of the default optimize paths.

    python3 perfbench/run.py --workload scalar-cleanup --seed 1 \\
        --seconds 15 --trace 0

Runs one workload: several fresh processes for the set-up time, then
one measured process (``measure.py``) that runs whole rounds of the
workload's operations for ``--seconds``.  Every output is then checked
here, apart from the measured process.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1`` (the trace itself goes to
``perfbench/out/trace-<workload>.json``).  Names, units and bounds are those of
``BENCHMARK.json``.
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
SRC = ROOT / "src"

#: fresh processes timed for ``setup_s`` (the measured one included)
SETUP_SAMPLES = 5
#: a measured process that runs longer than this is killed
MEASURE_TIMEOUT = 150.0

#: end-to-end metric -> unit (the order of ``BENCHMARK.json``)
END_TO_END = {
    "setup_s": "s",
    "compile_s": "s",
    "op_s.p50": "s",
    "peak_rss_mb": "MB",
    "est_cycles.scalar": "cycles",
    "est_cycles.mp": "cycles",
}
#: per-layer metric -> unit
PER_LAYER = {
    "frontend.s": "s",
    "frontend.quads": "count",
    "codegen.s": "s",
    "codegen.optimizers": "count",
    "analysis.s": "s",
    "analysis.full_rebuilds": "count",
    "analysis.array_pair_tests": "count",
    "analysis.incremental_updates": "count",
    "analysis.edges_retained": "count",
    "analysis.edges_recomputed": "count",
    "match.s": "s",
    "match.candidates_scanned": "count",
    "match.network_tail_runs": "count",
    "match.network_entries_reused": "count",
    "pre.s": "s",
    "act.s": "s",
    "driver.s": "s",
    "transaction.s": "s",
    "transaction.snapshots": "count",
    "ir.clone_s": "s",
    "ir.fingerprint_s": "s",
    "service.queued_s.p50": "s",
    "service.worker_s.p50": "s",
    "service.overhead_s.p50": "s",
    "service.cache_served": "count",
    "driver.applications": "count",
    "driver.rollbacks": "count",
    "driver.capped_runs": "count",
    "ir.quads_out": "count",
    "trace.compile_s": "s",
    "trace.self_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not measure (not: an output was wrong)."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no optimizer sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; have "
              f"{list(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchmarkError as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload and check its outputs; the result object."""
    import workloads

    samples = [] if trace else [
        _measure(workload, 0, 0, 0, setup_only=True)[0]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    setup, measured = _measure(workload, seed, seconds, trace)
    samples.append(setup)

    ops = workloads.make_ops(workload, seed)
    verdicts = _check_rounds(workload, ops, measured["rounds"])
    for op, verdict in zip(ops, verdicts[0]):
        if not verdict.ok:
            print(f"failed: {op.label}: {'; '.join(verdict.problems)}")
    # a verdict that changes between rounds of the same inputs means
    # the run itself cannot be trusted
    correct = all(
        len({round_verdicts[index].ok for round_verdicts in verdicts}) == 1
        for index in range(len(ops))
    )
    attempted = sum(len(round_verdicts) for round_verdicts in verdicts)
    failed = sum(
        not verdict.ok for round_verdicts in verdicts
        for verdict in round_verdicts
    )

    if trace:
        metrics = _per_layer(measured, verdicts)
        units = PER_LAYER
    else:
        metrics = _end_to_end(samples, measured, verdicts)
        units = END_TO_END
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def _measure(workload, seed, seconds, trace, setup_only=False):
    """Start one measured process; the seconds from spawning it until
    it is READY, and its payload."""
    command = [
        sys.executable, str(HERE / "measure.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if setup_only:
        command.append("--setup-only")
    start = time.perf_counter()
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, cwd=ROOT
    )
    try:
        ready = process.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = process.communicate(timeout=MEASURE_TIMEOUT)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise BenchmarkError(f"{workload}: measured process timed out")
    if ready.strip() != "READY" or process.returncode != 0:
        raise BenchmarkError(
            f"{workload}: measured process failed "
            f"(exit {process.returncode})"
        )
    if setup_only:
        return setup, None
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{workload}: measured process printed nothing")
    return setup, json.loads(lines[-1])


# ----------------------------------------------------------------------
# checking
# ----------------------------------------------------------------------
def _check_rounds(workload: str, ops, rounds: list) -> list[list]:
    """A verdict for every op of every round.  Identical outputs of the
    same op are checked once."""
    import workloads

    references = [workloads.reference(op) for op in ops]
    expected: dict = {}
    if workload == "service-batch":
        for op in ops:
            key = (op.source, op.opt_names)
            if key not in expected:
                expected[key] = workloads.in_process_source(op)
    seen: dict = {}
    verdicts = []
    for round_ in rounds:
        if len(round_["ops"]) != len(ops):
            raise BenchmarkError(f"{workload}: a round lost operations")
        round_verdicts = []
        for index, (op, result) in enumerate(zip(ops, round_["ops"])):
            key = (index, result.get("output"), result.get("error"))
            if key not in seen:
                verdict = workloads.check(
                    op, references[index], result.get("output"),
                    result.get("cycles"),
                )
                if result.get("error"):
                    verdict.problems.insert(0, result["error"])
                if expected:
                    source, _capped = expected[(op.source, op.opt_names)]
                    if result.get("output") != source:
                        verdict.problems.append(
                            "service result differs from the in-process "
                            "pipeline on the same job text"
                        )
                seen[key] = verdict
            round_verdicts.append(seen[key])
        verdicts.append(round_verdicts)
    if expected:
        # capped driver runs happen in the workers; the in-process run
        # of the same job is byte-identical, so it counts them
        for round_ in rounds:
            for op, result in zip(ops, round_["ops"]):
                if result.get("ran"):
                    result["counts"]["driver.capped_runs"] = expected[
                        (op.source, op.opt_names)
                    ][1]
    return verdicts


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _end_to_end(samples: list, measured: dict, verdicts: list) -> dict:
    rounds = measured["rounds"]
    return {
        "setup_s": statistics.median(samples),
        "compile_s": statistics.median(r["seconds"] for r in rounds),
        "op_s.p50": statistics.median(
            op["seconds"] for r in rounds for op in r["ops"]
        ),
        "peak_rss_mb": measured["peak_rss_mb"],
        "est_cycles.scalar": sum(v.cycles_scalar for v in verdicts[0]),
        "est_cycles.mp": sum(v.cycles_mp for v in verdicts[0]),
    }


def _per_layer(measured: dict, verdicts: list) -> dict:
    layers = dict.fromkeys(PER_LAYER, 0)
    layers.update(
        {k: v for k, v in measured["layers"].items() if k in PER_LAYER}
    )
    traced = [
        (round_, round_verdicts)
        for round_, round_verdicts in zip(measured["rounds"], verdicts)
        if round_["traced"]
    ]
    round_, round_verdicts = traced[0]
    layers["ir.quads_out"] = sum(v.quads_out for v in round_verdicts)
    layers["driver.capped_runs"] = sum(
        op.get("counts", {}).get("driver.capped_runs", 0)
        for op in round_["ops"]
    )
    return layers


if __name__ == "__main__":
    raise SystemExit(main())
