"""The measured process: one user of the optimizer, started fresh.

It sets up as a user's process does (imports, generating the
workload's optimizers from GOSpeL, or starting the service), prints
``READY`` the moment the first operation could start, then makes its
inputs from the seed and runs whole rounds of operations until the
time is up.  The last line of its standard output is one JSON object
with the timings, the outputs (as source text, for the caller to
check) and, when traced, the per-layer numbers.

    python3 perfbench/measure.py --workload paper-suite --seed 1 \\
        --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(1, str(HERE.parent / "src"))

import workloads  # noqa: E402
from tracer import OP, Tracer, self_times  # noqa: E402

#: where a traced run writes ``trace-<workload>.json``
TRACE_DIR = HERE / "out"

clock = time.perf_counter


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="exit right after printing READY (a set-up time sample)",
    )
    args = parser.parse_args(argv)

    # set-up: what a user's process imports before its first operation
    from repro.frontend.lower import parse_program  # noqa: F401
    from repro.frontend.unparse import unparse_program  # noqa: F401
    from repro.genesis.driver import DriverOptions  # noqa: F401
    from repro.genesis.pipeline import optimize  # noqa: F401
    from repro.opts.catalog import standard_optimizers
    from repro.service.client import ServiceClient  # noqa: F401
    from repro.service.job import Job  # noqa: F401

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    service = args.workload == "service-batch"
    client = optimizers = None
    if service:
        client = _start_service()
    else:
        optimizers = standard_optimizers(
            tuple(sorted(set(workloads.PASSES[args.workload])))
        )
    print("READY", flush=True)
    if args.setup_only:
        if client is not None:
            client.close()
        return 0

    setup = {}
    if tracer is not None:
        times = self_times(tracer.spans, {0})
        setup = {
            "codegen.s": times.get("codegen", 0.0),
            "codegen.optimizers": tracer.counts["codegen.optimizers"],
        }
    ops = workloads.make_ops(args.workload, args.seed)
    if service:
        client.close()

        def one_round(base: int) -> dict:
            with _start_service() as fresh:
                return _service_round(fresh, ops, tracer, base)
    else:
        def one_round(base: int) -> dict:
            return _in_process_round(optimizers, ops, tracer, base)

    rounds = []
    deadline = clock() + args.seconds
    if tracer is not None:
        # one untraced round, for the tracing overhead
        tracer.uninstall()
        rounds.append(one_round(len(ops) * len(rounds) + 1))
        tracer.install(optimizers.values() if optimizers else ())
    while True:
        rounds.append(one_round(len(ops) * len(rounds) + 1))
        if clock() >= deadline:
            break
    if tracer is not None:
        tracer.uninstall()
    who = resource.RUSAGE_CHILDREN if service else resource.RUSAGE_SELF
    payload = {
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        payload["layers"] = _layers(tracer, rounds, setup)
        # set-up and the first traced round bound the file's size
        first = next(r for r in rounds if r["traced"])
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(
            TRACE_DIR / f"trace-{args.workload}.json",
            {0} | {op["op"] for op in first["ops"]},
        )
    print(json.dumps(payload))
    return 0


def _start_service():
    """The service as ``genesis serve`` starts it: process backend, no
    catalog generated in this process."""
    from repro.service.client import ServiceClient

    return ServiceClient(
        backend="process", max_workers=workloads.SERVICE_WORKERS
    )


# ----------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------
def _in_process_round(optimizers, ops, tracer, base: int) -> dict:
    """Optimize every op's source once, one after another."""
    from repro.frontend.lower import parse_program
    from repro.frontend.unparse import unparse_program
    from repro.genesis.driver import DriverOptions
    from repro.genesis.pipeline import optimize
    from repro.machine import MULTIPROCESSOR, SCALAR, estimate_time

    traced = tracer is not None and tracer.installed
    results = []
    for index, op in enumerate(ops):
        options = DriverOptions(apply_all=not op.once)
        passes = [optimizers[name] for name in op.opt_names]
        op_id = base + index
        if traced:
            tracer.op = op_id
            span = tracer.open(OP)
        start = clock()
        try:
            program = parse_program(op.source)
            report = optimize(program, passes, options, in_place=True)
        except Exception as error:  # noqa: BLE001 - counted as failed
            seconds = clock() - start
            results.append({"seconds": seconds, "op": op_id,
                            "error": f"{type(error).__name__}: {error}"})
            continue
        finally:
            if traced:
                tracer.close(span)
        seconds = clock() - start
        stats, match = report.analysis_stats, report.match_stats
        results.append({
            "seconds": seconds,
            "op": op_id,
            "output": unparse_program(program, name=program.name),
            # the text form has no DOALL, so estimate the program itself
            "cycles": [estimate_time(program, SCALAR).cycles,
                       estimate_time(program, MULTIPROCESSOR).cycles],
            "counts": {
                "driver.applications": report.total_applications,
                "driver.rollbacks": report.total_rollbacks,
                "driver.capped_runs": workloads.capped_runs(report, options),
                "match.s": sum(r.match_seconds for r in report.results),
                "analysis.full_rebuilds": stats.full_rebuilds,
                "analysis.incremental_updates": stats.incremental_updates,
                "analysis.edges_retained": stats.edges_retained,
                "analysis.edges_recomputed": stats.edges_recomputed,
                "match.candidates_scanned": match.candidates_scanned,
                "match.network_tail_runs": match.network_tail_runs,
                "match.network_entries_reused":
                    match.network_entries_reused,
            },
        })
        del program, report
    return {"seconds": sum(result["seconds"] for result in results),
            "traced": traced,
            "ops": results, "counts": _take_counts(tracer, traced)}


def _service_round(client, ops, tracer, base: int) -> dict:
    """One client, closed loop: keep SERVICE_WORKERS jobs in flight,
    submitting the next as soon as one returns."""
    from repro.genesis.driver import DriverOptions
    from repro.service.job import Job

    traced = tracer is not None and tracer.installed
    service = client.service
    results: list = [None] * len(ops)
    waiting = list(range(len(ops) - 1, -1, -1))
    in_flight: dict[int, tuple[int, float]] = {}
    round_start = clock()
    while waiting or in_flight:
        while waiting and len(in_flight) < workloads.SERVICE_WORKERS:
            index = waiting.pop()
            op = ops[index]
            if traced:
                tracer.op = base + index
            start = clock()
            job = Job.from_source(
                op.source, op.opt_names, DriverOptions(apply_all=True)
            )
            in_flight[client.submit(job)] = (index, start)
        service.pump()
        landed = [
            job_id for job_id in in_flight
            if service.result(job_id) is not None
        ]
        if not landed:
            time.sleep(service.config.poll_interval)
            continue
        now = clock()
        for job_id in landed:
            index, start = in_flight.pop(job_id)
            result = service.result(job_id)
            if traced:
                tracer.record(OP, start, now, base + index)
            ran = not (result.cached or result.coalesced)
            results[index] = {
                "seconds": now - start,
                "op": base + index,
                "output": result.source,
                "error": None if result.ok else str(result),
                "cached": result.cached,
                "ran": ran,
                "queued_s": result.queued_seconds,
                "worker_s": result.elapsed_seconds,
                "counts": {
                    "driver.applications": result.applications if ran else 0,
                    "driver.rollbacks": result.rollbacks if ran else 0,
                },
            }
    return {"seconds": clock() - round_start, "traced": traced,
            "ops": results, "counts": _take_counts(tracer, traced)}


def _take_counts(tracer, traced: bool) -> dict:
    """The tracer's call counters for the round just run, reset."""
    if not traced:
        return {}
    counts = dict(tracer.counts)
    tracer.counts.clear()
    return counts


# ----------------------------------------------------------------------
# per-layer numbers
# ----------------------------------------------------------------------
#: span name -> per-layer metric holding its self time
SPAN_METRICS = {
    "frontend": "frontend.s",
    "analysis": "analysis.s",
    "pre": "pre.s",
    "act": "act.s",
    "driver": "driver.s",
    "transaction": "transaction.s",
    "ir.clone": "ir.clone_s",
    "ir.fingerprint": "ir.fingerprint_s",
}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _layers(tracer: Tracer, rounds: list, setup: dict) -> dict:
    """Per-layer numbers of one traced round (the median round where
    they are times), plus the tracing overhead."""
    traced = [r for r in rounds if r["traced"]]
    per_round = []
    for round_ in traced:
        ops = {op["op"] for op in round_["ops"]}
        times = self_times(tracer.spans, ops)
        layer = {
            metric: times.get(span, 0.0)
            for span, metric in SPAN_METRICS.items()
        }
        layer["trace.self_s"] = sum(
            seconds for name, seconds in times.items() if name != OP
        )
        for op in round_["ops"]:
            for name, value in op.get("counts", {}).items():
                layer[name] = layer.get(name, 0) + value
        for name in ("frontend.quads", "analysis.array_pair_tests",
                     "transaction.snapshots"):
            layer[name] = round_["counts"].get(name, 0)
        ran = [op for op in round_["ops"] if op.get("ran")]
        layer["service.cache_served"] = sum(
            1 for op in round_["ops"] if op.get("cached")
        )
        layer["service.queued_s.p50"] = _median(op["queued_s"] for op in ran)
        layer["service.worker_s.p50"] = _median(op["worker_s"] for op in ran)
        layer["service.overhead_s.p50"] = _median(
            op["seconds"] - op["queued_s"] - op["worker_s"] for op in ran
        )
        layer["trace.compile_s"] = round_["seconds"]
        layer["trace.spans"] = sum(
            1 for span in tracer.spans if span[4] in ops
        )
        per_round.append(layer)
    names = sorted({name for layer in per_round for name in layer})
    layers = {
        name: _median(layer.get(name, 0) for layer in per_round)
        for name in names
    }
    untraced = [r["seconds"] for r in rounds if not r["traced"]]
    layers["trace.overhead_s"] = layers["trace.compile_s"] - _median(untraced)
    layers.update(setup)
    return layers


if __name__ == "__main__":
    raise SystemExit(main())
