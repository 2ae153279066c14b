"""The benchmark's own tests: output form, miscompile detection, trace.

    python3 -m pytest perfbench -q

They run the real command on one round of each workload (about two
minutes on a 2-CPU machine).
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(1, str(ROOT / "src"))

import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import OP, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def check_form(result: dict, trace: int) -> list[str]:
    """What is wrong with one result line, against ``BENCHMARK.json``."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if not isinstance(result.get("correct"), bool):
        problems.append("correct is not a boolean")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not (isinstance(attempted, int) and attempted >= 1):
        problems.append(f"attempted {attempted!r}")
    if not (isinstance(failed, int) and 0 <= failed <= (attempted or 0)):
        problems.append(f"failed {failed!r}")
    declared = {
        metric["name"]: metric["unit"]
        for metric in SPEC["per_layer" if trace else "end_to_end"]
    }
    metrics = result.get("metrics", {})
    for name in sorted(set(declared) - set(metrics)):
        problems.append(f"missing metric {name}")
    for name in sorted(set(metrics) - set(declared)):
        problems.append(f"undeclared metric {name}")
    for name in sorted(set(declared) & set(metrics)):
        metric = metrics[name]
        if set(metric) != {"value", "unit"}:
            problems.append(f"{name}: keys {sorted(metric)}")
        if metric.get("unit") != declared[name]:
            problems.append(f"{name}: unit {metric.get('unit')!r}")
        value = metric.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{name}: value {value!r}")
    return problems


def _run(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results() -> dict:
    return {
        (workload["name"], trace): _run(workload["name"], trace)
        for workload in SPEC["workloads"]
        for trace in (0, 1)
    }


def test_declared_workloads_are_the_commands():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", (0, 1))
def test_every_workload_prints_the_declared_form(results, trace):
    for workload in SPEC["workloads"]:
        result = results[(workload["name"], trace)]
        assert check_form(result, trace) == [], workload["name"]
        assert result["correct"] is True


def test_only_the_named_faults_fail(results):
    for (workload, trace), result in results.items():
        if workload in ("scalar-cleanup", "service-batch"):
            assert result["failed"] == 0, (workload, trace)
    # tridiag, once per round of nine; the overflowing large program
    paper = results[("paper-suite", 0)]
    assert paper["failed"] * 9 == paper["attempted"]
    large = results[("large-once", 0)]
    assert large["failed"] == large["attempted"]


@pytest.mark.parametrize("change", ["missing", "extra", "renamed", "unit",
                                    "counts"])
def test_the_form_check_catches_a_changed_output(results, change):
    result = copy.deepcopy(results[("paper-suite", 0)])
    metrics = result["metrics"]
    if change == "missing":
        del metrics["compile_s"]
    elif change == "extra":
        metrics["compile_s.p99"] = dict(metrics["compile_s"])
    elif change == "renamed":
        metrics["compile_seconds"] = metrics.pop("compile_s")
    elif change == "unit":
        metrics["peak_rss_mb"]["unit"] = "KB"
    else:
        del result["attempted"]
    assert check_form(result, 0)


def test_a_miscompile_counts_as_failed():
    """BROKEN_DCE also deletes statements whose value a later iteration
    reads; on gauss that changes the written values, and the checks the
    benchmark applies must count the operation as failed, while the
    sound DCE passes them."""
    from repro.frontend.lower import parse_program
    from repro.frontend.unparse import unparse_program
    from repro.genesis.pipeline import optimize
    from repro.opts.catalog import standard_optimizers
    from repro.verify.fixtures import broken_optimizer

    [op] = [op for op in workloads.make_ops("paper-suite", 7)
            if op.label == "gauss"]
    outputs = []
    for optimizer in (broken_optimizer("BROKEN_DCE"),
                      standard_optimizers(("DCE",))["DCE"]):
        program = parse_program(op.source)
        optimize(program, [optimizer], in_place=True)
        outputs.append({"output": unparse_program(program, name=program.name)})
    verdicts = run._check_rounds(
        "paper-suite", [op], [{"ops": [output]} for output in outputs]
    )
    broken, sound = (round_verdicts[0] for round_verdicts in verdicts)
    assert broken.problems == ["write trace differs"]
    assert sound.ok


@pytest.mark.parametrize("workload", ["paper-suite", "service-batch"])
def test_trace_file_nests_and_self_times_fit(results, workload):
    layers = {
        name: metric["value"]
        for name, metric in results[(workload, 1)]["metrics"].items()
    }
    trace = json.loads((measure.TRACE_DIR / f"trace-{workload}.json").read_text())
    events = trace["traceEvents"]
    assert events
    for event in events:
        assert event["ph"] == "X"
        assert {"name", "ts", "dur", "pid", "tid"} <= set(event)
        assert event["dur"] >= 0
    by_id = {event["args"]["id"]: event for event in events}
    slack = 1e-3  # microseconds, for float rounding
    for event in events:
        parent = event["args"]["parent"]
        if parent < 0:
            continue
        outer = by_id[parent]
        assert outer["args"]["op"] == event["args"]["op"]
        assert outer["ts"] <= event["ts"] + slack
        assert event["ts"] + event["dur"] <= outer["ts"] + outer["dur"] + slack
    ops: dict[int, list] = {}
    for event in events:
        if event["args"]["op"]:
            ops.setdefault(event["args"]["op"], []).append(event)
    assert ops
    for op, spans in ops.items():
        [whole] = [span for span in spans if span["name"] == OP]
        for span in spans:
            assert whole["ts"] <= span["ts"] + slack, op
            assert (span["ts"] + span["dur"]
                    <= whole["ts"] + whole["dur"] + slack), op
    # the traced round's layer self times fit inside its compile time
    spans = [
        [e["name"], e["ts"] / 1e6, (e["ts"] + e["dur"]) / 1e6,
         e["args"]["parent"], e["args"]["op"]]
        for e in sorted(events, key=lambda e: e["args"]["id"])
    ]
    index = {e["args"]["id"]: i for i, e in enumerate(
        sorted(events, key=lambda e: e["args"]["id"]))}
    for span in spans:
        span[3] = index.get(span[3], -1)
    times = self_times(spans, set(ops))
    layer_sum = sum(seconds for name, seconds in times.items() if name != OP)
    assert layer_sum <= layers["trace.compile_s"] + 1e-6
    assert layers["trace.self_s"] <= layers["trace.compile_s"] + 1e-6
    reported = sum(layers[metric] for metric in
                   ("frontend.s", "analysis.s", "pre.s", "act.s", "driver.s",
                    "transaction.s", "ir.clone_s", "ir.fingerprint_s"))
    assert reported <= layers["trace.compile_s"] + 1e-6
