"""The four workloads: their inputs, made from a seed, and the checks
every output must pass.

An operation is one program given as mini-Fortran source text and the
optimization sequence to run over it.  Its output is the optimized
program, as source text.  A check compares that output against things
made apart from the optimizer: the write trace of the reference
interpreter running the *unoptimized* program, ``validate_program``,
and a property the method must have (the scalar pipeline never grows a
program; a ``--once`` DCE run removes exactly one statement).

``repro`` is imported inside the functions, so that importing this
module adds nothing to the measured process's set-up time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

#: The ten-pass scalar pipeline: two cleanup rounds plus a final sweep.
SCALAR_PIPELINE = ("CTP", "CFO", "CPP", "DCE") * 2 + ("CTP", "DCE")
#: The paper-suite chain: scalar cleanup, loop transformations, cleanup.
CHAINED_PIPELINE = (
    "CTP", "CFO", "CPP", "DCE", "ICM", "INX", "CRC", "BMP", "PAR", "LUR",
    "FUS", "CTP", "CPP", "DCE",
)
#: ``genesis optimize``/``submit``/``batch`` default sequence.
CLI_PIPELINE = ("CTP", "CFO", "DCE")
#: A loop pipeline for service jobs.
LOOP_PIPELINE = ("CTP", "ICM", "INX", "FUS", "PAR", "DCE")

#: Pipelines that only clean up scalars: they never grow a program.
SCALAR_ONLY = {SCALAR_PIPELINE, CLI_PIPELINE}

#: scalar-cleanup: programs per round and generator size (~300 quads)
CLEANUP_PROGRAMS = 8
CLEANUP_SIZE = 200
#: large-once: one fixed program, its seed drawn once
LARGE_SEED = 599
LARGE_QUADS = 20_000
#: paper-suite leaves jacobian out for run length (LUR alone ~180 s)
PAPER_SKIP = ("jacobian",)
#: service-batch: the service's process backend and its width
SERVICE_WORKERS = 2

#: each workload's passes, generated at set-up (service-batch generates
#: none: every forked worker generates its own, as ``genesis serve`` does)
PASSES = {
    "scalar-cleanup": SCALAR_PIPELINE,
    "paper-suite": CHAINED_PIPELINE,
    "large-once": ("DCE",),
    "service-batch": (),
}
WORKLOADS = tuple(PASSES)


@dataclass(frozen=True)
class Op:
    """One operation: a program as source text and what to run on it."""

    label: str
    source: str
    opt_names: tuple[str, ...]
    #: interpreter inputs for the reference run and the check
    inputs: tuple = ()
    #: ``--once``: apply at the first point only
    once: bool = False


@dataclass
class Reference:
    """What the unoptimized program does, computed once per op."""

    quads: int
    cycles_scalar: float
    cycles_mp: float
    #: write trace of the reference interpreter, or None if it raised
    trace: Optional[tuple] = None
    error: Optional[str] = None


@dataclass
class Checked:
    """The verdict on one output."""

    problems: list[str] = field(default_factory=list)
    cycles_scalar: float = 0.0
    cycles_mp: float = 0.0
    quads_out: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def make_ops(workload: str, seed: int) -> list[Op]:
    """The operations of one round; the same seed gives the same ops."""
    if workload == "scalar-cleanup":
        return _cleanup_ops(seed)
    if workload == "paper-suite":
        return _paper_ops(seed)
    if workload == "large-once":
        return _large_ops()
    if workload == "service-batch":
        return _service_ops(seed)
    raise KeyError(f"unknown workload {workload!r}; have {list(WORKLOADS)}")


def _cleanup_ops(seed: int) -> list[Op]:
    from repro.frontend.unparse import unparse_program
    from repro.workloads.synthetic import random_program

    rng = random.Random(seed)
    ops = []
    for _ in range(CLEANUP_PROGRAMS):
        program_seed = rng.randrange(1 << 30)
        program = random_program(program_seed, size=CLEANUP_SIZE)
        ops.append(Op(
            label=f"synthetic_{program_seed}",
            source=unparse_program(program, name=program.name),
            opt_names=SCALAR_PIPELINE,
        ))
    return ops


def _suite(skip: tuple[str, ...] = ()) -> list:
    from repro.workloads.suite import full_suite

    return [item for item in full_suite() if item.name not in skip]


def _paper_ops(seed: int) -> list[Op]:
    items = _suite(PAPER_SKIP)
    random.Random(seed).shuffle(items)
    return [
        Op(item.name, item.source, CHAINED_PIPELINE, item.inputs)
        for item in items
    ]


def _large_ops() -> list[Op]:
    from repro.frontend.unparse import unparse_program
    from repro.workloads.scale import large_program

    program = large_program(seed=LARGE_SEED, target_quads=LARGE_QUADS)
    return [Op(
        label=program.name,
        source=unparse_program(program, name=program.name),
        opt_names=("DCE",),
        once=True,
    )]


def _service_ops(seed: int) -> list[Op]:
    """Every suite program under each of three pipelines, in seeded
    order, plus one repeat per program (a quarter of the jobs) placed
    at a seeded later position, so the result cache serves it."""
    rng = random.Random(seed)
    jobs = [
        Op(f"{item.name}/{'+'.join(pipeline)}", item.source, pipeline,
           item.inputs)
        for item in _suite()
        for pipeline in (CLI_PIPELINE, SCALAR_PIPELINE, LOOP_PIPELINE)
    ]
    rng.shuffle(jobs)
    keyed = [(float(index), op) for index, op in enumerate(jobs)]
    for program in sorted({op.source for op in jobs}):
        # at least one other job between the original and its repeat
        index = rng.choice([
            i for i, op in enumerate(jobs[:-1]) if op.source == program
        ])
        keyed.append((rng.uniform(index + 1.5, len(jobs)), jobs[index]))
    return [op for _key, op in sorted(keyed, key=lambda pair: pair[0])]


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def reference(op: Op) -> Reference:
    """Run the unoptimized program through the reference interpreter."""
    from repro.frontend.lower import parse_program
    from repro.ir.interp import run_program
    from repro.machine import MULTIPROCESSOR, SCALAR, estimate_time

    program = parse_program(op.source)
    ref = Reference(
        quads=len(program),
        cycles_scalar=estimate_time(program, SCALAR).cycles,
        cycles_mp=estimate_time(program, MULTIPROCESSOR).cycles,
    )
    try:
        ref.trace = run_program(program, inputs=op.inputs).observable()
    except Exception as error:  # noqa: BLE001 - any failure is a finding
        ref.error = f"{type(error).__name__}: {error}"
    return ref


def check(
    op: Op, ref: Reference, output: Optional[str],
    cycles: Optional[tuple[float, float]] = None,
) -> Checked:
    """Check one optimized output; a failed op counts at its
    unoptimized cost, so a correctness fix never reads as a loss.

    ``cycles`` are the scalar and multiprocessor estimates of the
    optimized program as the optimizer left it in memory; without
    them the estimate is of the text, in which DOALL loops read as DO.
    """
    from repro.frontend.lower import parse_program
    from repro.ir.interp import run_program
    from repro.ir.validate import validate_program
    from repro.machine import MULTIPROCESSOR, SCALAR, estimate_time

    verdict = Checked(
        cycles_scalar=ref.cycles_scalar, cycles_mp=ref.cycles_mp,
        quads_out=ref.quads,
    )
    if output is None:
        verdict.problems.append("no output")
        return verdict
    try:
        program = parse_program(output)
    except Exception as error:  # noqa: BLE001
        verdict.problems.append(f"output does not parse: {error}")
        return verdict
    report = validate_program(program)
    if not report.ok:
        verdict.problems.append(f"invalid IR: {report}")
    if ref.error is not None:
        verdict.problems.append(f"reference run raised {ref.error}")
    else:
        try:
            trace = run_program(program, inputs=op.inputs).observable()
        except Exception as error:  # noqa: BLE001
            verdict.problems.append(
                f"optimized run raised {type(error).__name__}: {error}"
            )
        else:
            if trace != ref.trace:
                verdict.problems.append("write trace differs")
    if op.opt_names in SCALAR_ONLY and len(program) > ref.quads:
        verdict.problems.append(
            f"scalar pipeline grew the program: {ref.quads} -> "
            f"{len(program)} quads"
        )
    if op.once and ref.quads - len(program) != 1:
        verdict.problems.append(
            f"--once DCE removed {ref.quads - len(program)} statements"
        )
    verdict.quads_out = len(program)
    if verdict.ok:
        verdict.cycles_scalar, verdict.cycles_mp = cycles or (
            estimate_time(program, SCALAR).cycles,
            estimate_time(program, MULTIPROCESSOR).cycles,
        )
    return verdict


def in_process_source(op: Op) -> tuple[str, int]:
    """The in-process pipeline's output on a service job's text, which
    the service must return byte for byte, and its capped driver runs."""
    from repro.frontend.lower import parse_program
    from repro.frontend.unparse import unparse_program
    from repro.genesis.driver import DriverOptions
    from repro.genesis.pipeline import optimize
    from repro.opts.catalog import standard_optimizers

    optimizers = standard_optimizers(tuple(sorted(set(op.opt_names))))
    program = parse_program(op.source)
    options = DriverOptions(apply_all=True)
    report = optimize(
        program, [optimizers[name] for name in op.opt_names], options,
        in_place=True,
    )
    return unparse_program(program, name=program.name), capped_runs(
        report, options
    )


def capped_runs(report, options) -> int:
    """Driver runs that hit ``max_applications`` without another stop."""
    return sum(
        1 for result in report.results
        if result.applied >= options.max_applications
        and result.stopped is None
    )
