"""In-memory spans around the public entry points of each layer.

The tracer wraps functions and methods of the optimizer from the
outside, by replacing module and class attributes, so the program under
test carries no tracing code of its own.  Each span records its name,
start, end, parent span and the operation it belongs to; they stay in
memory and are written out once, at the end of a run, as Chrome
trace-event JSON (``chrome://tracing`` and Perfetto open it).

``install`` and ``uninstall`` are exact inverses: between them every
wrapped attribute holds the tracer's wrapper, outside them the
original object, so a run can time one round untraced and the next
traced in the same process.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Iterable, Optional

#: name of the span the benchmark opens around one operation
OP = "op"

_clock = time.perf_counter


class Tracer:
    """Spans and counters of one process."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        #: (owner, attribute, original) for every patched attribute
        self._patches: list[tuple[object, str, object]] = []
        #: (original, wrapper) for every patched module-level function
        self._functions: list[tuple[object, object]] = []
        #: generated optimizers whose pre/act were wrapped
        self._optimizers: list[tuple[object, object, object]] = []
        self.installed = False

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def open(self, name: str, op: Optional[int] = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(
            [name, _clock(), 0.0, parent, self.op if op is None else op]
        )
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = _clock()
        self._stack.pop()

    def record(self, name: str, start: float, end: float, op: int) -> None:
        """A span that is on no stack (a service round trip that
        overlaps other operations)."""
        self.spans.append([name, start, end, -1, op])

    def traced(self, name: str, fn: Callable, after=None) -> Callable:
        """``fn`` inside a span; ``after(result)`` counts its result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(result)
            return result

        return wrapper

    def traced_steps(self, name: str, fn: Callable) -> Callable:
        """A generator function whose every step runs inside a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            steps = fn(*args, **kwargs)
            try:
                while True:
                    index = self.open(name)
                    try:
                        value = next(steps)
                    except StopIteration:
                        return
                    finally:
                        self.close(index)
                    yield value
            finally:
                steps.close()

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a call counter and no span (for calls too
        frequent and too short to time one by one)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_function(self, module_name: str, attr: str, make) -> None:
        """Replace a module-level function everywhere it was imported:
        in its own module and in every loaded ``repro`` module that
        bound it by name."""
        original = getattr(sys.modules[module_name], attr)
        replacement = make(original)
        self._functions.append((original, replacement))
        for module in _repro_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, replacement)

    def patch_method(self, cls: type, attr: str, make) -> None:
        self._patch(cls, attr, make(cls.__dict__[attr]))

    def wrap_optimizer(self, optimizer) -> None:
        """Time the generated ``pre``/``act`` of one optimizer."""
        if not self.installed or any(
            entry[0] is optimizer for entry in self._optimizers
        ):
            return
        self._optimizers.append((optimizer, optimizer.pre, optimizer.act))
        optimizer.pre = self.traced_steps("pre", optimizer.pre)
        optimizer.act = self.traced("act", optimizer.act)

    def install(self, optimizers: Iterable = ()) -> None:
        """Wrap the public entry points of every layer."""
        from repro.analysis.manager import AnalysisManager
        from repro.genesis.matching import MatchEngine
        from repro.genesis.transaction import ProgramTransaction
        from repro.ir.program import Program
        from repro.service.client import ServiceClient

        self.installed = True

        def quads(program) -> None:
            self.counts["frontend.quads"] += len(program)

        def generated(optimizer) -> None:
            self.counts["codegen.optimizers"] += 1
            self.wrap_optimizer(optimizer)

        self.patch_function(
            "repro.frontend.lower", "parse_program",
            lambda fn: self.traced("frontend", fn, quads),
        )
        self.patch_function(
            "repro.genesis.generator", "generate_optimizer",
            lambda fn: self.traced("codegen", fn, generated),
        )
        self.patch_function(
            "repro.genesis.driver", "run_optimizer",
            lambda fn: self.traced("driver", fn),
        )
        self.patch_function(
            "repro.analysis.subscript", "test_access_pair",
            lambda fn: self.counted("analysis.array_pair_tests", fn),
        )
        for attr in ("graph", "structure", "cfg", "dominators",
                     "reaching", "liveness", "control_deps"):
            self.patch_method(
                AnalysisManager, attr,
                lambda fn: self.traced("analysis", fn),
            )
        for attr in ("ensure_network", "network_sweep", "sweep"):
            self.patch_method(
                MatchEngine, attr, lambda fn: self.traced("match", fn)
            )

        def begin(fn):
            def counted_begin(txn, *args, **kwargs):
                index = self.open("transaction")
                try:
                    return fn(txn, *args, **kwargs)
                finally:
                    self.close(index)
                    if txn.snapshot is not None:
                        self.counts["transaction.snapshots"] += 1
            return functools.wraps(fn)(counted_begin)

        self.patch_method(ProgramTransaction, "begin", begin)
        for attr in ("commit", "rollback"):
            self.patch_method(
                ProgramTransaction, attr,
                lambda fn: self.traced("transaction", fn),
            )
        self.patch_method(
            Program, "clone", lambda fn: self.traced("ir.clone", fn)
        )
        self.patch_method(
            Program, "fingerprint",
            lambda fn: self.traced("ir.fingerprint", fn),
        )
        self.patch_method(
            ServiceClient, "submit",
            lambda fn: self.traced("service.submit", fn),
        )
        for optimizer in optimizers:
            self.wrap_optimizer(optimizer)

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        # a module imported while installed bound the wrapper by name
        wrappers = {id(new): old for old, new in self._functions}
        for module in _repro_modules():
            for key, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, key, wrappers[id(value)])
        self._functions.clear()
        for optimizer, pre, act in self._optimizers:
            optimizer.pre = pre
            optimizer.act = act
        self._optimizers.clear()
        self.installed = False

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def chrome_trace(self, ops: Optional[set[int]] = None) -> dict:
        """The spans (of ``ops`` only, if given) as Chrome trace-event
        JSON, one track per op."""
        origin = min((span[1] for span in self.spans), default=0.0)
        events = []
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            if ops is not None and op not in ops:
                continue
            events.append({
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": op,
                "args": {"id": index, "parent": parent, "op": op},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path, ops: Optional[set[int]] = None) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(ops), handle)


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None
        and (name == "repro" or name.startswith("repro."))
    ]


def self_times(spans: list, ops: Optional[set[int]] = None) -> dict[str, float]:
    """Seconds per span name, each span counted without the part of its
    interval its child spans cover, for spans given as ``[name, start,
    end, parent, op]`` records; ``ops`` limits the sum to the spans of
    those operations."""
    child_time: dict[int, float] = defaultdict(float)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, parent, op) in enumerate(spans):
        if ops is None or op in ops:
            totals[name] += end - start - child_time[index]
    return dict(totals)
