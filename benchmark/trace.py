"""Wall-clock spans at the layer boundaries of ``repro``.

The traced pass wraps each layer's public entry points (listed in
:data:`BOUNDARIES`) at run time; nothing under ``src/`` is edited.
Every call through a wrapped entry point records one span: which
boundary, start, end, the enclosing span, and a per-boundary count
taken from the call (messages returned by a poll, steps run by an
interpreter, ...).  Spans live in flat arrays until the body ends and
are folded into the per-layer table by :func:`layer_metrics`.

A layer's self time is its spans' time minus the time covered by their
child spans, so the self times of all layers sum to the root span, the
benchmark's own ``driver`` span around the timed body.  Where ``repro``
reaches a layer without passing through a listed entry point (an
inlined fast path), that time stays in the caller's layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Layers in report order.  ``driver`` is the benchmark's own code in
#: the timed body: the stream send loop, stdout capture for the paper run.
LAYERS = ("driver", "bench", "bench.cache", "workloads", "compiler",
          "lower", "interp", "process", "runtime", "ipc", "verifier",
          "shard", "kernel", "traffic")

#: Policies of the verifier-stream workload, in stream order.
POLICIES = ("hq-cfi", "memory-safety", "call-counter", "dfi", "taint",
            "watchdog")

Count = Callable[[tuple, object, Optional[BaseException]], int]


def _returned(args, result, error) -> int:
    return result if error is None else 0


def _rejected(args, result, error) -> int:
    return int(error is None and result is None)


def _hit(args, result, error) -> int:
    return int(result is not None)


def _steps(args, result, error) -> int:
    return args[0].steps


def _received(args, result, error) -> int:
    return len(result) // 4 if error is None else 0


def _killed(args, result, error) -> int:
    from repro.sim.cpu import ProcessKilledError
    return int(isinstance(error, ProcessKilledError))


#: (boundary name, layer, module, attribute path, count).  A boundary
#: named ``ipc.send_raw`` is expanded to every channel class that
#: defines its own ``send_raw``.
BOUNDARIES: Tuple[Tuple[str, str, str, str, Optional[Count]], ...] = (
    ("driver", "driver", "", "", None),
    ("bench.main", "bench", "repro.bench.__main__", "main", None),
    ("cache.lookup", "bench.cache", "repro.bench.cache", "RunCache.lookup",
     _hit),
    ("cache.store", "bench.cache", "repro.bench.cache", "RunCache.store",
     None),
    ("build_module", "workloads", "repro.workloads.generator",
     "build_module", None),
    ("passes", "compiler", "repro.compiler.passes.base", "PassManager.run",
     None),
    ("lower_function", "lower", "repro.sim.lower", "lower_function",
     _rejected),
    ("interp.run", "interp", "repro.sim.cpu", "Interpreter.run", _steps),
    ("process.init", "process", "repro.sim.process", "Process.__init__",
     None),
    ("runtime.call", "runtime", "repro.core.runtime", "HQRuntime.call",
     None),
    ("ipc.send_raw", "ipc", "repro.ipc.registry", "", None),
    ("ipc.receive_words", "ipc", "repro.ipc.base", "Channel.receive_words",
     _received),
    ("verifier.poll", "verifier", "repro.core.verifier", "Verifier.poll",
     _returned),
    ("shard.poll", "shard", "repro.core.shard_verifier",
     "ShardedVerifier.poll", _returned),
    ("shard.drain", "shard", "repro.core.shard_verifier",
     "ShardEngine.drain", None),
    ("kernel.barrier", "kernel", "repro.sim.kernel",
     "HQKernelModule.before_syscall", _killed),
    ("kernel.syscall", "kernel", "repro.sim.kernel", "Kernel.syscall", None),
    ("traffic.run", "traffic", "repro.traffic.engine", "TrafficEngine.run",
     None),
)

BOUNDARY_INDEX = {entry[0]: index for index, entry in enumerate(BOUNDARIES)}
BOUNDARY_LAYER = [entry[1] for entry in BOUNDARIES]


class Spans:
    """Span storage: parallel arrays, one row per span."""

    def __init__(self) -> None:
        self.boundary = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.count = array("q")
        self._open: List[int] = []

    def add(self, boundary: int, start: float, end: float, parent: int,
            count: int = 0) -> int:
        """Append a closed span (tests build synthetic trees with this)."""
        self.boundary.append(boundary)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.count.append(count)
        return len(self.start) - 1

    @contextmanager
    def span(self, boundary: int) -> Iterator[None]:
        index = self._enter(boundary)
        try:
            yield
        finally:
            self._exit(index)

    def _enter(self, boundary: int) -> int:
        opened = self._open
        index = self.add(boundary, time.perf_counter(), 0.0,
                         opened[-1] if opened else -1)
        opened.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._open.pop()

    def wrap(self, boundary: int, fn: Callable,
             count: Optional[Count]) -> Callable:
        """``fn`` recording one span per call under ``boundary``."""
        enter, leave = self._enter, self._exit
        counts = self.count

        if count is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                index = enter(boundary)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(index)
            return traced

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            index = enter(boundary)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                leave(index)
                counts[index] = count(args, result, error)
        return counted


def _channel_classes() -> List[type]:
    from repro.ipc.base import Channel
    found, pending = [], [Channel]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def _targets(module_name: str, path: str, boundary: str
             ) -> List[Tuple[object, str, Callable]]:
    """Every (owner, attribute, original) to patch for one boundary."""
    if boundary == "ipc.send_raw":
        importlib.import_module(module_name)
        return [(cls, "send_raw", cls.__dict__["send_raw"])
                for cls in _channel_classes() if "send_raw" in cls.__dict__]
    module = importlib.import_module(module_name)
    if "." in path:
        owner_name, attribute = path.split(".")
        owner = getattr(module, owner_name)
        return [(owner, attribute, owner.__dict__[attribute])]
    # A module-level function: patch every module that imported it by
    # name, since ``from x import f`` binds the original object.
    original = getattr(module, path)
    return [(mod, name, original)
            for mod in list(sys.modules.values()) if mod is not None
            for name, value in list(vars(mod).items())
            if value is original]


@contextmanager
def installed(spans: Spans) -> Iterator[Spans]:
    """Wrap every boundary for the duration of the block."""
    patched: List[Tuple[object, str, Callable]] = []
    try:
        for index, (name, _layer, module_name, path, count) in \
                enumerate(BOUNDARIES):
            if not module_name:
                continue
            for owner, attribute, original in _targets(module_name, path,
                                                       name):
                setattr(owner, attribute, spans.wrap(index, original, count))
                patched.append((owner, attribute, original))
        yield spans
    finally:
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)


# ---------------------------------------------------------------------------
# Folding spans into the per-layer table
# ---------------------------------------------------------------------------

def self_times(spans: Spans) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    start, end = spans.start, spans.end
    own = [e - s for s, e in zip(start, end)]
    for index, parent in enumerate(spans.parent):
        if parent >= 0:
            own[parent] -= end[index] - start[index]
    return own


def layer_table(spans: Spans) -> Dict[str, Dict[str, float]]:
    """Per layer: ``calls`` (entries from another layer) and ``self_s``."""
    table = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    layer_of = [BOUNDARY_LAYER[b] for b in spans.boundary]
    for index, own in enumerate(self_times(spans)):
        row = table[layer_of[index]]
        row["self_s"] += own
        parent = spans.parent[index]
        if parent < 0 or layer_of[parent] != layer_of[index]:
            row["calls"] += 1
    return table


def layer_metrics(spans: Spans, output: dict) -> Dict[str, float]:
    """Every per-layer metric of one traced body.

    Span 0 is the root ``driver`` span.  ``output`` is the body's own
    output: the traffic report supplies the exact simulated counts, and
    the stream's per-policy start and finish times attribute verifier
    polls to policies.
    """
    table = layer_table(spans)
    body = spans.end[0] - spans.start[0]
    rows: Dict[int, List[int]] = {}
    for index, boundary in enumerate(spans.boundary):
        rows.setdefault(boundary, []).append(index)

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    def counted(name: str) -> Tuple[int, int]:
        found = rows.get(BOUNDARY_INDEX[name], [])
        return len(found), sum(spans.count[i] for i in found)

    metrics: Dict[str, float] = {"trace.body_s": body}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = table[layer]["calls"]
        metrics[f"{layer}.share"] = 100.0 * ratio(table[layer]["self_s"],
                                                  body)
    lowered, rejected = counted("lower_function")
    metrics["lower.rejected"] = rejected
    metrics["lower.accept_ratio"] = ratio(lowered - rejected, lowered)
    _, steps = counted("interp.run")
    metrics["interp.steps"] = steps
    metrics["interp.steps_per_s"] = ratio(steps, table["interp"]["self_s"])
    receives, received = counted("ipc.receive_words")
    metrics["ipc.msgs_per_receive"] = ratio(received, receives)
    polls, messages = counted("verifier.poll")
    poll_rows = rows.get(BOUNDARY_INDEX["verifier.poll"], [])
    metrics["verifier.messages"] = messages
    metrics["verifier.msgs_per_poll"] = ratio(messages, polls)
    metrics["verifier.empty_poll_ratio"] = ratio(
        sum(1 for i in poll_rows if not spans.count[i]), polls)
    policy_times = output.get("policy_times", {})
    for policy in POLICIES:
        low, high = policy_times.get(policy, (0.0, -1.0))
        in_policy = [i for i in poll_rows if low <= spans.start[i] <= high]
        metrics[f"verifier.msgs_per_s.{policy}"] = ratio(
            sum(spans.count[i] for i in in_policy),
            sum(spans.end[i] - spans.start[i] for i in in_policy))
    metrics["shard.messages"] = counted("shard.poll")[1]
    metrics["kernel.kills"] = counted("kernel.barrier")[1]
    report = output.get("report")
    metrics["traffic.ticks"] = report["slo"]["ticks"] if report else 0
    metrics["traffic.shed"] = report["totals"]["shed"] if report else 0
    metrics["traffic.killed"] = report["totals"]["killed"] if report else 0
    metrics["traffic.validation_lag_p99"] = (
        report["slo"]["validation_lag_p99"] if report else 0)
    lookups, hits = counted("cache.lookup")
    metrics["bench.cache.hits"] = hits
    metrics["bench.cache.hit_ratio"] = ratio(hits, lookups)
    return metrics


def per_layer_names() -> List[str]:
    """The per-layer metric names, in report order (``trace.overhead``
    is added by the runner, which alone sees untraced repetitions)."""
    spans = Spans()
    spans.add(BOUNDARY_INDEX["driver"], 0.0, 1.0, -1)
    return list(layer_metrics(spans, {})) + ["trace.overhead"]

