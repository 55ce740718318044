"""In-memory span tracing around calls into edgeflock's modules.

A traced run patches each name where its caller looks it up: module
globals such as ``edgeflock.loopback.encode`` or
``edgeflock.harness.task_assign``, and class attributes such as
``edgeflock.runtime.Worker.consume_data``.  Every call records one span
(name, start, end, parent span, thread, run id and a work amount) in
memory; nothing is written until the run ends.  ``patched`` restores
every binding on exit, also when the run fails.

A span's self time is its duration minus the durations of its direct
children.  Children always run on their parent's thread, so they nest
inside the parent and never overlap each other.
"""

from __future__ import annotations

import gc
import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterable, Optional

import edgeflock.engine as engine
import edgeflock.harness as harness
import edgeflock.loopback as loopback
import edgeflock.model_ir as model_ir
import edgeflock.runtime as runtime
import edgeflock.windows as windows
import edgeflock.wire as wire


@dataclass(slots=True)
class Span:
    run: str
    id: int
    parent: Optional[int]
    name: str
    thread: int
    start: float
    end: float
    work: Any = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``run`` labels the spans of one (workload, n) run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn: Callable, work: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            amount = work(args, kwargs, result) if work is not None else 0
            self.spans.append(Span(self.run, sid, parent, name, threading.get_ident(),
                                   start, end, amount))
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


# -- work amounts: operations as costs.layer_ops counts them, bytes -------


def _out_size(_a, _k, r) -> float:
    return float(r.size)


def _fc_ops(a, _k, r) -> float:
    return 2.0 * r.size * a[0].size


def _conv_ops(a, _k, r) -> float:
    _f, kh, kw, c = a[1].w.shape
    return 2.0 * r.size * kh * kw * c


def _pool_ops(a, _k, r) -> float:
    return float(r.size) * int(a[1]) ** 2


def _pyramid_ops(a, _k, _r) -> float:
    return float(int(a[1]) * len(a[0]) * a[0][0].size)


def _flowstack_ops(a, _k, _r) -> float:
    shape = a[0][0].shape
    per_pixel = shape[-1] + 2 if len(shape) == 3 else 3
    return float(int(a[1]) * shape[0] * shape[1] * per_pixel)


KERNELS = {
    "conv": ("forward_conv", _conv_ops),
    "fc": ("forward_fc", _fc_ops),
    "maxpool": ("forward_maxpool", _pool_ops),
    "norm": ("forward_norm", lambda a, k, r: 4.0 * r.size),
    "relu": ("forward_relu", _out_size),
    "softmax": ("forward_softmax", lambda a, k, r: 5.0 * r.size),
    "pyramid": ("temporal_pyramid", _pyramid_ops),
    "flowstack": ("flow_stack", _flowstack_ops),
}


def targets(bench_module) -> list[tuple[Any, str, str, Optional[Callable]]]:
    """(owner, attribute, span name, work) for every traced binding.

    ``bench_module`` is the benchmark's own module.  Its output check and
    the garbage collection before each set-up are traced so that the
    top-level spans cover a run's wall time.
    """
    out = [(engine, fn, f"engine.{kind}", work) for kind, (fn, work) in KERNELS.items()]
    out += [
        (engine, "im2col", "engine.im2col", None),
        (engine, "params_for", "engine.params", lambda a, k, r: a[1]),
        (engine, "run_reference", "engine.reference", None),
        (engine.TaskExecutor, "push", "engine.executor", None),
        (windows.SlidingWindow, "push", "windows.window", lambda a, k, r: len(r)),
        (model_ir, "build_model", "model_ir.build", None),
        (harness, "task_assign", "planner.task_assign", None),
        (runtime, "start_cluster", "runtime.start_cluster", None),
        (runtime, "run_stream", "runtime.run_stream", None),
        (runtime.Worker, "consume_data", "runtime.consume_data", None),
        (wire.Message, "payload_bytes", "runtime.payload_bytes", lambda a, k, r: r),
        (loopback, "encode", "wire.encode", lambda a, k, r: len(r)),
        (loopback, "decode", "wire.decode", None),
        (loopback.LoopbackCluster, "__init__", "loopback.setup", None),
        (loopback.LoopbackCluster, "send", "loopback.send", None),
        (loopback.LoopbackCluster, "handle", "loopback.handle", None),
        (loopback.LoopbackCluster, "close", "loopback.close", None),
        (bench_module, "check_outputs", "bench.verify", None),
        (gc, "collect", "bench.gc", None),
    ]
    return out


def bindings(entries) -> list[tuple[Any, str, Any]]:
    """Current object bound to each (owner, attribute)."""
    return [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in entries]


@contextmanager
def patched(tracer: Tracer, entries):
    """Bind traced wrappers for ``entries``; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, work in entries:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, work))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- reduction ------------------------------------------------------------


class SpanIndex:
    """Per-name totals, self times and ancestry over a list of spans."""

    def __init__(self, spans: Iterable[Span]):
        self.spans = list(spans)
        self.by_id = {s.id: s for s in self.spans}
        self.by_name: dict[str, list[Span]] = {}
        self.child_seconds: dict[int, float] = {}
        for s in self.spans:
            self.by_name.setdefault(s.name, []).append(s)
            if s.parent is not None:
                self.child_seconds[s.parent] = self.child_seconds.get(s.parent, 0.0) + s.seconds

    def named(self, name: str, run: Optional[str] = None) -> list[Span]:
        return [s for s in self.by_name.get(name, ()) if run is None or s.run == run]

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def busy(self, name: str) -> float:
        return sum(s.seconds for s in self.named(name))

    def self_seconds(self, name: str) -> float:
        return sum(s.seconds - self.child_seconds.get(s.id, 0.0) for s in self.named(name))

    def work(self, name: str) -> float:
        return float(sum(s.work for s in self.named(name)))

    def median(self, name: str, run: Optional[str] = None) -> float:
        durations = [s.seconds for s in self.named(name, run)]
        return statistics.median(durations) if durations else 0.0

    def covered(self, outer: str, inner: str) -> float:
        """Seconds of ``inner`` spans that run inside an ``outer`` span."""
        total = 0.0
        for s in self.named(inner):
            p = self.by_id.get(s.parent)
            while p is not None and p.name != outer:
                p = self.by_id.get(p.parent)
            if p is not None:
                total += s.seconds
        return total

    def self_total(self, thread: int) -> float:
        """Sum of the self times of every span on one thread."""
        return sum(s.seconds - self.child_seconds.get(s.id, 0.0)
                   for s in self.spans if s.thread == thread)
