"""Verification and benchmarking over the planned cluster.

``stream`` drives a fresh cluster of either transport over a clip; it
is the one run path of ``verify``, ``bench`` and the ``run`` command.
``verify`` runs identical seeded inputs through the single-process
reference and the distributed runtime and demands bitwise equality, tag
by tag.  ``bench`` drives simulated-latency runs per device count and
reports throughput, latency breakdown and energy next to the planner's
predictions.  Desk-scale defaults (hidden dimensions at 1/8, memory
budget shrunk to match) keep full-scale memory-pressure behavior while
running in seconds.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from edgeflock import costs
from edgeflock import model_ir as ir
from edgeflock.costs import CommModel, DeviceProfile
from edgeflock.engine import run_reference
from edgeflock.planner import AssignmentSet, task_assign
from edgeflock.runtime import RunMetrics, run_stream, start_cluster

DESK_SCALE = 0.125


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Whether two arrays hold the same dtype, shape and bytes.

    Stricter than ``==``, which takes -0.0 for +0.0, and looser on NaN,
    which ``==`` never takes for itself.
    """
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def load_model(spec: str, scale: float, seed: int) -> ir.ModelGraph:
    """Model by stock name or path to a model JSON file; either way the
    weights take ``seed``, 0 too, as the clip of the same seed does."""
    if spec in ir.MODEL_NAMES:
        return ir.build_model(spec, scale, seed)
    path = Path(spec)
    graph = ir.ModelGraph.from_json(path.read_text())
    graph.seed = seed
    return ir.validate_graph(graph)


def make_clip(graph: ir.ModelGraph, n_frames: int, seed: int) -> np.ndarray:
    """Seeded input sequence for the graph's (single) source."""
    src = graph.inputs[0]
    shape = graph.shapes[src].dims
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, (n_frames, *shape)).astype(np.float32)


def frames_needed(graph: ir.ModelGraph, n_outputs: int) -> int:
    """Frames required for at least n_outputs sink emissions."""
    sink = graph.outputs[0]
    return graph.first_valid[sink] + n_outputs


def plan_for(graph: ir.ModelGraph, n_max: int, device: Optional[DeviceProfile] = None,
             comm: Optional[CommModel] = None, scale: float = 1.0) -> AssignmentSet:
    """Plan with the memory budget shrunk to match a scaled-down model."""
    device = (device or DeviceProfile()).scaled_mem(scale)
    return task_assign(graph, n_max, comm or CommModel(), device)


def stream(aset: AssignmentSet, n: int, frames: np.ndarray,
           transport: str = "in_process") -> tuple[dict[str, dict[int, np.ndarray]], RunMetrics]:
    """Drive a fresh cluster of ``n`` devices over a clip: the cluster's
    ``outputs``, every sink's by tag, and its metrics.  The in-process
    run is paced (``VirtualCluster.feed_paced``).  Over loopback sockets
    the run ends when every message is handled (``LoopbackCluster.feed``),
    the metrics count outputs and busy seconds only, and the cluster is
    closed on the way out."""
    cluster = start_cluster(aset, n, transport)
    if transport == "loopback_sockets":
        try:
            cluster.feed(frames)
            metrics = cluster.metrics()
        finally:
            cluster.close()
    else:
        metrics = run_stream(cluster, frames)[1]
    return cluster.outputs, metrics


@dataclass
class VerifyEntry:
    model: str
    seed: int
    devices: int
    outputs: int
    exact: bool
    max_abs_diff: float


@dataclass
class VerifyReport:
    entries: list[VerifyEntry] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(e.exact for e in self.entries)

    def render(self) -> str:
        lines = []
        for e in self.entries:
            status = "ok " if e.exact else "FAIL"
            lines.append(f"[{status}] {e.model} seed={e.seed} n={e.devices:2d} "
                         f"outputs={e.outputs} max|diff|={e.max_abs_diff:.3g}")
        lines.append(f"verify: {'all exact' if self.ok else 'MISMATCH'} "
                     f"({self.elapsed_seconds:.1f}s)")
        return "\n".join(lines)


def verify(model: str, n_list: Iterable[int], scale: float = DESK_SCALE,
           seeds: Iterable[int] = (1, 2, 3), n_frames: Optional[int] = None,
           device: Optional[DeviceProfile] = None, comm: Optional[CommModel] = None,
           transport: str = "in_process") -> VerifyReport:
    """Bitwise check of distributed vs reference execution, every sink.

    The report holds one entry per seed and device count; a mismatch in
    any sink marks its entry not exact and never raises, and so does a
    reference with no outputs, which leaves nothing to compare.  An
    entry counts the first sink's outputs.  The largest absolute
    difference is reported, not judged.  Both transports return every
    sink; over loopback sockets a frame lost on the way shows as a
    missing tag as soon as the cluster has nothing left to handle.
    """
    n_list = sorted(set(n_list))
    report = VerifyReport()
    t0 = time.perf_counter()
    for seed in seeds:
        graph = load_model(model, scale, seed)
        aset = plan_for(graph, max(n_list), device, comm, scale)
        frames = make_clip(graph, n_frames or frames_needed(graph, 4), seed)
        refs = run_reference(graph, {graph.inputs[0]: frames})
        for n in n_list:
            outs, _ = stream(aset, n, frames, transport)
            exact = bool(refs[graph.outputs[0]])
            max_diff = 0.0
            for sink in graph.outputs:
                ref, got_all = refs[sink], outs[sink]
                exact = exact and set(got_all) == set(ref)
                for tag in sorted(ref):
                    got = got_all.get(tag)
                    if got is None or got.shape != ref[tag].shape:
                        d = float("inf")
                    else:
                        d = float(np.max(np.abs(got - ref[tag]))) if got.size else 0.0
                    if got is None or not same_bits(got, ref[tag]):
                        exact = False
                    max_diff = max(max_diff, d)
            report.entries.append(VerifyEntry(model, seed, n, len(outs[graph.outputs[0]]), exact,
                                              max_diff))
    report.elapsed_seconds = time.perf_counter() - t0
    return report


@dataclass
class BenchEntry:
    devices: int
    predicted_ips: float
    predicted_t_forward: float
    simulated: RunMetrics
    energy: dict


@dataclass
class BenchReport:
    model: str
    scale: float
    entries: list[BenchEntry] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def render(self) -> str:
        head = (f"{'n':>3} {'pred ips':>10} {'sim ips':>10} {'t_fwd s':>9} "
                f"{'compute':>9} {'comm':>9} {'reload':>9} {'E_stat J':>9} {'E_dyn J':>9}")
        lines = [f"bench: {self.model} (scale {self.scale})", head]
        for e in self.entries:
            m = e.simulated
            lines.append(
                f"{e.devices:>3} {e.predicted_ips:>10.3f} {m.ips:>10.3f} "
                f"{m.t_forward_seconds:>9.3f} {m.breakdown['compute']:>9.3f} "
                f"{m.breakdown['comm']:>9.3f} {m.breakdown['reload']:>9.3f} "
                f"{e.energy['static_joules']:>9.2f} "
                f"{e.energy['dynamic_joules']:>9.2f}"
            )
        return "\n".join(lines)


def bench(model: str, n_list: Iterable[int], scale: float = DESK_SCALE,
          n_frames: int = 40, seed: int = 1,
          device: Optional[DeviceProfile] = None,
          comm: Optional[CommModel] = None) -> BenchReport:
    """Simulated-latency benchmark across device counts."""
    graph = load_model(model, scale, seed)
    n_list = sorted(set(n_list))
    aset = plan_for(graph, max(n_list), device, comm, scale)
    report = BenchReport(model=model, scale=scale)
    frames = make_clip(graph, max(n_frames, frames_needed(graph, 8)), seed)
    for n in n_list:
        _outputs, metrics = stream(aset, n, frames)
        energy = costs.energy(metrics.wall_seconds, metrics.per_device_busy_seconds,
                              [aset.device] * n)
        per_inf = max(metrics.outputs, 1)
        energy["static_per_inference"] = energy["static_joules"] / per_inf
        energy["dynamic_per_inference"] = energy["dynamic_joules"] / per_inf
        predicted = aset.assignments[n].predicted
        report.entries.append(BenchEntry(n, predicted.ips, predicted.t_forward_seconds,
                                         metrics, energy))
    return report
