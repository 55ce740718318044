"""Profiled cost models: compute latency, memory, load time, comm, energy.

These are the behavior models the planner consumes.  Defaults are
calibrated to a 1 GB quad-core ARM single-board computer running a
Python DNN stack: dense math at ~45 Mop/s, convolutions about 6x faster
thanks to cache locality, weights loaded from SD-class storage, and a
fitted Wi-Fi line of t = 0.0002 * kB + 0.002 seconds end to end.

The swap knee sits low (20% of RAM) because the OS plus framework
residency leaves only a fraction of physical memory for weights; tasks
whose raw footprint crosses it run at a profiled slowdown multiplier.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, asdict, replace
from typing import Iterable, Optional

import numpy as np

from edgeflock import model_ir as ir

BYTES_PER_VALUE = 4  # float32 everywhere


@dataclass
class PowerProfile:
    idle_watts: float = 1.3
    busy_watts: float = 6.5
    observed_watts: float = 3.0

    def __post_init__(self):
        if not (0 < self.idle_watts <= self.observed_watts <= self.busy_watts):
            raise ValueError("power profile must satisfy 0 < idle <= observed <= busy")


@dataclass
class DeviceProfile:
    """Per-device behavior constants, identical across the cluster."""

    mem_bytes: int = 1_000_000_000
    flops_per_sec: float = 75e6
    conv_flops_per_sec: float = 270e6
    load_bandwidth: float = 50e6
    load_setup_seconds: float = 1.0
    swap_threshold: Optional[int] = None
    swap_penalty: float = 4.0
    power: PowerProfile = field(default_factory=PowerProfile)

    def __post_init__(self):
        if self.swap_threshold is None:
            self.swap_threshold = int(0.2 * self.mem_bytes)
        for v in (self.mem_bytes, self.flops_per_sec, self.conv_flops_per_sec,
                  self.load_bandwidth, self.load_setup_seconds, self.swap_threshold):
            if v <= 0:
                raise ValueError("device profile values must be positive")
        if self.swap_penalty < 1:
            raise ValueError("swap_penalty must be >= 1")

    def scaled_mem(self, scale: float) -> "DeviceProfile":
        """Profile with the memory budget shrunk by scale**2.

        Weight footprints shrink roughly quadratically when hidden unit
        counts are rescaled, so desk-scale runs keep the full-scale
        memory-pressure regime by shrinking the budget the same way.
        """
        if scale >= 1.0:
            return self
        factor = scale * scale
        return replace(self, mem_bytes=max(1, int(self.mem_bytes * factor)),
                       swap_threshold=max(1, int(self.swap_threshold * factor)))


@dataclass
class CommModel:
    """End-to-end one-way latency: base_seconds + per_kb_seconds * kB."""

    per_kb_seconds: float = 0.0002
    base_seconds: float = 0.002

    def __post_init__(self):
        if self.per_kb_seconds < 0 or self.base_seconds < 0:
            raise ValueError("comm coefficients must be >= 0")


def comm_latency(n_bytes: int, model: CommModel) -> float:
    """Seconds to move n_bytes one way, per the fitted line."""
    if n_bytes < 0:
        raise ValueError("byte count must be >= 0")
    return model.base_seconds + model.per_kb_seconds * (n_bytes / 1000.0)


def weight_count(graph: ir.ModelGraph, name: str) -> int:
    """Learned parameter count of one layer (weights plus biases)."""
    spec = graph.layer(name)
    if spec.kind == ir.FC:
        in_size = graph.shapes[spec.inputs[0]].size
        out = int(spec.attrs["out_size"])
        return in_size * out + out
    if spec.kind == ir.CONV:
        c = graph.shapes[spec.inputs[0]].dims[-1]
        f = int(spec.attrs["filters"])
        return f * int(spec.attrs["kernel_h"]) * int(spec.attrs["kernel_w"]) * c + f
    if spec.kind == ir.NORM:
        return 4 * graph.shapes[spec.inputs[0]].dims[-1]
    return 0


def layer_ops(graph: ir.ModelGraph, name: str) -> float:
    """Scalar-operation count to evaluate one layer on one item.

    Weighted layers count 2 ops per multiply-accumulate; pointwise
    layers count per element.
    """
    spec = graph.layer(name)
    out_shape = graph.shapes[name]
    if spec.kind == ir.FC:
        in_size = graph.shapes[spec.inputs[0]].size
        return 2.0 * in_size * out_shape.size
    if spec.kind == ir.CONV:
        c = graph.shapes[spec.inputs[0]].dims[-1]
        taps = int(spec.attrs["kernel_h"]) * int(spec.attrs["kernel_w"]) * c
        return 2.0 * out_shape.size * taps
    if spec.kind == ir.RELU:
        return float(out_shape.size)
    if spec.kind == ir.NORM:
        return 4.0 * out_shape.size
    if spec.kind == ir.SOFTMAX:
        return 5.0 * out_shape.size
    if spec.kind == ir.MAXPOOL:
        return float(out_shape.size) * int(spec.attrs["window"]) ** 2
    if spec.kind == ir.PYRAMID:
        d = graph.shapes[spec.inputs[0]].size
        return float(int(spec.attrs["levels"]) * spec.window * d)
    if spec.kind == ir.FLOWSTACK:
        in_shape = graph.shapes[spec.inputs[0]]
        per_pixel = in_shape.dims[-1] + 2 if in_shape.rank == 3 else 3
        return float(int(spec.attrs["window_len"]) * in_shape.dims[0] * in_shape.dims[1] * per_pixel)
    return 0.0


def _terms(graph: ir.ModelGraph, name: str) -> tuple[float, int, int, bool]:
    """(ops, weight count, activation bytes, runs at the conv rate) of one
    layer, computed once per graph."""
    terms = graph.costs_cache.get(name)
    if terms is None:
        terms = graph.costs_cache[name] = (
            layer_ops(graph, name), weight_count(graph, name),
            activation_elements(graph, name) * BYTES_PER_VALUE, graph.layer(name).kind == ir.CONV)
    return terms


def activation_elements(graph: ir.ModelGraph, name: str) -> int:
    """Values live while one layer runs: its output, its inputs and,
    for a windowed layer, the window it holds."""
    spec = graph.layer(name)
    elems = graph.shapes[name].size + sum(graph.shapes[i].size for i in spec.inputs)
    if spec.kind in ir.WINDOWED_KINDS:
        elems += spec.window * graph.shapes[spec.inputs[0]].size
    return elems


def memory_terms(graph: ir.ModelGraph, names: Iterable[str]) -> tuple[int, int]:
    """(weight count, peak activation bytes) of a set of layers.  The
    terms of disjoint sets combine as (sum, max) into the terms of their
    union, so a planner can price merged tasks from per-task terms."""
    weights = peak = 0
    for n in names:
        _ops, layer_weights, act_bytes, _conv = _terms(graph, n)
        weights += layer_weights
        peak = max(peak, act_bytes)
    return weights, peak


def resident_bytes(weights: int, peak: int, overhead_factor: float) -> int:
    """Resident bytes of a task from its ``memory_terms``: weights scaled
    by the framework overhead factor, plus peak activation bytes."""
    if overhead_factor < 1:
        raise ValueError("overhead_factor must be >= 1")
    return int(BYTES_PER_VALUE * weights * overhead_factor) + peak


def row_local_layers(graph: ir.ModelGraph, owned: Iterable[str], origin: str) -> tuple[str, ...]:
    """The layers a row shard of fc ``origin`` computes on its rows only.

    That is ``origin`` and the elementwise glue (relu, norm) directly
    downstream of it within ``owned``, up to the first layer with other
    than one owned consumer.  The last of them is the value that the
    shards' consumers assemble.
    """
    owned = set(owned)
    chain = [origin]
    while True:
        consumers = [c for c in graph.consumers(chain[-1]) if c in owned]
        if len(consumers) != 1 or graph.layer(consumers[0]).kind not in (ir.RELU, ir.NORM):
            return tuple(chain)
        chain.append(consumers[0])


@dataclass(frozen=True)
class TaskPrice:
    """What one task costs on one device, resident group by resident group.

    ``layer_seconds`` holds each layer's per-item seconds before any swap
    slowdown: its ops, times the shard's row fraction on row-local
    layers, over the rate of its kind.  Resident group g (the layers held
    in memory at once) runs ``swap[g]`` times slower and takes
    ``load_seconds[g]`` to bring into memory from local storage.
    """

    groups: tuple[tuple[str, ...], ...]
    layer_seconds: dict[str, float]
    swap: tuple[float, ...]
    load_seconds: tuple[float, ...]

    def compute_seconds(self) -> float:
        """Per-item seconds of the whole task, summed group by group."""
        total = 0.0
        for group, mult in zip(self.groups, self.swap):
            seconds = 0.0
            for n in group:
                seconds += self.layer_seconds[n]
            total += seconds * mult
        return total


def price_task(graph: ir.ModelGraph, groups: Iterable[Iterable[str]], device: DeviceProfile,
               part: Optional[tuple[str, int, int]] = None) -> TaskPrice:
    """Price a task held as ``groups`` of resident layers on one device.

    ``part`` = (fc layer, first row, end row) makes the task a row shard
    of that layer: its row-local layers do that fraction of the work and
    hold that fraction of the weights.  A group runs at ``swap_penalty``
    once its raw footprint (weights at overhead factor 1.0 plus peak
    activations) crosses the swap threshold.
    """
    groups = tuple(tuple(g) for g in groups)
    local: tuple[str, ...] = ()
    frac = 1.0
    if part is not None:
        origin, lo, hi = part
        local = row_local_layers(graph, (n for g in groups for n in g), origin)
        frac = (hi - lo) / graph.shapes[origin].size
    layer_seconds: dict[str, float] = {}
    swap = []
    load = []
    for group in groups:
        raw = peak = 0
        for n in group:
            ops, weights, act_bytes, conv = _terms(graph, n)
            if n in local:
                ops *= frac
                weights = int(weights * frac)
            layer_seconds[n] = ops / (device.conv_flops_per_sec if conv else device.flops_per_sec)
            raw += weights
            peak = max(peak, act_bytes)
        raw_bytes = raw * BYTES_PER_VALUE
        over = raw_bytes + peak > device.swap_threshold
        swap.append(device.swap_penalty if over else 1.0)
        load.append(raw_bytes / device.load_bandwidth + device.load_setup_seconds)
    return TaskPrice(groups, layer_seconds, tuple(swap), tuple(load))


def energy(wall_seconds: float, busy_seconds: dict[int, float],
           devices: list[DeviceProfile]) -> dict[str, float]:
    """Static and dynamic joules for a run.

    static  = sum over devices of idle power times wall time;
    dynamic = sum over devices of (observed - idle) power times busy time.
    """
    static = 0.0
    dynamic = 0.0
    for idx, dev in enumerate(devices):
        busy = busy_seconds.get(idx, 0.0)
        if busy > wall_seconds + 1e-9:
            raise ValueError(f"device {idx}: busy time {busy} exceeds wall time {wall_seconds}")
        static += dev.power.idle_watts * wall_seconds
        dynamic += (dev.power.observed_watts - dev.power.idle_watts) * busy
    return {"static_joules": static, "dynamic_joules": dynamic,
            "total_joules": static + dynamic}


# -- profile files ------------------------------------------------------


def profiles_to_json(device: DeviceProfile, comm: CommModel) -> str:
    doc = {"device": asdict(device), "comm": asdict(comm)}
    return json.dumps(doc, indent=2, sort_keys=True)


def device_from_dict(doc: dict) -> DeviceProfile:
    """Inverse of ``asdict`` on a ``DeviceProfile``."""
    dev = dict(doc)
    return DeviceProfile(power=PowerProfile(**dev.pop("power", {})), **dev)


def profiles_from_json(text: str) -> tuple[DeviceProfile, CommModel]:
    doc = json.loads(text)
    return device_from_dict(doc.get("device", {})), CommModel(**doc.get("comm", {}))


def measure_host_profile(repeat: int = 3) -> DeviceProfile:
    """Microbenchmark the engine kernels on this host and return a
    calibrated profile (memory/power fields keep their defaults)."""
    from edgeflock import engine

    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, 4096).astype(np.float32)
    fcp = engine.freeze(engine.LayerParams(
        w=rng.uniform(-0.05, 0.05, (2048, 4096)).astype(np.float32),
        b=np.zeros(2048, np.float32),
    ))
    fc_ops = 2.0 * 2048 * 4096
    best_fc = min(_time_once(lambda: engine.forward_fc(x, fcp)) for _ in range(repeat))

    img = rng.uniform(-1, 1, (32, 32, 64)).astype(np.float32)
    convp = engine.freeze(engine.LayerParams(
        w=rng.uniform(-0.05, 0.05, (64, 3, 3, 64)).astype(np.float32),
        b=np.zeros(64, np.float32),
    ))
    conv_ops = 2.0 * 32 * 32 * 64 * 3 * 3 * 64
    best_conv = min(_time_once(lambda: engine.forward_conv(img, convp)) for _ in range(repeat))

    return DeviceProfile(
        flops_per_sec=fc_ops / best_fc,
        conv_flops_per_sec=conv_ops / best_conv,
    )


def _time_once(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return max(time.perf_counter() - t0, 1e-9)
