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
from dataclasses import dataclass, field, asdict
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
        return DeviceProfile(
            mem_bytes=max(1, int(self.mem_bytes * factor)),
            flops_per_sec=self.flops_per_sec,
            conv_flops_per_sec=self.conv_flops_per_sec,
            load_bandwidth=self.load_bandwidth,
            load_setup_seconds=self.load_setup_seconds,
            swap_threshold=max(1, int(self.swap_threshold * factor)),
            swap_penalty=self.swap_penalty,
            power=self.power,
        )


@dataclass
class CommModel:
    """End-to-end one-way latency: base_seconds + per_kb_seconds * kB."""

    per_kb_seconds: float = 0.0002
    base_seconds: float = 0.002

    def __post_init__(self):
        if self.per_kb_seconds < 0 or self.base_seconds < 0:
            raise ValueError("comm coefficients must be >= 0")


@dataclass
class CostEstimate:
    compute_seconds: float = 0.0
    memory_bytes: int = 0
    load_seconds: float = 0.0
    comm_in_bytes: int = 0
    comm_out_bytes: int = 0


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


def weight_bytes(graph: ir.ModelGraph, names: Iterable[str]) -> int:
    return BYTES_PER_VALUE * sum(weight_count(graph, n) for n in names)


def peak_activation_bytes(graph: ir.ModelGraph, names: Iterable[str]) -> int:
    peak = 0
    for n in names:
        spec = graph.layer(n)
        elems = graph.shapes[n].size + sum(graph.shapes[i].size for i in spec.inputs)
        if spec.kind in ir.WINDOWED_KINDS:
            elems += spec.window * graph.shapes[spec.inputs[0]].size
        peak = max(peak, elems * BYTES_PER_VALUE)
    return peak


def estimate_memory(graph: ir.ModelGraph, names: Iterable[str], overhead_factor: float = 2.0) -> int:
    """Resident bytes for a task: weights scaled by the framework
    overhead factor, plus peak activation bytes."""
    names = list(names)
    if not names:
        return 0
    if overhead_factor < 1:
        raise ValueError("overhead_factor must be >= 1")
    return int(weight_bytes(graph, names) * overhead_factor) + peak_activation_bytes(graph, names)


def estimate_compute(graph: ir.ModelGraph, names: Iterable[str], device: DeviceProfile,
                     fc_fraction: dict[str, float] | None = None) -> float:
    """Per-item compute seconds for a task on one device.

    Dense and convolution work run at their respective profiled rates;
    the whole task slows by ``swap_penalty`` once its raw footprint
    (overhead factor 1.0) crosses the swap threshold.  ``fc_fraction``
    optionally scales named fc layers' work, for row shards.
    """
    names = list(names)
    seconds = 0.0
    for n in names:
        spec = graph.layer(n)
        ops = layer_ops(graph, n)
        if fc_fraction and n in fc_fraction:
            ops *= fc_fraction[n]
        rate = device.conv_flops_per_sec if spec.kind == ir.CONV else device.flops_per_sec
        seconds += ops / rate
    if estimate_memory(graph, names, 1.0) > device.swap_threshold:
        seconds *= device.swap_penalty
    return seconds


def estimate_load_time(graph: ir.ModelGraph, names: Iterable[str], device: DeviceProfile) -> float:
    """Seconds to bring a task's weights into memory from local storage."""
    return weight_bytes(graph, names) / device.load_bandwidth + device.load_setup_seconds


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


def profiles_from_json(text: str) -> tuple[DeviceProfile, CommModel]:
    doc = json.loads(text)
    dev = dict(doc.get("device", {}))
    power = PowerProfile(**dev.pop("power", {}))
    return DeviceProfile(power=power, **dev), CommModel(**doc.get("comm", {}))


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
