"""Acceptance suite: one test per shipping criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them live).  Tolerances are pinned here, not configurable.
"""

import sys
import time

import numpy as np
import pytest

from edgeflock.costs import CommModel, DeviceProfile, comm_latency, energy
from edgeflock.engine import (
    LayerParams,
    forward_fc,
    freeze,
    pyramid_ranges,
    run_reference,
    temporal_pyramid,
)
from edgeflock.harness import bench, make_clip, verify
from edgeflock.model_ir import build_model
from edgeflock.planner import split_fc_rows, task_assign
from edgeflock.runtime import run_stream, start_cluster

ALL_N = list(range(1, 13))
BENCH_N = [1, 4, 5, 8, 10, 12]


def report(num: int, ok: bool, text: str) -> None:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {text}"
    print(line, file=sys.stderr)
    assert ok, line


@pytest.fixture(scope="module")
def full_scale_plans():
    return {
        "two_stream": task_assign(build_model("two_stream", 1.0, seed=1), 12),
        "alexnet": task_assign(build_model("alexnet", 1.0, seed=1), 4),
        "vgg16": task_assign(build_model("vgg16", 1.0, seed=1), 11),
    }


@pytest.fixture(scope="module")
def two_stream_bench():
    return bench("two_stream", BENCH_N, scale=0.125, n_frames=40, seed=1)


def test_criterion_1_oracle_equivalence():
    """Distributed == reference exactly: 3 models, seeds {1,2,3}, n 1..12."""
    t0 = time.perf_counter()
    frames = {"two_stream": 28, "alexnet": 3, "vgg16": 3}
    worst = 0.0
    runs = 0
    for model in ("two_stream", "alexnet", "vgg16"):
        rep = verify(model, ALL_N, scale=0.125, seeds=(1, 2, 3),
                     n_frames=frames[model])
        runs += len(rep.entries)
        assert rep.entries, model
        for e in rep.entries:
            worst = max(worst, e.max_abs_diff)
            assert e.exact, f"{model} seed={e.seed} n={e.devices} diff={e.max_abs_diff}"
    elapsed = time.perf_counter() - t0
    report(1, worst == 0.0 and elapsed < 300.0,
           f"{runs} runs, max abs diff {worst}, {elapsed:.0f}s (< 300s)")


def test_criterion_2_two_stream_architectures(full_scale_plans):
    aset = full_scale_plans["two_stream"]

    a5 = aset.assignments[5]
    dense_devs = {d for d, t in a5.tasks.items() if {"fc_d1", "fc_d2", "fc_d3"} & set(t.layers)}
    owners = [set(t.layers) for t in a5.tasks.values()]
    five_ok = (len(dense_devs) == 2
               and any("fc_d1" in o and not o & {"fc_d2", "fc_d3"} for o in owners)
               and any({"fc_d2", "fc_d3"} <= o and "fc_d1" not in o for o in owners))

    a8 = aset.assignments[8]
    eight_ok = True
    for fc in ("fc_d1", "fc_d2"):
        shards = [t for t in a8.tasks.values() if t.split and t.split.origin == fc]
        eight_ok &= (len(shards) == 2
                     and sorted(s.split.rows for s in shards) == [(0, 4096), (4096, 8192)])

    def replica_counts(a, lead):
        reps = [t for t in a.tasks.values() if t.layers[0] == lead and t.replica]
        return {t.replica.count for t in reps}, len(reps)

    ten_ok = True
    for lead in ("conv_1s", "conv_1t"):
        counts, num = replica_counts(aset.assignments[10], lead)
        ten_ok &= counts == {2} and num == 2
        shard10 = [t for t in aset.assignments[10].tasks.values()
                   if t.split and t.split.origin in ("fc_d1", "fc_d2")]
        ten_ok &= all(s.split.count == 2 for s in shard10)

    twelve_ok = True
    for lead in ("conv_1s", "conv_1t"):
        counts, num = replica_counts(aset.assignments[12], lead)
        twelve_ok &= counts == {3} and num == 3

    report(2, five_ok and eight_ok and ten_ok and twelve_ok,
           "n=5 dense(8k | 8k+51); n=8 both dense layers 2-way sharded; "
           "n=10 streams x2; n=12 streams x3")


def test_criterion_3_image_model_architectures(full_scale_plans, vgg_conv_blocks):
    a4 = full_scale_plans["alexnet"].assignments[4]
    alex_ok = len([t for t in a4.tasks.values()
                   if t.split and t.split.origin == "fc_1"]) == 2

    g = build_model("vgg16", 1.0, seed=1)
    a11 = full_scale_plans["vgg16"].assignments[11]
    blocks_ok = True
    for t in a11.tasks.values():
        owned = set(t.layers)
        for blk in vgg_conv_blocks(g):
            inter = owned & set(blk)
            blocks_ok &= not inter or inter == set(blk)
    fc1_shards = [t for t in a11.tasks.values() if t.split and t.split.origin == "fc_1"]
    tail = [t for t in a11.tasks.values() if "fc_2" in t.layers]
    vgg_ok = (blocks_ok and len(fc1_shards) == 2
              and len(tail) == 1 and "fc_3" in tail[0].layers
              and "fc_1" not in tail[0].layers)

    report(3, alex_ok and vgg_ok,
           "alexnet n=4 shards fc_1; vgg16 n=11 keeps conv blocks whole, "
           "shards fc_1, co-locates fc_2/fc_3")


def test_criterion_4_monotone_throughput(two_stream_bench):
    rep = two_stream_bench
    predicted = [e.predicted_ips for e in rep.entries]
    simulated = [e.simulated.ips for e in rep.entries]
    mono_pred = all(b >= a - 1e-12 for a, b in zip(predicted, predicted[1:]))
    mono_sim = all(b >= a - 1e-12 for a, b in zip(simulated, simulated[1:]))
    by_n = {e.devices: e.simulated.ips for e in rep.entries}
    ratio = by_n[5] / by_n[1] if by_n[1] > 0 else float("inf")
    report(4, mono_pred and mono_sim and ratio > 10.0,
           f"predicted {['%.2f' % p for p in predicted]} and simulated "
           f"{['%.2f' % s for s in simulated]} non-decreasing; "
           f"n=5/n=1 simulated ratio {ratio:.1f}x > 10x")


def test_criterion_5_reload_dominance(two_stream_bench):
    entry = next(e for e in two_stream_bench.entries if e.devices == 1)
    m = entry.simulated
    frac = m.breakdown["reload"] / m.t_forward_seconds
    report(5, frac > 0.5,
           f"one-device reload fraction {frac:.0%} of t_forward "
           f"({m.breakdown['reload']:.2f}s of {m.t_forward_seconds:.2f}s)")


def test_criterion_6_dense_shard_exactness():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(1000):
        out = int(rng.integers(4, 4097))
        inp = int(rng.integers(4, 513))
        k = int(rng.integers(2, 5))
        w = rng.uniform(-0.05, 0.05, (out, inp)).astype(np.float32)
        b = rng.uniform(-0.05, 0.05, out).astype(np.float32)
        x = rng.uniform(-1, 1, inp).astype(np.float32)
        # laid out once, as shared weights are, not again at every call
        p = freeze(LayerParams(w=w, b=b))
        full = forward_fc(x, p)
        parts = np.concatenate([forward_fc(x, p, rows=r) for r in split_fc_rows(out, k)])
        diff = float(np.max(np.abs(parts - full))) if out else 0.0
        worst = max(worst, diff)
        assert diff == 0.0
    report(6, worst == 0.0, f"1000 randomized shard recombinations, max abs diff {worst}")


def test_criterion_7_comm_model():
    m = CommModel()
    zero = comm_latency(0, m)
    one_mb = comm_latency(1_000_000, m)
    ok = abs(zero - 0.002) <= 1e-12 and abs(one_mb - 0.202) <= 1e-12
    report(7, ok, f"latency(0 B) = {zero}s, latency(1 MB) = {one_mb}s (tol 1e-12)")


def test_criterion_8_backpressure_safety():
    scale = 1 / 32
    graph = build_model("two_stream", scale, seed=9)
    dev = DeviceProfile().scaled_mem(scale)
    aset = task_assign(graph, 5, CommModel(), dev)
    cluster = start_cluster(aset, 5, inbox_capacity=10)
    frames = make_clip(graph, 1200, 9)
    outs, metrics = run_stream(cluster, frames, fps=2000.0, paced=False)

    peak_ok = all(w.inbox.peak_occupancy <= 10 for w in cluster.workers.values())
    # drained: a window holds only the items of its next, unfinished window
    window_ok = all(len(win.pending) < win.length
                    for w in cluster.workers.values()
                    for win in w.executor._windows.values())
    kept = metrics.kept_raw_indices
    ref = run_reference(graph, {"camera": frames[kept]})["out"]
    drain_ok = set(outs) == set(ref) and all(np.array_equal(outs[t], ref[t]) for t in ref)
    report(8, peak_ok and window_ok and drain_ok and metrics.drops > 0,
           f"1200 raw items at ~29x service rate: occupancy <= 10, "
           f"{metrics.drops} sampled drops, 0 window losses, "
           f"{len(outs)} surviving outputs exact")


def test_criterion_9_role_rotation_correctness():
    scale = 0.125
    graph = build_model("two_stream", scale, seed=2)
    dev = DeviceProfile().scaled_mem(scale)
    aset = task_assign(graph, 5, CommModel(), dev)
    frames = make_clip(graph, 60, 2)
    ref = run_reference(graph, {"camera": frames})["out"]

    cluster = start_cluster(aset, 5)
    out1, _ = run_stream(cluster, frames[:18])
    v0 = cluster.version
    rec = cluster.recorder().device
    target = 3 if rec != 3 else 2
    new_version = cluster.reassign(("motion_on", target))
    out2, _ = run_stream(cluster, frames[18:])

    produced = {**out1, **out2}
    equal = all(np.array_equal(produced[t], ref[t]) for t in produced)
    ok = (new_version == v0 + 1
          and cluster.last_reassign_reloads == 2
          and set(produced) == set(ref) and equal)
    report(9, ok,
           f"recorder {rec}->{target}: version {v0}->{new_version}, "
           f"{cluster.last_reassign_reloads} reloads, "
           f"{len(produced)} of {len(ref)} outputs oracle-equal, none lost")


def test_criterion_10_pyramid_oracle():
    rng = np.random.default_rng(1010)
    worst_rows = set()
    for _ in range(500):
        n = int(rng.integers(1, 65))
        frames = [rng.uniform(-5, 5, 12).astype(np.float32) for _ in range(n)]
        got = temporal_pyramid(frames, 4)
        worst_rows.add(got.shape[0])
        # independent oracle: enumerate ranges, take maxes elementwise
        rows = []
        for k in range(4):
            for start, end in pyramid_ranges(n, 2 ** k):
                acc = frames[start].copy()
                for f in frames[start + 1:end]:
                    acc = np.maximum(acc, f)
                rows.append(acc)
        assert np.array_equal(got, np.stack(rows))
    report(10, worst_rows == {15}, "500 randomized sequences match the "
           "range-max oracle exactly; always 15 rows")


def test_criterion_11_energy_accounting():
    devices = [DeviceProfile() for _ in range(5)]
    busy = {0: 10.0, 1: 4.0, 2: 0.0}
    out = energy(10.0, busy, devices)
    static_expected = 5 * 1.3 * 10.0            # 65 J
    dynamic_expected = (3.0 - 1.3) * (10.0 + 4.0)  # 23.8 J
    ok = (abs(out["static_joules"] - static_expected) <= 1e-9
          and abs(out["dynamic_joules"] - dynamic_expected) <= 1e-9
          and abs(out["total_joules"] - (static_expected + dynamic_expected)) <= 1e-9)
    report(11, ok,
           f"static {out['static_joules']} J == {static_expected}, "
           f"dynamic {out['dynamic_joules']} J == {dynamic_expected} (tol 1e-9)")
