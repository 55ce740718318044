"""Oracle equality on small random graphs, at every device count.

The stock models share one shape: a camera, conv stacks, an fc
embedding, maybe a pyramid, a dense head.  These graphs vary it: one or
two branches of conv, relu, maxpool and norm, with or without a flow
stack, per-branch pyramids joined by ``concat``, and device memories
small enough that some plans shard fc and some cannot be made at all.
Every run must be byte-equal to ``run_reference`` over the frames the
recorder admitted; planning may fail only with ``PlanError`` and a run
only with ``RuntimeFault``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from edgeflock import model_ir as ir
from edgeflock.costs import CommModel, DeviceProfile
from edgeflock.engine import run_reference
from edgeflock.harness import make_clip, same_bits
from edgeflock.planner import PlanError, task_assign
from edgeflock.runtime import RuntimeFault, run_stream, start_cluster

N_MAX = 6
UNPACED_FPS = 400.0
MEMORIES = (4000, 8000, 20000, 10**6)


def _branch(draw, b: ir._Builder, prefix: str, shape: tuple[int, int, int]) -> str:
    """Layers of one branch from the camera; returns its last layer."""
    prev, (h, w, c) = "cam", shape
    if draw(st.booleans()):
        window_len = draw(st.integers(1, 2))
        prev = b.add(f"{prefix}flow", ir.FLOWSTACK, {"window_len": window_len}, [prev])
        c = 2 * window_len
    for i in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from([ir.CONV, ir.RELU, ir.MAXPOOL, ir.NORM]))
        name = f"{prefix}{kind}{i}"
        if kind == ir.CONV:
            k = draw(st.integers(1, 3))
            filters = draw(st.integers(1, 6))
            padding = draw(st.sampled_from(["same", "valid"])) if k <= min(h, w) else "same"
            prev = b.add(name, ir.CONV, {"filters": filters, "kernel_h": k, "kernel_w": k,
                                         "stride": 1, "padding": padding}, [prev])
            if padding == "valid":
                h, w = h - k + 1, w - k + 1
            c = filters
        elif kind == ir.MAXPOOL and min(h, w) >= 2:
            stride = draw(st.integers(1, 2))
            prev = b.add(name, ir.MAXPOOL, {"window": 2, "stride": stride}, [prev])
            h, w = (h - 2) // stride + 1, (w - 2) // stride + 1
        elif kind in (ir.RELU, ir.NORM):
            prev = b.add(name, kind, {}, [prev])
    return prev


@st.composite
def random_graphs(draw):
    """(graph, device profile) of one small random model."""
    b = ir._Builder(draw(st.integers(0, 2**16)))
    shape = (draw(st.integers(3, 8)), draw(st.integers(3, 8)), draw(st.integers(1, 3)))
    b.add("cam", ir.SOURCE, {"shape": list(shape)})
    # One width for every embedding: pyramid rows of different widths do
    # not concatenate.
    embed = draw(st.integers(2, 16))
    pyramids = draw(st.booleans())
    ends = []
    for bi in range(draw(st.integers(1, 2))):
        last = _branch(draw, b, f"b{bi}_", shape)
        last = b.add(f"b{bi}_fc", ir.FC, {"out_size": embed}, [last])
        if pyramids:
            last = b.add(f"b{bi}_pyr", ir.PYRAMID, {"levels": draw(st.integers(1, 2)),
                                                    "window": draw(st.integers(1, 3))}, [last])
        ends.append(last)
    prev = ends[0] if len(ends) == 1 else b.add("fuse", ir.CONCAT, {"axis": 0}, ends)
    for i in range(draw(st.integers(1, 2))):
        prev = b.add(f"head{i}", ir.FC, {"out_size": draw(st.integers(2, 32))}, [prev])
        prev = b.add(f"head{i}_act", ir.RELU, {}, [prev])
    prev = b.add("logits", ir.FC, {"out_size": draw(st.integers(2, 5))}, [prev])
    prev = b.add("smax", ir.SOFTMAX, {}, [prev])
    b.add("out", ir.SINK, {}, [prev])
    device = DeviceProfile(mem_bytes=draw(st.sampled_from(MEMORIES)), flops_per_sec=1e5,
                           conv_flops_per_sec=4e5, load_setup_seconds=0.01)
    return b.graph(["cam"], ["out"]), device


def _reference(graph, frames: np.ndarray) -> dict:
    return run_reference(graph, {"cam": frames})["out"]


def _assert_equal(outs: dict, ref: dict) -> None:
    for tag, value in outs.items():
        assert tag in ref and same_bits(value, ref[tag]), f"tag {tag}"


def _paced(graph, aset, n: int, clip: np.ndarray) -> None:
    """One paced call at the default inbox admits every frame."""
    outs, metrics = run_stream(start_cluster(aset, n), clip)
    assert metrics.kept_raw_indices == list(range(len(clip)))
    ref = _reference(graph, clip)
    assert set(outs) == set(ref)
    _assert_equal(outs, ref)


def _unpaced_with_rotation(graph, aset, n: int, clip: np.ndarray, capacity: int) -> None:
    """Two unpaced calls with the recorder moved between them.  The first
    call yields every output of its admitted frames; the move loses none,
    so the two calls together yield every output of the reference over
    all admitted frames, each once and equal to it."""
    cluster = start_cluster(aset, n, inbox_capacity=capacity)
    half = len(clip) // 2
    first, m1 = run_stream(cluster, clip[:half], fps=UNPACED_FPS, paced=False)
    admitted = clip[:half][m1.kept_raw_indices]
    ref = _reference(graph, admitted)
    assert set(first) == set(ref)
    _assert_equal(first, ref)
    cluster.reassign(("motion_on", max(cluster.workers)))
    second, m2 = run_stream(cluster, clip[half:], fps=UNPACED_FPS, paced=False)
    ref = _reference(graph, np.concatenate([admitted, clip[half:][m2.kept_raw_indices]]))
    assert not set(first) & set(second)
    assert set(first) | set(second) == set(ref)
    _assert_equal(second, ref)


@given(random_graphs(), st.sampled_from([6, 64]))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_random_graphs_match_reference(case, capacity):
    graph, device = case
    try:
        aset = task_assign(graph, N_MAX, CommModel(), device)
    except PlanError:
        return
    clip = make_clip(graph, graph.first_valid["out"] + 24, graph.seed)
    for n in range(1, N_MAX + 1):
        for run, args in ((_paced, ()), (_unpaced_with_rotation, (capacity,))):
            try:
                run(graph, aset, n, clip, *args)
            except RuntimeFault:
                pass
