"""Self-test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench

Each workload runs with a small model and clip.  The tests check that
every metric BENCHMARK.json names is emitted with its unit, that a
traced run restores every binding it patched and reproduces the
untraced run's modeled metrics exactly, and that on the single-threaded
workloads the self times of the traced spans cover the traced pass.
"""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts src/ on the path)
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

TINY = {
    "two_stream_paced": dict(scale=1 / 32, devices=(1, 5), frames=30),
    "vgg16_paced": dict(devices=(1, 4), frames=2),
    "alexnet_loopback": dict(frames=3),
    "two_stream_overload": dict(frames=200),
}


def tiny(name):
    return replace(workloads.WORKLOADS[name], **TINY[name])


def test_workloads_match_benchmark_json():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (name, workloads.WORKLOADS[name].why) for name in workloads.BENCHMARKED]


@pytest.mark.parametrize("name", list(TINY))
def test_end_to_end_metrics(name, tmp_path):
    line, _doc = run.run_workload(tiny(name), seed=3, seconds=1, trace=0, out_dir=tmp_path)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert {k: m["unit"] for k, m in line["metrics"].items()} == E2E_UNITS
    assert all(math.isfinite(m["value"]) and m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run(name, tmp_path):
    wl = tiny(name)
    entries = tracing.targets(workloads)
    before = tracing.bindings(entries)
    untraced, _ = run.run_workload(wl, seed=4, seconds=1, trace=0, out_dir=tmp_path)
    line, doc = run.run_workload(wl, seed=4, seconds=1, trace=1, out_dir=tmp_path)

    assert tracing.bindings(entries) == before
    assert line["correct"] and doc["bindings_restored"] and doc["sim_identical"]
    assert {k: m["unit"] for k, m in line["metrics"].items()} == LAYER_UNITS
    for key, metric in untraced["metrics"].items():
        if key.startswith("sim_"):
            assert doc["sim_traced"][key] == metric["value"], key
    assert Path(doc["spans"]).stat().st_size > 0
    if not wl.loopback:
        assert 0.9 <= doc["main_thread_self_share"] <= 1.0


def test_patched_restores_bindings_after_failure():
    entries = tracing.targets(workloads)
    before = tracing.bindings(entries)
    with pytest.raises(RuntimeError):
        with tracing.patched(tracing.Tracer(), entries):
            assert tracing.bindings(entries) != before
            raise RuntimeError("run failed")
    assert tracing.bindings(entries) == before


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(10_000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    idx = tracing.SpanIndex(tracer.spans)
    assert idx.calls("inner") == 3
    assert idx.self_seconds("outer") == pytest.approx(idx.busy("outer") - idx.busy("inner"))
    assert idx.covered("outer", "inner") == pytest.approx(idx.busy("inner"))


def test_check_outputs_is_bitwise():
    ref = {0: np.array([0.0, 1.0], np.float32), 1: np.array([2.0], np.float32)}
    assert workloads.check_outputs(dict(ref), ref) == 0
    assert workloads.check_outputs({0: np.array([-0.0, 1.0], np.float32)}, ref) == 2
    assert workloads.check_outputs({**ref, 2: ref[1]}, ref) == 1


def test_tail_leaves_ten_samples_beyond():
    value, pct, beyond = workloads.tail(list(range(100)))
    assert (value, pct, beyond) == (89, 90.0, 10)
    assert workloads.tail([1.0, 2.0]) == (2.0, 100.0, 0)


@pytest.mark.parametrize("model", ["two_stream", "alexnet"])
def test_kernel_ops_match_cost_model(model):
    """Kernel spans count the operations costs.layer_ops charges per firing."""
    graph = workloads.harness.load_model(model, 1 / 32 if model == "two_stream" else 0.125, 5)
    frames = graph.first_valid[graph.outputs[0]] + 2
    clip = workloads.harness.make_clip(graph, frames, 5)
    tracer = tracing.Tracer()
    entries = [e for e in tracing.targets(workloads) if e[2][len("engine."):] in tracing.KERNELS]
    with tracing.patched(tracer, entries):
        workloads.engine.run_reference(graph, {graph.inputs[0]: clip})
    idx = tracing.SpanIndex(tracer.spans)
    for kind in tracing.KERNELS:
        want = sum((frames - graph.first_valid[name]) * workloads.costs.layer_ops(graph, name)
                   for name in graph.topo_order if graph.layer(name).kind == kind)
        assert idx.work(f"engine.{kind}") == pytest.approx(want), kind
