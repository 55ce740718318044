"""Task assignment: grouping, memory packing, and split selection."""

import hashlib

import numpy as np
import pytest

from edgeflock import model_ir as ir
from edgeflock import costs
from edgeflock.costs import CommModel, DeviceProfile
from edgeflock import planner
from edgeflock.engine import EngineError, LayerParams, forward_fc
from edgeflock.harness import load_model, plan_for
from edgeflock.model_ir import LayerSpec, ModelGraph, build_model, validate_graph
from edgeflock.planner import (
    AssignmentSet,
    PlanError,
    find_min_load_tasks,
    model_to_layers,
    render_plan,
    split_fc_rows,
    task_assign,
)


@pytest.fixture(scope="module")
def two_stream():
    return build_model("two_stream", 1.0, seed=0)


@pytest.fixture(scope="module")
def ts_plan(two_stream):
    return task_assign(two_stream, 12)


def chain_graph():
    layers = {
        "src": LayerSpec("src", ir.SOURCE, {"shape": [8]}),
        "c1": LayerSpec("c1", ir.FC, {"out_size": 8}, ["src"]),
        "r1": LayerSpec("r1", ir.RELU, {}, ["c1"]),
        "c2": LayerSpec("c2", ir.FC, {"out_size": 8}, ["r1"]),
        "out": LayerSpec("out", ir.SINK, {}, ["c2"]),
    }
    return validate_graph(ModelGraph(layers, ["src"], ["out"]))


class TestGrouping:
    def test_glue_fuses_to_producer(self):
        g = chain_graph()
        groups = model_to_layers(g)
        by_first = {grp[0]: grp for grp in groups}
        assert by_first["c1"] == ["c1", "r1"]
        assert by_first["c2"] == ["c2", "out"]

    def test_two_stream_recorder_and_pyramid_groups(self, two_stream):
        groups = model_to_layers(two_stream)
        by_first = {grp[0]: set(grp) for grp in groups}
        assert by_first["camera"] == {"camera", "flow"}
        assert {"pyr_s", "pyr_t", "fuse"} in by_first.values()

    def test_single_fc_graph_single_group(self):
        layers = {
            "src": LayerSpec("src", ir.SOURCE, {"shape": [4]}),
            "f": LayerSpec("f", ir.FC, {"out_size": 4}, ["src"]),
            "out": LayerSpec("out", ir.SINK, {}, ["f"]),
        }
        g = validate_graph(ModelGraph(layers, ["src"], ["out"]))
        groups = model_to_layers(g)
        # source group plus the fc group; the fc group absorbs the sink
        assert [set(x) for x in groups] == [{"src"}, {"f", "out"}]


class TestMinLoadTasks:
    def test_two_stream_needs_five_tasks_at_one_gb(self, two_stream):
        groups = model_to_layers(two_stream)
        tasks = find_min_load_tasks(two_stream, groups, DeviceProfile().mem_bytes, 2.0)
        assert len(tasks) == 5
        sets = [set(t) for t in tasks]
        # final dense layers land on two tasks: (8k) and (8k + 51)
        assert {"pyr_s", "pyr_t", "fuse", "fc_d1", "act_d1"} in sets
        assert {"fc_d2", "act_d2", "fc_d3", "smax", "out"} in sets

    def test_infinite_memory_collapses_chains(self):
        g = chain_graph()
        groups = model_to_layers(g)
        tasks = find_min_load_tasks(g, groups, 10**15, 2.0)
        assert len(tasks) == 1

    def test_tight_memory_keeps_weighted_groups_apart(self):
        # a budget that fits one fc group but not two keeps each fc on
        # its own task (the weightless source rides along for free)
        g = chain_graph()
        groups = model_to_layers(g)
        per_group = max(costs.resident_bytes(*costs.memory_terms(g, grp), 2.0) for grp in groups)
        tasks = find_min_load_tasks(g, groups, per_group, 2.0)
        assert len(tasks) == 2
        owners = [set(t) for t in tasks]
        assert not any({"c1", "c2"} <= o for o in owners)

    def test_unsatisfiable_group_reported(self, two_stream):
        groups = model_to_layers(two_stream)
        with pytest.raises(PlanError, match="exceeding device memory"):
            find_min_load_tasks(two_stream, groups, 10**6, 2.0)


def pack(graph, n):
    """Stage 3 of planning under the default profile: graph's stage-2
    tasks packed into n buckets."""
    dev = DeviceProfile()
    tasks = find_min_load_tasks(graph, model_to_layers(graph), dev.mem_bytes, 2.0)
    c = planner._Costs(graph, dev, CommModel(), tuple(tuple(t) for t in tasks),
                       dev.mem_bytes, 2.0)
    return planner._pack(c, n)


class TestMinimizeLoadTime:
    def test_single_device_reloads(self, two_stream):
        state = pack(two_stream, 1)
        assert len(state) == 1
        assert len(state[0].resident_groups) > 1
        assert state[0].reload_seconds > 0

    def test_four_devices_zero_reload(self, two_stream):
        state = pack(two_stream, 4)
        assert len(state) == 4
        assert sum(w.reload_seconds for w in state) == 0

    def test_equality_branch_returns_tasks_unchanged(self, ts_plan):
        a = ts_plan.assignments[5]
        assert len(a.tasks) == 5
        assert all(not t.reloads for t in a.tasks.values())


class TestSplitRows:
    def test_identity_when_k_is_one(self):
        assert split_fc_rows(7, 1) == [(0, 7)]

    def test_even_and_uneven(self):
        assert split_fc_rows(4, 2) == [(0, 2), (2, 4)]
        assert split_fc_rows(8192, 2) == [(0, 4096), (4096, 8192)]
        assert split_fc_rows(7, 3) == [(0, 3), (3, 5), (5, 7)]

    def test_every_split_is_balanced_and_covers(self):
        # the old ceil split left (5, 4), (6, 4) and (9, 4) an empty last part
        assert split_fc_rows(5, 4) == [(0, 2), (2, 3), (3, 4), (4, 5)]
        for out in range(1, 65):
            for k in range(1, out + 1):
                rows = split_fc_rows(out, k)
                assert len(rows) == k
                assert rows[0][0] == 0 and rows[-1][1] == out
                assert all(a[1] == b[0] for a, b in zip(rows, rows[1:]))
                sizes = [hi - lo for lo, hi in rows]
                assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
                assert sizes == sorted(sizes, reverse=True)

    def test_forward_fc_rejects_empty_or_outside_rows(self):
        p = LayerParams(w=np.ones((5, 3), np.float32), b=np.zeros(5, np.float32))
        x = np.ones(3, np.float32)
        for rows in ((5, 5), (2, 2), (3, 1), (-1, 2), (4, 6)):
            with pytest.raises(EngineError, match="row range"):
                forward_fc(x, p, rows=rows)
        assert forward_fc(x, p, rows=(4, 5)).tolist() == [3.0]

    def test_rejects_oversplit(self):
        with pytest.raises(PlanError):
            split_fc_rows(3, 4)

    def test_randomized_shard_concat_equals_full(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            out = int(rng.integers(4, 512))
            inp = int(rng.integers(4, 128))
            k = int(rng.integers(2, 5))
            w = rng.uniform(-0.05, 0.05, (out, inp)).astype(np.float32)
            b = rng.uniform(-0.05, 0.05, out).astype(np.float32)
            x = rng.uniform(-1, 1, inp).astype(np.float32)
            p = LayerParams(w=w, b=b)
            full = forward_fc(x, p)
            parts = [forward_fc(x, p, rows=r) for r in split_fc_rows(out, k)]
            assert np.array_equal(np.concatenate(parts), full)


def coverage(graph, assignment):
    """Each graph layer owned exactly once (shards jointly, replica
    groups once)."""
    seen = {}
    for t in assignment.tasks.values():
        part_local = set()
        if t.split is not None:
            part_local = set(costs.row_local_layers(graph, t.layers, t.split.origin))
        rep_key = t.replica.group if t.replica else t.task_id
        for n in t.layers:
            key = (n, t.split.index if (t.split and n in part_local) else None)
            seen.setdefault(n, set()).add((rep_key, key[1]))
    problems = []
    for n in graph.topo_order:
        owners = seen.get(n)
        if not owners:
            problems.append(f"{n} unassigned")
            continue
        groups = {g for g, _ in owners}
        parts = {p for _, p in owners if p is not None}
        if parts:
            continue  # sharded: joint ownership
        if len(groups) > 1:
            problems.append(f"{n} owned by {groups}")
    return problems


class TestAssignments:
    def test_layer_coverage_all_n(self, two_stream, ts_plan):
        for n, a in ts_plan.assignments.items():
            assert coverage(two_stream, a) == [], f"n={n}"

    def test_fig_architecture_five_devices(self, ts_plan):
        a = ts_plan.assignments[5]
        dense_devs = {d for d, t in a.tasks.items()
                      if {"fc_d1", "fc_d2", "fc_d3"} & set(t.layers)}
        assert len(dense_devs) == 2
        owners = {d: set(t.layers) for d, t in a.tasks.items()}
        assert any(lay >= {"fc_d1"} and not lay & {"fc_d2", "fc_d3"} for lay in owners.values())
        assert any(lay >= {"fc_d2", "fc_d3"} and "fc_d1" not in lay for lay in owners.values())

    def test_fig_architecture_eight_devices(self, ts_plan):
        a = ts_plan.assignments[8]
        for fc in ("fc_d1", "fc_d2"):
            shards = [t for t in a.tasks.values() if t.split and t.split.origin == fc]
            assert len(shards) == 2
            assert sorted(s.split.rows for s in shards) == [(0, 4096), (4096, 8192)]

    def test_fig_architecture_ten_and_twelve(self, ts_plan):
        for n, count in ((10, 2), (12, 3)):
            a = ts_plan.assignments[n]
            for lead in ("conv_1s", "conv_1t"):
                reps = [t for t in a.tasks.values()
                        if t.layers[0] == lead and t.replica is not None]
                assert len(reps) == count, f"n={n} {lead}"
                assert all(r.replica.count == count for r in reps)

    def test_predicted_ips_monotone(self, ts_plan):
        ips = [ts_plan.assignments[n].predicted.ips for n in range(1, 13)]
        assert all(b >= a - 1e-12 for a, b in zip(ips, ips[1:]))

    def test_assignment_set_json_roundtrip(self, ts_plan):
        text = ts_plan.to_json()
        back = AssignmentSet.from_json(text)
        assert back.to_json() == text
        a, b = ts_plan.assignments[8], back.assignments[8]
        assert {d: t.task_id for d, t in a.tasks.items()} == \
               {d: t.task_id for d, t in b.tasks.items()}

    def test_plan_table_contains_shards_and_replicas(self, ts_plan):
        table = render_plan(ts_plan, [8, 10, 1])
        assert "shard 1/2 of fc_d1" in table
        assert "replica 1/2" in table
        assert "reloads" in table

    def test_task_assign_deterministic(self, two_stream):
        a = task_assign(two_stream, 6).to_json()
        b = task_assign(two_stream, 6).to_json()
        assert a == b


class TestImageModels:
    def test_alexnet_four_devices_shards_first_dense(self):
        aset = task_assign(build_model("alexnet", 1.0), 4)
        shards = [t for t in aset.assignments[4].tasks.values()
                  if t.split and t.split.origin == "fc_1"]
        assert len(shards) == 2

    def test_vgg16_eleven_devices_structure(self, vgg_conv_blocks):
        g = build_model("vgg16", 1.0)
        aset = task_assign(g, 11)
        a = aset.assignments[11]
        # every conv block wholly on one device (per conv-owning device)
        blocks = vgg_conv_blocks(g)
        for t in a.tasks.values():
            owned = set(t.layers)
            for blk in blocks:
                inter = owned & set(blk)
                assert not inter or inter == set(blk)
        shards = [t for t in a.tasks.values() if t.split and t.split.origin == "fc_1"]
        assert len(shards) == 2
        tail = [t for t in a.tasks.values() if "fc_2" in t.layers]
        assert len(tail) == 1 and "fc_3" in tail[0].layers


# sha256 of plan_for(load_model(model, scale, 0), 12, scale=scale).to_json().
# Planning must not move them.  (Last re-recorded when a row shard's
# predicted.load_seconds came to count only its rows' weights.)
GOLDEN_PLANS = {
    ("two_stream", 1.0): "473ab2abc040a2353258dec7f651f10b939c1a8181c92f95a075d2bc2c166e81",
    ("two_stream", 0.125): "5a8faa47868c359e1d8672bfe230064adfd4286f7f4befcfcfa78840930fb793",
    ("alexnet", 1.0): "8ac032ea6d053ea619403b2aedca78284e9f06c12106815c08f36b2df3a1e41b",
    ("alexnet", 0.125): "c0211cdbfc3a491b6abb4b8d8879117595f5737c9ec7297ea34bbc5a41896156",
    ("vgg16", 1.0): "e6c78bdb2a80558ac6b2994f4d1289cb5a03bd5b832d680ac801810bc00d3289",
    ("vgg16", 0.125): "1f13036b27d6e7a93b2241663362415779f1ff036770213bc2e1a78584eee774",
}


def stock_plan(model, scale):
    return plan_for(load_model(model, scale, 0), 12, scale=scale)


class TestGoldenPlans:
    @pytest.mark.parametrize("model,scale", sorted(GOLDEN_PLANS))
    def test_plan_json_unchanged(self, model, scale):
        text = stock_plan(model, scale).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_PLANS[(model, scale)]

    def test_no_state_carries_between_calls(self):
        first = stock_plan("two_stream", 0.125).to_json()
        stock_plan("vgg16", 0.125)
        assert stock_plan("two_stream", 0.125).to_json() == first

    def test_planner_compute_matches_runtime(self):
        """Planner and worker price every task of the golden plans alike:
        the planner's per-item compute equals the worker's per-layer
        charges summed per resident group, and the planned load equals
        what the worker loads."""
        from edgeflock.runtime import Worker
        checked = 0
        for model, scale in sorted(GOLDEN_PLANS):
            aset = stock_plan(model, scale)
            graph = aset.graph
            # A power of two: scaling each layer or a group's sum by it
            # gives the same float.
            assert aset.device.swap_penalty == 4.0
            memo = planner._Costs(graph, aset.device, aset.comm, (),
                                  aset.device.mem_bytes, aset.overhead_factor)
            for n, a in aset.assignments.items():
                for task in a.tasks.values():
                    worker = Worker(task.device, task, graph, aset.device)
                    charged = 0.0
                    for group in task.resident_groups:
                        seconds = 0.0
                        for name in group:
                            seconds += worker.layer_seconds[name]
                        charged += seconds
                    work = planner._Work(layers=task.layers, order=0, split=task.split,
                                         resident_groups=task.resident_groups)
                    planned = planner._price(memo, work).compute_seconds()
                    assert planned == charged, (model, scale, n, task.task_id)
                    assert a.predicted.load_seconds[task.device] == sum(
                        worker.price.load_seconds), (model, scale, n, task.task_id)
                    checked += 1
        assert checked == 468

    def test_row_shard_load_counts_its_rows(self):
        # t4.p0 holds rows [0, 4096) of fc_d2 (8192 -> 8192) and its relu:
        # half the layer's 67.1M weights, 3.68 s where the whole layer
        # would take 6.37 s
        a = stock_plan("two_stream", 1.0).assignments[6]
        (d, task), = [(d, t) for d, t in a.tasks.items() if t.task_id == "t4.p0"]
        assert task.layers == ("fc_d2", "act_d2") and task.split.rows == (0, 4096)
        weights = (8192 * 8192 + 8192) // 2
        assert a.predicted.load_seconds[d] == weights * 4 / 50e6 + 1.0


def fc_chain(widths):
    """A source, then one fc + relu per width after the first, then a sink."""
    layers = {"src": LayerSpec("src", ir.SOURCE, {"shape": [widths[0]]})}
    prev = "src"
    for i, width in enumerate(widths[1:]):
        layers[f"fc{i}"] = LayerSpec(f"fc{i}", ir.FC, {"out_size": width}, [prev])
        layers[f"act{i}"] = LayerSpec(f"act{i}", ir.RELU, {}, [f"fc{i}"])
        prev = f"act{i}"
    layers["out"] = LayerSpec("out", ir.SINK, {}, [prev])
    return validate_graph(ModelGraph(layers, ["src"], ["out"]))


CHAIN_WIDTHS = [64, 96, 48, 128, 80, 64, 112, 40, 96, 72, 128, 56, 88, 104, 48, 120, 64, 10]


def _plan_digest(plan) -> str:
    try:
        text = plan().to_json()
    except PlanError as e:
        text = f"PlanError: {e}"
    return hashlib.sha256(text.encode()).hexdigest()


def sweep_digest(model, scale):
    """sha256 over the plan JSON (or PlanError message) of every grid point.

    Stock models plan at n_max 12 over device memory x swap threshold x
    comm line x overhead factor.  The "fc_chain" case is a synthetic
    chain whose memory budget fits one fc per task, so stage 2 yields
    more than MAX_EXHAUSTIVE_TASKS tasks and stage 3 packs greedily; it
    plans up to 24 devices so stage 4 shards and replicates too.
    """
    lines = []
    if model == "fc_chain":
        graph = fc_chain(CHAIN_WIDTHS)
        groups = model_to_layers(graph)
        mem = max(costs.resident_bytes(*costs.memory_terms(graph, g), 2.0) for g in groups)
        assert len(find_min_load_tasks(graph, groups, mem, 2.0)) > planner.MAX_EXHAUSTIVE_TASKS
        device = DeviceProfile(mem_bytes=mem, flops_per_sec=2e3)
        lines.append(_plan_digest(lambda: task_assign(graph, 24, CommModel(), device)))
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()
    graph = load_model(model, scale, 0)
    for mem in (4_000_000_000, 1_000_000_000, 700_000_000):
        for swap in (None, 25_000_000):
            for comm in (CommModel(), CommModel(per_kb_seconds=0.002, base_seconds=0.01)):
                for overhead in (2.0, 1.5):
                    device = DeviceProfile(mem_bytes=mem, swap_threshold=swap)
                    digest = _plan_digest(lambda: task_assign(graph, 12, comm,
                                                              device.scaled_mem(scale), overhead))
                    lines.append(f"{mem} {swap} {comm} {overhead} {digest}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# Recorded before the stage-4 scoring moved to per-state stage vectors.
SWEEP_DIGESTS = {
    ("alexnet", 0.03125): "d114902ac08e38840dc5598427cae36f050b57ea7bc103768f1a3b7ebe5b3874",
    ("alexnet", 0.125): "376401855b16c9e9768f6d65c940d0ec549047f79095b5bfa8f75c28b6b0f5ea",
    ("alexnet", 1.0): "696af8907c2c1d76905d30556553ddfecae796fc53220ec51e34876d5fff85f8",
    ("fc_chain", 1.0): "5021d236ffeab95200197afaef725653710d2f8fb79962b68f810c5c8f4b202e",
    ("two_stream", 0.03125): "387d0de399c7528f466fc5d97703a0d9ffab3a0b478defa733258f7e8046ba4c",
    ("two_stream", 0.125): "8bad68ce398d74abcded8a9c45adf66fdd8d8ecd6992c2195eac0b676ac9fce1",
    ("two_stream", 1.0): "bab7c220fa38c959271085c3ec159c119c7b68ee650b6f632b768ce371a189b0",
    ("vgg16", 0.03125): "95009e28c8715af0989694adb196e963a74f1ce83f6b1616da86fa9dfb3c229c",
    ("vgg16", 0.125): "2a28e4fdf34087304b09f3f581607cb5c6d9d1ab0a629634f76c9cc21da7f8e3",
    ("vgg16", 1.0): "9ed564df513a4f97e1f40394c6a2d46c5532cff144cccaae59e6bdd1ee8cb4f9",
}


class TestPlanSweep:
    @pytest.mark.parametrize("model,scale", sorted(SWEEP_DIGESTS))
    def test_sweep_digest_unchanged(self, model, scale):
        """Plans across the memory/swap/comm/overhead grid do not move.

        Recorded with::

            PYTHONPATH=src:tests python -c "import test_planner as t; \\
                [print(k, t.sweep_digest(*k)) for k in sorted(t.SWEEP_DIGESTS)]"
        """
        assert sweep_digest(model, scale) == SWEEP_DIGESTS[(model, scale)]
