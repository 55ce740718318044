"""Cluster runtime: exactness, backpressure, role rotation, transports."""

import numpy as np
import pytest

import edgeflock.engine as engine
from edgeflock.costs import CommModel, DeviceProfile
from edgeflock.engine import run_reference
from edgeflock.harness import make_clip
from edgeflock.model_ir import build_model
from edgeflock.planner import task_assign
from edgeflock.runtime import (
    RuntimeFault,
    activate_streams,
    run_stream,
    start_cluster,
)

SCALE = 0.125


@pytest.fixture(scope="module")
def ts():
    graph = build_model("two_stream", SCALE, seed=1)
    dev = DeviceProfile().scaled_mem(SCALE)
    aset = task_assign(graph, 12, CommModel(), dev)
    frames = make_clip(graph, 30, 1)
    ref = run_reference(graph, {"camera": frames})["out"]
    return graph, aset, frames, ref


def assert_exact(outs, ref):
    assert set(outs) == set(ref)
    for t in ref:
        assert np.array_equal(outs[t], ref[t]), f"tag {t}"


class TestExactness:
    @pytest.mark.parametrize("n", [1, 2, 5, 8, 12])
    def test_two_stream_matches_reference(self, ts, n):
        graph, aset, frames, ref = ts
        cluster = start_cluster(aset, n)
        outs, metrics = run_stream(cluster, frames)
        assert_exact(outs, ref)
        assert metrics.outputs == len(ref)
        assert metrics.routing_drops == 0

    def test_replicated_streams_reorder_by_tag(self, ts):
        graph, aset, frames, ref = ts
        a = aset.assignments[10]
        reps = [t for t in a.tasks.values() if t.replica is not None]
        assert reps, "n=10 should replicate stream tasks"
        cluster = start_cluster(aset, 10)
        outs, _ = run_stream(cluster, frames)
        assert_exact(outs, ref)

    def test_five_worker_cluster_reports_roles(self, ts):
        _, aset, _, _ = ts
        cluster = start_cluster(aset, 5)
        assert cluster.iptable.version == 1
        assert cluster.iptable.master_device() == 0
        assert len(cluster.iptable.recorder_devices()) == 1
        assert cluster.setup_seconds > 0

    def test_master_seed_choice_is_deterministic(self, ts):
        _, aset, _, _ = ts
        a = start_cluster(aset, 5, master_seed=11).iptable.master_device()
        b = start_cluster(aset, 5, master_seed=11).iptable.master_device()
        assert a == b

    def test_duplicate_task_ids_rejected(self, ts):
        _, aset, _, _ = ts
        import copy
        broken = copy.deepcopy(aset)
        a = broken.assignments[2]
        t0 = a.tasks[0]
        a.tasks[1] = t0.__class__(task_id=t0.task_id, device=1, layers=a.tasks[1].layers,
                                  split=None, replica=None,
                                  resident_groups=a.tasks[1].resident_groups,
                                  window_specs=())
        with pytest.raises(RuntimeFault):
            start_cluster(broken, 2)

    def test_corrupt_weight_detected(self, ts):
        graph, aset, frames, ref = ts
        def corrupt(name, params):
            if name == "fc_d3":
                params.b = params.b.copy()
                params.b[0] += np.float32(1.0)
            return params
        cluster = start_cluster(aset, 5, param_override=corrupt)
        outs, _ = run_stream(cluster, frames)
        diffs = {t: float(np.max(np.abs(outs[t] - ref[t]))) for t in ref}
        assert max(diffs.values()) > 0


class TestSharedParams:
    def test_generated_once_per_graph_and_never_at_setup(self, monkeypatch):
        calls = []
        generate = engine.params_for
        monkeypatch.setattr(engine, "params_for",
                            lambda graph, name: calls.append(name) or generate(graph, name))
        graph = build_model("two_stream", 1 / 32, seed=4)
        aset = task_assign(graph, 8, CommModel(), DeviceProfile().scaled_mem(1 / 32))
        clusters = [start_cluster(aset, n) for n in (1, 5, 8)]
        assert calls == []
        frames = make_clip(graph, 26, 4)
        ref = run_reference(graph, {"camera": frames})["out"]
        for cluster in clusters:
            assert_exact(run_stream(cluster, frames)[0], ref)
        assert sorted(calls) == sorted(set(calls))
        for p in graph.params_cache.values():
            for arr in (p.w, p.b, p.mean, p.var, p.gamma, p.beta):
                assert arr is None or not arr.flags.writeable

    def test_override_applies_to_its_own_executors_only(self, ts):
        graph, aset, frames, ref = ts

        def shift(name, params):
            if name == "fc_d3":
                params.b = params.b + np.float32(1.0)
            return params
        outs, _ = run_stream(start_cluster(aset, 5, param_override=shift), frames)
        assert all(not np.array_equal(outs[t], ref[t]) for t in ref)
        assert_exact(run_stream(start_cluster(aset, 5), frames)[0], ref)
        assert_exact(run_reference(graph, {"camera": frames})["out"], ref)

    def test_concurrent_first_use_yields_one_copy(self):
        import sys
        import threading
        graph = build_model("two_stream", 1 / 32, seed=6)
        names = [n for n in graph.topo_order if engine.params_for(graph, n).w is not None]
        seen: list[dict] = []
        start = threading.Barrier(8)

        def use():
            start.wait()
            seen.append({n: engine.shared_params(graph, n) for n in names})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=use) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and len(seen) == 8
        for n in names:
            assert len({id(s[n]) for s in seen}) == 1, n

    def test_shared_arrays_reject_writes(self, ts):
        p = engine.shared_params(ts[0], "fc_d3")
        assert p is engine.shared_params(ts[0], "fc_d3")
        with pytest.raises(ValueError):
            p.b[0] = 1.0


class TestBackpressure:
    SCALE = 1 / 32

    def _pressured(self, n_frames, seed):
        graph = build_model("two_stream", self.SCALE, seed=seed)
        dev = DeviceProfile().scaled_mem(self.SCALE)
        aset = task_assign(graph, 5, CommModel(), dev)
        cluster = start_cluster(aset, 5, inbox_capacity=10)
        frames = make_clip(graph, n_frames, seed)
        return graph, cluster, frames

    def test_stress_occupancy_bounded_and_outputs_correct(self):
        # camera rate far above the dense stage's service rate for 1200
        # raw items
        graph, cluster, frames = self._pressured(1200, 9)
        outs, metrics = run_stream(cluster, frames, fps=2000.0, paced=False)

        for w in cluster.workers.values():
            assert w.inbox.peak_occupancy <= 10
            assert w.inbox.occupancy == 0  # drained
        assert metrics.drops > 0, "sampling should have dropped raw frames"
        assert metrics.routing_drops == 0

        # pending window items are never dropped anywhere in the pipe
        for w in cluster.workers.values():
            for win in w.executor._windows.values():
                assert win.late_drops == 0
                assert win.skipped == 0

        # surviving tags produce exactly the reference outputs on the
        # kept raw subsequence
        recorder = next(w for w in cluster.workers.values() if w.owns_source)
        assert recorder.sample_drops == metrics.drops
        kept = metrics.kept_raw_indices
        assert len(kept) == len(frames) - metrics.drops
        assert len(kept) >= 100
        ref = run_reference(graph, {"camera": frames[kept]})["out"]
        assert set(outs) == set(ref)
        for t in ref:
            assert np.array_equal(outs[t], ref[t])

    def test_almost_full_throttles_then_recovers(self):
        graph, cluster, frames = self._pressured(400, 7)
        run_stream(cluster, frames, fps=2000.0, paced=False)
        recorder = next(w for w in cluster.workers.values() if w.owns_source)
        assert recorder.sample_drops > 0
        assert recorder.sample_interval > 1
        # a quiet stretch decays the sampling interval back toward full rate
        before = recorder.sample_interval
        for _ in range(12):
            cluster.feed_frame(frames[0], t=cluster.vnow + 5.0)
            cluster.drain()
        assert recorder.sample_interval <= max(1, before // 2)


class TestRoleRotation:
    def test_recorder_swap_keeps_outputs_oracle_equal(self, ts):
        graph, aset, _, _ = ts
        frames = make_clip(graph, 60, 4)
        ref = run_reference(graph, {"camera": frames})["out"]
        cluster = start_cluster(aset, 5)
        out1, _ = run_stream(cluster, frames[:18])
        rec_before = cluster.iptable.recorder_devices()[0]
        target = 3 if rec_before != 3 else 2
        v0 = cluster.iptable.version
        writes0 = cluster.master_writes

        new_version = cluster.reassign(("motion_on", target))
        assert new_version == v0 + 1
        assert cluster.master_writes == writes0 + 1
        assert cluster.last_reassign_reloads == 2
        assert cluster.iptable.recorder_devices() == [target]
        # table versions seen by every worker are the committed one
        assert all(w.table_version == new_version for w in cluster.workers.values())

        out2, _ = run_stream(cluster, frames[18:])
        produced = {**out1, **out2}
        assert produced, "pipeline should resume after the handoff"
        for tag, value in produced.items():
            assert np.array_equal(value, ref[tag]), f"tag {tag}"
        # outputs cover the stream tail once the windows refill
        assert max(produced) == len(frames) - 1
        gap = sorted(set(ref) - set(produced))
        assert gap == list(range(min(gap), max(gap) + 1)), "handoff gap is contiguous"

    def test_identical_mapping_bumps_version_without_reloads(self, ts):
        _, aset, frames, _ = ts
        cluster = start_cluster(aset, 5)
        run_stream(cluster, frames[:15])
        rec = cluster.iptable.recorder_devices()[0]
        v0 = cluster.iptable.version
        assert cluster.reassign(("motion_on", rec)) == v0 + 1
        assert cluster.last_reassign_reloads == 0

    def test_non_master_update_rejected(self, ts):
        _, aset, frames, _ = ts
        cluster = start_cluster(aset, 5)
        v0 = cluster.iptable.version
        with pytest.raises(RuntimeFault, match="non-master"):
            cluster.reassign(("motion_on", 3), from_device=4)
        assert cluster.iptable.version == v0
        assert cluster.rejected_updates == 1

    def test_master_loss_halts(self, ts):
        _, aset, _, _ = ts
        cluster = start_cluster(aset, 5)
        with pytest.raises(RuntimeFault, match="master"):
            cluster.reassign(("device_lost", cluster.iptable.master_device()))

    def test_stale_route_then_retry(self, ts):
        """A data frame sent to a device that no longer serves the role
        is dropped and counted; a resend after the update lands."""
        graph, aset, frames, ref = ts
        cluster = start_cluster(aset, 5)
        run_stream(cluster, frames[:16])
        from edgeflock.wire import Kind, Message
        ghost = Message(kind=Kind.DATA, tag=999, layer="conv_9z",
                        tensor=np.zeros(4, np.float32))
        drops0 = cluster.routing_drops
        cluster._send(0, ghost, 99, cluster.vnow)  # unknown destination
        cluster.drain()
        assert cluster.routing_drops == drops0 + 1


class TestMultiStream:
    def test_twelve_devices_two_streams(self):
        sets, deferred = activate_streams(12, [0, 1])
        assert deferred == []
        assert sets == {0: [0, 1, 2, 3, 4, 5], 1: [6, 7, 8, 9, 10, 11]}

    def test_insufficient_devices_defers(self):
        sets, deferred = activate_streams(3, [0, 1])
        assert deferred == [1]
        assert sets == {0: [0, 1, 2]}

    def test_single_stream_takes_all(self):
        sets, deferred = activate_streams(5, [7])
        assert sets == {7: [0, 1, 2, 3, 4]} and deferred == []

    def test_independent_streams_stay_oracle_equal(self, ts):
        graph, aset, frames, ref = ts
        sets, _ = activate_streams(12, [0, 1])
        for sid, devices in sets.items():
            cluster = start_cluster(aset, len(devices))
            outs, _ = run_stream(cluster, frames)
            assert_exact(outs, ref)


class TestLoopback:
    def test_exact_over_sockets(self, ts):
        graph, aset, frames, ref = ts
        from edgeflock.loopback import LoopbackCluster
        cluster = LoopbackCluster(aset, 5)
        try:
            outs = cluster.feed(frames, expected_outputs=len(ref), timeout=90.0)
        finally:
            cluster.close()
        assert_exact(outs, ref)

    def test_shards_over_sockets(self, ts):
        graph, aset, frames, ref = ts
        from edgeflock.loopback import LoopbackCluster
        cluster = LoopbackCluster(aset, 8)
        try:
            outs = cluster.feed(frames, expected_outputs=len(ref), timeout=90.0)
        finally:
            cluster.close()
        assert_exact(outs, ref)

    def test_close_ends_every_thread(self):
        import threading
        import time
        from edgeflock.loopback import LoopbackCluster
        graph = build_model("alexnet", SCALE, seed=2)
        aset = task_assign(graph, 4, CommModel(), DeviceProfile().scaled_mem(SCALE))
        frames = make_clip(graph, 4, 2)
        before = set(threading.enumerate())
        cluster = LoopbackCluster(aset, 4)
        try:
            outs = cluster.feed(frames, expected_outputs=4, timeout=90.0)
        finally:
            cluster.close()
        ref = run_reference(graph, {graph.inputs[0]: frames})[graph.outputs[0]]
        assert_exact(outs, ref)
        deadline = time.monotonic() + 10.0
        while True:
            left = [t for t in threading.enumerate() if t not in before and t.is_alive()]
            if not left or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        assert left == []
