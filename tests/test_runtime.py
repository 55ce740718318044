"""Cluster runtime: exactness, backpressure, role rotation, transports."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

import edgeflock.engine as engine
from edgeflock import model_ir as ir
from edgeflock import runtime
from edgeflock.costs import CommModel, DeviceProfile
from edgeflock.engine import run_reference
from edgeflock.harness import make_clip, same_bits
from edgeflock.model_ir import build_model
from edgeflock.planner import task_assign
from edgeflock.runtime import (
    TRANSPORTS,
    RuntimeFault,
    run_stream,
    start_cluster,
)
from edgeflock.windows import SlidingWindow
from edgeflock.wire import Kind, Message

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
        assert same_bits(outs[t], ref[t]), f"tag {t}"


def test_assert_exact_compares_bits():
    ref = {0: np.array([0.0, np.nan], np.float32)}
    assert_exact({0: ref[0].copy()}, ref)
    with pytest.raises(AssertionError, match="tag 0"):
        assert_exact({0: np.array([-0.0, np.nan], np.float32)}, ref)
    with pytest.raises(AssertionError, match="tag 0"):
        assert_exact({0: ref[0].astype(np.float64)}, ref)


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
        assert cluster.version == 1
        assert cluster.master == 0
        assert cluster.recorder().owns_source
        assert cluster.setup_seconds > 0

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

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_device_id_below_zero_rejected(self, ts, transport):
        _, aset, _, _ = ts
        import copy
        from dataclasses import replace
        broken = copy.deepcopy(aset)
        a = broken.assignments[1]
        a.tasks = {-1: replace(a.tasks[0], device=-1)}
        with pytest.raises(RuntimeFault, match="must lie in"):
            start_cluster(broken, 1, transport)

    @pytest.mark.parametrize("n", [10, 12])
    def test_shard_assembly_stays_exact(self, ts, monkeypatch, n):
        graph, aset, frames, ref = ts
        joined = []
        join_rows = engine.TaskExecutor.join_rows
        monkeypatch.setattr(engine.TaskExecutor, "join_rows",
                            lambda ex, *a: joined.append(a[0]) or join_rows(ex, *a))
        outs, _ = run_stream(start_cluster(aset, n), frames)
        assert_exact(outs, ref)
        assert len(joined) >= len(ref), "each output passes an assembled shard"

    def test_stray_shard_is_a_fault(self, ts):
        """A row shard of a value the worker does not consume is a protocol
        violation, not a part parked forever."""
        _, aset, _, _ = ts
        cluster = start_cluster(aset, 8)
        tasks = cluster.assignment.tasks.values()
        assert any(t.split and t.split.terminal == "act_d2" for t in tasks)
        w = next(w for w in cluster.workers.values() if "act_d2" not in w.executor.consumers)
        msg = Message(kind=Kind.DATA, tag=0, layer="act_d2#p0", tensor=np.zeros(512, np.float32))
        with pytest.raises(RuntimeFault, match="unexpected shard for 'act_d2'"):
            w.consume_data(msg)

    def test_conv_runs_once_per_batch_of_firings(self, ts, monkeypatch):
        """A paced run at n=1 computes each conv over several tags at once."""
        graph, aset, frames, ref = ts
        calls, fired = [], []
        conv, push = engine.forward_conv, engine.TaskExecutor.push
        monkeypatch.setattr(engine, "forward_conv", lambda x, *a, **k: calls.append(
            x.shape[0] if x.ndim == 4 else 1) or conv(x, *a, **k))

        def push_spy(ex, *args):
            out = push(ex, *args)
            fired.extend(n for n in ex.fired_log if graph.layer(n).kind == "conv")
            return out
        monkeypatch.setattr(engine.TaskExecutor, "push", push_spy)
        outs, _ = run_stream(start_cluster(aset, 1), frames)
        assert_exact(outs, ref)
        assert sum(calls) == len(fired)
        assert len(calls) < len(fired) and max(calls) > 1

    def test_batches_stay_under_their_caps(self, ts, monkeypatch):
        # a clip longer than RUN_TAGS, so that a group reaches the cap
        graph, aset, _, _ = ts
        frames = make_clip(graph, engine.RUN_TAGS + 8, 1)
        ref = run_reference(graph, {"camera": frames})["out"]
        seen = []
        add = engine.Batch.add

        def add_spy(batch, key, pending, nbytes):
            out = add(batch, key, pending, nbytes)
            seen.append(max(len(g) for g in batch.groups.values()))
            for group in batch.groups.values():
                assert len(group) <= engine.RUN_TAGS
            for layer, held in batch.layer_bytes.items():
                firings = sum(len(g) for k, g in batch.groups.items() if k[:2] == layer)
                assert firings == 1 or held <= engine.RUN_BYTES
            return out
        monkeypatch.setattr(engine.Batch, "add", add_spy)
        for n in (1, 5, 12):
            cluster = start_cluster(aset, n)
            assert_exact(run_stream(cluster, frames)[0], ref)
            assert len(cluster.batch) == 0
        assert max(seen) == engine.RUN_TAGS

    def test_corrupt_weight_detected(self, ts, monkeypatch):
        graph, aset, frames, ref = ts
        shared = engine.shared_params

        def corrupt(graph, name):
            p = shared(graph, name)
            if name != "fc_d3":
                return p
            b = p.b.copy()
            b[0] += np.float32(1.0)
            return replace(p, b=b)
        monkeypatch.setattr(engine, "shared_params", corrupt)
        cluster = start_cluster(aset, 5)
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


# sha256 of TestBackpressure.test_open_loop_keeps_modeled_plane: two_stream
# 1/32 at n=5, inboxes of 10, 300 frames at 2000 fps, seed 5.
OPEN_LOOP_DIGEST = "19b6888eec993d8820f0ad979159381b3d9d165921c88c5c62db3e2a82c53a38"


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
        assert cluster.sample_drops == metrics.drops
        kept = metrics.kept_raw_indices
        assert len(kept) == len(frames) - metrics.drops
        assert len(kept) >= 100
        ref = run_reference(graph, {"camera": frames[kept]})["out"]
        assert set(outs) == set(ref)
        for t in ref:
            assert np.array_equal(outs[t], ref[t])

    def test_kept_indices_index_each_calls_frames(self):
        graph, cluster, frames = self._pressured(400, 7)
        admitted, produced, drops = [], {}, 0
        for clip in (frames[:200], frames[200:]):
            outs, metrics = run_stream(cluster, clip, fps=2000.0, paced=False)
            produced.update(outs)
            kept = metrics.kept_raw_indices
            assert len(kept) == len(clip) - (metrics.drops - drops)
            assert kept == sorted(set(kept)) and 0 <= kept[0] and kept[-1] < len(clip)
            admitted.append(clip[kept])
            drops = metrics.drops
        assert drops > 0
        ref = run_reference(graph, {"camera": np.concatenate(admitted)})["out"]
        assert_exact(produced, ref)

    def test_each_call_returns_its_own_outputs(self):
        _graph, cluster, frames = self._pressured(60, 7)
        first, _ = run_stream(cluster, frames[:30])
        second, metrics = run_stream(cluster, frames[30:])
        assert sorted(second) == sorted(tag for _t, tag, _p in cluster.completions)
        assert len(second) == metrics.outputs > 0
        assert first and not set(first) & set(second)

    def test_second_unpaced_call_is_not_backdated(self):
        _graph, cluster, frames = self._pressured(100, 7)
        run_stream(cluster, frames[:50], fps=2000.0, paced=False)
        now = cluster.vnow
        due = []
        feed = cluster.feed_frame
        cluster.feed_frame = lambda value, t=None: due.append(t) or feed(value, t)
        run_stream(cluster, frames[50:], fps=2000.0, paced=False)
        assert now > 0 and len(due) == 50
        assert min(due) == now

    def test_open_loop_keeps_modeled_plane(self):
        """sha256 of an open-loop run's modeled plane: outputs, completion
        times and paths, each worker's clock, busy seconds, inbox peak and
        rejections, the sample drops and the admitted frames (the
        recorder's line carries the stream's, every other device's none)."""
        _graph, cluster, frames = self._pressured(300, 5)
        outs, metrics = run_stream(cluster, frames, fps=2000.0, paced=False)
        digest = hashlib.sha256()

        def put(*items):
            digest.update(repr(items).encode())

        for tag, value in sorted(outs.items()):
            put("out", tag, value.dtype.str, value.shape)
            digest.update(value.tobytes())
        for t, tag, path in cluster.completions:
            put("done", float(t).hex(), tag,
                *(float(path[k]).hex() for k in ("compute", "comm", "reload", "total")))
        recorder = cluster.recorder().device
        for d, w in sorted(cluster.workers.items()):
            stream = (cluster.sample_drops, cluster.kept_raw) if d == recorder else (0, [])
            put("worker", d, float(w.free_at).hex(), float(w.busy_seconds).hex(),
                w.inbox.peak_occupancy, w.inbox.rejected, *stream)
        put("metrics", metrics.outputs, metrics.drops, metrics.kept_raw_indices)
        assert metrics.drops > 0 and metrics.outputs > 0
        assert digest.hexdigest() == OPEN_LOOP_DIGEST

    def test_one_live_wake_up_per_device(self):
        """Every _process event in the heap but a device's live one pops
        as a no-op, no device ever has two live ones, and none is due
        before its device's clock."""
        _graph, cluster, frames = self._pressured(300, 5)
        step, process = cluster._step, cluster._process
        live_pops = dead_pops = 0

        def checked_process(t, device, token):
            nonlocal live_pops, dead_pops
            w = cluster.workers[device]
            before = (len(cluster._heap), w.inbox.occupancy, w.free_at, cluster._wakes.get(device))
            process(t, device, token)
            if before[3] == (t, token):
                live_pops += 1
            else:
                dead_pops += 1
                assert before == (len(cluster._heap), w.inbox.occupancy, w.free_at,
                                  cluster._wakes.get(device))

        def checked_step():
            step()
            live = {}
            for t, _seq, fn, args in cluster._heap:
                if fn == checked_process and cluster._wakes.get(args[0]) == (t, args[1]):
                    live[args[0]] = live.get(args[0], 0) + 1
            assert all(count == 1 for count in live.values())
            assert set(live) == set(cluster._wakes)
            assert all(t >= cluster.workers[d].free_at for d, (t, _token) in cluster._wakes.items())

        cluster._process, cluster._step = checked_process, checked_step
        run_stream(cluster, frames, fps=2000.0, paced=False)
        assert live_pops > 0 and dead_pops < live_pops

    def test_events_follow_messages_not_queue_depth(self):
        """With one wake-up per device, the overload stream schedules
        about as many events as it moves messages and takes items."""
        _graph, cluster, frames = self._pressured(1200, 9)
        schedule, events = cluster._schedule, []
        cluster._schedule = lambda t, fn, *args: events.append(fn) or schedule(t, fn, *args)
        _outs, metrics = run_stream(cluster, frames, fps=2000.0, paced=False)
        assert metrics.drops > 0 and metrics.outputs > 0
        assert len(events) <= 3003

    def test_work_per_item_is_counted_once(self, monkeypatch):
        """The overload stream consumes and pushes each item once, sizes
        each message once and pushes each window item once: the counts
        that traced runs report."""
        calls = {}

        def count(owner, name):
            fn = getattr(owner, name)
            key = f"{owner.__name__}.{name}"

            def counted(*args, **kwargs):
                calls[key] = calls.get(key, 0) + 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        count(runtime.Worker, "consume_data")
        count(engine.TaskExecutor, "push")
        count(Message, "payload_bytes")
        count(SlidingWindow, "push")
        _graph, cluster, frames = self._pressured(1200, 9)
        _outs, metrics = run_stream(cluster, frames, fps=2000.0, paced=False)
        assert metrics.outputs == 164
        assert calls == {"Worker.consume_data": 1084, "TaskExecutor.push": 1084,
                         "Message.payload_bytes": 908, "SlidingWindow.push": 554}

    def test_mutual_stall_is_a_fault(self):
        """Devices 0 and 1 each send into the other; at 400 fps into
        inboxes of 6 both fill, each stalls on the other, and no event is
        left to move the held data."""
        b = ir._Builder(10)
        b.add("cam", ir.SOURCE, {"shape": [5, 5, 1]})
        b.add("s_norm", ir.NORM, {}, ["cam"])
        b.add("s_fc", ir.FC, {"out_size": 8}, ["s_norm"])
        b.add("s_pyr", ir.PYRAMID, {"levels": 2, "window": 2}, ["s_fc"])
        b.add("t_flow", ir.FLOWSTACK, {"window_len": 2}, ["cam"])
        b.add("t_act", ir.RELU, {}, ["t_flow"])
        b.add("t_conv", ir.CONV, {"filters": 4, "kernel_h": 3, "kernel_w": 3, "stride": 1,
                                  "padding": "same"}, ["t_act"])
        b.add("t_fc", ir.FC, {"out_size": 8}, ["t_conv"])
        b.add("t_pyr", ir.PYRAMID, {"levels": 2, "window": 2}, ["t_fc"])
        b.add("fuse", ir.CONCAT, {"axis": 0}, ["s_pyr", "t_pyr"])
        b.add("fc_h", ir.FC, {"out_size": 24}, ["fuse"])
        b.add("act_h", ir.RELU, {}, ["fc_h"])
        b.add("fc_o", ir.FC, {"out_size": 4}, ["act_h"])
        b.add("smax", ir.SOFTMAX, {}, ["fc_o"])
        b.add("out", ir.SINK, {}, ["smax"])
        graph = b.graph(["cam"], ["out"])
        dev = DeviceProfile(mem_bytes=20000, flops_per_sec=1e5, conv_flops_per_sec=4e5,
                            load_setup_seconds=0.01)
        aset = task_assign(graph, 6, CommModel(), dev)
        cluster = start_cluster(aset, 2, inbox_capacity=6)
        assert {e.producer_device for e in cluster.assignment.edges} == {0, 1}
        with pytest.raises(RuntimeFault, match=r"devices \[0, 1\] stall"):
            run_stream(cluster, make_clip(graph, 24, 10), fps=400.0, paced=False)

    def test_almost_full_throttles_then_recovers(self):
        graph, cluster, frames = self._pressured(400, 7)
        run_stream(cluster, frames, fps=2000.0, paced=False)
        assert cluster.sample_drops > 0
        assert cluster.sample_interval > 1
        # a quiet stretch decays the sampling interval back toward full rate
        before = cluster.sample_interval
        for _ in range(12):
            cluster.feed_frame(frames[0], t=cluster.vnow + 5.0)
            cluster.drain()
        assert cluster.sample_interval <= max(1, before // 2)

    def test_rotation_keeps_the_stream_cursor_and_sampler(self):
        """A recorder rotation after a pressured stream leaves the core's
        cursor and sampling rate as they were, and the next call tags on
        from them."""
        graph, cluster, frames = self._pressured(400, 7)
        _outs, first = run_stream(cluster, frames[:200], fps=2000.0, paced=False)
        first_raw = cluster.kept_raw
        assert cluster.sample_interval > 1
        state = (cluster.sample_interval, cluster.sample_cooldown_until,
                 cluster.kept_counter, cluster.raw_index)
        rec = cluster.recorder().device
        target = next(d for d in sorted(cluster.workers, reverse=True) if d != rec)
        cluster.reassign(("motion_on", target))
        assert cluster.recorder().device == target
        assert (cluster.sample_interval, cluster.sample_cooldown_until,
                cluster.kept_counter, cluster.raw_index) == state
        assert not any(hasattr(w, "kept_counter") or hasattr(w, "sample_interval")
                       for w in cluster.workers.values())
        outs, second = run_stream(cluster, frames[200:], fps=2000.0, paced=False)
        assert cluster.raw_index == 400
        assert cluster.kept_counter == state[2] + len(second.kept_raw_indices)
        assert first_raw + cluster.kept_raw == (first.kept_raw_indices
                                                + [200 + i for i in second.kept_raw_indices])
        assert outs and min(outs) >= state[2]
        admitted = frames[first_raw + cluster.kept_raw]
        ref = run_reference(graph, {"camera": admitted})["out"]
        for tag, value in outs.items():
            assert np.array_equal(value, ref[tag]), f"tag {tag}"

    @pytest.mark.parametrize("model,scale,n,frames,paced", [
        ("alexnet", 1 / 8, 4, 10, False),
        ("two_stream", 1 / 32, 5, 120, True),
    ])
    def test_pulling_a_held_frame_in_signals_almost_full(self, model, scale, n, frames, paced):
        """Inboxes of one: taking an item re-arms the watermark, and the
        frame ``_after_take`` pulls in from the sender's queue crosses it
        again.  The stream stays exact on the frames admitted."""
        graph = build_model(model, scale, seed=1)
        aset = task_assign(graph, n, CommModel(), DeviceProfile().scaled_mem(scale))
        cluster = start_cluster(aset, n, inbox_capacity=1)
        clip = make_clip(graph, frames, 1)
        after_take, signals = cluster._after_take, []

        def spied_after_take(t, device):
            before = cluster._crossings
            after_take(t, device)
            signals.append(cluster._crossings - before)

        cluster._after_take = spied_after_take
        outs, metrics = run_stream(cluster, clip, paced=paced)
        cluster.drain()
        assert sum(signals) > 0
        assert all(w.inbox.peak_occupancy <= 1 for w in cluster.workers.values())
        kept = metrics.kept_raw_indices
        assert_exact(outs, run_reference(graph, {graph.inputs[0]: clip[kept]})[graph.outputs[0]])


class TestEndlessStream:
    """One cluster fed an endless stream call by call keeps no history."""

    def test_memory_stays_bounded_and_the_stream_exact(self):
        """20 paced calls of 1000 two_stream frames at 1/32 on 5 devices.
        After each call the per-call lists hold that call's entries, each
        worker's path state at most that call's tags, and the executors
        hold at most: a window's length less one item per window, the
        window plus one flush group of flow fields, and the sink's lag of
        concat inputs waiting on a branch that starts later, none of them
        at a tag below the first that every input of the concat reaches.
        Nothing is left queued.  The first and last calls are each
        bit-equal to the reference over their frames, with the lag of
        frames before them (paced, so a tag is its raw index)."""
        graph = build_model("two_stream", 1 / 32, seed=1)
        aset = task_assign(graph, 5, CommModel(), DeviceProfile().scaled_mem(1 / 32))
        cluster = start_cluster(aset, 5)
        lag, calls, size = graph.first_valid["out"], 20, 1000
        clip = None
        for k in range(calls):
            before, clip = clip, make_clip(graph, size, k)
            outs, _ = run_stream(cluster, clip)
            assert len(cluster.outputs["out"]) <= size and outs is cluster.outputs["out"]
            assert len(cluster.completions) <= size and len(cluster.kept_raw) <= size
            assert cluster.kept_raw == list(range(k * size, (k + 1) * size))
            assert all(isinstance(v, np.ndarray) for v in outs.values())
            for w in cluster.workers.values():
                assert len(w.path_state) <= size
                ex = w.executor
                assert not ex._parts
                assert all(len(join) <= lag for join in ex._joins.values())
                for name, join in ex._joins.items():
                    first = max(graph.first_valid[i] for i in graph.layer(name).inputs)
                    assert all(t >= first for t in join), (name, sorted(join))
                assert all(len(win.pending) < win.length for win in ex._windows.values())
                for name, fields in ex._flows.items():
                    assert len(fields) <= graph.layer(name).attrs["window_len"] + engine.RUN_TAGS
            assert not cluster._heap and len(cluster.batch) == 0
            assert not any(cluster._waiting.values())
            if k in (0, calls - 1):
                lead = before[size - lag:] if k else clip[:0]
                ref = run_reference(graph, {"camera": np.concatenate([lead, clip])})["out"]
                base = k * size - len(lead)
                assert_exact(outs, {base + t: v for t, v in ref.items()})

    def test_path_state_trims_within_a_long_call(self):
        """One paced call of 4200 two_stream frames at 1/32 on one device:
        the worker's path state passes 4096 tags at tag 4096 and drops
        the oldest 2048, so it ends holding tags 2048 to 4199, and the
        outputs are bit-equal to the reference."""
        graph = build_model("two_stream", 1 / 32, seed=1)
        aset = task_assign(graph, 1, CommModel(), DeviceProfile().scaled_mem(1 / 32))
        cluster = start_cluster(aset, 1)
        clip = make_clip(graph, 4200, 3)
        outs, _ = run_stream(cluster, clip)
        assert sorted(cluster.workers[0].path_state) == list(range(2048, 4200))
        assert_exact(outs, run_reference(graph, {"camera": clip})["out"])


class TestFeeding:
    """Paced feeding waits only for the source replicas that take a frame
    and counts data in flight; every plan samples through its recorder."""

    SEED = 4711

    @pytest.fixture(scope="class")
    def paced_sweep(self):
        """model -> n -> metrics of a paced run, each checked against the
        reference over the whole clip."""
        sweeps = {}

        def sweep(model, frames, n_list):
            key = (model, frames, tuple(n_list))
            if key not in sweeps:
                graph = build_model(model, SCALE, seed=self.SEED)
                aset = task_assign(graph, 12, CommModel(), DeviceProfile().scaled_mem(SCALE))
                clip = make_clip(graph, frames, self.SEED)
                ref = run_reference(graph, {graph.inputs[0]: clip})[graph.outputs[0]]
                sweeps[key] = {}
                for n in n_list:
                    outs, metrics = run_stream(start_cluster(aset, n), clip)
                    assert metrics.drops == 0, (model, n)
                    assert metrics.kept_raw_indices == list(range(frames)), (model, n)
                    assert_exact(outs, ref)
                    sweeps[key][n] = metrics
            return sweeps[key]
        return sweep

    @pytest.mark.parametrize("model,frames", [("two_stream", 64), ("alexnet", 8)])
    def test_paced_runs_admit_every_frame(self, paced_sweep, model, frames):
        assert sorted(paced_sweep(model, frames, range(1, 13))) == list(range(1, 13))

    def test_source_replicas_overlap(self, paced_sweep):
        """Frame k waits only for the replica that takes tag k, so adding
        source replicas raises throughput."""
        assert paced_sweep("alexnet", 8, range(1, 13))[4].ips > 8.0
        vgg = paced_sweep("vgg16", 8, (1, 4, 8, 12))
        assert vgg[8].ips > vgg[4].ips

    def test_replicated_source_samples_through_its_recorder(self):
        graph = build_model("alexnet", SCALE, seed=1)
        aset = task_assign(graph, 8, CommModel(), DeviceProfile().scaled_mem(SCALE))
        cluster = start_cluster(aset, 8, inbox_capacity=4)
        assert len(cluster.sources) > 1
        frames = make_clip(graph, 40, 1)
        outs, metrics = run_stream(cluster, frames, fps=100.0, paced=False)
        kept = metrics.kept_raw_indices
        assert metrics.drops > 0 and len(kept) == len(frames) - metrics.drops
        assert cluster.sample_drops == metrics.drops
        assert_exact(outs, run_reference(graph, {"input": frames[kept]})["out"])

    def test_one_crossing_halves_the_rate_once(self):
        """An almost-full crossing signals every source replica upstream,
        and the camera's sampling rate halves once for it, not once per
        replica."""
        graph = build_model("alexnet", SCALE, seed=1)
        aset = task_assign(graph, 8, CommModel(), DeviceProfile().scaled_mem(SCALE))
        cluster = start_cluster(aset, 8, inbox_capacity=4)
        sources = {d for d, _idx, _count in cluster.sources}
        crossings, slow_downs = [], []
        signal = cluster._signal_almost_full

        def spied_signal(t, device):
            crossings.append(len(sources & set(cluster._preds[device])))
            signal(t, device)

        def spied_slow_down(t):
            before = cluster.sample_interval
            slow_down(t)
            slow_downs.append((before, cluster.sample_interval))

        slow_down = cluster._slow_down
        cluster._slow_down = spied_slow_down
        cluster._signal_almost_full = spied_signal
        run_stream(cluster, make_clip(graph, 40, 1), fps=100.0, paced=False)
        assert max(crossings) > 1, "some crossing should signal several source replicas"
        assert len(slow_downs) == sum(1 for c in crossings if c)
        assert all(after <= 2 * before for before, after in slow_downs)


# sha256 of a recorder rotation's modeled plane: outputs, completion
# times and paths, each worker's task, role version, clock, busy
# seconds, reload count and tag cursor (the stream's on the recorder,
# (0, 0) on every other device), the committed tasks and edges, and each
# device's roles.  Keyed by
# (model, n, target) where target "swap" moves the recorder to another
# device and "identity" names the current recorder.
GOLDEN_ROTATIONS = {
    ("two_stream", 5, "swap"):
        "d8a75fb7f0eb4de92f6e286c1c76a133b3efd7f2dc2d8c83fecce3b711277884",
    ("two_stream", 5, "identity"):
        "96f283f9fb300b8e9a8e0c50847d01a7b359bc29a1c5b43c93356bb63e09d8d0",
    ("two_stream", 8, "swap"):
        "9ef4aef75921d262443f190c3d96c78cd1ce7ea72ed024698e1b6054b33ed062",
    ("two_stream", 12, "swap"):
        "fe6a2d0322b0d2cdb5b0078bf8ab05dc96975200bdd11032bd941d5ee19f3cee",
    ("alexnet", 4, "swap"):
        "768b67262b53513b535750e88ed818a640a109a14b5c2b5c4d3ce714de70847f",
}


def rotation_digest(cluster, produced, completions=None) -> str:
    """Digest of ``produced`` and ``completions``, by default the last
    call's, and of the cluster's state."""
    digest = hashlib.sha256()

    def put(*items):
        digest.update(repr(items).encode())

    recorder = cluster.recorder().device
    for tag, value in sorted(produced.items()):
        put("out", tag, value.dtype.str, value.shape)
        digest.update(value.tobytes())
    for t, tag, path in cluster.completions if completions is None else completions:
        put("done", float(t).hex(), tag,
            *(float(path[k]).hex() for k in ("compute", "comm", "reload", "total")))
    for d, w in sorted(cluster.workers.items()):
        cursor = (cluster.kept_counter, cluster.raw_index) if d == recorder else (0, 0)
        put("worker", d, w.task.task_id, cluster.version, float(w.free_at).hex(),
            float(w.busy_seconds).hex(), w.reload_count, *cursor)
    for d, task in sorted(cluster.assignment.tasks.items()):
        put("task", d, task.task_id, task.device)
    for e in cluster.assignment.edges:
        put("edge", e.producer_device, e.consumer_device, e.layer)
    put("table", cluster.version)
    for d in range(cluster.n):
        task = cluster.assignment.tasks.get(d)
        put("role", d, f"virtual:{d}", task.task_id if task else "",
            d == cluster.master, d == recorder)
    return digest.hexdigest()


# rotation_digest of one paced run_stream on a fresh cluster, keyed by
# (model, n); every plan runs fc row shards, and the last shard of each
# also consumes the value its shards assemble.  alexnet at n=4 also
# replicates its source task.
GOLDEN_PACED = {
    ("two_stream", 10):
        "71f437a33a268ee11ee219e62a688e901fd7ce67e04f23353f7e1ed30d968c86",
    ("alexnet", 3):
        "07746238181155d29dbbb3e0135c718180ad25c2b77e0246fbb14c49daaf167e",
    ("alexnet", 4):
        "5a64973c30351f11c7fdb904acb135c3abffc55d0c51b69b582ccb63810e0d7c",
}


@pytest.mark.parametrize("model,n", sorted(GOLDEN_PACED))
def test_paced_run_keeps_modeled_plane(ts, model, n):
    if model == "two_stream":
        graph, aset, frames = ts[0], ts[1], ts[2]
    else:
        graph = build_model(model, SCALE, seed=1)
        aset = task_assign(graph, n, CommModel(), DeviceProfile().scaled_mem(SCALE))
        frames = make_clip(graph, 8, 4)
    assert any(t.split for t in aset.for_devices(n).tasks.values())
    cluster = start_cluster(aset, n)
    outs, _ = run_stream(cluster, frames)
    assert rotation_digest(cluster, outs) == GOLDEN_PACED[(model, n)]


class TestRoleRotation:
    @pytest.mark.parametrize("model,n,target", sorted(GOLDEN_ROTATIONS))
    def test_rotation_keeps_modeled_plane(self, ts, model, n, target):
        if model == "two_stream":
            graph, aset = ts[0], ts[1]
            frames, before = make_clip(graph, 60, 4), 30
        else:
            graph = build_model(model, SCALE, seed=1)
            aset = task_assign(graph, n, CommModel(), DeviceProfile().scaled_mem(SCALE))
            frames, before = make_clip(graph, 8, 4), 4
        cluster = start_cluster(aset, n)
        out1, _ = run_stream(cluster, frames[:before])
        done1 = cluster.completions
        rec = cluster.recorder().device
        dev = rec if target == "identity" else next(
            d for d in sorted(cluster.workers, reverse=True) if d != rec)
        cluster.reassign(("motion_on", dev))
        out2, _ = run_stream(cluster, frames[before:])
        digest = rotation_digest(cluster, {**out1, **out2}, done1 + cluster.completions)
        assert digest == GOLDEN_ROTATIONS[(model, n, target)]

    def test_recorder_swap_keeps_outputs_oracle_equal(self, ts):
        graph, aset, _, _ = ts
        frames = make_clip(graph, 60, 4)
        ref = run_reference(graph, {"camera": frames})["out"]
        cluster = start_cluster(aset, 5)
        out1, _ = run_stream(cluster, frames[:18])
        rec_before = cluster.recorder().device
        target = 3 if rec_before != 3 else 2
        v0 = cluster.version

        new_version = cluster.reassign(("motion_on", target))
        assert new_version == v0 + 1
        assert cluster.last_reassign_reloads == 2
        assert cluster.recorder().device == target
        assert cluster.version == new_version

        out2, _ = run_stream(cluster, frames[18:])
        produced = {**out1, **out2}
        assert produced, "pipeline should resume after the handoff"
        for tag, value in produced.items():
            assert np.array_equal(value, ref[tag]), f"tag {tag}"
        # outputs cover the stream tail once the windows refill
        assert max(produced) == len(frames) - 1
        gap = sorted(set(ref) - set(produced))
        assert gap == list(range(min(gap), max(gap) + 1)), "handoff gap is contiguous"

    def test_kept_indices_after_rotation(self, ts):
        graph, aset, _, _ = ts
        frames = make_clip(graph, 60, 4)
        cluster = start_cluster(aset, 5)
        _, first = run_stream(cluster, frames[:30])
        rec = cluster.recorder().device
        cluster.reassign(("motion_on", 3 if rec != 3 else 2))
        _, second = run_stream(cluster, frames[30:])
        for metrics, drops_before in ((first, 0), (second, first.drops)):
            kept = metrics.kept_raw_indices
            assert len(kept) == 30 - (metrics.drops - drops_before)
            assert kept == sorted(set(kept)) and 0 <= kept[0] and kept[-1] < 30

    def test_identical_mapping_bumps_version_without_reloads(self, ts):
        _, aset, frames, _ = ts
        cluster = start_cluster(aset, 5)
        run_stream(cluster, frames[:15])
        rec = cluster.recorder().device
        v0 = cluster.version
        assert cluster.reassign(("motion_on", rec)) == v0 + 1
        assert cluster.last_reassign_reloads == 0

    def test_master_loss_halts(self, ts):
        _, aset, _, _ = ts
        cluster = start_cluster(aset, 5)
        with pytest.raises(RuntimeFault, match="master"):
            cluster.reassign(("device_lost", cluster.master))

    @pytest.mark.parametrize("trigger,message", [
        (("motion_on", 99), "device 99 is not part of the cluster"),
        (("device_lost", 3), "device loss requires restarting"),
        (("scene_change", 0), "unknown trigger 'scene_change'"),
    ])
    def test_refused_reassignment_keeps_the_cluster(self, ts, trigger, message):
        """A refused trigger raises and commits nothing: the version holds
        and the next run is complete and oracle-equal."""
        graph, aset = ts[0], ts[1]
        frames = make_clip(graph, 60, 4)
        ref = run_reference(graph, {"camera": frames})["out"]
        cluster = start_cluster(aset, 5)
        assert cluster.master != 3
        run_stream(cluster, frames[:30])
        version = cluster.version
        with pytest.raises(RuntimeFault, match=message):
            cluster.reassign(trigger)
        assert cluster.version == version
        outs, _ = run_stream(cluster, frames[30:])
        assert_exact(outs, {t: ref[t] for t in range(30, 60)})

    def test_unknown_transport_is_a_runtime_fault(self, ts):
        with pytest.raises(RuntimeFault, match="unknown transport 'carrier_pigeon'"):
            start_cluster(ts[1], 5, "carrier_pigeon")


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

    def test_second_feed_continues_the_stream(self, ts):
        """Two feeds on one cluster: the recorder tags on from the first,
        and each call returns its own outputs, as two run_stream calls on
        a virtual cluster do."""
        from edgeflock.loopback import LoopbackCluster
        graph, aset = ts[0], ts[1]
        frames = make_clip(graph, 60, 4)
        ref = run_reference(graph, {"camera": frames})["out"]
        virtual = start_cluster(aset, 5)
        want = [run_stream(virtual, frames[:30])[0], run_stream(virtual, frames[30:])[0]]
        assert sorted(want[0]) == list(range(24, 30))
        assert sorted(want[1]) == list(range(30, 60))
        cluster = LoopbackCluster(aset, 5)
        try:
            got = [cluster.feed(frames[:30], expected_outputs=len(want[0]), timeout=90.0)]
            assert cluster.kept_raw == list(range(30))
            got.append(cluster.feed(frames[30:], expected_outputs=len(want[1]), timeout=90.0))
            assert cluster.kept_raw == list(range(30, 60))
        finally:
            cluster.close()
        for outs, expected in zip(got, want):
            assert_exact(outs, expected)
            assert_exact(outs, {t: ref[t] for t in expected})

    @pytest.mark.parametrize("model,n", [("two_stream", 1), ("two_stream", 8),
                                         ("two_stream", 12), ("alexnet", 5)])
    def test_both_transports_agree(self, ts, model, n):
        """One plan and one clip on both clusters: oracle-equal outputs and
        the same modeled busy seconds per device, up to summation order."""
        from edgeflock.loopback import LoopbackCluster
        if model == "two_stream":
            graph, aset, frames, ref = ts
        else:
            graph = build_model(model, SCALE, seed=3)
            aset = task_assign(graph, n, CommModel(), DeviceProfile().scaled_mem(SCALE))
            frames = make_clip(graph, 6, 3)
            ref = run_reference(graph, {graph.inputs[0]: frames})[graph.outputs[0]]
        outs, metrics = run_stream(start_cluster(aset, n), frames)
        assert_exact(outs, ref)
        cluster = LoopbackCluster(aset, n)
        try:
            assert_exact(cluster.feed(frames, expected_outputs=len(ref), timeout=90.0), ref)
        finally:
            cluster.close()
        virtual = metrics.per_device_busy_seconds
        sockets = cluster.metrics().per_device_busy_seconds
        assert set(sockets) == set(virtual) == set(aset.assignments[n].tasks)
        for d, busy in virtual.items():
            assert busy > 0
            assert sockets[d] == pytest.approx(busy, rel=1e-12, abs=0.0), d

    @pytest.mark.parametrize("n", [1, 4])
    def test_full_inboxes_do_not_deadlock(self, n):
        """Inboxes of one: the feeder blocks on a full node while that
        node's processor sends on to its consumers or records outputs; no
        sender waits on a connection that another sender holds."""
        from edgeflock.loopback import LoopbackCluster
        graph = build_model("alexnet", SCALE, seed=2)
        aset = task_assign(graph, 4, CommModel(), DeviceProfile().scaled_mem(SCALE))
        frames = make_clip(graph, 40, 2)
        ref = run_reference(graph, {graph.inputs[0]: frames})[graph.outputs[0]]
        cluster = LoopbackCluster(aset, n, inbox_capacity=1)
        try:
            outs = cluster.feed(frames, expected_outputs=len(ref), timeout=60.0)
        finally:
            cluster.close()
        assert_exact(outs, ref)

    def test_replicas_record_outputs_without_losing_one(self):
        """Two data replicas of alexnet's last stage record into one
        ``outputs``; under a short switch interval none is lost."""
        import sys
        from edgeflock.loopback import LoopbackCluster
        graph = build_model("alexnet", SCALE, seed=2)
        aset = task_assign(graph, 2, CommModel(), DeviceProfile().scaled_mem(SCALE))
        sink = graph.outputs[0]
        assert [t.replica.count for t in aset.assignments[2].tasks.values()
                if sink in t.layers] == [2, 2]
        frames = make_clip(graph, 40, 2)
        ref = run_reference(graph, {graph.inputs[0]: frames})[sink]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        cluster = LoopbackCluster(aset, 2)
        try:
            outs = cluster.feed(frames, expected_outputs=len(ref), timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
            cluster.close()
        assert_exact(outs, ref)

    def test_failed_feed_send_is_a_runtime_fault(self):
        from edgeflock.loopback import LoopbackCluster
        graph = build_model("alexnet", SCALE, seed=2)
        aset = task_assign(graph, 4, CommModel(), DeviceProfile().scaled_mem(SCALE))
        cluster = LoopbackCluster(aset, 4)
        try:
            cluster.nodes[0].stop()  # the source device no longer listens
            with pytest.raises(RuntimeFault, match="feed of frame 0 to device 0") as info:
                cluster.feed(make_clip(graph, 4, 2), expected_outputs=4, timeout=10.0)
        finally:
            cluster.close()
        assert isinstance(info.value.__cause__, OSError)

    @staticmethod
    def threads_left(before, seconds=10.0):
        """Threads started since ``before`` still alive after ``seconds``."""
        import threading
        import time
        deadline = time.monotonic() + seconds
        while True:
            left = [t for t in threading.enumerate() if t not in before and t.is_alive()]
            if not left or time.monotonic() > deadline:
                return left
            time.sleep(0.05)

    def test_close_ends_every_thread(self):
        import threading
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
        assert self.threads_left(before) == []

    def test_worker_exception_fails_feed_promptly(self, monkeypatch):
        import threading
        import time
        from edgeflock.loopback import LoopbackCluster
        graph = build_model("alexnet", SCALE, seed=2)
        aset = task_assign(graph, 4, CommModel(), DeviceProfile().scaled_mem(SCALE))
        frames = make_clip(graph, 4, 2)
        shared = engine.shared_params

        def broken(graph, name):
            if name == "fc_2":
                raise ValueError("fc_2 weights unreadable")
            return shared(graph, name)

        monkeypatch.setattr(engine, "shared_params", broken)
        before = set(threading.enumerate())
        cluster = LoopbackCluster(aset, 4)
        t0 = time.monotonic()
        try:
            with pytest.raises(RuntimeFault, match="fc_2 weights unreadable") as info:
                cluster.feed(frames, expected_outputs=4, timeout=60.0)
        finally:
            cluster.close()
        assert time.monotonic() - t0 < 10.0
        assert isinstance(info.value.__cause__, ValueError)
        assert self.threads_left(before) == []

    @pytest.mark.parametrize("kind", [Kind.ALMOST_FULL, Kind.HEARTBEAT, Kind.SKIP])
    def test_a_frame_no_handler_takes_fails_feed(self, kind):
        """A frame of a kind that no loopback handler takes is a fault:
        dropped, it would leave an idle cluster that looks finished."""
        import time
        from edgeflock.loopback import LoopbackCluster
        graph = build_model("alexnet", SCALE, seed=2)
        aset = task_assign(graph, 4, CommModel(), DeviceProfile().scaled_mem(SCALE))
        cluster = LoopbackCluster(aset, 4)
        t0 = time.monotonic()
        try:
            cluster.send(Message(kind=kind, body={"occupancy": 1}), 2)
            with pytest.raises(RuntimeFault, match=f"device 2 has no handler for {kind.name} frames"):
                cluster.feed(make_clip(graph, 4, 2), expected_outputs=4, timeout=60.0)
        finally:
            cluster.close()
        assert time.monotonic() - t0 < 10.0

    def test_garbage_frame_fails_feed_promptly(self):
        """A frame that does not decode ends its reader thread: feed raises
        at once, chained from the WireError, and close() ends every thread."""
        import threading
        import time
        from edgeflock.loopback import _LEN, LoopbackCluster
        from edgeflock.wire import WireError
        graph = build_model("alexnet", SCALE, seed=2)
        aset = task_assign(graph, 4, CommModel(), DeviceProfile().scaled_mem(SCALE))
        before = set(threading.enumerate())
        cluster = LoopbackCluster(aset, 4)
        t0 = time.monotonic()
        try:
            garbage = b"\xff" * 20  # wire version 255
            cluster.nodes[0].out.sendall(_LEN.pack(len(garbage)) + garbage)
            with pytest.raises(RuntimeFault, match="unsupported wire version 255") as info:
                cluster.feed(make_clip(graph, 4, 2), expected_outputs=4, timeout=60.0)
        finally:
            cluster.close()
        assert time.monotonic() - t0 < 10.0
        assert isinstance(info.value.__cause__, WireError)
        assert self.threads_left(before) == []

    def test_blocked_handler_times_feed_out(self):
        """Handlers that do not return: feed gives up after its timeout and
        names the messages left unhandled, here the four frames fed to the
        two source replicas; close() ends every thread once they return."""
        import threading
        import time
        from edgeflock.loopback import LoopbackCluster
        graph = build_model("alexnet", SCALE, seed=2)
        aset = task_assign(graph, 4, CommModel(), DeviceProfile().scaled_mem(SCALE))
        release = threading.Event()
        before = set(threading.enumerate())
        cluster = LoopbackCluster(aset, 4)
        cluster.handle = lambda w, msg: release.wait(30.0)
        t0 = time.monotonic()
        try:
            with pytest.raises(RuntimeFault, match="timed out with 4 messages unhandled"):
                cluster.feed(make_clip(graph, 4, 2), timeout=1.0)
            assert 1.0 <= time.monotonic() - t0 < 10.0
        finally:
            release.set()
            cluster.close()
        assert self.threads_left(before) == []

    def test_close_ends_every_thread_behind_a_full_queue(self):
        """A node whose queue is full at close(), its processor held in a
        handler and its reader blocked on the queue: once the handler
        returns, the processor drains the queue unhandled, the reader's
        put returns and it reads end-of-stream, and every thread ends."""
        import threading
        from edgeflock.loopback import LoopbackCluster
        graph = build_model("alexnet", SCALE, seed=2)
        aset = task_assign(graph, 4, CommModel(), DeviceProfile().scaled_mem(SCALE))
        release, handled = threading.Event(), []
        before = set(threading.enumerate())
        cluster = LoopbackCluster(aset, 4, inbox_capacity=1)
        cluster.handle = lambda w, msg: handled.append(msg) or release.wait(30.0)
        try:
            with pytest.raises(RuntimeFault, match="timed out"):
                cluster.feed(make_clip(graph, 8, 2), timeout=0.5)
            assert any(node.queue.full() for node in cluster.nodes.values())
        finally:
            cluster.close()
            release.set()
        assert self.threads_left(before, seconds=1.0) == []
        assert len(handled) == 2  # one per source replica, none after close()

    def test_a_lost_frame_fails_feed_fast(self, monkeypatch):
        """A message lost on the way leaves the cluster with nothing to
        handle and one output short: feed says so at once, well inside
        its timeout."""
        import threading
        import time
        from edgeflock.loopback import LoopbackCluster
        graph = build_model("alexnet", SCALE, seed=1)
        aset = task_assign(graph, 4, CommModel(), DeviceProfile().scaled_mem(SCALE))
        handle, lock, lost = LoopbackCluster.handle, threading.Lock(), []

        def lossy(self, w, msg):
            with lock:
                if msg.kind == Kind.DATA and msg.tag == 5 and not lost:
                    lost.append(msg.layer)
                    return
            handle(self, w, msg)

        monkeypatch.setattr(LoopbackCluster, "handle", lossy)
        cluster = LoopbackCluster(aset, 4)
        t0 = time.monotonic()
        try:
            with pytest.raises(RuntimeFault, match="completed 5 outputs, expected 6"):
                cluster.feed(make_clip(graph, 6, 1), expected_outputs=6, timeout=5.0)
        finally:
            cluster.close()
        assert time.monotonic() - t0 < 2.5  # half the timeout; 0.04 s on a 2-vCPU VM
        assert len(lost) == 1

    def test_two_threads_per_device(self):
        """Each device runs one reader and one processor, however many
        peers send to it, and close() ends them all."""
        import threading
        from edgeflock.loopback import LoopbackCluster
        graph = build_model("alexnet", SCALE, seed=2)
        aset = task_assign(graph, 4, CommModel(), DeviceProfile().scaled_mem(SCALE))
        before = set(threading.enumerate())
        cluster = LoopbackCluster(aset, 4)
        try:
            cluster.feed(make_clip(graph, 4, 2), expected_outputs=4, timeout=90.0)
            started = [t for t in threading.enumerate() if t not in before]
        finally:
            cluster.close()
        assert len(started) == 2 * len(cluster.nodes) == 8
        assert self.threads_left(before) == []

    def test_failed_setup_is_a_runtime_fault(self, monkeypatch):
        """A connect that fails while the cluster starts closes the devices
        opened so far and raises RuntimeFault, not a bare OSError."""
        import socket
        import threading
        import edgeflock.loopback as loopback
        graph = build_model("alexnet", SCALE, seed=2)
        aset = task_assign(graph, 4, CommModel(), DeviceProfile().scaled_mem(SCALE))
        connect, calls = socket.create_connection, []

        def refuse_third(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise ConnectionRefusedError("connection refused")
            return connect(*args, **kwargs)

        monkeypatch.setattr(loopback.socket, "create_connection", refuse_third)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeFault, match="loopback set-up of device") as info:
            loopback.LoopbackCluster(aset, 4)
        assert isinstance(info.value.__cause__, ConnectionRefusedError)
        assert len(calls) == 3
        assert self.threads_left(before) == []

    @pytest.mark.parametrize("n", [1, 2])
    def test_two_sinks_return_the_first(self, n):
        """feed returns and counts only the first sink's values, as
        run_stream does, however the other sink's values interleave;
        ``outputs`` holds every sink's."""
        from edgeflock.loopback import LoopbackCluster
        b = ir._Builder(1)
        b.add("x", ir.SOURCE, {"shape": [8]})
        b.add("fa", ir.FC, {"out_size": 4}, ["x"])
        b.add("oa", ir.SINK, {}, ["fa"])
        b.add("fb", ir.FC, {"out_size": 3}, ["x"])
        b.add("ob", ir.SINK, {}, ["fb"])
        graph = b.graph(["x"], ["oa", "ob"])
        aset = task_assign(graph, 2, CommModel(), DeviceProfile())
        frames = make_clip(graph, 6, 1)
        refs = run_reference(graph, {"x": frames})
        ref = refs["oa"]
        virtual, _ = run_stream(start_cluster(aset, n), frames)
        cluster = LoopbackCluster(aset, n)
        try:
            outs = cluster.feed(frames, expected_outputs=len(ref), timeout=60.0)
        finally:
            cluster.close()
        assert_exact(virtual, ref)
        assert_exact(outs, ref)
        assert_exact(cluster.outputs["ob"], refs["ob"])

    def test_each_feed_holds_only_its_own_results(self):
        """Two feeds of a two-sink model: after each, ``outputs`` holds
        exactly that call's tags of both sinks, as arrays bit-equal to the
        reference, and ``kept_raw`` that call's raw indices only."""
        from edgeflock.loopback import LoopbackCluster
        b = ir._Builder(1)
        b.add("x", ir.SOURCE, {"shape": [8]})
        b.add("fa", ir.FC, {"out_size": 4}, ["x"])
        b.add("oa", ir.SINK, {}, ["fa"])
        b.add("fb", ir.FC, {"out_size": 3}, ["x"])
        b.add("ob", ir.SINK, {}, ["fb"])
        graph = b.graph(["x"], ["oa", "ob"])
        aset = task_assign(graph, 2, CommModel(), DeviceProfile())
        frames = make_clip(graph, 12, 1)
        refs = run_reference(graph, {"x": frames})
        cluster = LoopbackCluster(aset, 2)
        try:
            for tags in (range(0, 5), range(5, 12)):
                outs = cluster.feed(frames[tags.start:tags.stop], timeout=60.0)
                assert outs is cluster.outputs["oa"]
                assert cluster.kept_raw == list(tags)
                for sink in ("oa", "ob"):
                    got = cluster.outputs[sink]
                    assert all(isinstance(v, np.ndarray) for v in got.values())
                    assert_exact(got, {t: refs[sink][t] for t in tags})
        finally:
            cluster.close()
