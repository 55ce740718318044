"""Message-passing execution of an assignment.

Workers exchange tagged one-way messages; each worker is a single
logical event loop over one bounded inbox, with no shared state between
workers.  The default transport runs every worker in one process under
a deterministic discrete-event virtual clock: tensor math executes for
real (so outputs are exact), while compute, reload and link times are
modeled from the device/communication profiles and advance virtual
time.  A loopback-socket transport (``edgeflock.loopback``) runs the
same workers over real TCP frames.  Both transports share
``ClusterCore``: the plan index (shard parts, routes, predecessors,
source devices) and the handling of data and skip frames (shard
self-assembly, emission routing, skip notices); a transport only moves
frames.  A worker prices its task with ``costs.price_task``, as the
planner does.

Dynamic behavior follows the planned assignment set: a master-versioned
role table routes values; when the recording viewpoint moves, the
master rotates tasks while keeping every unaffected device on its
current task, bumps the table version, and only devices whose task
changed reload weights.  Nearly full inboxes signal their upstream
devices: the recorder halves its raw sampling rate for a cooldown
period (frames are dropped before tagging, so tagged streams stay
gap-free and pending windows are never disturbed), while mid-pipeline
senders hold instead of dropping tagged data.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from edgeflock import model_ir as ir
from edgeflock import costs
from edgeflock.costs import DeviceProfile, CommModel, comm_latency
from edgeflock.engine import TaskExecutor
from edgeflock.planner import Assignment, AssignmentSet, Edge, Task
from edgeflock.windows import BoundedInbox
from edgeflock.wire import Message, Kind, IPTable, RoleEntry

DEFAULT_INBOX_CAPACITY = 64
THROTTLE_SECONDS = 0.25           # mid-pipeline pause on almost-full
SAMPLING_COOLDOWN_SECONDS = 2.0
MAX_SAMPLING_INTERVAL = 1024

_PART_SEP = "#p"


class RuntimeFault(RuntimeError):
    """Worker crashes, master loss, or protocol violations."""


def shard_wire_name(layer: str, part_index: int) -> str:
    return f"{layer}{_PART_SEP}{part_index}"


def parse_wire_name(name: str) -> tuple[str, Optional[int]]:
    base, sep, idx = name.rpartition(_PART_SEP)
    if sep and idx.isdigit():
        return base, int(idx)
    return name, None


def _zero_path() -> dict:
    return {"compute": 0.0, "comm": 0.0, "reload": 0.0, "total": 0.0}


@dataclass
class RunMetrics:
    ips: float = 0.0
    t_forward_seconds: float = 0.0
    breakdown: dict = field(default_factory=lambda: {"compute": 0.0, "comm": 0.0, "reload": 0.0})
    per_device_busy_seconds: dict = field(default_factory=dict)
    drops: int = 0
    routing_drops: int = 0
    setup_seconds: float = 0.0
    wall_seconds: float = 0.0
    outputs: int = 0
    kept_raw_indices: list = field(default_factory=list)


class Worker:
    """One device: a streaming task executor plus assembly state."""

    def __init__(self, device: int, task: Task, graph: ir.ModelGraph,
                 profile: DeviceProfile,
                 part_specs: dict[str, list[tuple[int, tuple[int, int], int]]],
                 inbox_capacity: int = DEFAULT_INBOX_CAPACITY,
                 param_override=None, flow_fn=None):
        self.device = device
        self.graph = graph
        self.profile = profile
        self.inbox = BoundedInbox(capacity=inbox_capacity)
        self.param_override = param_override
        self.flow_fn = flow_fn
        self.part_specs = part_specs
        self.table_version = 1
        self.free_at = 0.0
        self.busy_seconds = 0.0
        self.throttled_until = 0.0
        self.sample_interval = 1
        self.sample_cooldown_until = 0.0
        self.raw_index = 0
        self.kept_counter = 0
        self.kept_raw: list[int] = []
        self.sample_drops = 0
        self.reload_count = 0
        self.path_state: dict[int, dict] = {}
        self._assembly: dict[tuple[str, int], dict[int, np.ndarray]] = {}
        self.adopt(task, handoff=False)

    # -- task binding ------------------------------------------------------

    def adopt(self, task: Task, handoff: bool = True) -> None:
        self.task = task
        split = task.split
        part = (split.origin, split.rows[0], split.rows[1]) if split else None
        emit = None
        external = []
        if split:
            owned = set(task.layers)
            emit = {n for n in task.layers
                    if self.graph.layer(n).kind == ir.SINK
                    or any(c not in owned for c in self.graph.consumers(n))}
            emit.add(split.terminal)
            if any(split.terminal in self.graph.layer(n).inputs for n in task.layers):
                external = [split.terminal]
        self.executor = TaskExecutor(
            self.graph, owned=task.layers, emit=emit, part=part, external=external,
            flow_fn=self.flow_fn, param_override=self.param_override,
        )
        if handoff:
            self.executor.mark_handoff()
        # A shard that owns a consumer of its own terminal assembles it too.
        self.assembles_own_shard = bool(external)
        self.price = costs.price_task(self.graph, task.resident_groups or (task.layers,),
                                      self.profile, part)
        self.group_of = {n: gi for gi, group in enumerate(self.price.groups) for n in group}
        self.resident_now = 0
        self._assembly.clear()
        self.path_state.clear()

    @property
    def owns_source(self) -> bool:
        return self.source_name() is not None

    def source_name(self) -> Optional[str]:
        for n in self.task.layers:
            if self.graph.layer(n).kind == ir.SOURCE:
                return n
        return None

    def setup_load_seconds(self) -> float:
        return self.price.load_seconds[0]

    # -- modeled costs ---------------------------------------------------

    def _layer_seconds(self, name: str) -> float:
        return self.price.layer_seconds[name] * self.price.swap[self.group_of[name]]

    def _charge(self, fired: list[str]) -> tuple[float, float]:
        """(compute_seconds, reload_seconds) for one processed item."""
        compute = 0.0
        reload = 0.0
        cycling = len(self.task.resident_groups) > 1
        for name in fired:
            compute += self._layer_seconds(name)
            gi = self.group_of[name]
            if cycling and gi != self.resident_now:
                reload += self.price.load_seconds[gi]
                self.reload_count += 1
                self.resident_now = gi
        return compute, reload

    # -- stream consumption -------------------------------------------------

    def consume_data(self, msg: Message):
        """Feed one data frame: (emissions, notices, compute_s, reload_s).

        Shard payloads (wire name ``layer#pN``) park in a per-tag
        assembly buffer until every row range arrived, then enter the
        executor as the assembled full value.
        """
        tag = msg.tag
        inc = msg.meta.get("path", _zero_path())
        held = self.path_state.get(tag)
        if held is None or inc["total"] > held["total"]:
            self.path_state[tag] = dict(inc)
        if len(self.path_state) > 4096:
            for t in sorted(self.path_state)[:2048]:
                del self.path_state[t]

        layer, part_index = parse_wire_name(msg.layer)
        if part_index is not None:
            value = self._assemble(layer, tag, part_index, msg.tensor)
            if value is None:
                return [], [], 0.0, 0.0
            emissions = self.executor.push(layer, tag, value)
        else:
            emissions = self.executor.push(layer, tag, msg.tensor)
        notices = list(self.executor.pending_notices)
        compute, reload = self._charge(self.executor.fired_log)
        return emissions, notices, compute, reload

    def _assemble(self, layer: str, tag: int, part_index: int, value: np.ndarray):
        spec = self.part_specs.get(layer)
        if spec is None:
            raise RuntimeFault(f"device {self.device}: unexpected shard for {layer!r}")
        key = (layer, tag)
        slot = self._assembly.setdefault(key, {})
        slot[int(part_index)] = value
        if len(slot) < len(spec):
            return None
        del self._assembly[key]
        ordered = [slot[idx] for idx, _rows, _dev in sorted(spec, key=lambda e: e[0])]
        return np.concatenate([np.asarray(v, np.float32).reshape(-1) for v in ordered])

    def consume_skip(self, msg: Message):
        layer, _ = parse_wire_name(msg.layer)
        next_tag = int(msg.body["next_tag"])
        for key in [k for k in self._assembly if k[0] == layer and k[1] < next_tag]:
            del self._assembly[key]
        return self.executor.skip(layer, next_tag)

    # -- input sampling -------------------------------------------------------

    def admit_raw(self, now: float) -> Optional[int]:
        """Recorder-side sampling: tag of the admitted frame, or None.

        Dropped frames are never tagged, so downstream tag runs stay
        contiguous; the sampling interval decays back toward 1 after a
        quiet cooldown.
        """
        idx = self.raw_index
        self.raw_index += 1
        if now >= self.sample_cooldown_until and self.sample_interval > 1:
            self.sample_interval = max(1, self.sample_interval // 2)
            self.sample_cooldown_until = now + SAMPLING_COOLDOWN_SECONDS
        if idx % self.sample_interval != 0:
            self.sample_drops += 1
            return None
        tag = self.kept_counter
        self.kept_counter += 1
        self.kept_raw.append(idx)
        return tag

    def slow_down(self, now: float) -> None:
        self.sample_interval = min(MAX_SAMPLING_INTERVAL, self.sample_interval * 2)
        self.sample_cooldown_until = now + SAMPLING_COOLDOWN_SECONDS


def _replica_slot(task: Task) -> tuple[int, int]:
    """(replica index, replica count) of a task; (0, 1) when not replicated."""
    rep = task.replica
    return (rep.index, rep.count) if rep else (0, 1)


class ClusterCore:
    """One worker per device of an assignment, and all that a transport
    does with a message short of moving it.

    The core indexes the assignment: the shard parts each terminal is
    assembled from, every device's routes (value name -> consumers, with
    their replica slots) and predecessors, and the devices that own a
    source.  ``_on_data`` consumes one data frame on a worker and routes
    what it yields: graph outputs to ``_output``; a shard's own terminal
    back into the same worker when that worker also consumes it; every
    other emission to each consumer whose replica slot takes the tag; and
    skip notices to every consumer of the skipped value.  Each
    consumption adds the modeled compute and reload seconds to the
    worker's busy time, its clock ``free_at`` and the item's path.

    A transport subclass moves the messages: ``_send(src, msg, dst, t)``
    and ``_output(worker, emission, path, t)``, where ``t`` is the
    sender's clock.
    """

    def __init__(self, aset: AssignmentSet, n: int, inbox_capacity: int,
                 param_override, flow_fn, profile: Optional[DeviceProfile],
                 comm: Optional[CommModel]):
        self.aset = aset
        self.assignment = aset.for_devices(n)
        self.graph = aset.graph
        self.profile = profile or aset.device
        self.comm = comm or aset.comm
        self.n = n
        devices = sorted(self.assignment.tasks)
        if len(set(t.task_id for t in self.assignment.tasks.values())) != len(devices):
            raise RuntimeFault("duplicate task ids in assignment")
        if devices and devices[-1] >= n:
            raise RuntimeFault("assignment device ids must be < n")
        self.workers: dict[int, Worker] = {
            d: Worker(d, task, self.graph, self.profile, {}, inbox_capacity,
                      param_override, flow_fn)
            for d, task in self.assignment.tasks.items()
        }
        if not self.workers:
            raise RuntimeFault("assignment has no tasks")
        self._index()

    def _index(self) -> None:
        """Derive parts, routes, predecessors and sources from the assignment."""
        a = self.assignment
        parts: dict[str, list[tuple[int, tuple[int, int], int]]] = {}
        for d, t in a.tasks.items():
            if t.split is not None:
                parts.setdefault(t.split.terminal, []).append((t.split.index, t.split.rows, d))
        self.part_specs = {k: sorted(v) for k, v in parts.items()}
        for w in self.workers.values():
            w.part_specs = self.part_specs
        # device -> value name -> [(dst_device, replica_index, replica_count)]
        routes: dict[int, dict[str, list[tuple[int, int, int]]]] = {d: {} for d in self.workers}
        preds: dict[int, set[int]] = {d: set() for d in self.workers}
        for e in a.edges:
            entry = (e.consumer_device, *_replica_slot(a.tasks[e.consumer_device]))
            routes.setdefault(e.producer_device, {}).setdefault(e.layer, []).append(entry)
            preds.setdefault(e.consumer_device, set()).add(e.producer_device)
        self._routes = {d: {name: sorted(v) for name, v in by.items()} for d, by in routes.items()}
        self._dests = {d: sorted({dst for v in by.values() for dst, _i, _c in v})
                       for d, by in self._routes.items()}
        self._preds = {d: sorted(p for p in ps if p in self.workers) for d, ps in preds.items()}
        self.sources = [(d, *_replica_slot(a.tasks[d])) for d in sorted(a.tasks)
                        if self.workers[d].owns_source]
        if not self.sources:
            raise RuntimeFault("no device owns a source layer")

    def _source_targets(self, tag: int) -> list[int]:
        """Source devices that take frame ``tag``: replicas in turn."""
        return [d for d, idx, count in self.sources if count == 1 or tag % count == idx]

    # -- message handling ------------------------------------------------------

    def _send(self, src: int, msg: Message, dst: int, t: float) -> None:
        raise NotImplementedError

    def _output(self, w: Worker, em, path: dict, t: float) -> None:
        raise NotImplementedError

    @staticmethod
    def _charge(w: Worker, path: dict, compute: float, reload: float) -> dict:
        """Charge one consumption to the worker; returns the item's new path.

        Paths are replaced, never changed in place, so that messages can
        share them.
        """
        dur = compute + reload
        w.free_at += dur
        w.busy_seconds += dur
        return {"compute": path["compute"] + compute, "comm": path["comm"],
                "reload": path["reload"] + reload, "total": path["total"] + dur}

    def _on_data(self, w: Worker, msg: Message) -> None:
        """Consume one data frame on ``w`` and route all that it yields."""
        emissions, notices, compute, reload = w.consume_data(msg)
        path = self._charge(w, w.path_state.get(msg.tag, _zero_path()), compute, reload)
        self._dispatch(w, emissions, notices, path)

    def _dispatch(self, w: Worker, emissions, notices, path: dict) -> None:
        split = w.task.split
        routes = self._routes[w.device]
        for em in emissions:
            if em.layer in self.graph.outputs:
                self._output(w, em, path, w.free_at)
                continue
            name = em.layer
            if split is not None and em.layer == split.terminal:
                name = shard_wire_name(em.layer, split.index)
                if w.assembles_own_shard:
                    local = Message(kind=Kind.DATA, tag=em.tag, layer=name,
                                    tensor=em.value, meta={"path": path})
                    sub_em, sub_no, compute, reload = w.consume_data(local)
                    path = self._charge(w, path, compute, reload)
                    self._dispatch(w, sub_em, sub_no, path)
            for dst, idx, count in routes.get(em.layer, ()):
                if count == 1 or em.tag % count == idx:
                    msg = Message(kind=Kind.DATA, tag=em.tag, layer=name,
                                  tensor=em.value, meta={"path": path})
                    self._send(w.device, msg, dst, w.free_at)
        self._notices(w, notices, w.free_at)

    def _on_skip(self, w: Worker, msg: Message, t: float) -> None:
        self._notices(w, w.consume_skip(msg), t)

    def _notices(self, w: Worker, notices, t: float) -> None:
        for no in notices:
            for dst, _i, _c in self._routes[w.device].get(no.layer, ()):
                msg = Message(kind=Kind.SKIP, layer=no.layer, body={"next_tag": no.next_tag})
                self._send(w.device, msg, dst, t)


class VirtualCluster(ClusterCore):
    """Deterministic in-process cluster under a virtual clock.

    On top of the core it keeps the event heap, modeled link latency,
    blocking sends into bounded inboxes with almost-full signals, and
    master-driven role rotation.
    """

    def __init__(self, aset: AssignmentSet, n: int,
                 inbox_capacity: int = DEFAULT_INBOX_CAPACITY,
                 master_seed: Optional[int] = None,
                 param_override=None, flow_fn=None,
                 profile: Optional[DeviceProfile] = None,
                 comm: Optional[CommModel] = None):
        super().__init__(aset, n, inbox_capacity, param_override, flow_fn, profile, comm)
        if master_seed is None:
            master = min(self.workers)
        else:
            ids = sorted(self.workers)
            master = ids[int(np.random.default_rng(master_seed).integers(0, len(ids)))]
        entries = {}
        for d in range(n):
            task = self.assignment.tasks.get(d)
            entries[d] = RoleEntry(
                address=f"virtual:{d}",
                task_id=task.task_id if task else "",
                master=(d == master),
                recorder=bool(task and self.workers[d].owns_source
                              and (task.replica is None or task.replica.index == 0)),
            )
        self.iptable = IPTable(version=1, entries=entries).validate()
        self.master_writes = 0
        self.rejected_updates = 0
        self.routing_drops = 0
        self.raw_cursor = 0
        self.setup_seconds = max(w.setup_load_seconds() for w in self.workers.values())
        self.last_reassign_reloads = 0
        self._acks: set[int] = set()
        self._pending_table: Optional[IPTable] = None

        # (time, seq, fn, args) events; seq is unique, so ties in time
        # run in scheduling order and fn is never compared.
        self._heap: list[tuple[float, int, Callable, tuple]] = []
        self._seq = 0
        self.vnow = 0.0
        self.outputs: dict[str, dict[int, np.ndarray]] = {s: {} for s in self.graph.outputs}
        self.completions: list[tuple[float, int, dict]] = []
        # Blocking-send discipline: frames bound for a full inbox wait in
        # the sender's outbound queue; the sender stalls until the
        # destination drains.
        self._waiting: dict[int, list] = {d: [] for d in self.workers}
        self._stalled: dict[int, set[int]] = {}

    def _task_by_id(self, task_id: str) -> Task:
        for t in self.assignment.tasks.values():
            if t.task_id == task_id:
                return t
        raise RuntimeFault(f"unknown task id {task_id!r}")

    # -- event loop --------------------------------------------------------------

    def _schedule(self, t: float, fn: Callable, *args) -> None:
        heapq.heappush(self._heap, (t, self._seq, fn, args))
        self._seq += 1

    def drain(self) -> None:
        while self._heap:
            t, _seq, fn, args = heapq.heappop(self._heap)
            self.vnow = max(self.vnow, t)
            fn(t, *args)

    def drain_until(self, t: float) -> None:
        """Run events scheduled at or before virtual time t."""
        while self._heap and self._heap[0][0] <= t:
            te, _seq, fn, args = heapq.heappop(self._heap)
            self.vnow = max(self.vnow, te)
            fn(te, *args)

    def step_event(self) -> bool:
        """Run the single earliest pending event; False when idle."""
        if not self._heap:
            return False
        t, _seq, fn, args = heapq.heappop(self._heap)
        self.vnow = max(self.vnow, t)
        fn(t, *args)
        return True

    # -- transport ----------------------------------------------------------------

    def _send(self, src: int, msg: Message, dst: int, t: float) -> None:
        msg.source = src
        if dst not in self.workers:
            self.routing_drops += 1
            return
        latency = comm_latency(msg.payload_bytes(), self.comm)
        path = dict(msg.meta.get("path", _zero_path()))
        path["comm"] += latency
        path["total"] += latency
        msg.meta["path"] = path
        self._schedule(t + latency, self._deliver, dst, msg)

    def _output(self, w: Worker, em, path: dict, t: float) -> None:
        self.outputs[em.layer][em.tag] = em.value
        self.completions.append((t, em.tag, path))

    def _deliver(self, t: float, dst: int, msg: Message) -> None:
        w = self.workers.get(dst)
        if w is None:
            self.routing_drops += 1
            return
        if msg.kind != Kind.DATA:
            self._control(t, dst, msg)
            return
        if w.inbox.full:
            # Hold in the sender's outbound queue; delivered (in order)
            # as the destination drains.
            self._waiting[dst].append(msg)
            return
        w.inbox.offer((msg, t))
        if w.inbox.should_signal():
            self._signal_almost_full(t, dst)
        self._schedule(max(t, w.free_at), self._process, dst)

    def _signal_almost_full(self, t: float, device: int) -> None:
        for pred in self._preds[device]:
            note = Message(kind=Kind.ALMOST_FULL, source=device)
            self._schedule(t + comm_latency(note.payload_bytes(), self.comm),
                           self._control, pred, note)

    def _control(self, t: float, dst: int, msg: Message) -> None:
        w = self.workers.get(dst)
        if w is None:
            return
        if msg.kind == Kind.ALMOST_FULL:
            if w.owns_source:
                w.slow_down(t)
            else:
                w.throttled_until = max(w.throttled_until, t + THROTTLE_SECONDS)
        elif msg.kind == Kind.SKIP:
            self._on_skip(w, msg, t)
        elif msg.kind == Kind.ROLE_UPDATE:
            self._apply_role_update(t, dst, msg)

    def _process(self, t: float, device: int) -> None:
        w = self.workers.get(device)
        if w is None or w.inbox.occupancy == 0:
            return
        if t < w.free_at - 1e-12:
            self._schedule(w.free_at, self._process, device)
            return
        if t < w.throttled_until:
            self._schedule(w.throttled_until, self._process, device)
            return
        # Blocking sends: stall while any downstream inbox is full, so
        # pressure cascades upstream instead of losing tagged data.
        for dst in self._dests[device]:
            dw = self.workers.get(dst)
            if dw is not None and dw.inbox.full:
                self._stalled.setdefault(dst, set()).add(device)
                return
        msg, _arrival = w.inbox.take()
        self._after_take(t, device)
        w.free_at = max(t, w.free_at)
        self._on_data(w, msg)
        if w.inbox.occupancy > 0:
            self._schedule(w.free_at, self._process, device)

    def _after_take(self, t: float, device: int) -> None:
        """One slot freed: pull a held message in, wake stalled senders."""
        w = self.workers[device]
        while self._waiting.get(device) and not w.inbox.full:
            held = self._waiting[device].pop(0)
            w.inbox.offer((held, t))
            if w.inbox.should_signal():
                self._signal_almost_full(t, device)
        if not w.inbox.full:
            for src in sorted(self._stalled.pop(device, ())):
                sw = self.workers.get(src)
                if sw is not None and sw.inbox.occupancy > 0:
                    self._schedule(max(t, sw.free_at), self._process, src)

    # -- role rotation ---------------------------------------------------------------

    def reassign(self, trigger: tuple[str, int], from_device: Optional[int] = None) -> int:
        """Rotate roles after a scene change; returns the new version.

        Only the master's update is accepted.  The new mapping keeps
        every other device on its current task, so exactly the swapped
        devices reload.
        """
        self.drain()
        master = self.iptable.master_device()
        sender = master if from_device is None else from_device
        if sender != master:
            self.rejected_updates += 1
            raise RuntimeFault(f"role update from non-master device {sender} rejected")
        kind, dev = trigger
        if kind == "motion_on":
            recs = [d for d in self.iptable.recorder_devices() if d in self.workers]
            if not recs:
                raise RuntimeFault("no recorder role present")
            cur = recs[0]
            mapping = {d: e.task_id for d, e in self.iptable.entries.items()}
            if dev != cur:
                if dev not in self.workers:
                    raise RuntimeFault(f"device {dev} is not part of the cluster")
                mapping[dev], mapping[cur] = mapping[cur], mapping[dev]
        elif kind == "device_lost":
            if dev == master:
                raise RuntimeFault("master device lost; halting run")
            raise RuntimeFault("device loss requires restarting on the smaller plan entry")
        else:
            raise RuntimeFault(f"unknown trigger {kind!r}")

        new_table = self.iptable.copy()
        new_table.version += 1
        for d, tid in mapping.items():
            e = new_table.entries[d]
            e.task_id = tid
            if tid:
                task = self._task_by_id(tid)
                e.recorder = bool(any(self.graph.layer(nm).kind == ir.SOURCE for nm in task.layers)
                                  and (task.replica is None or task.replica.index == 0))
            else:
                e.recorder = False
        self.master_writes += 1
        self.last_reassign_reloads = 0
        self._acks = set()
        self._pending_table = new_table
        body = new_table.to_body()
        # The stream's tag cursor rides along so a new recorder keeps
        # the tag sequence monotone across the handoff.
        old_rec = self.workers.get(cur if kind == "motion_on" else -1)
        if old_rec is not None:
            body["resume_tag"] = old_rec.kept_counter
            body["resume_raw"] = old_rec.raw_index
        for d in sorted(self.workers):
            msg = Message(kind=Kind.ROLE_UPDATE, source=master, body=dict(body))
            self._schedule(self.vnow, self._control, d, msg)
        self.drain()
        if self._acks != set(self.workers):
            # retry with the same version until every live worker acked
            for d in sorted(set(self.workers) - self._acks):
                msg = Message(kind=Kind.ROLE_UPDATE, source=master, body=dict(body))
                self._schedule(self.vnow, self._control, d, msg)
            self.drain()
        return self.iptable.version

    def _apply_role_update(self, t: float, device: int, msg: Message) -> None:
        w = self.workers[device]
        if msg.source != self.iptable.master_device():
            self.rejected_updates += 1
            return
        table = IPTable.from_body(msg.body)
        if table.version <= w.table_version:
            self._acks.add(device)
            return
        w.table_version = table.version
        new_tid = table.entries[device].task_id
        if new_tid and new_tid != w.task.task_id:
            new_task = self._task_by_id(new_tid)
            w.adopt(new_task, handoff=True)
            if w.owns_source:
                w.kept_counter = int(msg.body.get("resume_tag", w.kept_counter))
                w.raw_index = int(msg.body.get("resume_raw", w.raw_index))
            load = w.setup_load_seconds()
            w.free_at = max(w.free_at, t) + load
            w.busy_seconds += load
            self.last_reassign_reloads += 1
        self._acks.add(device)
        if self._pending_table is not None and self._acks == set(self.workers):
            self._commit_table(self._pending_table)
            self._pending_table = None

    def _commit_table(self, table: IPTable) -> None:
        old_tasks = dict(self.assignment.tasks)
        dev_for_task = {table.entries[d].task_id: d for d in self.workers}
        remap: dict[int, Task] = {}
        for d in self.workers:
            tid = table.entries[d].task_id
            src = next(tk for tk in old_tasks.values() if tk.task_id == tid)
            remap[d] = Task(task_id=src.task_id, device=d, layers=src.layers,
                            split=src.split, replica=src.replica,
                            resident_groups=src.resident_groups,
                            window_specs=src.window_specs)
        edges = []
        for e in self.assignment.edges:
            src_tid = old_tasks[e.producer_device].task_id
            dst_tid = old_tasks[e.consumer_device].task_id
            edges.append(Edge(dev_for_task[src_tid], dev_for_task[dst_tid], e.layer))
        self.assignment = Assignment(
            device_count=self.assignment.device_count, tasks=remap, edges=edges,
            predicted=self.assignment.predicted, notes=self.assignment.notes,
        )
        self.iptable = table.validate()
        self._index()

    # -- driving ---------------------------------------------------------------------

    def feed_frame(self, value: np.ndarray, t: Optional[float] = None) -> None:
        """Inject one raw camera frame at virtual time t."""
        t = self.vnow if t is None else t
        self._schedule(t, self._camera_arrival, np.asarray(value, dtype=np.float32))

    def _camera_arrival(self, t: float, value: np.ndarray) -> None:
        if len(self.sources) == 1 and self.sources[0][2] == 1:
            # Single recorder: sampling decides at capture time whether
            # the frame is tagged at all.
            d = self.sources[0][0]
            w = self.workers[d]
            tag = w.admit_raw(t)
            if tag is None:
                return
            msg = Message(kind=Kind.DATA, tag=tag, layer=w.source_name(),
                          tensor=value, meta={"path": _zero_path()})
            self._deliver(t, d, msg)
            return
        # Replicated source tasks: the recording harness assigns global
        # tags and round-robins frames; sampling does not apply.
        tag = self.raw_cursor
        self.raw_cursor += 1
        for d in self._source_targets(tag):
            w = self.workers[d]
            msg = Message(kind=Kind.DATA, tag=tag, layer=w.source_name(),
                          tensor=value, meta={"path": _zero_path()})
            self._deliver(t, d, msg)

    def source_free_at(self) -> float:
        return max(self.workers[d].free_at for d, _i, _c in self.sources)


TRANSPORTS = ("in_process", "loopback_sockets")


def start_cluster(aset: AssignmentSet, n: int, transport: str = "in_process", **kw):
    """Bring up one worker per device with role table v1 in place."""
    if transport == "in_process":
        return VirtualCluster(aset, n, **kw)
    if transport == "loopback_sockets":
        from edgeflock.loopback import LoopbackCluster
        return LoopbackCluster(aset, n, **kw)
    raise RuntimeFault(f"unknown transport {transport!r}")


def run_stream(cluster: VirtualCluster, frames: Iterable[np.ndarray], fps: float = 30.0,
               paced: bool = True) -> tuple[dict[int, np.ndarray], RunMetrics]:
    """Feed a frame sequence and collect tagged outputs plus metrics.

    ``paced`` throttles the camera to the recording device's service
    rate (the default for verification and benchmarking); unpaced
    feeding follows the fps schedule strictly and lets backpressure
    reduce the recorder's sampling rate.
    """
    frames = list(frames)
    completions_before = len(cluster.completions)

    if paced:
        # Camera paced to the recorder's service rate; downstream stages
        # overlap in virtual time.  Queues are kept below the almost-full
        # watermark so pacing never triggers sampling drops.
        half = {d: max(1, w.inbox.capacity // 2) for d, w in cluster.workers.items()}
        for f in frames:
            start = max(cluster.vnow, cluster.source_free_at())
            cluster.feed_frame(f, t=start)
            cluster.drain_until(start)
            while any(w.inbox.occupancy > half[d] for d, w in cluster.workers.items()):
                if not cluster.step_event():
                    break
        cluster.drain()
    else:
        for i, f in enumerate(frames):
            cluster.feed_frame(f, t=i / fps)
        cluster.drain()

    sink = cluster.graph.outputs[0]
    outputs = dict(cluster.outputs[sink])
    completions = cluster.completions[completions_before:]
    metrics = RunMetrics()
    metrics.outputs = len(completions)
    metrics.wall_seconds = cluster.vnow
    metrics.setup_seconds = cluster.setup_seconds
    metrics.per_device_busy_seconds = {d: w.busy_seconds for d, w in cluster.workers.items()}
    metrics.drops = sum(w.sample_drops for w in cluster.workers.values())
    metrics.routing_drops = cluster.routing_drops
    recorders = [w for w in cluster.workers.values() if w.owns_source and w.kept_raw]
    if len(recorders) == 1:
        metrics.kept_raw_indices = list(recorders[0].kept_raw)
    if completions:
        paths = [p for _t, _tag, p in completions]
        metrics.t_forward_seconds = sum(p["total"] for p in paths) / len(paths)
        for k in ("compute", "comm", "reload"):
            metrics.breakdown[k] = sum(p[k] for p in paths) / len(paths)
        if len(completions) >= 2:
            tail = completions[len(completions) // 4:] if len(completions) >= 4 else completions
            span = tail[-1][0] - tail[0][0]
            metrics.ips = (len(tail) - 1) / span if span > 0 else 0.0
    return outputs, metrics


def activate_streams(n_devices: int, stream_ids: list[int],
                     min_per_stream: int = 2) -> tuple[dict[int, list[int]], list[int]]:
    """Partition devices into disjoint per-stream sets.

    Earlier streams have priority; a stream that cannot get
    ``min_per_stream`` devices is deferred.  Active streams share the
    devices evenly, earlier streams taking any remainder.
    """
    active: list[int] = []
    deferred: list[int] = []
    capacity = n_devices
    for s in stream_ids:
        if capacity >= min_per_stream:
            active.append(s)
            capacity -= min_per_stream
        else:
            deferred.append(s)
    sets: dict[int, list[int]] = {}
    if active:
        share, extra = divmod(n_devices, len(active))
        pos = 0
        for i, s in enumerate(active):
            take = share + (1 if i < extra else 0)
            sets[s] = list(range(pos, pos + take))
            pos += take
    return sets, deferred
