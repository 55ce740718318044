"""Message-passing execution of an assignment.

Workers exchange tagged one-way messages; each worker is a single
logical event loop over one bounded inbox, with no shared state between
workers.  The default transport runs every worker in one process under
a deterministic discrete-event virtual clock: compute, reload and link
times are modeled from the plan's device profile and link model
(``AssignmentSet.comm``, the one the planner priced) and advance
virtual time, while tensor math executes for real (so outputs are
exact).  Nothing the clock decides reads a tensor value, only shapes,
so the math is deferred: a worker's firings are ``engine.Pending``
values in one ``engine.Batch`` shared by the cluster, and messages,
windows and outputs hold them.  The batch computes each layer over many
firings at once when it reaches its caps (``engine.RUN_TAGS``,
``engine.RUN_BYTES``), before a role rotation and at the end of
``run_stream``.  A loopback-socket transport (``edgeflock.loopback``)
runs the same workers over real TCP frames; each of its workers flushes
its own batch after every message, since the wire needs bytes.  Both
transports share ``ClusterCore``: the plan index (routes, predecessors,
source devices), the camera stream, the handling of data frames
(emission routing) and the outputs; a transport only moves frames.  A
row shard's terminal travels as wire parts ``layer#pN``, which the
consuming worker's executor assembles (``TaskExecutor.push_part``).  A worker prices its task with
``costs.price_task``, as the planner does.

On both transports the core holds the camera stream's tag cursor and
sampler: it admits or samples every camera frame, tags it and hands it
to the source devices that take the tag, so a second feed, or a feed
after a role rotation, continues the stream's tags.  In the virtual
cluster paced feeding waits only for those devices, and feeds a frame
only once the pipeline can take it: with at most
``FRAMES_IN_FLIGHT_PER_DEVICE`` data frames per device queued or in
flight toward devices, a constant number of frames in process, which
keeps the bottleneck fed without a queue in front of it.  Results are per
call: ``run_stream`` and a loopback ``feed`` each start ``outputs``,
``kept_raw`` and the completions empty (``ClusterCore.begin_call``), so
an endless stream keeps no history.
A device holds at most one live wake-up (a ``_process`` event): a queued
item, a freed downstream slot or a finished item asks for one at the
earliest time the device could act, a request at or after the live
wake-up's time adds nothing, and an earlier one supersedes it.  So the
event count follows the messages moved, not the inbox depths.  A data
frame delivered to an idle device (free, with no live wake-up) while
every other pending event is due later takes its wake-up inline, in
the delivering event: that wake-up would have been the very next event.

Dynamic behavior follows the planned assignment set.  The recorder is
the source device in replica slot 0.  When the recording viewpoint
moves, the master swaps the recorder's task with the target device's
and commits the new binding in one step: only devices whose task
changed adopt it and reload weights, each with the task's executor and
so its window state, the plan is re-indexed, and the master's role
version goes up by one.  Tags stay gap-free from the camera on, so a
rotation loses no output.
Nearly full inboxes signal their upstream devices: one crossing of the
watermark halves the camera's raw sampling rate once for a cooldown
period, however many source replicas it signals (frames are dropped
before tagging, so tagged streams stay gap-free and pending windows are
never disturbed), while mid-pipeline senders hold instead of dropping
tagged data.  Senders that stall on each other's full inboxes make
``drain`` raise ``RuntimeFault``.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional

import numpy as np

from edgeflock import model_ir as ir
from edgeflock import costs
from edgeflock.costs import DeviceProfile, comm_latency
from edgeflock.engine import Batch, TaskExecutor, value_of
from edgeflock.planner import AssignmentSet, Edge, Task
from edgeflock.windows import BoundedInbox
from edgeflock.wire import Message, Kind

DEFAULT_INBOX_CAPACITY = 64
THROTTLE_SECONDS = 0.25           # mid-pipeline pause on almost-full
SAMPLING_COOLDOWN_SECONDS = 2.0
MAX_SAMPLING_INTERVAL = 1024
# Paced feeding admits a camera frame only while at most this many data
# frames per device that holds a task are queued or in flight toward
# devices: one computing, one queued and one on the inbound link.
FRAMES_IN_FLIGHT_PER_DEVICE = 3

_PART_SEP = "#p"

# Kind.DATA, read once: an enum member lookup costs about 0.2 µs, and the
# event loop reads it for every data frame.
_DATA = Kind.DATA


class RuntimeFault(RuntimeError):
    """Worker crashes, master loss, or protocol violations."""


def shard_wire_name(layer: str, part_index: int) -> str:
    return f"{layer}{_PART_SEP}{part_index}"


def parse_wire_name(name: str) -> tuple[str, Optional[int]]:
    base, sep, idx = name.rpartition(_PART_SEP)
    if sep and idx.isdigit():
        return base, int(idx)
    return name, None


# The path of an item that has not been charged yet.  Paths are
# replaced, never changed, so every such item shares this one.
_ZERO_PATH = {"compute": 0.0, "comm": 0.0, "reload": 0.0, "total": 0.0}


@dataclass
class RunMetrics:
    """One call's report.  ``outputs`` (completions, every sink), ``ips``,
    ``steady_ips``, ``t_forward_seconds``, ``breakdown``,
    ``per_device_queue_seconds`` and ``kept_raw_indices`` describe the
    call; ``drops``, ``per_device_busy_seconds`` and ``wall_seconds`` run
    from cluster start.

    ``ips`` is the completion spacing over the last three quarters of the
    call's completions, which on a short clip measures a burst.
    ``steady_ips`` is the call's admitted frames over the largest busy
    seconds that one device accrued in the call: the rate its busiest
    device sustains.  ``per_device_queue_seconds`` sums, per device, the
    seconds each item it took in the call waited in its inbox."""

    ips: float = 0.0
    steady_ips: float = 0.0
    t_forward_seconds: float = 0.0
    breakdown: dict = field(default_factory=lambda: {"compute": 0.0, "comm": 0.0, "reload": 0.0})
    per_device_busy_seconds: dict = field(default_factory=dict)
    per_device_queue_seconds: dict = field(default_factory=dict)
    drops: int = 0
    routing_drops: int = 0        # no route can name a missing device yet
    setup_seconds: float = 0.0
    wall_seconds: float = 0.0
    outputs: int = 0
    kept_raw_indices: list = field(default_factory=list)


class Worker:
    """One device: a streaming task executor, its modeled clock and inbox."""

    def __init__(self, device: int, task: Task, graph: ir.ModelGraph,
                 profile: DeviceProfile,
                 inbox_capacity: int = DEFAULT_INBOX_CAPACITY,
                 batch: Optional[Batch] = None):
        self.device = device
        self.graph = graph
        self.profile = profile
        self.inbox = BoundedInbox(capacity=inbox_capacity)
        self.free_at = 0.0
        self.busy_seconds = 0.0
        # seconds the items taken in the current call waited in the inbox
        self.queue_seconds = 0.0
        self.throttled_until = 0.0
        self.reload_count = 0
        self.path_state: dict[int, dict] = {}
        # wire name -> parse_wire_name(wire name), filled as names arrive
        self._wire_names: dict[str, tuple[str, Optional[int]]] = {}
        split = task.split
        part = (split.origin, split.rows[0], split.rows[1]) if split else None
        self.adopt(task, TaskExecutor(graph, owned=task.layers, part=part, batch=batch))

    # -- task binding ------------------------------------------------------

    def adopt(self, task: Task, executor: TaskExecutor) -> None:
        """Bind ``task`` and ``executor``, which runs it and holds its
        stream state: a new one at start, the task's own after a
        rotation."""
        self.task = task
        # the source layer this task owns, if any
        self.source = next((n for n in task.layers if self.graph.layer(n).kind == ir.SOURCE), None)
        self.executor = executor
        self.price = costs.price_task(self.graph, task.resident_groups or (task.layers,),
                                      self.profile, executor.part)
        self.group_of = {n: gi for gi, group in enumerate(self.price.groups) for n in group}
        # per-item seconds of each layer, its group's swap slowdown included
        self.layer_seconds = {n: self.price.layer_seconds[n] * self.price.swap[gi]
                              for n, gi in self.group_of.items()}
        self.resident_now = 0
        # (fired layers, resident group) -> _item_cost of such an item
        self._item_costs: dict[tuple, tuple] = {}
        self.path_state.clear()

    @property
    def owns_source(self) -> bool:
        return self.source is not None

    def setup_load_seconds(self) -> float:
        return self.price.load_seconds[0]

    # -- modeled costs ---------------------------------------------------

    def _charge(self, fired: list[str], path: dict) -> dict:
        """Charge an item that fired the layers ``fired`` to this device's
        clock and busy time: each layer's ``layer_seconds``, and a reload
        of each group that was not resident.  Returns the item's new
        path; paths are replaced, never changed, so messages share them.
        An item's cost depends only on its layers and the group resident
        before it, so each such pair is costed once.
        """
        key = (tuple(fired), self.resident_now)
        cost = self._item_costs.get(key)
        if cost is None:
            cost = self._item_costs[key] = self._item_cost(fired)
        compute, reload, reloads, self.resident_now = cost
        self.reload_count += reloads
        dur = compute + reload
        self.free_at += dur
        self.busy_seconds += dur
        return {"compute": path["compute"] + compute, "comm": path["comm"],
                "reload": path["reload"] + reload, "total": path["total"] + dur}

    def _item_cost(self, fired: list[str]) -> tuple[float, float, int, int]:
        """(compute seconds, reload seconds, reloads, resident group after)
        of an item that fires ``fired`` from the resident group on, each
        sum taken in ``fired`` order."""
        compute = 0.0
        reload = 0.0
        reloads = 0
        resident = self.resident_now
        for name in fired:
            compute += self.layer_seconds[name]
            gi = self.group_of[name]
            if gi != resident:
                reload += self.price.load_seconds[gi]
                reloads += 1
                resident = gi
        return compute, reload, reloads, resident

    # -- stream consumption -------------------------------------------------

    def consume_data(self, msg: Message):
        """Feed one data frame and charge it: (emissions, the item's new
        path).  The path so far is the longest that a data frame of its
        tag brought to this worker.

        A row shard (wire name ``layer#pN``) goes to the executor's
        ``push_part``; a shard of a value the executor does not consume
        is a protocol violation.  The emissions' values are ``Pending``
        until the worker's batch is flushed.
        """
        tag = msg.tag
        inc = msg.meta.get("path", _ZERO_PATH)
        held = self.path_state.get(tag)
        if held is None or inc["total"] > held["total"]:
            self.path_state[tag] = inc
            if len(self.path_state) > 4096:
                for t in sorted(self.path_state)[:2048]:
                    del self.path_state[t]

        name = self._wire_names.get(msg.layer)
        if name is None:
            name = self._wire_names[msg.layer] = parse_wire_name(msg.layer)
        layer, part_index = name
        if part_index is None:
            emissions = self.executor.push(layer, tag, msg.tensor)
        elif layer in self.executor.consumers:
            emissions = self.executor.push_part(layer, tag, part_index, msg.tensor)
        else:
            raise RuntimeFault(f"device {self.device}: unexpected shard for {layer!r}")
        return emissions, self._charge(self.executor.fired_log,
                                       self.path_state.get(tag, _ZERO_PATH))


def _replica_slot(task: Task) -> tuple[int, int]:
    """(replica index, replica count) of a task; (0, 1) when not replicated."""
    rep = task.replica
    return (rep.index, rep.count) if rep else (0, 1)


class ClusterCore:
    """One worker per device of an assignment, and all that a transport
    does with a message short of moving it.

    The core indexes the assignment: every device's routes (value name ->
    consumers, with their replica slots) and predecessors, and the
    devices that own a source.  It also holds the camera stream: the tag
    cursor (``raw_index`` frames seen, ``kept_counter`` tags given) and
    the sampler (``sample_interval``, ``sample_cooldown_until``,
    ``sample_drops``), which no role rotation touches; and a call's
    results (``begin_call``): ``outputs`` by sink and tag, and
    ``kept_raw``, the raw index of each frame admitted.  ``_admit``
    samples and tags a camera frame and makes it one data frame per
    source device that takes the tag.  ``_on_data`` consumes one data
    frame on a worker and routes what it yields: graph outputs into
    ``outputs``; other emissions to each consumer whose replica slot
    takes the tag, a row shard's terminal as its wire part ``layer#pN``,
    which the shard first feeds back to ``_on_data`` when its own
    executor reads the value.  The worker charges each data frame it
    consumes (``Worker.consume_data``): the modeled compute and reload
    seconds go to its busy time, its clock ``free_at`` and the item's
    path.

    A transport subclass moves the messages, ``_send(src, msg, dst, t)``
    where ``t`` is the sender's clock.  Every worker records its firings
    in ``batch``, or in its own batch when ``batch`` is None; ``_consume``
    is where a transport that needs the values at once flushes.  Workers
    compute with the graph's shared weights (``engine.shared_params``).
    """

    def __init__(self, aset: AssignmentSet, n: int, inbox_capacity: int,
                 batch: Optional[Batch] = None):
        self.assignment = aset.for_devices(n)
        self.graph = aset.graph
        self.profile = aset.device
        self.n = n
        tasks = self.assignment.tasks
        devices = sorted(tasks)
        if len(set(t.task_id for t in tasks.values())) != len(devices):
            raise RuntimeFault("duplicate task ids in assignment")
        if devices and not (0 <= devices[0] and devices[-1] < n):
            raise RuntimeFault(f"assignment device ids must lie in [0, {n}), got {devices}")
        for e in self.assignment.edges:
            if e.producer_device not in tasks or e.consumer_device not in tasks:
                raise RuntimeFault(f"edge {e.layer!r} {e.producer_device} -> "
                                   f"{e.consumer_device} names a device with no task")
        self.workers: dict[int, Worker] = {
            d: Worker(d, task, self.graph, self.profile, inbox_capacity, batch)
            for d, task in tasks.items()
        }
        if not self.workers:
            raise RuntimeFault("assignment has no tasks")
        self._sinks = set(self.graph.outputs)
        self._index()
        self.raw_index = 0
        self.kept_counter = 0
        self.begin_call()
        self.sample_drops = 0
        self.sample_interval = 1
        self.sample_cooldown_until = 0.0

    def begin_call(self) -> None:
        """A call's results start empty, and so do the workers' path
        states: once ``run_stream`` has drained or a loopback ``feed``
        has ended, no message of an earlier tag is in flight."""
        self.outputs: dict[str, dict[int, object]] = {s: {} for s in self.graph.outputs}
        self.kept_raw: list[int] = []
        for w in self.workers.values():
            w.path_state.clear()

    def end_call(self) -> dict[int, np.ndarray]:
        """Make the call's computed outputs arrays; returns the first sink's."""
        for by_tag in self.outputs.values():
            for tag, value in by_tag.items():
                by_tag[tag] = value_of(value)
        return self.outputs[self.graph.outputs[0]]

    def _index(self) -> None:
        """Derive routes, predecessors and sources from the assignment."""
        a = self.assignment
        # device -> value name -> [(dst_device, replica_index, replica_count)]
        routes: dict[int, dict[str, list[tuple[int, int, int]]]] = {d: {} for d in self.workers}
        preds: dict[int, set[int]] = {d: set() for d in self.workers}
        for e in a.edges:
            entry = (e.consumer_device, *_replica_slot(a.tasks[e.consumer_device]))
            routes[e.producer_device].setdefault(e.layer, []).append(entry)
            preds[e.consumer_device].add(e.producer_device)
        self._routes = {d: {name: sorted(v) for name, v in by.items()} for d, by in routes.items()}
        # device -> [(dst_device, its inbox)] for every device it sends data to
        self._dests = {d: [(dst, self.workers[dst].inbox)
                           for dst in sorted({dst for v in by.values() for dst, _i, _c in v})]
                       for d, by in self._routes.items()}
        self._preds = {d: sorted(ps) for d, ps in preds.items()}
        self.sources = [(d, *_replica_slot(a.tasks[d])) for d in sorted(a.tasks)
                        if self.workers[d].owns_source]
        if not self.sources:
            raise RuntimeFault("no device owns a source layer")

    def _source_targets(self, tag: int) -> list[int]:
        """Source devices that take frame ``tag``: replicas in turn."""
        return [d for d, idx, count in self.sources if count == 1 or tag % count == idx]

    def recorder(self) -> Worker:
        """The source device in replica slot 0: the device whose camera
        the stream is, whichever replica computes a frame."""
        return self.workers[next(d for d, idx, _count in self.sources if idx == 0)]

    def _admit(self, value: np.ndarray, t: float) -> list[tuple[int, Message]]:
        """A camera frame arrives at time t and is admitted or sampled
        away.  Returns a (device, data frame) pair for each source device
        that takes the admitted frame's tag, or none.

        Dropped frames are never tagged, so downstream tag runs stay
        contiguous; the sampling interval decays back toward 1 after a
        quiet cooldown.
        """
        idx = self.raw_index
        self.raw_index += 1
        if t >= self.sample_cooldown_until and self.sample_interval > 1:
            self.sample_interval = max(1, self.sample_interval // 2)
            self.sample_cooldown_until = t + SAMPLING_COOLDOWN_SECONDS
        if idx % self.sample_interval != 0:
            self.sample_drops += 1
            return []
        tag = self.kept_counter
        self.kept_counter += 1
        self.kept_raw.append(idx)
        value = np.asarray(value, dtype=np.float32)
        return [(d, Message(kind=_DATA, tag=tag, layer=self.workers[d].source,
                            tensor=value, meta={"path": _ZERO_PATH}))
                for d in self._source_targets(tag)]

    def _slow_down(self, t: float) -> None:
        """Halve the camera's sampling rate at time t, for a cooldown."""
        self.sample_interval = min(MAX_SAMPLING_INTERVAL, self.sample_interval * 2)
        self.sample_cooldown_until = t + SAMPLING_COOLDOWN_SECONDS

    # -- message handling ------------------------------------------------------

    def _send(self, src: int, msg: Message, dst: int, t: float) -> None:
        raise NotImplementedError

    def _output(self, w: Worker, em, path: dict, t: float) -> None:
        self.outputs[em.layer][em.tag] = em.value

    def _consume(self, w: Worker, msg: Message):
        """``w.consume_data(msg)``: (emissions, the item's path)."""
        return w.consume_data(msg)

    def _on_data(self, w: Worker, msg: Message) -> dict:
        """Consume one data frame on ``w`` and route all that it yields;
        returns the item's path after the last charge on ``w``."""
        return self._dispatch(w, *self._consume(w, msg))

    def _dispatch(self, w: Worker, emissions, path: dict) -> dict:
        """Route what one consumption on ``w`` yielded; returns the path.
        A shard consumes its own part first: later frames carry its path."""
        split = w.task.split
        routes = self._routes[w.device]
        for em in emissions:
            if em.layer in self._sinks:
                self._output(w, em, path, w.free_at)
                continue
            name = em.layer
            if split is not None and em.layer == split.terminal:
                name = shard_wire_name(em.layer, split.index)
                if em.layer in w.executor.consumers:
                    path = self._on_data(w, Message(kind=_DATA, tag=em.tag, layer=name,
                                                    tensor=em.value, meta={"path": path}))
            for dst, idx, count in routes.get(em.layer, ()):
                if count == 1 or em.tag % count == idx:
                    msg = Message(kind=_DATA, tag=em.tag, layer=name,
                                  tensor=em.value, meta={"path": path})
                    self._send(w.device, msg, dst, w.free_at)
        return path


class VirtualCluster(ClusterCore):
    """Deterministic in-process cluster under a virtual clock.

    On top of the core it keeps the event heap, modeled link latency
    (``comm``, the link model the plan was priced with), blocking sends
    into bounded inboxes with almost-full signals, the camera feed's
    pacing and master-driven role rotation.  Every frame between devices
    goes through ``_send``, which charges its link latency, and arrives
    through ``_deliver``.  All workers record their firings in one
    ``batch``; ``outputs`` holds ``Pending`` values until it is flushed,
    and ``completions`` the call's outputs as (time, tag, path).
    """

    def __init__(self, aset: AssignmentSet, n: int,
                 inbox_capacity: int = DEFAULT_INBOX_CAPACITY):
        self.batch = Batch()
        super().__init__(aset, n, inbox_capacity, self.batch)
        self.comm = aset.comm
        self.master = min(self.workers)
        # The master's role version: 1 at start, one more per commit.
        self.version = 1
        self.setup_seconds = max(w.setup_load_seconds() for w in self.workers.values())
        self.last_reassign_reloads = 0

        # (time, seq, fn, args) events; seq is unique, so ties in time
        # run in scheduling order and fn is never compared.
        self._heap: list[tuple[float, int, Callable, tuple]] = []
        self._seq = 0
        self.vnow = 0.0
        # Blocking-send discipline: frames bound for a full inbox wait in
        # the sender's outbound queue; the sender stalls until the
        # destination drains.
        self._waiting: dict[int, list] = {d: [] for d in self.workers}
        self._stalled: dict[int, set[int]] = {}
        # Data frames in each device's inbox or sent toward it and not yet
        # delivered, how many devices hold more than half their inbox
        # capacity so, and the data frames so toward any device, which
        # paced feeding keeps at most _in_flight_cap; see feed_paced.
        self._load: dict[int, int] = {d: 0 for d in self.workers}
        self._half: dict[int, int] = {d: max(1, w.inbox.capacity // 2)
                                      for d, w in self.workers.items()}
        self._over_half = 0
        self._in_flight = 0
        self._in_flight_cap = FRAMES_IN_FLIGHT_PER_DEVICE * len(self.workers)
        # device -> (time, token) of its one live _process wake-up
        self._wakes: dict[int, tuple[float, int]] = {}
        # Almost-full crossings signalled so far, and the last one that
        # slowed the camera.
        self._crossings = 0
        self._slowed_crossing = 0

    # -- event loop --------------------------------------------------------------

    def _schedule(self, t: float, fn: Callable, *args) -> None:
        heappush(self._heap, (t, self._seq, fn, args))
        self._seq += 1

    def _step(self) -> None:
        """Run the earliest pending event."""
        t, _seq, fn, args = heappop(self._heap)
        if t > self.vnow:
            self.vnow = t
        fn(t, *args)

    def drain_until(self, t: float) -> None:
        """Run events scheduled at or before virtual time t."""
        while self._heap and self._heap[0][0] <= t:
            self._step()

    def drain(self) -> None:
        """Run every pending event; RuntimeFault when data is left queued
        or held after it, as senders stall on each other's full inboxes."""
        self.drain_until(math.inf)
        stuck = sorted(d for d, w in self.workers.items() if w.inbox.occupancy or self._waiting[d])
        if stuck:
            raise RuntimeFault(f"devices {stuck} stall on each other's full inboxes with data left")

    # -- transport ----------------------------------------------------------------

    def _send(self, src: int, msg: Message, dst: int, t: float) -> None:
        msg.source = src
        latency = comm_latency(msg.payload_bytes(), self.comm)
        path = msg.meta.get("path", _ZERO_PATH)
        msg.meta["path"] = {"compute": path["compute"], "comm": path["comm"] + latency,
                            "reload": path["reload"], "total": path["total"] + latency}
        if msg.kind == _DATA:
            self._add_load(dst, 1)
        self._schedule(t + latency, self._deliver, dst, msg)

    def _add_load(self, device: int, k: int) -> None:
        """Add k data frames to the load of ``device``, and keep the count
        of devices over half their inbox capacity and the frames in
        flight."""
        before = self._load[device]
        after = self._load[device] = before + k
        half = self._half[device]
        self._over_half += (after > half) - (before > half)
        self._in_flight += k

    def begin_call(self) -> None:
        """Also start the call's completions empty and each worker's queue
        seconds at 0, and note each device's busy seconds, from which
        ``run_stream`` takes the busy seconds accrued in the call."""
        super().begin_call()
        self.completions: list[tuple[float, int, dict]] = []
        for w in self.workers.values():
            w.queue_seconds = 0.0
        self.busy_at_call = {d: w.busy_seconds for d, w in self.workers.items()}

    def _output(self, w: Worker, em, path: dict, t: float) -> None:
        super()._output(w, em, path, t)
        self.completions.append((t, em.tag, path))

    def _deliver(self, t: float, dst: int, msg: Message) -> None:
        """A message sent by ``_send`` arrives at ``dst``: a data frame or
        an almost-full notice."""
        if msg.kind == _DATA:
            self._offer(t, dst, msg, delivered=True)
            return
        w = self.workers[dst]
        if w.owns_source:
            # Every source replica upstream hears of the crossing; the
            # camera's sampling rate halves once for it.
            if msg.meta["crossing"] != self._slowed_crossing:
                self._slowed_crossing = msg.meta["crossing"]
                self._slow_down(t)
        else:
            w.throttled_until = max(w.throttled_until, t + THROTTLE_SECONDS)

    def _offer(self, t: float, dst: int, msg: Message, delivered: bool = False) -> None:
        """Queue a data frame in the inbox of ``dst`` and schedule it.

        ``delivered``: the frame came over a link (``_deliver``), so it
        already counts toward the load of ``dst``, and a free ``dst`` may
        take it at once (see ``_wake_up``).  This is the last thing
        ``_deliver`` does: the camera offers one frame to several source
        devices, and takes none at once.
        """
        w = self.workers[dst]
        if w.inbox.full:
            # Hold in the sender's outbound queue; delivered (in order)
            # as the destination drains.
            self._waiting[dst].append(msg)
            if delivered:
                self._add_load(dst, -1)
            return
        w.inbox.offer((msg, t))
        if not delivered:
            self._add_load(dst, 1)
        if w.inbox.should_signal():
            self._signal_almost_full(t, dst)
        self._wake_up(max(t, w.free_at), dst, inline=delivered and w.free_at <= t)

    def _wake_up(self, t: float, device: int, inline: bool = False) -> None:
        """Make sure ``device`` looks at its inbox at time t or earlier.

        A device has at most one live ``_process`` wake-up: a request at
        or after the live one's time adds nothing, and an earlier request
        supersedes it, which then pops as a no-op.  A dropped request
        would have found the device busy, throttled or stalled and only
        asked again, except after an item that cost nothing: the device
        then asks again for the same instant, and its new wake-up runs
        after the events already due then, some of which a dropped one
        would have preceded.

        ``inline``: the caller's event runs at t.  If the device holds no
        wake-up and every other pending event is due after t, the new
        wake-up would be the very next event, so it runs now instead of
        through the heap.  ``drain_until`` and ``feed_paced`` would step
        to it next too: the event that asks is due by their horizon, and
        a delivery changes neither a device's load nor the frames in
        flight, on which ``feed_paced`` steps.
        """
        live = self._wakes.get(device)
        if live is not None and live[0] <= t:
            return
        token = self._seq
        self._wakes[device] = (t, token)
        if inline and live is None and (not self._heap or self._heap[0][0] > t):
            self._seq += 1
            self._process(t, device, token)
        else:
            self._schedule(t, self._process, device, token)

    def _signal_almost_full(self, t: float, device: int) -> None:
        self._crossings += 1
        for pred in self._preds[device]:
            note = Message(kind=Kind.ALMOST_FULL, meta={"crossing": self._crossings})
            self._send(device, note, pred, t)

    def _process(self, t: float, device: int, token: int) -> None:
        """A wake-up of ``device``: take one item from its inbox if it is
        not throttled and no downstream inbox is full."""
        if self._wakes.get(device) != (t, token):
            return  # superseded by an earlier wake-up
        del self._wakes[device]
        # Only a device with queued items asks for a wake-up, and only its
        # live one takes items, so the inbox is not empty here.  No
        # wake-up is asked for before the device's clock, and the clock
        # moves on only while the device holds no live wake-up, so the
        # device is free here too.
        w = self.workers[device]
        if t < w.throttled_until:
            self._wake_up(w.throttled_until, device)
            return
        # Blocking sends: stall while any downstream inbox is full, so
        # pressure cascades upstream instead of losing tagged data.
        for dst, inbox in self._dests[device]:
            if inbox.full:
                self._stalled.setdefault(dst, set()).add(device)
                return
        msg, arrival = w.inbox.take()
        w.queue_seconds += t - arrival
        self._after_take(t, device)
        w.free_at = max(t, w.free_at)
        self._on_data(w, msg)
        if w.inbox.occupancy > 0:
            self._wake_up(w.free_at, device)

    def _after_take(self, t: float, device: int) -> None:
        """One item taken and its slot freed: pull held messages in, count
        the load, wake stalled senders."""
        inbox = self.workers[device].inbox
        waiting = self._waiting[device]
        pulled = 0
        while waiting and not inbox.full:
            inbox.offer((waiting.pop(0), t))
            pulled += 1
            if inbox.should_signal():
                self._signal_almost_full(t, device)
        self._add_load(device, pulled - 1)
        if device in self._stalled and not inbox.full:
            for src in sorted(self._stalled.pop(device)):
                sw = self.workers[src]
                if sw.inbox.occupancy > 0:
                    self._wake_up(max(t, sw.free_at), src)

    # -- role rotation ---------------------------------------------------------------

    def reassign(self, trigger: tuple[str, int]) -> int:
        """The master rotates roles after a scene change; returns the new
        version.

        The master is the only caller, so every commit is the master's
        by construction.  The new mapping keeps every other device on
        its current task, so exactly the swapped devices reload.
        """
        self.drain()
        self.batch.flush()
        kind, dev = trigger
        rec = self.recorder().device
        if kind == "motion_on":
            tasks = dict(self.assignment.tasks)
            if dev != rec:
                if dev not in self.workers:
                    raise RuntimeFault(f"device {dev} is not part of the cluster")
                tasks[dev], tasks[rec] = tasks[rec], tasks[dev]
        elif kind == "device_lost":
            if dev == self.master:
                raise RuntimeFault("master device lost; halting run")
            raise RuntimeFault("device loss requires restarting on the smaller plan entry")
        else:
            raise RuntimeFault(f"unknown trigger {kind!r}")
        return self._commit(tasks)

    def _commit(self, tasks: dict[int, Task]) -> int:
        """Bind every device to ``tasks[device]``; returns the new version.

        At ``vnow``, in ascending device order, a device whose task
        changed adopts it with the executor that ran it, and so with its
        windows, flow fields, concat inputs and row shards: the cluster
        has drained, so nothing of the task is in flight, and no tag is
        lost.  The adopter's clock first waits one link latency of the
        bytes that executor holds (``TaskExecutor.held_bytes``; nothing
        when it holds none), then pays the task's load; its busy seconds
        take only the load.  Every other device keeps its task and
        executor.  The edges follow their tasks, the plan is re-indexed
        and the version goes up by one.  The camera stream's cursor and
        sampler live in the core, so the new recorder tags on where the
        old one stopped.
        """
        old = self.assignment
        rebound = {d: replace(t, device=d) for d, t in tasks.items()}
        executors = {w.task.task_id: w.executor for w in self.workers.values()}
        self.last_reassign_reloads = 0
        for d in sorted(self.workers):
            w = self.workers[d]
            if rebound[d].task_id == w.task.task_id:
                continue
            executor = executors[rebound[d].task_id]
            held = executor.held_bytes()
            w.adopt(rebound[d], executor)
            load = w.setup_load_seconds()
            move = comm_latency(held, self.comm) if held else 0.0
            w.free_at = max(w.free_at, self.vnow) + move + load
            w.busy_seconds += load
            self.last_reassign_reloads += 1
        device_of = {t.task_id: d for d, t in rebound.items()}
        edges = [Edge(device_of[old.tasks[e.producer_device].task_id],
                      device_of[old.tasks[e.consumer_device].task_id], e.layer)
                 for e in old.edges]
        self.assignment = replace(old, tasks=rebound, edges=edges)
        self._index()
        self.version += 1
        return self.version

    # -- driving ---------------------------------------------------------------------

    def feed_frame(self, value: np.ndarray, t: Optional[float] = None) -> None:
        """Inject one raw camera frame at virtual time t."""
        t = self.vnow if t is None else t
        self._schedule(t, self._camera_arrival, value)

    def feed_paced(self, value: np.ndarray) -> None:
        """Inject one raw camera frame once the source devices that take
        its tag are free, then run events until the pipeline can take the
        next one: at most ``FRAMES_IN_FLIGHT_PER_DEVICE`` data frames per
        device queued or in flight toward devices (``_in_flight``), and no
        inbox, counting the data in flight toward it, more than half full
        (``_over_half`` counts those devices), which keeps small inboxes
        below the almost-full watermark, where the camera would be
        sampled.  A closed loop with a constant number of frames in
        flight: the bottleneck stays fed, and a frame waits in few queues
        on its way to recognition."""
        targets = self._source_targets(self.kept_counter)
        start = max([self.vnow] + [self.workers[d].free_at for d in targets])
        self.feed_frame(value, t=start)
        self.drain_until(start)
        while self._heap and (self._over_half or self._in_flight > self._in_flight_cap):
            self._step()

    def _camera_arrival(self, t: float, value: np.ndarray) -> None:
        for d, msg in self._admit(value, t):
            self._offer(t, d, msg)


TRANSPORTS = ("in_process", "loopback_sockets")


def start_cluster(aset: AssignmentSet, n: int, transport: str = "in_process",
                  inbox_capacity: int = DEFAULT_INBOX_CAPACITY):
    """Bring up one worker per device at role version 1."""
    if transport == "in_process":
        return VirtualCluster(aset, n, inbox_capacity)
    if transport == "loopback_sockets":
        from edgeflock.loopback import LoopbackCluster
        return LoopbackCluster(aset, n, inbox_capacity)
    raise RuntimeFault(f"unknown transport {transport!r}")


def run_stream(cluster: VirtualCluster, frames: Iterable[np.ndarray], fps: float = 30.0,
               paced: bool = True) -> tuple[dict[int, np.ndarray], RunMetrics]:
    """Feed a frame sequence; returns the first sink's outputs of this
    call, by tag, and its metrics.  The cluster's ``outputs`` (every
    sink's, as arrays), ``kept_raw`` and ``completions`` hold this call's.

    ``paced`` feeds each frame through ``VirtualCluster.feed_paced`` (the
    default for verification and benchmarking); unpaced feeding follows
    the fps schedule strictly, frame i at ``vnow + i / fps``, and lets
    backpressure reduce the camera's sampling rate.  ``kept_raw_indices``
    lists the frames this call admitted, as indices into ``frames``.
    The math runs as the cluster's batch fills and once more after the
    last event.
    """
    cluster.begin_call()
    base = cluster.raw_index  # so that kept_raw_indices index into frames
    if paced:
        for f in frames:
            cluster.feed_paced(f)
    else:
        start = cluster.vnow
        for i, f in enumerate(frames):
            cluster.feed_frame(f, t=start + i / fps)
    cluster.drain()
    cluster.batch.flush()

    outputs = cluster.end_call()
    completions = cluster.completions
    metrics = RunMetrics(
        outputs=len(completions), setup_seconds=cluster.setup_seconds, drops=cluster.sample_drops,
        wall_seconds=max([cluster.vnow] + [w.free_at for w in cluster.workers.values()]),
        per_device_busy_seconds={d: w.busy_seconds for d, w in cluster.workers.items()},
        per_device_queue_seconds={d: w.queue_seconds for d, w in cluster.workers.items()},
        kept_raw_indices=[i - base for i in cluster.kept_raw])
    busiest = max(w.busy_seconds - cluster.busy_at_call[d] for d, w in cluster.workers.items())
    if busiest > 0:
        metrics.steady_ips = len(cluster.kept_raw) / busiest
    if completions:
        paths = [p for _t, _tag, p in completions]
        metrics.t_forward_seconds = sum(p["total"] for p in paths) / len(paths)
        for k in ("compute", "comm", "reload"):
            metrics.breakdown[k] = sum(p[k] for p in paths) / len(paths)
        if len(completions) >= 2:
            tail = completions[len(completions) // 4:]
            span = tail[-1][0] - tail[0][0]
            metrics.ips = (len(tail) - 1) / span if span > 0 else 0.0
    return outputs, metrics
