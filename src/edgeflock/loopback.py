"""Loopback-socket transport: the same workers over real TCP frames.

Each device runs as a thread pair (acceptor + processor) listening on
an ephemeral 127.0.0.1 port; every message crosses a socket in the
length-prefixed wire format.  Outputs funnel to a collector socket
owned by the harness.  Wall-clock timing replaces the virtual clock, so
this transport is for protocol/integration coverage; throughput and
latency modeling live in the in-process transport.
"""

from __future__ import annotations

import queue
import socket
import struct
import threading
from typing import Iterable, Optional

import numpy as np

from edgeflock import model_ir as ir
from edgeflock.costs import DeviceProfile, CommModel
from edgeflock.planner import AssignmentSet
from edgeflock.runtime import (
    DEFAULT_INBOX_CAPACITY,
    RunMetrics,
    RuntimeFault,
    Worker,
    shard_wire_name,
)
from edgeflock.wire import Kind, Message, decode, encode

_LEN = struct.Struct(">I")
COLLECTOR_DEVICE = 0xFFFE


def _send_frame(sock: socket.socket, frame: bytes) -> None:
    sock.sendall(_LEN.pack(len(frame)) + frame)


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    buf = b""
    while len(buf) < count:
        chunk = sock.recv(count - len(buf))
        if not chunk:
            return None
        buf += chunk
    return buf


def _recv_frame(sock: socket.socket) -> Optional[bytes]:
    head = _recv_exact(sock, _LEN.size)
    if head is None:
        return None
    (length,) = _LEN.unpack(head)
    body = _recv_exact(sock, length)
    return body


class _Node:
    """One device thread pair plus its listening socket."""

    def __init__(self, cluster: "LoopbackCluster", worker: Worker):
        self.cluster = cluster
        self.worker = worker
        self.server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.server.bind(("127.0.0.1", 0))
        self.server.listen(16)
        self.port = self.server.getsockname()[1]
        self.queue: queue.Queue = queue.Queue(maxsize=worker.inbox.capacity)
        self.alive = True
        self.threads: list[threading.Thread] = []

    def start(self):
        t = threading.Thread(target=self._accept_loop, daemon=True)
        t.start()
        p = threading.Thread(target=self._process_loop, daemon=True)
        p.start()
        self.threads = [t, p]

    def _accept_loop(self):
        while self.alive:
            try:
                conn, _ = self.server.accept()
            except OSError:
                return
            threading.Thread(target=self._reader, args=(conn,), daemon=True).start()

    def _reader(self, conn: socket.socket):
        with conn:
            try:
                while self.alive:
                    frame = _recv_frame(conn)
                    if frame is None:
                        return
                    # Blocking put = sender-side hold; occupancy stays bounded.
                    self.queue.put(decode(frame))
            except Exception as exc:  # the thread's boundary: report, never die silently
                self.cluster.fail(exc)

    def _process_loop(self):
        while self.alive:
            msg = self.queue.get()
            if msg.kind == Kind.HEARTBEAT and msg.body.get("bye"):
                self.alive = False
                return
            if self.cluster.fault is not None:
                continue  # the run has failed; drain so that senders never block
            try:
                self.cluster.handle(self.worker, msg)
            except Exception as exc:  # the thread's boundary: report, never die silently
                self.cluster.fail(exc)

    def stop(self):
        """End the node's threads: the processor takes the bye straight
        from its queue, the acceptor wakes when the listener shuts down."""
        self.alive = False
        try:
            self.queue.put_nowait(Message(kind=Kind.HEARTBEAT, body={"bye": 1}))
        except queue.Full:
            pass  # the processor is busy, and sees alive is False once done
        try:
            self.server.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.server.close()
        except OSError:
            pass


def _send_frame_to(addr, frame: bytes) -> None:
    with socket.create_connection(addr, timeout=5.0) as s:
        _send_frame(s, frame)


class LoopbackCluster:
    """Workers on localhost sockets; one worker per device."""

    def __init__(self, aset: AssignmentSet, n: int,
                 inbox_capacity: int = DEFAULT_INBOX_CAPACITY,
                 master_seed: Optional[int] = None,
                 param_override=None, flow_fn=None,
                 profile: Optional[DeviceProfile] = None,
                 comm: Optional[CommModel] = None):
        self.aset = aset
        self.assignment = aset.for_devices(n)
        self.graph = aset.graph
        self.profile = profile or aset.device
        self.comm = comm or aset.comm
        from edgeflock.runtime import VirtualCluster
        self.part_specs = VirtualCluster._index_parts(self.assignment)
        self.nodes: dict[int, _Node] = {}
        for d, task in self.assignment.tasks.items():
            w = Worker(d, task, self.graph, self.profile, self.comm, self.part_specs,
                       inbox_capacity, param_override, flow_fn)
            self.nodes[d] = _Node(self, w)
        self._routes = self._build_routes()
        self._conn_lock = threading.Lock()
        self._conns: dict[int, socket.socket] = {}
        self.collector = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.collector.bind(("127.0.0.1", 0))
        self.collector.listen(4)
        self.outputs: dict[int, np.ndarray] = {}
        self._done = threading.Event()
        self._fault_lock = threading.Lock()
        self.fault: Optional[Exception] = None
        self.expected: Optional[int] = None
        threading.Thread(target=self._collect_loop, daemon=True).start()
        for node in self.nodes.values():
            node.start()

    def _build_routes(self):
        routes: dict[int, dict[str, list[tuple[int, int, int]]]] = {d: {} for d in self.nodes}
        for e in self.assignment.edges:
            rep = self.assignment.tasks[e.consumer_device].replica
            entry = (e.consumer_device, rep.index if rep else 0, rep.count if rep else 1)
            routes.setdefault(e.producer_device, {}).setdefault(e.layer, []).append(entry)
        return routes

    def _collect_loop(self):
        conn, _ = self.collector.accept()
        with conn:
            while True:
                frame = _recv_frame(conn)
                if frame is None:
                    return
                msg = decode(frame)
                if msg.kind == Kind.HEARTBEAT:
                    return
                self.outputs[msg.tag] = msg.tensor
                if self.expected is not None and len(self.outputs) >= self.expected:
                    self._done.set()

    def fail(self, exc: Exception) -> None:
        """Keep the first exception of a node thread and wake ``feed``."""
        with self._fault_lock:
            if self.fault is None:
                self.fault = exc
        self._done.set()

    def _connection(self, device: int) -> socket.socket:
        with self._conn_lock:
            sock = self._conns.get(device)
            if sock is None:
                if device == COLLECTOR_DEVICE:
                    addr = self.collector.getsockname()
                else:
                    addr = ("127.0.0.1", self.nodes[device].port)
                sock = socket.create_connection(addr, timeout=10.0)
                self._conns[device] = sock
            return sock

    def send(self, msg: Message, dst: int) -> None:
        frame = encode(msg)
        sock = self._connection(dst)
        with self._conn_lock:
            _send_frame(sock, frame)

    # -- worker message handling (called on node processor threads) --------

    def handle(self, w: Worker, msg: Message) -> None:
        if msg.kind == Kind.DATA:
            emissions, notices, compute, reload = w.consume_data(msg)
            w.busy_seconds += compute + reload
            self._dispatch(w, emissions, notices)
        elif msg.kind == Kind.SKIP:
            self._notices(w, w.consume_skip(msg))

    def _dispatch(self, w: Worker, emissions, notices) -> None:
        for em in emissions:
            if em.layer in self.graph.outputs:
                out = Message(kind=Kind.DATA, tag=em.tag, layer=em.layer, tensor=em.value)
                self.send(out, COLLECTOR_DEVICE)
                continue
            is_shard = w.task.split is not None and em.layer == w.task.split.terminal
            if is_shard and em.layer in self.part_specs and any(
                    em.layer in self.graph.layer(n).inputs for n in w.task.layers):
                local = Message(kind=Kind.DATA, tag=em.tag,
                                layer=shard_wire_name(em.layer, w.task.split.index),
                                tensor=em.value)
                sub_em, sub_no, c2, r2 = w.consume_data(local)
                w.busy_seconds += c2 + r2
                self._dispatch(w, sub_em, sub_no)
            name = shard_wire_name(em.layer, w.task.split.index) if is_shard else em.layer
            for dst, rep_idx, rep_count in self._routes.get(w.device, {}).get(em.layer, []):
                if rep_count > 1 and em.tag % rep_count != rep_idx:
                    continue
                self.send(Message(kind=Kind.DATA, tag=em.tag, layer=name, tensor=em.value), dst)
        self._notices(w, notices)

    def _notices(self, w: Worker, notices) -> None:
        for no in notices:
            for dst, _i, _c in self._routes.get(w.device, {}).get(no.layer, []):
                self.send(Message(kind=Kind.SKIP, layer=no.layer,
                                  body={"next_tag": no.next_tag}), dst)

    # -- driving -------------------------------------------------------------

    def feed(self, frames: Iterable[np.ndarray], expected_outputs: int,
             timeout: float = 60.0) -> dict[int, np.ndarray]:
        """Send frames to the source devices and wait for the outputs.

        Raises ``RuntimeFault`` on timeout, or as soon as a node thread
        has failed, chained from that thread's first exception.
        """
        self.expected = expected_outputs
        self._done.clear()
        sources = []
        for d in sorted(self.assignment.tasks):
            t = self.assignment.tasks[d]
            if any(self.graph.layer(nm).kind == ir.SOURCE for nm in t.layers):
                rep = t.replica
                sources.append((d, rep.index if rep else 0, rep.count if rep else 1))
        if not sources:
            raise RuntimeFault("no source-owning device")
        for tag, frame in enumerate(frames):
            if self.fault is not None:
                break
            for d, idx, count in sources:
                if count > 1 and tag % count != idx:
                    continue
                src_layer = self.nodes[d].worker.source_name()
                self.send(Message(kind=Kind.DATA, tag=tag, layer=src_layer,
                                  tensor=np.asarray(frame, np.float32)), d)
        if self.fault is None and not self._done.wait(timeout):
            raise RuntimeFault(
                f"loopback run timed out with {len(self.outputs)}/{expected_outputs} outputs")
        if self.fault is not None:
            raise RuntimeFault(f"loopback worker thread failed: {self.fault!r}") from self.fault
        return dict(self.outputs)

    def metrics(self) -> RunMetrics:
        m = RunMetrics()
        m.outputs = len(self.outputs)
        m.per_device_busy_seconds = {d: n.worker.busy_seconds for d, n in self.nodes.items()}
        return m

    def close(self) -> None:
        for node in self.nodes.values():
            node.stop()
        with self._conn_lock:
            for sock in self._conns.values():
                try:
                    sock.close()
                except OSError:
                    pass
        try:
            _send_frame_to(self.collector.getsockname(),
                           encode(Message(kind=Kind.HEARTBEAT, body={"bye": 1})))
        except OSError:
            pass
        try:
            self.collector.close()
        except OSError:
            pass
