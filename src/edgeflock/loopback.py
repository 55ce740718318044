"""Loopback-socket transport: the cluster core over real TCP frames.

``runtime.ClusterCore`` decides what every message yields; this module
only moves frames.  When the cluster starts, each device opens its one
connection over 127.0.0.1, and every message sent to it crosses that
connection in the length-prefixed wire format.  Each device runs two
threads: a reader that queues the frames it reads and a processor that
hands each message to the core.  The core tags the camera frames that
``feed`` sends, so a second ``feed`` continues the stream; the devices
that compute the first graph output record it in ``outputs``.
Wall-clock timing replaces the virtual clock, so this transport is for
protocol/integration coverage; throughput and latency modeling live in
the in-process transport.
"""

from __future__ import annotations

import queue
import socket
import struct
import threading
from typing import Iterable, Optional

import numpy as np

from edgeflock.engine import value_of
from edgeflock.planner import AssignmentSet
from edgeflock.runtime import (
    DEFAULT_INBOX_CAPACITY,
    ClusterCore,
    RunMetrics,
    RuntimeFault,
    Worker,
)
from edgeflock.wire import Kind, Message, decode, encode

_LEN = struct.Struct(">I")


class _Node:
    """One device: the sending end ``out`` of its one connection, a
    reader thread on the receiving end and a processor thread."""

    def __init__(self, cluster: "LoopbackCluster", worker: Worker):
        self.cluster = cluster
        self.worker = worker
        self.queue: queue.Queue = queue.Queue(maxsize=worker.inbox.capacity)
        self.alive = True
        # Senders to this device wait for each other, and for no one else.
        self.send_lock = threading.Lock()
        with socket.create_server(("127.0.0.1", 0)) as server:
            self.out = socket.create_connection(server.getsockname(), timeout=10.0)
            try:
                conn, _ = server.accept()
            except OSError:
                self.out.close()
                raise
        for target, args in ((self._reader, (conn,)), (self._process_loop, ())):
            threading.Thread(target=target, args=args, daemon=True).start()

    def _reader(self, conn: socket.socket):
        with conn, conn.makefile("rb") as stream:
            try:
                while self.alive:
                    head = stream.read(_LEN.size)
                    if len(head) < _LEN.size:
                        return  # end of stream: stop() closed the sending end
                    # Blocking put = sender-side hold; occupancy stays bounded.
                    self.queue.put(decode(stream.read(_LEN.unpack(head)[0])))
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
        from its queue, the reader reads end-of-stream once ``out`` closes.
        A later send to this node raises ``OSError``."""
        self.alive = False
        try:
            self.queue.put_nowait(Message(kind=Kind.HEARTBEAT, body={"bye": 1}))
        except queue.Full:
            pass  # the processor is busy, and sees alive is False once done
        try:
            self.out.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.out.close()


class LoopbackCluster(ClusterCore):
    """Workers on localhost sockets; one worker per device.

    The core in ``runtime`` tags the camera frames and decides what each
    message yields; this class moves frames and keeps the first graph
    output of the current ``feed``.  Each device's connection is opened
    here, so a socket error at start raises ``RuntimeFault``.  Each
    destination has its own send lock, so a sender blocked on one full
    peer never keeps another sender from reaching a different peer.
    """

    def __init__(self, aset: AssignmentSet, n: int,
                 inbox_capacity: int = DEFAULT_INBOX_CAPACITY):
        super().__init__(aset, n, inbox_capacity)
        # Guards outputs, expected and fault, which node threads write.
        self._lock = threading.Lock()
        self.outputs: dict[int, np.ndarray] = {}
        self._done = threading.Event()
        self.fault: Optional[Exception] = None
        self.expected: Optional[int] = None
        self.nodes: dict[int, _Node] = {}
        for d, w in self.workers.items():
            try:
                self.nodes[d] = _Node(self, w)
            except OSError as exc:
                self.close()
                raise RuntimeFault(f"loopback set-up of device {d} failed: {exc!r}") from exc

    def fail(self, exc: Exception) -> None:
        """Keep the first exception of a node thread and wake ``feed``."""
        with self._lock:
            if self.fault is None:
                self.fault = exc
        self._done.set()

    def send(self, msg: Message, dst: int) -> None:
        """Frame ``msg`` onto the connection to ``dst``; only senders to the
        same destination wait for each other."""
        frame = encode(msg)
        node = self.nodes[dst]
        with node.send_lock:
            node.out.sendall(_LEN.pack(len(frame)) + frame)

    def _consume(self, w: Worker, msg: Message):
        """Consume a message and compute what it fired: the wire needs
        bytes.  Each worker has its own batch, flushed on its own thread."""
        consumed = w.consume_data(msg)
        w.batch.flush()
        return consumed

    def _send(self, src: int, msg: Message, dst: int, t: float) -> None:
        self.send(msg, dst)

    def _output(self, w: Worker, em, path: dict, t: float) -> None:
        if em.layer != self.graph.outputs[0]:
            return  # feed returns the first sink's values, as run_stream does
        with self._lock:
            self.outputs[em.tag] = value_of(em.value)
            if self.expected is not None and len(self.outputs) >= self.expected:
                self._done.set()

    def handle(self, w: Worker, msg: Message) -> None:
        """Handle one message on a node's processor thread."""
        if msg.kind == Kind.DATA:
            self._on_data(w, msg)
        elif msg.kind == Kind.SKIP:
            self._on_skip(w, msg, w.free_at)

    # -- driving -------------------------------------------------------------

    def feed(self, frames: Iterable[np.ndarray], expected_outputs: int,
             timeout: float = 60.0) -> dict[int, np.ndarray]:
        """Send frames through the recorder to the source devices and wait
        for this call's values of the first graph output, by tag.

        The core tags on from the previous call.  Nothing slows the
        camera on this transport, so the core admits every frame, and
        the time it is given cannot change what it admits.  Raises
        ``RuntimeFault`` on timeout, when a frame cannot be sent, or as
        soon as a node thread has failed, chained from that thread's
        first exception.
        """
        with self._lock:
            self.outputs = {}
            self.expected = expected_outputs
            self._done.clear()
        for frame in frames:
            if self.fault is not None:
                break
            for d, msg in self._admit(frame, 0.0):
                try:
                    self.send(msg, d)
                except OSError as exc:
                    raise RuntimeFault(f"loopback feed of frame {msg.tag} to device {d} "
                                       f"failed: {exc!r}") from exc
        if self.fault is None and not self._done.wait(timeout):
            raise RuntimeFault(
                f"loopback run timed out with {len(self.outputs)}/{expected_outputs} outputs")
        if self.fault is not None:
            raise RuntimeFault(f"loopback worker thread failed: {self.fault!r}") from self.fault
        with self._lock:
            return dict(self.outputs)

    def metrics(self) -> RunMetrics:
        m = RunMetrics()
        m.outputs = len(self.outputs)
        m.per_device_busy_seconds = {d: w.busy_seconds for d, w in self.workers.items()}
        return m

    def close(self) -> None:
        for node in self.nodes.values():
            node.stop()
