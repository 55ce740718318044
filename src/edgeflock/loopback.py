"""Loopback-socket transport: the cluster core over real TCP frames.

``runtime.ClusterCore`` decides what every message yields; this module
only moves frames.  Each device listens on an ephemeral 127.0.0.1 port
with an acceptor thread, a reader thread per inbound connection and one
processor thread that hands each message to the core; every message
between devices crosses a socket in the length-prefixed wire format.
Senders keep one connection and one send lock per destination.  The
core tags the camera frames that ``feed`` sends, so a second ``feed``
continues the stream; the devices that compute a graph output
record it in ``outputs``.  Wall-clock timing replaces the virtual
clock, so this transport is for protocol/integration coverage;
throughput and latency modeling live in the in-process transport.
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
    return _recv_exact(sock, length)


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


class LoopbackCluster(ClusterCore):
    """Workers on localhost sockets; one worker per device.

    The core in ``runtime`` tags the camera frames and decides what each
    message yields; this class moves frames and keeps the outputs of the
    current ``feed``.  Each destination has its own connection and send
    lock, so a sender blocked on one full peer never keeps another
    sender from reaching a different peer.
    """

    def __init__(self, aset: AssignmentSet, n: int,
                 inbox_capacity: int = DEFAULT_INBOX_CAPACITY):
        super().__init__(aset, n, inbox_capacity)
        self.nodes = {d: _Node(self, w) for d, w in self.workers.items()}
        self._send_locks = {d: threading.Lock() for d in self.nodes}
        self._conns: dict[int, socket.socket] = {}
        # Guards outputs, expected and fault, which node threads write.
        self._lock = threading.Lock()
        self.outputs: dict[int, np.ndarray] = {}
        self._done = threading.Event()
        self.fault: Optional[Exception] = None
        self.expected: Optional[int] = None
        for node in self.nodes.values():
            node.start()

    def fail(self, exc: Exception) -> None:
        """Keep the first exception of a node thread and wake ``feed``."""
        with self._lock:
            if self.fault is None:
                self.fault = exc
        self._done.set()

    def send(self, msg: Message, dst: int) -> None:
        """Frame ``msg`` onto the connection to ``dst``, opening it first if
        needed; only senders to the same destination wait for each other."""
        frame = encode(msg)
        with self._send_locks[dst]:
            sock = self._conns.get(dst)
            if sock is None:
                sock = self._conns[dst] = socket.create_connection(
                    ("127.0.0.1", self.nodes[dst].port), timeout=10.0)
            sock.sendall(_LEN.pack(len(frame)) + frame)

    def _consume(self, w: Worker, msg: Message):
        """Consume a message and compute what it fired: the wire needs
        bytes.  Each worker has its own batch, flushed on its own thread."""
        consumed = w.consume_data(msg)
        w.batch.flush()
        return consumed

    def _send(self, src: int, msg: Message, dst: int, t: float) -> None:
        self.send(msg, dst)

    def _output(self, w: Worker, em, path: dict, t: float) -> None:
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
        for this call's outputs, by tag.

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
        for sock in list(self._conns.values()):
            try:
                sock.close()
            except OSError:
                pass
