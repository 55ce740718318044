"""Loopback-socket transport: the cluster core over real TCP frames.

``runtime.ClusterCore`` decides what every message yields; this module
only moves frames.  When the cluster starts, each device opens its one
connection over 127.0.0.1, and every message sent to it crosses that
connection in the length-prefixed wire format.  Each device runs two
threads: a reader that queues the frames it reads and a processor that
hands each message to the core.  The core tags the camera frames that
``feed`` sends, so a second ``feed`` continues the stream, and records
the graph outputs of each call, as ``run_stream`` does.  A ``feed`` ends
as an in-process run does: when every message sent has been handled.
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
                while True:
                    head = stream.read(_LEN.size)
                    if len(head) < _LEN.size:
                        return  # end of stream: stop() closed the sending end
                    # Blocking put = sender-side hold; occupancy stays bounded.
                    self.queue.put(decode(stream.read(_LEN.unpack(head)[0])))
            except Exception as exc:  # the thread's boundary: report, never die silently
                self.cluster.fail(exc)
            finally:
                # The processor leaves on this bye, after all the reader queued.
                self.queue.put(Message(kind=Kind.HEARTBEAT, body={"bye": 1}))

    def _process_loop(self):
        while True:
            msg = self.queue.get()
            if msg.kind == Kind.HEARTBEAT and msg.body.get("bye"):
                return
            try:
                # Once stopping or failed, drain unhandled, so that the reader
                # and the senders never block.
                if self.alive and self.cluster.fault is None:
                    self.cluster.handle(self.worker, msg)
            except Exception as exc:  # the thread's boundary: report, never die silently
                self.cluster.fail(exc)
            finally:
                self.cluster.handled()

    def stop(self):
        """End the node's threads: once ``out`` closes, the reader reads
        end-of-stream and queues a bye, and the processor drains its queue
        up to that bye without handling a message.  A later send to this
        node raises ``OSError``."""
        self.alive = False
        try:
            self.out.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.out.close()


class LoopbackCluster(ClusterCore):
    """Workers on localhost sockets; one worker per device.

    The core in ``runtime`` tags the camera frames and decides what each
    message yields and records the graph outputs; this class moves frames
    and counts the messages sent and not yet handled.  Each device's
    connection is opened here, so a socket error at start raises
    ``RuntimeFault``.  Each destination has its own send lock, so a
    sender blocked on one full peer never keeps another sender from
    reaching a different peer.
    """

    def __init__(self, aset: AssignmentSet, n: int,
                 inbox_capacity: int = DEFAULT_INBOX_CAPACITY):
        super().__init__(aset, n, inbox_capacity)
        # Guards fault and unhandled, the messages that send has framed
        # and no processor has finished with; feed waits on _idle.
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self.fault: Optional[Exception] = None
        self.unhandled = 0
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
            self._idle.notify_all()

    def handled(self) -> None:
        """One message sent has been handled, or skipped after a fault."""
        with self._lock:
            self.unhandled -= 1
            if self.unhandled == 0:
                self._idle.notify_all()

    def send(self, msg: Message, dst: int) -> None:
        """Frame ``msg`` onto the connection to ``dst``; only senders to the
        same destination wait for each other."""
        frame = encode(msg)
        node = self.nodes[dst]
        with self._lock:
            self.unhandled += 1
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

    def handle(self, w: Worker, msg: Message) -> None:
        """Handle one data frame on a node's processor thread.  Any other
        kind, SKIP too (no window is handed off without ``reassign``),
        raises ``RuntimeFault``: dropped, it would look like a finished run."""
        if msg.kind != Kind.DATA:
            raise RuntimeFault(f"device {w.device} has no handler for {msg.kind.name} frames")
        self._on_data(w, msg)

    # -- driving -------------------------------------------------------------

    def feed(self, frames: Iterable[np.ndarray], expected_outputs: Optional[int] = None,
             timeout: float = 60.0) -> dict[int, np.ndarray]:
        """Send frames through the recorder to the source devices, wait
        until every message sent is handled and return this call's values
        of the first graph output, by tag, as ``run_stream`` does.

        The core tags on from the previous call.  Nothing slows the
        camera on this transport, so the core admits every frame, and
        the time it is given cannot change what it admits.  Raises
        ``RuntimeFault`` when a frame cannot be sent, when messages are
        left unhandled after ``timeout`` seconds, when the first sink
        completed other than ``expected_outputs`` values (if given), or
        as soon as a node thread has failed, chained from that thread's
        first exception.
        """
        self.begin_call()
        try:
            for frame in frames:
                if self.fault is not None:
                    break
                for d, msg in self._admit(frame, 0.0):
                    self.send(msg, d)
        except OSError as exc:
            if self.fault is None:  # else a node thread failed first: raised below
                raise RuntimeFault(f"loopback feed of frame {msg.tag} to device {d} "
                                   f"failed: {exc!r}") from exc
        with self._idle:
            if not self._idle.wait_for(lambda: self.unhandled == 0 or self.fault is not None, timeout):
                raise RuntimeFault(f"loopback run timed out with {self.unhandled} messages unhandled")
        if self.fault is not None:
            raise RuntimeFault(f"loopback worker thread failed: {self.fault!r}") from self.fault
        outputs = self.end_call()
        if expected_outputs is not None and len(outputs) != expected_outputs:
            raise RuntimeFault(f"loopback run completed {len(outputs)} outputs, "
                               f"expected {expected_outputs}")
        return outputs

    def metrics(self) -> RunMetrics:
        return RunMetrics(outputs=sum(len(by_tag) for by_tag in self.outputs.values()),
                          per_device_busy_seconds={d: w.busy_seconds for d, w in self.workers.items()})

    def close(self) -> None:
        for node in self.nodes.values():
            node.stop()
