"""Sliding windows, bounded inboxes, and the wire format."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgeflock.windows import BoundedInbox, SlidingWindow, WindowError
from edgeflock.wire import (
    HEADER_LEN,
    Kind,
    Message,
    WireError,
    decode,
    encode,
    encode_tensor,
    decode_tensor,
)


class TestSlidingWindow:
    def test_in_order_run_emits_once_full(self):
        w = SlidingWindow(length=10)
        emitted = []
        for t in range(10):
            emitted += w.push(t, t)
        assert len(emitted) == 1
        end, items = emitted[0]
        assert end == 9 and items == list(range(10))

    def test_out_of_order_buffers(self):
        w = SlidingWindow(length=2)
        assert w.push(1, "b") == []
        got = w.push(0, "a")
        assert got == [(1, ["a", "b"])]

    def test_duplicate_tag_is_error(self):
        w = SlidingWindow(length=4)
        w.push(3, "x")
        with pytest.raises(WindowError, match="duplicate"):
            w.push(3, "y")

    def test_late_tag_is_a_duplicate(self):
        """Tags arrive gap-free, each once: a tag below the window's start
        has arrived before."""
        w = SlidingWindow(length=2)
        w.push(0, "a")
        w.push(1, "b")  # window emitted, next_tag -> 1
        with pytest.raises(WindowError, match="duplicate tag 0"):
            w.push(0, "stale")
        assert w.next_tag == 1 and w.pending == {1: "b"}

    @given(st.permutations(list(range(12))))
    @settings(max_examples=40, deadline=None)
    def test_any_arrival_order_same_windows(self, order):
        w = SlidingWindow(length=4)
        emitted = []
        for t in order:
            emitted += w.push(t, t)
        assert sorted(end for end, _ in emitted) == [3, 4, 5, 6, 7, 8, 9, 10, 11]
        for end, items in emitted:
            assert items == list(range(end - 3, end + 1))


class TestBoundedInbox:
    def test_occupancy_never_exceeds_capacity(self):
        box = BoundedInbox(capacity=10)
        accepted = sum(box.offer(i) for i in range(25))
        assert accepted == 10
        assert box.occupancy == 10
        assert box.rejected == 15
        assert box.peak_occupancy == 10

    def test_signal_fires_once_per_crossing(self):
        box = BoundedInbox(capacity=10)
        assert box.almost_full_threshold == 8
        signals = 0
        for i in range(9):
            box.offer(i)
            signals += box.should_signal()
        assert signals == 1
        for _ in range(5):
            box.take()
        for i in range(6):
            box.offer(i)
            signals += box.should_signal()
        assert signals == 2

    def test_take_order_fifo(self):
        box = BoundedInbox(capacity=3)
        for i in range(3):
            box.offer(i)
        assert [box.take() for _ in range(3)] == [0, 1, 2]
        with pytest.raises(WindowError):
            box.take()


class TestWire:
    def test_tensor_roundtrip(self):
        arr = np.random.default_rng(0).uniform(-1, 1, (3, 4, 2)).astype(np.float32)
        msg = Message(kind=Kind.DATA, tag=77, source=3, layer="fc_d1", tensor=arr)
        back = decode(encode(msg))
        assert back.kind == Kind.DATA
        assert back.tag == 77 and back.source == 3 and back.layer == "fc_d1"
        assert np.array_equal(back.tensor, arr)
        assert back.tensor.dtype == np.float32

    def test_control_roundtrip(self):
        """A control body travels as it is; only data frames name a value."""
        msg = Message(kind=Kind.ALMOST_FULL, body={"device": 3, "layer": "flow"})
        back = decode(encode(msg))
        assert back.kind == Kind.ALMOST_FULL
        assert back.layer == ""
        assert back.body == {"device": 3, "layer": "flow"}

    def test_header_is_sixteen_bytes(self):
        assert HEADER_LEN == 16

    def test_a_version_1_frame_is_a_wire_error(self):
        """A frame with the 20-byte version 1 header, whose dest_role and
        stream_id fields are gone, is refused."""
        payload = encode_tensor(np.zeros(3, np.float32), "fc_d1")
        frame = struct.pack(">BBHQHHI", 1, int(Kind.DATA), 0, 7, 0, 0, len(payload)) + payload
        with pytest.raises(WireError, match="unsupported wire version 1"):
            decode(frame)

    def test_data_without_tensor_rejected(self):
        with pytest.raises(WireError):
            encode(Message(kind=Kind.DATA, layer="x"))

    def test_truncated_frame_rejected(self):
        frame = encode(Message(kind=Kind.ALMOST_FULL))
        with pytest.raises(WireError):
            decode(frame[:-1] if len(frame) > HEADER_LEN else frame[:10])

    def test_float_bytes_are_little_endian(self):
        arr = np.array([1.0], np.float32)
        payload = encode_tensor(arr, "v")
        assert payload.endswith(np.array([1.0], "<f4").tobytes())
        back, name = decode_tensor(payload)
        assert name == "v" and back[0] == np.float32(1.0)

    @given(st.integers(min_value=0, max_value=2**64 - 1),
           st.integers(min_value=0, max_value=2**16 - 1),
           st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                    min_size=0, max_size=32))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_fuzz(self, tag, source, values):
        arr = np.array(values, np.float32).reshape(-1)
        msg = Message(kind=Kind.DATA, tag=tag, source=source, layer="zz", tensor=arr)
        back = decode(encode(msg))
        assert back.tag == tag and back.source == source
        assert np.array_equal(back.tensor, arr)


def _valid_frames():
    rng = np.random.default_rng(3)
    return [
        encode(Message(kind=Kind.DATA, tag=9, source=2, layer="fc_d1#p0",
                       tensor=rng.uniform(-1, 1, (3, 4)).astype(np.float32))),
        encode(Message(kind=Kind.DATA, layer="out", tensor=np.float32(0.5).reshape(()))),
        encode(Message(kind=Kind.ALMOST_FULL, body={"device": 3})),
        encode(Message(kind=Kind.HEARTBEAT)),
    ]


VALID_FRAMES = _valid_frames()


class TestWireDecodingIsTotal:
    """Any byte string decodes to a Message or raises WireError, nothing else."""

    @given(st.sampled_from(VALID_FRAMES),
           st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), min_size=1, max_size=3),
           st.integers(-3, 3))
    @settings(max_examples=400, deadline=None)
    def test_mutated_frames(self, frame, edits, resize):
        buf = bytearray(frame)
        for pos, value in edits:
            buf[pos % len(buf)] = value
        if resize < 0:
            del buf[resize:]
        else:
            buf += bytes(resize)
        try:
            decode(bytes(buf))
        except WireError:
            pass

    @given(st.binary(max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_tensor_payloads(self, payload):
        try:
            decode_tensor(payload)
        except WireError:
            pass

    @pytest.mark.parametrize("kind, payload", [
        (Kind.DATA, b"\x02\xff\xfe\x00"),             # name is not UTF-8
        (Kind.DATA, b"\x01v\x01\x00\x00"),            # dims truncated
        (Kind.DATA, b"\x01v\x01\xff\xff\xff\xff"),  # far more values than bytes
        (Kind.DATA, b"\x01v\x00\x00\x00\x80?\x00"),  # trailing byte after the values
        (Kind.ALMOST_FULL, b"{\"device\": 1"),     # truncated JSON
        (Kind.ALMOST_FULL, b"[1, 2]"),              # JSON that is not an object
        (Kind.HEARTBEAT, b"\xc3\x28"),             # not UTF-8
        (99, b""),                                  # unknown kind
        (2, b""),                                   # kind 2, retired
        (4, b"{\"next_tag\": 1}"),                  # kind 4, retired
        (5, b""),                                   # kind 5, no longer defined
    ])
    def test_each_malformation_is_a_wire_error(self, kind, payload):
        from edgeflock.wire import _HEADER, WIRE_VERSION
        frame = _HEADER.pack(WIRE_VERSION, int(kind), 0, 0, len(payload)) + payload
        with pytest.raises(WireError):
            decode(frame)
