"""One-way message frames.

Wire format (network byte order): a 16-byte header
    version u8, kind u8, tag u64, source u16, payload_len u32
followed by the payload.  The kinds are DATA 0, ALMOST_FULL 1,
HEARTBEAT 3 and SKIP 4; kind 2 is retired and rejected as unknown.
Tensor payloads encode rank u8, one u32 per dim, then the float32
values little-endian.  Control payloads are UTF-8 JSON bodies.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Optional

import numpy as np

WIRE_VERSION = 2
_HEADER = struct.Struct(">BBQHI")
HEADER_LEN = _HEADER.size


class WireError(ValueError):
    """Malformed frames or payloads."""


class Kind(IntEnum):
    DATA = 0
    ALMOST_FULL = 1
    HEARTBEAT = 3
    SKIP = 4


@dataclass
class Message:
    """A tagged one-way frame between devices.

    Data frames carry a tensor payload plus the name of the value it
    holds; control frames carry a small JSON body.
    """

    kind: Kind
    tag: int = 0
    source: int = 0
    layer: str = ""                       # transported value name (data/skip)
    tensor: Optional[np.ndarray] = None
    body: dict = field(default_factory=dict)
    # modeled bookkeeping, not serialized: virtual path times, see runtime
    meta: dict = field(default_factory=dict)

    def payload_bytes(self) -> int:
        if self.tensor is None:
            return len(self._body_bytes())
        return 1 + 4 * self.tensor.ndim + 4 * self.tensor.size + len(self.layer.encode()) + 1

    def _body_bytes(self) -> bytes:
        doc = dict(self.body)
        if self.layer:
            doc["layer"] = self.layer
        return json.dumps(doc, sort_keys=True).encode()


def encode_tensor(arr: np.ndarray, layer: str) -> bytes:
    arr = np.asarray(arr, dtype=np.float32)
    if arr.ndim > 255:
        raise WireError("tensor rank exceeds wire format limit")
    name = layer.encode()
    if len(name) > 255:
        raise WireError("layer name exceeds 255 bytes")
    head = bytes([len(name)]) + name + bytes([arr.ndim])
    dims = b"".join(struct.pack(">I", d) for d in arr.shape)
    return head + dims + arr.astype("<f4").tobytes()


def _text(raw: bytes, what: str) -> str:
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        raise WireError(f"{what} is not UTF-8: {exc}") from None


def decode_tensor(buf: bytes) -> tuple[np.ndarray, str]:
    """Inverse of ``encode_tensor``; raises only ``WireError``."""
    if not buf:
        raise WireError("empty tensor payload")
    off = 1 + buf[0]
    if len(buf) <= off:
        raise WireError("tensor payload truncated in its name or rank")
    name = _text(buf[1:off], "tensor name")
    rank = buf[off]
    off += 1
    if len(buf) < off + 4 * rank:
        raise WireError("tensor payload truncated in its dims")
    dims = struct.unpack_from(f">{rank}I", buf, off)
    off += 4 * rank
    count = math.prod(dims)
    if len(buf) - off != 4 * count:
        raise WireError(f"tensor payload holds {len(buf) - off} value bytes, "
                        f"dims {dims} need {4 * count}")
    data = np.frombuffer(buf, dtype="<f4", count=count, offset=off) if count else np.empty(0)
    return data.reshape(dims).astype(np.float32), name


def encode(msg: Message) -> bytes:
    if msg.kind == Kind.DATA:
        if msg.tensor is None:
            raise WireError("data frames must carry a tensor")
        payload = encode_tensor(msg.tensor, msg.layer)
    else:
        payload = msg._body_bytes()
    header = _HEADER.pack(WIRE_VERSION, int(msg.kind), msg.tag, msg.source, len(payload))
    return header + payload


def decode(frame: bytes) -> Message:
    """Inverse of ``encode``; raises only ``WireError``."""
    if len(frame) < HEADER_LEN:
        raise WireError(f"frame too short: {len(frame)} bytes")
    version, kind, tag, source, plen = _HEADER.unpack_from(frame)
    if version != WIRE_VERSION:
        raise WireError(f"unsupported wire version {version}")
    payload = frame[HEADER_LEN:]
    if len(payload) != plen:
        raise WireError(f"payload length mismatch: header {plen}, got {len(payload)}")
    try:
        kind = Kind(kind)
    except ValueError:
        raise WireError(f"unknown message kind {kind}") from None
    if kind == Kind.DATA:
        tensor, layer = decode_tensor(payload)
        return Message(kind=kind, tag=tag, source=source, layer=layer, tensor=tensor)
    body = {}
    if payload:
        try:
            body = json.loads(_text(payload, "control body"))
        except ValueError as exc:
            raise WireError(f"control body is not JSON: {exc}") from None
    if not isinstance(body, dict):
        raise WireError(f"control body is a {type(body).__name__}, not an object")
    layer = body.pop("layer", "")
    if not isinstance(layer, str):
        raise WireError(f"control body names layer {layer!r}, not a string")
    return Message(kind=kind, tag=tag, source=source, layer=layer, body=body)

