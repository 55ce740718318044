"""Deterministic forward-pass execution of every layer kind.

All math is float32 with a pinned accumulation order: every weighted
sum starts from +0.0 and adds its rounded products strictly in
ascending input index, bias last, exactly as a scalar loop does.  So an
output row computed on one worker is bit-identical to the same row
computed anywhere else, which makes distributed-vs-reference
comparisons exact rather than tolerance-based, including when a dense
layer is sharded row-wise across devices.

The conv and fc kernels pin that order with numpy alone (no BLAS,
``matmul`` or ``einsum``, none of which fixes an order).  Weights are
laid out tap-major once per layer: (taps, filters) for conv in
(dy, dx, channel) tap order, (inputs, outputs) for fc.  A kernel
multiplies a cache-sized block of taps against every output at once
and reduces the products along the tap axis.  numpy runs such a
reduction as one running sum per output element, adding the tap rows
in ascending order, as long as each row holds at least two elements.
With a single output element (a one-row fc shard, one filter at one
position) numpy instead sums the lone column pairwise, so that case
takes an explicit running sum (``np.add.accumulate``).  ``im2col``
writes each conv input into a zero-filled buffer that holds its
padding, so every padded tap is +0.0.

The streaming ``TaskExecutor`` consumes tagged items and drives layers
ordered by the graph topology; windowed layers (flow stacking, temporal
pyramids) buffer items through ``SlidingWindow``.  The single-process
reference oracle is just a ``TaskExecutor`` that owns the whole graph.
An executor computes the flow field of each consecutive frame pair once
and reuses it in every flow stack window holding that pair, so a
``flow_fn`` must be a pure function of its two frames.  Generated
parameters are shared read-only by every executor of a graph
(``shared_params``).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from edgeflock import model_ir as ir
from edgeflock.windows import SlidingWindow

BN_EPS = np.float32(1e-5)

FlowFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


class EngineError(ValueError):
    """Dimension mismatches and invalid layer parameters."""


@dataclass
class LayerParams:
    """Learned constants for one layer; absent fields stay None."""

    w: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None
    mean: Optional[np.ndarray] = None
    var: Optional[np.ndarray] = None
    gamma: Optional[np.ndarray] = None
    beta: Optional[np.ndarray] = None
    # (w, w in tap-major layout), kept while w is the same read-only array.
    _tap_major_w: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)


def params_for(graph: ir.ModelGraph, name: str) -> LayerParams:
    """Deterministic parameters for one layer.

    Values are drawn from a PRNG keyed by (graph seed, layer seed), so
    every worker regenerates identical weights locally: uniform in
    [-0.05, 0.05] for weights/biases/shift, near-unit for variance and
    gain.
    """
    spec = graph.layer(name)
    rng = np.random.default_rng([graph.seed, spec.weights_seed])

    def u(lo, hi, shape):
        return rng.uniform(lo, hi, shape).astype(np.float32)

    if spec.kind == ir.FC:
        in_size = graph.shapes[spec.inputs[0]].size
        out = int(spec.attrs["out_size"])
        return LayerParams(w=u(-0.05, 0.05, (out, in_size)), b=u(-0.05, 0.05, out))
    if spec.kind == ir.CONV:
        c = graph.shapes[spec.inputs[0]].dims[-1]
        f = int(spec.attrs["filters"])
        kh, kw = int(spec.attrs["kernel_h"]), int(spec.attrs["kernel_w"])
        return LayerParams(w=u(-0.05, 0.05, (f, kh, kw, c)), b=u(-0.05, 0.05, f))
    if spec.kind == ir.NORM:
        c = graph.shapes[spec.inputs[0]].dims[-1]
        return LayerParams(
            mean=u(-0.05, 0.05, c), var=u(0.9, 1.1, c), gamma=u(0.95, 1.05, c), beta=u(-0.05, 0.05, c)
        )
    return LayerParams()


def shared_params(graph: ir.ModelGraph, name: str) -> LayerParams:
    """``params_for(graph, name)``, generated on first use and then shared.

    The result is cached on the graph, keyed by the graph seed, so every
    executor of one graph reads the same read-only arrays; the kernels'
    tap-major weight layout is derived once with it.
    """
    key = (graph.seed, name)
    p = graph.params_cache.get(key)
    if p is None:
        p = freeze(params_for(graph, name))
        if p.w is not None:
            _tap_major(p)
        p = graph.params_cache.setdefault(key, p)
    return p


def freeze(params: LayerParams) -> LayerParams:
    """Mark every array of ``params`` read-only and return it.

    Kernels cache derived weight layouts only for read-only weights, which
    cannot change behind the cache.
    """
    for name in ("w", "b", "mean", "var", "gamma", "beta"):
        arr = getattr(params, name)
        if arr is not None:
            arr.setflags(write=False)
    return params


def _tap_major(params: LayerParams) -> np.ndarray:
    """``w`` as a C-contiguous (taps, outputs) matrix.

    fc weights (out, in) become (in, out); conv weights (f, kh, kw, c)
    become (kh*kw*c, f) in (dy, dx, c) tap order.  The matrix is cached
    on ``params`` while ``w`` is the same read-only array.
    """
    w = params.w
    cached = params._tap_major_w
    if cached is not None and cached[0] is w and not w.flags.writeable:
        return cached[1]
    wt = np.ascontiguousarray(w.reshape(w.shape[0], -1).T)
    if not w.flags.writeable:
        wt.setflags(write=False)
        params._tap_major_w = (w, wt)
    return wt


_ZERO = np.float32(0)

# Upper bounds, in float32 elements, of one block of products (1 MiB) and
# of the conv sums it is added into (256 KiB); both stay in a core's L2.
# Chosen from timings of every conv and fc shape of the stock models at
# scale 1/8 on a 2-vCPU Xeon with 2 MiB of L2 per core: each shape ran
# within 10% of its best over blocks of 1/2-4 MiB and sums of 64 KiB-1 MiB.
_BLOCK = 1 << 18
_ACC = 1 << 16

# numpy copies broadcast operands through its ufunc buffer whenever an
# output row is shorter than about a third of that buffer (8192 elements
# by default).  Conv product rows are output positions, 169 or more in
# every stock model, so with a 256-element buffer the products run
# straight from the operands: 2-3x faster on rows of 169-3000 positions.
# fc product rows are the output rows of a shard, often short, and there
# the default buffer is faster.
_CONV_BUFSIZE = 256


def _running_sum(products: np.ndarray) -> np.ndarray:
    """Sum of a 1-D float32 vector from +0.0 in ascending index, as a
    one-element array; ``products`` is overwritten."""
    products[0] += _ZERO
    return np.add.accumulate(products)[-1:]


def _conv_rows(patches: np.ndarray, wt: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """(positions, filters) conv outputs: the sum over taps t of
    ``patches[t, m] * wt[t, f]``, plus ``bias[f]``.

    Every sum starts from +0.0 and adds its rounded products in ascending
    t, as a scalar loop does.  Blocks of taps are multiplied at once and
    reduced along the tap axis, which numpy adds row after row: one
    running sum per output element, so ascending order holds.  That
    holds only while a reduced row has at least two elements: with one,
    numpy sums the single column pairwise, which is not ordered.  A
    single filter at a single position therefore takes an explicit
    running sum (``np.add.accumulate``) instead.
    """
    taps, positions = patches.shape
    filters = wt.shape[1]
    out = np.empty((positions, filters), dtype=np.float32)
    if filters * positions == 1:
        np.add(_running_sum(patches[:, 0] * wt[:, 0]), bias, out=out[0])
        return out
    # Even position blocks of at least four positions, so that no block
    # has fewer than two elements per tap.
    n_blocks = -(-positions // max(4, _ACC // filters))
    width = -(-positions // n_blocks)
    tap_block = max(1, _BLOCK // (filters * width))
    buf = np.empty(min(tap_block, taps) * filters * width, dtype=np.float32)
    a, b = patches[:, None, :], wt[:, :, None]
    # The buffer size decides only how numpy stages operands, never the
    # order of a sum, so one setting serves the whole call.
    prior = np.setbufsize(_CONV_BUFSIZE)
    try:
        for i in range(n_blocks):
            m0, m1 = positions * i // n_blocks, positions * (i + 1) // n_blocks
            # Contiguous blocks and sums: numpy would otherwise stage short
            # rows of a strided operand through its buffer.
            acc = np.empty((filters, m1 - m0), dtype=np.float32)
            for t0 in range(0, taps, tap_block):
                rows = min(tap_block, taps - t0)
                block = buf[:rows * acc.size].reshape(rows, filters, m1 - m0)
                np.multiply(a[t0:t0 + rows, :, m0:m1], b[t0:t0 + rows], out=block)
                if t0:
                    np.add(block[0], acc, out=block[0])
                # Each block's sums start from an explicit +0.0, not from
                # numpy's choice of identity.  A later block restarts from
                # the running sums plus its first products, which adding
                # +0.0 leaves unchanged: a sum started at +0.0 is never -0.0.
                np.add.reduce(block, axis=0, out=acc, initial=_ZERO)
            np.add(acc.T, bias, out=out[m0:m1])
    finally:
        np.setbufsize(prior)
    return out


def forward_fc(x: np.ndarray, params: LayerParams, rows: Optional[tuple[int, int]] = None) -> np.ndarray:
    """Dense layer: out[i] = sum_j w[i, j] * x[j] + b[i].

    Accumulation runs in ascending j, so any row subset (``rows``) of a
    sharded layer reproduces the corresponding rows of the full layer
    exactly.  Input-major products, a block of inputs at a time, are
    reduced along the input axis as in ``_conv_rows``; a one-row shard
    takes the explicit running sum.
    """
    x = np.asarray(x, dtype=np.float32).reshape(-1)
    wt, b = _tap_major(params), params.b
    if rows is not None:
        wt, b = wt[:, rows[0]:rows[1]], b[rows[0]:rows[1]]
    if wt.shape[0] != x.size:
        raise EngineError(f"fc input size {x.size} != weight columns {wt.shape[0]}")
    if wt.shape[1] == 1:
        return _running_sum(wt[:, 0] * x) + b
    step = max(1, _BLOCK // wt.shape[1])
    x = x[:, None]
    sums = None
    for j0 in range(0, x.shape[0], step):
        products = np.multiply(wt[j0:j0 + step], x[j0:j0 + step])
        if sums is not None:
            np.add(products[0], sums, out=products[0])
        sums = np.add.reduce(products, axis=0, initial=_ZERO)
    return sums + b


def _pad_same(h, w, kh, kw, stride):
    ph = max((-(-h // stride) - 1) * stride + kh - h, 0)
    pw = max((-(-w // stride) - 1) * stride + kw - w, 0)
    return ph // 2, ph - ph // 2, pw // 2, pw - pw // 2


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: str) -> tuple[np.ndarray, tuple[int, int]]:
    """Tap-major patch matrix of shape (kh*kw*c, out_h*out_w), tap order
    (dy, dx, c), and the output extent (out_h, out_w).

    The input is written once, channel-major, into a zero-filled plane
    buffer that already holds the "same" padding, so padded taps read
    +0.0 exactly as from ``np.pad``.
    """
    h, w, c = x.shape
    if padding == "same":
        pt, pb, pl, pr = _pad_same(h, w, kh, kw, stride)
    elif padding == "valid":
        pt = pb = pl = pr = 0
    else:
        raise EngineError(f"unknown padding {padding!r}")
    ph, pw = h + pt + pb, w + pl + pr
    if kh > ph or kw > pw:
        raise EngineError(f"kernel {kh}x{kw} exceeds padded input {(ph, pw)}")
    oh, ow = (ph - kh) // stride + 1, (pw - kw) // stride + 1
    planes = np.zeros((c, ph, pw), dtype=x.dtype)
    planes[:, pt:pt + h, pl:pl + w] = x.transpose(2, 0, 1)
    sc, sy, sx = planes.strides
    view = np.lib.stride_tricks.as_strided(
        planes, (kh, kw, c, oh, ow), (sy, sx, sc, sy * stride, sx * stride), writeable=False)
    return np.ascontiguousarray(view).reshape(kh * kw * c, oh * ow), (oh, ow)


def forward_conv(x: np.ndarray, params: LayerParams, stride: int = 1, padding: str = "same") -> np.ndarray:
    """2-D cross-correlation per filter plus bias, zero same-padding.

    Matches a naive six-loop implementation bit-for-bit: taps accumulate
    in (dy, dx, channel) order, bias added last.
    """
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 3:
        raise EngineError(f"conv input must be rank 3, got shape {x.shape}")
    f, kh, kw, c = params.w.shape
    if c != x.shape[2]:
        raise EngineError(f"conv input channels {x.shape[2]} != kernel channels {c}")
    patches, (oh, ow) = im2col(x, kh, kw, stride, padding)
    return _conv_rows(patches, _tap_major(params), params.b).reshape(oh, ow, f)


def forward_relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=np.float32), np.float32(0))


def forward_norm(x: np.ndarray, params: LayerParams) -> np.ndarray:
    """Per-channel standardization: gamma * (x - mean) / sqrt(var + eps) + beta."""
    if np.any(params.var <= 0):
        raise EngineError("batchnorm variance entries must be > 0")
    x = np.asarray(x, dtype=np.float32)
    denom = np.sqrt(params.var + BN_EPS, dtype=np.float32)
    return params.gamma * ((x - params.mean) / denom) + params.beta


def forward_softmax(x: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax over the flattened input; outputs sum to ~1."""
    x = np.asarray(x, dtype=np.float32).reshape(-1)
    e = np.exp(x - np.max(x), dtype=np.float32)
    return e / e.sum(dtype=np.float32)


def forward_maxpool(x: np.ndarray, window: int, stride: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float32)
    h, w, c = x.shape
    if window > h or window > w:
        raise EngineError(f"pool window {window} exceeds input {h}x{w}")
    view = np.lib.stride_tricks.sliding_window_view(x, (window, window, c))[::stride, ::stride, 0]
    return view.max(axis=(2, 3)).reshape(view.shape[0], view.shape[1], c)


def pyramid_ranges(n_items: int, n_ranges: int) -> list[tuple[int, int]]:
    """Contiguous index ranges for one pyramid level.

    When items split unevenly, earlier ranges take the extra item.  With
    fewer items than ranges every range stays nonempty by sharing the
    trailing items, so a single item fills every row.
    """
    if n_items < 1:
        raise EngineError("pyramid needs at least one item")
    out = []
    for r in range(n_ranges):
        start = min(math.ceil(r * n_items / n_ranges), n_items - 1)
        end = max(math.ceil((r + 1) * n_items / n_ranges), start + 1)
        out.append((start, end))
    return out


def temporal_pyramid(frames: list[np.ndarray], levels: int) -> np.ndarray:
    """Multi-resolution max pooling over an ordered item sequence.

    Level k (k = 0..levels-1) splits the sequence into 2**k contiguous
    ranges and emits one elementwise max per range; rows are ordered
    level-major then range-major, giving 2**levels - 1 rows.
    """
    if not frames:
        raise EngineError("temporal pyramid needs a nonempty frame list")
    if levels < 1:
        raise EngineError("pyramid levels must be >= 1")
    flat = [np.asarray(f, dtype=np.float32).reshape(-1) for f in frames]
    stack = np.stack(flat)
    rows = []
    for k in range(levels):
        for start, end in pyramid_ranges(len(flat), 2 ** k):
            rows.append(stack[start:end].max(axis=0))
    return np.stack(rows)


def flow_diff_stub(prev: np.ndarray, cur: np.ndarray) -> np.ndarray:
    """Stand-in flow field: signed per-pixel intensity difference,
    duplicated into the (dx, dy) channels."""
    p = np.asarray(prev, dtype=np.float32)
    c = np.asarray(cur, dtype=np.float32)
    if p.shape != c.shape:
        raise EngineError(f"flow frames disagree on shape: {p.shape} vs {c.shape}")
    if p.ndim == 3:
        p = p.mean(axis=-1, dtype=np.float32)
        c = c.mean(axis=-1, dtype=np.float32)
    d = c - p
    return np.stack([d, d], axis=-1)


def flow_stack(frames: list[np.ndarray], window_len: int, flow_fn: Optional[FlowFn] = None) -> np.ndarray:
    """Stack per-pair flow fields of window_len consecutive frame pairs.

    Takes window_len + 1 frames and emits an (H, W, 2*window_len) tensor;
    channels 2t and 2t+1 hold the (dx, dy) field of pair t.  ``flow_fn``
    is called once per pair, in ascending pair order.
    """
    if len(frames) != window_len + 1:
        raise EngineError(f"flow stack needs {window_len + 1} frames, got {len(frames)}")
    fn = flow_fn or flow_diff_stub
    fields = [fn(frames[t], frames[t + 1]) for t in range(window_len)]
    return np.concatenate(fields, axis=-1, dtype=np.float32)


@dataclass
class Emission:
    """One boundary output of a task executor."""

    layer: str
    tag: int
    value: np.ndarray


@dataclass
class SkipNotice:
    """Declares that a layer's outputs below next_tag will never arrive."""

    layer: str
    next_tag: int


class TaskExecutor:
    """Streams tagged items through an owned slice of a validated graph.

    ``push`` feeds one tagged value produced by ``origin`` (an external
    producer or a source) and returns every owned boundary emission that
    becomes ready.  Windowed layers buffer items in sliding windows and
    emit at the newest contributing tag, so tags stay aligned across
    parallel branches.

    ``part`` restricts one fc layer to an output-row slice, for model
    parallelism; elementwise layers downstream of it operate on the
    partial rows.  ``external`` marks owned-layer inputs whose values
    arrive via ``push`` anyway (assembled shards), overriding the local
    partial value.
    """

    def __init__(
        self,
        graph: ir.ModelGraph,
        owned: Optional[Iterable[str]] = None,
        emit: Optional[Iterable[str]] = None,
        part: Optional[tuple[str, int, int]] = None,
        external: Optional[Iterable[str]] = None,
        flow_fn: Optional[FlowFn] = None,
        param_override: Optional[Callable[[str, LayerParams], LayerParams]] = None,
    ):
        self.graph = graph
        self.owned = list(owned) if owned is not None else list(graph.topo_order)
        owned_set = set(self.owned)
        self.emit = set(emit) if emit is not None else {
            n for n in self.owned
            if graph.layer(n).kind == ir.SINK
            or any(c not in owned_set for c in graph.consumers(n))
        }
        self.part = part
        self.external = set(external or ())
        self.flow_fn = flow_fn or flow_diff_stub
        self._params: dict[str, LayerParams] = {}
        self._param_override = param_override
        self._owned_set = owned_set
        # consumers[x] = owned layers reading x inside the executor
        self.consumers: dict[str, list[str]] = {}
        for n in self.owned:
            for inp in graph.layer(n).inputs:
                self.consumers.setdefault(inp, []).append(n)
        # Windows for flowstack/pyramid; join buffers for multi-input layers.
        self._windows: dict[str, SlidingWindow] = {}
        self._joins: dict[str, dict[int, dict[int, np.ndarray]]] = {}
        self._skip: dict[str, int] = {}
        # flowstack layer -> {tag of a pair's later frame: that pair's field}
        self._flows: dict[str, dict[int, np.ndarray]] = {}
        for n in self.owned:
            spec = graph.layer(n)
            if spec.kind in ir.WINDOWED_KINDS:
                start = graph.first_valid[spec.inputs[0]]
                self._windows[n] = SlidingWindow(length=spec.window, next_tag=start)
            if spec.kind == ir.FLOWSTACK:
                self._flows[n] = {}
            if len(spec.inputs) > 1:
                self._joins[n] = {}
        self.fired_log: list[str] = []
        self.pending_notices: list[SkipNotice] = []

    def params(self, name: str) -> LayerParams:
        p = self._params.get(name)
        if p is None:
            p = shared_params(self.graph, name)
            if self._param_override is not None:
                p = self._param_override(name, copy.copy(p))
            self._params[name] = p
        return p

    # -- computation ----------------------------------------------------

    def _apply(self, name: str, tag: int, inputs: list[np.ndarray]) -> np.ndarray:
        spec = self.graph.layer(name)
        k = spec.kind
        if k in (ir.SOURCE, ir.SINK):
            return inputs[0] if inputs else None
        if k == ir.FC:
            rows = None
            if self.part is not None and self.part[0] == name:
                rows = (self.part[1], self.part[2])
            return forward_fc(inputs[0], self.params(name), rows=rows)
        if k == ir.CONV:
            return forward_conv(
                inputs[0],
                self.params(name),
                stride=int(spec.attrs.get("stride", 1)),
                padding=spec.attrs.get("padding", "same"),
            )
        if k == ir.RELU:
            return forward_relu(inputs[0])
        if k == ir.NORM:
            return forward_norm(inputs[0], self.params(name))
        if k == ir.SOFTMAX:
            return forward_softmax(inputs[0])
        if k == ir.MAXPOOL:
            return forward_maxpool(inputs[0], int(spec.attrs["window"]), int(spec.attrs.get("stride", spec.attrs["window"])))
        if k == ir.CONCAT:
            axis = int(spec.attrs.get("axis", 0))
            return np.concatenate(inputs, axis=axis)
        raise EngineError(f"layer {name!r}: kind {k!r} is windowed or unknown here")

    def _fire_windowed(self, name: str, end_tag: int, items: list[np.ndarray]) -> np.ndarray:
        spec = self.graph.layer(name)
        if spec.kind == ir.PYRAMID:
            return temporal_pyramid(items, int(spec.attrs["levels"]))
        if spec.kind == ir.FLOWSTACK:
            return self._flow_stack(name, end_tag, items, int(spec.attrs["window_len"]))
        raise EngineError(f"layer {name!r} is not windowed")

    def _flow_stack(self, name: str, end_tag: int, items: list[np.ndarray], window_len: int) -> np.ndarray:
        """``flow_stack`` over the window ending at ``end_tag``, computing
        the field of each frame pair once.

        Windows hold consecutive tags, and a tag's frame never changes
        once it sits in a window, so a pair's field is keyed by its later
        tag and reused by every overlapping window.  Fields of pairs that
        left the window are dropped.
        """
        fields = self._flows[name]
        first = end_tag - window_len
        for t in [t for t in fields if t <= first]:
            del fields[t]
        later_tags = iter(range(first + 1, end_tag + 1))

        def pair_field(prev: np.ndarray, cur: np.ndarray) -> np.ndarray:
            t = next(later_tags)
            fld = fields.get(t)
            if fld is None:
                fld = fields[t] = self.flow_fn(prev, cur)
            return fld

        return flow_stack(items, window_len, pair_field)

    # -- streaming ------------------------------------------------------

    def push(self, origin: str, tag: int, value: np.ndarray) -> list[Emission]:
        """Feed one tagged item produced by ``origin``; returns emissions.

        A push for an owned source layer counts as that layer firing (it
        is emitted if on the boundary).  Any other push supplies an
        externally produced value: it feeds owned consumers but is never
        re-emitted, and it is how assembled shard values reach layers
        marked ``external``.

        Side channels read by callers after each push: ``fired_log``
        lists owned layers that computed, ``pending_notices`` collects
        skip notices raised by window resyncs.
        """
        out: list[Emission] = []
        self.fired_log: list[str] = []
        self.pending_notices: list[SkipNotice] = []
        local = origin in self._owned_set and self.graph.layer(origin).kind == ir.SOURCE
        if local:
            self.fired_log.append(origin)
        queue: list[tuple[str, int, np.ndarray, bool]] = [(origin, int(tag), value, local)]
        while queue:
            layer, t, val, is_local = queue.pop(0)
            if is_local and layer in self.emit:
                out.append(Emission(layer, t, val))
            if not is_local or layer not in self.external:
                for consumer in self.consumers.get(layer, ()):  # deterministic order
                    for fired, ft, fv in self._feed(consumer, layer, t, val):
                        queue.append((fired, ft, fv, True))
        return out

    def _feed(self, consumer: str, via: str, tag: int, value: np.ndarray) -> list[tuple[str, int, np.ndarray]]:
        spec = self.graph.layer(consumer)
        if consumer in self._windows:
            win = self._windows[consumer]
            pre = win.resync_on_next
            fired = win.push(tag, value)
            if pre and not win.resync_on_next and win.last_resync == tag:
                # Buffer was lost in a handoff; declare the resulting
                # output gap so downstream windows advance too.
                self.pending_notices.extend(
                    self._skip_from(consumer, win.last_resync + win.length - 1)
                )
            out = []
            for end, items in fired:
                self.fired_log.append(consumer)
                out.append((consumer, end, self._fire_windowed(consumer, end, items)))
            return out
        if consumer in self._joins:
            pend = self._joins[consumer].setdefault(tag, {})
            for slot, inp in enumerate(spec.inputs):
                if inp == via and slot not in pend:
                    pend[slot] = value
                    break
            if len(pend) == len(spec.inputs):
                del self._joins[consumer][tag]
                inputs = [pend[i] for i in range(len(spec.inputs))]
                self.fired_log.append(consumer)
                return [(consumer, tag, self._apply(consumer, tag, inputs))]
            return []
        self.fired_log.append(consumer)
        return [(consumer, tag, self._apply(consumer, tag, [value]))]

    def skip(self, origin: str, next_tag: int) -> list[SkipNotice]:
        """Propagate a declared tag gap; returns boundary skip notices.

        Windowed consumers advance past the gap and resume once a full
        run of post-gap tags accumulates, so their first valid output
        tag shifts by window - 1.
        """
        local = origin in self._owned_set and self.graph.layer(origin).kind == ir.SOURCE
        return self._traverse_skip([(origin, int(next_tag), local)])

    def _skip_from(self, layer: str, next_tag: int) -> list[SkipNotice]:
        """Declare a gap starting at an owned layer's own output."""
        return self._traverse_skip([(layer, int(next_tag), True)])

    def _traverse_skip(self, queue: list[tuple[str, int, bool]]) -> list[SkipNotice]:
        notices: list[SkipNotice] = []
        while queue:
            layer, nxt, is_local = queue.pop(0)
            if is_local:
                if self._skip.get(layer, -1) >= nxt:
                    continue
                self._skip[layer] = nxt
                if layer in self.emit:
                    notices.append(SkipNotice(layer, nxt))
            if not is_local or layer not in self.external:
                for consumer in self.consumers.get(layer, ()):
                    spec = self.graph.layer(consumer)
                    out_next = nxt + (spec.window - 1)
                    if consumer in self._windows:
                        self._windows[consumer].skip_below(nxt)
                    if consumer in self._joins:
                        for t in [t for t in self._joins[consumer] if t < out_next]:
                            del self._joins[consumer][t]
                    queue.append((consumer, out_next, True))
        return notices

    def mark_handoff(self) -> None:
        """Flag all windows to realign on their next arrival (task moved
        between devices and buffered items were lost)."""
        for win in self._windows.values():
            win.resync_on_next = True


def dump_weights(graph: ir.ModelGraph, names: Optional[Iterable[str]] = None) -> str:
    """Debug dump of generated parameters as JSON (same container style
    as model files)."""
    import json

    doc = {}
    for n in (names if names is not None else graph.topo_order):
        p = params_for(graph, n)
        entry = {}
        for field_name in ("w", "b", "mean", "var", "gamma", "beta"):
            val = getattr(p, field_name)
            if val is not None:
                entry[field_name] = val.tolist()
        if entry:
            doc[n] = entry
    return json.dumps(doc, sort_keys=True)


def run_reference(graph: ir.ModelGraph, inputs: dict[str, Iterable[np.ndarray]],
                  flow_fn: Optional[FlowFn] = None) -> dict[str, dict[int, np.ndarray]]:
    """Execute the whole graph in-process over tagged input sequences.

    ``inputs`` maps each source name to an ordered iterable of items
    (tags are assigned 0, 1, ...).  Returns, per sink, the map from tag
    to output value.  Deterministic: identical (graph, seed, inputs)
    produce bit-identical outputs.
    """
    missing = [s for s in graph.inputs if s not in inputs]
    if missing:
        raise EngineError(f"missing input streams: {missing}")
    ex = TaskExecutor(graph, flow_fn=flow_fn)
    results: dict[str, dict[int, np.ndarray]] = {s: {} for s in graph.outputs}
    for source, frames in inputs.items():
        if source not in graph.layers or graph.layer(source).kind != ir.SOURCE:
            raise EngineError(f"{source!r} is not a source layer")
        for tag, frame in enumerate(frames):
            for em in ex.push(source, tag, np.asarray(frame, dtype=np.float32)):
                if em.layer in results:
                    results[em.layer][em.tag] = em.value
    return results
