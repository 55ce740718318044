"""Deterministic forward-pass execution of every layer kind.

All math is float32 with a pinned accumulation order: every weighted
sum starts from +0.0 and adds its rounded products strictly in
ascending input index, bias last, exactly as a scalar loop does.  So an
output row computed on one worker is bit-identical to the same row
computed anywhere else, which makes distributed-vs-reference
comparisons exact rather than tolerance-based, including when a dense
layer is sharded row-wise across devices.

The conv and fc kernels read weights tap-major: (taps, filters) for
conv in (dy, dx, channel) tap order, (inputs, outputs) for fc.  Shared
(frozen) weights are held once, in that layout, and ``LayerParams.w`` is
a view of it in the (filters, kh, kw, c) or (outputs, inputs) shape.
Each kernel exists twice, with the same bits: compiled C and numpy.

``_kernels.c`` is compiled when this module is imported, with the C
compiler that built Python if it is on PATH and else ``cc``, at ``-O3
-ffp-contract=off -march=native`` (without ``-march=native`` if the
compiler rejects it), and loaded through ``ctypes``.  Its loops add the
products of each sum one after another in ascending tap order and run
side by side only across independent outputs: positions and filters for
conv, output rows for fc.  ``-ffp-contract=off`` is required, as a fused
multiply-add would add the product unrounded and change the last bit of
a sum; no flag that lets the compiler reassociate a sum (``-Ofast``,
``-ffast-math``) is used.  Without a working compiler, or if the compile
or the load fails, the numpy kernels run.

The numpy kernels pin the order with numpy alone (no BLAS, ``matmul``
or ``einsum``, none of which fixes an order).  A kernel multiplies a
cache-sized block of taps against every output at once and reduces the
products along the tap axis.  numpy runs such a reduction as one
running sum per output element, adding the tap rows in ascending
order, as long as each row holds at least two elements.
With a single output element (a one-row fc shard, one filter at one
position) numpy instead sums the lone column pairwise, so that case
takes an explicit running sum (``np.add.accumulate``).  Conv products,
and fc products whose rows (the call's outputs) hold at least
``_SMALL_BUFSIZE`` elements, are multiplied under that small ufunc
buffer size, which changes how numpy stages operands but never the
order of a sum.  ``im2col`` writes each conv input into a zero-filled
buffer that holds its padding, so every padded tap is +0.0.

The streaming ``TaskExecutor`` consumes tagged items and drives layers
ordered by the graph topology; windowed layers (flow stacking, temporal
pyramids) buffer items through ``SlidingWindow``.  The single-process
reference oracle is just a ``TaskExecutor`` that owns the whole graph.
A row-shard executor computes some output rows of one dense layer and
emits them; ``push_part`` parks the shards of such a value per tag and
pushes their assembly once they hold all of its rows.
An executor computes the flow field of each consecutive frame pair once
and reuses it in every flow stack window holding that pair, as
``flow_diff_stub`` is a pure function of its two frames.  Generated
parameters are shared read-only by every executor of a graph
(``shared_params``).

Pushing an item only schedules the math.  Each firing becomes a
``Pending`` value in a ``Batch``: its layer, tag, inputs and a static
shape, which is all that tag alignment, routing and cost accounting
read.  ``Batch.flush`` computes the pending firings layer by layer in
graph topological order, one group per (executor, layer), whatever tags
a group holds.  conv, relu, norm and maxpool take a group as one
(tags, ...) batch, and pyramids run once per group, on one (windows,
items, size) batch; fc, softmax, concat and shard assembly run once per
tag, and flow stacks once per window.  ``im2col`` lays the positions of
several frames side by side in one patch matrix, at most
``PATCH_BYTES`` of it per matrix; since every output element keeps its
own ascending running sum, a frame's outputs do not depend on the
frames beside it, and with two or more frames no reduced row has a
single element.  fc stays per tag: over 16 frames of the two_stream fc
shapes, an (inputs, frames, outputs) product block ran 0.7x to 1.3x as
fast as per-frame calls at 1/8 and 0.9x to 1.4x at 1/32, depending on
the shape.  A batch flushes
itself before a group would pass ``RUN_TAGS`` firings or a layer
``RUN_BYTES``; ``run_reference`` pushes one tag at a time and flushes
once more at the end.
"""

from __future__ import annotations

import ctypes
import functools
import math
import shutil
import subprocess
import sysconfig
import tempfile
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

import numpy as np

from edgeflock import costs
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


# float64 values drawn at a time while generating one float32 array.
_DRAW_CHUNK = 1 << 16


def params_for(graph: ir.ModelGraph, name: str) -> LayerParams:
    """Deterministic parameters for one layer.

    Values are drawn from a PRNG keyed by (graph seed, layer seed), so
    every worker regenerates identical weights locally: uniform in
    [-0.05, 0.05] for weights/biases/shift, near-unit for variance and
    gain.  Each float32 array is filled from float64 draws of at most
    ``_DRAW_CHUNK`` values, which the generator takes in sequence, so it
    holds the bits of one full-size draw rounded to float32 without that
    draw's float64 temporary.
    """
    spec = graph.layer(name)
    rng = np.random.default_rng([graph.seed, spec.weights_seed])

    def u(lo, hi, shape):
        out = np.empty(shape, dtype=np.float32)
        flat = out.reshape(-1)
        for i in range(0, flat.size, _DRAW_CHUNK):
            flat[i:i + _DRAW_CHUNK] = rng.uniform(lo, hi, min(_DRAW_CHUNK, flat.size - i))
        return out

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
    """``freeze(params_for(graph, name))``, generated on first use and
    then shared.

    The result is cached on the graph, keyed by the graph seed, so every
    executor of one graph reads the same read-only arrays.  Its weights
    are held once, in the tap-major layout the kernels read, and ``w``
    is a view of that matrix; the generated array is let go.
    """
    key = (graph.seed, name)
    p = graph.params_cache.get(key)
    if p is None:
        p = graph.params_cache.setdefault(key, freeze(params_for(graph, name)))
    return p


def freeze(params: LayerParams) -> LayerParams:
    """Mark every array of ``params`` read-only and return it.

    ``w`` is replaced by a view of its tap-major matrix (see
    ``_tap_major``), copied once here unless ``w`` already is such a
    view, so the kernels read frozen weights without a copy and the
    weights are held once.
    """
    for name in ("w", "b", "mean", "var", "gamma", "beta"):
        arr = getattr(params, name)
        if arr is not None:
            arr.setflags(write=False)
    if params.w is not None:
        wt = _tap_major(params)
        wt.setflags(write=False)
        params.w = wt.T.reshape(params.w.shape)
    return params


def _tap_major(params: LayerParams) -> np.ndarray:
    """``w`` as a C-contiguous (taps, outputs) matrix.

    fc weights (out, in) become (in, out); conv weights (f, kh, kw, c)
    become (kh*kw*c, f) in (dy, dx, c) tap order.  For frozen params
    ``w`` is a view of that matrix, which is returned without a copy;
    any other ``w`` is copied into the layout on every call.
    """
    w = params.w
    return _float32(w.reshape(w.shape[0], -1).T)


_ZERO = np.float32(0)

# A batch computes at most RUN_TAGS firings of one (executor, layer) in
# one group, and fewer when one layer's outputs (or stacked inputs) over
# all executors would exceed RUN_BYTES (never fewer than one); a conv
# lays a batch of frames into patch matrices of at most PATCH_BYTES (a
# matrix of a single frame may exceed it).  On two_stream at 1/32 and
# 1/8, groups of 16 tags and 2 MiB matrices made the reference about
# 1.5x faster and grew peak RSS by under 2 MiB; the whole clip in one
# uncapped group was no faster and grew it from 46 to 120 MiB and from
# 63 to 85 MiB.  Without RUN_BYTES, groups of vgg16 and alexnet at 1/8,
# whose layer outputs reach 1.6 and 0.6 MB a frame, grew peak RSS by 12
# and 9 MiB.
RUN_TAGS = 16
RUN_BYTES = 2 << 20
PATCH_BYTES = 2 << 20

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
# fc product rows are the output rows of a call; rows of at least this
# many take the small buffer too (about 1.3x faster on rows of 512-1024),
# while shorter ones ran as fast or faster under the default buffer.
_SMALL_BUFSIZE = 256

_KERNELS_SOURCE = Path(__file__).with_name("_kernels.c")
# -ffp-contract=off keeps every product rounded on its own: a fused
# multiply-add would add the unrounded product.  No flag may let the
# compiler reassociate a sum (-Ofast, -ffast-math, -fassociative-math).
_CFLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
_COMPILE_TIMEOUT_S = 60


def _compiler() -> str:
    """The compiler that built this Python, if it is on PATH, else ``cc``."""
    cc = (sysconfig.get_config_var("CC") or "").split()
    return cc[0] if cc and shutil.which(cc[0]) else "cc"


def _load_kernels() -> Optional[ctypes.CDLL]:
    """Compile ``_kernels.c`` for this CPU and load it, or None.

    The library is built in a fresh temporary directory, first with
    ``-march=native`` and, if the compiler rejects that, once more
    without it; ``build_command`` of the library is the command that
    built it.  The directory is removed once the library is loaded, which
    stays mapped; where the system cannot remove a loaded library the
    directory stays behind, under the temporary directory.  No compiler,
    a failed or timed-out compile, or a library that does not load gives
    None, and the numpy kernels run.
    """
    try:
        with tempfile.TemporaryDirectory(prefix="edgeflock-", ignore_cleanup_errors=True) as tmp:
            path = str(Path(tmp) / "_kernels.so")
            for arch in (("-march=native",), ()):
                cmd = [_compiler(), *_CFLAGS, *arch, str(_KERNELS_SOURCE), "-o", path]
                if subprocess.run(cmd, capture_output=True, timeout=_COMPILE_TIMEOUT_S).returncode == 0:
                    lib = ctypes.CDLL(path)
                    lib.build_command = cmd
                    break
            else:
                return None
    except (OSError, subprocess.TimeoutExpired):
        return None
    ptr, size = ctypes.c_void_p, ctypes.c_int64
    lib.conv_rows.argtypes = (ptr, ptr, ptr, ptr, size, size, size)
    lib.fc_rows.argtypes = (ptr, ptr, ptr, ptr, size, size, size, size)
    lib.conv_rows.restype = lib.fc_rows.restype = None
    return lib


# The compiled kernels, or None where they could not be built: then the
# numpy kernels below run.  Built at import, so that no caller's first
# kernel call pays for the compile.
_KERNELS = _load_kernels()


def _float32(a: np.ndarray) -> np.ndarray:
    """``a`` as a C-contiguous float32 array, copied only if it is not one."""
    return np.ascontiguousarray(a, dtype=np.float32)


def _running_sum(products: np.ndarray) -> np.ndarray:
    """Sum of a 1-D float32 vector from +0.0 in ascending index, as a
    one-element array; ``products`` is overwritten."""
    products[0] += _ZERO
    return np.add.accumulate(products)[-1:]


def _conv_rows(patches: np.ndarray, wt: np.ndarray, bias: np.ndarray, out: np.ndarray) -> None:
    """Write the (positions, filters) conv outputs into ``out``: the sum
    over taps t of ``patches[t, m] * wt[t, f]``, plus ``bias[f]``.

    Every sum starts from +0.0 and adds its rounded products in ascending
    t, as a scalar loop does.  Blocks of taps are multiplied at once and
    reduced along the tap axis, which numpy adds row after row: one
    running sum per output element, so ascending order holds, and an
    element's sum does not depend on the positions beside it.  That
    holds only while a reduced row has at least two elements: with one,
    numpy sums the single column pairwise, which is not ordered.  A
    single filter at a single position therefore takes an explicit
    running sum (``np.add.accumulate``) instead.  With the compiled
    kernels loaded, ``conv_rows`` of ``_kernels.c`` computes the same
    sums.
    """
    taps, positions = patches.shape
    filters = wt.shape[1]
    if wt.shape[0] != taps or bias.shape != (filters,) or out.shape != (positions, filters):
        raise EngineError(f"conv operands disagree: patches {patches.shape}, weights {wt.shape}, "
                          f"bias {bias.shape}, output {out.shape}")
    if _KERNELS is not None:
        if not (out.dtype == np.float32 and out.flags.c_contiguous and out.flags.writeable):
            raise EngineError("conv output must be a writable C-contiguous float32 array")
        patches, wt, bias = _float32(patches), _float32(wt), _float32(bias)
        _KERNELS.conv_rows(patches.ctypes.data, wt.ctypes.data, bias.ctypes.data, out.ctypes.data,
                           taps, positions, filters)
        return
    if filters * positions == 1:
        np.add(_running_sum(patches[:, 0] * wt[:, 0]), bias, out=out[0])
        return
    # Even position blocks of at least four positions, so that no block
    # has fewer than two elements per tap.
    n_blocks = -(-positions // max(4, _ACC // filters))
    width = -(-positions // n_blocks)
    tap_block = max(1, _BLOCK // (filters * width))
    buf = np.empty(min(tap_block, taps) * filters * width, dtype=np.float32)
    a, b = patches[:, None, :], wt[:, :, None]
    # The buffer size decides only how numpy stages operands, never the
    # order of a sum, so one setting serves the whole call.
    prior = np.setbufsize(_SMALL_BUFSIZE)
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


def forward_fc(x: np.ndarray, params: LayerParams, rows: Optional[tuple[int, int]] = None) -> np.ndarray:
    """Dense layer: out[i] = sum_j w[i, j] * x[j] + b[i].

    Accumulation runs in ascending j, so any row subset (``rows``) of a
    sharded layer reproduces the corresponding rows of the full layer
    exactly.  Input-major products, a block of inputs at a time, are
    reduced along the input axis as in ``_conv_rows``; a one-row shard
    takes the explicit running sum.  A call whose output rows hold at
    least ``_SMALL_BUFSIZE`` elements runs under that ufunc buffer size,
    as ``_conv_rows`` does; the caller's buffer size is restored.  With
    the compiled kernels loaded, ``fc_rows`` of ``_kernels.c`` computes
    the same sums.
    """
    x = _float32(x).reshape(-1)
    wt, b = _tap_major(params), _float32(params.b)
    lo, hi = (0, b.size) if rows is None else rows
    if rows is not None and not 0 <= lo < hi <= b.size:
        raise EngineError(f"fc row range {rows} is empty or outside [0, {b.size})")
    if wt.shape[0] != x.size:
        raise EngineError(f"fc input size {x.size} != weight columns {wt.shape[0]}")
    if wt.shape[1] != b.size:
        raise EngineError(f"fc bias size {b.size} != weight rows {wt.shape[1]}")
    if _KERNELS is not None:
        out = np.empty(hi - lo, dtype=np.float32)
        _KERNELS.fc_rows(x.ctypes.data, wt.ctypes.data, b.ctypes.data, out.ctypes.data,
                         x.size, b.size, lo, hi)
        return out
    wt, b = wt[:, lo:hi], b[lo:hi]
    if wt.shape[1] == 1:
        return _running_sum(wt[:, 0] * x) + b
    step = max(1, _BLOCK // wt.shape[1])
    x = x[:, None]
    sums = None
    prior = np.setbufsize(_SMALL_BUFSIZE) if wt.shape[1] >= _SMALL_BUFSIZE else None
    try:
        for j0 in range(0, x.shape[0], step):
            products = np.multiply(wt[j0:j0 + step], x[j0:j0 + step])
            if sums is not None:
                np.add(products[0], sums, out=products[0])
            sums = np.add.reduce(products, axis=0, initial=_ZERO)
    finally:
        if prior is not None:
            np.setbufsize(prior)
    return sums + b


def _conv_extent(h: int, w: int, kh: int, kw: int, stride: int, padding: str):
    """((top, bottom, left, right) padding, (out_h, out_w)) of a conv."""
    if padding == "same":
        ph = max((-(-h // stride) - 1) * stride + kh - h, 0)
        pw = max((-(-w // stride) - 1) * stride + kw - w, 0)
        pads = (ph // 2, ph - ph // 2, pw // 2, pw - pw // 2)
    elif padding == "valid":
        pads = (0, 0, 0, 0)
    else:
        raise EngineError(f"unknown padding {padding!r}")
    ph, pw = h + pads[0] + pads[1], w + pads[2] + pads[3]
    if kh > ph or kw > pw:
        raise EngineError(f"kernel {kh}x{kw} exceeds padded input {(ph, pw)}")
    return pads, ((ph - kh) // stride + 1, (pw - kw) // stride + 1)


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: str) -> tuple[np.ndarray, tuple[int, int]]:
    """Tap-major patch matrix of shape (kh*kw*c, frames*out_h*out_w), tap
    order (dy, dx, c), and the output extent (out_h, out_w).

    ``x`` is one (h, w, c) frame or a (frames, h, w, c) batch; the
    positions of a batch lie side by side, frame after frame.  The input
    is written once, channel-major, into a zero-filled plane buffer that
    already holds the "same" padding, so padded taps read +0.0 exactly as
    from ``np.pad``.
    """
    if x.ndim == 3:
        x = x[None]
    n, h, w, c = x.shape
    (pt, pb, pl, pr), (oh, ow) = _conv_extent(h, w, kh, kw, stride, padding)
    planes = np.zeros((c, n, h + pt + pb, w + pl + pr), dtype=x.dtype)
    planes[:, :, pt:pt + h, pl:pl + w] = x.transpose(3, 0, 1, 2)
    sc, sn, sy, sx = planes.strides
    view = np.lib.stride_tricks.as_strided(
        planes, (kh, kw, c, n, oh, ow), (sy, sx, sc, sn, sy * stride, sx * stride), writeable=False)
    return np.ascontiguousarray(view).reshape(kh * kw * c, n * oh * ow), (oh, ow)


def forward_conv(x: np.ndarray, params: LayerParams, stride: int = 1, padding: str = "same") -> np.ndarray:
    """2-D cross-correlation per filter plus bias, zero same-padding.

    ``x`` is one (h, w, c) frame or a (frames, h, w, c) batch, and the
    result has the same rank.  A batch is laid into as few patch
    matrices of even numbers of frames as keep each within
    ``PATCH_BYTES`` (or holding one frame).  Matches a
    naive six-loop implementation on each frame bit-for-bit: taps
    accumulate in (dy, dx, channel) order, bias added last.
    """
    x = np.asarray(x, dtype=np.float32)
    if x.ndim not in (3, 4):
        raise EngineError(f"conv input must be rank 3 or a batch of rank 3, got shape {x.shape}")
    batch = x if x.ndim == 4 else x[None]
    n, h, w, c = batch.shape
    f, kh, kw, kc = params.w.shape
    if kc != c:
        raise EngineError(f"conv input channels {c} != kernel channels {kc}")
    _pads, (oh, ow) = _conv_extent(h, w, kh, kw, stride, padding)
    # Even groups of frames, each within the cap.
    groups = -(-n // max(1, PATCH_BYTES // (kh * kw * c * oh * ow * 4)))
    wt = _tap_major(params)
    out = np.empty((n, oh, ow, f), dtype=np.float32)
    for g in range(groups):
        i0, i1 = n * g // groups, n * (g + 1) // groups
        patches, _extent = im2col(batch[i0:i1], kh, kw, stride, padding)
        _conv_rows(patches, wt, params.b, out[i0:i1].reshape(-1, f))
    return out if x.ndim == 4 else out[0]


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
    """Max over each window x window patch, per channel; ``x`` is one
    (h, w, c) item or a (frames, h, w, c) batch."""
    x = np.asarray(x, dtype=np.float32)
    h, w, c = x.shape[-3:]
    if window > h or window > w:
        raise EngineError(f"pool window {window} exceeds input {h}x{w}")
    view = np.lib.stride_tricks.sliding_window_view(x, (window, window, c), axis=(-3, -2, -1))
    return view[..., ::stride, ::stride, 0, :, :, :].max(axis=(-3, -2))


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


@functools.lru_cache(maxsize=256)
def _pyramid_rows(n_items: int, levels: int) -> tuple[tuple[int, int], ...]:
    """Every level's ranges, level-major: the rows of a pyramid."""
    return tuple(r for k in range(levels) for r in pyramid_ranges(n_items, 2 ** k))


def temporal_pyramid(frames, levels: int) -> np.ndarray:
    """Multi-resolution max pooling over an ordered item sequence.

    Level k (k = 0..levels-1) splits the sequence into 2**k contiguous
    ranges and emits one elementwise max per range; rows are ordered
    level-major then range-major, giving 2**levels - 1 rows.  ``frames``
    is a list of items, pooled into (rows, size), or a (windows, items,
    size) batch of windows of as many items each, pooled into (windows,
    rows, size).  Each row is one ``np.maximum.reduce`` over its range,
    as ``max`` does; ``np.maximum.reduceat`` would be faster but does not
    keep the sign of a zero that ``max`` keeps.  Neither does ``reduce``
    over items of one element, which it takes out of order as one
    column, so those take an explicit running max
    (``np.maximum.accumulate``).
    """
    if not len(frames):
        raise EngineError("temporal pyramid needs a nonempty frame list")
    if levels < 1:
        raise EngineError("pyramid levels must be >= 1")
    batched = isinstance(frames, np.ndarray) and frames.ndim == 3
    if batched:
        stack = np.asarray(frames, dtype=np.float32)
    else:
        stack = np.stack([np.asarray(f, dtype=np.float32).reshape(-1) for f in frames])[None]
    _windows, items, size = stack.shape
    ranges = _pyramid_rows(items, levels)
    out = np.empty((len(stack), len(ranges), size), dtype=np.float32)
    for r, (start, end) in enumerate(ranges):
        if size == 1:
            out[:, r, 0] = np.maximum.accumulate(stack[:, start:end, 0], axis=1)[:, -1]
        else:
            np.maximum.reduce(stack[:, start:end], axis=1, out=out[:, r])
    return out if batched else out[0]


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


class Pending:
    """The output of one firing, scheduled but perhaps not yet computed.

    Its ``shape`` is fixed when the layer fires; its ``value`` is set when
    the batch holding it is flushed, and its inputs (``args``) are then
    let go.  Like the array it stands for it has ``shape``, ``ndim`` and
    ``size``, and ``np.asarray`` turns it into that array once computed.
    """

    __slots__ = ("shape", "size", "tag", "args", "value")

    def __init__(self, shape: tuple, size: int, tag: int, args: Any):
        self.shape = shape
        self.size = size
        self.tag = tag
        self.args = args
        self.value: Optional[np.ndarray] = None

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def __array__(self, dtype=None, copy=None):
        value = value_of(self)
        return value if dtype is None else value.astype(dtype, copy=False)


def value_of(x):
    """The array a computed ``Pending`` stands for; any other value as it is."""
    if not isinstance(x, Pending):
        return x
    if x.value is None:
        raise EngineError(f"value at tag {x.tag} read before its batch was flushed")
    return x.value


class Batch:
    """Pending firings of one or more executors of a graph.

    Firings are grouped by (layer, executor); ``flush`` computes the
    groups in the graph's topological order, so every input is computed
    before the firings that read it, and each shard assembly after the
    shards of its layer.  A group never holds more than ``RUN_TAGS``
    firings, and the firings of one layer, over every executor, never
    hold more than ``RUN_BYTES`` unless there is only one of them: a
    firing that would pass a cap flushes the batch first.  A firing
    counts the bytes of its output, or of its input where that is larger
    and the flush stacks the group's inputs into one array.  So a flush
    keeps the outputs of a few layers alive at a time, however many
    replicas run a layer.  Values do not depend on where the flushes
    fall.
    """

    def __init__(self):
        # (topological rank, 0 for a layer or 1 for its shard assembly,
        # executor) -> firings in the order they fired
        self.groups: dict[tuple[int, int, "TaskExecutor"], list[Pending]] = {}
        # (rank, 0 or 1) -> bytes of that layer's firings
        self.layer_bytes: dict[tuple[int, int], int] = {}

    def __len__(self) -> int:
        return sum(len(g) for g in self.groups.values())

    def add(self, key: tuple, pending: Pending, nbytes: int) -> Pending:
        group = self.groups.get(key)
        held = self.layer_bytes.get(key[:2], 0)
        if (group is not None and len(group) >= RUN_TAGS) or (held and held + nbytes > RUN_BYTES):
            self.flush()
            group, held = None, 0
        if group is None:
            group = self.groups[key] = []
        group.append(pending)
        self.layer_bytes[key[:2]] = held + nbytes
        return pending

    def flush(self) -> None:
        """Compute every pending firing."""
        groups, self.groups, self.layer_bytes = self.groups, {}, {}
        for key in sorted(groups, key=lambda k: k[:2]):
            rank, assembly, executor = key
            # Popped, so that each group's outputs can be freed as soon
            # as their consumers have read them.
            executor._compute(executor.graph.topo_order[rank], bool(assembly), groups.pop(key))


def _stacked(vals: list[np.ndarray]) -> np.ndarray:
    """A group's inputs as one (tags, ...) array; a single input is not copied."""
    return vals[0][None] if len(vals) == 1 else np.stack(vals)


@dataclass
class Emission:
    """One boundary output of a task executor; ``value`` is a ``Pending``
    for a layer the executor fired."""

    layer: str
    tag: int
    value: Any


@dataclass
class SkipNotice:
    """Declares that a layer's outputs below next_tag will never arrive."""

    layer: str
    next_tag: int


# Kinds that a flush computes as one (tags, ...) batch per group.
_BATCHED_KINDS = {ir.CONV, ir.RELU, ir.NORM, ir.MAXPOOL}


class TaskExecutor:
    """Streams tagged items through an owned slice of a validated graph.

    ``push`` feeds one tagged item produced by ``origin`` (an external
    producer or a source) and returns every owned boundary emission that
    becomes ready.  The firings it causes are recorded in ``batch`` and
    computed when the batch is flushed; until then an emission's value
    is a ``Pending``.  Windowed layers buffer items in sliding windows
    and emit at the newest contributing tag, so tags stay aligned across
    parallel branches.

    ``part = (fc, lo, hi)`` makes the executor a row shard, for model
    parallelism: fc and its row-local glue (``costs.row_local_layers``)
    compute output rows [lo, hi) only.  The last of those layers, the
    terminal, is always emitted and never fed to the executor's own
    consumers: they read the whole value, which ``push_part`` assembles
    from the row shards of every device.  ``batch`` may be shared by
    several executors of the graph; by default the executor has its own.
    Every executor of a graph computes with the same weights: ``params``
    reads them from ``shared_params`` at each call.
    """

    def __init__(
        self,
        graph: ir.ModelGraph,
        owned: Optional[Iterable[str]] = None,
        emit: Optional[Iterable[str]] = None,
        part: Optional[tuple[str, int, int]] = None,
        batch: Optional[Batch] = None,
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
        # A shard's row-local layers; the last is its partial terminal.
        self._row_local, self._terminal = (), None
        if part:
            self._row_local = costs.row_local_layers(graph, owned_set, part[0])
            self._terminal = self._row_local[-1]
            self.emit.add(self._terminal)
        self.batch = batch if batch is not None else Batch()
        self._owned_set = owned_set
        self._rank = {n: i for i, n in enumerate(graph.topo_order)}
        # owned layer -> (batch key, output shape, size, stacked), or None
        # for a layer that passes its input through; see _plan
        self._plans: dict[str, Optional[tuple]] = {}
        # consumers[x] = owned layers reading x inside the executor
        self.consumers: dict[str, list[str]] = {}
        for n in self.owned:
            for inp in graph.layer(n).inputs:
                self.consumers.setdefault(inp, []).append(n)
        # Windows for flowstack/pyramid; join buffers for concat.
        self._windows: dict[str, SlidingWindow] = {}
        self._joins: dict[str, dict[int, dict[int, Any]]] = {}
        self._skip: dict[str, int] = {}
        # (layer, tag) -> {part index: row shard} until all rows arrived
        self._parts: dict[tuple[str, int], dict[int, Any]] = {}
        # flowstack layer -> {tag of a pair's later frame: that pair's field}
        self._flows: dict[str, dict[int, np.ndarray]] = {}
        for n in self.owned:
            spec = graph.layer(n)
            if spec.kind in ir.WINDOWED_KINDS:
                start = graph.first_valid[spec.inputs[0]]
                self._windows[n] = SlidingWindow(length=spec.window, next_tag=start)
            if spec.kind == ir.FLOWSTACK:
                self._flows[n] = {}
            if spec.kind == ir.CONCAT:
                self._joins[n] = {}
            self._plans[n] = self._plan(n)
        self.fired_log: list[str] = []
        self.pending_notices: list[SkipNotice] = []

    def params(self, name: str) -> LayerParams:
        return shared_params(self.graph, name)

    # -- scheduling -----------------------------------------------------

    def _plan(self, name: str) -> Optional[tuple]:
        """(batch key, output shape, output size, whether a flush stacks
        its inputs) of an owned layer: a shard's rows for a row-local
        layer, a flat vector for softmax, else the graph's shape.  None
        for a source or a sink."""
        k = self.graph.layer(name).kind
        if k in (ir.SOURCE, ir.SINK):
            return None
        if name in self._row_local:
            shape = (self.part[2] - self.part[1],)
        elif k == ir.SOFTMAX:
            shape = (self.graph.shapes[name].size,)
        else:
            shape = self.graph.shapes[name].dims
        return (self._rank[name], 0, self), shape, math.prod(shape), k in _BATCHED_KINDS

    def _fire(self, name: str, tag: int, args: Any) -> Any:
        """Record one firing of ``name`` at ``tag`` on ``args`` (its input,
        a concat's list of inputs, or a window's items); returns its
        ``Pending`` output.  A sink passes its input through."""
        plan = self._plans[name]
        if plan is None:
            return args
        key, shape, size, stacked = plan
        pending = Pending(shape, size, tag, args)
        return self.batch.add(key, pending, 4 * (max(size, args.size) if stacked else size))

    def join_rows(self, layer: str, tag: int, parts: list) -> Pending:
        """Record the assembly of ``layer`` at ``tag`` from its row shards
        ``parts``, in row order, into one flat value."""
        size = sum(p.size for p in parts)
        return self.batch.add((self._rank[layer], 1, self), Pending((size,), size, tag, parts),
                              4 * size)

    # -- computation ----------------------------------------------------

    def _compute(self, name: str, assembly: bool, firings: list[Pending]) -> None:
        """Compute one group of firings of ``name`` (or of its shard
        assembly) whose inputs are all computed.

        conv, relu, norm and maxpool take the group as one batch, and a
        pyramid takes its windows as one; every other kind runs once per
        firing.  Each kernel is looked up in this module's globals at the
        call.
        """
        spec = self.graph.layer(name)
        k = spec.kind
        if assembly:
            values = [np.concatenate([np.asarray(value_of(v), np.float32).reshape(-1)
                                      for v in p.args]) for p in firings]
        elif k in _BATCHED_KINDS:
            x = _stacked([value_of(p.args) for p in firings])
            if k == ir.CONV:
                values = forward_conv(x, self.params(name),
                                      stride=int(spec.attrs.get("stride", 1)),
                                      padding=spec.attrs.get("padding", "same"))
            elif k == ir.RELU:
                values = forward_relu(x)
            elif k == ir.NORM:
                values = forward_norm(x, self.params(name))
            else:
                values = forward_maxpool(x, int(spec.attrs["window"]),
                                         int(spec.attrs.get("stride", spec.attrs["window"])))
        elif k == ir.FC:
            rows = None
            if self.part is not None and self.part[0] == name:
                rows = (self.part[1], self.part[2])
            params = self.params(name)
            values = [forward_fc(value_of(p.args), params, rows=rows) for p in firings]
        elif k == ir.SOFTMAX:
            values = [forward_softmax(value_of(p.args)) for p in firings]
        elif k == ir.CONCAT:
            axis = int(spec.attrs.get("axis", 0))
            values = [np.concatenate([value_of(v) for v in p.args], axis=axis) for p in firings]
        elif k == ir.PYRAMID:
            # Items of one shape, end to end: row i*window + j of the
            # reshaped array is item j of window i, flattened.
            items = np.concatenate([value_of(v) for p in firings for v in p.args])
            values = temporal_pyramid(items.reshape(len(firings), spec.window, -1),
                                      int(spec.attrs["levels"]))
        else:  # flowstack; sources and sinks never fire into a batch
            window_len = int(spec.attrs["window_len"])
            values = [self._flow_stack(name, p.tag, [value_of(v) for v in p.args], window_len)
                      for p in firings]
        for p, v in zip(firings, values):
            if v.shape != p.shape:
                raise EngineError(f"layer {name!r} at tag {p.tag}: computed shape {v.shape}, "
                                  f"scheduled as {p.shape}")
            p.value, p.args = v, None

    def _flow_stack(self, name: str, end_tag: int, items: list[np.ndarray], window_len: int) -> np.ndarray:
        """``flow_stack`` over the window ending at ``end_tag``, computing
        the field of each frame pair once.

        Windows hold consecutive tags, and a tag's frame never changes
        once it sits in a window, so a pair's field is keyed by its later
        tag and reused by every overlapping window.  Fields of pairs that
        left the window are dropped.  A flush computes an executor's
        windows in the order they fired, so this holds across flushes.
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
                fld = fields[t] = flow_diff_stub(prev, cur)
            return fld

        return flow_stack(items, window_len, pair_field)

    # -- streaming ------------------------------------------------------

    def push(self, origin: str, tag: int, value: Any) -> list[Emission]:
        """Feed one tagged item produced by ``origin``; returns emissions.

        A push for an owned source layer counts as that layer firing (it
        is emitted if on the boundary).  Any other push supplies an
        externally produced value (an array or a ``Pending``): it feeds
        owned consumers but is never re-emitted.

        Side channels read by callers after each push: ``fired_log``
        lists owned layers that fired, once per tag, and
        ``pending_notices`` collects skip notices raised by window
        resyncs.  Layers are visited breadth first, item by item.
        """
        out: list[Emission] = []
        self.fired_log: list[str] = []
        self.pending_notices: list[SkipNotice] = []
        local = origin in self._owned_set and self.graph.layer(origin).kind == ir.SOURCE
        if local:
            self.fired_log.append(origin)
        queue = deque([(origin, int(tag), value, local)])
        while queue:
            layer, t, val, is_local = queue.popleft()
            if is_local and layer in self.emit:
                out.append(Emission(layer, t, val))
            if not (is_local and layer == self._terminal):
                for consumer in self.consumers.get(layer, ()):  # deterministic order
                    for fired_tag, fired in self._feed(consumer, layer, t, val):
                        queue.append((consumer, fired_tag, fired, True))
        return out

    def push_part(self, layer: str, tag: int, index: int, value: Any) -> list[Emission]:
        """Feed row shard ``index`` of ``layer`` at ``tag``; returns emissions.

        Parts park until their sizes add up to the layer's size; then
        their assembly (``join_rows``, in index order) is pushed.  A part
        that completes nothing returns [] and leaves ``fired_log`` and
        ``pending_notices`` empty.
        """
        parts = self._parts.setdefault((layer, tag), {})
        parts[index] = value
        if sum(p.size for p in parts.values()) < self.graph.shapes[layer].size:
            self.fired_log, self.pending_notices = [], []
            return []
        del self._parts[(layer, tag)]
        joined = self.join_rows(layer, tag, [parts[i] for i in sorted(parts)])
        return self.push(layer, tag, joined)

    def _feed(self, consumer: str, via: str, tag: int, value: Any) -> list[tuple[int, Any]]:
        """Feed one item from ``via`` to ``consumer``; returns the tags it
        fired at with their outputs."""
        if consumer in self._windows:
            win = self._windows[consumer]
            pre = win.resync_on_next
            ready = win.push(tag, value)
            if pre and not win.resync_on_next and win.last_resync == tag:
                # Buffer was lost in a handoff; declare the resulting
                # output gap so downstream windows advance too.
                self.pending_notices.extend(
                    self._skip_from(consumer, win.last_resync + win.length - 1)
                )
            fired = []
            for end, items in ready:
                self.fired_log.append(consumer)
                fired.append((end, self._fire(consumer, end, items)))
            return fired
        if consumer in self._joins:
            spec = self.graph.layer(consumer)
            joins = self._joins[consumer]
            pend = joins.setdefault(tag, {})
            for slot, inp in enumerate(spec.inputs):
                if inp == via and slot not in pend:
                    pend[slot] = value
                    break
            if len(pend) < len(spec.inputs):
                return []
            del joins[tag]
            self.fired_log.append(consumer)
            return [(tag, self._fire(consumer, tag, [pend[i] for i in range(len(spec.inputs))]))]
        self.fired_log.append(consumer)
        return [(tag, self._fire(consumer, tag, value))]

    def skip(self, origin: str, next_tag: int) -> list[SkipNotice]:
        """Propagate a declared tag gap; returns boundary skip notices.

        Windowed consumers advance past the gap and resume once a full
        run of post-gap tags accumulates, so their first valid output
        tag shifts by window - 1.  Parked row shards of ``origin`` below
        ``next_tag`` are dropped.
        """
        for key in [k for k in self._parts if k[0] == origin and k[1] < next_tag]:
            del self._parts[key]
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
            if not (is_local and layer == self._terminal):
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


def run_reference(graph: ir.ModelGraph,
                  inputs: dict[str, Iterable[np.ndarray]]) -> dict[str, dict[int, np.ndarray]]:
    """Execute the whole graph in-process over tagged input sequences.

    ``inputs`` maps each source name to an ordered iterable of items
    (tags are assigned 0, 1, ...), pushed one at a time into one
    executor whose batch computes each layer over up to ``RUN_TAGS``
    tags at once.  Returns, per sink, the map from tag to output value.
    Deterministic: identical (graph, seed, inputs) produce bit-identical
    outputs.
    """
    missing = [s for s in graph.inputs if s not in inputs]
    if missing:
        raise EngineError(f"missing input streams: {missing}")
    ex = TaskExecutor(graph)
    results: dict[str, dict[int, Any]] = {s: {} for s in graph.outputs}
    for source, frames in inputs.items():
        if source not in graph.layers or graph.layer(source).kind != ir.SOURCE:
            raise EngineError(f"{source!r} is not a source layer")
        for tag, frame in enumerate(frames):
            for em in ex.push(source, tag, np.asarray(frame, dtype=np.float32)):
                if em.layer in results:
                    results[em.layer][em.tag] = em.value
    ex.batch.flush()
    return {s: {t: value_of(v) for t, v in by_tag.items()} for s, by_tag in results.items()}
