"""Deterministic forward-pass execution of every layer kind.

All math is float32 with a pinned accumulation order: every weighted
sum starts from +0.0 and adds its rounded products strictly in
ascending input index, bias last, exactly as a scalar loop does.  So an
output row computed on one worker is bit-identical to the same row
computed anywhere else, which makes distributed-vs-reference
comparisons exact rather than tolerance-based, including when a dense
layer is sharded row-wise across devices.

The conv and fc kernels read weights tap-major, as ``_operands`` lays
them out: a conv's as one (taps, filters) matrix in (dy, dx, channel)
tap order with zero columns up to a multiple of 8 filters, which its
kernel reads in place; an fc's as row panels of ``FC_PANEL`` outputs,
each a contiguous (inputs, 256) block (the last with zero columns up to
a multiple of 16 outputs instead), on a 64-byte boundary and with 16
floats of slack after the last panel, so that the fc kernel reads whole
16-float vectors of any row range.  ``_operands`` also notes whether
every fc weight is finite: only then does the kernel leave out zero
inputs, which changes no bit (the proof is in ``_kernels.c``).
``freeze`` lays shared weights out once: a conv's ``LayerParams.w``
becomes a view of its matrix in the (filters, kh, kw, c) shape, and an
fc's weights are held only as its panels.  ``_kernel_operands`` lays
any other weights out at each call.

The kernels are C, in ``_kernels.c``, compiled when this module is
imported as a CPython extension module, with the C compiler that built
Python if it is on PATH and else ``cc``, at ``-O3 -ffp-contract=off
-march=native`` (without ``-march=native`` if the compiler rejects it).
They take the arrays themselves and check every buffer and size before
they touch memory.  Their loops add the products of each sum one after
another in ascending tap order and run side by side only across
independent outputs: filters for conv, output rows for fc.  The conv
reads its taps in place from a zero-padded (frames, h, w, c) copy of its
batch, where the taps (dx, channel) of one kernel row at one position
are ``kw * c`` contiguous floats, so every padded tap is +0.0; it builds
no patch matrix.  ``-ffp-contract=off`` is required, as a fused
multiply-add would add the product unrounded and change the last bit of
a sum; no flag that lets the compiler reassociate a sum (``-Ofast``,
``-ffast-math``) is used.  A C compiler is required: without a working
one, or if the compile or the load fails, importing this module raises
``ImportError``.

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

Pushing an item only schedules the math.  An executor fires each *chain*
of its layers once per tag: a maximal run of owned conv, relu, norm,
maxpool, fc and softmax layers in which every member but the last has
one graph consumer, the next member, and is not emitted.  Each firing of
a chain, or of a concat or windowed layer, becomes one ``Pending`` value
in a ``Batch``: its head, tag, inputs and its tail's static shape, which
is all that tag alignment, routing and cost accounting read.  A push
walks tables that the executor builds once: for each layer, its owned
consumers and how each fires (a chain member, a window, a join or a
plain firing).  A chain's head reached with nothing else queued logs the
chain's other members and hands its output on from the tail in one step,
the order in which the breadth-first walk would visit them one by one.
``Batch.flush`` computes the pending firings in graph topological order
of their first layers, one group per (executor, chain or layer),
whatever tags a group holds.  A chain stacks its head's inputs into one
(tags, ...) batch and runs its members over it in turn: conv, relu, norm
and maxpool over the whole batch, the conv in one kernel call; softmax
once over the (tags, size) batch, row by row; fc once per tag and row
panel, panels outer, so that a panel's weights stay in cache over the
batch's frames.  Pyramids run once per group, on one (windows, items,
size) batch gathered from the group's items, each stacked once; concat
and shard assembly run once per tag, and flow stacks once per window,
after one ``flow_diff_stub`` call on the stacked frames of the group's
new pairs.  Since every output element keeps its own ascending sum, a
frame's outputs do not depend on the frames beside it.  A batch flushes
itself before a group would pass ``RUN_TAGS`` firings or a chain or
layer ``RUN_BYTES``; ``run_reference`` pushes one tag at a time and
flushes once more at the end.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import shutil
import subprocess
import sysconfig
import tempfile
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType
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
    # _operands(self), taken once by freeze; see _kernel_operands.
    # dataclasses.replace carries it over: a frozen fc's weights are held
    # nowhere else.
    operands: Optional[tuple] = field(default=None, repr=False, compare=False)


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
    are held once, in the tap-major layout the kernels read (see
    ``freeze``); the generated array is let go.
    """
    key = (graph.seed, name)
    p = graph.params_cache.get(key)
    if p is None:
        p = graph.params_cache.setdefault(key, freeze(params_for(graph, name)))
    return p


def freeze(params: LayerParams) -> LayerParams:
    """Mark every array of ``params`` read-only and return it.

    A weighted layer is laid out here, once, and its ``_operands`` kept
    in ``operands``, so the kernels read frozen weights without a copy,
    and the weights are held once: a conv's ``w`` becomes a view of its
    tap-major matrix, an fc's weights are held only as its row panels
    and its ``w`` becomes None, and ``b`` becomes a float32 vector.
    """
    if params.w is not None:
        params.operands = _operands(params)
        params.w, params.b, wt = params.operands[:3]
        wt.setflags(write=False)
    for name in ("w", "b", "mean", "var", "gamma", "beta"):
        arr = getattr(params, name)
        if arr is not None:
            arr.setflags(write=False)
    return params


def _aligned_zeros(size: int) -> np.ndarray:
    """``size`` float32 zeros starting on a 64-byte boundary.  A 16-float
    vector that the fc kernel reads at a multiple of 16 floats then lies
    in one cache line: split loads made a 6144 -> 32 call 1.4x slower."""
    buf = np.zeros(size + 15, dtype=np.float32)
    first = -buf.__array_interface__["data"][0] % 64 // 4
    return buf[first:first + size]


def _bias(b: Optional[np.ndarray], n: int) -> np.ndarray:
    """``b`` as a float32 vector of ``n`` outputs; a bias of any other
    shape raises ``EngineError``."""
    shape = None if b is None else b.shape
    if shape != (n,):
        raise EngineError(f"bias shape {shape} != ({n},)")
    return _float32(b)


def _operands(params: LayerParams) -> tuple:
    """(w, b, wt, finite) for a compiled kernel.

    Conv weights (f, kh, kw, c) become ``wt``, a C-contiguous float32
    (kh*kw*c, f) matrix in (dy, dx, c) tap order with zero columns up to
    a multiple of 8, and ``w`` a view of it in the (f, kh, kw, c) shape.

    fc weights (out, in) become row panels of ``FC_PANEL`` outputs in
    ``wt``, a flat float32 buffer on a 64-byte boundary: panel p is a
    C-contiguous (in, pw) block of rows [p * FC_PANEL, p * FC_PANEL +
    pw), tap-major, where pw is ``FC_PANEL`` but for the last panel,
    whose rows are rounded up to a multiple of 16 with zero columns.
    16 floats of slack follow the last panel, so the kernel reads whole
    16-float vectors of any row range.  A layer of at most ``FC_PANEL``
    outputs is one (in, out rounded up to 16) matrix.  No view of the
    panels has the (out, in) shape, so ``w`` is None, and the weights
    are held once.  ``finite`` tells whether every fc weight is finite
    in float32, which lets the kernel leave out zero inputs; it is False
    for a conv.

    ``b`` is the bias in float32.  A bias that is not one value per
    output raises ``EngineError``.
    """
    w = params.w
    n = w.shape[0]
    b = _bias(params.b, n)
    taps = w[0].size
    if w.ndim == 4:
        wt = np.zeros((taps, -(-n // 8) * 8), dtype=np.float32)
        wt[:, :n] = w.reshape(n, -1).T
        return wt[:, :n].T.reshape(w.shape), b, wt, False
    ws = -(-n // 16) * 16
    wt = _aligned_zeros(taps * ws + 16)
    for p0 in range(0, n, FC_PANEL):
        pw = min(FC_PANEL, ws - p0)
        rows = min(FC_PANEL, n - p0)
        wt[taps * p0:taps * (p0 + pw)].reshape(taps, pw)[:, :rows] = w[p0:p0 + rows].T
    return None, b, wt, bool(np.isfinite(wt).all())


# A batch computes at most RUN_TAGS firings of one (executor, chain or
# layer) in one group, and fewer when the firings of one chain or layer
# over all executors would count more than RUN_BYTES (never fewer than
# one); see TaskExecutor._fire for what a firing counts.  A flush holds a
# group's stacked inputs and a member's outputs at once, so the caps
# bound its memory: a reference run of 16 frames of vgg16 at 1/8, whose
# layer outputs reach 1.6 MB a frame, peaked at 64 MiB of RSS, and at
# 144 MiB without RUN_BYTES.  At 64 tags rather than 16, a round of the
# paced two_stream benchmark at 1/8 (references and sweep) flushes 7
# times, not 43, in 60 conv calls, not 264, and each layer's frames run
# back to back; its peak RSS went from 54.0 to 57.7 MiB.
RUN_TAGS = 64
RUN_BYTES = 2 << 20

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


def _load_kernels() -> ModuleType:
    """Compile ``_kernels.c`` for this CPU as an extension module and
    import it.

    The module is built in a fresh temporary directory, first with
    ``-march=native`` and, if the compiler rejects that, once more
    without it; ``build_command`` of the module is the command that
    built it.  The directory is removed once the module is loaded, which
    stays mapped; where the system cannot remove a loaded library the
    directory stays behind, under the temporary directory.  No compiler,
    a failed or timed-out compile, or a module that does not load raises
    ``ImportError`` naming the last command tried, with the tail of the
    compiler's stderr.
    """
    include = ("-I", sysconfig.get_paths()["include"])
    with tempfile.TemporaryDirectory(prefix="edgeflock-", ignore_cleanup_errors=True) as tmp:
        path = str(Path(tmp) / f"_kernels{sysconfig.get_config_var('EXT_SUFFIX')}")
        for arch in (("-march=native",), ()):
            cmd = [_compiler(), *_CFLAGS, *arch, *include, str(_KERNELS_SOURCE), "-o", path]
            try:
                done = subprocess.run(cmd, capture_output=True, timeout=_COMPILE_TIMEOUT_S)
                if done.returncode == 0:
                    spec = importlib.util.spec_from_file_location("edgeflock._kernels", path)
                    module = importlib.util.module_from_spec(spec)
                    spec.loader.exec_module(module)
                    module.build_command = cmd
                    return module
            except subprocess.TimeoutExpired as exc:
                raise _build_error(cmd, f"timed out after {exc.timeout} s", exc.stderr) from exc
            except (OSError, ImportError) as exc:
                raise _build_error(cmd, exc, None) from exc
        raise _build_error(cmd, f"exit status {done.returncode}", done.stderr)


def _build_error(cmd: list[str], why: object, stderr: Optional[bytes]) -> ImportError:
    """The ``ImportError`` of a kernel build that failed running ``cmd``,
    with the last ten lines of the compiler's stderr."""
    tail = (stderr or b"").decode(errors="replace").strip().splitlines()[-10:]
    return ImportError("\n".join([f"edgeflock needs a C compiler to build {_KERNELS_SOURCE.name}; "
                                  f"`{' '.join(cmd)}` failed: {why}", *tail]))


# The compiled kernels, built at import, so that no caller's first kernel
# call pays for the compile.
_KERNELS = _load_kernels()
# Outputs of one fc row panel; see _operands.
FC_PANEL = _KERNELS.FC_PANEL


def _float32(a: np.ndarray) -> np.ndarray:
    """``a`` as a C-contiguous float32 array, copied only if it is not one."""
    return np.ascontiguousarray(a, dtype=np.float32)


def _kernel_operands(params: LayerParams) -> tuple:
    """``_operands(params)``.

    The weights ``freeze`` laid out serve while ``w`` is still what it
    left there, also in a copy that ``dataclasses.replace`` made with
    another bias, which is checked and taken at each call.  Weights
    that were not frozen are laid out here at every call.
    """
    kept = params.operands
    if kept is None or kept[0] is not params.w:
        return _operands(params)
    if kept[1] is not params.b:
        return (kept[0], _bias(params.b, kept[1].size)) + kept[2:]
    return kept


def forward_fc(x: np.ndarray, params: LayerParams, rows: Optional[tuple[int, int]] = None,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """Dense layer: out[i] = sum_j w[i, j] * x[j] + b[i].

    Accumulation runs in ascending j, so any row subset (``rows``) of a
    sharded layer reproduces the corresponding rows of the full layer
    exactly.  ``fc_rows`` of ``_kernels.c`` computes the sums, leaving
    out zero inputs when every weight is finite.  ``x`` is read as a
    flat vector.  The rows go to ``out`` if given, a C-contiguous
    float32 vector of as many floats, which is returned; else to a new
    vector.  A row range or ``out`` that does not fit the layer, or an
    input size other than the weights', raises ``EngineError``.
    """
    operands = _kernel_operands(params)
    b = operands[1]
    if rows is None:
        lo, hi = 0, b.size
    else:
        lo, hi = rows
        if not 0 <= lo < hi <= b.size:
            raise EngineError(f"fc row range {rows} is empty or outside [0, {b.size})")
    if out is None:
        out = np.empty(hi - lo, dtype=np.float32)
    try:
        _KERNELS.fc_rows(_float32(x), operands[2], b, out, lo, hi, operands[3])
    except ValueError as exc:
        raise EngineError(str(exc)) from exc
    return out


def _conv_extent(h: int, w: int, kh: int, kw: int, stride: int, padding: str):
    """((top, bottom, left, right) padding, (out_h, out_w)) of a conv."""
    if stride < 1:
        raise EngineError(f"conv stride {stride} is not positive")
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


# No kernel calls it: it stays because perfbench/tracing.py binds engine.im2col by name.
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
    result has the same rank.  Matches a naive six-loop implementation on
    each frame bit-for-bit: taps accumulate in (dy, dx, channel) order,
    bias added last.  The batch is copied once into a zero-filled
    (frames, h, w, c) array that holds the padding, and ``conv_nhwc`` of
    ``_kernels.c`` reads its taps there in place.
    """
    x = np.asarray(x, dtype=np.float32)
    if x.ndim not in (3, 4):
        raise EngineError(f"conv input must be rank 3 or a batch of rank 3, got shape {x.shape}")
    batch = x if x.ndim == 4 else x[None]
    n, h, w, c = batch.shape
    f, kh, kw, kc = params.w.shape
    if kc != c:
        raise EngineError(f"conv input channels {c} != kernel channels {kc}")
    operands = _kernel_operands(params)
    (pt, pb, pl, pr), (oh, ow) = _conv_extent(h, w, kh, kw, stride, padding)
    out = np.empty((n, oh, ow, f), dtype=np.float32)
    if pt + pb + pl + pr:
        xp = np.zeros((n, h + pt + pb, w + pl + pr, c), dtype=np.float32)
        xp[:, pt:pt + h, pl:pl + w] = batch
    else:
        xp = _float32(batch)
    _KERNELS.conv_nhwc(xp, operands[2], operands[1], out, kh, kw, stride)
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
    """Max-subtracted softmax over each row of a (rows, n) batch, or over
    the flattened input of any other rank; each row sums to ~1.  A row
    computes as it would on its own."""
    x = np.asarray(x, dtype=np.float32)
    rows = x if x.ndim == 2 else x.reshape(1, -1)
    e = np.exp(rows - rows.max(axis=1, keepdims=True), dtype=np.float32)
    out = e / e.sum(axis=1, keepdims=True, dtype=np.float32)
    return out if x.ndim == 2 else out[0]


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


def flow_diff_stub(prev: np.ndarray, cur: np.ndarray, stacked: bool = False) -> np.ndarray:
    """Stand-in flow field: signed per-pixel intensity difference,
    duplicated into the (dx, dy) channels.

    A frame is (h, w) grey or (h, w, c) colour, whose intensity is the
    mean over its channels.  With ``stacked``, ``prev`` and ``cur`` are
    stacks (pairs, ...) of frames and the result stacks the field of
    each pair, with the bytes each pair gives on its own.
    """
    p = np.asarray(prev, dtype=np.float32)
    c = np.asarray(cur, dtype=np.float32)
    if p.shape != c.shape:
        raise EngineError(f"flow frames disagree on shape: {p.shape} vs {c.shape}")
    if p.ndim == (4 if stacked else 3):
        p = p.mean(axis=-1, dtype=np.float32)
        c = c.mean(axis=-1, dtype=np.float32)
    d = c - p
    return np.stack([d, d], axis=-1)


def flow_stack(frames: list[np.ndarray], window_len: int, flow_fn: Optional[FlowFn] = None) -> np.ndarray:
    """Stack per-pair flow fields of window_len consecutive frame pairs.

    Takes window_len + 1 frames and emits an (H, W, 2*window_len) tensor;
    channels 2t and 2t+1 hold the (dx, dy) field of pair t.  ``flow_fn``
    is called once per pair, in ascending pair order, and returns an
    (H, W, 2) field, taken in float32.  The fields are stacked pair-major
    and transposed with each pixel's (dx, dy) moved as one 8-byte item:
    a concatenate along the last axis moved two floats at a time, and
    took twice as long on two_stream's (16, 12, 2) fields at 1/8.
    """
    if len(frames) != window_len + 1:
        raise EngineError(f"flow stack needs {window_len + 1} frames, got {len(frames)}")
    fn = flow_fn or flow_diff_stub
    fields = np.array([fn(frames[t], frames[t + 1]) for t in range(window_len)], dtype=np.float32)
    if fields.ndim != 4 or fields.shape[-1] != 2:
        raise EngineError(f"flow fields must be (h, w, 2), got {fields.shape[1:]}")
    pixels = fields.view(np.uint64)[..., 0].transpose(1, 2, 0)
    return np.ascontiguousarray(pixels).view(np.float32)


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

    Firings are grouped by (chain or layer, executor), a chain keyed by
    its head; ``flush`` computes the groups in the topological order of
    their first layers.  That order puts every input before the firings
    that read it, as only a chain's tail is read outside it, and each
    shard assembly after the shards of its layer, whose tail it is.  A
    group never holds more than ``RUN_TAGS`` firings, and the firings of
    one chain or layer, over every executor, never count more than
    ``RUN_BYTES`` unless there is only one of them: a firing that would
    pass a cap flushes the batch first.  A chain's firing counts the
    largest of its members' outputs and its head's input, which the
    flush stacks; any other firing its output.  So a flush keeps the
    outputs of a few layers alive at a time, however many replicas run
    a layer.  Values do not depend on where the flushes fall.
    """

    def __init__(self):
        # (topological rank of a chain's head or a layer, 0, or 1 for a
        # layer's shard assembly, executor) -> firings in the order they
        # fired
        self.groups: dict[tuple[int, int, "TaskExecutor"], list[Pending]] = {}
        # (rank, 0 or 1) -> bytes of that chain's or layer's firings
        self.layer_bytes: dict[tuple[int, int], int] = {}

    def __len__(self) -> int:
        return sum(len(g) for g in self.groups.values())

    def add(self, key: tuple, pending: Pending, nbytes: int) -> Pending:
        group = self.groups.get(key)
        layer = key[:2]
        held = self.layer_bytes.get(layer, 0)
        if (group is not None and len(group) >= RUN_TAGS) or (held and held + nbytes > RUN_BYTES):
            self.flush()
            group, held = None, 0
        if group is None:
            group = self.groups[key] = []
        group.append(pending)
        self.layer_bytes[layer] = held + nbytes
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
    """A group's inputs, arrays of one shape, as one (tags, ...) array;
    a single input is not copied.  ``np.array`` copies them as
    ``np.stack`` does, with less set-up per call."""
    return vals[0][None] if len(vals) == 1 else np.array(vals)


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


# Kinds that form chains; see TaskExecutor.
_CHAIN_KINDS = {ir.CONV, ir.RELU, ir.NORM, ir.MAXPOOL, ir.FC, ir.SOFTMAX}

# How a consumer fires when a value it reads arrives; see TaskExecutor._how.
_PASS, _FIRE, _WINDOW, _JOIN = "pass", "fire", "window", "join"


class TaskExecutor:
    """Streams tagged items through an owned slice of a validated graph.

    ``push`` feeds one tagged item produced by ``origin`` (an external
    producer or a source) and returns every owned boundary emission that
    becomes ready.  The firings it causes are recorded in ``batch`` and
    computed when the batch is flushed; until then an emission's value
    is a ``Pending``.  Windowed layers buffer items in sliding windows
    and emit at the newest contributing tag, so tags stay aligned across
    parallel branches.

    Every owned conv, relu, norm, maxpool, fc and softmax layer belongs
    to exactly one chain, perhaps a chain of one: a maximal run of such
    layers in which each member but the last is not emitted and has one
    graph consumer, the next member.  A chain fires once per tag, when
    its head does, into one ``Pending`` with its tail's shape; the values
    of the other members are never emitted nor held.  ``fired_log``
    still lists every member, in the breadth-first order in which the
    members would fire one by one, so cost accounting sees each layer.

    ``part = (fc, lo, hi)`` makes the executor a row shard, for model
    parallelism: fc and its row-local glue (``costs.row_local_layers``)
    compute output rows [lo, hi) only.  The last of those layers, the
    terminal, is always emitted, and so always ends a chain, and is never
    fed to the executor's own consumers: they read the whole value,
    which ``push_part`` assembles from the row shards of every device.
    ``batch`` may be shared by several executors of the graph; by default
    the executor has its own.  Every executor of a graph computes with
    the same weights: ``params`` reads them from ``shared_params`` at
    each call.
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
            if graph.layer(n).kind == ir.SINK or not owned_set.issuperset(graph.consumers(n))
        }
        self.part = part
        # A shard's row-local layers; the last is its partial terminal.
        self._row_local, self._terminal = (), None
        if part:
            self._row_local = costs.row_local_layers(graph, owned_set, part[0])
            self._terminal = self._row_local[-1]
            self.emit.add(self._terminal)
        self.batch = batch if batch is not None else Batch()
        self._rank = {n: i for i, n in enumerate(graph.topo_order)}
        # chain head -> ((member, output shape), ...) in order; _linked
        # holds the members other than heads, which never fire themselves
        self._chains: dict[str, tuple[tuple[str, tuple], ...]] = {}
        self._linked: set[str] = set()
        head_of: dict[str, str] = {}
        for n in graph.topo_order:
            if n not in owned_set or graph.layer(n).kind not in _CHAIN_KINDS:
                continue
            prev = graph.layer(n).inputs[0]
            linked = prev in head_of and prev not in self.emit and graph.consumers(prev) == [n]
            head = head_of[n] = head_of[prev] if linked else n
            if linked:
                self._linked.add(n)
            self._chains[head] = self._chains.get(head, ()) + ((n, self._shape(n)),)
        # firing layer -> (batch key, output shape, size, peak size), or
        # None for a layer that passes its input through; see _plan
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
            if n not in self._linked:
                self._plans[n] = self._plan(n)
        self._sources = {n for n in self.owned if graph.layer(n).kind == ir.SOURCE}
        # values computed inside a chain of this executor, never pushed to it
        self._interior = {graph.layer(m).inputs[0] for m in self._linked}
        # layer -> ((consumer, how, arg), ...): each owned consumer of the
        # layer's value, in ``consumers`` order, and how the value makes it
        # fire; see _feed.  _walk leaves out a row shard's terminal, whose
        # consumers read only its assembly, which arrives through push.
        self._arrivals = {x: tuple([self._how(c, x) for c in cs]) for x, cs in self.consumers.items()}
        self._walk = {x: ops for x, ops in self._arrivals.items() if x != self._terminal}
        # chain head -> (its other members, its tail)
        self._jumps = {head: (tuple(m for m, _shape in chain[1:]), chain[-1][0])
                       for head, chain in self._chains.items() if len(chain) > 1}
        self.fired_log: list[str] = []
        self.pending_notices: list[SkipNotice] = []

    def params(self, name: str) -> LayerParams:
        return shared_params(self.graph, name)

    # -- scheduling -----------------------------------------------------

    def _shape(self, name: str) -> tuple:
        """An owned layer's output shape: a shard's rows for a row-local
        layer, a flat vector for softmax, else the graph's shape."""
        if name in self._row_local:
            return (self.part[2] - self.part[1],)
        if self.graph.layer(name).kind == ir.SOFTMAX:
            return (self.graph.shapes[name].size,)
        return self.graph.shapes[name].dims

    def _plan(self, name: str) -> Optional[tuple]:
        """(batch key, output shape, output size, peak size) of a layer
        that fires: a chain's head, with its tail's output and the largest
        output of its members as the peak, or a concat or windowed layer,
        whose peak is None.  None for a source or a sink."""
        if self.graph.layer(name).kind in (ir.SOURCE, ir.SINK):
            return None
        chain = self._chains.get(name)
        shape = chain[-1][1] if chain else self._shape(name)
        peak = max(math.prod(s) for _, s in chain) if chain else None
        return (self._rank[name], 0, self), shape, math.prod(shape), peak

    def _how(self, consumer: str, via: str) -> tuple:
        """(consumer, how, arg): how a value of ``via`` makes the owned
        ``consumer`` fire.  _PASS: a chain member past the head, which
        fires with its head, or a sink, which passes the value through;
        _WINDOW (arg: the window and the plan); _JOIN (arg: the join
        buffers, the input slots ``via`` fills, the input count, the
        first tag that every input reaches and the plan); _FIRE, one
        firing per value (arg: the plan)."""
        plan = self._plans.get(consumer)
        if consumer in self._windows:
            return consumer, _WINDOW, (self._windows[consumer], plan)
        if consumer in self._joins:
            inputs = self.graph.layer(consumer).inputs
            slots = tuple(i for i, inp in enumerate(inputs) if inp == via)
            first = max(self.graph.first_valid[inp] for inp in inputs)
            return consumer, _JOIN, (self._joins[consumer], slots, len(inputs), first, plan)
        if plan is None:
            return consumer, _PASS, None
        return consumer, _FIRE, plan

    def _fire(self, plan: tuple, tag: int, args: Any) -> Pending:
        """Record one firing at ``tag`` on ``args`` (its input, a concat's
        list of inputs, or a window's items) of the layer whose ``_plan``
        is ``plan``; returns its ``Pending`` output, which for a chain's
        head is its tail's.

        A chain counts its largest output or its head's input, which a
        flush stacks, whichever is larger; any other layer its output."""
        key, shape, size, peak = plan
        pending = Pending(shape, size, tag, args)
        return self.batch.add(key, pending, 4 * (size if peak is None else max(peak, args.size)))

    def join_rows(self, layer: str, tag: int, parts: list) -> Pending:
        """Record the assembly of ``layer`` at ``tag`` from its row shards
        ``parts``, in row order, into one flat value."""
        size = sum(p.size for p in parts)
        return self.batch.add((self._rank[layer], 1, self), Pending((size,), size, tag, parts),
                              4 * size)

    # -- computation ----------------------------------------------------

    def _compute(self, name: str, assembly: bool, firings: list[Pending]) -> None:
        """Compute one group of firings of ``name`` (a chain's head, a
        concat or a windowed layer) or of its shard assembly, whose inputs
        are all computed.

        A chain stacks its head's inputs into one (tags, ...) batch once
        and runs each member's ``_step`` over it in turn; only the tail's
        output is kept.  A pyramid takes its windows as one batch; concat
        and assemblies run once per firing, and flow stacks once per
        window, on the fields ``_flow_fields`` computes for the group.
        """
        spec = self.graph.layer(name)
        k = spec.kind
        chain = self._chains.get(name)
        if assembly:
            values = [np.concatenate([np.asarray(value_of(v), np.float32).reshape(-1)
                                      for v in p.args]) for p in firings]
        elif chain:
            values = _stacked([value_of(p.args) for p in firings])
            for member, shape in chain:
                values = self._step(member, values)
                if values.shape[1:] != shape:
                    raise EngineError(f"layer {member!r}: computed shape {values.shape[1:]}, "
                                      f"scheduled as {shape}")
        elif k == ir.CONCAT:
            axis = int(spec.attrs.get("axis", 0))
            values = [np.concatenate([value_of(v) for v in p.args], axis=axis) for p in firings]
        elif k == ir.PYRAMID:
            # A group's windows fired in ascending end tags, and the items
            # of a tag that two windows hold are one item: stack each item
            # once, and gather window i from rows starts[i] onward.
            window = spec.window
            items: list = []
            starts = []
            last = None
            for p in firings:
                new = window if last is None else min(window, p.tag - last)
                items += [value_of(v) for v in p.args[window - new:]]
                starts.append(len(items) - window)
                last = p.tag
            rows = np.add.outer(starts, np.arange(window))
            values = temporal_pyramid(_stacked(items)[rows].reshape(len(firings), window, -1),
                                      int(spec.attrs["levels"]))
        else:  # flowstack; sources and sinks never fire into a batch
            window_len = int(spec.attrs["window_len"])
            fields = self._flow_fields(name, firings, window_len)
            values = []
            for p in firings:
                window = iter([fields[t] for t in range(p.tag - window_len + 1, p.tag + 1)])
                values.append(flow_stack([value_of(v) for v in p.args], window_len,
                                         lambda _prev, _cur, window=window: next(window)))
        for p, v in zip(firings, values):
            if v.shape != p.shape:
                raise EngineError(f"layer {name!r} at tag {p.tag}: computed shape {v.shape}, "
                                  f"scheduled as {p.shape}")
            p.value, p.args = v, None

    def _step(self, name: str, x: np.ndarray) -> np.ndarray:
        """Chain member ``name`` over a (tags, ...) batch ``x``.  conv,
        relu, norm and maxpool take the batch in one call, and softmax
        takes it as (tags, size) rows.  fc computes its rows (a row
        shard's, or all of them) one row panel at a time: for each panel
        that the rows meet, one ``forward_fc`` call per frame writes that
        panel's rows of the frame, so every frame after the first reads
        the panel's weights from cache (see ``_operands``).  A row-local
        norm reads its statistics of the shard's rows.  Each kernel is
        looked up in this module's globals at the call."""
        spec = self.graph.layer(name)
        k = spec.kind
        if k == ir.CONV:
            return forward_conv(x, self.params(name), stride=int(spec.attrs.get("stride", 1)),
                                padding=spec.attrs.get("padding", "same"))
        if k == ir.RELU:
            return forward_relu(x)
        if k == ir.NORM:
            p = self.params(name)
            if name in self._row_local:
                rows = slice(*self.part[1:])
                p = LayerParams(mean=p.mean[rows], var=p.var[rows], gamma=p.gamma[rows],
                                beta=p.beta[rows])
            return forward_norm(x, p)
        if k == ir.MAXPOOL:
            return forward_maxpool(x, int(spec.attrs["window"]),
                                   int(spec.attrs.get("stride", spec.attrs["window"])))
        if k == ir.FC:
            params = self.params(name)
            lo, hi = self.part[1:] if name in self._row_local else (0, params.b.size)
            out = np.empty((len(x), hi - lo), dtype=np.float32)
            for p0 in range(lo - lo % FC_PANEL, hi, FC_PANEL):
                rows = (max(lo, p0), min(hi, p0 + FC_PANEL))
                cols = slice(rows[0] - lo, rows[1] - lo)
                for v, o in zip(x, out):
                    forward_fc(v, params, rows=rows, out=o[cols])
            return out
        return forward_softmax(x.reshape(len(x), -1))

    def _flow_fields(self, name: str, firings: list[Pending], window_len: int) -> dict[int, np.ndarray]:
        """The field of every frame pair in a group of flow stack windows,
        keyed by the pair's later tag; the pairs no earlier group computed
        take one ``flow_diff_stub`` call on their stacked frames.

        Windows hold consecutive tags, and a tag's frame never changes
        once it sits in a window, so a pair's field is reused by every
        overlapping window.  Fields of pairs before the group's first
        window are dropped.  A flush computes an executor's windows in the
        order they fired, so this holds across flushes.
        """
        fields = self._flows[name]
        first = firings[0].tag - window_len
        for t in [t for t in fields if t <= first]:
            del fields[t]
        new: dict[int, tuple] = {}
        for p in firings:
            for i, t in enumerate(range(p.tag - window_len + 1, p.tag + 1)):
                if t not in fields and t not in new:
                    new[t] = (p.args[i], p.args[i + 1])
        if new:
            prev = _stacked([value_of(a) for a, _b in new.values()])
            cur = _stacked([value_of(b) for _a, b in new.values()])
            fields.update(zip(new, flow_diff_stub(prev, cur, stacked=True)))
        return fields

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
        resyncs.  Layers are visited breadth first, item by item, each
        feeding its owned consumers as the table ``_walk`` says.  A chain
        member past the head is visited with the chain's output, and only
        logged; a chain's head visited with nothing else queued logs its
        other members and hands on to its tail in one step, as the
        breadth-first walk would visit them one after another.  A value
        computed inside one of this executor's chains is never pushed to
        it (``EngineError``).
        """
        out: list[Emission] = []
        self.fired_log = fired = []
        self.pending_notices = []
        tag = int(tag)
        queue: deque = deque()
        if origin in self._sources:
            fired.append(origin)
            queue.append((origin, tag, value))
        elif origin in self._interior:
            raise EngineError(f"{origin!r} is computed inside a chain of this executor "
                              "and is never pushed to it")
        else:
            self._feed(self._arrivals.get(origin, ()), tag, value, queue)
        emit, walk, jumps = self.emit, self._walk, self._jumps
        while queue:
            layer, t, val = queue.popleft()
            if not queue and layer in jumps:
                members, layer = jumps[layer]
                fired.extend(members)
            if layer in emit:
                out.append(Emission(layer, t, val))
            ops = walk.get(layer)
            if ops:
                self._feed(ops, t, val, queue)
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

    def _feed(self, ops: tuple, tag: int, value: Any, queue: deque) -> None:
        """Feed one value at ``tag`` to the consumers ``ops`` of a layer
        (its ``_arrivals`` or ``_walk`` entry): log each firing and queue
        its output."""
        fired = self.fired_log
        for consumer, how, arg in ops:
            if how is _PASS:
                fired.append(consumer)
                queue.append((consumer, tag, value))
            elif how is _FIRE:
                fired.append(consumer)
                queue.append((consumer, tag, self._fire(arg, tag, value)))
            elif how is _WINDOW:
                win, plan = arg
                pre = win.resync_on_next
                ready = win.push(tag, value)
                if pre and not win.resync_on_next and win.last_resync == tag:
                    # Buffer was lost in a handoff; declare the resulting
                    # output gap so downstream windows advance too.
                    self.pending_notices.extend(
                        self._skip_from(consumer, win.last_resync + win.length - 1))
                for end, items in ready:
                    fired.append(consumer)
                    queue.append((consumer, end, self._fire(plan, end, items)))
            else:
                joins, slots, n_inputs, first, plan = arg
                if tag < first:
                    continue   # an input that starts later never reaches this tag
                pend = joins.setdefault(tag, {})
                for slot in slots:
                    if slot not in pend:
                        pend[slot] = value
                        break
                if len(pend) < n_inputs:
                    continue
                del joins[tag]
                fired.append(consumer)
                queue.append((consumer, tag, self._fire(plan, tag, [pend[i] for i in range(n_inputs)])))

    def skip(self, origin: str, next_tag: int) -> list[SkipNotice]:
        """Propagate a declared tag gap; returns boundary skip notices.

        Windowed consumers advance past the gap and resume once a full
        run of post-gap tags accumulates, so their first valid output
        tag shifts by window - 1.  Parked row shards of ``origin`` below
        ``next_tag`` are dropped.
        """
        for key in [k for k in self._parts if k[0] == origin and k[1] < next_tag]:
            del self._parts[key]
        return self._traverse_skip([(origin, int(next_tag), origin in self._sources)])

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
    executor whose batch computes each chain or layer over up to ``RUN_TAGS``
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
