"""Forward kernels against independent brute-force oracles.

The dense/conv oracles below are scalar loops accumulating in float32
in ascending index order; kernel outputs must match them bit for bit.
"""

import hashlib
import itertools
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import edgeflock.engine as engine
from edgeflock.engine import (
    EngineError,
    LayerParams,
    flow_diff_stub,
    flow_stack,
    forward_conv,
    forward_fc,
    forward_maxpool,
    forward_norm,
    forward_relu,
    forward_softmax,
    freeze,
    im2col,
    pyramid_ranges,
    run_reference,
    temporal_pyramid,
)
from edgeflock.harness import frames_needed, make_clip
from edgeflock.model_ir import build_model
from edgeflock.planner import split_fc_rows

rng = np.random.default_rng(20240811)


def fc_oracle(w, b, x):
    """Scalar dot products, ascending j, bias added last (float32)."""
    out = np.empty(w.shape[0], np.float32)
    for i in range(w.shape[0]):
        acc = np.float32(0.0)
        for j in range(w.shape[1]):
            acc = np.float32(acc + np.float32(w[i, j] * x[j]))
        out[i] = np.float32(acc + b[i])
    return out


def conv_oracle(x, w, b, stride, padding):
    """Naive six-loop cross-correlation over the zero-padded input."""
    f, kh, kw, c = w.shape
    h, wd = x.shape[0], x.shape[1]
    if padding == "same":
        oh, ow = -(-h // stride), -(-wd // stride)
        ph = max((oh - 1) * stride + kh - h, 0)
        pw = max((ow - 1) * stride + kw - wd, 0)
        xp = np.pad(x, ((ph // 2, ph - ph // 2), (pw // 2, pw - pw // 2), (0, 0)))
    else:
        xp = x
        oh, ow = (h - kh) // stride + 1, (wd - kw) // stride + 1
    out = np.zeros((oh, ow, f), np.float32)
    for y in range(oh):
        for xx in range(ow):
            for ff in range(f):
                acc = np.float32(0.0)
                for dy in range(kh):
                    for dx in range(kw):
                        for cc in range(c):
                            acc = np.float32(
                                acc + np.float32(xp[y * stride + dy, xx * stride + dx, cc]
                                                 * w[ff, dy, dx, cc]))
                out[y, xx, ff] = np.float32(acc + b[ff])
    return out


def with_zeros(r, values, share, neg):
    """float32 copy of ``values`` with about ``share`` of it set to zero;
    each zero is -0.0 with probability ``neg``, else +0.0."""
    out = np.asarray(values, np.float32).copy()
    hit = r.random(out.shape) < share
    out[hit] = np.where(r.random(out.shape) < neg, -0.0, 0.0)[hit]
    return out


def zero_borders(x, borders):
    """Set the outer rows and columns of an (h, w, c) input to signed
    zeros: ``borders`` is ((top, bottom, left, right) counts, and a
    negative flag per side), sides written in that order."""
    counts, negative = borders
    sides = (np.s_[:counts[0]], np.s_[x.shape[0] - counts[1]:],
             np.s_[:, :counts[2]], np.s_[:, x.shape[1] - counts[3]:])
    for count, neg, side in zip(counts, negative, sides):
        if count:
            x[side] = -0.0 if neg else 0.0


@contextmanager
def blocks(block, acc):
    """Run the kernels with product blocks of ``block`` elements and
    accumulators of ``acc`` elements, so small shapes span several blocks."""
    saved = engine._BLOCK, engine._ACC
    engine._BLOCK, engine._ACC = block, acc
    try:
        yield
    finally:
        engine._BLOCK, engine._ACC = saved


@pytest.fixture(scope="class")
def numpy_kernels():
    """Run a class's tests on the numpy kernels, whether or not the
    compiled ones loaded; the other test classes run on whichever
    kernels the import selected."""
    saved = engine._KERNELS
    engine._KERNELS = None
    try:
        yield
    finally:
        engine._KERNELS = saved


# Block sizes: one element, small enough to split every test shape, and
# the kernels' own.
BLOCK_SIZES = st.sampled_from([1, 7, 64, engine._BLOCK])
ACC_SIZES = st.sampled_from([1, 5, 16, engine._ACC])
ZERO_SHARES = st.sampled_from([0.0, 0.3, 1.0])
# Weights take zeros of the opposite sign to inputs and biases, so at 0.0
# and 1.0 every product of two zeros is -0.0, and at 1.0 every zero bias
# is too: a sum must still start at +0.0.
NEG_ZEROS = st.sampled_from([0.0, 0.5, 1.0])
# zero_borders argument that leaves the input as it is
NO_BORDERS = ((0, 0, 0, 0), (False,) * 4)


@st.composite
def fc_cases(draw):
    out = draw(st.integers(1, 12))
    inp = draw(st.integers(1, 40))
    r0 = draw(st.integers(0, out - 1))
    r1 = draw(st.integers(r0 + 1, out))
    return (out, inp, (r0, r1), draw(st.integers(0, 2**31 - 1)), draw(ZERO_SHARES),
            draw(NEG_ZEROS), draw(st.integers(0, out - 1)), draw(BLOCK_SIZES), draw(ACC_SIZES))


@st.composite
def conv_cases(draw):
    padding = draw(st.sampled_from(["same", "valid"]))
    h, wd = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    top = (h, wd) if padding == "valid" else (4, 4)
    kh, kw = draw(st.integers(1, min(4, top[0]))), draw(st.integers(1, min(4, top[1])))
    borders = (tuple(draw(st.integers(0, n)) for n in (h, h, wd, wd)),
               tuple(draw(st.booleans()) for _ in range(4)))
    return (h, wd, draw(st.integers(1, 3)), draw(st.integers(1, 4)), kh, kw,
            draw(st.integers(1, 3)), padding, draw(st.integers(0, 2**31 - 1)),
            draw(ZERO_SHARES), draw(NEG_ZEROS), borders, draw(BLOCK_SIZES),
            draw(ACC_SIZES))


class TestDense:
    def test_identity_weights(self):
        p = LayerParams(w=np.eye(3, dtype=np.float32), b=np.zeros(3, np.float32))
        assert np.array_equal(forward_fc(np.array([1, 2, 3], np.float32), p),
                              np.array([1, 2, 3], np.float32))

    def test_zero_input_returns_bias(self):
        b = rng.uniform(-1, 1, 5).astype(np.float32)
        p = LayerParams(w=rng.uniform(-1, 1, (5, 4)).astype(np.float32), b=b)
        assert np.array_equal(forward_fc(np.zeros(4, np.float32), p), b)

    def test_matches_scalar_oracle_exactly(self):
        w = rng.uniform(-0.05, 0.05, (8, 4)).astype(np.float32)
        b = rng.uniform(-0.05, 0.05, 8).astype(np.float32)
        x = rng.uniform(-1, 1, 4).astype(np.float32)
        got = forward_fc(x, LayerParams(w=w, b=b))
        assert np.array_equal(got, fc_oracle(w, b, x))

    @given(fc_cases())
    @example((1, 30, (0, 1), 0, 0.0, 1.0, 0, engine._BLOCK, engine._ACC))
    @example((9, 30, (4, 5), 3, 0.3, 0.5, 5, engine._BLOCK, engine._ACC))
    @example((6, 5, (0, 6), 1, 1.0, 1.0, 0, 7, 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle_on_any_shard(self, case):
        out, inp, (r0, r1), seed, zeros, neg, zero_row, block, acc = case
        r = np.random.default_rng(seed)
        w = with_zeros(r, r.uniform(-0.05, 0.05, (out, inp)), zeros, 1 - neg)
        b = with_zeros(r, r.uniform(-0.05, 0.05, out), zeros, neg)
        x = with_zeros(r, r.uniform(-1, 1, inp), zeros, neg)
        w[zero_row % out] = np.where(r.random(inp) < 0.5, -0.0, 0.0)
        with blocks(block, acc):
            for p in (LayerParams(w=w, b=b), freeze(LayerParams(w=w.copy(), b=b.copy()))):
                got = forward_fc(x, p, rows=(r0, r1))
                assert got.tobytes() == fc_oracle(w[r0:r1], b[r0:r1], x).tobytes()
                assert forward_fc(x, p).tobytes() == fc_oracle(w, b, x).tobytes()

    def test_row_slice_reproduces_full_rows(self):
        w = rng.uniform(-0.05, 0.05, (10, 33)).astype(np.float32)
        b = rng.uniform(-0.05, 0.05, 10).astype(np.float32)
        x = rng.uniform(-1, 1, 33).astype(np.float32)
        p = LayerParams(w=w, b=b)
        full = forward_fc(x, p)
        part = forward_fc(x, p, rows=(3, 7))
        assert np.array_equal(part, full[3:7])

    def test_dimension_mismatch(self):
        p = LayerParams(w=np.zeros((2, 3), np.float32), b=np.zeros(2, np.float32))
        with pytest.raises(EngineError):
            forward_fc(np.zeros(4, np.float32), p)


class TestConv:
    def test_one_by_one_identity(self):
        p = LayerParams(w=np.ones((1, 1, 1, 1), np.float32), b=np.zeros(1, np.float32))
        x = rng.uniform(-1, 1, (5, 4, 1)).astype(np.float32)
        assert np.array_equal(forward_conv(x, p)[..., 0], x[..., 0])

    def test_zero_input_broadcasts_bias(self):
        b = rng.uniform(-1, 1, 3).astype(np.float32)
        p = LayerParams(w=rng.uniform(-1, 1, (3, 3, 3, 2)).astype(np.float32), b=b)
        out = forward_conv(np.zeros((6, 5, 2), np.float32), p)
        assert np.array_equal(out, np.broadcast_to(b, out.shape))

    def test_matches_six_loop_oracle_same_padding(self):
        x = rng.uniform(-1, 1, (16, 12, 3)).astype(np.float32)
        w = rng.uniform(-0.05, 0.05, (4, 5, 5, 3)).astype(np.float32)
        b = rng.uniform(-0.05, 0.05, 4).astype(np.float32)
        got = forward_conv(x, LayerParams(w=w, b=b), stride=1, padding="same")
        assert np.array_equal(got, conv_oracle(x, w, b, 1, "same"))

    def test_matches_oracle_strided_valid(self):
        x = rng.uniform(-1, 1, (11, 11, 2)).astype(np.float32)
        w = rng.uniform(-0.05, 0.05, (3, 3, 3, 2)).astype(np.float32)
        b = rng.uniform(-0.05, 0.05, 3).astype(np.float32)
        got = forward_conv(x, LayerParams(w=w, b=b), stride=2, padding="valid")
        assert np.array_equal(got, conv_oracle(x, w, b, 2, "valid"))

    @given(conv_cases())
    @example((4, 4, 3, 1, 4, 4, 1, "valid", 0, 0.0, 0.5, NO_BORDERS, engine._BLOCK, engine._ACC))
    @example((1, 1, 2, 1, 3, 3, 2, "same", 1, 1.0, 1.0, ((1, 0, 0, 0), (True,) * 4),
              engine._BLOCK, engine._ACC))
    @example((9, 7, 2, 3, 3, 3, 2, "valid", 2, 0.2, 0.5, ((1, 0, 0, 0), (True,) * 4), 5, 3))
    @example((9, 7, 3, 1, 4, 4, 1, "same", 3, 0.0, 0.5, NO_BORDERS, 64, 1))
    # -0.0 on every border, +0.0 padding around it, and a mixed ring
    @example((5, 6, 2, 2, 3, 3, 1, "same", 4, 0.0, 1.0, ((1, 1, 1, 1), (True,) * 4),
              engine._BLOCK, engine._ACC))
    @example((7, 5, 2, 2, 4, 3, 2, "same", 5, 0.3, 0.5, ((2, 1, 1, 2), (True, False, False, True)),
              7, 5))
    # stride-4 "valid" with an 11x11 kernel, the shape class of alexnet conv_1
    @example((15, 19, 3, 2, 11, 11, 4, "valid", 6, 0.3, 0.5, ((1, 2, 2, 1), (True, True, False, True)),
              engine._BLOCK, engine._ACC))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_on_any_shape(self, case):
        h, wd, c, f, kh, kw, stride, padding, seed, zeros, neg, borders, block, acc = case
        r = np.random.default_rng(seed)
        x = with_zeros(r, r.uniform(-1, 1, (h, wd, c)), zeros, neg)
        zero_borders(x, borders)
        w = with_zeros(r, r.uniform(-0.05, 0.05, (f, kh, kw, c)), zeros, 1 - neg)
        b = with_zeros(r, r.uniform(-0.05, 0.05, f), zeros, neg)
        with blocks(block, acc):
            got = forward_conv(x, LayerParams(w=w, b=b), stride=stride, padding=padding)
        assert got.tobytes() == conv_oracle(x, w, b, stride, padding).tobytes()

    @given(conv_cases(), st.integers(1, 4), st.sampled_from([1, 200, engine.PATCH_BYTES]))
    # -0.0 borders on every frame around +0.0 padding
    @example((5, 6, 2, 2, 3, 3, 1, "same", 4, 0.0, 1.0, ((1, 1, 1, 1), (True,) * 4),
              engine._BLOCK, engine._ACC), 3, engine.PATCH_BYTES)
    # stride-4 "valid" with an 11x11 kernel, split into one frame per matrix
    @example((15, 19, 3, 2, 11, 11, 4, "valid", 6, 0.3, 0.5, ((1, 2, 2, 1), (True, True, False, True)),
              engine._BLOCK, engine._ACC), 4, 200)
    # one filter with a 1x1 output: a running sum alone, a reduction in a batch
    @example((4, 4, 3, 1, 4, 4, 1, "valid", 0, 0.0, 0.5, NO_BORDERS, engine._BLOCK, engine._ACC),
             1, engine.PATCH_BYTES)
    @example((4, 4, 3, 1, 4, 4, 1, "valid", 0, 0.0, 0.5, NO_BORDERS, engine._BLOCK, engine._ACC),
             4, engine.PATCH_BYTES)
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_oracle_on_each_frame(self, case, frames, patch_bytes):
        h, wd, c, f, kh, kw, stride, padding, seed, zeros, neg, borders, block, acc = case
        r = np.random.default_rng(seed)
        x = with_zeros(r, r.uniform(-1, 1, (frames, h, wd, c)), zeros, neg)
        for frame in x:
            zero_borders(frame, borders)
        w = with_zeros(r, r.uniform(-0.05, 0.05, (f, kh, kw, c)), zeros, 1 - neg)
        b = with_zeros(r, r.uniform(-0.05, 0.05, f), zeros, neg)
        saved = engine.PATCH_BYTES
        engine.PATCH_BYTES = patch_bytes
        try:
            with blocks(block, acc):
                got = forward_conv(x, LayerParams(w=w, b=b), stride=stride, padding=padding)
        finally:
            engine.PATCH_BYTES = saved
        assert got.shape[0] == frames
        for frame, out in zip(x, got):
            assert out.tobytes() == conv_oracle(frame, w, b, stride, padding).tobytes()

    def test_batch_im2col_lays_frames_side_by_side(self):
        x = rng.uniform(-1, 1, (3, 9, 8, 2)).astype(np.float32)
        zero_borders(x[1], ((1, 1, 1, 1), (True,) * 4))
        patches, (oh, ow) = im2col(x, 3, 3, 2, "same")
        for i, frame in enumerate(x):
            one, extent = im2col(frame, 3, 3, 2, "same")
            assert extent == (oh, ow)
            assert patches[:, i * oh * ow:(i + 1) * oh * ow].tobytes() == one.tobytes()

    def test_channel_mismatch(self):
        p = LayerParams(w=np.zeros((1, 3, 3, 4), np.float32), b=np.zeros(1, np.float32))
        with pytest.raises(EngineError):
            forward_conv(np.zeros((8, 8, 3), np.float32), p)

    @pytest.mark.parametrize("shape,k,stride,padding", [
        ((23, 27, 3), 11, 4, "valid"),   # the shape class of alexnet conv_1
        ((9, 8, 2), 5, 2, "same"),
    ])
    def test_im2col_matches_padded_patches(self, shape, k, stride, padding):
        x = rng.uniform(-1, 1, shape).astype(np.float32)
        zero_borders(x, ((1, 1, 1, 1), (True,) * 4))
        patches, (oh, ow) = im2col(x, k, k, stride, padding)
        if padding == "same":
            ph = (-(-shape[0] // stride) - 1) * stride + k - shape[0]
            pw = (-(-shape[1] // stride) - 1) * stride + k - shape[1]
            xp = np.pad(x, ((ph // 2, ph - ph // 2), (pw // 2, pw - pw // 2), (0, 0)))
        else:
            xp = x
        assert (oh, ow) == ((xp.shape[0] - k) // stride + 1, (xp.shape[1] - k) // stride + 1)
        want = np.empty_like(patches)
        for y in range(oh):
            for xx in range(ow):
                window = xp[y * stride:y * stride + k, xx * stride:xx * stride + k]
                want[:, y * ow + xx] = window.reshape(-1)    # (dy, dx, c) tap order
        # byte equality: the -0.0 borders survive, the padding is +0.0
        assert patches.tobytes() == want.tobytes()


class TestUfuncBuffer:
    """The kernels set numpy's ufunc buffer size for their own products
    only: their bytes do not depend on the caller's size, which they
    restore."""

    @pytest.mark.parametrize("bufsize", [32, 256, 8192])
    def test_bytes_do_not_depend_on_the_callers_buffer(self, bufsize):
        r = np.random.default_rng(11)
        x = r.uniform(-1, 1, 40).astype(np.float32)
        img = r.uniform(-1, 1, (2, 7, 6, 3)).astype(np.float32)
        fcs = [freeze(LayerParams(w=r.uniform(-0.05, 0.05, (out, 40)).astype(np.float32),
                                  b=r.uniform(-0.05, 0.05, out).astype(np.float32)))
               for out in (8, 300)]
        convp = freeze(LayerParams(w=r.uniform(-0.05, 0.05, (4, 3, 3, 3)).astype(np.float32),
                                   b=r.uniform(-0.05, 0.05, 4).astype(np.float32)))
        prior = np.setbufsize(bufsize)
        try:
            fc_out = [forward_fc(x, p).tobytes() for p in fcs]
            fc_out += [forward_fc(x, p, rows=(3, 7)).tobytes() for p in fcs]
            assert np.getbufsize() == bufsize
            conv_out = forward_conv(img, convp).tobytes()
            assert np.getbufsize() == bufsize
        finally:
            np.setbufsize(prior)
        assert fc_out == [fc_oracle(p.w, p.b, x).tobytes() for p in fcs] + [
            fc_oracle(p.w[3:7], p.b[3:7], x).tobytes() for p in fcs]
        assert conv_out == np.stack([conv_oracle(f, convp.w, convp.b, 1, "same")
                                     for f in img]).tobytes()


def rerun(test, *strategies):
    """A new ``@given(*strategies)`` test with the body, examples and
    settings of the hypothesis test ``test``, for a subclass that runs
    it again: hypothesis ties each such test to a single class."""
    return given(*strategies)(test.hypothesis.inner_test)


@pytest.mark.usefixtures("numpy_kernels")
class TestDenseNumpy(TestDense):
    """``TestDense`` on the numpy kernels."""

    test_matches_oracle_on_any_shard = rerun(TestDense.test_matches_oracle_on_any_shard, fc_cases())


@pytest.mark.usefixtures("numpy_kernels")
class TestConvNumpy(TestConv):
    """``TestConv`` on the numpy kernels."""

    test_matches_oracle_on_any_shape = rerun(TestConv.test_matches_oracle_on_any_shape, conv_cases())
    test_batch_matches_oracle_on_each_frame = rerun(
        TestConv.test_batch_matches_oracle_on_each_frame,
        conv_cases(), st.integers(1, 4), st.sampled_from([1, 200, engine.PATCH_BYTES]))


@pytest.mark.usefixtures("numpy_kernels")
class TestUfuncBufferNumpy(TestUfuncBuffer):
    """``TestUfuncBuffer`` on the numpy kernels."""


# 1 + 2**-12: its square, 1 + 2**-11 + 2**-24, rounds to 1 + 2**-11 in
# float32, so -1 + round(square) is 2**-11 while a fused multiply-add,
# which adds the unrounded square, gives 2**-11 + 2**-24.
ONE_PLUS = np.float32(1 + 2.0**-12)


class TestKernelContract:
    """What either backend must hold to: products rounded on their own,
    every bad call refused before it reaches a kernel, and any layout
    or dtype of operand taken as its float32 values."""

    def test_fc_rounds_each_product(self):
        # 70 equal rows: one full block of rows and a tail in the C kernel
        w = np.tile(np.array([1, ONE_PLUS], np.float32), (70, 1))
        p = LayerParams(w=w, b=np.zeros(70, np.float32))
        x = np.array([-1, ONE_PLUS], np.float32)
        assert np.float32(ONE_PLUS * ONE_PLUS) == np.float32(1 + 2.0**-11)
        want = np.full(70, 2.0**-11, np.float32)
        assert forward_fc(x, p).tobytes() == want.tobytes()
        assert forward_fc(x, p, rows=(5, 6)).tobytes() == want[:1].tobytes()

    def test_conv_rounds_each_product(self):
        # a 1x1 conv over two channels sums the same two products; 9x9
        # positions and 5 filters span full blocks and tails of both
        x = np.broadcast_to(np.array([-1, ONE_PLUS], np.float32), (9, 9, 2))
        w = np.broadcast_to(np.array([1, ONE_PLUS], np.float32), (5, 1, 1, 2))
        out = forward_conv(x, LayerParams(w=w.copy(), b=np.zeros(5, np.float32)))
        assert out.tobytes() == np.full((9, 9, 5), 2.0**-11, np.float32).tobytes()

    @pytest.mark.parametrize("rows", [(3, 3), (5, 2), (-1, 2), (0, 9), (8, 9)])
    def test_fc_rejects_empty_or_outside_rows(self, rows):
        p = LayerParams(w=np.zeros((8, 3), np.float32), b=np.zeros(8, np.float32))
        with pytest.raises(EngineError):
            forward_fc(np.zeros(3, np.float32), p, rows=rows)

    def test_fc_rejects_a_bias_of_another_size(self):
        p = LayerParams(w=np.zeros((8, 3), np.float32), b=np.zeros(7, np.float32))
        with pytest.raises(EngineError):
            forward_fc(np.zeros(3, np.float32), p)

    def test_conv_rejects_a_bias_of_another_size(self):
        p = LayerParams(w=np.zeros((4, 3, 3, 2), np.float32), b=np.zeros(3, np.float32))
        with pytest.raises(EngineError):
            forward_conv(np.zeros((5, 5, 2), np.float32), p)

    def test_fc_takes_any_layout_and_dtype(self):
        r = np.random.default_rng(3)
        w = r.uniform(-0.05, 0.05, (9, 40)).astype(np.float32)
        b = r.uniform(-0.05, 0.05, 9).astype(np.float32)
        x = r.uniform(-1, 1, 80).astype(np.float32)[::2]
        assert not x.flags.c_contiguous
        want = fc_oracle(w, b, np.ascontiguousarray(x))
        fortran = LayerParams(w=np.asfortranarray(w), b=b)
        for got in (forward_fc(x, LayerParams(w=w, b=b)),
                    forward_fc(x.astype(np.float64), LayerParams(w=w, b=b)),
                    forward_fc(x, fortran), forward_fc(x, freeze(fortran))):
            assert got.dtype == np.float32 and got.tobytes() == want.tobytes()

    def test_conv_takes_any_layout_and_dtype(self):
        r = np.random.default_rng(4)
        x = r.uniform(-1, 1, (7, 12, 3)).astype(np.float32)[:, ::2]
        w = r.uniform(-0.05, 0.05, (5, 3, 3, 3)).astype(np.float32)
        b = r.uniform(-0.05, 0.05, 5).astype(np.float32)
        want = conv_oracle(np.ascontiguousarray(x), w, b, 1, "same").tobytes()
        for xs, ws in ((x, w), (x.astype(np.float64), np.asfortranarray(w))):
            assert forward_conv(xs, LayerParams(w=ws, b=b)).tobytes() == want

    def test_fortran_order_override_weights_give_the_reference(self, monkeypatch):
        g = build_model("two_stream", 1 / 32, seed=7)
        frames = make_clip(g, frames_needed(g, 3), seed=11)
        ref = run_reference(g, {g.inputs[0]: frames})
        shared = engine.shared_params

        def fortran(graph, name):
            p = shared(graph, name)
            return p if p.w is None else replace(p, w=np.asfortranarray(p.w))
        monkeypatch.setattr(engine, "shared_params", fortran)
        ex = engine.TaskExecutor(g)
        got = {}
        for tag, frame in enumerate(frames):
            for em in ex.push(g.inputs[0], tag, frame):
                got.setdefault(em.layer, {})[em.tag] = em.value
        ex.batch.flush()
        assert sorted(got) == sorted(ref)
        for sink, by_tag in ref.items():
            assert sorted(got[sink]) == sorted(by_tag)
            for tag, value in by_tag.items():
                assert np.asarray(got[sink][tag]).tobytes() == value.tobytes()


@pytest.mark.usefixtures("numpy_kernels")
class TestKernelContractNumpy(TestKernelContract):
    """``TestKernelContract`` on the numpy kernels."""


class TestPointwise:
    def test_norm_near_identity_with_unit_stats(self):
        p = LayerParams(mean=np.zeros(4, np.float32), var=np.ones(4, np.float32),
                        gamma=np.ones(4, np.float32), beta=np.zeros(4, np.float32))
        x = rng.uniform(-3, 3, (5, 4)).astype(np.float32)
        out = forward_norm(x, p)
        assert np.max(np.abs(out - x)) <= 1e-5 * np.max(np.abs(x))

    def test_norm_rejects_nonpositive_variance(self):
        p = LayerParams(mean=np.zeros(2, np.float32), var=np.array([1, 0], np.float32),
                        gamma=np.ones(2, np.float32), beta=np.zeros(2, np.float32))
        with pytest.raises(EngineError):
            forward_norm(np.zeros((3, 2), np.float32), p)

    def test_softmax_uniform_input(self):
        out = forward_softmax(np.zeros(51, np.float32))
        assert np.allclose(out, 1.0 / 51, atol=1e-7)

    def test_maxpool_2x2(self):
        x = np.array([[1, 2], [3, 4]], np.float32).reshape(2, 2, 1)
        assert forward_maxpool(x, 2, 2).reshape(()) == np.float32(4)

    def test_relu(self):
        x = np.array([-1, 0, 2], np.float32)
        assert np.array_equal(forward_relu(x), np.array([0, 0, 2], np.float32))

    @pytest.mark.parametrize("window,stride", [(2, 2), (3, 2), (3, 1)])
    def test_batch_equals_each_frame(self, window, stride):
        x = with_zeros(rng, rng.uniform(-1, 1, (4, 7, 6, 3)), 0.5, 0.5)
        p = LayerParams(mean=rng.uniform(-0.05, 0.05, 3).astype(np.float32),
                        var=rng.uniform(0.9, 1.1, 3).astype(np.float32),
                        gamma=rng.uniform(0.95, 1.05, 3).astype(np.float32),
                        beta=np.array([0.0, -0.0, 0.01], np.float32))
        for kernel in (lambda v: forward_maxpool(v, window, stride), forward_relu,
                       lambda v: forward_norm(v, p)):
            got = kernel(x)
            for frame, out in zip(x, got):
                assert out.tobytes() == kernel(frame).tobytes()

    @given(st.lists(st.floats(min_value=-100, max_value=100, width=32),
                    min_size=1, max_size=512))
    @settings(max_examples=60, deadline=None)
    def test_softmax_normalization(self, vals):
        out = forward_softmax(np.array(vals, np.float32))
        assert abs(float(np.sum(out, dtype=np.float64)) - 1.0) <= 1e-6


def pyramid_oracle(frames, levels):
    """Brute force: enumerate ranges and take maxes with Python loops."""
    flat = [np.asarray(f, np.float32).reshape(-1) for f in frames]
    rows = []
    for k in range(levels):
        for start, end in pyramid_ranges(len(flat), 2 ** k):
            acc = flat[start].copy()
            for item in flat[start + 1:end]:
                acc = np.maximum(acc, item)
            rows.append(acc)
    return np.stack(rows)


class TestPyramid:
    def test_constant_sequence(self):
        frames = [np.full(8, 3.5, np.float32)] * 6
        out = temporal_pyramid(frames, 4)
        assert out.shape == (15, 8)
        assert np.all(out == np.float32(3.5))

    def test_single_frame_fills_all_rows(self):
        f = rng.uniform(-1, 1, 16).astype(np.float32)
        out = temporal_pyramid([f], 4)
        assert out.shape == (15, 16)
        assert np.array_equal(out, np.tile(f, (15, 1)))

    def test_eight_frames_match_bruteforce(self):
        frames = [rng.uniform(-1, 1, 10).astype(np.float32) for _ in range(8)]
        assert np.array_equal(temporal_pyramid(frames, 4), pyramid_oracle(frames, 4))

    def test_uneven_split_gives_earlier_ranges_extra(self):
        assert pyramid_ranges(5, 2) == [(0, 3), (3, 5)]
        assert pyramid_ranges(7, 4) == [(0, 2), (2, 4), (4, 6), (6, 7)]

    def test_empty_rejected(self):
        with pytest.raises(EngineError):
            temporal_pyramid([], 4)

    @pytest.mark.parametrize("n", range(1, 18))
    def test_signed_zeros_match_oracle_bytes(self, n):
        """Ranges of mixed +0.0 and -0.0 keep the sign max keeps, for
        items of one, two and twelve elements, some of them all zeros.
        Several draws each: ``np.maximum.reduce`` over one-element items
        picks the other zero only on some sign patterns of 17 items."""
        r = np.random.default_rng(n)
        cases = itertools.product(((1,), (2,), (3, 4)), (0.8, 1.0), (0.0, 0.5, 1.0), range(8))
        for shape, share, neg, _draw in cases:
            frames = [with_zeros(r, r.uniform(-1, 1, shape), share, neg) for _ in range(n)]
            for levels in (1, 4):
                got = temporal_pyramid(frames, levels)
                want = pyramid_oracle(frames, levels)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (shape, share, neg, levels)

    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_row_zero_dominates_everything(self, n, seed):
        r = np.random.default_rng(seed)
        frames = [r.uniform(-5, 5, 6).astype(np.float32) for _ in range(n)]
        out = temporal_pyramid(frames, 4)
        assert out.shape[0] == 15
        assert np.all(out[0] >= out[1:])

    @given(st.integers(1, 5), st.integers(1, 17), st.sampled_from([1, 2, 3, 12]),
           st.integers(1, 4), st.integers(0, 2**32 - 1))
    @example(windows=3, items=5, size=1, levels=4, seed=0)
    @settings(max_examples=150, deadline=None)
    def test_batch_of_windows_matches_each_window_bytes(self, windows, items, size, levels, seed):
        """A (windows, items, size) batch pools each window as its own
        call does, byte for byte: items of one and more elements, mixed
        signed zeros and NaNs of either sign, and fewer items than a
        level's ranges (ranges then share items)."""
        r = np.random.default_rng(seed)
        pool = np.array([0.0, -0.0, np.nan, -np.nan, 1.0, -1.0], np.float32)
        batch = np.where(r.random((windows, items, size)) < 0.7,
                         r.choice(pool, (windows, items, size)),
                         r.uniform(-1, 1, (windows, items, size))).astype(np.float32)
        got = temporal_pyramid(batch, levels)
        assert got.shape == (windows, 2 ** levels - 1, size) and got.dtype == np.float32
        for w in range(windows):
            assert got[w].tobytes() == temporal_pyramid(list(batch[w]), levels).tobytes()


class TestFlowStack:
    def test_identical_frames_zero_flow(self):
        f = rng.uniform(0, 1, (6, 5, 3)).astype(np.float32)
        out = flow_stack([f] * 11, 10)
        assert out.shape == (6, 5, 20)
        assert np.all(out == 0)

    def test_paper_sized_stack(self):
        frames = [rng.uniform(0, 1, (16, 12, 3)).astype(np.float32) for _ in range(11)]
        assert flow_stack(frames, 10).shape == (16, 12, 20)

    def test_stub_equals_hand_computed_difference(self):
        a = rng.uniform(0, 1, (4, 3, 3)).astype(np.float32)
        b = rng.uniform(0, 1, (4, 3, 3)).astype(np.float32)
        d = b.mean(axis=-1, dtype=np.float32) - a.mean(axis=-1, dtype=np.float32)
        out = flow_stack([a, b], 1)
        assert np.array_equal(out[..., 0], d)
        assert np.array_equal(out[..., 1], d)

    def test_wrong_frame_count(self):
        with pytest.raises(EngineError):
            flow_stack([np.zeros((2, 2))] * 3, 10)

    def test_mismatched_shapes(self):
        with pytest.raises(EngineError):
            flow_diff_stub(np.zeros((2, 2)), np.zeros((3, 2)))


class CountingFlow:
    """``flow_diff_stub`` that records the frame pairs it is called on."""

    def __init__(self):
        self.pairs = []

    def __call__(self, prev, cur):
        self.pairs.append((prev, cur))
        return flow_diff_stub(prev, cur)


def count_flows(monkeypatch) -> CountingFlow:
    """Count the flow fields that executors compute: they call the
    module's ``flow_diff_stub``."""
    flow = CountingFlow()
    monkeypatch.setattr(engine, "flow_diff_stub", flow)
    return flow


def flow_executor():
    """Executor owning two_stream's camera and flow stack."""
    g = build_model("two_stream", 0.125, seed=1)
    return engine.TaskExecutor(g, owned=["camera", "flow"], emit=["flow"])


def push_flows(ex, frames, tags):
    """Push ``frames[t]`` for each tag and flush; returns {end tag: flow
    stack}."""
    out = {}
    for t in tags:
        for em in ex.push("camera", t, frames[t]):
            out[em.tag] = em.value
    ex.batch.flush()
    return {t: engine.value_of(v) for t, v in out.items()}


class TestFlowCache:
    frames = rng.uniform(0, 1, (48, 16, 12, 3)).astype(np.float32)

    def test_reference_computes_each_pair_once(self, monkeypatch):
        g = build_model("two_stream", 0.125, seed=1)
        n = 30
        want = run_reference(g, {"camera": self.frames[:n]})["out"]
        counting = count_flows(monkeypatch)
        got = run_reference(g, {"camera": self.frames[:n]})["out"]
        assert len(counting.pairs) == n - 1
        for t, (prev, cur) in enumerate(counting.pairs):
            assert np.array_equal(prev, self.frames[t])
            assert np.array_equal(cur, self.frames[t + 1])
        assert sorted(got) == sorted(want)
        assert all(got[t].tobytes() == want[t].tobytes() for t in want)

    def test_stacks_equal_flow_stack(self):
        stacks = push_flows(flow_executor(), self.frames, range(20))
        assert sorted(stacks) == list(range(10, 20))
        for end, value in stacks.items():
            assert value.tobytes() == flow_stack(list(self.frames[end - 10:end + 1]), 10).tobytes()

    @pytest.mark.parametrize("gap", ["handoff", "skip"])
    def test_no_field_survives_a_gap(self, gap, monkeypatch):
        counting = count_flows(monkeypatch)
        ex = flow_executor()
        before = push_flows(ex, self.frames, range(15))
        assert len(before) == 5 and len(counting.pairs) == 14
        if gap == "handoff":
            ex.mark_handoff()
        else:
            ex.skip("camera", 20)
        counting.pairs.clear()
        after = push_flows(ex, self.frames, range(20, 36))
        # windows restart at tag 20: every pair after the gap is computed
        # once, and none from before it is reused
        assert sorted(after) == list(range(30, 36))
        assert len(counting.pairs) == 15
        for end, value in after.items():
            assert value.tobytes() == flow_stack(list(self.frames[end - 10:end + 1]), 10).tobytes()


class TestReference:
    def test_two_stream_clip_gives_normalized_distributions(self):
        g = build_model("two_stream", 0.125, seed=1)
        frames = np.random.default_rng(1).uniform(0, 1, (30, 16, 12, 3)).astype(np.float32)
        out = run_reference(g, {"camera": frames})["out"]
        assert sorted(out) == list(range(24, 30))
        for v in out.values():
            assert v.shape == (51,)
            assert abs(float(v.sum(dtype=np.float64)) - 1.0) <= 1e-6

    def test_runs_are_bit_identical(self):
        g = build_model("two_stream", 0.125, seed=2)
        frames = np.random.default_rng(5).uniform(0, 1, (28, 16, 12, 3)).astype(np.float32)
        a = run_reference(g, {"camera": frames})["out"]
        b = run_reference(g, {"camera": frames})["out"]
        assert set(a) == set(b)
        for t in a:
            assert np.array_equal(a[t], b[t])

    def test_missing_input_rejected(self):
        g = build_model("two_stream", 0.125, seed=1)
        with pytest.raises(EngineError):
            run_reference(g, {})

    def test_deterministic_params(self):
        from edgeflock.engine import params_for
        g1 = build_model("alexnet", 0.125, seed=9)
        g2 = build_model("alexnet", 0.125, seed=9)
        p1, p2 = params_for(g1, "conv_1"), params_for(g2, "conv_1")
        assert np.array_equal(p1.w, p2.w)
        assert np.all(params_for(g1, "norm_1").var > 0)
        assert np.all(np.abs(p1.w) <= 0.05)

    @pytest.mark.parametrize("model", ["two_stream", "alexnet", "vgg16"])
    @pytest.mark.parametrize("scale", [1 / 32, 1 / 8])
    def test_shared_weights_are_held_once_tap_major(self, model, scale):
        """Each weighted layer's shared ``w`` is a read-only view of the
        tap-major matrix the kernels read, and ``params_for`` draws the
        values of one full-size float64 draw rounded to float32."""
        g = build_model(model, scale, seed=4711)
        weighted = [n for n in g.topo_order if g.layer(n).kind in ("fc", "conv")]
        assert weighted
        for name in weighted:
            p = engine.shared_params(g, name)
            wt = engine._tap_major(p)
            assert np.shares_memory(p.w, wt), name
            assert not p.w.flags.writeable and not wt.flags.writeable, name
            generated = engine.params_for(g, name)
            draw = np.random.default_rng([g.seed, g.layer(name).weights_seed])
            for got in (generated.w, generated.b):
                want = draw.uniform(-0.05, 0.05, got.shape).astype(np.float32)
                assert got.tobytes() == want.tobytes(), name
            assert np.array_equal(p.w, generated.w) and np.array_equal(p.b, generated.b), name


def replay(ex, script, run_lengths):
    """Drive ``ex`` through ``script`` and collect what it reports.

    ``script`` holds ("push", first tag, frames), ("skip", next tag) and
    ("handoff",) steps.  The pushes go in runs whose lengths cycle
    through ``run_lengths``, and the batch is flushed after each run and
    at the end; after a length of 0 only the batch's own caps flush it.
    Returns the emissions as (layer, tag, dtype, shape, bytes), the
    fired_log and the skip notices, each in the order they came.
    """
    emitted, fired, notices = [], [], []
    lengths = iter(run_lengths * 1000)
    left = next(lengths)
    for step in script:
        if step[0] == "skip":
            notices += [(no.layer, no.next_tag) for no in ex.skip("camera", step[1])]
            continue
        if step[0] == "handoff":
            ex.mark_handoff()
            continue
        _, first, frames = step
        for i, frame in enumerate(frames):
            emitted += ex.push("camera", first + i, frame)
            fired += ex.fired_log
            notices += [(no.layer, no.next_tag) for no in ex.pending_notices]
            left -= 1
            if left == 0:
                ex.batch.flush()
                left = next(lengths)
    ex.batch.flush()
    values = [(em.layer, em.tag, np.asarray(em.value)) for em in emitted]
    return [(layer, tag, v.dtype.str, v.shape, v.tobytes()) for layer, tag, v in values], fired, notices


@contextmanager
def caps(run_tags, run_bytes):
    """Run with batch caps of ``run_tags`` firings and ``run_bytes`` bytes."""
    saved = engine.RUN_TAGS, engine.RUN_BYTES
    engine.RUN_TAGS, engine.RUN_BYTES = run_tags, run_bytes
    try:
        yield
    finally:
        engine.RUN_TAGS, engine.RUN_BYTES = saved


class TestRuns:
    graph = build_model("two_stream", 1 / 32, seed=3)
    frames = make_clip(graph, 100, 3)
    # windows fill, a declared gap, more tags, a handoff, more tags
    script = [("push", 0, frames[:40]), ("skip", 45), ("push", 45, frames[45:70]),
              ("handoff",), ("push", 75, frames[75:100])]

    def executor(self):
        return engine.TaskExecutor(self.graph, emit=self.graph.topo_order)

    @pytest.fixture(scope="class")
    def single(self):
        """The script flushed after every push."""
        return replay(self.executor(), self.script, [1])

    @pytest.mark.parametrize("run_lengths", [[16], [3, 1, 7], [2, 16, 5, 1]])
    def test_runs_equal_single_pushes(self, single, run_lengths):
        got = replay(self.executor(), self.script, run_lengths)
        assert got == single
        layers = {e[0] for e in single[0]}
        assert {"flow", "pyr_s", "pyr_t", "fuse", "out"} <= layers
        assert single[2], "the gap and the handoff declare skips"

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=8), st.integers(1, 16),
           st.sampled_from([1, 5000, 2 << 20]))
    @settings(max_examples=15, deadline=None)
    def test_any_flush_points_give_the_same_values(self, single, run_lengths, run_tags,
                                                     run_bytes):
        with caps(run_tags, run_bytes):
            got = replay(self.executor(), self.script, run_lengths)
        assert got == single

    def test_reference_runs_and_patch_matrices_stay_under_their_caps(self, monkeypatch):
        groups, calls = [], []
        compute, lay_out = engine.TaskExecutor._compute, engine.im2col

        def compute_spy(ex, name, assembly, firings):
            # a batched group counts its stacked inputs too
            nbytes = 4 * sum(max(p.size, np.asarray(p.args).size) for p in firings) \
                if g.layer(name).kind in ("conv", "relu", "norm", "maxpool") \
                else 4 * sum(p.size for p in firings)
            groups.append((name, len(firings), nbytes))
            return compute(ex, name, assembly, firings)

        def im2col_spy(x, *args):
            patches, extent = lay_out(x, *args)
            calls.append((x.shape[0] if x.ndim == 4 else 1, patches.nbytes))
            return patches, extent
        monkeypatch.setattr(engine.TaskExecutor, "_compute", compute_spy)
        monkeypatch.setattr(engine, "im2col", im2col_spy)
        # layer inputs or outputs of at most 24 KiB, 0.6 MB and 1.6 MB a frame
        for model, scale, n, longest in (("two_stream", 1 / 8, 40, engine.RUN_TAGS),
                                         ("alexnet", 1 / 8, 8, 3), ("vgg16", 1 / 8, 2, 1)):
            g = build_model(model, scale, seed=1)
            groups.clear()
            run_reference(g, {g.inputs[0]: make_clip(g, n, 1)})
            assert max(size for _, size, _ in groups) == longest
            first = g.consumers(g.inputs[0])[0]
            assert sum(size for name, size, _ in groups if name == first) == n
            assert all(size <= engine.RUN_TAGS for _, size, _ in groups)
            assert all(size == 1 or nbytes <= engine.RUN_BYTES for _, size, nbytes in groups)
        assert all(frames == 1 or nbytes <= engine.PATCH_BYTES for frames, nbytes in calls)
        assert max(frames for frames, _ in calls) == engine.RUN_TAGS

    def test_iterable_input_equals_array_input(self):
        frames = self.frames[:40]
        want = run_reference(self.graph, {"camera": frames})["out"]
        got = run_reference(self.graph, {"camera": (f.tolist() for f in frames)})["out"]
        assert sorted(got) == sorted(want)
        assert all(got[t].tobytes() == want[t].tobytes() for t in want)

    def test_pending_values_have_their_shapes_before_the_flush(self):
        ex = self.executor()
        with caps(64, 2 << 20):
            emitted = [em for t in range(30) for em in ex.push("camera", t, self.frames[t])]
        pending = [em for em in emitted if isinstance(em.value, engine.Pending)]
        assert {em.layer for em in pending} >= {"conv_1s", "flow", "pyr_s", "fuse", "smax"}
        with pytest.raises(EngineError, match="before its batch was flushed"):
            np.asarray(pending[0].value)
        shapes = [(em.value.shape, em.value.ndim, em.value.size) for em in pending]
        ex.batch.flush()
        assert len(ex.batch) == 0
        assert shapes == [(np.asarray(em.value).shape, np.asarray(em.value).ndim,
                           np.asarray(em.value).size) for em in pending]


class TestRowShards:
    """fc_d2 (256 rows at 1/32) split three ways, 86/85/85 rows, and the
    fc_d3 executor that assembles its terminal act_d2 from the parts."""

    graph = build_model("two_stream", 1 / 32, seed=3)
    rows = split_fc_rows(256, 3)
    x = np.random.default_rng(5).uniform(-1, 1, 256).astype(np.float32)

    def parts(self, tags):
        """act_d2's row shards at each tag, computed; and the whole value."""
        batch = engine.Batch()
        whole = engine.TaskExecutor(self.graph, owned=["fc_d2", "act_d2"], batch=batch)
        shards = [engine.TaskExecutor(self.graph, owned=["fc_d2", "act_d2"], part=("fc_d2", lo, hi),
                                      batch=batch) for lo, hi in self.rows]
        full = [whole.push("act_d1", t, self.x)[0].value for t in tags]
        parts = {t: [ex.push("act_d1", t, self.x)[0].value for ex in shards] for t in tags}
        batch.flush()
        assert [p.shape for p in parts[tags[0]]] == [(86,), (85,), (85,)]
        return parts, np.asarray(full[0])

    def consumer(self):
        ex = engine.TaskExecutor(self.graph, owned=["fc_d3"])
        joined = []
        join_rows = ex.join_rows
        ex.join_rows = lambda *a: joined.append(join_rows(*a)) or joined[-1]
        return ex, joined

    def test_assembly_waits_for_every_row_in_any_order(self):
        orders = list(itertools.permutations(range(3)))
        parts, full = self.parts(list(range(len(orders))))
        ex, joined = self.consumer()
        for tag, order in enumerate(orders):
            for i in order[:-1]:
                assert ex.push_part("act_d2", tag, i, parts[tag][i]) == []
                assert ex.fired_log == [] and ex.pending_notices == []
            out = ex.push_part("act_d2", tag, order[-1], parts[tag][order[-1]])
            assert [(em.layer, em.tag) for em in out] == [("fc_d3", tag)]
            assert ex.fired_log == ["fc_d3"]
        ex.batch.flush()
        assert [p.tag for p in joined] == list(range(len(orders)))
        for p in joined:
            assert np.asarray(p).tobytes() == full.tobytes()

    def test_skip_drops_parts_below_next_tag(self):
        parts, _full = self.parts([0, 1, 2, 3])
        ex, joined = self.consumer()
        for tag in range(4):
            assert ex.push_part("act_d2", tag, 0, parts[tag][0]) == []
        ex.skip("act_d2", 2)
        for tag in range(4):
            assert ex.push_part("act_d2", tag, 1, parts[tag][1]) == []
            out = ex.push_part("act_d2", tag, 2, parts[tag][2])
            assert [em.tag for em in out] == ([] if tag < 2 else [tag])
        assert [p.tag for p in joined] == [2, 3]


# sha256 of run_reference's outputs (sink, tag, dtype, shape, bytes) for
# build_model(model, scale, seed=7) over make_clip(graph, frames_needed(graph,
# outputs), seed=11).  Kernel changes must not move them.
GOLDEN_OUTPUTS = {
    ("two_stream", 0.125, 4): "4cbc8eb73559839e313d12dffde9d913a8afccf8921b74367b68d93e372d15c5",
    ("two_stream", 0.03125, 4): "a6b475fe4ad6c4e5d83c4f5096baa4f34b007998ad9944124671574e646b1d60",
    ("alexnet", 0.125, 2): "313d22662a53b749c22083b88313def153efaeb76e72dd03ddc32690883c3783",
    ("vgg16", 0.125, 2): "a1c1e9d2afa0e9b85c2a1c9f5ac0d36345fc579509b59cf3d3bc49fbad465f2d",
}


def golden_digest(model, scale, outputs):
    """The sha256 that ``GOLDEN_OUTPUTS`` holds for these arguments."""
    g = build_model(model, scale, seed=7)
    frames = make_clip(g, frames_needed(g, outputs), seed=11)
    digest = hashlib.sha256()
    for sink, by_tag in sorted(run_reference(g, {g.inputs[0]: frames}).items()):
        assert len(by_tag) == outputs
        for tag, value in sorted(by_tag.items()):
            digest.update(f"{sink}:{tag}:{value.dtype}:{value.shape}".encode())
            digest.update(value.tobytes())
    return digest.hexdigest()


class TestGoldenOutputs:
    @pytest.mark.parametrize("model,scale,outputs", sorted(GOLDEN_OUTPUTS))
    def test_reference_outputs_unchanged(self, model, scale, outputs):
        assert golden_digest(model, scale, outputs) == GOLDEN_OUTPUTS[(model, scale, outputs)]


@pytest.mark.usefixtures("numpy_kernels")
class TestGoldenOutputsNumpy(TestGoldenOutputs):
    """``TestGoldenOutputs`` on the numpy kernels."""


class TestKernelLoader:
    """``_load_kernels`` gives None, and the numpy kernels, whenever it
    cannot build and load the compiled ones."""

    def test_missing_compiler_keeps_the_numpy_kernels(self, monkeypatch):
        monkeypatch.setattr(engine, "_compiler", lambda: "/nonexistent/edgeflock-cc")
        lib = engine._load_kernels()
        assert lib is None
        monkeypatch.setattr(engine, "_KERNELS", lib)
        assert golden_digest("two_stream", 0.03125, 4) == GOLDEN_OUTPUTS[("two_stream", 0.03125, 4)]

    def test_build_leaves_no_file_beside_the_source(self):
        if engine._KERNELS is None:
            pytest.skip("no working C compiler")
        package = engine._KERNELS_SOURCE.parent
        before = sorted(package.iterdir())
        lib = engine._load_kernels()
        assert lib is not None and "-ffp-contract=off" in lib.build_command
        assert sorted(package.iterdir()) == before

    def test_retries_without_march_native(self, tmp_path, monkeypatch):
        if engine._KERNELS is None:
            pytest.skip("no working C compiler")
        shim = tmp_path / "cc"
        shim.write_text('#!/bin/sh\ncase "$*" in *-march=native*) exit 1;; esac\n'
                        f'exec {engine._compiler()} "$@"\n')
        shim.chmod(0o755)
        monkeypatch.setattr(engine, "_compiler", lambda: str(shim))
        lib = engine._load_kernels()
        assert lib is not None and "-march=native" not in lib.build_command
        monkeypatch.setattr(engine, "_KERNELS", lib)
        assert golden_digest("two_stream", 0.03125, 4) == GOLDEN_OUTPUTS[("two_stream", 0.03125, 4)]

    def test_compile_timeout_keeps_the_numpy_kernels(self, tmp_path, monkeypatch):
        shim = tmp_path / "cc"
        shim.write_text("#!/bin/sh\nexec sleep 30\n")
        shim.chmod(0o755)
        monkeypatch.setattr(engine, "_compiler", lambda: str(shim))
        monkeypatch.setattr(engine, "_COMPILE_TIMEOUT_S", 0.5)
        assert engine._load_kernels() is None
