"""Forward kernels against independent brute-force oracles.

The dense/conv oracles below are scalar loops accumulating in float32
in ascending index order; kernel outputs must match them bit for bit.
"""

import hashlib
from contextlib import contextmanager

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

    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_row_zero_dominates_everything(self, n, seed):
        r = np.random.default_rng(seed)
        frames = [r.uniform(-5, 5, 6).astype(np.float32) for _ in range(n)]
        out = temporal_pyramid(frames, 4)
        assert out.shape[0] == 15
        assert np.all(out[0] >= out[1:])


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


def flow_executor(flow_fn):
    """Executor owning two_stream's camera and flow stack."""
    g = build_model("two_stream", 0.125, seed=1)
    return engine.TaskExecutor(g, owned=["camera", "flow"], emit=["flow"], flow_fn=flow_fn)


def push_flows(ex, frames, tags):
    """Push ``frames[t]`` for each tag; returns {end tag: flow stack}."""
    out = {}
    for t in tags:
        for em in ex.push("camera", t, frames[t]):
            out[em.tag] = em.value
    return out


class TestFlowCache:
    frames = rng.uniform(0, 1, (48, 16, 12, 3)).astype(np.float32)

    def test_reference_computes_each_pair_once(self):
        g = build_model("two_stream", 0.125, seed=1)
        n = 30
        counting = CountingFlow()
        got = run_reference(g, {"camera": self.frames[:n]}, flow_fn=counting)["out"]
        assert len(counting.pairs) == n - 1
        for t, (prev, cur) in enumerate(counting.pairs):
            assert np.array_equal(prev, self.frames[t])
            assert np.array_equal(cur, self.frames[t + 1])
        want = run_reference(g, {"camera": self.frames[:n]})["out"]
        assert sorted(got) == sorted(want)
        assert all(got[t].tobytes() == want[t].tobytes() for t in want)

    def test_stacks_equal_flow_stack(self):
        stacks = push_flows(flow_executor(None), self.frames, range(20))
        assert sorted(stacks) == list(range(10, 20))
        for end, value in stacks.items():
            assert value.tobytes() == flow_stack(list(self.frames[end - 10:end + 1]), 10).tobytes()

    @pytest.mark.parametrize("gap", ["handoff", "skip"])
    def test_no_field_survives_a_gap(self, gap):
        counting = CountingFlow()
        ex = flow_executor(counting)
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

    def test_weight_dump_roundtrips_values(self):
        import json
        from edgeflock.engine import dump_weights, params_for
        g = build_model("two_stream", 0.0625, seed=3)
        doc = json.loads(dump_weights(g, ["fc_d3"]))
        back = np.array(doc["fc_d3"]["w"], np.float32)
        assert np.array_equal(back, params_for(g, "fc_d3").w)


# sha256 of run_reference's outputs (sink, tag, dtype, shape, bytes) for
# build_model(model, scale, seed=7) over make_clip(graph, frames_needed(graph,
# outputs), seed=11).  Kernel changes must not move them.
GOLDEN_OUTPUTS = {
    ("two_stream", 0.125, 4): "4cbc8eb73559839e313d12dffde9d913a8afccf8921b74367b68d93e372d15c5",
    ("two_stream", 0.03125, 4): "a6b475fe4ad6c4e5d83c4f5096baa4f34b007998ad9944124671574e646b1d60",
    ("alexnet", 0.125, 2): "313d22662a53b749c22083b88313def153efaeb76e72dd03ddc32690883c3783",
    ("vgg16", 0.125, 2): "a1c1e9d2afa0e9b85c2a1c9f5ac0d36345fc579509b59cf3d3bc49fbad465f2d",
}


class TestGoldenOutputs:
    @pytest.mark.parametrize("model,scale,outputs", sorted(GOLDEN_OUTPUTS))
    def test_reference_outputs_unchanged(self, model, scale, outputs):
        g = build_model(model, scale, seed=7)
        frames = make_clip(g, frames_needed(g, outputs), seed=11)
        digest = hashlib.sha256()
        for sink, by_tag in sorted(run_reference(g, {g.inputs[0]: frames}).items()):
            assert len(by_tag) == outputs
            for tag, value in sorted(by_tag.items()):
                digest.update(f"{sink}:{tag}:{value.dtype}:{value.shape}".encode())
                digest.update(value.tobytes())
        assert digest.hexdigest() == GOLDEN_OUTPUTS[(model, scale, outputs)]
