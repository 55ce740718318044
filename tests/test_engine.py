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
from edgeflock import model_ir as ir
from edgeflock import runtime
from edgeflock.harness import frames_needed, make_clip, plan_for
from edgeflock.model_ir import LayerSpec, ModelGraph, build_model, validate_graph
from edgeflock.planner import split_fc_rows
from edgeflock.wire import Kind, Message

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


def fc_matrix(wt, outputs):
    """The (outputs, inputs) weights that an fc's row panels ``wt`` hold."""
    ws = -(-outputs // 16) * 16
    inputs = (wt.size - 16) // ws
    panels = []
    for p0 in range(0, outputs, engine.FC_PANEL):
        pw = min(engine.FC_PANEL, ws - p0)
        panel = wt[inputs * p0:inputs * (p0 + pw)].reshape(inputs, pw)
        panels.append(panel[:, :min(pw, outputs - p0)].T)
    return np.concatenate(panels)


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


ZERO_SHARES = st.sampled_from([0.0, 0.3, 1.0])
# Weights take zeros of the opposite sign to inputs and biases, so at 0.0
# and 1.0 every product of two zeros is -0.0, and at 1.0 every zero bias
# is too: a sum must still start at +0.0.
NEG_ZEROS = st.sampled_from([0.0, 0.5, 1.0])
# zero_borders argument that leaves the input as it is
NO_BORDERS = ((0, 0, 0, 0), (False,) * 4)
# Filter counts that reach every tier of the compiled conv (32, 16 and 8
# filters, and a zero-padded tail of 1 to 7 in a tile of 8 or of 9 to 15
# in a tile of 16) alone and together.
FILTERS = st.sampled_from([1, 3, 5, 8, 12, 16, 24, 29, 33, 48, 59])


@st.composite
def fc_cases(draw):
    out = draw(st.integers(1, 12))
    inp = draw(st.integers(1, 40))
    r0 = draw(st.integers(0, out - 1))
    r1 = draw(st.integers(r0 + 1, out))
    return (out, inp, (r0, r1), draw(st.integers(0, 2**31 - 1)), draw(ZERO_SHARES),
            draw(NEG_ZEROS), draw(st.integers(0, out - 1)))


@st.composite
def conv_cases(draw):
    padding = draw(st.sampled_from(["same", "valid"]))
    h, wd = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    top = (h, wd) if padding == "valid" else (4, 4)
    kh, kw = draw(st.integers(1, min(4, top[0]))), draw(st.integers(1, min(4, top[1])))
    borders = (tuple(draw(st.integers(0, n)) for n in (h, h, wd, wd)),
               tuple(draw(st.booleans()) for _ in range(4)))
    return (h, wd, draw(st.integers(1, 20)), draw(FILTERS), kh, kw,
            draw(st.integers(1, 3)), padding, draw(st.integers(0, 2**31 - 1)),
            draw(ZERO_SHARES), draw(NEG_ZEROS), borders)


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
    @example((1, 30, (0, 1), 0, 0.0, 1.0, 0))
    @example((9, 30, (4, 5), 3, 0.3, 0.5, 5))
    @example((6, 5, (0, 6), 1, 1.0, 1.0, 0))
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle_on_any_shard(self, case):
        out, inp, (r0, r1), seed, zeros, neg, zero_row = case
        r = np.random.default_rng(seed)
        w = with_zeros(r, r.uniform(-0.05, 0.05, (out, inp)), zeros, 1 - neg)
        b = with_zeros(r, r.uniform(-0.05, 0.05, out), zeros, neg)
        x = with_zeros(r, r.uniform(-1, 1, inp), zeros, neg)
        w[zero_row % out] = np.where(r.random(inp) < 0.5, -0.0, 0.0)
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

    @pytest.mark.parametrize("special", ["signed zeros", "nan weights", "nan input"])
    @pytest.mark.parametrize("rows", [
        (700, 2300),    # starts mid-panel, spans six panel boundaries
        (0, 2500),      # every row: nine full panels and a last of 196 rows
        (700, 701), (1023, 1024), (1024, 1025), (2047, 2048), (2499, 2500),  # one row
    ])
    def test_rows_across_chunks(self, rows, special):
        # 2500 outputs: row panels of FC_PANEL = 256 rows, the last of 196
        r = np.random.default_rng(rows[0] * 7 + len(special))
        w = with_zeros(r, r.uniform(-0.05, 0.05, (2500, 7)), 0.3, 0.5)
        b = with_zeros(r, r.uniform(-0.05, 0.05, 2500), 0.3, 0.5)
        x = with_zeros(r, r.uniform(-1, 1, 7), 0.4, 0.5)
        if special == "nan weights":
            w[::97, 3] = np.nan   # NaN rows on both sides of each chunk boundary
            w[1023:1026, 5] = np.nan
        elif special == "nan input":
            x[2] = np.nan
        lo, hi = rows
        want = fc_oracle(w[lo:hi], b[lo:hi], x).tobytes()
        for p in (LayerParams(w=w, b=b), freeze(LayerParams(w=w.copy(), b=b.copy()))):
            assert forward_fc(x, p, rows=rows).tobytes() == want


with np.errstate(invalid="ignore"):
    # The NaN this machine makes of an invalid operation.  Every NaN the
    # fc oracle cases hold or make has these bits, so a sum's NaN does
    # not depend on which operand of an addition a machine propagates.
    DEFAULT_NAN = np.float32(np.inf) * np.float32(0.0)
SPECIALS = {"zero": (0.0, -0.0), "nan": (DEFAULT_NAN,), "inf": (np.inf, -np.inf),
            "subnormal": (1e-40, -1e-40, 1.4e-45, -1.4e-45)}


def fc_sequential(w, b, x):
    """The fc oracle: each float32 product rounded, the products added in
    ascending input order from +0.0, the bias added last.  Vectorized
    across rows only, so each row's sum is the scalar loop's."""
    acc = np.zeros(w.shape[0], np.float32)
    with np.errstate(all="ignore"):
        for j in range(w.shape[1]):
            acc = acc + w[:, j] * x[j]
        return acc + b


@st.composite
def fc_oracle_cases(draw, narrow):
    """(outputs, inputs, rows, seed, input specials, bad weight): the rows
    a range of at most 64 (narrow) or of more (wide), which may end at
    the last row; the specials a subset of SPECIALS that replaces about
    a third of the inputs; the bad weight None, NaN or an infinity."""
    out = draw(st.integers(1 if narrow else 65, 80) | st.integers(1000, 1100))
    width = draw(st.integers(1, min(out, 64)) if narrow else st.integers(65, out))
    lo = out - width if draw(st.booleans()) else draw(st.integers(0, out - width))
    return (out, draw(st.integers(1, 300)), (lo, lo + width), draw(st.integers(0, 2**31 - 1)),
            draw(st.sets(st.sampled_from(sorted(SPECIALS)))),
            draw(st.sampled_from([None, DEFAULT_NAN, np.inf, -np.inf])))


class TestFcOracle:
    """``forward_fc`` byte for byte against ``fc_sequential``, signs of
    zero and NaNs included, on row ranges of at most 64 rows and wider
    ones, at any offset in the layer's row panels: each panel's rows are
    summed in registers and read into the weights' padding, the next
    panel and the slack, and zero inputs are left out when every weight
    is finite."""

    def check(self, case):
        out, inp, (lo, hi), seed, specials, bad = case
        r = np.random.default_rng(seed)
        w = r.uniform(-0.05, 0.05, (out, inp)).astype(np.float32)
        b = with_zeros(r, r.uniform(-0.05, 0.05, out), 0.2, 0.5)
        x = r.uniform(-1, 1, inp).astype(np.float32)
        if specials:
            pool = np.array([v for k in sorted(specials) for v in SPECIALS[k]], np.float32)
            hit = r.random(inp) < 1 / 3
            x[hit] = r.choice(pool, inp)[hit]
        if bad is not None:
            # mostly against a zero input, which a skip would leave out
            zeros = np.flatnonzero(x == 0)
            col = r.choice(zeros) if zeros.size and r.random() < 0.75 else r.integers(inp)
            w[r.integers(lo, hi), col] = bad
        p = freeze(LayerParams(w=w.copy(), b=b.copy()))
        want = fc_sequential(w[lo:hi], b[lo:hi], x)
        assert forward_fc(x, p, rows=(lo, hi)).tobytes() == want.tobytes()
        if (lo, hi) == (0, out):
            assert forward_fc(x, p).tobytes() == want.tobytes()

    @given(fc_oracle_cases(narrow=True))
    @example((1100, 7, (1045, 1100), 1, {"zero"}, None))  # four vectors, into the slack
    @example((1, 3, (0, 1), 2, {"nan", "zero"}, np.inf))
    @example((1100, 40, (255, 257), 5, {"zero", "nan"}, None))  # one row in each of two panels
    @example((300, 33, (256, 300), 6, {"zero"}, None))  # the whole last panel, 44 rows
    @example((600, 20, (200, 257), 7, {"zero", "inf"}, -np.inf))  # ends one row into panel 1
    @example((1000, 45, (300, 348), 11, {"zero"}, None))  # 48 rows: chunks of 2 and 1 vectors
    @settings(max_examples=60, deadline=None)
    def test_narrow_rows_match_the_oracle(self, case):
        self.check(case)

    @given(fc_oracle_cases(narrow=False))
    @example((1100, 300, (1, 1100), 3, {"zero", "subnormal"}, None))  # five panels, two input lists
    @example((1030, 5, (965, 1030), 4, {"zero", "inf"}, -np.inf))
    @example((600, 30, (1, 256), 8, {"zero"}, None))  # ends at panel 0's last row
    @example((600, 30, (255, 600), 9, {"zero", "nan"}, None))  # starts at panel 0's last row
    @example((1030, 12, (257, 1030), 10, {"zero"}, DEFAULT_NAN))  # starts one row into panel 1
    @example((1000, 70, (512, 752), 12, {"zero", "subnormal"}, None))  # 240 rows: 8 + 4 + 2 + 1
    @settings(max_examples=40, deadline=None)
    def test_wide_rows_match_the_oracle(self, case):
        self.check(case)

    @pytest.mark.parametrize("out,rows,inf_row", [
        (40, (0, 40), None), (40, (1, 40), 0),           # narrow
        (1030, (0, 1030), None), (1030, (1, 1030), 0),   # wide: skips, and cannot
    ])
    def test_every_product_negative_zero_sums_to_positive_zero(self, out, rows, inf_row):
        # -0.0 inputs against positive weights, and -0.0 biases: a sum
        # from -0.0 would give -0.0.  An infinite weight in a row outside
        # the range keeps the kernel from leaving the zeros out.
        w = np.random.default_rng(out).uniform(0.01, 0.05, (out, 9)).astype(np.float32)
        if inf_row is not None:
            w[inf_row, 4] = np.inf
        p = freeze(LayerParams(w=w, b=np.full(out, -0.0, np.float32)))
        got = forward_fc(np.full(9, -0.0, np.float32), p, rows=rows)
        assert got.tobytes() == np.zeros(rows[1] - rows[0], np.float32).tobytes()

    @pytest.mark.parametrize("rows", [(lo, hi) for lo in (0, 1, 255, 256, 257)
                                      for hi in (255, 256, 257, 300, 512, 513, 1030) if lo < hi])
    def test_ranges_at_panel_edges(self, rows):
        # 1030 outputs: panels of 256 rows at 0, 256, 512 and 768, and a
        # last panel of 6 rows read 16 at a time
        bad = None if sum(rows) % 2 else np.inf
        self.check((1030, 37, rows, sum(rows), {"zero", "nan", "subnormal"}, bad))

    def test_three_way_uneven_split_of_1024_rows(self):
        rows = split_fc_rows(1024, 3)
        assert rows == [(0, 342), (342, 683), (683, 1024)]
        for i, r in enumerate(rows):
            self.check((1024, 96, r, i, {"zero", "subnormal"}, None))


class TestFcPanels:
    """The fc branch of ``TaskExecutor._step`` computes a group's rows one
    row panel at a time, frames inner, with one ``forward_fc`` call per
    (frame, panel); the bytes are those of one call per frame over the
    whole row range."""

    @staticmethod
    def graph(outputs, inputs):
        layers = {
            "src": LayerSpec("src", "source", {"shape": [inputs]}),
            "fc": LayerSpec("fc", "fc", {"out_size": outputs}, ["src"], weights_seed=1),
            "out": LayerSpec("out", "sink", {}, ["fc"]),
        }
        return validate_graph(ModelGraph(layers, ["src"], ["out"], seed=9))

    @pytest.mark.parametrize("rows", [(200, 500), (256, 512), (0, 700), (255, 257), (600, 700)])
    def test_panel_outer_step_equals_per_frame_calls(self, rows, monkeypatch):
        g = self.graph(700, 96)
        r = np.random.default_rng(sum(rows))
        frames = with_zeros(r, r.uniform(-1, 1, (6, 96)), 0.4, 0.5)
        part = None if rows == (0, 700) else ("fc", *rows)
        ex = engine.TaskExecutor(g, owned=["src", "fc"], part=part)
        calls = []
        real = engine.forward_fc

        def counted(x, params, rows=None, out=None):
            calls.append(rows)
            return real(x, params, rows=rows, out=out)
        monkeypatch.setattr(engine, "forward_fc", counted)
        pushed = [ex.push("src", t, frame) for t, frame in enumerate(frames)]
        ex.batch.flush()
        lo, hi = rows
        panels = [(max(lo, p0), min(hi, p0 + engine.FC_PANEL))
                  for p0 in range(lo - lo % engine.FC_PANEL, hi, engine.FC_PANEL)]
        assert calls == [p for p in panels for _frame in frames]
        shared, generated = engine.shared_params(g, "fc"), engine.params_for(g, "fc")
        for (em,), frame in zip(pushed, frames):
            assert em.layer == "fc"
            got = np.asarray(em.value).tobytes()
            assert got == real(frame, shared, rows=rows).tobytes()
            assert got == fc_sequential(generated.w[lo:hi], generated.b[lo:hi], frame).tobytes()


SENTINEL = np.float32(1234.5)


def sentinel(n, dtype=np.float32):
    return np.full(n, SENTINEL, dtype)


class TestKernelCalls:
    """The compiled functions take the arrays themselves and check each
    one's format, contiguity and writability and every size before they
    touch memory: a bad call raises and writes nothing."""

    @staticmethod
    def fc_operands(outputs=40, inputs=9):
        r = np.random.default_rng(outputs)
        p = freeze(LayerParams(w=r.uniform(-0.05, 0.05, (outputs, inputs)).astype(np.float32),
                               b=r.uniform(-0.05, 0.05, outputs).astype(np.float32)))
        return r.uniform(-1, 1, inputs).astype(np.float32), p.operands[2], p.operands[1], p

    def test_a_good_fc_call_writes_its_rows(self):
        x, wt, b, p = self.fc_operands()
        out = sentinel(30)
        assert engine._KERNELS.fc_rows(x, wt, b, out, 5, 35, True) is None
        assert out.tobytes() == forward_fc(x, p, rows=(5, 35)).tobytes()

    @pytest.mark.parametrize("bad", [
        "short out", "long out", "read-only out", "strided out", "float64 out",
        "strided x", "float64 x", "float64 bias", "short weights", "strided weights",
        "rows (-1, 3)", "rows (5, 5)", "rows (6, 2)", "rows (35, 41)", "six arguments",
    ])
    def test_a_bad_fc_call_raises_and_writes_nothing(self, bad):
        x, wt, b, _p = self.fc_operands()
        lo, hi = {"rows (-1, 3)": (-1, 3), "rows (5, 5)": (5, 5), "rows (6, 2)": (6, 2),
                  "rows (35, 41)": (35, 41)}.get(bad, (5, 35))
        store = sentinel(2 * max(hi - lo, 1))
        out = store[:max(hi - lo, 0)]
        if bad == "short out":
            out = store[:hi - lo - 1]
        elif bad == "long out":
            out = store[:hi - lo + 1]
        elif bad == "read-only out":
            out.setflags(write=False)
        elif bad == "strided out":
            out = store[::2]
        elif bad == "float64 out":
            store = out = sentinel(hi - lo, np.float64)
        elif bad == "strided x":
            x = np.repeat(x, 2)[::2]
        elif bad == "float64 x":
            x = x.astype(np.float64)
        elif bad == "float64 bias":
            b = b.astype(np.float64)
        elif bad == "short weights":
            wt = wt[:-1]
        elif bad == "strided weights":
            wt = np.repeat(wt, 2)[::2]
        before = store.tobytes()
        args = (x, wt, b, out, lo, hi, True)[:6 if bad == "six arguments" else 7]
        with pytest.raises((TypeError, ValueError, BufferError)):
            engine._KERNELS.fc_rows(*args)
        assert store.tobytes() == before

    @staticmethod
    def conv_operands():
        r = np.random.default_rng(12)
        p = freeze(LayerParams(w=r.uniform(-0.05, 0.05, (5, 3, 2, 4)).astype(np.float32),
                               b=r.uniform(-0.05, 0.05, 5).astype(np.float32)))
        return r.uniform(-1, 1, (2, 7, 6, 4)).astype(np.float32), p.operands[2], p.operands[1], p

    def test_a_good_conv_call_writes_every_output(self):
        xp, wt, b, p = self.conv_operands()
        out = sentinel(2 * 3 * 3 * 5).reshape(2, 3, 3, 5)
        assert engine._KERNELS.conv_nhwc(xp, wt, b, out, 3, 2, 2) is None
        assert out.tobytes() == forward_conv(xp, p, stride=2, padding="valid").tobytes()

    @pytest.mark.parametrize("bad", [
        "out shape", "read-only out", "float64 out", "strided out", "float64 xp", "strided xp",
        "xp of rank 3", "kernel taller than xp", "stride 0", "ws not a multiple of 8",
        "taps of another kernel", "more filters than ws",
    ])
    def test_a_bad_conv_call_raises_and_writes_nothing(self, bad):
        xp, wt, b, _p = self.conv_operands()
        kh, kw, stride = 3, 2, 2
        store = sentinel(2 * 2 * 3 * 3 * 9)
        out = store[:2 * 3 * 3 * 5].reshape(2, 3, 3, 5)
        if bad == "out shape":
            out = store[:2 * 3 * 2 * 5].reshape(2, 3, 2, 5)
        elif bad == "read-only out":
            out.setflags(write=False)
        elif bad == "float64 out":
            store = sentinel(2 * 3 * 3 * 5, np.float64)
            out = store.reshape(2, 3, 3, 5)
        elif bad == "strided out":
            out = store[:2 * 2 * 3 * 3 * 5:2].reshape(2, 3, 3, 5)
        elif bad == "float64 xp":
            xp = xp.astype(np.float64)
        elif bad == "strided xp":
            xp = xp[:, :, ::2]
            out = store[:2 * 3 * 1 * 5].reshape(2, 3, 1, 5)
        elif bad == "xp of rank 3":
            xp = xp[0]
        elif bad == "kernel taller than xp":
            kh = 8
        elif bad == "stride 0":
            stride = 0
        elif bad == "ws not a multiple of 8":
            wt = np.ascontiguousarray(wt[:, :6])
        elif bad == "taps of another kernel":
            kw = 1
        elif bad == "more filters than ws":
            b = sentinel(9)
            out = store[:2 * 3 * 3 * 9].reshape(2, 3, 3, 9)
        before = store.tobytes()
        with pytest.raises((TypeError, ValueError, BufferError)):
            engine._KERNELS.conv_nhwc(xp, wt, b, out, kh, kw, stride)
        assert store.tobytes() == before


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
    @example((4, 4, 3, 1, 4, 4, 1, "valid", 0, 0.0, 0.5, NO_BORDERS))
    @example((1, 1, 2, 1, 3, 3, 2, "same", 1, 1.0, 1.0, ((1, 0, 0, 0), (True,) * 4)))
    @example((9, 7, 2, 3, 3, 3, 2, "valid", 2, 0.2, 0.5, ((1, 0, 0, 0), (True,) * 4)))
    @example((9, 7, 3, 1, 4, 4, 1, "same", 3, 0.0, 0.5, NO_BORDERS))
    # -0.0 on every border, +0.0 padding around it, and a mixed ring
    @example((5, 6, 2, 2, 3, 3, 1, "same", 4, 0.0, 1.0, ((1, 1, 1, 1), (True,) * 4)))
    @example((7, 5, 2, 2, 4, 3, 2, "same", 5, 0.3, 0.5, ((2, 1, 1, 2), (True, False, False, True))))
    # stride-4 "valid" with an 11x11 kernel, the shape class of alexnet conv_1
    @example((15, 19, 3, 2, 11, 11, 4, "valid", 6, 0.3, 0.5, ((1, 2, 2, 1), (True, True, False, True))))
    # ... with its 12 filters: one tile of 16, 4 of them zero-padded
    @example((23, 27, 3, 12, 11, 11, 4, "valid", 7, 0.3, 0.5, ((1, 2, 2, 1), (True, True, False, True))))
    # 15 positions, not a multiple of the 8 a compiled tile sums at once,
    # and 59 filters: 32, 16 and a tail of 11 in a tile of 16
    @example((5, 3, 20, 59, 3, 3, 1, "same", 8, 0.3, 0.5, ((1, 0, 0, 1), (True, False, False, True))))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_on_any_shape(self, case):
        h, wd, c, f, kh, kw, stride, padding, seed, zeros, neg, borders = case
        r = np.random.default_rng(seed)
        x = with_zeros(r, r.uniform(-1, 1, (h, wd, c)), zeros, neg)
        zero_borders(x, borders)
        w = with_zeros(r, r.uniform(-0.05, 0.05, (f, kh, kw, c)), zeros, 1 - neg)
        b = with_zeros(r, r.uniform(-0.05, 0.05, f), zeros, neg)
        want = conv_oracle(x, w, b, stride, padding).tobytes()
        for p in (LayerParams(w=w, b=b), freeze(LayerParams(w=w.copy(), b=b.copy()))):
            assert forward_conv(x, p, stride=stride, padding=padding).tobytes() == want

    @given(conv_cases(), st.integers(1, 4))
    # -0.0 borders on every frame around +0.0 padding
    @example((5, 6, 2, 2, 3, 3, 1, "same", 4, 0.0, 1.0, ((1, 1, 1, 1), (True,) * 4)), 3)
    # stride-4 "valid" with an 11x11 kernel, over 4 frames
    @example((15, 19, 3, 2, 11, 11, 4, "valid", 6, 0.3, 0.5, ((1, 2, 2, 1), (True, True, False, True))), 4)
    # 3 frames of 15 positions, 45 in all, and 24 filters: 16 and 8
    @example((5, 3, 7, 24, 3, 3, 1, "same", 9, 0.3, 0.5, ((0, 1, 1, 0), (True,) * 4)), 3)
    # one filter with a 1x1 output, alone and in a batch
    @example((4, 4, 3, 1, 4, 4, 1, "valid", 0, 0.0, 0.5, NO_BORDERS), 1)
    @example((4, 4, 3, 1, 4, 4, 1, "valid", 0, 0.0, 0.5, NO_BORDERS), 4)
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_oracle_on_each_frame(self, case, frames):
        h, wd, c, f, kh, kw, stride, padding, seed, zeros, neg, borders = case
        r = np.random.default_rng(seed)
        x = with_zeros(r, r.uniform(-1, 1, (frames, h, wd, c)), zeros, neg)
        for frame in x:
            zero_borders(frame, borders)
        w = with_zeros(r, r.uniform(-0.05, 0.05, (f, kh, kw, c)), zeros, 1 - neg)
        b = with_zeros(r, r.uniform(-0.05, 0.05, f), zeros, neg)
        want = [conv_oracle(frame, w, b, stride, padding).tobytes() for frame in x]
        for p in (LayerParams(w=w, b=b), freeze(LayerParams(w=w.copy(), b=b.copy()))):
            got = forward_conv(x, p, stride=stride, padding=padding)
            assert got.shape[0] == frames
            assert [out.tobytes() for out in got] == want

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


# 1 + 2**-12: its square, 1 + 2**-11 + 2**-24, rounds to 1 + 2**-11 in
# float32, so -1 + round(square) is 2**-11 while a fused multiply-add,
# which adds the unrounded square, gives 2**-11 + 2**-24.
ONE_PLUS = np.float32(1 + 2.0**-12)


class TestKernelContract:
    """What the kernels must hold to: products rounded on their own,
    every bad call refused before it reaches a kernel, and any layout
    or dtype of operand taken as its float32 values."""

    def test_fc_rounds_each_product(self):
        # 70 equal rows: four full vectors of 16 rows and a tail of 6
        w = np.tile(np.array([1, ONE_PLUS], np.float32), (70, 1))
        p = LayerParams(w=w, b=np.zeros(70, np.float32))
        x = np.array([-1, ONE_PLUS], np.float32)
        assert np.float32(ONE_PLUS * ONE_PLUS) == np.float32(1 + 2.0**-11)
        want = np.full(70, 2.0**-11, np.float32)
        assert forward_fc(x, p).tobytes() == want.tobytes()
        assert forward_fc(x, p, rows=(5, 6)).tobytes() == want[:1].tobytes()

    def test_conv_rounds_each_product(self):
        # a 1x1 conv over two channels sums the same two products; 9x9
        # positions and 59 filters (32, 16 and a tail of 11 in a tile of
        # 16) span full tiles and tails of both
        x = np.broadcast_to(np.array([-1, ONE_PLUS], np.float32), (9, 9, 2))
        w = np.broadcast_to(np.array([1, ONE_PLUS], np.float32), (59, 1, 1, 2))
        out = forward_conv(x, LayerParams(w=w.copy(), b=np.zeros(59, np.float32)))
        assert out.tobytes() == np.full((9, 9, 59), 2.0**-11, np.float32).tobytes()

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
            p, w = shared(graph, name), engine.params_for(graph, name).w
            return p if w is None else replace(p, w=np.asfortranarray(w))
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


# Filter counts 32a + 16b + 8c + tail for every a, b, c in {0, 1} and a
# tail of 0 or 5, which reach every sequence of the compiled conv's tiers
# (8c + 5 = 13 runs as one tile of 16, and 16 + 8 + 5 = 29 as two), and
# two 32-filter tiles with and without more after them.
TIER_SEQUENCES = sorted({32 * a + 16 * b + 8 * c + t
                         for a, b, c, t in itertools.product((0, 1), (0, 1), (0, 1), (0, 5))} - {0})
TIER_SEQUENCES += [64, 77]


class TestKernelSplits:
    """Every way the compiled kernels split their work, each case pinned
    against the scalar oracles: conv filters into tiles of 32, 16 and 8,
    a last 9 to 15 zero-padded to 16 and 1 to 7 to 8, conv positions into groups of MAXP = 8 that
    may run across rows and frames, fc rows into panels of FC_PANEL = 256
    and a panel's vectors into chunks of 16, 8, 4, 2 and 1."""

    @pytest.mark.parametrize("filters", TIER_SEQUENCES)
    def test_each_sequence_of_filter_tiers(self, filters):
        # 3x4 positions: one group of 8 and a tail of 4
        r = np.random.default_rng(filters)
        x = with_zeros(r, r.uniform(-1, 1, (3, 4, 3)), 0.3, 0.5)
        w = with_zeros(r, r.uniform(-0.05, 0.05, (filters, 2, 2, 3)), 0.3, 0.5)
        b = with_zeros(r, r.uniform(-0.05, 0.05, filters), 0.3, 0.5)
        got = forward_conv(x, LayerParams(w=w, b=b), stride=1, padding="same")
        assert got.tobytes() == conv_oracle(x, w, b, 1, "same").tobytes()

    @pytest.mark.parametrize("filters", [*range(9, 16), *range(25, 32)])
    def test_a_last_nine_to_fifteen_filters_with_special_inputs(self, filters):
        """A last 9 to 15 filters run as one tile of 16, whose padded lanes
        read zero weight columns: NaN, infinite and -0.0 inputs, which
        make NaN in those lanes, leave every filter's bytes the oracle's.
        Every NaN is the machine's default one, so no sum's NaN depends
        on which operand of an addition a machine propagates."""
        r = np.random.default_rng(filters)
        x = with_zeros(r, r.uniform(-1, 1, (2, 3, 4, 3)), 0.2, 0.5)
        specials = np.array([DEFAULT_NAN, np.inf, -np.inf, -0.0], np.float32)
        hit = r.random(x.shape) < 0.05
        x[hit] = r.choice(specials, x.shape)[hit]
        w = with_zeros(r, r.uniform(-0.05, 0.05, (filters, 2, 2, 3)), 0.3, 0.5)
        b = with_zeros(r, r.uniform(-0.05, 0.05, filters), 0.3, 0.5)
        with np.errstate(invalid="ignore"):
            want = [conv_oracle(frame, w, b, 1, "same").tobytes() for frame in x]
        for p in (LayerParams(w=w, b=b), freeze(LayerParams(w=w.copy(), b=b.copy()))):
            got = forward_conv(x, p, stride=1, padding="same")
            assert [out.tobytes() for out in got] == want
        assert np.isnan(got).any() and np.isfinite(got).any()

    @pytest.mark.parametrize("frames,oh,ow,stride", [
        (1, 1, 1, 1),   # a single position
        (1, 1, 7, 2),   # less than one group
        (1, 2, 4, 1),   # exactly one group
        (1, 3, 3, 2),   # one group and one position
        (3, 1, 3, 1),   # one group across three frames, and one position
        (2, 3, 5, 2),   # groups that start mid-row and mid-frame
        (5, 1, 1, 3),   # one position a frame
    ])
    def test_each_grouping_of_positions(self, frames, oh, ow, stride):
        # 61 filters use every tile, each with its own positions per call
        r = np.random.default_rng(oh * 100 + ow * 10 + frames)
        x = with_zeros(r, r.uniform(-1, 1, (frames, (oh - 1) * stride + 2,
                                            (ow - 1) * stride + 2, 3)), 0.3, 0.5)
        w = with_zeros(r, r.uniform(-0.05, 0.05, (61, 2, 2, 3)), 0.3, 0.5)
        b = with_zeros(r, r.uniform(-0.05, 0.05, 61), 0.3, 0.5)
        got = forward_conv(x, LayerParams(w=w, b=b), stride=stride, padding="valid")
        assert got.shape == (frames, oh, ow, 61)
        for frame, out in zip(x, got):
            assert out.tobytes() == conv_oracle(frame, w, b, stride, "valid").tobytes()

    @pytest.mark.parametrize("outputs,rows", [
        (1024, (0, 1024)),     # four full panels
        (1025, (0, 1025)),     # four full panels and a last panel of one row
        (2050, (1023, 1025)),  # one row in each of two panels
        (2050, (1024, 2048)),  # four full panels from row 1024
        (2050, (1, 2050)),     # panels from one row past the first
        (2048, (2047, 2048)),  # the last row alone
        (100, (3, 97)),        # fewer rows than a panel
        (300, (250, 300)),     # the end of a full panel and a last panel of 44 rows
        # A panel's rows of a range are 1 to 16 vectors, run in chunks of
        # 16, 8, 4, 2 and 1.  1000 outputs: full panels at rows 0, 256 and
        # 512, and a last panel of 232 rows, 15 vectors (8 + 4 + 2 + 1).
        *((1000, (256 + off, 256 + off + min(16 * nv, 256 - off)))
          for nv in range(1, 17) for off in (0, 1, 15)),   # nv vectors at offset 0, 1, 15
        *((1000, (261 - 16 * nv, 251 + 16 * nv))
          for nv in range(1, 17)),                         # nv vectors on each side of row 256
        (1000, (768, 1000)),
        (1000, (769, 1000)),
    ])
    def test_each_blocking_of_rows(self, outputs, rows):
        r = np.random.default_rng(outputs + rows[0])
        w = with_zeros(r, r.uniform(-0.05, 0.05, (outputs, 9)), 0.3, 0.5)
        b = with_zeros(r, r.uniform(-0.05, 0.05, outputs), 0.3, 0.5)
        x = with_zeros(r, r.uniform(-1, 1, 9), 0.3, 0.5)
        lo, hi = rows
        got = forward_fc(x, LayerParams(w=w, b=b), rows=rows)
        assert got.tobytes() == fc_oracle(w[lo:hi], b[lo:hi], x).tobytes()


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


def softmax_oracle(row):
    """One row's max-subtracted softmax, as a lone vector computes it."""
    row = np.asarray(row, np.float32).reshape(-1)
    e = np.exp(row - np.max(row), dtype=np.float32)
    return e / e.sum(dtype=np.float32)


class TestSoftmaxBatch:
    @given(st.integers(1, 17), st.integers(1, 300), st.integers(0, 2 ** 32 - 1),
           st.floats(0, 1))
    @settings(max_examples=80, deadline=None)
    @example(3, 5, 0, 1.0)
    def test_rows_equal_each_row_alone(self, rows, width, seed, special):
        """A (rows, width) batch gives each row the bytes it gives alone,
        with signed zeros and NaNs of either sign among the values."""
        r = np.random.default_rng(seed)
        pool = np.array([0.0, -0.0, np.nan, -np.nan, 88.0, -88.0], np.float32)
        batch = np.where(r.random((rows, width)) < special, r.choice(pool, (rows, width)),
                         r.uniform(-30, 30, (rows, width))).astype(np.float32)
        got = forward_softmax(batch)
        assert got.shape == batch.shape and got.dtype == np.float32
        for i in range(rows):
            want = softmax_oracle(batch[i])
            assert got[i].tobytes() == want.tobytes()
            assert forward_softmax(batch[i]).tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("window_len", [1, 3, 10])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_equal_a_concatenate_along_channels(self, window_len, dtype):
        """The stack holds the bytes of the fields concatenated along
        their last axis in float32: signed zeros, and NaNs of several
        payloads, included."""
        r = np.random.default_rng(window_len)
        fields = r.uniform(-1, 1, (window_len, 5, 4, 2)).astype(dtype)
        fields[r.random(fields.shape) < 0.3] = 0.0
        fields[r.random(fields.shape) < 0.2] = -0.0
        nans = np.array([0x7FC00000, 0xFFC00001, 0x7FA5A5A5, 0xFFFFFFFF], np.uint32).view(np.float32)
        hit = r.random(fields.shape) < 0.2
        with np.errstate(invalid="ignore"):
            fields[hit] = r.choice(nans, fields.shape)[hit]
        given = iter(fields)
        got = flow_stack([np.zeros((5, 4))] * (window_len + 1), window_len,
                         lambda _prev, _cur: next(given))
        want = np.concatenate(list(fields), axis=-1, dtype=np.float32)
        assert got.shape == (5, 4, 2 * window_len) and got.dtype == np.float32
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(5, 4), (5, 4, 3), (5, 4, 1)])
    def test_a_field_that_is_not_two_channels_is_rejected(self, shape):
        with pytest.raises(EngineError):
            flow_stack([np.zeros((5, 4))] * 3, 2, lambda _prev, _cur: np.zeros(shape, np.float32))

    def test_mismatched_shapes(self):
        with pytest.raises(EngineError):
            flow_diff_stub(np.zeros((2, 2)), np.zeros((3, 2)))


class CountingFlow:
    """``flow_diff_stub`` that records the frame pairs it is called on,
    each row of a stacked call as one pair."""

    def __init__(self):
        self.pairs = []

    def __call__(self, prev, cur, stacked=False):
        self.pairs.extend(zip(prev, cur) if stacked else [(prev, cur)])
        return flow_diff_stub(prev, cur, stacked=stacked)


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

    def test_holds_only_what_a_later_window_reads(self, monkeypatch):
        """After a flush the executor holds the frames and the pair fields
        that the next window reads, and nothing older; the next window
        computes only its new pair."""
        counting = count_flows(monkeypatch)
        ex = flow_executor()
        before = push_flows(ex, self.frames, range(15))
        assert len(before) == 5 and len(counting.pairs) == 14
        assert sorted(ex._windows["flow"].pending) == list(range(5, 15))
        assert sorted(ex._flows["flow"]) == list(range(6, 15))
        assert ex.held_bytes() == 4 * (10 * self.frames[0].size + 9 * 16 * 12 * 2)
        counting.pairs.clear()
        after = push_flows(ex, self.frames, range(15, 20))
        assert sorted(after) == list(range(15, 20))
        assert len(counting.pairs) == 5
        for end, value in after.items():
            assert value.tobytes() == flow_stack(list(self.frames[end - 10:end + 1]), 10).tobytes()


class TestFlowGroups:
    @given(st.sampled_from([(5, 4, 3), (6, 3), (1, 1, 3), (2, 7)]), st.integers(1, 6),
           st.lists(st.integers(1, 20), min_size=1, max_size=6), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_grouped_fields_equal_each_pair_alone(self, shape, window_len, run_lengths, seed):
        """Colour and grey frames with signed zeros and NaNs, flushed at
        any points: each flow stack holds the bytes of ``flow_diff_stub``
        on each of its pairs alone."""
        b = ir._Builder(seed % 1000)
        b.add("camera", ir.SOURCE, {"shape": list(shape)})
        b.add("flow", ir.FLOWSTACK, {"window_len": window_len}, ["camera"])
        b.add("out", ir.SINK, {}, ["flow"])
        graph = b.graph(["camera"], ["out"])
        r = np.random.default_rng(seed)
        pool = np.array([0.0, -0.0, np.nan, -np.nan, 1.0], np.float32)
        frames = np.where(r.random((60, *shape)) < 0.4, r.choice(pool, (60, *shape)),
                          r.uniform(-1, 1, (60, *shape))).astype(np.float32)
        emitted, _fired = replay(engine.TaskExecutor(graph), frames, run_lengths)
        assert [tag for layer, tag, *_ in emitted if layer == "out"] == list(range(window_len, 60))
        for layer, tag, dtype, got_shape, data in emitted:
            window = list(frames[tag - window_len:tag + 1])
            fields = [flow_diff_stub(window[t], window[t + 1]) for t in range(window_len)]
            want = np.concatenate(fields, axis=-1)
            assert (dtype, got_shape, data) == (want.dtype.str, want.shape, want.tobytes())


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
        """Each weighted layer's shared weights are held once, read-only,
        in the layout the kernels read: a conv's ``w`` is a view of its
        tap-major matrix, and an fc's are only its row panels.  They hold
        the generated values, and ``params_for`` draws the values of one
        full-size float64 draw rounded to float32."""
        g = build_model(model, scale, seed=4711)
        weighted = [n for n in g.topo_order if g.layer(n).kind in ("fc", "conv")]
        assert weighted
        for name in weighted:
            p = engine.shared_params(g, name)
            wt = p.operands[2]
            assert not wt.flags.writeable, name
            if g.layer(name).kind == "fc":
                assert p.w is None, name
                held = fc_matrix(wt, p.b.size)
            else:
                assert np.shares_memory(p.w, wt) and not p.w.flags.writeable, name
                held = p.w
            generated = engine.params_for(g, name)
            draw = np.random.default_rng([g.seed, g.layer(name).weights_seed])
            for got in (generated.w, generated.b):
                want = draw.uniform(-0.05, 0.05, got.shape).astype(np.float32)
                assert got.tobytes() == want.tobytes(), name
            assert np.array_equal(held, generated.w) and np.array_equal(p.b, generated.b), name


def replay(ex, frames, run_lengths):
    """Push ``frames`` into ``ex`` at tags 0, 1, ... and collect what it
    reports.

    The pushes go in runs whose lengths cycle through ``run_lengths``,
    and the batch is flushed after each run and at the end; after a
    length of 0 only the batch's own caps flush it.  Returns the
    emissions as (layer, tag, dtype, shape, bytes) and the fired_log,
    each in the order they came.
    """
    emitted, fired = [], []
    lengths = iter(run_lengths * 1000)
    left = next(lengths)
    for tag, frame in enumerate(frames):
        emitted += ex.push("camera", tag, frame)
        fired += ex.fired_log
        left -= 1
        if left == 0:
            ex.batch.flush()
            left = next(lengths)
    ex.batch.flush()
    values = [(em.layer, em.tag, np.asarray(em.value)) for em in emitted]
    return [(layer, tag, v.dtype.str, v.shape, v.tobytes()) for layer, tag, v in values], fired


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

    def executor(self):
        return engine.TaskExecutor(self.graph, emit=self.graph.topo_order)

    @pytest.fixture(scope="class")
    def single(self):
        """The frames flushed after every push."""
        return replay(self.executor(), self.frames, [1])

    @pytest.mark.parametrize("run_lengths", [[16], [3, 1, 7], [2, 16, 5, 1]])
    def test_runs_equal_single_pushes(self, single, run_lengths):
        got = replay(self.executor(), self.frames, run_lengths)
        assert got == single
        layers = {e[0] for e in single[0]}
        assert {"flow", "pyr_s", "pyr_t", "fuse", "out"} <= layers

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=8), st.integers(1, 16),
           st.sampled_from([1, 5000, 2 << 20]))
    @settings(max_examples=15, deadline=None)
    def test_any_flush_points_give_the_same_values(self, single, run_lengths, run_tags,
                                                     run_bytes):
        with caps(run_tags, run_bytes):
            got = replay(self.executor(), self.frames, run_lengths)
        assert got == single

    def test_reference_runs_stay_under_their_caps(self, monkeypatch):
        """Batch groups keep to RUN_TAGS and RUN_BYTES."""
        groups = []
        compute = engine.TaskExecutor._compute

        def compute_spy(ex, name, assembly, firings):
            # a batched group counts its stacked inputs too
            nbytes = 4 * sum(max(p.size, np.asarray(p.args).size) for p in firings) \
                if ex.graph.layer(name).kind in ("conv", "relu", "norm", "maxpool") \
                else 4 * sum(p.size for p in firings)
            groups.append((name, len(firings), nbytes))
            return compute(ex, name, assembly, firings)
        monkeypatch.setattr(engine.TaskExecutor, "_compute", compute_spy)

        # layer inputs or outputs of at most 24 KiB, 0.6 MB and 1.6 MB a
        # frame; two_stream's clip is longer than RUN_TAGS
        for model, scale, n, longest in (("two_stream", 1 / 8, engine.RUN_TAGS + 8, engine.RUN_TAGS),
                                         ("alexnet", 1 / 8, 8, 3), ("vgg16", 1 / 8, 2, 1)):
            g = build_model(model, scale, seed=1)
            groups.clear()
            run_reference(g, {g.inputs[0]: make_clip(g, n, 1)})
            assert max(size for _, size, _ in groups) == longest
            first = g.consumers(g.inputs[0])[0]
            assert sum(size for name, size, _ in groups if name == first) == n
            assert all(size <= engine.RUN_TAGS for _, size, _ in groups)
            assert all(size == 1 or nbytes <= engine.RUN_BYTES for _, size, nbytes in groups)

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


class Synchronous(runtime.ClusterCore):
    """The workers of one plan entry on one shared batch, with every
    message delivered the moment it is sent.  It offers ``replay`` what
    one executor does: ``push`` at the source devices, ``batch``; and,
    for the last push, the graph outputs and every fired_log, in the
    order they came."""

    def __init__(self, aset, n):
        self.batch = engine.Batch()
        super().__init__(aset, n, inbox_capacity=1 << 20, batch=self.batch)
        self.outputs, self.fired_log = [], []

    def _send(self, src, msg, dst, t):
        self._on_data(self.workers[dst], msg)

    def _output(self, w, em, path, t):
        self.outputs.append(em)

    def _consume(self, w, msg):
        got = super()._consume(w, msg)
        self.fired_log += w.executor.fired_log
        return got

    def push(self, origin, tag, value):
        self.outputs, self.fired_log = [], []
        for d in self._source_targets(tag):
            self._on_data(self.workers[d], Message(kind=Kind.DATA, tag=tag, layer=origin,
                                                   tensor=value, meta={}))
        return self.outputs


CHAIN_KINDS = {"conv", "relu", "norm", "maxpool", "fc", "softmax"}


def interior(ex):
    """The layers that ``ex`` computes inside a chain, found from the graph
    alone: an owned conv, relu, norm, maxpool, fc or softmax layer that is
    not emitted and whose one graph consumer is another such owned layer."""
    chained = {n for n in ex.owned if ex.graph.layer(n).kind in CHAIN_KINDS}
    return {n for n in chained if n not in ex.emit
            and len(ex.graph.consumers(n)) == 1 and ex.graph.consumers(n)[0] in chained}


class TestChains:
    """Executors whose layer chains fire once, against executors that emit
    every layer, where no chain forms (``TestRuns``), and against the
    graph."""

    graph, frames = TestRuns.graph, TestRuns.frames

    @pytest.fixture(scope="class")
    def single(self):
        return replay(TestRuns().executor(), self.frames, [1])

    @pytest.fixture(scope="class")
    def aset(self):
        return plan_for(self.graph, 9, scale=1 / 32)

    def plan_executors(self, aset):
        """The workers of the first plan entry with a row shard."""
        n = min(n for n, a in aset.assignments.items() if any(t.split for t in a.tasks.values()))
        return Synchronous(aset, n)

    @pytest.fixture(scope="class")
    def plan_single(self, aset):
        return replay(self.plan_executors(aset), self.frames, [1])

    def test_chains_are_the_runs_of_single_consumer_layers(self, aset):
        g = self.graph
        whole = engine.TaskExecutor(g)
        executors = [whole] + [w.executor for w in self.plan_executors(aset).workers.values()]
        # an emitted layer ends its chain, a row shard's terminal too
        every = TestRuns().executor()
        some = engine.TaskExecutor(g, emit=["act_1s", "act_d2", "out"])
        shard = engine.TaskExecutor(g, owned=["fc_d1", "act_d1", "fc_d2", "act_d2"],
                                    part=("fc_d1", 0, 128))
        assert interior(every) == set()
        assert interior(some) == interior(whole) - {"act_1s", "act_d2"}
        assert interior(shard) == {"fc_d1", "fc_d2"}
        for ex in executors + [every, some, shard]:
            chains = [[m for m, _shape in chain] for chain in ex._chains.values()]
            assert sorted(m for chain in chains for m in chain) == sorted(
                n for n in ex.owned if self.graph.layer(n).kind in CHAIN_KINDS)
            assert {m for chain in chains for m in chain[:-1]} == interior(ex)
        assert {chain[-1][0] for chain in whole._chains.values()} == {"fc_1s", "fc_1t", "smax"}
        shards = [ex for ex in executors if ex.part]
        assert len(shards) == 2
        assert all(interior(ex) == {"fc_d1"} and "act_d1" in ex.emit for ex in shards)

    def test_relu_overwrites_only_arrays_its_chain_owns(self, monkeypatch):
        """A relu writes over its input past a chain's head, and at the
        head over the stacked input of several firings, never over the
        input of a single firing, which is the array of another value.
        The bits are those of a relu into a new array."""
        b = ir._Builder(1)
        b.add("x", ir.SOURCE, {"shape": [6]})
        b.add("r1", ir.RELU, {}, ["x"])
        b.add("r2", ir.RELU, {}, ["r1"])
        b.add("o", ir.SINK, {}, ["r2"])
        graph = b.graph(["x"], ["o"])
        relu, in_place = engine.forward_relu, []

        def spied_relu(x, out=None):
            in_place.append(out is x)
            return relu(x, out=out)

        monkeypatch.setattr(engine, "forward_relu", spied_relu)
        values = [np.array([-1.5, -0.0, 0.0, np.nan, 2.0, -np.inf], np.float32),
                  np.array([np.inf, 3.0, -0.0, -2.0, 0.0, np.nan], np.float32)]
        for firings in (1, 2):
            ex = engine.TaskExecutor(graph)
            held = [v.copy() for v in values[:firings]]
            emitted = [e for tag in range(firings) for e in ex.push("x", tag, values[tag])]
            ex.batch.flush()
            assert [v.tobytes() for v in values[:firings]] == [v.tobytes() for v in held]
            assert [np.asarray(e.value).tobytes() for e in emitted] == [
                np.maximum(np.maximum(v, np.float32(0)), np.float32(0)).tobytes() for v in held]
        assert in_place == [False, True, True, True]

    def test_a_value_inside_a_chain_is_never_pushed(self):
        ex = engine.TaskExecutor(self.graph)
        value = np.zeros(self.graph.shapes["act_1s"].dims, np.float32)
        with pytest.raises(EngineError, match="inside a chain"):
            ex.push("act_1s", 0, value)
        assert ex.push("fc_1s", 0, np.zeros(self.graph.shapes["fc_1s"].dims, np.float32)) == []

    @pytest.mark.parametrize("run_lengths", [[1], [16], [3, 1, 7], [2, 16, 5, 1]])
    def test_default_emit_gives_the_sink_bytes_and_fired_log(self, single, run_lengths):
        emitted, fired = replay(engine.TaskExecutor(self.graph), self.frames, run_lengths)
        assert emitted == [e for e in single[0] if e[0] == "out"]
        assert fired == single[1]

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=8), st.integers(1, 16),
           st.sampled_from([1, 5000, 2 << 20]))
    @settings(max_examples=15, deadline=None)
    def test_default_emit_any_flush_points(self, single, run_lengths, run_tags, run_bytes):
        with caps(run_tags, run_bytes):
            emitted, fired = replay(engine.TaskExecutor(self.graph), self.frames, run_lengths)
        assert emitted == [e for e in single[0] if e[0] == "out"]
        assert fired == single[1]

    def test_plan_entry_with_a_row_shard_gives_the_sink_bytes(self, single, plan_single):
        assert [e[1] for e in plan_single[0]] == list(range(24, 100))
        assert plan_single[0] == [e for e in single[0] if e[0] == "out"]

    @pytest.mark.parametrize("run_lengths", [[16], [3, 1, 7], [2, 16, 5, 1]])
    def test_plan_entry_runs_equal_single_pushes(self, aset, plan_single, run_lengths):
        assert replay(self.plan_executors(aset), self.frames, run_lengths) == plan_single

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=8), st.integers(1, 16),
           st.sampled_from([1, 5000, 2 << 20]))
    @settings(max_examples=10, deadline=None)
    def test_plan_entry_any_flush_points(self, aset, plan_single, run_lengths, run_tags,
                                         run_bytes):
        with caps(run_tags, run_bytes):
            got = replay(self.plan_executors(aset), self.frames, run_lengths)
        assert got == plan_single

    def test_fired_log_is_a_breadth_first_walk(self):
        """Each push's fired_log, against a walk over ``consumers`` in which
        a layer fires once all its inputs have fired at the tag, from its
        first valid tag on; the stream has no gap."""
        g = self.graph
        ex = engine.TaskExecutor(g)
        assert interior(ex)
        for tag, frame in enumerate(self.frames[:30]):
            ex.push("camera", tag, frame)
            want, queue, arrived = ["camera"], ["camera"], {}
            for layer in queue:   # the queue grows while it is walked
                for c in ex.consumers.get(layer, ()):
                    arrived[c] = arrived.get(c, 0) + 1
                    if arrived[c] == len(g.layer(c).inputs) and tag >= g.first_valid[c]:
                        want.append(c)
                        queue.append(c)
            assert ex.fired_log == want, tag
            if tag % 5 == 4:
                ex.batch.flush()

    def test_no_interior_value_is_emitted_or_pending(self, aset, monkeypatch):
        """No layer that ``interior`` names is emitted or fires into the
        batch.  Each other layer of a push's fired_log that an interior
        layer does not feed fires once, in fired_log order, with the shape
        of its chain's tail: the first layer at or below it that is not
        interior."""
        g = self.graph
        added = []
        add = engine.Batch.add

        def spy(batch, key, pending, nbytes):
            added.append((key, pending))
            return add(batch, key, pending, nbytes)
        monkeypatch.setattr(engine.Batch, "add", spy)
        cluster = self.plan_executors(aset)
        emissions = []
        dispatch = cluster._dispatch

        def dispatch_spy(w, ems, *rest):
            emissions.extend((w.executor, em) for em in ems)
            return dispatch(w, ems, *rest)
        cluster._dispatch = dispatch_spy
        whole = engine.TaskExecutor(g)
        inside = {ex: interior(ex)
                  for ex in [whole] + [w.executor for w in cluster.workers.values()]}
        for tag, frame in enumerate(self.frames[:30]):
            added.clear()
            emissions += [(whole, em) for em in whole.push("camera", tag, frame)]
            fires = [n for n in whole.fired_log if g.layer(n).kind not in ("source", "sink")
                     and g.layer(n).inputs[0] not in inside[whole]]
            assert [g.topo_order[key[0]] for key, _p in added] == fires
            cluster.push("camera", tag, frame)
            for (rank, assembly, ex), pending in added:
                if assembly:
                    continue
                tail = g.topo_order[rank]
                assert g.layer(tail).inputs[0] not in inside[ex]
                while tail in inside[ex]:
                    tail = g.consumers(tail)[0]
                assert pending.shape == ex._shape(tail)
        assert {"act_1s", "fc_d2", "fc_d1"} <= set().union(*inside.values())
        assert len({ex for ex, _em in emissions}) == len(inside)
        assert all(em.layer not in inside[ex] for ex, em in emissions)
        assert all(isinstance(em.value, engine.Pending) for ex, em in emissions
                   if g.layer(em.layer).kind != "source")


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
                assert ex.fired_log == []
            out = ex.push_part("act_d2", tag, order[-1], parts[tag][order[-1]])
            assert [(em.layer, em.tag) for em in out] == [("fc_d3", tag)]
            assert ex.fired_log == ["fc_d3"]
        ex.batch.flush()
        assert [p.tag for p in joined] == list(range(len(orders)))
        for p in joined:
            assert np.asarray(p).tobytes() == full.tobytes()

    def test_shards_of_a_norm_after_fc_assemble_to_the_reference(self):
        """A norm right after a sharded fc is row-local: each shard
        standardizes its own rows with those rows' statistics."""
        layers = {
            "src": LayerSpec("src", "source", {"shape": [8]}),
            "fc": LayerSpec("fc", "fc", {"out_size": 6}, ["src"], weights_seed=1),
            "norm": LayerSpec("norm", "norm", {}, ["fc"], weights_seed=2),
            "fc_out": LayerSpec("fc_out", "fc", {"out_size": 4}, ["norm"], weights_seed=3),
            "out": LayerSpec("out", "sink", {}, ["fc_out"]),
        }
        g = validate_graph(ModelGraph(layers, ["src"], ["out"], seed=5))
        frames = np.random.default_rng(6).uniform(-1, 1, (3, 8)).astype(np.float32)
        ref = run_reference(g, {"src": frames})["out"]
        batch = engine.Batch()
        shards = [engine.TaskExecutor(g, owned=["fc", "norm"], part=("fc", lo, hi), batch=batch)
                  for lo, hi in ((0, 3), (3, 6))]
        consumer = engine.TaskExecutor(g, owned=["fc_out", "out"], batch=batch)
        got = {}
        for tag, frame in enumerate(frames):
            for i, ex in enumerate(shards):
                (em,) = ex.push("src", tag, frame)
                assert (em.layer, em.value.shape) == ("norm", (3,))
                got.update((out.tag, out.value) for out in consumer.push_part("norm", tag, i, em.value))
        batch.flush()
        assert sorted(got) == sorted(ref)
        for tag, value in ref.items():
            assert np.asarray(got[tag]).tobytes() == value.tobytes()

    def test_parked_parts_are_held_until_assembled(self):
        parts, _full = self.parts([0, 1])
        ex, _joined = self.consumer()
        assert ex.push_part("act_d2", 0, 2, parts[0][2]) == []
        assert ex.push_part("act_d2", 1, 0, parts[1][0]) == []
        assert ex.held_bytes() == 4 * (85 + 86)
        ex.push_part("act_d2", 0, 0, parts[0][0])
        ex.push_part("act_d2", 0, 1, parts[0][1])
        assert ex.held_bytes() == 4 * 86


class TestHeldBytes:
    def test_concat_inputs_count_until_their_join_fires(self):
        g = build_model("two_stream", 1 / 32, seed=3)
        ex = engine.TaskExecutor(g, owned=["fuse"])
        pyr = np.zeros(g.shapes["pyr_s"].dims, np.float32)
        assert ex.held_bytes() == 0
        assert ex.push("pyr_s", 24, pyr) == []
        assert ex.held_bytes() == 4 * pyr.size
        assert [em.tag for em in ex.push("pyr_t", 24, pyr)] == [24]
        assert ex.held_bytes() == 0


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


class TestKernelLoader:
    """``_load_kernels`` builds and loads the compiled kernels, or raises
    ``ImportError`` naming the command that failed."""

    @staticmethod
    def shim(tmp_path, monkeypatch, script):
        """Make ``_load_kernels`` run the shell ``script`` as its compiler;
        returns the shim's path."""
        shim = tmp_path / "cc"
        shim.write_text("#!/bin/sh\n" + script)
        shim.chmod(0o755)
        monkeypatch.setattr(engine, "_compiler", lambda: str(shim))
        return str(shim)

    def test_missing_compiler_is_an_import_error(self, monkeypatch):
        monkeypatch.setattr(engine, "_compiler", lambda: "/nonexistent/edgeflock-cc")
        with pytest.raises(ImportError, match="/nonexistent/edgeflock-cc"):
            engine._load_kernels()

    def test_failed_compile_names_the_command_and_its_stderr(self, tmp_path, monkeypatch):
        shim = self.shim(tmp_path, monkeypatch,
                         'for i in 1 2 3 4 5 6 7 8 9 10 11 12; do echo "line $i" >&2; done\nexit 1\n')
        with pytest.raises(ImportError) as raised:
            engine._load_kernels()
        lines = str(raised.value).splitlines()
        # the last command tried, the one without -march=native, and the
        # last ten lines of its stderr
        assert shim in lines[0] and "exit status 1" in lines[0]
        assert "-march=native" not in lines[0]
        assert lines[1:] == [f"line {i}" for i in range(3, 13)]

    def test_a_library_that_does_not_load_is_an_import_error(self, tmp_path, monkeypatch):
        # the compile succeeds but writes text where the library goes
        shim = self.shim(tmp_path, monkeypatch,
                         'while [ $# -gt 1 ]; do [ "$1" = -o ] && out=$2; shift; done\n'
                         'echo "not a library" > "$out"\n')
        with pytest.raises(ImportError) as raised:
            engine._load_kernels()
        assert shim in str(raised.value).splitlines()[0]

    def test_build_leaves_no_file_beside_the_source(self):
        package = engine._KERNELS_SOURCE.parent
        before = sorted(package.iterdir())
        lib = engine._load_kernels()
        assert "-ffp-contract=off" in lib.build_command
        assert sorted(package.iterdir()) == before

    def test_retries_without_march_native(self, tmp_path, monkeypatch):
        compiler = engine._compiler()
        self.shim(tmp_path, monkeypatch,
                  f'case "$*" in *-march=native*) exit 1;; esac\nexec {compiler} "$@"\n')
        lib = engine._load_kernels()
        assert "-march=native" not in lib.build_command
        monkeypatch.setattr(engine, "_KERNELS", lib)
        assert golden_digest("two_stream", 0.03125, 4) == GOLDEN_OUTPUTS[("two_stream", 0.03125, 4)]

    def test_compile_timeout_is_an_import_error(self, tmp_path, monkeypatch):
        shim = self.shim(tmp_path, monkeypatch, "exec sleep 30\n")
        monkeypatch.setattr(engine, "_COMPILE_TIMEOUT_S", 0.5)
        with pytest.raises(ImportError, match="timed out") as raised:
            engine._load_kernels()
        assert shim in str(raised.value)
