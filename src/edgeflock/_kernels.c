/* Exact float32 conv and fc kernels for edgeflock.engine, as a CPython
 * extension module.
 *
 * Every output is a sum that starts from +0.0f and adds its rounded
 * products in ascending tap (or input) order, bias last, exactly as the
 * scalar oracles do.  Loops are vectorized only across independent
 * outputs (filters, or output rows), never within a sum.  Build without
 * FMA contraction (-ffp-contract=off) and without any -ffast-math style
 * flag: a fused multiply-add skips the rounding of the product, and
 * reassociation reorders the sum.
 *
 * conv reads its input in place from a zero-padded NHWC batch: the taps
 * (dx, channel) of one kernel row dy at one output position are kw * c
 * contiguous floats of that batch, in the order the weights hold them.
 * A register tile sums 32, 16 or 8 filters at a few positions at once,
 * in vectors of the target's width.  engine lays the weights out with
 * zero columns up to the next multiple of 8 filters, so a last 9 to 15
 * filters run as one tile of 16 and a last 1 to 7 as one of 8, in
 * place, and the padded lanes are discarded.
 *
 * fc reads its weights as row panels.  engine lays an (outputs, inputs)
 * layer out as panels of FC_PANEL outputs, one after another: panel p
 * holds rows [p * FC_PANEL, p * FC_PANEL + pw) as a contiguous (inputs,
 * pw) block, tap-major.  pw is FC_PANEL for every panel but the last,
 * whose rows are rounded up to a multiple of 16 with zero columns, so
 * every panel starts on a 64-byte boundary when the buffer does, and 16
 * floats of slack follow the last panel.  A layer of at most FC_PANEL
 * outputs is one panel: an (inputs, ws) matrix, ws its outputs rounded
 * up to 16.  fc_rows walks the panels that a row range meets, and sums
 * the range's rows of one panel, nv vectors of 16 floats with nv at
 * most 16, in registers.  Kernels exist for 1, 2, 4, 8 and 16 vectors
 * only: nv splits into the powers of two that make it up, largest
 * first, each chunk one call at its offset into the panel's rows.  The
 * row ranges of two_stream's plans all come to one of those five
 * widths and run in one call; the 232-row last panel of a 1000-output
 * layer, 15 vectors, runs as 8, 4, 2 and 1.  The chunks change no bit:
 * each row is summed by exactly one chunk, from +0.0, in the same order
 * and under the same zero rule as by one kernel of nv vectors, and
 * together the chunks read exactly the vectors that kernel would.
 * fc_rows reads whole vectors: the lanes past the last row asked for
 * read padding, the panel's next weight row, the next panel or the
 * slack, and are discarded.  At 1024 inputs a panel is 1 MiB, so when
 * engine calls fc_rows for one panel of several frames in a row, every
 * frame after the first reads that panel from L2, where the rows of a
 * strided (inputs, outputs) matrix lay 4 KiB apart and came again from
 * L3 for every frame.  The panels change no sum: each row's sum still
 * takes its inputs in ascending order from +0.0, in whichever panel the
 * row lies.
 *
 * fc_rows leaves out every input equal to +-0.0 when engine says that
 * every weight of the layer is finite, and changes no bit by it.  A sum
 * starts at +0.0, and under round-to-nearest a sum is -0.0 only when
 * both addends are -0.0, so a sum is never -0.0.  A finite weight times
 * +-0.0 is +-0.0, and adding +-0.0 to any value but -0.0 returns that
 * value, +-inf and NaN included.  An infinite or NaN weight would make
 * the product NaN, hence engine's flag; a NaN input is never left out.
 * This relies on flush-to-zero being off, as it is without -ffast-math:
 * with it on, a negative sum too small to be normal would become -0.0,
 * and adding a +0.0 product would then give +0.0.  The inputs taken
 * come from a list of at most SKIP_BLOCK indices, on row ranges of any
 * width.  With AVX-512 the list is built 16 inputs at a time, by a
 * compare and a compress; elsewhere one input at a time, without a
 * branch.  A block in which no input is zero runs without the list.
 * Built one input at a time on AVX-512 too, the list made a 4096 -> 32
 * call with no zero input 1.8x slower than the loop without it (the
 * sums of 32 rows are two chains of additions, and nothing hides the
 * list); built 16 at a time, it runs at parity there and 1.3-1.7x
 * faster at 47% zero inputs.
 *
 * The module's functions take the arrays themselves through the buffer
 * protocol and check each one's format, contiguity and writability and
 * every size before they touch memory; a call that fails a check raises
 * and writes nothing.  The kernels run with the GIL released.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <string.h>
#if defined(__AVX512F__)
#include <immintrin.h>
#endif

typedef float v16 __attribute__((vector_size(64)));
typedef float v8 __attribute__((vector_size(32)));
typedef float v4 __attribute__((vector_size(16)));

/* FC_PANEL rows make a panel: 16 vectors of 16 sums, which fit the 32
 * vector registers of AVX-512 with room for a weight and an input.  A
 * panel's rows of a range run in chunks of 16, 8, 4, 2 and 1 vectors,
 * the powers of two that make up their vector count.
 * fc_rows lists the inputs it takes SKIP_BLOCK at a time, without a
 * branch per input.
 * MAXP is the number of conv positions whose input pointers a conv tile
 * reads: more ran no faster on a 2-vCPU AVX-512 Xeon, as the pointers
 * no longer fit in general-purpose registers. */
#define FC_PANEL 256
#define SKIP_BLOCK 256
#define MAXP 8

/* The sums of one tile, without bias, into sums (P, F): positions x[0..P)
 * against the (taps, F) weights w, whose rows are ws floats apart.  Tap
 * t = dy * run + k of position p is x[p][dy * row + k].  NV vectors of
 * type V, L floats each, hold the F = NV * L filters of one position.
 * Vectors go between memory and acc or wv one at a time, through a
 * copy: a memcpy of a whole array kept it in memory, stored after every
 * tap or loaded back in pieces other than those stored. */
#define CONV_TILE(NAME, V, L, NV, P)                                           \
static void NAME(const float *const *x, const float *w, int64_t ws,            \
                 int64_t kh, int64_t run, int64_t row, float *sums)            \
{                                                                              \
    V acc[P][NV];                                                              \
    for (int p = 0; p < P; p++)                                                \
        for (int v = 0; v < NV; v++)                                           \
            acc[p][v] = (V){0};                                                \
    for (int64_t dy = 0; dy < kh; dy++) {                                      \
        const float *wr = w + dy * run * ws;                                   \
        int64_t o = dy * row;                                                  \
        for (int64_t k = 0; k < run; k++) {                                    \
            V wv[NV];                                                          \
            for (int v = 0; v < NV; v++) {                                     \
                V a;                                                           \
                memcpy(&a, wr + k * ws + v * L, sizeof a);                     \
                wv[v] = a;                                                     \
            }                                                                  \
            for (int p = 0; p < P; p++) {                                      \
                /* a broadcast: x - (+0.0) is x, -0.0 included */              \
                V xv = x[p][o + k] - (V){0};                                   \
                for (int v = 0; v < NV; v++)                                   \
                    acc[p][v] += wv[v] * xv;                                   \
            }                                                                  \
        }                                                                      \
    }                                                                          \
    for (int p = 0; p < P; p++)                                                \
        for (int v = 0; v < NV; v++) {                                         \
            V a = acc[p][v];                                                   \
            memcpy(sums + (p * NV + v) * L, &a, sizeof a);                     \
        }                                                                      \
}

/* Each tile uses vectors of the target's own width, at most 16 of them
 * for sums: a wider vector, split by the compiler, or sums past the
 * register file ran several times slower.  P32, P16 and P8 positions
 * of 32, 16 and 8 filters divide MAXP. */
#if defined(__AVX512F__)
#define P32 8
#define P16 8
#define P8 8
CONV_TILE(tile32, v16, 16, 2, P32)
CONV_TILE(tile16, v16, 16, 1, P16)
CONV_TILE(tile8, v8, 8, 1, P8)
#elif defined(__AVX__)
#define P32 2
#define P16 4
#define P8 8
CONV_TILE(tile32, v8, 8, 4, P32)
CONV_TILE(tile16, v8, 8, 2, P16)
CONV_TILE(tile8, v8, 8, 1, P8)
#else
#define P32 1
#define P16 2
#define P8 4
CONV_TILE(tile32, v4, 4, 8, P32)
CONV_TILE(tile16, v4, 4, 4, P16)
CONV_TILE(tile8, v4, 4, 2, P8)
#endif

/* out (frames, oh, ow, filters) = the cross-correlation of xp (frames,
 * hp, wp, c), already padded, with wt (kh * kw * c, filters) at stride
 * s, plus bias (filters).  The rows of wt are ws floats apart, ws a
 * multiple of 8 at least filters, and columns past filters are zero. */
static void conv_nhwc(const float *xp, const float *wt, const float *bias, float *out,
                      int64_t frames, int64_t hp, int64_t wp, int64_t c, int64_t kh, int64_t kw,
                      int64_t s, int64_t oh, int64_t ow, int64_t filters, int64_t ws)
{
    int64_t run = kw * c, row = wp * c;
    int64_t positions = frames * oh * ow;
    int64_t n = 0, y = 0, xo = 0;   /* frame, oy, ox of the next position */
    for (int64_t m0 = 0; m0 < positions; m0 += MAXP) {
        int64_t np = positions - m0 < MAXP ? positions - m0 : MAXP;
        const float *x[MAXP];
        for (int64_t p = 0; p < np; p++) {
            x[p] = xp + ((n * hp + y * s) * wp + xo * s) * c;
            if (++xo == ow) {
                xo = 0;
                if (++y == oh) {
                    y = 0;
                    n++;
                }
            }
        }
        for (int64_t p = np; p < MAXP; p++)
            x[p] = x[np - 1];   /* computed again, never stored */
        float sums[MAXP * 32];
        for (int64_t f0 = 0, width; f0 < filters; f0 += width) {
            int64_t left = filters - f0;
            /* f0 and ws are multiples of 8, so left > 8 leaves ws >= f0 + 16 */
            width = left >= 32 ? 32 : left > 8 ? 16 : 8;
            if (width == 32)
                for (int64_t p0 = 0; p0 < np; p0 += P32)
                    tile32(x + p0, wt + f0, ws, kh, run, row, sums + p0 * 32);
            else if (width == 16)
                for (int64_t p0 = 0; p0 < np; p0 += P16)
                    tile16(x + p0, wt + f0, ws, kh, run, row, sums + p0 * 16);
            else
                for (int64_t p0 = 0; p0 < np; p0 += P8)
                    tile8(x + p0, wt + f0, ws, kh, run, row, sums + p0 * 8);
            int64_t nf = left < width ? left : width;
            for (int64_t p = 0; p < np; p++)
                for (int64_t i = 0; i < nf; i++)
                    out[(m0 + p) * filters + f0 + i] = sums[p * width + i] + bias[f0 + i];
        }
    }
}

/* Write to taken the indices i < n, in ascending order, of the x[i]
 * that are not +-0.0, NaN included; returns their count.  taken holds
 * n + 16 entries: the vector path stores 16 indices at a time, and
 * those past the count are never read. */
static int64_t nonzero_inputs(const float *x, int64_t n, int32_t *taken)
{
    int64_t k = 0, i = 0;
#if defined(__AVX512F__)
    __m512i index = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    for (; i + 16 <= n; i += 16) {
        __mmask16 keep = _mm512_cmp_ps_mask(_mm512_loadu_ps(x + i), _mm512_setzero_ps(), _CMP_NEQ_UQ);
        _mm512_storeu_si512(taken + k, _mm512_maskz_compress_epi32(keep, index));
        k += __builtin_popcount(keep);
        index = _mm512_add_epi32(index, _mm512_set1_epi32(16));
    }
#endif
    for (; i < n; i++) {   /* no branch: a zero is overwritten */
        taken[k] = (int32_t)i;
        k += x[i] != 0.0f;
    }
    return k;
}

/* The sums, without bias, of 16 * NV rows of x (inputs) against w, the
 * first of those rows in a panel whose weight rows are pw floats apart,
 * held in NV registers and stored to sums.  With skip_zeros set, every
 * input equal to +-0.0 is left out; the others are taken in ascending
 * order from a list of at most SKIP_BLOCK. */
#define FC_SUMS(NAME, NV)                                                      \
static void NAME(const float *x, const float *w, int64_t pw, int64_t inputs,   \
                 int64_t skip_zeros, float *sums)                              \
{                                                                              \
    v16 acc[NV];                                                               \
    for (int v = 0; v < NV; v++)                                               \
        acc[v] = (v16){0};                                                     \
    for (int64_t j0 = 0; j0 < inputs; j0 += SKIP_BLOCK) {                      \
        int64_t n = inputs - j0 < SKIP_BLOCK ? inputs - j0 : SKIP_BLOCK;       \
        int32_t taken[SKIP_BLOCK + 16];                                        \
        int64_t k = skip_zeros ? nonzero_inputs(x + j0, n, taken) : n;         \
        int listed = k < n;   /* else every input is taken, in order */        \
        for (int64_t i = 0; i < k; i++) {                                      \
            int64_t j = j0 + (listed ? taken[i] : i);                          \
            const float *wr = w + j * pw;                                      \
            v16 xv = x[j] - (v16){0};                                          \
            for (int v = 0; v < NV; v++) {                                     \
                v16 a;                                                         \
                memcpy(&a, wr + v * 16, sizeof a);                             \
                acc[v] += a * xv;                                              \
            }                                                                  \
        }                                                                      \
    }                                                                          \
    for (int v = 0; v < NV; v++) {                                             \
        v16 a = acc[v];                                                        \
        memcpy(sums + v * 16, &a, sizeof a);                                   \
    }                                                                          \
}

FC_SUMS(fc_sums1, 1)
FC_SUMS(fc_sums2, 2)
FC_SUMS(fc_sums4, 4)
FC_SUMS(fc_sums8, 8)
FC_SUMS(fc_sums16, 16)

typedef void (*fc_sums_fn)(const float *, const float *, int64_t, int64_t, int64_t, float *);

/* fc_sums_pow2[b] sums 16 << b rows of one panel. */
static const fc_sums_fn fc_sums_pow2[] = {fc_sums1, fc_sums2, fc_sums4, fc_sums8, fc_sums16};

/* out[r - lo] for rows [lo, hi) of x (inputs) against the panels wt of
 * an fc layer with outputs rows, ws = outputs rounded up to 16, plus
 * bias.  The range is summed one panel at a time, and a panel's nv
 * vectors in chunks of the powers of two that make up nv, largest
 * first: each chunk is the highest set bit of the vectors left. */
static void fc_rows(const float *restrict x, const float *restrict wt, const float *restrict bias,
                    float *restrict out, int64_t inputs, int64_t ws, int64_t lo, int64_t hi,
                    int64_t skip_zeros)
{
    float sums[FC_PANEL];
    for (int64_t r0 = lo, r1; r0 < hi; r0 = r1) {
        int64_t p0 = r0 / FC_PANEL * FC_PANEL;
        int64_t pw = ws - p0 < FC_PANEL ? ws - p0 : FC_PANEL;
        r1 = hi < p0 + FC_PANEL ? hi : p0 + FC_PANEL;
        const float *w = wt + inputs * p0 + (r0 - p0);
        for (int64_t v0 = 0, nv = (r1 - r0 + 15) / 16; v0 < nv; ) {
            int b = 63 - __builtin_clzll((unsigned long long)(nv - v0));
            fc_sums_pow2[b](x, w + v0 * 16, pw, inputs, skip_zeros, sums + v0 * 16);
            v0 += (int64_t)1 << b;
        }
        for (int64_t r = r0; r < r1; r++)
            out[r - lo] = sums[r - r0] + bias[r];
    }
}

/* -- the Python interface ------------------------------------------------ */

/* Take a C-contiguous float32 buffer of obj into view, writable if
 * asked; 0, or -1 with an exception set and nothing held. */
static int float_buffer(PyObject *obj, Py_buffer *view, int writable, const char *what)
{
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | (writable ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    if (view->itemsize != 4 || view->format == NULL || strcmp(view->format, "f") != 0) {
        PyErr_Format(PyExc_TypeError, "%s must hold float32, not format '%s'", what,
                     view->format == NULL ? "B" : view->format);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

/* Take the buffers of args[0..n) into views, the last writable; 0, or
 * -1 with an exception set and nothing held. */
static int take_buffers(PyObject *const *args, Py_buffer *views, int n, const char *const *what)
{
    for (int i = 0; i < n; i++)
        if (float_buffer(args[i], &views[i], i == n - 1, what[i]) < 0) {
            while (i--)
                PyBuffer_Release(&views[i]);
            return -1;
        }
    return 0;
}

static void release_buffers(Py_buffer *views, int n)
{
    for (int i = 0; i < n; i++)
        PyBuffer_Release(&views[i]);
}

/* Read args[first..first+n) as Python ints into v; 0, or -1 with an
 * exception set. */
static int take_ints(PyObject *const *args, int first, int n, long long *v)
{
    for (int i = 0; i < n; i++) {
        v[i] = PyLong_AsLongLong(args[first + i]);
        if (v[i] == -1 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

#define FLOATS(view) ((int64_t)((view).len / 4))

PyDoc_STRVAR(py_fc_rows_doc,
"fc_rows(x, wt, bias, out, lo, hi, skip_zeros)\n\n"
"Write rows [lo, hi) of an fc layer, plus bias, to out (hi - lo floats).\n"
"x holds the inputs, bias one float per output, and wt the layer's row\n"
"panels: inputs * ws + 16 floats, ws the outputs rounded up to 16.  With\n"
"skip_zeros true, inputs equal to +-0.0 are left out, which is exact only\n"
"when every weight is finite.");

static PyObject *py_fc_rows(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    static const char *const what[] = {"x", "wt", "bias", "out"};
    long long v[3];
    Py_buffer b[4];
    (void)self;
    if (nargs != 7) {
        PyErr_Format(PyExc_TypeError, "fc_rows takes 7 arguments, not %zd", nargs);
        return NULL;
    }
    if (take_ints(args, 4, 3, v) < 0 || take_buffers(args, b, 4, what) < 0)
        return NULL;
    int64_t inputs = FLOATS(b[0]), outputs = FLOATS(b[2]), lo = v[0], hi = v[1];
    int64_t ws = (outputs + 15) / 16 * 16, need;
    if (__builtin_mul_overflow(inputs, ws, &need) || __builtin_add_overflow(need, 16, &need)
        || FLOATS(b[1]) != need)
        PyErr_Format(PyExc_ValueError, "fc_rows: %lld inputs and %lld outputs need %lld weight "
                     "floats, not %lld", (long long)inputs, (long long)outputs,
                     (long long)(need), (long long)FLOATS(b[1]));
    else if (!(0 <= lo && lo < hi && hi <= outputs))
        PyErr_Format(PyExc_ValueError, "fc_rows: rows [%lld, %lld) are empty or outside "
                     "[0, %lld)", v[0], v[1], (long long)outputs);
    else if (FLOATS(b[3]) != hi - lo)
        PyErr_Format(PyExc_ValueError, "fc_rows: out holds %lld floats, not %lld",
                     (long long)FLOATS(b[3]), (long long)(hi - lo));
    else {
        Py_BEGIN_ALLOW_THREADS
        fc_rows(b[0].buf, b[1].buf, b[2].buf, b[3].buf, inputs, ws, lo, hi, v[2] != 0);
        Py_END_ALLOW_THREADS
    }
    release_buffers(b, 4);
    if (PyErr_Occurred())
        return NULL;
    Py_RETURN_NONE;
}

PyDoc_STRVAR(py_conv_nhwc_doc,
"conv_nhwc(xp, wt, bias, out, kh, kw, stride)\n\n"
"Write the cross-correlation of xp (frames, hp, wp, c), already padded,\n"
"with wt (kh * kw * c, ws) at stride, plus bias (filters), to out (frames,\n"
"oh, ow, filters).  ws is a multiple of 8 at least filters, and the\n"
"columns of wt past filters are zero.");

static PyObject *py_conv_nhwc(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    static const char *const what[] = {"xp", "wt", "bias", "out"};
    static const int ndim[] = {4, 2, 1, 4};
    long long v[3];
    Py_buffer b[4];
    (void)self;
    if (nargs != 7) {
        PyErr_Format(PyExc_TypeError, "conv_nhwc takes 7 arguments, not %zd", nargs);
        return NULL;
    }
    if (take_ints(args, 4, 3, v) < 0 || take_buffers(args, b, 4, what) < 0)
        return NULL;
    for (int i = 0; i < 4 && !PyErr_Occurred(); i++)
        if (b[i].ndim != ndim[i])
            PyErr_Format(PyExc_ValueError, "conv_nhwc: %s has %d dimensions, not %d",
                         what[i], b[i].ndim, ndim[i]);
    if (PyErr_Occurred()) {
        release_buffers(b, 4);
        return NULL;
    }
    int64_t kh = v[0], kw = v[1], s = v[2];
    int64_t frames = b[0].shape[0], hp = b[0].shape[1], wp = b[0].shape[2], c = b[0].shape[3];
    int64_t taps = b[1].shape[0], ws = b[1].shape[1], filters = b[2].shape[0];
    if (kh < 1 || kw < 1 || s < 1 || kh > hp || kw > wp)
        PyErr_Format(PyExc_ValueError, "conv_nhwc: kernel %lldx%lld at stride %lld does not fit "
                     "a padded input of %lldx%lld", v[0], v[1], v[2], (long long)hp, (long long)wp);
    else if (c < 1 || taps != kh * kw * c || ws % 8 || ws < filters)
        PyErr_Format(PyExc_ValueError, "conv_nhwc: weights (%lld, %lld) do not fit %lld channels "
                     "and %lld filters", (long long)taps, (long long)ws, (long long)c,
                     (long long)filters);
    else {
        int64_t oh = (hp - kh) / s + 1, ow = (wp - kw) / s + 1;
        const Py_ssize_t *o = b[3].shape;
        if (o[0] != frames || o[1] != oh || o[2] != ow || o[3] != filters)
            PyErr_Format(PyExc_ValueError, "conv_nhwc: out is (%zd, %zd, %zd, %zd), not (%lld, "
                         "%lld, %lld, %lld)", o[0], o[1], o[2], o[3], (long long)frames,
                         (long long)oh, (long long)ow, (long long)filters);
        else {
            Py_BEGIN_ALLOW_THREADS
            conv_nhwc(b[0].buf, b[1].buf, b[2].buf, b[3].buf, frames, hp, wp, c, kh, kw, s,
                      oh, ow, filters, ws);
            Py_END_ALLOW_THREADS
        }
    }
    release_buffers(b, 4);
    if (PyErr_Occurred())
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"fc_rows", (PyCFunction)(void (*)(void))py_fc_rows, METH_FASTCALL, py_fc_rows_doc},
    {"conv_nhwc", (PyCFunction)(void (*)(void))py_conv_nhwc, METH_FASTCALL, py_conv_nhwc_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_kernels", "Exact float32 conv and fc kernels.", -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__kernels(void)
{
    PyObject *m = PyModule_Create(&module);
#if defined(__AVX512F__)
    const int avx512f = 1;
#else
    const int avx512f = 0;
#endif
    if (m != NULL && (PyModule_AddIntConstant(m, "FC_PANEL", FC_PANEL) < 0
                      || PyModule_AddIntConstant(m, "AVX512F", avx512f) < 0)) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
