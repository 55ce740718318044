/* Exact float32 conv and fc kernels for edgeflock.engine.
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
 * zero columns up to the next multiple of 8 filters, so the last
 * filters % 8 filters run as 8 in place, and the padded lanes are
 * discarded.
 */
#include <stdint.h>
#include <string.h>

typedef float v16 __attribute__((vector_size(64)));
typedef float v8 __attribute__((vector_size(32)));
typedef float v4 __attribute__((vector_size(16)));

/* Rows summed at once by fc_rows: their accumulators, 4 KiB, stay in L1,
 * and each input's weights for them are one contiguous run of a weight
 * row, so a matrix of up to 1024 outputs is read front to back.  On a
 * 2-vCPU AVX-512 Xeon (best of 7, two runs), a 1024 -> 1024 call took
 * 282-300 us at 64 rows, which read it in 64-float pieces 4 KiB apart,
 * and 200-211 us at 1024; 960 -> 1024 went from 261-287 to 181-186 us.
 * 256 or 2048 rows were slower on both.
 * MAXP is the number of conv positions whose input pointers a conv tile
 * reads: more ran no faster on the same Xeon, as the pointers no longer
 * fit in general-purpose registers. */
#define ROWS 1024
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
void conv_nhwc(const float *xp, const float *wt, const float *bias, float *out,
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
            width = left >= 32 ? 32 : left >= 16 ? 16 : 8;
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

/* out[r - lo] for rows [lo, hi) of x (inputs) against wt (inputs,
 * outputs), plus bias (outputs). */
void fc_rows(const float *restrict x, const float *restrict wt, const float *restrict bias,
             float *restrict out, int64_t inputs, int64_t outputs, int64_t lo, int64_t hi)
{
    for (int64_t r0 = lo; r0 < hi; r0 += ROWS) {
        int64_t rows = hi - r0 < ROWS ? hi - r0 : ROWS;
        float acc[ROWS];
        for (int64_t r = 0; r < rows; r++)
            acc[r] = 0.0f;
        for (int64_t j = 0; j < inputs; j++) {
            const float *w = wt + j * outputs + r0;
            for (int64_t r = 0; r < rows; r++)
                acc[r] += w[r] * x[j];
        }
        for (int64_t r = 0; r < rows; r++)
            out[r0 - lo + r] = acc[r] + bias[r0 + r];
    }
}
