/* Exact float32 conv and fc kernels for edgeflock.engine.
 *
 * Every output is a sum that starts from +0.0f and adds its rounded
 * products in ascending tap (or input) order, bias last, exactly as the
 * scalar oracles do.  Loops are vectorized only across independent
 * outputs (positions and filters, or output rows), never within a sum.
 * Build without FMA contraction (-ffp-contract=off) and without any
 * -ffast-math style flag: a fused multiply-add skips the rounding of the
 * product, and reassociation reorders the sum.
 */
#include <stdint.h>

/* Filters and positions (conv) or rows (fc) summed at once. */
#define FILTERS 4
#define WIDTH 64
#define ROWS 64

/* out[m, f] for positions [m0, m0 + width) and filters [f0, f0 + nf). */
static inline void conv_block(const float *restrict patches, const float *restrict wt,
                              const float *restrict bias, float *restrict out,
                              int64_t taps, int64_t positions, int64_t filters,
                              int64_t m0, int64_t width, int64_t f0, int64_t nf)
{
    float acc[FILTERS][WIDTH];
    for (int64_t i = 0; i < nf; i++)
        for (int64_t j = 0; j < width; j++)
            acc[i][j] = 0.0f;
    for (int64_t t = 0; t < taps; t++) {
        const float *p = patches + t * positions + m0;
        const float *w = wt + t * filters + f0;
        for (int64_t i = 0; i < nf; i++)
            for (int64_t j = 0; j < width; j++)
                acc[i][j] += p[j] * w[i];
    }
    for (int64_t j = 0; j < width; j++)
        for (int64_t i = 0; i < nf; i++)
            out[(m0 + j) * filters + f0 + i] = acc[i][j] + bias[f0 + i];
}

/* out (positions, filters) = patches (taps, positions) against wt
 * (taps, filters), plus bias (filters). */
void conv_rows(const float *restrict patches, const float *restrict wt,
               const float *restrict bias, float *restrict out,
               int64_t taps, int64_t positions, int64_t filters)
{
    for (int64_t m0 = 0; m0 < positions; m0 += WIDTH) {
        int64_t width = positions - m0 < WIDTH ? positions - m0 : WIDTH;
        int64_t f0 = 0;
        if (width == WIDTH) {
            for (; f0 + FILTERS <= filters; f0 += FILTERS)
                conv_block(patches, wt, bias, out, taps, positions, filters, m0, WIDTH, f0, FILTERS);
            for (; f0 < filters; f0++)
                conv_block(patches, wt, bias, out, taps, positions, filters, m0, WIDTH, f0, 1);
        } else {
            for (; f0 < filters; f0++)
                conv_block(patches, wt, bias, out, taps, positions, filters, m0, width, f0, 1);
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
