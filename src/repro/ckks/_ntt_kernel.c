/* The compiled NTTU: one radix-2 butterfly under the limb-batch NTT.
 *
 * Built and loaded by repro/backend/native.py, called by
 * repro.ckks.ntt.BatchNttPlan.  In place on a C-contiguous (rows, n)
 * uint64 block; row r is a limb modulo q[r] < 2^62, n a power of two.
 * w[r] / ws[r] point at that row's n twiddles in bit-reversed order and
 * their Shoup companions floor(w * 2^64 / q): the arrays
 * NttPlan.fused_tables() already holds, read where they are.
 *
 * Domains (Harvey): mul_lazy returns the exact representative in
 * [0, 2q) for any uint64 operand and w < q.  Forward (Cooley-Tukey)
 * keeps values in [0, 4q): the added operand is folded to [0, 2q), so
 * sums and 2q-complemented differences stay below 4q < 2^64.  Inverse
 * (Gentleman-Sande) keeps [0, 2q): sums are folded once, differences
 * x + 2q - y < 4q go straight into the multiply.  The last stage of
 * each direction folds to canonical [0, q); the inverse's last stage
 * also carries the N^-1 scale, merged into its twiddle.
 */
#include <stddef.h>
#include <stdint.h>

typedef unsigned __int128 u128;

static inline uint64_t fold(uint64_t x, uint64_t m)
{
    return x >= m ? x - m : x;
}

static inline uint64_t mul_lazy(uint64_t a, uint64_t w, uint64_t ws,
                                uint64_t q)
{
    return a * w - (uint64_t)(((u128)a * ws) >> 64) * q;
}

static inline __attribute__((always_inline)) void
forward_stage(uint64_t *a, size_t m, size_t t, const uint64_t *w,
              const uint64_t *ws, uint64_t q, int last)
{
    const uint64_t q2 = 2 * q;
    for (size_t i = 0; i < m; i++) {
        const uint64_t wi = w[m + i], wsi = ws[m + i];
        uint64_t *x = a + 2 * i * t, *y = x + t;
        for (size_t j = 0; j < t; j++) {
            uint64_t u = fold(x[j], q2);
            uint64_t v = mul_lazy(y[j], wi, wsi, q);
            uint64_t s = u + v, d = u + q2 - v;
            x[j] = last ? fold(fold(s, q2), q) : s;
            y[j] = last ? fold(fold(d, q2), q) : d;
        }
    }
}

void ntt_forward(uint64_t *a, size_t rows, size_t n,
                 const uint64_t *const *w, const uint64_t *const *ws,
                 const uint64_t *q)
{
    if (n < 2)
        return;
    for (size_t r = 0; r < rows; r++, a += n) {
        size_t m = 1, t = n / 2;
        for (; t > 1; m *= 2, t /= 2)
            forward_stage(a, m, t, w[r], ws[r], q[r], 0);
        forward_stage(a, m, 1, w[r], ws[r], q[r], 1);
    }
}

static inline void inverse_stage(uint64_t *a, size_t h, size_t t,
                                 const uint64_t *w, const uint64_t *ws,
                                 uint64_t q)
{
    const uint64_t q2 = 2 * q;
    for (size_t i = 0; i < h; i++) {
        const uint64_t wi = w[h + i], wsi = ws[h + i];
        uint64_t *x = a + 2 * i * t, *y = x + t;
        for (size_t j = 0; j < t; j++) {
            uint64_t u = x[j], v = y[j];
            x[j] = fold(u + v, q2);
            y[j] = mul_lazy(u + q2 - v, wi, wsi, q);
        }
    }
}

void ntt_inverse(uint64_t *a, size_t rows, size_t n,
                 const uint64_t *const *w, const uint64_t *const *ws,
                 const uint64_t *q, const uint64_t *n_inv)
{
    if (n < 2)
        return;
    for (size_t r = 0; r < rows; r++, a += n) {
        const uint64_t qr = q[r], q2 = 2 * qr, ni = n_inv[r];
        size_t h = n / 2, t = 1;
        for (; h > 1; h /= 2, t *= 2)
            inverse_stage(a, h, t, w[r], ws[r], qr);
        /* last stage, one group: (x + y) * N^-1 and (x - y) * (w * N^-1) */
        const uint64_t wn = (uint64_t)((u128)w[r][1] * ni % qr);
        const uint64_t nis = (uint64_t)(((u128)ni << 64) / qr);
        const uint64_t wns = (uint64_t)(((u128)wn << 64) / qr);
        uint64_t *x = a, *y = a + t;
        for (size_t j = 0; j < t; j++) {
            uint64_t u = x[j], v = y[j];
            x[j] = fold(mul_lazy(u + v, ni, nis, qr), qr);
            y[j] = fold(mul_lazy(u + q2 - v, wn, wns, qr), qr);
        }
    }
}
