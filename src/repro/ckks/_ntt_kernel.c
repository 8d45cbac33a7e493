/* The compiled NTTU: one radix-2 butterfly under the limb-batch NTT;
 * the KMU and BConvU loops follow it.
 *
 * Built, checked and loaded by repro/backend/native.py; the NTT is
 * called by repro.ckks.ntt.BatchNttPlan.  In place on a C-contiguous (rows, n)
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

/* The compiled KMU and BConvU: multiply-accumulate in unsigned __int128,
 * called by KeyMultPlan.accumulate and BConvPlan.convert.
 *
 * Both read C-contiguous uint64 blocks of canonical residues in place
 * and write canonical words.  A product of two residues below 2^62 is
 * below 2^124, so the 128-bit sum takes at least 16 of them; every
 * `budget(a, b, m)` terms of at most (a-1)(b-1) each, the sum is
 * folded back below its modulus m, which keeps it below 2^128 at any
 * term count.  A sum is reduced by reduce128: hi * (2^64 mod m) and lo
 * each by a lazy Shoup multiply into [0, 2m), two folds to [0, m).
 */

typedef struct {
    uint64_t m, t, ts, ones;    /* t = 2^64 mod m, Shoup companions */
} reducer;

static reducer make_reducer(uint64_t m)
{
    reducer r;
    r.m = m;
    r.t = (uint64_t)(((u128)1 << 64) % m);
    r.ts = (uint64_t)(((u128)r.t << 64) / m);
    r.ones = (uint64_t)(((u128)1 << 64) / m);
    return r;
}

static inline uint64_t reduce128(u128 x, const reducer *r)
{
    const uint64_t hi = (uint64_t)(x >> 64), lo = (uint64_t)x;
    const uint64_t s = mul_lazy(hi, r->t, r->ts, r->m)
                       + mul_lazy(lo, 1, r->ones, r->m);
    return fold(fold(s, 2 * r->m), r->m);
}

/* Terms of at most (a-1)(b-1) a sum below m can take under 2^128. */
static size_t budget(uint64_t a, uint64_t b, uint64_t m)
{
    const u128 term = (u128)(a - 1) * (b - 1);
    const u128 room = ~(u128)0 - (m - 1);
    if (!term || room / term > (u128)SIZE_MAX)
        return SIZE_MAX;
    return (size_t)(room / term);
}

/* out[h][i][e] = sum_j x[j][i][e] * w[h][j][i][e] mod q[i]:
 * x the (d, k, n) digit block, w the key's (2, d, k, n) block, out
 * (2, k, n); both halves share each read of a digit word. */
void kmu_accumulate(uint64_t *out, const uint64_t *x, const uint64_t *w,
                    size_t d, size_t k, size_t n, const uint64_t *q)
{
    const size_t plane = k * n;
    const uint64_t *w1 = w + d * plane;
    for (size_t i = 0; i < k; i++) {
        const reducer r = make_reducer(q[i]);
        const size_t limit = budget(q[i], q[i], q[i]);
        for (size_t e = i * n; e < (i + 1) * n; e++) {
            u128 a0 = 0, a1 = 0;
            size_t left = limit;
            for (size_t j = 0, at = e; j < d; j++, at += plane) {
                if (!left--) {
                    a0 = reduce128(a0, &r);
                    a1 = reduce128(a1, &r);
                    left = limit - 1;
                }
                a0 += (u128)x[at] * w[at];
                a1 += (u128)x[at] * w1[at];
            }
            out[e] = reduce128(a0, &r);
            out[plane + e] = reduce128(a1, &r);
        }
    }
}

/* HPS base conversion of the (k_in, n) block x over moduli q into the
 * (k_out, n) block out over p: y_i = x_i * hat_inv[i] mod q_i (Shoup),
 * then out_j = sum_i y_i * mat[j][i] mod p_j.  The scaled words of a
 * tile of columns are held point-major, so each output word sums one
 * contiguous run.  Needs 1 <= k_in <= BCONV_TILE, and k_out at most
 * what a VLA of reducers may take on the caller's stack. */
#define BCONV_TILE 2048

void bconv_convert(uint64_t *out, const uint64_t *x, size_t k_in,
                   size_t k_out, size_t n, const uint64_t *q,
                   const uint64_t *hat_inv, const uint64_t *mat,
                   const uint64_t *p)
{
    uint64_t y[BCONV_TILE], hs[BCONV_TILE];
    reducer rp[k_out];
    size_t limit[k_out];
    uint64_t q_max = 1;
    for (size_t i = 0; i < k_in; i++) {
        hs[i] = (uint64_t)(((u128)hat_inv[i] << 64) / q[i]);
        q_max = q[i] > q_max ? q[i] : q_max;
    }
    for (size_t j = 0; j < k_out; j++) {
        rp[j] = make_reducer(p[j]);
        limit[j] = budget(q_max, p[j], p[j]);
    }
    const size_t tile = BCONV_TILE / k_in;
    for (size_t e0 = 0; e0 < n; e0 += tile) {
        const size_t cols = n - e0 < tile ? n - e0 : tile;
        for (size_t i = 0; i < k_in; i++) {
            const uint64_t *row = x + i * n + e0;
            for (size_t e = 0; e < cols; e++)
                y[e * k_in + i] = fold(
                    mul_lazy(row[e], hat_inv[i], hs[i], q[i]), q[i]);
        }
        for (size_t j = 0; j < k_out; j++) {
            const uint64_t *m = mat + j * k_in;
            uint64_t *dst = out + j * n + e0;
            for (size_t e = 0; e < cols; e++) {
                const uint64_t *ye = y + e * k_in;
                u128 acc = 0;
                size_t left = limit[j];
                for (size_t i = 0; i < k_in; i++) {
                    if (!left--) {
                        acc = reduce128(acc, &rp[j]);
                        left = limit[j] - 1;
                    }
                    acc += (u128)ye[i] * m[i];
                }
                dst[e] = reduce128(acc, &rp[j]);
            }
        }
    }
}
