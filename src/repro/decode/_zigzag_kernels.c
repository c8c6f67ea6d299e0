/* Compiled whole-batch zigzag decode for the fixed-point decoder.
 *
 * Built lazily by repro.decode._cnative with the system C compiler and
 * loaded through ctypes.  The one entry point, zigzag_decode, runs a
 * quantized batch to completion in a single call when the decoder's
 * fused plan engages ("cnative" backend); every other decode takes the
 * numpy loop in repro.decode.batch_quantized, which is the reference.
 * The kernel reproduces that loop's integer arithmetic exactly (integer
 * ops are exact, so matching the operation definitions gives
 * bit-identical results by construction — asserted by the kernel
 * parity tests).
 *
 * The decode kernel is *lane-blocked*: frames are processed in groups
 * of LANES with every per-frame array stored lane-minor (shape
 * [element][LANES]), so each inner loop is a fixed-width contiguous
 * SIMD operation across frames — including the posterior gather and
 * the decision scatter-add, whose row indices are shared by all lanes.
 * Each pass lives in its own static function with restrict-qualified
 * pointers; without that the compiler gives up on the alias run-time
 * checks and leaves the lane loops scalar.
 *
 * One iteration walks the checks once, in tiles of whole segments
 * (at most CHECK_TILE checks; a longer segment is a tile of its own),
 * and runs three passes over each tile before the next one starts:
 *   - pass A, the VN phase and the check min scan, two slabs (info
 *     slots) per sweep;
 *   - the check pass, one linear pass in the paper's zigzag order:
 *     the forward message rides in registers from check to check and
 *     straight into the next check (and from tile to tile), only the
 *     backward messages b are stored (in place), and the parity
 *     decision of check c is emitted at check c+1, once b[c+1] is
 *     known;
 *   - pass C, the output blend and posterior scatter-add, two slabs
 *     per sweep.
 * So the tile's check state (8 rows of at most 256 x 32 bytes, 64 KB)
 * stays in cache from pass A to pass C, as the paper's core keeps its
 * checks' state in the functional units, instead of 8 rows per check
 * of the whole code (8.3 MB on the 64800-bit code) making a round trip
 * through L3 between three whole sweeps.  Pass A reads only the last
 * iteration's decisions: the int8 posterior mirror is refreshed after
 * the last tile, and the parity decisions are double-buffered.  The
 * stop test runs after the last tile's pass A, once the syndrome is
 * whole; an iteration that ends every live budget runs pass A alone.
 * Pairing two slabs halves the passes over the check state; visiting
 * all slabs of a check at once loses each slab's VN locality and was
 * measured 2.5x slower, so do not go past pairs without a paired A/B.
 * Where a 32-frame decode_batch of the served decoder (6-bit, alpha
 * 0.75, 30-iteration budget, early stop) spends its time, in ms (2-CPU
 * Intel Xeon host, GCC 12 -march=native; timers around each pass,
 * medians of 12-20 alternating calls on identical input; "before" is
 * the kernel of three whole sweeps):
 *
 *   code (iterations run)     call          pass A       check        pass C
 *   64800-bit 1/2, 3 dB (11)  36.6 -> 31.0  10.9 -> 7.8  3.76 -> 3.99 10.4 -> 7.6
 *   P=36 1/4 (9)              1.90 -> 2.02  0.36 -> 0.35 0.45 -> 0.51 0.24 -> 0.31
 *   P=36 1/2 (10)             2.15 -> 2.19  0.50 -> 0.47 0.33 -> 0.36 0.44 -> 0.49
 *   P=36 3/4 (6)              1.58 -> 1.67  0.31 -> 0.32 0.10 -> 0.11 0.29 -> 0.35
 *
 * The rest of a call (quantization, the input load, the per-iteration
 * posterior reset and clip, lane bookkeeping) did not move: 11.6 ms on
 * the full code, 0.84-0.89 ms on the P=36 codes.  With every lane
 * running 30 iterations (early stop off) the full-code call went from
 * 85.6 to 65.1 ms, about 2.55 -> 1.89 ms per iteration.  The P=36
 * codes, whose whole check state (0.4-1.2 MB) already fitted in L2,
 * gain nothing, and a block that stops wastes the check side of the
 * tiles before the last: uninstrumented they read 0.98x, 1.01x and
 * 0.95x.  They run at acm-mixed's operating points (threshold +
 * 1 dB).  The workspace is 13.5 MB on the full code (20.8 MB with
 * three sweeps): the eight check-state arrays hold one tile, and one
 * n_par-row decision buffer is added.  docs/backends.md has the
 * measurements and the exactness argument in full.
 *
 * The kernel runs on the calling thread.  Parallelism comes from the
 * worker processes above it (the Monte-Carlo shards, the serve pool and
 * the fabric all fork), never from threads in here: a threaded runtime
 * started before a fork leaves the child waiting on helper threads it
 * does not have, and the serve and shard batches are at most one block
 * of LANES frames anyway.
 *
 * Every pass computes at the width of its data: int8 for messages,
 * check state and the parity chain; 16 bits only for the wide info
 * posteriors and, where the check pass multiplies, the normalization
 * product.  Write mi for max_int.
 * The caller guarantees 3*mi <= 127, mult*mi <= 32767 and channel
 * LLRs within +-mi, which keeps every value inside those widths:
 *   - the VN pass reads an int8 mirror of the posteriors clipped to
 *     +-2*mi (sign-preserving, and c2v is in [-mi, mi], so the clipped
 *     difference saturates to the same v2c — the numpy decoder's
 *     "narrow" path uses the identical argument);
 *   - c2v, the channel parity LLRs, f and b all lie within +-mi, so
 *     every sum or difference the kernel forms — p - c2v, chp + b,
 *     chp + f and chp + f + b — lies within +-3*mi and is exact in int8
 *     (the carried chp + f lies within +-2*mi);
 *   - magnitude normalization floor(alpha*m) is an exact multiply-shift
 *     (mult*m)>>shift (the caller verifies it reproduces the decoder's
 *     LUT for every m in 0..mi).  The check pass looks it up in a
 *     32-entry byte table filled from the pair, or, where the target
 *     has no byte permute, forms the product, exact in 16 bits for
 *     m <= mi.
 * Written with int temporaries, GCC 12 widens every int8 lane to int32
 * and packs it back, more than doubling the instructions per lane row;
 * the int8 locals below keep passes A and C one vector wide.  The
 * check pass had int8 locals too, but GCC still widened its four
 * normalizations to int32 (72 of 110 instructions per row), so it is
 * written in vector types, a whole row per operation (64 instructions
 * per row, 8 of them vpshufb).  Pass C carries
 * "#pragma GCC ivdep": its posterior rows are picked per check at run
 * time, so GCC would otherwise version the lane loop with about 30
 * instructions of overlap checks before every 32-lane row (and a scalar
 * fallback loop).  The lanes of one row never overlap (c2v, posts and
 * posts8 are disjoint parts of the workspace), and the two rows of a
 * paired sweep are distinct VNs because the caller declines codes with
 * a VN twice in one check, so the pragma removes only the check.
 *
 * Layout conventions (see repro.decode.batch_quantized):
 *   - info-edge storage is slot-major: edge (cn, t) of the dense
 *     n_par x width grid lives at index t*n_par + cn;
 *   - messages are int8 (formats up to 7 bits), VN accumulators int16.
 */


#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Frames per SIMD block: 32 int8 lanes = one 256-bit vector. */
#define LANES 32

/* ------------------------------------------------------------------ */
/* Lane-blocked zigzag decode.  Every per-frame array is lane-minor:
 * element i of lane f lives at [i*LANES + f].                         */

/* Rows per tile of the input transpose: a tile's 32 source runs and
 * its lane-minor destination (8 KB each) stay in L1 together. */
#define LOAD_TILE 256

/* Checks per tile of the iteration: whole segments, as many as fit in
 * CHECK_TILE checks (a longer segment is a tile of its own).  A tile's
 * eight check-state rows then take 8 * 256 * 32 bytes = 64 KB. */
#define CHECK_TILE 256

typedef struct {
    int16_t *posts;  /* (k, LANES) wide info posteriors */
    int8_t *ch;      /* (k + n_par, LANES) channel LLRs, info then parity */
    int8_t *posts8;  /* (k, LANES) posteriors clipped to +-2*mi */
    int8_t *c2v;     /* (e_in, LANES) check-to-VN messages */
    int8_t *b;       /* (n_par + 1, LANES) backward messages; the last
                      * row stays 0 */
    int8_t *fend_a;  /* (seg, LANES) last forward message of each */
    int8_t *fend_b;  /* segment (double buffer) */
    int8_t *min1;    /* (tile, LANES) one tile's check state from pass A */
    int8_t *min2;
    int8_t *am;      /* argmin slab index */
    uint8_t *par;    /* check parity sign */
    uint8_t *synd;
    int8_t *lo1;     /* (tile, LANES) output magnitudes for pass C */
    int8_t *lo2;
    uint8_t *chain;  /* output sign of the parity chain */
    uint8_t *pb_a;   /* (n_par, LANES) parity-bit decisions, each after */
    uint8_t *pb_b;   /* one guard row that stays 0 (double buffer) */
    void *base;      /* the malloc'd block, for free() */
} workspace;

static int ws_alloc(
    workspace *w, int64_t k, int64_t n_par, int64_t e_in, int64_t seg,
    int64_t tile)
{
    const int64_t L = LANES;
    int64_t bytes =
        k * L * 3 +                     /* posts (int16), posts8 */
        (k + n_par) * L +               /* ch */
        e_in * L +                      /* c2v */
        seg * L * 2 +                   /* fend_a, fend_b */
        tile * L * 8 +                  /* check state, pass C inputs */
        (n_par + 1) * L * 3;            /* b, pb_a, pb_b (one extra row
                                         * each) */
    /* Fields start at the first 64-byte boundary of the block: posts
     * comes first, so its 64-byte rows sit on cache lines, and every
     * later field is a whole number of 32-byte lane rows, so no row
     * straddles two lines.  malloc only guarantees 16 bytes: a block
     * 16 or 48 bytes past a line splits half the rows, and which
     * offset a call got depended on the heap's state (3-15 % slower
     * decodes on the P=36 codes, changing from process to process). */
    char *p = malloc((size_t)bytes + 63);
    if (!p) return 0;
    w->base = p;
    p = (char *)(((uintptr_t)p + 63) & ~(uintptr_t)63);
#define TAKE(field, type, count) \
    w->field = (type *)p; p += (int64_t)(count) * L * sizeof(type);
    TAKE(posts, int16_t, k)
    TAKE(ch, int8_t, k + n_par)
    TAKE(posts8, int8_t, k)
    TAKE(c2v, int8_t, e_in)
    TAKE(b, int8_t, n_par + 1)
    TAKE(fend_a, int8_t, seg)
    TAKE(fend_b, int8_t, seg)
    TAKE(min1, int8_t, tile)
    TAKE(min2, int8_t, tile)
    TAKE(am, int8_t, tile)
    TAKE(par, uint8_t, tile)
    TAKE(synd, uint8_t, tile)
    TAKE(lo1, int8_t, tile)
    TAKE(lo2, int8_t, tile)
    TAKE(chain, uint8_t, tile)
    TAKE(pb_a, uint8_t, n_par + 1)
    TAKE(pb_b, uint8_t, n_par + 1)
#undef TAKE
    w->pb_a += L;
    w->pb_b += L;
    return 1;
}

/* One lane of one slab in pass A: the VN update v2c = clip(p - cv,
 * +-mi) folded into its check's running state — the min1/min2/argmin
 * scan (strict-less, first occurrence: the numpy batch ordering), the
 * check parity sign, and the syndrome bit of the decision sign(p).
 * v2c itself is not stored: pass C recomputes its sign from the same
 * unchanged inputs. */
static inline void scan_lane(
    int8_t p, int8_t cv, int8_t t, int8_t mi,
    int8_t *m1, int8_t *m2, int8_t *am, uint8_t *pc, uint8_t *sy)
{
    const int8_t nmi = (int8_t)-mi;
    *sy ^= (uint8_t)(p < 0);
    int8_t v = (int8_t)(p - cv);
    v = v > mi ? mi : v;
    v = v < nmi ? nmi : v;
    *pc ^= (uint8_t)(v < 0);
    int8_t mag = (int8_t)(v < 0 ? -v : v);
    int8_t a = *m1, b = *m2;
    int lt = mag < a;
    *m2 = lt ? a : (b < mag ? b : mag);
    *m1 = lt ? mag : a;
    *am = lt ? t : *am;
}

/* Pass A over the nc checks of one tile.  Every pointer starts at the
 * tile's first check, and the check state rows are the tile's own.
 *
 * Slab 0 alone: used when the width is odd.  Each check starts from
 * min1 = min2 = mi, argmin 0 and parity 0 — slab 0 then sets min1 =
 * |v2c| and keeps min2 = mi and argmin = 0, as a first slab must —
 * and from the IRA syndrome of the previous iteration's parity
 * decisions, pb[c] ^ pb[c-1] (pb[-1] is the previous tile's last row,
 * or before the first tile a guard row that stays 0). */
static void vn_pass_first(
    const int32_t *restrict vn,
    const int8_t *restrict posts8,
    const int8_t *restrict c2v,
    int8_t *restrict min1,
    int8_t *restrict min2,
    int8_t *restrict am,
    uint8_t *restrict par,
    uint8_t *restrict synd,
    const uint8_t *restrict pb,
    int64_t nc, int8_t mi)
{
    for (int64_t c = 0; c < nc; c++) {
        const int8_t *pr = posts8 + (int64_t)vn[c] * LANES;
        const int8_t *cv = c2v + c * LANES;
        const uint8_t *pbc = pb + c * LANES;
        const uint8_t *pbp = pb + (c - 1) * LANES;
        int8_t *m1 = min1 + c * LANES;
        int8_t *m2 = min2 + c * LANES;
        int8_t *amc = am + c * LANES;
        uint8_t *pc = par + c * LANES;
        uint8_t *sy = synd + c * LANES;
        for (int f = 0; f < LANES; f++) {
            int8_t s1 = mi, s2 = mi, sa = 0;
            uint8_t sp = 0, ss = (uint8_t)(pbc[f] ^ pbp[f]);
            scan_lane(pr[f], cv[f], 0, mi, &s1, &s2, &sa, &sp, &ss);
            m1[f] = s1; m2[f] = s2; amc[f] = sa; pc[f] = sp; sy[f] = ss;
        }
    }
}

/* Pass A, slabs 0 and 1 in one sweep (used when the width is even),
 * from the same starting state as vn_pass_first. */
static void vn_pass_first_pair(
    const int32_t *restrict vn0,
    const int32_t *restrict vn1,
    const int8_t *restrict posts8,
    const int8_t *restrict c2v0,
    const int8_t *restrict c2v1,
    int8_t *restrict min1,
    int8_t *restrict min2,
    int8_t *restrict am,
    uint8_t *restrict par,
    uint8_t *restrict synd,
    const uint8_t *restrict pb,
    int64_t nc, int8_t mi)
{
    for (int64_t c = 0; c < nc; c++) {
        const int8_t *pr0 = posts8 + (int64_t)vn0[c] * LANES;
        const int8_t *pr1 = posts8 + (int64_t)vn1[c] * LANES;
        const int8_t *cv0 = c2v0 + c * LANES;
        const int8_t *cv1 = c2v1 + c * LANES;
        const uint8_t *pbc = pb + c * LANES;
        const uint8_t *pbp = pb + (c - 1) * LANES;
        int8_t *m1 = min1 + c * LANES;
        int8_t *m2 = min2 + c * LANES;
        int8_t *amc = am + c * LANES;
        uint8_t *pc = par + c * LANES;
        uint8_t *sy = synd + c * LANES;
        for (int f = 0; f < LANES; f++) {
            int8_t s1 = mi, s2 = mi, sa = 0;
            uint8_t sp = 0, ss = (uint8_t)(pbc[f] ^ pbp[f]);
            scan_lane(pr0[f], cv0[f], 0, mi, &s1, &s2, &sa, &sp, &ss);
            scan_lane(pr1[f], cv1[f], 1, mi, &s1, &s2, &sa, &sp, &ss);
            m1[f] = s1; m2[f] = s2; amc[f] = sa; pc[f] = sp; sy[f] = ss;
        }
    }
}

/* Pass A, slabs t and t+1 (t >= 1) in one sweep, in slab order. */
static void vn_pass_pair(
    const int32_t *restrict vn0,
    const int32_t *restrict vn1,
    const int8_t *restrict posts8,
    const int8_t *restrict c2v0,
    const int8_t *restrict c2v1,
    int8_t *restrict min1,
    int8_t *restrict min2,
    int8_t *restrict am,
    uint8_t *restrict par,
    uint8_t *restrict synd,
    int64_t nc, int8_t mi, int8_t t)
{
    const int8_t t1 = (int8_t)(t + 1);
    for (int64_t c = 0; c < nc; c++) {
        const int8_t *pr0 = posts8 + (int64_t)vn0[c] * LANES;
        const int8_t *pr1 = posts8 + (int64_t)vn1[c] * LANES;
        const int8_t *cv0 = c2v0 + c * LANES;
        const int8_t *cv1 = c2v1 + c * LANES;
        int8_t *m1 = min1 + c * LANES;
        int8_t *m2 = min2 + c * LANES;
        int8_t *amc = am + c * LANES;
        uint8_t *pc = par + c * LANES;
        uint8_t *sy = synd + c * LANES;
        for (int f = 0; f < LANES; f++) {
            int8_t s1 = m1[f], s2 = m2[f], sa = amc[f];
            uint8_t sp = pc[f], ss = sy[f];
            scan_lane(pr0[f], cv0[f], t, mi, &s1, &s2, &sa, &sp, &ss);
            scan_lane(pr1[f], cv1[f], t1, mi, &s1, &s2, &sa, &sp, &ss);
            m1[f] = s1; m2[f] = s2; amc[f] = sa; pc[f] = sp; sy[f] = ss;
        }
    }
}

/* OR one tile's per-check syndrome columns into one flag per lane. */
static void synd_reduce(
    const uint8_t *restrict synd, int64_t nc, uint8_t *restrict bad)
{
    for (int64_t c = 0; c < nc; c++) {
        const uint8_t *sy = synd + c * LANES;
        for (int f = 0; f < LANES; f++)
            bad[f] |= sy[f];
    }
}

/* ------------------------------------------------------------------ */
/* The check pass in whole-row vectors.  A 32-lane row is one 32-byte
 * vector where the target has AVX2 and two 16-byte vectors otherwise.
 * The arithmetic is GCC/clang generic vector code; the one per-target
 * part is the normalization lookup below, picked by the preprocessor. */

#if defined(__AVX2__)
#define VW 32
#else
#define VW 16
#endif

typedef int8_t v8 __attribute__((vector_size(VW)));

static inline v8 vload(const void *p)
{
    v8 v;
    memcpy(&v, p, VW);
    return v;
}

static inline void vstore(void *p, v8 v)
{
    memcpy(p, &v, VW);
}

static inline v8 vsplat(int8_t x)
{
    v8 v;
    for (int i = 0; i < VW; i++)
        v[i] = x;
    return v;
}

/* Comparisons give lane masks (-1 where true); selects are bitwise. */
static inline v8 vmin(v8 a, v8 b)
{
    const v8 lt = (v8)(a < b);
    return (a & lt) | (b & ~lt);
}

static inline v8 vclip(v8 x, v8 lo, v8 hi)
{
    const v8 lt = (v8)(x < lo);
    return vmin((x & ~lt) | (lo & lt), hi);
}

/* x negated in the lanes where the mask s is -1. */
static inline v8 vnegif(v8 x, v8 s)
{
    return (x ^ s) - s;
}

/* floor(alpha*m) for a vector of magnitudes m <= mi.  mi is
 * 2^(bits-1) - 1 and 3*mi <= 127, so mi <= 31 and every magnitude is
 * an index into the 32-entry table tab[m] = (mult*m)>>shift that
 * zigzag_decode fills once per call.  lut_make loads it for the
 * check pass, and lut_norm looks the magnitudes up:
 *   - AVX2 or SSSE3: a pshufb pair.  pshufb reads 16 entries, indexed
 *     by the low 4 bits, and gives 0 where the index's top bit is set.
 *     lo holds tab[0..15] and hx tab[16..31] ^ tab[0..15] (in both
 *     128-bit halves with AVX2).  For m < 16 the second lookup, at
 *     m - 16 < 0, is 0; for m >= 16 it turns tab[m-16] into tab[m];
 *   - no byte permute (SSE2 alone, or not x86): the multiply-shift
 *     itself, on the low and the high byte of each 16-bit lane in
 *     turn.  Magnitudes are non-negative, so each byte widens to its
 *     lane unchanged, the product is exact in 16 bits because the
 *     caller guarantees mult*mi <= 32767, and the result (at most mi)
 *     fits its byte again.
 * One vpermb per lookup (AVX-512 VBMI) was timed against the pshufb
 * pair in the native build: the whole calls stayed within a few
 * percent, either way (docs/backends.md), so every AVX2 build takes
 * the pair. */
#if defined(__AVX2__)
#include <immintrin.h>
#elif defined(__SSSE3__)
#include <tmmintrin.h>
#endif

#if defined(__AVX2__) || defined(__SSSE3__)
typedef struct { v8 lo, hx; } normlut;

#if defined(__AVX2__)
#define PSHUFB(t, i) ((v8)_mm256_shuffle_epi8((__m256i)(t), (__m256i)(i)))
#else
#define PSHUFB(t, i) ((v8)_mm_shuffle_epi8((__m128i)(t), (__m128i)(i)))
#endif

static inline normlut lut_make(const int8_t *tab, int16_t mult, int shift)
{
    normlut t;
    (void)mult;
    (void)shift;
    for (int i = 0; i < VW; i++) {
        t.lo[i] = tab[i % 16];
        t.hx[i] = (int8_t)(tab[16 + i % 16] ^ tab[i % 16]);
    }
    return t;
}

static inline v8 lut_norm(normlut t, v8 m)
{
    return PSHUFB(t.lo, m) ^ PSHUFB(t.hx, m - vsplat(16));
}
#else
typedef uint16_t v16 __attribute__((vector_size(VW)));
typedef struct { uint16_t mult, shift; } normlut;

static inline normlut lut_make(const int8_t *tab, int16_t mult, int shift)
{
    (void)tab;
    return (normlut){(uint16_t)mult, (uint16_t)shift};
}

static inline v8 lut_norm(normlut t, v8 m)
{
    const v16 w = (v16)m;
    const v16 lo = ((w & 0xff) * t.mult) >> t.shift;
    const v16 hi = ((w >> 8) * t.mult) >> t.shift;
    return (v8)(lo | hi << 8);
}
#endif

/* The check side of one tile: one linear pass over its nseg segments
 * of q checks, the paper's forward/backward zigzag schedule.  Per
 * check c:
 *
 *   c_in = clip(chp + b[c+1], +-mi)        b[c+1] still from the last
 *                                          iteration (check c+1 writes
 *                                          it later, in this tile or
 *                                          the next; b[n_par] is 0)
 *   f    = sign * min(n1, norm|a|)         a = forward chain input,
 *                                          carried in registers
 *   b[c] = sign * min(n1, norm|c_in|)      updated in place
 *   lo1, lo2, chain                        pass C's output blend
 *   pb[c-1] = (chp + f)[c-1] + b[c] < 0    parity decision, one late
 *
 * chp, b and pb start at the tile's first check, fend_old and fend_new
 * at its first segment; min1 to chain are the tile's own rows.  Each
 * segment's forward chain starts at mi (segment 0 of the code, where
 * first is set) or from the previous iteration's forward message at
 * the end of the segment before it, which is all of the last
 * iteration's f that the scan reads — so only those seg rows are
 * stored, double-buffered.  The carried chp + f lies within +-2*mi and
 * passes from tile to tile through carry.  The caller starts it at mi
 * each iteration, so the decision "emitted" at check 0 into the guard
 * row pb[-1] is always 0.
 * The tile's last decision is written as chp + f alone, which is
 * final at the code's last check (b[n_par] is 0); anywhere else the
 * next tile's first check overwrites it.
 *
 * Every step is a whole-row vector operation: the lanes' chains are
 * independent, and the NV vectors of a row are worked on side by side
 * (sign flips and parity bits as lane masks, parity bytes 0/1). */
#define NV (LANES / VW)

static void check_pass(
    const int8_t *restrict chp,
    const int8_t *restrict min1,
    const int8_t *restrict min2,
    const uint8_t *restrict par,
    const int8_t *restrict fend_old,
    int8_t *restrict fend_new,
    int8_t *restrict b,
    int8_t *restrict lo1,
    int8_t *restrict lo2,
    uint8_t *restrict chain,
    uint8_t *restrict pb,
    int8_t *restrict carry,
    int64_t nseg, int64_t q, int first, int8_t mi, normlut nt)
{
    const v8 vmi = vsplat(mi), vnmi = vsplat((int8_t)-mi);
    const v8 zero = vsplat(0);
    v8 a[NV];   /* forward chain input of the current check */
    v8 cf[NV];  /* chp + f of the previous check */
    for (int h = 0; h < NV; h++)
        cf[h] = vload(carry + h * VW);
    for (int64_t s = 0; s < nseg; s++) {
        const int64_t base = s * q;
        for (int h = 0; h < NV; h++)
            a[h] = first && s == 0 ? vmi : vclip(
                vload(chp + (base - 1) * LANES + h * VW) +
                vload(fend_old + (s - 1) * LANES + h * VW), vnmi, vmi);
        for (int64_t c = base; c < base + q; c++) {
            for (int h = 0; h < NV; h++) {
                const int64_t o = c * LANES + h * VW;
                const v8 cp = vload(chp + o);
                const v8 pc = -vload(par + o);
                const v8 ci = vclip(cp + vload(b + o + LANES), vnmi, vmi);
                const v8 cn = (v8)(ci < zero);
                const v8 ang = (v8)(a[h] < zero);
                const v8 clv = lut_norm(nt, vnegif(ci, cn));
                const v8 anv = lut_norm(nt, vnegif(a[h], ang));
                const v8 n1v = lut_norm(nt, vload(min1 + o));
                const v8 sf = ang ^ pc;
                const v8 bv = vnegif(vmin(n1v, clv), pc ^ cn);
                vstore(b + o, bv);
                vstore(pb + o - LANES, -(v8)(cf[h] + bv < zero));
                cf[h] = cp + vnegif(vmin(n1v, anv), sf);
                a[h] = vclip(cf[h], vnmi, vmi);
                const v8 cm = vmin(anv, clv);
                vstore(lo1 + o, vmin(n1v, cm));
                vstore(lo2 + o, vmin(lut_norm(nt, vload(min2 + o)), cm));
                vstore(chain + o, -(sf ^ cn));
            }
        }
        /* the segment's last f, recovered exactly from chp + f */
        for (int h = 0; h < NV; h++)
            vstore(fend_new + s * LANES + h * VW,
                   cf[h] - vload(chp + (base + q - 1) * LANES + h * VW));
    }
    for (int h = 0; h < NV; h++) {
        vstore(pb + (nseg * q - 1) * LANES + h * VW, -(v8)(cf[h] < zero));
        vstore(carry + h * VW, cf[h]);
    }
}

/* One lane of one slab in pass C: the output blend c2v = sign *
 * (argmin slab ? lo2 : lo1), with the v2c sign recomputed from the
 * unchanged posts8/c2v instead of being stored by pass A. */
static inline int8_t output_lane(
    int8_t p8, int8_t cv, int8_t t, int8_t l1, int8_t l2, int8_t am,
    uint8_t chn)
{
    uint8_t vneg = p8 < cv;  /* sign of posts - c2v */
    int8_t bmag = am == t ? l2 : l1;
    return (chn ^ vneg) ? (int8_t)-bmag : bmag;
}

/* Pass C over the nc checks of one tile, pointers as in pass A.
 *
 * One slab: output blend + wide decision scatter-add.  Scatter rows
 * are shared across lanes, so the inner loop is still a contiguous
 * vector add.  Used for slab 0 when the width is odd. */
static void output_pass_slab(
    const int32_t *restrict vn,
    const int8_t *restrict posts8,
    int8_t *restrict c2v,
    const int8_t *restrict lo1,
    const int8_t *restrict lo2,
    const int8_t *restrict am,
    const uint8_t *restrict chain,
    int16_t *restrict posts,
    int64_t nc)
{
    for (int64_t c = 0; c < nc; c++) {
        const int8_t *pr8 = posts8 + (int64_t)vn[c] * LANES;
        int8_t *cv = c2v + c * LANES;
        const int8_t *l1 = lo1 + c * LANES;
        const int8_t *l2 = lo2 + c * LANES;
        const int8_t *amc = am + c * LANES;
        const uint8_t *chn = chain + c * LANES;
        int16_t *pr = posts + (int64_t)vn[c] * LANES;
#pragma GCC ivdep
        for (int f = 0; f < LANES; f++) {
            int8_t o = output_lane(pr8[f], cv[f], 0, l1[f], l2[f],
                                   amc[f], chn[f]);
            cv[f] = o;
            pr[f] = (int16_t)(pr[f] + o);
        }
    }
}

/* Pass C, slabs t and t+1 in one sweep.  The two posterior rows of a
 * check are distinct VNs (the caller's plan guarantees it), so the
 * ivdep lane loop may load both before it stores either. */
static void output_pass_pair(
    const int32_t *restrict vn0,
    const int32_t *restrict vn1,
    const int8_t *restrict posts8,
    int8_t *restrict c2v0,
    int8_t *restrict c2v1,
    const int8_t *restrict lo1,
    const int8_t *restrict lo2,
    const int8_t *restrict am,
    const uint8_t *restrict chain,
    int16_t *restrict posts,
    int64_t nc, int8_t t)
{
    const int8_t t1 = (int8_t)(t + 1);
    for (int64_t c = 0; c < nc; c++) {
        const int8_t *pr80 = posts8 + (int64_t)vn0[c] * LANES;
        const int8_t *pr81 = posts8 + (int64_t)vn1[c] * LANES;
        int8_t *cv0 = c2v0 + c * LANES;
        int8_t *cv1 = c2v1 + c * LANES;
        const int8_t *l1 = lo1 + c * LANES;
        const int8_t *l2 = lo2 + c * LANES;
        const int8_t *amc = am + c * LANES;
        const uint8_t *chn = chain + c * LANES;
        int16_t *pr0 = posts + (int64_t)vn0[c] * LANES;
        int16_t *pr1 = posts + (int64_t)vn1[c] * LANES;
#pragma GCC ivdep
        for (int f = 0; f < LANES; f++) {
            int8_t o0 = output_lane(pr80[f], cv0[f], t, l1[f], l2[f],
                                    amc[f], chn[f]);
            int8_t o1 = output_lane(pr81[f], cv1[f], t1, l1[f], l2[f],
                                    amc[f], chn[f]);
            cv0[f] = o0;
            cv1[f] = o1;
            pr0[f] = (int16_t)(pr0[f] + o0);
            pr1[f] = (int16_t)(pr1[f] + o1);
        }
    }
}

/* Restart the wide posteriors at the channel info LLRs. */
static void reset_posts(
    const int8_t *restrict chi, int16_t *restrict posts, int64_t k)
{
    for (int64_t i = 0; i < k * LANES; i++)
        posts[i] = chi[i];
}

/* Refresh the int8 posterior mirror: clip(posts, +-2*mi). */
static void clip_posts(
    const int16_t *restrict posts,
    int8_t *restrict posts8,
    int64_t k, int clip)
{
    for (int64_t i = 0; i < k * LANES; i++) {
        int p = posts[i];
        p = p > clip ? clip : p;
        p = p < -clip ? -clip : p;
        posts8[i] = (int8_t)p;
    }
}

/* Lane-minor transpose of one block's (frames, n) channel rows in
 * tiles of LOAD_TILE rows; dead lanes duplicate frame f0 (valid data,
 * never extracted). */
static void load_block(
    const int8_t *ch, int64_t frames, int64_t f0, int64_t n,
    int8_t *restrict dst)
{
    const int8_t *src[LANES];
    for (int f = 0; f < LANES; f++)
        src[f] = ch + (f0 + f < frames ? f0 + f : f0) * n;
    for (int64_t v0 = 0; v0 < n; v0 += LOAD_TILE) {
        const int64_t v1 = v0 + LOAD_TILE < n ? v0 + LOAD_TILE : n;
        for (int f = 0; f < LANES; f++) {
            const int8_t *s = src[f];
            for (int64_t v = v0; v < v1; v++)
                dst[v * LANES + f] = s[v];
        }
    }
}

/* Copy one finished lane's decisions out to its (frames, n) bits row:
 * info from posts8, parity from the last iteration's pb. */
static void extract_lane(
    const workspace *w, const uint8_t *pb, int lane, int64_t k,
    int64_t n_par, uint8_t *brow)
{
    for (int64_t v = 0; v < k; v++)
        brow[v] = w->posts8[v * LANES + lane] < 0;
    for (int64_t c = 0; c < n_par; c++)
        brow[k + c] = pb[c * LANES + lane];
}

/* ------------------------------------------------------------------ */
/* Whole-batch fused zigzag decode: frames run to completion (early
 * stop / per-frame iteration budget) in SIMD blocks of LANES frames.
 * Mirrors QuantizedZigzagDecoder.decode_quantized exactly:
 *
 *   v2c      = clip(posts_prev - c2v, +-mi)          (VN phase)
 *   min scan = strict-less first-occurrence argmin, min2 seeded at mi
 *   c_in     = clip(ch_pn + b_old[1:], +-mi)
 *   forward  = per-segment serial chain, f = sign * min(n1, norm|a|)
 *   outputs  = slab blends of lo1/lo2 with chain sign
 *   decision = wide VN sums (ch_in + sum of new c2v)
 *   syndrome = IRA chain, fused into the next iteration's VN gather
 *
 * Lanes that converge or exhaust their budget have their decisions
 * extracted immediately and are then ignored; the remaining lanes keep
 * iterating (the extra vector work changes nothing observable).
 *
 * Caller contract: 3*mi <= 127 (int8 narrow-VN condition),
 * (mult*m)>>shift == floor(alpha*m) for m in 0..mi, mult*mi <= 32767
 * (int16 normalization product), every channel LLR in [-mi, mi], and
 * no check names one VN in two info slots (paired pass C).
 */
void zigzag_decode(
    const int8_t *ch,       /* (frames, k + n_par) quantized LLRs:
                             * info at [0, k), parity at [k, n) */
    const int32_t *in_vn,   /* (e_in,) slot -> info VN */
    int64_t frames, int64_t k, int64_t n_par,
    int64_t width, int64_t seg, int64_t mi,
    int64_t mult, int64_t shift, /* floor(alpha*m) == (mult*m)>>shift */
    const int64_t *budgets, /* (frames,) per-frame iteration budgets */
    int early_stop,
    uint8_t *bits,          /* (frames, k + n_par) out */
    uint8_t *converged,     /* (frames,) out */
    int64_t *iterations)    /* (frames,) out */
{
    const int64_t e_in = width * n_par;
    const int64_t n = k + n_par;
    const int64_t n_blocks = (frames + LANES - 1) / LANES;
    const int8_t imi = (int8_t)mi;
    int8_t tab[32];
    for (int m = 0; m < 32; m++)
        tab[m] = (int8_t)((mult * m) >> shift);
    const normlut nt = lut_make(tab, (int16_t)mult, (int)shift);
    /* Slabs of pass A's first sweep and of pass C's lone sweep. */
    const int lead = (width & 1) ? 1 : 2;
    /* Checks per segment, and segments per tile. */
    const int64_t q = n_par / seg;
    const int64_t tseg = q >= CHECK_TILE ? 1 : CHECK_TILE / q;
    workspace w;
    const int have_ws = ws_alloc(&w, k, n_par, e_in, seg, tseg * q);

    for (int64_t blk = 0; blk < n_blocks; blk++) {
        /* Tested here, not by an early return before the loop: GCC 12
         * at -O3 spends ~0.5 s more in induction-variable optimization
         * on the early-return form, and every cold kernel cache pays
         * the build. */
        if (!have_ws) break;
        const int64_t f0 = blk * LANES;
        const int8_t *chp = w.ch + k * LANES;
        uint8_t done[LANES];
        int64_t bud[LANES];
        int64_t blockmax = 0;
        int alive = 0;

        load_block(ch, frames, f0, n, w.ch);
        reset_posts(w.ch, w.posts, k);
        clip_posts(w.posts, w.posts8, k, 2 * imi);
        /* Parity decisions: pass A and the lane extraction read the
         * last iteration's (pb_old), the check pass writes pb_new. */
        uint8_t *pb_old = w.pb_a, *pb_new = w.pb_b;
        for (int64_t i = 0; i < n_par * LANES; i++)
            pb_old[i] = chp[i] < 0;
        for (int f = 0; f < LANES; f++) {
            if (f0 + f < frames) {
                done[f] = 0;
                bud[f] = budgets[f0 + f];
                if (bud[f] > blockmax) blockmax = bud[f];
                iterations[f0 + f] = 0;
                converged[f0 + f] = 0;
                alive++;
            } else {
                done[f] = 1;
                bud[f] = 0;
            }
        }
        memset(pb_old - LANES, 0, LANES);
        memset(pb_new - LANES, 0, LANES);
        memset(w.c2v, 0, (size_t)(e_in * LANES));
        memset(w.fend_a, 0, (size_t)(seg * LANES));
        memset(w.b, 0, (size_t)((n_par + 1) * LANES));
        int8_t *fend_old = w.fend_a, *fend_new = w.fend_b;

        for (int64_t it = 1; alive && it <= blockmax + 1; it++) {
            /* An iteration that ends every live lane's budget needs
             * pass A alone, for the early-stop syndrome. */
            int ending = 1;
            for (int f = 0; f < LANES; f++)
                if (!done[f] && it <= bud[f]) ending = 0;
            uint8_t bad[LANES];
            int8_t carry[LANES];  /* check pass: chp + f, tile to tile */
            memset(bad, 0, LANES);
            memset(carry, imi, LANES);
            /* Nothing reads posts before pass C. */
            if (!ending) reset_posts(w.ch, w.posts, k);

            /* One walk over the checks, a tile at a time: pass A,
             * then the check pass, then pass C, so the tile's check
             * state stays in cache between them. */
            for (int64_t s0 = 0; s0 < seg; s0 += tseg) {
                const int64_t nseg = s0 + tseg < seg ? tseg : seg - s0;
                const int64_t c0 = s0 * q, nc = nseg * q;
                const int32_t *vn = in_vn + c0;
                int8_t *cv = w.c2v + c0 * LANES;

                /* Pass A: VN phase fused with the check min scan and
                 * the IRA syndrome of the last iteration's decision. */
                if (lead == 1)
                    vn_pass_first(vn, w.posts8, cv, w.min1, w.min2,
                                  w.am, w.par, w.synd,
                                  pb_old + c0 * LANES, nc, imi);
                else
                    vn_pass_first_pair(
                        vn, vn + n_par, w.posts8, cv,
                        cv + n_par * LANES, w.min1, w.min2, w.am,
                        w.par, w.synd, pb_old + c0 * LANES, nc, imi);
                for (int t = lead; t < (int)width; t += 2)
                    vn_pass_pair(
                        vn + (int64_t)t * n_par,
                        vn + (int64_t)(t + 1) * n_par, w.posts8,
                        cv + (int64_t)t * n_par * LANES,
                        cv + (int64_t)(t + 1) * n_par * LANES,
                        w.min1, w.min2, w.am, w.par, w.synd,
                        nc, imi, (int8_t)t);
                if (early_stop)
                    synd_reduce(w.synd, nc, bad);

                /* Lane bookkeeping, once the last tile completes the
                 * syndrome: converged lanes first (the golden model's
                 * in-loop check), then exhausted budgets. */
                if (s0 + nseg == seg) {
                    if (early_stop) {
                        for (int f = 0; f < LANES; f++) {
                            if (!done[f] && !bad[f]) {
                                extract_lane(&w, pb_old, f, k, n_par,
                                             bits + (f0 + f) * n);
                                iterations[f0 + f] = it - 1;
                                converged[f0 + f] = 1;
                                done[f] = 1;
                                alive--;
                            }
                        }
                    }
                    for (int f = 0; f < LANES; f++) {
                        if (!done[f] && it > bud[f]) {
                            extract_lane(&w, pb_old, f, k, n_par,
                                         bits + (f0 + f) * n);
                            iterations[f0 + f] = bud[f];
                            done[f] = 1;
                            alive--;
                        }
                    }
                    if (!alive) break;
                }
                if (ending) continue;

                check_pass(chp + c0 * LANES, w.min1, w.min2, w.par,
                           fend_old + s0 * LANES, fend_new + s0 * LANES,
                           w.b + c0 * LANES, w.lo1, w.lo2, w.chain,
                           pb_new + c0 * LANES, carry, nseg, q, s0 == 0,
                           imi, nt);

                /* Pass C: output blend and posterior scatter-add. */
                if (lead == 1)
                    output_pass_slab(vn, w.posts8, cv, w.lo1, w.lo2,
                                     w.am, w.chain, w.posts, nc);
                for (int t = 2 - lead; t < (int)width; t += 2)
                    output_pass_pair(
                        vn + (int64_t)t * n_par,
                        vn + (int64_t)(t + 1) * n_par, w.posts8,
                        cv + (int64_t)t * n_par * LANES,
                        cv + (int64_t)(t + 1) * n_par * LANES,
                        w.lo1, w.lo2, w.am, w.chain, w.posts,
                        nc, (int8_t)t);
            }
            if (!alive) break;
            clip_posts(w.posts, w.posts8, k, 2 * imi);

            { int8_t *tmp = fend_old; fend_old = fend_new; fend_new = tmp; }
            { uint8_t *tmp = pb_old; pb_old = pb_new; pb_new = tmp; }
            for (int f = 0; f < LANES; f++)
                if (!done[f]) iterations[f0 + f] = it;
        }

        /* Lanes that ran out of the block loop without an early
         * stop (early_stop == 0 budgets) extract their final
         * decisions here. */
        for (int f = 0; f < LANES; f++)
            if (!done[f])
                extract_lane(&w, pb_old, f, k, n_par, bits + (f0 + f) * n);
    }

    if (have_ws)
        free(w.base);
    else
        for (int64_t f = 0; f < frames; f++) iterations[f] = -1;
}
