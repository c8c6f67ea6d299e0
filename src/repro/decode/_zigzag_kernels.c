/* Compiled kernels for the batched fixed-point decoders.
 *
 * Built lazily by repro.decode._cnative with the system C compiler and
 * loaded through ctypes; the "cnative" array backend dispatches here.
 * Every routine reproduces the integer arithmetic of the numpy batch
 * decoders exactly (integer ops are exact, so matching the operation
 * definitions gives bit-identical results by construction — asserted by
 * the backend-parity test suite).
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
 * Every routine runs on the calling thread.  Parallelism comes from the
 * worker processes above it (the Monte-Carlo shards, the serve pool and
 * the fabric all fork), never from threads in here: a threaded runtime
 * started before a fork leaves the child waiting on helper threads it
 * does not have, and the serve and shard batches are at most one block
 * of LANES frames anyway.
 *
 * Every pass computes at the width of its data: int8 for messages,
 * check state and the parity chain; int16 only for the wide info
 * posteriors and the normalization product.  Write mi for max_int.
 * The caller guarantees 3*mi <= 127, mult*mi <= 32767 and channel
 * LLRs within +-mi, which keeps every value inside those widths:
 *   - the VN pass reads an int8 mirror of the posteriors clipped to
 *     +-2*mi (sign-preserving, and c2v is in [-mi, mi], so the clipped
 *     difference saturates to the same v2c — the numpy decoder's
 *     "narrow" path uses the identical argument);
 *   - c2v, the channel parity LLRs, f and b all lie within +-mi, so
 *     every sum or difference the kernel forms — p - c2v, chp + b_old,
 *     chp + f and chp + f + b — lies within +-3*mi and is exact in int8;
 *   - magnitude normalization floor(alpha*m) is an exact multiply-shift
 *     (mult*m)>>shift (the caller verifies it reproduces the decoder's
 *     LUT for every m in 0..mi, so there are no table gathers), and
 *     with m <= mi the product is exact in int16.
 * Written with int temporaries, GCC 12 widens every int8 lane to int32
 * and packs it back, more than doubling the instructions per lane row;
 * the int8 locals below keep each pass one vector wide.  Pass C carries
 * "#pragma GCC ivdep": its posterior row is picked per check at run
 * time, so GCC would otherwise version the lane loop with about 30
 * instructions of overlap checks before every 32-lane row (and a scalar
 * fallback loop).  The lanes of one row never overlap (c2v, posts and
 * posts8 are disjoint parts of the workspace), so the pragma removes
 * only the check.
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

static inline int clip_i(int v, int mi)
{
    return v > mi ? mi : (v < -mi ? -mi : v);
}

static inline int abs_i(int v) { return v < 0 ? -v : v; }

/* ------------------------------------------------------------------ */
/* Fused per-segment min1/min2/argmin for the flooding check phase.
 *
 * One sweep per segment replaces the two np.minimum.reduceat passes:
 * min1 is the segment minimum, argmin the *global sorted position* of
 * its first occurrence, and min2 the minimum of the remaining entries
 * (duplicates of min1 included), seeded at INT8_MAX exactly like the
 * numpy path's in-place mask value.                                   */
void segment_min_scan(
    const int8_t *mags,     /* (m, n_edges) CN-sorted magnitudes */
    int64_t m, int64_t n_edges,
    const int64_t *starts,  /* (n_segs,) segment start offsets */
    int64_t n_segs,
    int8_t *min1,           /* (m, n_segs) out */
    int8_t *min2,           /* (m, n_segs) out */
    int64_t *argmin)        /* (m, n_segs) out, global positions */
{
    for (int64_t f = 0; f < m; f++) {
        const int8_t *row = mags + f * n_edges;
        int8_t *m1 = min1 + f * n_segs;
        int8_t *m2 = min2 + f * n_segs;
        int64_t *am = argmin + f * n_segs;
        for (int64_t s = 0; s < n_segs; s++) {
            int64_t lo = starts[s];
            int64_t hi = (s + 1 < n_segs) ? starts[s + 1] : n_edges;
            int a = row[lo], b = INT8_MAX;
            int64_t pos = lo;
            for (int64_t e = lo + 1; e < hi; e++) {
                int v = row[e];
                if (v < a) { b = a; a = v; pos = e; }
                else if (v < b) { b = v; }
            }
            m1[s] = (int8_t)a;
            m2[s] = (int8_t)b;
            am[s] = pos;
        }
    }
}

/* ------------------------------------------------------------------ */
/* Standalone t-major forward scan (numpy-loop trace path).
 *
 * Matches BatchQuantizedZigzagDecoder._forward_scan: n1 is the already
 * normalized first minimum, outputs are f, lut[|a|] and (a < 0) in
 * linear n_par order.                                                 */
void zigzag_forward_scan(
    const int8_t *n1,          /* (m, n_par) lut[min1] */
    const uint8_t *parity_neg, /* (m, n_par) */
    const int8_t *ch_pn,       /* (m, n_par) */
    const int8_t *f_old,       /* (m, n_par) */
    int64_t m, int64_t n_par, int64_t seg, int64_t mi,
    const int8_t *lut,         /* (mi+1,) */
    int8_t *f,                 /* (m, n_par) out */
    int8_t *a_norm,            /* (m, n_par) out */
    uint8_t *a_neg)            /* (m, n_par) out */
{
    const int64_t q = n_par / seg;
    for (int64_t fr = 0; fr < m; fr++) {
        const int8_t *n1r = n1 + fr * n_par;
        const uint8_t *pr = parity_neg + fr * n_par;
        const int8_t *chr_ = ch_pn + fr * n_par;
        const int8_t *for_ = f_old + fr * n_par;
        int8_t *fo = f + fr * n_par;
        int8_t *an = a_norm + fr * n_par;
        uint8_t *ag = a_neg + fr * n_par;
        for (int64_t s = 0; s < seg; s++) {
            int64_t base = s * q;
            int a = (s == 0)
                ? (int)mi
                : clip_i((int)chr_[base - 1] + (int)for_[base - 1],
                         (int)mi);
            for (int64_t j = 0; j < q; j++) {
                int64_t i = base + j;
                int anv = lut[abs_i(a)];
                int ang = a < 0;
                an[i] = (int8_t)anv;
                ag[i] = (uint8_t)ang;
                int fm = n1r[i] < anv ? n1r[i] : anv;
                int fv = (ang ^ pr[i]) ? -fm : fm;
                fo[i] = (int8_t)fv;
                a = clip_i((int)chr_[i] + fv, (int)mi);
            }
        }
    }
}

/* ------------------------------------------------------------------ */
/* Lane-blocked zigzag decode.  Every per-frame array is lane-minor:
 * element i of lane f lives at [i*LANES + f].                         */

typedef struct {
    int16_t *chi;    /* (k, LANES) channel info LLRs */
    int8_t *chp;     /* (n_par, LANES) channel parity LLRs */
    int16_t *posts;  /* (k, LANES) wide info posteriors */
    int8_t *posts8;  /* (k, LANES) posteriors clipped to +-2*mi */
    int8_t *c2v;     /* (e_in, LANES) check-to-VN messages */
    int8_t *f_a;     /* (n_par, LANES) forward messages (double buf) */
    int8_t *f_b;
    int8_t *b_old;   /* (n_par + 1, LANES) backward messages */
    int8_t *b;       /* (n_par, LANES) */
    int8_t *min1;    /* (n_par, LANES) */
    int8_t *min2;
    int8_t *am;      /* argmin slab index */
    int8_t *n1;      /* normalized min1 */
    int8_t *cl;      /* normalized |c_in| */
    int8_t *lo1;
    int8_t *lo2;
    int8_t *anorm;
    uint8_t *par;    /* check parity sign */
    uint8_t *cneg;
    uint8_t *chain;
    uint8_t *aneg;
    uint8_t *synd;
    uint8_t *pb;     /* (n_par, LANES) parity-bit decisions */
    void *base;      /* the malloc'd block, for free() */
} workspace;

static int ws_alloc(workspace *w, int64_t k, int64_t n_par, int64_t e_in)
{
    const int64_t L = LANES;
    int64_t bytes =
        k * L * 5 +                     /* chi, posts (int16), posts8 */
        e_in * L +                      /* c2v */
        (n_par + 1) * L * 24;           /* everything else, padded */
    /* Fields start at the first 64-byte boundary of the block.  Every
     * field is a whole number of 32-byte lane rows, so no row then
     * straddles two cache lines.  malloc only guarantees 16 bytes: a
     * block 16 or 48 bytes past a line splits half the rows, and which
     * offset a call got depended on the heap's state (3-15 % slower
     * decodes on the P=36 codes, changing from process to process). */
    char *p = malloc((size_t)bytes + 63);
    if (!p) return 0;
    w->base = p;
    p = (char *)(((uintptr_t)p + 63) & ~(uintptr_t)63);
#define TAKE(field, type, count) \
    w->field = (type *)p; p += (int64_t)(count) * L * sizeof(type);
    TAKE(chi, int16_t, k)
    TAKE(posts, int16_t, k)
    TAKE(posts8, int8_t, k)
    TAKE(chp, int8_t, n_par)
    TAKE(c2v, int8_t, e_in)
    TAKE(f_a, int8_t, n_par)
    TAKE(f_b, int8_t, n_par)
    TAKE(b_old, int8_t, n_par + 1)
    TAKE(b, int8_t, n_par)
    TAKE(min1, int8_t, n_par)
    TAKE(min2, int8_t, n_par)
    TAKE(am, int8_t, n_par)
    TAKE(n1, int8_t, n_par)
    TAKE(cl, int8_t, n_par)
    TAKE(lo1, int8_t, n_par)
    TAKE(lo2, int8_t, n_par)
    TAKE(anorm, int8_t, n_par)
    TAKE(par, uint8_t, n_par)
    TAKE(cneg, uint8_t, n_par)
    TAKE(chain, uint8_t, n_par)
    TAKE(aneg, uint8_t, n_par)
    TAKE(synd, uint8_t, n_par)
    TAKE(pb, uint8_t, n_par)
#undef TAKE
    return 1;
}

/* floor(alpha*m) for a magnitude m <= mi: the int16 multiply-shift. */
static inline int8_t norm8(int8_t m, int16_t nm, int sh)
{
    return (int8_t)((int16_t)(nm * m) >> sh);
}

/* Pass A, slab t=0: the VN update v2c = clip(posts - c2v, +-mi) seeds
 * the min scan, the check parity sign, and the IRA syndrome of the
 * previous iteration's decision.  v2c itself is not stored — the
 * output pass recomputes its sign from the same inputs. */
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
    int64_t n_par, int8_t mi)
{
    const int8_t nmi = (int8_t)-mi;
    for (int64_t c = 0; c < n_par; c++) {
        const int8_t *pr = posts8 + (int64_t)vn[c] * LANES;
        const int8_t *cv = c2v + c * LANES;
        int8_t *m1 = min1 + c * LANES;
        int8_t *m2 = min2 + c * LANES;
        int8_t *amc = am + c * LANES;
        uint8_t *pc = par + c * LANES;
        uint8_t *sy = synd + c * LANES;
        const uint8_t *pbc = pb + c * LANES;
        const uint8_t *pbp = pb + (c - 1) * LANES;
        if (c)
            for (int f = 0; f < LANES; f++)
                sy[f] = pbc[f] ^ pbp[f] ^ (uint8_t)(pr[f] < 0);
        else
            for (int f = 0; f < LANES; f++)
                sy[f] = pbc[f] ^ (uint8_t)(pr[f] < 0);
        for (int f = 0; f < LANES; f++) {
            int8_t v = (int8_t)(pr[f] - cv[f]);
            v = v > mi ? mi : v;
            v = v < nmi ? nmi : v;
            m1[f] = (int8_t)(v < 0 ? -v : v);
            m2[f] = mi;
            amc[f] = 0;
            pc[f] = v < 0;
        }
    }
}

/* Pass A, slabs t>=1: online min1/min2/argmin scan (strict-less,
 * first occurrence — the numpy batch ordering). */
static void vn_pass_slab(
    const int32_t *restrict vn,
    const int8_t *restrict posts8,
    const int8_t *restrict c2v,
    int8_t *restrict min1,
    int8_t *restrict min2,
    int8_t *restrict am,
    uint8_t *restrict par,
    uint8_t *restrict synd,
    int64_t n_par, int8_t mi, int8_t t)
{
    const int8_t nmi = (int8_t)-mi;
    for (int64_t c = 0; c < n_par; c++) {
        const int8_t *pr = posts8 + (int64_t)vn[c] * LANES;
        const int8_t *cv = c2v + c * LANES;
        int8_t *m1 = min1 + c * LANES;
        int8_t *m2 = min2 + c * LANES;
        int8_t *amc = am + c * LANES;
        uint8_t *pc = par + c * LANES;
        uint8_t *sy = synd + c * LANES;
        for (int f = 0; f < LANES; f++) {
            int8_t p = pr[f];
            sy[f] ^= (uint8_t)(p < 0);
            int8_t v = (int8_t)(p - cv[f]);
            v = v > mi ? mi : v;
            v = v < nmi ? nmi : v;
            pc[f] ^= (uint8_t)(v < 0);
            int8_t mag = (int8_t)(v < 0 ? -v : v);
            int8_t a = m1[f], b = m2[f];
            int lt = mag < a;
            m2[f] = lt ? a : (b < mag ? b : mag);
            m1[f] = lt ? mag : a;
            amc[f] = lt ? t : amc[f];
        }
    }
}

/* OR-reduce the per-check syndrome columns into one flag per lane. */
static void synd_reduce(
    const uint8_t *restrict synd, int64_t n_par, uint8_t *restrict bad)
{
    for (int f = 0; f < LANES; f++) bad[f] = 0;
    for (int64_t c = 0; c < n_par; c++) {
        const uint8_t *sy = synd + c * LANES;
        for (int f = 0; f < LANES; f++)
            bad[f] |= sy[f];
    }
}

/* Chain input c_in = clip(ch_pn + b_old[1:]) and the normalized
 * magnitudes lut[|c_in|], lut[min1]. */
static void chain_inputs(
    const int8_t *restrict chp,
    const int8_t *restrict b_old,
    const int8_t *restrict min1,
    uint8_t *restrict cneg,
    int8_t *restrict cl,
    int8_t *restrict n1,
    int64_t n_par, int8_t mi, int16_t nm, int sh)
{
    const int8_t nmi = (int8_t)-mi;
    for (int64_t c = 0; c < n_par; c++) {
        const int8_t *cp = chp + c * LANES;
        const int8_t *bo = b_old + (c + 1) * LANES;
        const int8_t *m1 = min1 + c * LANES;
        uint8_t *cn = cneg + c * LANES;
        int8_t *clc = cl + c * LANES;
        int8_t *n1c = n1 + c * LANES;
        for (int f = 0; f < LANES; f++) {
            int8_t ci = (int8_t)(cp[f] + bo[f]);
            ci = ci > mi ? mi : ci;
            ci = ci < nmi ? nmi : ci;
            cn[f] = ci < 0;
            clc[f] = norm8((int8_t)(ci < 0 ? -ci : ci), nm, sh);
            n1c[f] = norm8(m1[f], nm, sh);
        }
    }
}

/* Forward scan: serial along each segment, SIMD across lanes. */
static void forward_scan_blk(
    const int8_t *restrict n1,
    const uint8_t *restrict par,
    const int8_t *restrict chp,
    const int8_t *restrict f_old,
    int8_t *restrict f_new,
    int8_t *restrict anorm,
    uint8_t *restrict aneg,
    int64_t n_par, int64_t seg, int8_t mi, int16_t nm, int sh)
{
    const int8_t nmi = (int8_t)-mi;
    const int64_t q = n_par / seg;
    for (int64_t s = 0; s < seg; s++) {
        const int64_t base = s * q;
        int8_t a[LANES];
        if (s == 0) {
            for (int f = 0; f < LANES; f++)
                a[f] = mi;
        } else {
            const int8_t *cp = chp + (base - 1) * LANES;
            const int8_t *fo = f_old + (base - 1) * LANES;
            for (int f = 0; f < LANES; f++) {
                int8_t av = (int8_t)(cp[f] + fo[f]);
                av = av > mi ? mi : av;
                a[f] = av < nmi ? nmi : av;
            }
        }
        for (int64_t j = 0; j < q; j++) {
            const int64_t i = base + j;
            const int8_t *n1c = n1 + i * LANES;
            const uint8_t *pc = par + i * LANES;
            const int8_t *cp = chp + i * LANES;
            int8_t *anc = anorm + i * LANES;
            uint8_t *agc = aneg + i * LANES;
            int8_t *fn = f_new + i * LANES;
            for (int f = 0; f < LANES; f++) {
                int8_t av = a[f];
                uint8_t ang = av < 0;
                int8_t anv = norm8((int8_t)(ang ? -av : av), nm, sh);
                anc[f] = anv;
                agc[f] = ang;
                int8_t fm = n1c[f] < anv ? n1c[f] : anv;
                int8_t fv = (ang ^ pc[f]) ? (int8_t)-fm : fm;
                fn[f] = fv;
                int8_t nx = (int8_t)(cp[f] + fv);
                nx = nx > mi ? mi : nx;
                a[f] = nx < nmi ? nmi : nx;
            }
        }
    }
}

/* Backward message b and the two candidate output magnitudes. */
static void backward_outputs(
    const int8_t *restrict n1,
    const int8_t *restrict cl,
    const int8_t *restrict min2,
    const int8_t *restrict anorm,
    const uint8_t *restrict par,
    const uint8_t *restrict cneg,
    const uint8_t *restrict aneg,
    int8_t *restrict b,
    int8_t *restrict lo1,
    int8_t *restrict lo2,
    uint8_t *restrict chain,
    int64_t n_par, int16_t nm, int sh)
{
    for (int64_t c = 0; c < n_par; c++) {
        const int8_t *n1c = n1 + c * LANES;
        const int8_t *clc = cl + c * LANES;
        const int8_t *m2 = min2 + c * LANES;
        const int8_t *anc = anorm + c * LANES;
        const uint8_t *pc = par + c * LANES;
        const uint8_t *cn = cneg + c * LANES;
        const uint8_t *agc = aneg + c * LANES;
        int8_t *bc = b + c * LANES;
        int8_t *l1 = lo1 + c * LANES;
        int8_t *l2 = lo2 + c * LANES;
        uint8_t *chn = chain + c * LANES;
        for (int f = 0; f < LANES; f++) {
            int8_t n1v = n1c[f], clv = clc[f];
            int8_t bm = n1v < clv ? n1v : clv;
            bc[f] = (pc[f] ^ cn[f]) ? (int8_t)-bm : bm;
            int8_t cm = anc[f] < clv ? anc[f] : clv;
            l1[f] = n1v < cm ? n1v : cm;
            int8_t lm = norm8(m2[f], nm, sh);
            l2[f] = lm < cm ? lm : cm;
            chn[f] = pc[f] ^ agc[f] ^ cn[f];
        }
    }
}

/* Pass C, one slab: output blend + wide decision scatter-add.  The
 * v2c sign is recomputed from the unchanged posts8/c2v instead of
 * being stored by pass A.  Scatter rows are shared across lanes, so
 * the inner loop is still a contiguous vector add. */
static void output_pass_slab(
    const int32_t *restrict vn,
    const int8_t *restrict posts8,
    int8_t *restrict c2v,
    const int8_t *restrict lo1,
    const int8_t *restrict lo2,
    const int8_t *restrict am,
    const uint8_t *restrict chain,
    int16_t *restrict posts,
    int64_t n_par, int8_t t)
{
    for (int64_t c = 0; c < n_par; c++) {
        const int8_t *pr8 = posts8 + (int64_t)vn[c] * LANES;
        int8_t *cv = c2v + c * LANES;
        const int8_t *l1 = lo1 + c * LANES;
        const int8_t *l2 = lo2 + c * LANES;
        const int8_t *amc = am + c * LANES;
        const uint8_t *chn = chain + c * LANES;
        int16_t *pr = posts + (int64_t)vn[c] * LANES;
#pragma GCC ivdep
        for (int f = 0; f < LANES; f++) {
            uint8_t vneg = pr8[f] < cv[f];  /* sign of posts - c2v */
            int8_t bmag = amc[f] == t ? l2[f] : l1[f];
            int8_t o = (chn[f] ^ vneg) ? (int8_t)-bmag : bmag;
            cv[f] = o;
            pr[f] = (int16_t)(pr[f] + o);
        }
    }
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

/* Parity posteriors ch_pn + f + b[1:], decision signs into pb. */
static void parity_decisions(
    const int8_t *restrict chp,
    const int8_t *restrict f_new,
    const int8_t *restrict b,
    uint8_t *restrict pb,
    int64_t n_par)
{
    for (int64_t c = 0; c + 1 < n_par; c++) {
        const int8_t *cp = chp + c * LANES;
        const int8_t *fn = f_new + c * LANES;
        const int8_t *bn = b + (c + 1) * LANES;
        uint8_t *pbc = pb + c * LANES;
        for (int f = 0; f < LANES; f++)
            pbc[f] = (int8_t)(cp[f] + fn[f] + bn[f]) < 0;
    }
    {
        const int64_t c = n_par - 1;
        const int8_t *cp = chp + c * LANES;
        const int8_t *fn = f_new + c * LANES;
        uint8_t *pbc = pb + c * LANES;
        for (int f = 0; f < LANES; f++)
            pbc[f] = (int8_t)(cp[f] + fn[f]) < 0;
    }
}

/* Copy one finished lane's decisions out to its (frames, n) bits row. */
static void extract_lane(
    const workspace *w, int lane, int64_t k, int64_t n_par,
    uint8_t *brow)
{
    for (int64_t v = 0; v < k; v++)
        brow[v] = w->posts8[v * LANES + lane] < 0;
    for (int64_t c = 0; c < n_par; c++)
        brow[k + c] = w->pb[c * LANES + lane];
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
 * (int16 normalization product), and every channel LLR in [-mi, mi].
 */
void zigzag_decode(
    const int16_t *ch_in,   /* (frames, k) quantized info LLRs */
    const int8_t *ch_pn,    /* (frames, n_par) quantized parity LLRs */
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
    const int16_t nm = (int16_t)mult;
    const int sh = (int)shift;
    const int8_t imi = (int8_t)mi;
    workspace w;
    const int have_ws = ws_alloc(&w, k, n_par, e_in);

    for (int64_t blk = 0; blk < n_blocks; blk++) {
        /* Tested here, not by an early return before the loop: GCC 12
         * at -O3 spends ~0.5 s more in induction-variable optimization
         * on the early-return form, and the lazy build is paid by
         * every fresh process. */
        if (!have_ws) break;
        const int64_t f0 = blk * LANES;
        uint8_t done[LANES];
        int64_t bud[LANES];
        int64_t blockmax = 0;
        int alive = 0;

        /* Lane-minor transposes; dead lanes duplicate frame f0
         * (valid data, never extracted). */
        for (int f = 0; f < LANES; f++) {
            int64_t src = f0 + f < frames ? f0 + f : f0;
            const int16_t *ci = ch_in + src * k;
            const int8_t *cp = ch_pn + src * n_par;
            for (int64_t v = 0; v < k; v++) {
                w.chi[v * LANES + f] = ci[v];
                w.posts[v * LANES + f] = ci[v];
                w.posts8[v * LANES + f] =
                    (int8_t)clip_i(ci[v], 2 * imi);
            }
            for (int64_t c = 0; c < n_par; c++) {
                w.chp[c * LANES + f] = cp[c];
                w.pb[c * LANES + f] = cp[c] < 0;
            }
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
        memset(w.c2v, 0, (size_t)(e_in * LANES));
        memset(w.f_a, 0, (size_t)(n_par * LANES));
        memset(w.b_old, 0, (size_t)((n_par + 1) * LANES));
        int8_t *f_old = w.f_a, *f_new = w.f_b;

        for (int64_t it = 1; alive && it <= blockmax + 1; it++) {
            /* Pass A: VN phase fused with the check min scan and
             * the IRA syndrome of the *previous* decision. */
            vn_pass_first(in_vn, w.posts8, w.c2v, w.min1,
                          w.min2, w.am, w.par, w.synd, w.pb,
                          n_par, imi);
            for (int t = 1; t < (int)width; t++)
                vn_pass_slab(in_vn + (int64_t)t * n_par, w.posts8,
                             w.c2v + (int64_t)t * n_par * LANES,
                             w.min1, w.min2, w.am, w.par, w.synd,
                             n_par, imi, (int8_t)t);

            /* Lane bookkeeping: converged lanes first (the golden
             * model's in-loop check), then exhausted budgets. */
            if (early_stop) {
                uint8_t bad[LANES];
                synd_reduce(w.synd, n_par, bad);
                for (int f = 0; f < LANES; f++) {
                    if (!done[f] && !bad[f]) {
                        extract_lane(&w, f, k, n_par,
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
                    extract_lane(&w, f, k, n_par,
                                 bits + (f0 + f) * n);
                    iterations[f0 + f] = bud[f];
                    done[f] = 1;
                    alive--;
                }
            }
            if (!alive) break;

            chain_inputs(w.chp, w.b_old, w.min1, w.cneg, w.cl,
                         w.n1, n_par, imi, nm, sh);
            forward_scan_blk(w.n1, w.par, w.chp, f_old, f_new,
                             w.anorm, w.aneg, n_par, seg, imi,
                             nm, sh);
            backward_outputs(w.n1, w.cl, w.min2, w.anorm, w.par,
                             w.cneg, w.aneg, w.b, w.lo1, w.lo2,
                             w.chain, n_par, nm, sh);

            memcpy(w.posts, w.chi,
                   (size_t)(k * LANES) * sizeof(int16_t));
            for (int t = 0; t < (int)width; t++)
                output_pass_slab(
                    in_vn + (int64_t)t * n_par, w.posts8,
                    w.c2v + (int64_t)t * n_par * LANES,
                    w.lo1, w.lo2, w.am, w.chain, w.posts,
                    n_par, (int8_t)t);
            clip_posts(w.posts, w.posts8, k, 2 * imi);

            parity_decisions(w.chp, f_new, w.b, w.pb, n_par);
            memcpy(w.b_old + LANES, w.b + LANES,
                   (size_t)((n_par - 1) * LANES));
            memset(w.b_old, 0, LANES);
            memset(w.b_old + n_par * LANES, 0, LANES);
            { int8_t *tmp = f_old; f_old = f_new; f_new = tmp; }
            for (int f = 0; f < LANES; f++)
                if (!done[f]) iterations[f0 + f] = it;
        }

        /* Lanes that ran out of the block loop without an early
         * stop (early_stop == 0 budgets) extract their final
         * decisions here. */
        for (int f = 0; f < LANES; f++)
            if (!done[f])
                extract_lane(&w, f, k, n_par, bits + (f0 + f) * n);
    }

    if (have_ws)
        free(w.base);
    else
        for (int64_t f = 0; f < frames; f++) iterations[f] = -1;
}
