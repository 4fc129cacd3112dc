/* The flat kernels of one MPDATA step, on the padded layout of
 * asianpde.advection.StepWorkspace, and march, which runs them for every
 * step of a march in one call: the only driver of the step sequence.  Last,
 * the Monte Carlo paths: normals, their draws, and averages, which draws,
 * walks, exponentiates and sums them.
 *
 * Every field is a row-major array of rows of length r.  Cell or face (a, b)
 * sits at flat offset a * r + b, with neighbours at +-r (x) and +-1 (y).
 * The halo width is the constant HALO, which asianpde._step checks against
 * its own when it loads the build: the real cells are a in [HALO, HALO +
 * nx), b in [HALO, HALO + ny); the real x faces run to a = HALO + nx and the
 * real y faces to b = HALO + ny.  A constant lets the compiler fold every
 * halo offset and unroll the halo loops.
 * The stencil kernels write real elements only and read halos that the
 * caller has filled; the fill kernels after them write the halos, and the
 * scan reads real elements only.  A sweep export, upwind or limit, runs
 * march's own sweep over every row and writes its pass into psi's second
 * buffer, as march does.  The kernels that write a Courant field scan it as
 * they write it, and a scanning export writes its maxima to a double[2],
 * each the max_abs of the faces written: upwind max |C_x| when it builds
 * C_x, antidiffusive and limit max |v_x| and max |v_y|.  Every kernel takes
 * first the record that asianpde._step.dims makes of the array it walks;
 * march, upwind and limit take psi's, and the face arrays and psi's second
 * buffer in the same workspace share its row length.
 *
 * Each real element gets the same floating-point operations, in the same
 * order, as a direct numpy evaluation of its formula, so the results are
 * bit-identical to one.  That holds only when the compiler neither
 * reassociates nor fuses them: build with -ffp-contract=off and without
 * -ffast-math.  One signed-zero difference remains: the clamps of the flux
 * and limiter terms, max_zero and min_zero, keep a -0.0 Courant number as
 * -0.0, where numpy's maximum(-0.0, 0.0) and minimum(-0.0, 0.0) give +0.0;
 * the final clip of upwind removes it, so it reaches only limit's corrective
 * Courant numbers.  The clamps are written in the operand order of x86's
 * maxpd and minpd, so that each is one vector instruction; min_one too.  The
 * 5-point max and min of limit, and the min of its two ratios, propagate a
 * NaN from either operand, which maxpd and minpd do not: they keep max_nan
 * and min_nan.
 *
 * The scans.  march checks each Courant field against |C| <= 1 before psi
 * takes the pass that uses it, on the maxima that the kernel writing the
 * field found.  It writes no component of the physical field but C_x, and that
 * only when it rebuilds it, so C_y, and C_x when not rebuilt, are filled and
 * scanned once per call.  Where march wraps the fields on the torus, the wrap
 * copies the first x and y faces over the last, which a kernel wrote with the
 * same bits from the same, wrapped, inputs: the maxima stand.
 *
 * The width.  march runs every column of the workspace it is given.  A put's
 * field is +0.0 above its payoff's last live column until its front climbs
 * there, at most a column a pass, so asianpde.pricing.integrate marches a put
 * on a narrower workspace, and again at full width when the narrow field's
 * top column goes live.  C_x, when rebuilt, is built on every face at every
 * step.
 *
 * The split.  The step is unsplit: each pass reads only what the pass before
 * it wrote, so a block of x rows can run a pass without the others.  march
 * runs on the calling thread and up to threads - 1 pthreads that it starts
 * for the call and joins before it returns.  Each thread owns one contiguous
 * block of x rows for every step of the call: its cells and the x and y faces
 * of its rows (the last block also x face row HALO + nx).  psi has a second
 * buffer: every pass reads one and writes the other, so no thread writes a
 * row that another reads within a phase.  The gather that ends a pass checks
 * the field that the pass used, and swaps the buffers only if the check
 * passes, so a failed check leaves psi as the pass found it.  A step runs in
 * phases, each ended by one barrier: the upwind pass, whose sweep builds C_x
 * face row by face row when it is rebuilt, ended by the gather of C; then,
 * per corrective pass, the antidiffusive field of the block's rows, ended by
 * a barrier, and the pass, ended by the gather of its field.  With the
 * limiter the pass is one sweep of the block's rows: the ratios of each cell
 * row go into a ring of two rows, the limited faces into their slot, and each
 * row's update follows as soon as the faces below it are known.  What needs
 * rows of another block, the block computes again as a private ghost from
 * what the phases before wrote: the x fluxes of its first face row, the ring
 * rows above and below it, and the limited x faces and the rebuilt C_x below
 * its last row; only the block that owns an element stores it.  So a
 * 2-iteration step with the limiter has 3 barriers and an upwind step 1.
 * Each thread fills the halos beside its rows right after it writes them,
 * psi's y halos in the sweep and, once at the start of a call, those of
 * psi's rows; the first and last blocks fill the faces' halo rows above and
 * below.  A rebuilt C_x is filled only when a corrective pass follows, since
 * the antidiffusive field alone reads its halos: an upwind pass reads real
 * faces only.  psi's edge rows, and on the torus every halo, are filled
 * before each pass and when the march finishes (fill_psi_edges): the first
 * and last blocks extrapolate the edge rows, which read two real rows that
 * another block may hold, and the periodic march wraps psi.  So the march
 * leaves psi with its halos filled: a stop leaves it as the failing pass
 * found it, filled before that pass.  At each gather every thread leaves
 * the maxima of its rows and combines those of all as integers, so every
 * thread takes the same stop decision.  Two sets of slots alternate with the
 * barrier's sense, since a thread can leave one gather for the next while
 * another still reads the first.  A march that ends with the field in the
 * second buffer copies it back, each thread its own rows.  Every element gets
 * the same operations from exactly one thread, and the maxima are the integer
 * max of the same elements, so every byte is that of one thread, which runs
 * the same code as one block with no pthread, its barriers passing at once.
 * A barrier spins a bounded number of pauses and then yields its core at
 * each spin: on a machine with more runnable threads than cores, a pure spin
 * keeps the core from the thread it waits for (two concurrent upwind
 * valuations at 204x242 took 5.1 s that way, against 0.5 s with the yield).
 * The periodic march runs on one thread, since wrap copies across the whole
 * torus.  Signals are blocked in the helper threads, so that a Ctrl-C lands
 * on the caller and Python sees it between calls.
 *
 * The normals.  Each path draws from its own Philox4x64-10 stream, stepped
 * here as numpy steps it, through numpy's ziggurat.  About 98.5% of draws
 * take its fast path, which reads one 64-bit output and two table entries;
 * normals runs that path inline, and hands every other draw to numpy's own
 * random_standard_normal, linked from libnpyrandom.a, from the same output
 * on.  numpy keeps the tables private, so the first call of a process reads
 * them off that function, once, and checks the inline path against it on a
 * fixed stream.  The bits are numpy's either way; a failed check only sends
 * every draw to numpy, at numpy's speed.  normals is exported for the pins
 * of this stream; averages calls it.
 *
 * The averages.  averages runs numpy's pipeline for a path's trapezoid
 * average, exp of the running sum of z vol + drift, then the add reduction,
 * on a block of 8 paths at a time, whose normals and walk (64 KB each at
 * 1000 steps) stay in cache from the draw to the sum.  The walk keeps
 * numpy's adds in numpy's order with one path a vector lane, through 8 x 8
 * tile transposes written as GCC vector shuffles.  exp is numpy's own
 * float64 loop, called through the pointer that float64_loop reads off
 * np.exp, since glibc's exp differs from it on some inputs; an overflow
 * gives inf and, outside numpy's ufunc machinery, no warning.  The sum is
 * numpy's pairwise sum.
 */

#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <Python.h> /* for numpy's PyUFuncObject, whose fields float64_loop reads */

#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include "numpy/ndarraytypes.h"
#include "numpy/random/bitgen.h"
#include "numpy/ufuncobject.h"

/* the halo width: the corrective stencils and the FCT limiter read two cells deep */
#define HALO 2
/* HALO, exported for asianpde._step to check against its own at load */
const long halo = HALO;

/* numpy's maximum and minimum: a NaN in either operand gives NaN */
static inline double max_nan(double a, double b) { return (a >= b || a != a) ? a : b; }
static inline double min_nan(double a, double b) { return (a <= b || a != a) ? a : b; }

/* max_nan(x, 0.0), min_nan(x, 0.0) and min_nan(1.0, y), each the same value
 * for every input (a NaN x or y comes back as it is, -0.0 stays -0.0, and
 * numpy gives +0.0 for it: see the header), in the form of x86's maxpd and
 * minpd, which return their second operand unless the first compares greater
 * (less) */
static inline double max_zero(double x) { return 0.0 > x ? 0.0 : x; }
static inline double min_zero(double x) { return 0.0 < x ? 0.0 : x; }
static inline double min_one(double y) { return 1.0 < y ? 1.0 : y; }

/* The running max top of |x| over the elements x seen, kept as integers:
 * with the sign bit cleared a double orders as its bit pattern read as an
 * integer, and every NaN above inf.  The integer max has no NaN test to
 * serialise on, so it vectorises. */
static inline int64_t max_bits(int64_t top, double x)
{
    int64_t bits;
    memcpy(&bits, &x, sizeof bits);
    bits &= INT64_MAX;
    return bits > top ? bits : top;
}

/* the double whose bits max_bits kept */
static inline double from_bits(int64_t bits)
{
    double x;
    memcpy(&x, &bits, sizeof x);
    return x;
}

/* x with negatives clipped to 0, as numpy's maximum(x, 0.0) gives it: a NaN
 * stays the same NaN, and -0.0 becomes +0.0 */
static inline double clip_negative(double x) { return (x > 0.0 || x != x) ? x : 0.0; }

/* num / den, or 0 where |den| < eps (vanishing-denominator guard) */
static inline double guarded_ratio(double num, double den, double eps)
{
    return fabs(den) < eps ? 0.0 : num / den;
}

/* A block of rows: the cell rows [lo, hi) and the x and y faces of those
 * rows; the first block also takes the halo rows above, the last the x face
 * row HALO + nx and the halo rows below.  A kernel over a block writes
 * nothing outside it.  The exported kernels run over one block of every row. */
struct block {
    long lo, hi, first, last;
};

static struct block every_row(long nx) { return (struct block){HALO, HALO + nx, 1, 1}; }

static void fill_scalar_rows(double *v, long ny, long r, long lo, long hi);

/* The row buffers of one block's sweeps, each a row of the padded layout
 * read at the row's own offsets: the x fluxes of two face rows in turn and
 * the y fluxes of a cell row; limit's ratios of two cell rows in turn, its
 * ring; and ghost, a face row of the block below that the block computes
 * again for its own last row. */
struct rows {
    double *x[2], *y, *up[2], *dn[2], *ghost;
};

#define ROWS 8 /* the row buffers of one block */

/* Row buffers for n blocks, ROWS each; NULL when they cannot be allocated.
 * Free with free. */
static double *alloc_rows(long n, long r) { return malloc((size_t)(ROWS * n * r) * sizeof(double)); }

/* The row buffers of block i */
static struct rows rows_of(double *rows, long i, long r)
{
    double *row = rows + ROWS * i * r;
    return (struct rows){{row, row + r}, row + 2 * r, {row + 3 * r, row + 4 * r}, {row + 5 * r, row + 6 * r},
                         row + 7 * r};
}

/* Columns [from, to) of the rows [lo, hi) of src into dst */
static void copy_rows(const double *restrict src, double *restrict dst, long r, long lo, long hi, long from,
                      long to)
{
    for (long a = lo; a < hi; a++)
        memcpy(dst + a * r + from, src + a * r + from, (size_t)(to - from) * sizeof *dst);
}

/* The x fluxes max(C, 0) psi_donor + min(C, 0) psi_receiver of upwind on the
 * face row c between the cell rows p - r and p, columns [0, n), into f */
static void x_fluxes(const double *restrict p, long n, long r, const double *restrict c,
                     double *restrict f)
{
    for (long b = HALO; b < HALO + n; b++)
        f[b] = max_zero(c[b]) * p[b - r] + min_zero(c[b]) * p[b];
}

/* The y fluxes of the cell row p, faces [0, n], into f */
static void y_fluxes(const double *restrict p, long n, const double *restrict c, double *restrict f)
{
    for (long b = HALO; b <= HALO + n; b++)
        f[b] = max_zero(c[b]) * p[b - 1] + min_zero(c[b]) * p[b];
}

/* q = p - ((below - above) + (fy[b + 1] - fy[b])), clipped at 0: the scheme
 * is sign-preserving, and the clip removes round-off undershoots */
static void update_row(const double *restrict p, double *restrict q, long n,
                       const double *restrict above, const double *restrict below, const double *restrict fy)
{
    for (long b = HALO; b < HALO + n; b++)
        q[b] = clip_negative(p[b] - ((below[b] - above[b]) + (fy[b + 1] - fy[b])));
}

/* Row a of a donor-cell pass from psi into out, given the x fluxes of the
 * face rows above and below it: its y fluxes with cy, its update and its y
 * halos */
static void pass_row(const double *restrict psi, double *restrict out, long ny, long r, const double *restrict cy,
                     const double *above, const double *below, double *fy, long a)
{
    y_fluxes(psi + a * r, ny, cy + a * r, fy);
    update_row(psi + a * r, out + a * r, ny, above, below, fy);
    fill_scalar_rows(out, ny, r, a, a + 1);
}

/* C_x = (u - coef A) scale, which march rebuilds on each face row in the
 * sweep of the upwind pass if rebuild is set */
struct build {
    double u, coef, scale, eps;
    long rebuild;
};

/* C_x = (u - coef A) scale of face b between the cells b - r and b of p,
 * with A the guarded ratio (p[b] - p[b - r]) / (p[b] + p[b - r]) across it */
static inline double courant_x_face(const double *restrict p, long b, long r, struct build k)
{
    return (k.u - guarded_ratio(p[b] - p[b - r], p[b] + p[b - r], k.eps) * k.coef) * k.scale;
}

/* C_x on the face row c between the cell rows p - r and p, columns [0, n),
 * and in the same loop the x fluxes (x_fluxes) of its faces into f.  Returns
 * top with their max |C_x|. */
static int64_t courant_x_fluxes(const double *restrict p, long n, long r, double *restrict c, double *restrict f,
                                struct build k, int64_t top)
{
    for (long b = HALO; b < HALO + n; b++) {
        c[b] = courant_x_face(p, b, r, k);
        top = max_bits(top, c[b]);
        f[b] = max_zero(c[b]) * p[b - r] + min_zero(c[b]) * p[b];
    }
    return top;
}

/* One donor-cell pass from psi into out over the block's rows, as one
 * sweep: for each face row, from the block's first on, its x fluxes, in one
 * loop with its C_x built into cx if c.rebuild is set (courant_x_fluxes),
 * then the cell row above it (pass_row).  No row of psi changes, so the
 * block computes the fluxes of its first face row itself, and it builds C_x
 * below its last row into ghost, which only the block below stores.  When
 * it builds C_x, top[0] gets the max |C_x| of the faces stored.  march and,
 * over every row, upwind run it. */
static void sweep(const double *restrict psi, double *restrict out, long ny, long r, double *restrict cx,
                  const double *restrict cy, struct build c, double *restrict top, struct rows w, struct block s)
{
    int64_t top_x = 0;
    for (long a = s.lo - 1; a < s.hi; a++) {
        long b = a + 1; /* the face row below row a */
        double *face = cx + b * r;
        if (c.rebuild) {
            int own = b < s.hi || s.last;
            face = own ? face : w.ghost;
            int64_t face_top = courant_x_fluxes(psi + b * r, ny, r, face, w.x[b & 1], c, top_x);
            top_x = own ? face_top : top_x;
        } else {
            x_fluxes(psi + b * r, ny, r, face, w.x[b & 1]);
        }
        if (a >= s.lo)
            pass_row(psi, out, ny, r, cy, w.x[a & 1], w.x[b & 1], w.y, a);
    }
    if (c.rebuild)
        top[0] = from_bits(top_x);
}

/* march's upwind pass over every row: the sweep from psi into spare, which
 * builds C_x = (u - coef A) scale into cx as it goes, and max |C_x| into
 * top[0], if rebuild is set.  Returns 0, or -1, having written nothing, when
 * its row buffers cannot be allocated. */
long upwind(const double *restrict psi, long nx, long ny, long r, double *restrict cx,
            const double *restrict cy, double *restrict spare, long rebuild, double u, double coef,
            double scale, double eps, double *restrict top)
{
    double *rows = alloc_rows(1, r);
    if (!rows)
        return -1;
    struct build terms = {u, coef, scale, eps, rebuild};
    sweep(psi, spare, ny, r, cx, cy, terms, top, rows_of(rows, 0, r), every_row(nx));
    free(rows);
    return 0;
}

/* |C| (1 - |C|) A - C Cbar B at face k between cells k - near and k, with
 * the transverse pairs at +-far and cbar_sum the four cross faces' sum. */
static inline double antidiffusive_face(const double *restrict psi, double c, double cbar_sum,
                                        long k, long near, long far, double eps)
{
    double ratio_a = guarded_ratio(psi[k] - psi[k - near], psi[k] + psi[k - near], eps);
    double up = psi[k + far] + psi[k + far - near];
    double dn = psi[k - far] + psi[k - far - near];
    double ratio_b = guarded_ratio(up - dn, up + dn, eps) * 0.5;
    double abs_c = fabs(c);
    return (1.0 - abs_c) * abs_c * ratio_a - cbar_sum * 0.25 * c * ratio_b;
}

static void antidiffusive_rows(const double *restrict psi, long ny, long r, const double *restrict cx,
                               const double *restrict cy, double *restrict vx, double *restrict vy, double eps,
                               double *restrict top, struct block s)
{
    int64_t top_x = 0, top_y = 0;
    /* x face: the y faces of cells k - r and k, bottom then top */
    for (long a = s.lo; a < s.hi + s.last; a++)
        for (long k = a * r + HALO; k < a * r + HALO + ny; k++) {
            vx[k] = antidiffusive_face(
                psi, cx[k], ((cy[k - r] + cy[k]) + cy[k - r + 1]) + cy[k + 1], k, r, 1, eps);
            top_x = max_bits(top_x, vx[k]);
        }
    /* y face: the x faces of cells k - 1 and k, left then right */
    for (long a = s.lo; a < s.hi; a++)
        for (long k = a * r + HALO; k <= a * r + HALO + ny; k++) {
            vy[k] = antidiffusive_face(
                psi, cy[k], ((cx[k - 1] + cx[k + r - 1]) + cx[k]) + cx[k + r], k, 1, r, eps);
            top_y = max_bits(top_y, vy[k]);
        }
    top[0] = from_bits(top_x), top[1] = from_bits(top_y);
}

/* Antidiffusive Courant numbers of (cx, cy) into (vx, vy), their max |v_x|
 * and max |v_y| into top[0] and top[1], as march's corrective pass writes
 * them. */
void antidiffusive(const double *restrict psi, long nx, long ny, long r,
                   const double *restrict cx, const double *restrict cy, double *restrict vx,
                   double *restrict vy, double eps, double *restrict top)
{
    antidiffusive_rows(psi, ny, r, cx, cy, vx, vy, eps, top, every_row(nx));
}

/* limit's ratios beta_up = (max - psi) / (f_in + eps) and beta_dn = (psi -
 * min) / (f_out + eps) of the cell row a, columns [-1, ny], into up and dn */
static void ratio_row(const double *restrict psi, long ny, long r, const double *restrict cx,
                      const double *restrict cy, double *restrict up, double *restrict dn, double eps, long a)
{
    const double *p = psi + a * r, *fx = cx + a * r, *fy = cy + a * r;
    for (long b = HALO - 1; b <= HALO + ny; b++) {
        double c0 = p[b], xm = p[b - r], xp = p[b + r], ym = p[b - 1], yp = p[b + 1];
        double hi = max_nan(max_nan(max_nan(max_nan(c0, xm), xp), ym), yp);
        double lo = min_nan(min_nan(min_nan(min_nan(c0, xm), xp), ym), yp);
        /* inflow from the left, right, bottom and top neighbours; outflow */
        double f_in = max_zero(fx[b]) * xm - min_zero(fx[b + r]) * xp
                      + max_zero(fy[b]) * ym - min_zero(fy[b + 1]) * yp;
        double f_out = (max_zero(fx[b + r]) - min_zero(fx[b])
                        + max_zero(fy[b + 1]) - min_zero(fy[b])) * c0;
        up[b] = (hi - c0) / (f_in + eps);
        dn[b] = (c0 - lo) / (f_out + eps);
    }
}

/* The faces c in [from, to) of one row scaled by limit's ratios into v:
 * face b has its donor's ratios at up0[b] and dn0[b], its receiver's at
 * up1[b] and dn1[b].  Returns top with their max |v|. */
static int64_t limited(const double *restrict c, double *restrict v, const double *restrict up0,
                       const double *restrict dn0, const double *restrict up1, const double *restrict dn1,
                       long from, long to, int64_t top)
{
    for (long b = from; b < to; b++) {
        v[b] = min_one(min_nan(dn0[b], up1[b])) * max_zero(c[b])
               + min_one(min_nan(dn1[b], up0[b])) * min_zero(c[b]);
        top = max_bits(top, v[b]);
    }
    return top;
}

/* The FCT limiter over the block's rows as one sweep, as sweep runs the
 * donor-cell pass: for each face row, from the block's first on, the ratios
 * of the cell row below it into the ring and its limited faces of cx into
 * vx; then the limited y faces of cy of the cell row above it into vy and
 * that row's donor-cell pass with them from psi into out (pass_row).  The
 * ring rows beside the block and the x faces below its last row read rows
 * of other blocks; the block computes them again, the faces into ghost, and
 * stores neither.  top gets the max |v_x| and max |v_y| of the faces
 * stored.  march and, over every row, limit run it. */
static void limit_sweep(const double *restrict psi, double *restrict out, long ny, long r,
                        const double *restrict cx, const double *restrict cy, double *restrict vx,
                        double *restrict vy, double eps, double *restrict top, struct rows w, struct block s)
{
    int64_t top_x = 0, top_y = 0;
    ratio_row(psi, ny, r, cx, cy, w.up[(s.lo - 1) & 1], w.dn[(s.lo - 1) & 1], eps, s.lo - 1);
    for (long a = s.lo - 1; a < s.hi; a++) {
        long b = a + 1; /* the cell row below row a, and the face row between */
        ratio_row(psi, ny, r, cx, cy, w.up[b & 1], w.dn[b & 1], eps, b);
        int own = b < s.hi || s.last;
        double *face = own ? vx + b * r : w.ghost;
        int64_t face_top =
            limited(cx + b * r, face, w.up[a & 1], w.dn[a & 1], w.up[b & 1], w.dn[b & 1], HALO, HALO + ny, top_x);
        top_x = own ? face_top : top_x;
        x_fluxes(psi + b * r, ny, r, face, w.x[b & 1]);
        if (a < s.lo)
            continue;
        /* a y face's donor is the cell before it in the row */
        const double *up = w.up[a & 1], *dn = w.dn[a & 1];
        top_y = limited(cy + a * r, vy + a * r, up - 1, dn - 1, up, dn, HALO, HALO + ny + 1, top_y);
        pass_row(psi, out, ny, r, vy, w.x[a & 1], w.x[b & 1], w.y, a);
    }
    top[0] = from_bits(top_x), top[1] = from_bits(top_y);
}

/* march's limited corrective pass over every row: the FCT-limited copy of
 * the corrective field (cx, cy) into (vx, vy), its max |v_x| and max |v_y|
 * into top[0] and top[1], and the pass with it from psi into spare.  Returns
 * 0, or -1, having written nothing, when its row buffers cannot be
 * allocated. */
long limit(const double *restrict psi, long nx, long ny, long r, const double *restrict cx,
           const double *restrict cy, double *restrict vx, double *restrict vy, double *restrict spare,
           double eps, double *restrict top)
{
    double *rows = alloc_rows(1, r);
    if (!rows)
        return -1;
    limit_sweep(psi, spare, ny, r, cx, cy, vx, vy, eps, top, rows_of(rows, 0, r), every_row(nx));
    free(rows);
    return 0;
}

/* Linear extrapolation outward from cells k and k - step (k the edge cell)
 * into the HALO cells k + step, ..., k + HALO step, each clipped at 0.  The
 * walk adds the slope once per layer, so a constant line stays bit-exact. */
static inline void extrapolate(double *v, long k, long step)
{
    double slope = v[k] - v[k - step], out = v[k];
    for (long layer = 1; layer <= HALO; layer++) {
        out += slope;
        v[k + layer * step] = clip_negative(out);
    }
}

/* The y halos of a scalar's rows [lo, hi), each from its own two edge cells */
static void fill_scalar_rows(double *v, long ny, long r, long lo, long hi)
{
    for (long a = lo; a < hi; a++) {
        extrapolate(v, a * r + HALO, -1);
        extrapolate(v, a * r + HALO + ny - 1, 1);
    }
}

/* The halo rows of a scalar above the block if it is the first and below it
 * if it is the last: x from the two nearest real rows, then their y halos,
 * so the corners continue the rows the x pass filled.  Reads two real rows,
 * which may lie in the next block. */
static void fill_scalar_edges(double *v, long nx, long ny, long r, struct block s)
{
    if (s.first) {
        for (long b = HALO; b < HALO + ny; b++)
            extrapolate(v, HALO * r + b, -r);
        fill_scalar_rows(v, ny, r, 0, HALO);
    }
    if (s.last) {
        for (long b = HALO; b < HALO + ny; b++)
            extrapolate(v, (HALO + nx - 1) * r + b, r);
        fill_scalar_rows(v, ny, r, HALO + nx, nx + 2 * HALO);
    }
}

/* Halos of a scalar with nx x ny real cells: linear extrapolation from the
 * two nearest real cells, x first and then y, so the corners continue the
 * rows the x pass filled. */
void fill_scalar(double *v, long nx, long ny, long r)
{
    fill_scalar_rows(v, ny, r, HALO, HALO + nx);
    fill_scalar_edges(v, nx, ny, r, every_row(nx));
}

/* The halos of a face component's real rows [lo, hi) along y, each element
 * the value of the nearest real face; then the whole halo rows above, if lo
 * is the first real row, and below, if hi - 1 is the last of n0, copies of
 * that row. */
static void fill_faces_rows(double *v, long n0, long n1, long r, long lo, long hi)
{
    for (long a = lo; a < hi; a++) {
        double *row = v + a * r;
        for (long b = 0; b < HALO; b++) {
            row[b] = row[HALO];
            row[HALO + n1 + b] = row[HALO + n1 - 1];
        }
    }
    size_t width = (size_t)(n1 + 2 * HALO) * sizeof(double);
    for (long layer = 1; layer <= HALO; layer++) {
        if (lo == HALO)
            memcpy(v + (HALO - layer) * r, v + HALO * r, width);
        if (hi == HALO + n0)
            memcpy(v + (HALO + n0 - 1 + layer) * r, v + (HALO + n0 - 1) * r, width);
    }
}

/* Halos of a face component with n0 x n1 real faces: each halo element takes
 * the value of the nearest real face, rows along y first, then whole rows. */
void fill_faces(double *v, long n0, long n1, long r) { fill_faces_rows(v, n0, n1, r, HALO, HALO + n0); }

/* max |v| over the real rows [lo, hi) of a component with n1 real elements
 * a row, a NaN if any is NaN (see max_bits) */
static double max_rows(const double *v, long n1, long r, long lo, long hi)
{
    int64_t top = 0;
    for (long a = lo; a < hi; a++)
        for (long k = a * r + HALO; k < a * r + HALO + n1; k++)
            top = max_bits(top, v[k]);
    return from_bits(top);
}

/* max |v| over the n0 x n1 real elements, a NaN if any is NaN (see max_bits) */
double max_abs(const double *v, long n0, long n1, long r) { return max_rows(v, n1, r, HALO, HALO + n0); }

/* Halos on the torus with periods 1 <= p <= n: walking outward, whole rows
 * and then each row take the value one period in, so a face one period past
 * the first takes the first's value (the first wins: boundary fluxes telescope). */
void wrap(double *v, long n0, long n1, long r, long p0, long p1)
{
    size_t width = (size_t)(n1 + 2 * HALO) * sizeof(double);
    for (long a = HALO - 1; a >= 0; a--)
        memcpy(v + a * r, v + (a + p0) * r, width);
    for (long a = HALO + p0; a < n0 + 2 * HALO; a++)
        memcpy(v + a * r, v + (a - p0) * r, width);
    for (long a = 0; a < n0 + 2 * HALO; a++) {
        double *row = v + a * r;
        for (long b = HALO - 1; b >= 0; b--)
            row[b] = row[b + p1];
        for (long b = HALO + p1; b < n1 + 2 * HALO; b++)
            row[b] = row[b - p1];
    }
}

/* Copies a field's max |C_x| and max |C_y| from top to out[0] and out[1],
 * and corrective, 1.0 for a corrective field and 0.0 for the physical one,
 * to out[2]; true when both maxima are at most courant_max.  A NaN maximum
 * compares false and fails. */
static int courant_ok(const double *top, double courant_max, double corrective, double *out)
{
    out[0] = top[0], out[1] = top[1], out[2] = corrective;
    return out[0] <= courant_max && out[1] <= courant_max;
}

/* The two components of one Courant field in the workspace. */
struct faces {
    double *x, *y;
};

/* the most threads that one march runs on */
#define TEAM_MAX 64
/* the pauses that a thread spins at a barrier before each sched_yield: 3 us
 * at 15 ns a pause */
#define SPINS 200

/* One march call: its arguments, the threads that run it and their barrier.
 * Each thread leaves the maxima of the fields it scanned in its own slot, a
 * cache line apart from the next, of one of two sets (see gather). */
struct team {
    double *psi, *spare; /* the field, and its second buffer */
    long nx, ny, r;
    struct faces c, a, b;
    double *rows; /* the row buffers of each block's sweeps (alloc_rows) */
    long n_steps, n_iters, nonoscillatory, diffusion_ok, periodic, rebuild;
    double u, coef, scale, courant_max, eps;
    long size;           /* the threads, final once open is set */
    atomic_long joined;  /* the helper threads that took an id */
    atomic_int open;     /* the gate that the helper threads wait at */
    atomic_long arrived; /* the threads at the barrier */
    atomic_int sense;    /* flipped as each barrier releases */
    struct {
        _Alignas(64) double top[2];
    } slot[2][TEAM_MAX];
};

/* One spin of a wait: a pause, or after SPINS of them a sched_yield, so that
 * a waiting thread gives its core to one that the scheduler left without. */
static void relax(long *spins)
{
    if (++*spins < SPINS) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
    } else {
        sched_yield();
    }
}

/* The team's barrier: every write a thread made before it is seen by every
 * thread after it.  sense is the caller's own, flipped at each barrier.  A
 * team of one passes at once. */
static void barrier(struct team *t, int *sense)
{
    *sense = !*sense;
    if (atomic_fetch_add_explicit(&t->arrived, 1, memory_order_acq_rel) == t->size - 1) {
        atomic_store_explicit(&t->arrived, 0, memory_order_relaxed);
        atomic_store_explicit(&t->sense, *sense, memory_order_release);
    } else {
        for (long spins = 0; atomic_load_explicit(&t->sense, memory_order_acquire) != *sense;)
            relax(&spins);
    }
}

/* Leaves this thread's maxima top in its slot, waits for the team and
 * writes the maxima of every slot to all: the integer max of max_bits, so
 * the bits of one scan over every row.  The set of slots is the one that
 * the sense names before the barrier flips it.  A thread can leave one
 * gather for the next with no barrier between, while another still reads
 * the first's slots: the two gathers then use different sets.  With a
 * barrier between, every thread has read the first's slots before the
 * second's are written. */
static void gather(struct team *t, long id, int *sense, const double *top, double *all)
{
    int set = *sense;
    t->slot[set][id].top[0] = top[0], t->slot[set][id].top[1] = top[1];
    barrier(t, sense);
    int64_t top_x = 0, top_y = 0;
    for (long i = 0; i < t->size; i++)
        top_x = max_bits(top_x, t->slot[set][i].top[0]), top_y = max_bits(top_y, t->slot[set][i].top[1]);
    all[0] = from_bits(top_x), all[1] = from_bits(top_y);
}

/* psi's boundary fill of the psi buffer v, whose real rows have their y
 * halos: the halo rows that the block takes, or in a periodic march, which
 * has one block, the wrap of every halo */
static void fill_psi_edges(const struct team *t, double *v, struct block s)
{
    if (t->periodic)
        wrap(v, t->nx, t->ny, t->r, t->nx, t->ny);
    else
        fill_scalar_edges(v, t->nx, t->ny, t->r, s);
}

/* The block's rows of the psi buffer src, with their halos and the halo rows
 * that the block takes, into dst */
static void copy_block(const struct team *t, const double *src, double *dst, struct block s)
{
    copy_rows(src, dst, t->r, s.lo - s.first * HALO, s.hi + s.last * HALO, 0, t->ny + 2 * HALO);
}

/* The halos of a component's faces in the block, x (nx + 1 x ny real faces)
 * or y (nx x ny + 1): wrapped on the torus, or extended from the nearest face */
static void fill_x(const struct team *t, double *v, struct block s)
{
    if (t->periodic)
        wrap(v, t->nx + 1, t->ny, t->r, t->nx, t->ny);
    else
        fill_faces_rows(v, t->nx + 1, t->ny, t->r, s.lo, s.hi + s.last);
}

static void fill_y(const struct team *t, double *v, struct block s)
{
    if (t->periodic)
        wrap(v, t->nx, t->ny + 1, t->r, t->nx, t->ny);
    else
        fill_faces_rows(v, t->nx, t->ny + 1, t->r, s.lo, s.hi);
}

static void fill_vector(const struct team *t, struct faces f, struct block s)
{
    fill_x(t, f.x, s);
    fill_y(t, f.y, s);
}

/* The march on thread id of the team, over its block of rows; what march
 * returns, with its out.  Every pass writes the psi buffer that does not
 * hold the field, and the gather that checks the pass's field swaps the two
 * if the check passes.  Every thread finds the same maxima, so every thread
 * stops at the same check. */
static long run(struct team *t, long id, double *out)
{
    long nx = t->nx, ny = t->ny, r = t->r, n_iters = t->n_iters;
    struct block s = {HALO + nx * id / t->size, HALO + nx * (id + 1) / t->size, id == 0, id == t->size - 1};
    struct faces c = t->c;
    struct rows w = rows_of(t->rows, id, r);
    int sense = 0;
    double *psi = t->psi, *spare = t->spare, *swap;
    double c_top[2], top[2]; /* this block's max |C_x| and max |C_y| of c; every block's */
    fill_y(t, c.y, s);
    c_top[1] = max_rows(c.y, ny + 1, r, s.lo, s.hi);
    if (!t->rebuild) {
        fill_x(t, c.x, s);
        c_top[0] = max_rows(c.x, ny, r, s.lo, s.hi + s.last);
    }
    /* the y halos of psi's rows; each pass fills those of the rows it writes */
    fill_scalar_rows(psi, ny, r, s.lo, s.hi);
    /* C_x, if rebuilt, built in the upwind pass's sweep */
    struct build terms = {t->u, t->coef, t->scale, t->eps, t->rebuild}, none = {0};
    long n = 0;
    for (; n < t->n_steps; n++) {
        fill_psi_edges(t, psi, s);
        sweep(psi, spare, ny, r, c.x, c.y, terms, c_top, w, s);
        if (t->rebuild && n_iters > 1) /* only the antidiffusive field reads C_x's halos */
            fill_x(t, c.x, s);
        gather(t, id, &sense, c_top, top);
        if (!courant_ok(top, t->courant_max, 0.0, out) || !t->diffusion_ok)
            goto stop;
        swap = psi, psi = spare, spare = swap;
        struct faces current = c;
        for (long k = 1; k < n_iters; k++) {
            fill_psi_edges(t, psi, s);
            /* a kernel never writes the slot it reads */
            struct faces next = current.x == t->a.x ? t->b : t->a;
            double v_top[2]; /* this block's max |v_x| and max |v_y| of the checked field */
            antidiffusive_rows(psi, ny, r, current.x, current.y, next.x, next.y, t->eps, v_top, s);
            fill_vector(t, next, s);
            barrier(t, &sense);
            if (t->nonoscillatory) {
                struct faces limited = next.x == t->a.x ? t->b : t->a;
                limit_sweep(psi, spare, ny, r, next.x, next.y, limited.x, limited.y, t->eps, v_top, w, s);
                fill_vector(t, limited, s);
                next = limited;
            } else {
                sweep(psi, spare, ny, r, next.x, next.y, none, NULL, w, s);
            }
            gather(t, id, &sense, v_top, top);
            if (!courant_ok(top, t->courant_max, 1.0, out))
                goto stop;
            swap = psi, psi = spare, spare = swap;
            current = next;
        }
    }
stop:
    /* a stop leaves psi as the failing pass found it, filled before the pass */
    if (n == t->n_steps)
        fill_psi_edges(t, psi, s);
    if (psi != t->psi)
        copy_block(t, psi, t->psi, s);
    return n;
}

/* A helper thread: the next id of the team (1 up; the caller is 0), then its rows */
static void *join_team(void *arg)
{
    struct team *t = arg;
    long id = atomic_fetch_add_explicit(&t->joined, 1, memory_order_relaxed) + 1;
    for (long spins = 0; !atomic_load_explicit(&t->open, memory_order_acquire);)
        relax(&spins);
    double out[3];
    run(t, id, out);
    return NULL;
}

/* n_steps transport steps of one length on the workspace: psi, the physical
 * field c (C_y written, and C_x too unless rebuild), the corrective slots a
 * and b and psi's second buffer spare; every fill wraps on the torus if
 * periodic.  Each step fills psi, writes C_x = (u - coef A) scale if rebuild
 * (and fills it if n_iters > 1), and checks c; then runs one upwind pass and n_iters - 1
 * corrective passes on a refilled psi, each antidiffusive field (FCT-limited
 * if nonoscillatory) checked before psi takes its pass.  A failed check of
 * c, or diffusion_ok 0, stops the march with psi as the step found it; of a
 * corrective field, as the pass before left it; either way, and at the end,
 * with psi's halos filled from its real cells.  Returns the stopping step's
 * index, or n_steps, or -1, before any step, when the row buffers of the
 * sweeps cannot be allocated; out gets the failing field's max |C_x|, max
 * |C_y| and 1.0 if corrective, 0.0 if not.  march writes no component of c but C_x, and that only if rebuild: the
 * others are filled and scanned once per call, and each field that march
 * writes is scanned by the kernel that writes it.  The march runs on up to
 * threads threads (at most nx and TEAM_MAX), each over its own block of rows
 * (see the header); a periodic march on one, and on as many as start when
 * pthread_create fails. */
long march(double *psi, long nx, long ny, long r, double *cx, double *cy, double *ax,
           double *ay, double *bx, double *by, double *spare, long n_steps, long n_iters,
           long nonoscillatory, long diffusion_ok, long periodic, long rebuild, long threads, double u,
           double coef, double scale, double courant_max, double eps, double *out)
{
    long size = periodic || threads < 1 ? 1 : threads < nx ? threads : nx;
    size = size < TEAM_MAX ? size : TEAM_MAX;
    struct team t = {
        psi, spare, nx, ny, r, {cx, cy}, {ax, ay}, {bx, by}, alloc_rows(size, r), n_steps, n_iters,
        nonoscillatory, diffusion_ok, periodic, rebuild, u, coef, scale, courant_max, eps, .size = 1,
    };
    if (!t.rows)
        return -1;
    pthread_t helpers[TEAM_MAX];
    /* signals go to the calling thread, which Python runs its handlers on */
    sigset_t every, old;
    sigfillset(&every);
    pthread_sigmask(SIG_BLOCK, &every, &old);
    for (; t.size < size; t.size++)
        if (pthread_create(&helpers[t.size], NULL, join_team, &t))
            break; /* the threads started so far run the march */
    pthread_sigmask(SIG_SETMASK, &old, NULL);
    atomic_store_explicit(&t.open, 1, memory_order_release);
    long ran = run(&t, 0, out);
    for (long i = 1; i < t.size; i++)
        pthread_join(helpers[i], NULL);
    free(t.rows);
    return ran;
}

/* numpy's ziggurat, from the libnpyrandom.a that numpy ships for its C API */
double random_standard_normal(bitgen_t *bitgen);
void random_standard_normal_fill(bitgen_t *bitgen, intptr_t n, double *out);

/* One Philox4x64-10 stream (Salmon et al., SC 2011) as numpy's Philox steps
 * it: a 256-bit counter bumped before each block of four outputs, which are
 * handed out one at a time. */
struct philox {
    uint64_t ctr[4], key[2], buf[4];
    int used;
};

/* the next block of four outputs into buf, none of them used yet */
static void philox_refill(struct philox *s)
{
    for (int i = 0; i < 4 && ++s->ctr[i] == 0; i++)
        ; /* carry into the next word */
    uint64_t c0 = s->ctr[0], c1 = s->ctr[1], c2 = s->ctr[2], c3 = s->ctr[3];
    uint64_t k0 = s->key[0], k1 = s->key[1];
    for (int round = 0; round < 10; round++) {
        if (round > 0) {
            k0 += 0x9E3779B97F4A7C15u;
            k1 += 0xBB67AE8584CAA73Bu;
        }
        unsigned __int128 p0 = (unsigned __int128)0xD2E7470EE14C6C93u * c0;
        unsigned __int128 p1 = (unsigned __int128)0xCA5A826395121157u * c2;
        c0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0;
        c1 = (uint64_t)p1;
        c2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1;
        c3 = (uint64_t)p0;
    }
    s->buf[0] = c0, s->buf[1] = c1, s->buf[2] = c2, s->buf[3] = c3;
    s->used = 0;
}

static uint64_t philox_next(void *state)
{
    struct philox *s = state;
    if (s->used == 4)
        philox_refill(s);
    return s->buf[s->used++];
}

/* numpy's next_double: the top 53 bits over 2^53 */
static double philox_double(void *state) { return (philox_next(state) >> 11) * (1.0 / 9007199254740992.0); }

/* The fast path of numpy's ziggurat.  An output r picks the layer idx =
 * r & 0xff, the sign bit 8 and the magnitude rabs = bits 9 to 60; when
 * rabs < ki[idx] the draw is rabs wi[idx] with that sign, from r alone.
 * numpy keeps ki and wi private, so derive_tables reads them off its
 * random_standard_normal; ki stays 0 until then, and wherever the inline
 * path would not give numpy's bits. */
static uint64_t ki[256];
static double wi[256];
static pthread_once_t tables_once = PTHREAD_ONCE_INIT;

/* A bitgen_t that hands out r, then zeros and halves, so that every path
 * through the ziggurat ends; it counts the draws taken. */
struct probe {
    uint64_t r;
    int draws;
};

static uint64_t probe_next(void *state)
{
    struct probe *p = state;
    return p->draws++ ? 0 : p->r;
}

static double probe_double(void *state)
{
    ((struct probe *)state)->draws++;
    return 0.5;
}

/* numpy's normal from r into *x; true when it took the fast path (r alone) */
static int fast_path(uint64_t r, double *x)
{
    struct probe p = {.r = r};
    bitgen_t gen = {.state = &p, .next_uint64 = probe_next, .next_double = probe_double};
    *x = random_standard_normal(&gen);
    return p.draws == 1;
}

/* m draws of the stream s into z: the fast path inline, every other draw
 * handed to numpy's random_standard_normal from the same output on, which
 * then runs its wedge or tail test on it.  The same bits as numpy's loop. */
static void draw(struct philox *s, double *restrict z, long m)
{
    bitgen_t gen = {.state = s, .next_uint64 = philox_next, .next_double = philox_double};
    for (long t = 0; t < m; t++) {
        if (s->used == 4)
            philox_refill(s);
        uint64_t r = s->buf[s->used], idx = r & 0xff, rabs = (r >> 9) & 0xFFFFFFFFFFFFFu;
        if (rabs < ki[idx]) {
            s->used++;
            double x = (double)(int64_t)rabs * wi[idx];
            uint64_t bits;
            memcpy(&bits, &x, sizeof bits);
            bits ^= (r & 0x100) << 55; /* the sign, without a branch */
            memcpy(z + t, &bits, sizeof bits);
        } else {
            z[t] = random_standard_normal(&gen);
        }
    }
}

/* ki[idx] is the least rabs that misses the fast path (2^52 when none does),
 * found by bisection; wi[idx] is the draw from rabs 1.  A layer whose rabs 1
 * misses (ki[1] is 0) stays with numpy.  Last, the inline path must give
 * numpy's bits on a fixed stream with tail draws in it, or ki goes to 0. */
static void derive_tables(void)
{
    double x;
    for (uint64_t idx = 0; idx < 256; idx++) {
        uint64_t lo = 0, hi = (uint64_t)1 << 52;
        while (lo < hi) {
            uint64_t mid = lo + (hi - lo) / 2;
            if (fast_path(mid << 9 | idx, &x))
                lo = mid + 1;
            else
                hi = mid;
        }
        ki[idx] = lo > 1 && fast_path(1 << 9 | idx, &wi[idx]) ? lo : 0;
    }
    struct philox ours = {.used = 4}, theirs = {.used = 4};
    bitgen_t gen = {.state = &theirs, .next_uint64 = philox_next, .next_double = philox_double};
    double a[256], b[256];
    for (int chunk = 0; chunk < 64; chunk++) {
        draw(&ours, a, 256);
        random_standard_normal_fill(&gen, 256, b);
        if (memcmp(a, b, sizeof a)) {
            memset(ki, 0, sizeof ki);
            return;
        }
    }
}

/* m standard normals into each of the n rows of z: row i is what numpy's
 * Generator(Philox(key=(seed, first + i))).standard_normal(m) draws.  Each
 * row's stream lives on this call's stack. */
void normals(double *restrict z, long n, long m, uint64_t seed, long first)
{
    pthread_once(&tables_once, derive_tables);
    for (long i = 0; i < n; i++) {
        struct philox s = {.key = {seed, (uint64_t)(first + i)}, .used = 4};
        draw(&s, z + i * m, m);
    }
}

/* paths walked at once, one a vector lane; transpose is written for 8 */
#define LANES 8
typedef double lanes __attribute__((vector_size(LANES * sizeof(double))));
typedef int64_t lane_index __attribute__((vector_size(LANES * sizeof(int64_t))));

/* A ufunc's inner loop and the data that numpy passes it */
struct loop {
    PyUFuncGenericFunction run;
    void *data;
};

/* The float64 loop of numpy's one-in, one-out ufunc u into *found: the
 * first d->d of its types, the loop that numpy resolves a float64 call to.
 * Returns 0, or -1 when u has none. */
long float64_loop(const PyUFuncObject *u, struct loop *found)
{
    for (int i = 0; u->nin == 1 && u->nout == 1 && i < u->ntypes; i++) {
        const char *types = u->types + i * u->nargs;
        if (types[0] == NPY_DOUBLE && types[1] == NPY_DOUBLE) {
            *found = (struct loop){u->functions[i], u->data[i]};
            return 0;
        }
    }
    return -1;
}

/* The 8 x 8 transpose of the tile v, row i lane j to row j lane i, in
 * three rounds that swap the off-diagonal halves of ever larger blocks. */
static void transpose(lanes *v)
{
    static const lane_index lo[3] = {
        {0, 8, 2, 10, 4, 12, 6, 14}, {0, 1, 8, 9, 4, 5, 12, 13}, {0, 1, 2, 3, 8, 9, 10, 11}};
    static const lane_index hi[3] = {
        {1, 9, 3, 11, 5, 13, 7, 15}, {2, 3, 10, 11, 6, 7, 14, 15}, {4, 5, 6, 7, 12, 13, 14, 15}};
    for (int round = 0, d = 1; round < 3; round++, d *= 2)
        for (int i = 0; i < LANES; i++)
            if (!(i & d)) {
                lanes a = v[i], b = v[i + d];
                v[i] = __builtin_shuffle(a, b, lo[round]);
                v[i + d] = __builtin_shuffle(a, b, hi[round]);
            }
}

/* The log-price walk of LANES paths of m >= 1 steps, rows of z and rel:
 * rel[0] = z[0] vol + drift, rel[t] = rel[t - 1] + (z[t] vol + drift), the
 * adds of numpy's cumsum of z vol + drift in its order.  One path a lane:
 * each tile of LANES steps is transposed in, walked and transposed out; the
 * last m % LANES steps run lane by lane. */
static void walk(const double *restrict z, double *restrict rel, long m, double vol, double drift)
{
    lanes sum = -(lanes){0}; /* -0.0 + x is x, so the first sum is the first term */
    long t = 0;
    for (; t + LANES <= m; t += LANES) {
        lanes v[LANES];
        for (int p = 0; p < LANES; p++)
            memcpy(&v[p], z + p * m + t, sizeof v[p]);
        transpose(v);
        for (int k = 0; k < LANES; k++)
            v[k] = sum = sum + (v[k] * vol + drift);
        transpose(v);
        for (int p = 0; p < LANES; p++)
            memcpy(rel + p * m + t, &v[p], sizeof v[p]);
    }
    for (int p = 0; p < LANES; p++) {
        double s = sum[p];
        for (long u = t; u < m; u++)
            rel[p * m + u] = s = s + (z[p * m + u] * vol + drift);
    }
}

/* numpy's pairwise sum of the n elements of a, as its add reduction runs it
 * on a contiguous row: 8 running sums up to 128 elements, else the halves
 * split at n / 2 rounded down to a multiple of 8. */
static double pairwise(const double *a, long n)
{
    if (n < 8) {
        double s = 0.0;
        for (long i = 0; i < n; i++)
            s += a[i];
        return s;
    }
    if (n <= 128) {
        double r[8];
        memcpy(r, a, sizeof r);
        long i = 8;
        for (; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            s += a[i];
        return s;
    }
    long half = n / 2 - n / 2 % 8;
    return pairwise(a, half) + pairwise(a + half, n - half);
}

/* The trapezoid average of paths [start, stop) for each of n_insts
 * instruments into its row of out (n_insts rows of n_paths): instrument k is
 * the row (spot, drift, vol) of inst.  A path's normals are what normals
 * draws for it; with rel its walk and S = exp(rel) through exp_loop, numpy's
 * float64 exp loop, its average is spot ((0.5 + s + 0.5 S[m - 1]) / m), s = 0.0 +
 * the pairwise sum of S[0 .. m - 2]: numpy's order for
 * spot * ((0.5 + S[:-1].sum() + 0.5 * S[-1]) / m), bit for bit.  A block of
 * LANES paths is drawn into work's first LANES rows of m and walked, for
 * each instrument, into its last LANES, which stay in cache for the exp and
 * the sum; the lanes past stop walk zeros. */
void averages(double *restrict out, long n_insts, long n_paths, const double *restrict inst, long m,
              uint64_t seed, long start, long stop, double *restrict work, const struct loop *exp_loop)
{
    double *z = work, *rel = work + LANES * m;
    for (long first = start; first < stop; first += LANES) {
        long n = stop - first < LANES ? stop - first : LANES;
        normals(z, n, m, seed, first);
        memset(z + n * m, 0, (LANES - n) * m * sizeof *z);
        for (long k = 0; k < n_insts; k++) {
            const double *c = inst + 3 * k; /* spot, drift, vol */
            walk(z, rel, m, c[2], c[1]);
            char *args[2] = {(char *)rel, (char *)rel};
            npy_intp count = n * m, steps[2] = {sizeof *rel, sizeof *rel};
            exp_loop->run(args, &count, steps, exp_loop->data);
            for (long p = 0; p < n; p++) {
                const double *s = rel + p * m;
                double sum = 0.0 + pairwise(s, m - 1);
                out[k * n_paths + first + p] = c[0] * ((0.5 + sum + 0.5 * s[m - 1]) / (double)m);
            }
        }
    }
}
