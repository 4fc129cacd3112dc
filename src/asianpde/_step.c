/* The flat kernels of one MPDATA step, on the padded layout of
 * asianpde.advection.StepWorkspace, and march, which runs them for every
 * step of a march in one call: the only driver of the step sequence.  Last,
 * the Monte Carlo paths: normals, their draws, and walk, their running sum.
 *
 * Every field is a row-major array of rows of length r.  Cell or face (a, b)
 * sits at flat offset a * r + b, with neighbours at +-r (x) and +-1 (y).
 * With halo width h the real cells are a in [h, h + nx), b in [h, h + ny);
 * the real x faces run to a = h + nx and the real y faces to b = h + ny.
 * The stencil kernels write real elements only and read halos that the
 * caller has filled; the fill kernels after them write the halos, and the
 * scan reads real elements only.  The kernels that write a Courant field
 * scan it as they write it: courant_x returns max |C_x|, and antidiffusive
 * and limit write max |v_x| and max |v_y| to a double[2], each the max_abs
 * of the faces written.  Every kernel takes first the record that
 * asianpde._step.dims makes of the array it walks; march takes psi's, and
 * the face arrays of the same workspace share its row length.
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
 * The scans.  march checks each Courant field against |C| <= 1 before the
 * pass that uses it, on the maxima that the kernel writing the field found.
 * It writes no component of the physical field but C_x, and that only when
 * it rebuilds it, so C_y, and C_x when not rebuilt, are filled and scanned
 * once per call.  Where march wraps the fields on the torus, the wrap copies
 * the first x and y faces over the last, which a kernel wrote with the same
 * bits from the same, wrapped, inputs: the maxima stand.
 *
 * The band.  A put's payoff is +0.0 for every A >= K, so on a backward march
 * about half of the columns of psi, those of largest A, hold only +0.0.  Let
 * Z be the last column that holds anything else.  An antidiffusive face
 * reads the cells of its own and the neighbouring columns, and between +0.0
 * cells its guarded ratios are 0, so it is +-0 from column Z + 2 up; limit
 * multiplies each face by a factor of at most 1; and upwind leaves +0.0 a
 * cell whose neighbours are +0.0 (its fluxes are +-0, and the clip makes
 * +0.0).  So a pass moves Z up by at most one column, and a step by n_iters.
 * march runs upwind, antidiffusive and limit over the live columns
 * [0, Z + 1 + margin) with margin = n_iters: every cell and face a step can
 * change lies inside, and all that the kernels read outside it (the top y
 * face, limit's ring column and the column above) is +0.0 or +-0 in a
 * full-width march too, so psi comes out bit for bit.  The margin is the
 * reach of the stencils and reads no sign of C_y: one column less fails at
 * n_iters 1 and 2, where a constant C_y = 1 moves Z by n_iters in a step (no
 * field tried moved it by more than two).  Before each step march checks the
 * margin columns below the band and widens the band if one of them is live;
 * it never narrows within a call.  "Live" is a bit test, so a NaN, an inf or
 * a -0.0 (which upwind would turn into +0.0) counts.  A NaN made within a
 * step can make limit's factor NaN one column further up, but then also
 * inside the band, so the check fails with the same maxima.  A call starts
 * from psi's last live column and clears the corrective faces above its band
 * to +0.0, where a full-width march holds +-0, so that a slot holds +0.0 above
 * the band, and the maxima its kernels find over the band are those of every
 * face.  The fills and courant_x keep the full extent, and the periodic
 * march, whose columns wrap, the full width.
 *
 * The normals.  Each path draws from its own Philox4x64-10 stream, stepped
 * here as numpy steps it, through numpy's ziggurat.  About 98.5% of draws
 * take its fast path, which reads one 64-bit output and two table entries;
 * normals runs that path inline, and hands every other draw to numpy's own
 * random_standard_normal, linked from libnpyrandom.a, from the same output
 * on.  numpy keeps the tables private, so the first call of a process reads
 * them off that function, once, and checks the inline path against it on a
 * fixed stream.  The bits are numpy's either way; a failed check only sends
 * every draw to numpy, at numpy's speed.
 */

#include <math.h>
#include <pthread.h>
#include <stdint.h>
#include <string.h>

#include "numpy/random/bitgen.h"

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

/* Donor-cell pass: psi -= (fx[k + r] - fx[k]) + (fy[k + 1] - fy[k]), clipped
 * at 0, with the face fluxes max(C, 0) psi_donor + min(C, 0) psi_receiver
 * staged in fx and fy. */
void upwind(double *restrict psi, long nx, long ny, long h, long r, const double *restrict cx,
            const double *restrict cy, double *restrict fx, double *restrict fy)
{
    for (long a = h; a <= h + nx; a++)
        for (long k = a * r + h; k < a * r + h + ny; k++)
            fx[k] = max_zero(cx[k]) * psi[k - r] + min_zero(cx[k]) * psi[k];
    for (long a = h; a < h + nx; a++)
        for (long k = a * r + h; k <= a * r + h + ny; k++)
            fy[k] = max_zero(cy[k]) * psi[k - 1] + min_zero(cy[k]) * psi[k];
    /* the scheme is sign-preserving; the clip removes round-off undershoots */
    for (long a = h; a < h + nx; a++)
        for (long k = a * r + h; k < a * r + h + ny; k++)
            psi[k] = clip_negative(psi[k] - ((fx[k + r] - fx[k]) + (fy[k + 1] - fy[k])));
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

/* Antidiffusive Courant numbers of (cx, cy) into (vx, vy); max |v_x| and
 * max |v_y| of the faces written into top[0] and top[1], as max_abs finds them. */
void antidiffusive(const double *restrict psi, long nx, long ny, long h, long r,
                   const double *restrict cx, const double *restrict cy, double *restrict vx,
                   double *restrict vy, double eps, double *restrict top)
{
    int64_t top_x = 0, top_y = 0;
    /* x face: the y faces of cells k - r and k, bottom then top */
    for (long a = h; a <= h + nx; a++)
        for (long k = a * r + h; k < a * r + h + ny; k++) {
            vx[k] = antidiffusive_face(
                psi, cx[k], ((cy[k - r] + cy[k]) + cy[k - r + 1]) + cy[k + 1], k, r, 1, eps);
            top_x = max_bits(top_x, vx[k]);
        }
    /* y face: the x faces of cells k - 1 and k, left then right */
    for (long a = h; a < h + nx; a++)
        for (long k = a * r + h; k <= a * r + h + ny; k++) {
            vy[k] = antidiffusive_face(
                psi, cy[k], ((cx[k - 1] + cx[k + r - 1]) + cx[k]) + cx[k + r], k, 1, r, eps);
            top_y = max_bits(top_y, vy[k]);
        }
    top[0] = from_bits(top_x), top[1] = from_bits(top_y);
}

/* FCT-limited copy of the corrective field (cx, cy) into (vx, vy), its max
 * |v_x| and max |v_y| into top[0] and top[1] as in antidiffusive.  The ratios
 * beta_up = (max - psi) / (f_in + eps) and beta_dn = (psi - min) / (f_out +
 * eps) are staged in up and dn over the interior plus one cell. */
void limit(const double *restrict psi, long nx, long ny, long h, long r, const double *restrict cx,
           const double *restrict cy, double *restrict vx, double *restrict vy, double *restrict up,
           double *restrict dn, double eps, double *restrict top)
{
    for (long a = h - 1; a <= h + nx; a++)
        for (long k = a * r + h - 1; k <= a * r + h + ny; k++) {
            double c0 = psi[k], xm = psi[k - r], xp = psi[k + r], ym = psi[k - 1], yp = psi[k + 1];
            double hi = max_nan(max_nan(max_nan(max_nan(c0, xm), xp), ym), yp);
            double lo = min_nan(min_nan(min_nan(min_nan(c0, xm), xp), ym), yp);
            /* inflow from the left, right, bottom and top neighbours; outflow */
            double f_in = max_zero(cx[k]) * xm - min_zero(cx[k + r]) * xp
                          + max_zero(cy[k]) * ym - min_zero(cy[k + 1]) * yp;
            double f_out = (max_zero(cx[k + r]) - min_zero(cx[k])
                            + max_zero(cy[k + 1]) - min_zero(cy[k])) * c0;
            up[k] = (hi - c0) / (f_in + eps);
            dn[k] = (c0 - lo) / (f_out + eps);
        }
    /* donor side k - r (x) or k - 1 (y), receiver side k */
    int64_t top_x = 0, top_y = 0;
    for (long a = h; a <= h + nx; a++)
        for (long k = a * r + h; k < a * r + h + ny; k++) {
            vx[k] = min_one(min_nan(dn[k - r], up[k])) * max_zero(cx[k])
                    + min_one(min_nan(dn[k], up[k - r])) * min_zero(cx[k]);
            top_x = max_bits(top_x, vx[k]);
        }
    for (long a = h; a < h + nx; a++)
        for (long k = a * r + h; k <= a * r + h + ny; k++) {
            vy[k] = min_one(min_nan(dn[k - 1], up[k])) * max_zero(cy[k])
                    + min_one(min_nan(dn[k], up[k - 1])) * min_zero(cy[k]);
            top_y = max_bits(top_y, vy[k]);
        }
    top[0] = from_bits(top_x), top[1] = from_bits(top_y);
}

/* x component of the physical Courant field: (u - coef A) scale, with A the
 * guarded ratio (psi[k] - psi[k - r]) / (psi[k] + psi[k - r]) across the face.
 * Returns max |C_x| of the faces written, as max_abs finds it. */
double courant_x(const double *restrict psi, long nx, long ny, long h, long r, double *restrict cx,
                 double u, double coef, double scale, double eps)
{
    int64_t top = 0;
    for (long a = h; a <= h + nx; a++)
        for (long k = a * r + h; k < a * r + h + ny; k++) {
            cx[k] = (u - guarded_ratio(psi[k] - psi[k - r], psi[k] + psi[k - r], eps) * coef) * scale;
            top = max_bits(top, cx[k]);
        }
    return from_bits(top);
}

/* Linear extrapolation outward from cells k and k - step (k the edge cell)
 * into the h cells k + step, ..., k + h step, each clipped at 0.  The walk
 * adds the slope once per layer, so a constant line stays bit-exact. */
static inline void extrapolate(double *v, long k, long step, long h)
{
    double slope = v[k] - v[k - step], out = v[k];
    for (long layer = 1; layer <= h; layer++) {
        out += slope;
        v[k + layer * step] = clip_negative(out);
    }
}

/* Halos of a scalar with nx x ny real cells: linear extrapolation from the
 * two nearest real cells, x first and then y over every row, so the corners
 * continue the rows the x pass filled. */
void fill_scalar(double *v, long nx, long ny, long h, long r)
{
    /* halo columns of the halo rows are left to the y pass, which rewrites them */
    for (long b = h; b < h + ny; b++) {
        extrapolate(v, h * r + b, -r, h);
        extrapolate(v, (h + nx - 1) * r + b, r, h);
    }
    for (long a = 0; a < nx + 2 * h; a++) {
        extrapolate(v, a * r + h, -1, h);
        extrapolate(v, a * r + h + ny - 1, 1, h);
    }
}

/* Halos of a face component with n0 x n1 real faces: each halo element takes
 * the value of the nearest real face, rows along y first, then whole rows. */
void fill_faces(double *v, long n0, long n1, long h, long r)
{
    for (long a = h; a < h + n0; a++) {
        double *row = v + a * r;
        for (long b = 0; b < h; b++) {
            row[b] = row[h];
            row[h + n1 + b] = row[h + n1 - 1];
        }
    }
    size_t width = (size_t)(n1 + 2 * h) * sizeof(double);
    for (long layer = 1; layer <= h; layer++) {
        memcpy(v + (h - layer) * r, v + h * r, width);
        memcpy(v + (h + n0 - 1 + layer) * r, v + (h + n0 - 1) * r, width);
    }
}

/* max |v| over the n0 x n1 real elements, a NaN if any is NaN (see max_bits) */
double max_abs(const double *v, long n0, long n1, long h, long r)
{
    int64_t top = 0;
    for (long a = h; a < h + n0; a++)
        for (long k = a * r + h; k < a * r + h + n1; k++)
            top = max_bits(top, v[k]);
    return from_bits(top);
}

/* Halos on the torus with periods 1 <= p <= n: walking outward, whole rows
 * and then each row take the value one period in, so a face one period past
 * the first takes the first's value (the first wins: boundary fluxes telescope). */
void wrap(double *v, long n0, long n1, long h, long r, long p0, long p1)
{
    size_t width = (size_t)(n1 + 2 * h) * sizeof(double);
    for (long a = h - 1; a >= 0; a--)
        memcpy(v + a * r, v + (a + p0) * r, width);
    for (long a = h + p0; a < n0 + 2 * h; a++)
        memcpy(v + a * r, v + (a - p0) * r, width);
    for (long a = 0; a < n0 + 2 * h; a++) {
        double *row = v + a * r;
        for (long b = h - 1; b >= 0; b--)
            row[b] = row[b + p1];
        for (long b = h + p1; b < n1 + 2 * h; b++)
            row[b] = row[b - p1];
    }
}

/* The two components of one Courant field in the workspace. */
struct faces {
    double *x, *y;
};

/* psi's halos: wrapped on the nx x ny torus, or extrapolated */
static void fill_psi(double *psi, long nx, long ny, long h, long r, long periodic)
{
    if (periodic)
        wrap(psi, nx, ny, h, r, nx, ny);
    else
        fill_scalar(psi, nx, ny, h, r);
}

/* The halos of a face component with n0 x n1 real faces: wrapped on the
 * nx x ny torus, or extended from the nearest face */
static void fill_component(double *v, long n0, long n1, long h, long r, long nx, long ny, long periodic)
{
    if (periodic)
        wrap(v, n0, n1, h, r, nx, ny);
    else
        fill_faces(v, n0, n1, h, r);
}

/* c's halos, both components */
static void fill_vector(struct faces c, long nx, long ny, long h, long r, long periodic)
{
    fill_component(c.x, nx + 1, ny, h, r, nx, ny, periodic);
    fill_component(c.y, nx, ny + 1, h, r, nx, ny, periodic);
}

/* Copies a field's max |C_x| and max |C_y| from top to out[0] and out[1];
 * true when both are at most courant_max.  A NaN maximum compares false and
 * fails. */
static int courant_ok(const double *top, double courant_max, double *out)
{
    out[0] = top[0], out[1] = top[1];
    return out[0] <= courant_max && out[1] <= courant_max;
}

/* The band of live columns of psi's nx x ny real cells: up to the last
 * column in [from, to) that holds anything but +0.0, plus margin, at most
 * ny; from + margin when every cell of [from, to) is +0.0. */
static long live_columns(const double *psi, long nx, long ny, long h, long r, long from, long to,
                         long margin)
{
    long last = from - 1;
    for (long b = to - 1; b >= from && last < from; b--)
        for (long a = h; a < h + nx; a++) {
            uint64_t bits;
            memcpy(&bits, psi + a * r + h + b, sizeof bits);
            if (bits) {
                last = b;
                break;
            }
        }
    return last + 1 + margin < ny ? last + 1 + margin : ny;
}

/* +0.0 into the real faces of c above a band of live columns: x faces in
 * columns [live, ny), y faces in [live + 1, ny] */
static void clear_above(struct faces c, long nx, long ny, long h, long r, long live)
{
    size_t width = (size_t)(ny - live) * sizeof(double);
    for (long a = h; a <= h + nx; a++)
        memset(c.x + a * r + h + live, 0, width);
    for (long a = h; a < h + nx; a++)
        memset(c.y + a * r + h + live + 1, 0, width);
}

/* n_steps transport steps of one length on the workspace: psi, the physical
 * field c (C_y written, and C_x too unless rebuild), the corrective slots a
 * and b and the scratch rows up and dn; every fill wraps on the torus if
 * periodic.  Each step fills psi, writes C_x = (u - coef A) scale if rebuild
 * and fills it, and checks c; then runs one upwind pass and n_iters - 1
 * corrective passes on a refilled psi, each antidiffusive field (FCT-limited
 * if nonoscillatory) checked before use.  A failed check of c, or
 * diffusion_ok 0, stops the march before the step changes psi; of a
 * corrective field, before its pass.  Returns the stopping step's index, or
 * n_steps; out gets the failing field's max |C_x|, max |C_y| and 1.0 if
 * corrective, 0.0 if not.  The passes run over the band of live columns (see
 * the header).  march writes no component of c but C_x, and that only if
 * rebuild: the others are filled and scanned once per call, and each field
 * that march writes is scanned by the kernel that writes it. */
long march(double *psi, long nx, long ny, long h, long r, double *cx, double *cy, double *ax,
           double *ay, double *bx, double *by, double *up, double *dn, long n_steps, long n_iters,
           long nonoscillatory, long diffusion_ok, long periodic, long rebuild, double u,
           double coef, double scale, double courant_max, double eps, double *out)
{
    struct faces c = {cx, cy}, a = {ax, ay}, b = {bx, by};
    long live = periodic ? ny : live_columns(psi, nx, ny, h, r, 0, ny, n_iters);
    if (live < ny) {
        clear_above(a, nx, ny, h, r, live);
        clear_above(b, nx, ny, h, r, live);
    }
    if (n_steps == 0)
        return 0;
    double c_top[2]; /* max |C_x| and max |C_y| of c */
    fill_component(c.y, nx, ny + 1, h, r, nx, ny, periodic);
    c_top[1] = max_abs(c.y, nx, ny + 1, h, r);
    if (!rebuild) {
        fill_component(c.x, nx + 1, ny, h, r, nx, ny, periodic);
        c_top[0] = max_abs(c.x, nx + 1, ny, h, r);
    }
    for (long n = 0; n < n_steps; n++) {
        if (live < ny)
            live = live_columns(psi, nx, ny, h, r, live - n_iters, live, n_iters);
        fill_psi(psi, nx, ny, h, r, periodic);
        if (rebuild) {
            c_top[0] = courant_x(psi, nx, ny, h, r, c.x, u, coef, scale, eps);
            fill_component(c.x, nx + 1, ny, h, r, nx, ny, periodic);
        }
        out[2] = 0.0;
        if (!courant_ok(c_top, courant_max, out) || !diffusion_ok)
            return n;
        upwind(psi, nx, live, h, r, c.x, c.y, up, dn);
        struct faces current = c;
        for (long pass = 1; pass < n_iters; pass++) {
            fill_psi(psi, nx, ny, h, r, periodic);
            /* a kernel never writes the slot it reads */
            struct faces next = current.x == a.x ? b : a;
            double v_top[2]; /* max |v_x| and max |v_y| of next */
            antidiffusive(psi, nx, live, h, r, current.x, current.y, next.x, next.y, eps, v_top);
            fill_vector(next, nx, ny, h, r, periodic);
            if (nonoscillatory) {
                struct faces limited = next.x == a.x ? b : a;
                limit(psi, nx, live, h, r, next.x, next.y, limited.x, limited.y, up, dn, eps, v_top);
                fill_vector(limited, nx, ny, h, r, periodic);
                next = limited;
            }
            out[2] = 1.0;
            if (!courant_ok(v_top, courant_max, out))
                return n;
            upwind(psi, nx, live, h, r, next.x, next.y, up, dn);
            current = next;
        }
    }
    return n_steps;
}

/* The log-price walk of n Monte Carlo paths of m >= 1 steps, rows of z and
 * rel: rel[0] = z[0] vol + drift, rel[t] = rel[t - 1] + (z[t] vol + drift).
 * numpy's cumsum of z vol + drift adds in the same order, so the bits are its. */
void walk(const double *restrict z, double *restrict rel, long n, long m, double vol, double drift)
{
    for (long i = 0; i < n; i++) {
        const double *zi = z + i * m;
        double *ri = rel + i * m;
        double sum = zi[0] * vol + drift;
        ri[0] = sum;
        for (long t = 1; t < m; t++) {
            sum = sum + (zi[t] * vol + drift);
            ri[t] = sum;
        }
    }
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
