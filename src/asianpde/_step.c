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
 * scan reads real elements only.  Every kernel takes first the record that
 * asianpde._step.dims makes of the array it walks; march takes psi's, and
 * the face arrays of the same workspace share its row length.
 *
 * Each real element gets the same floating-point operations, in the same
 * order, as a direct numpy evaluation of its formula, so the results are
 * bit-identical to one.  That holds only when the compiler neither
 * reassociates nor fuses them: build with -ffp-contract=off and without
 * -ffast-math.  One signed-zero difference remains: in the flux and limiter
 * terms max_nan(-0.0, 0.0) is -0.0 and numpy's maximum +0.0; the final clip
 * of upwind removes it, so it reaches only limit's corrective Courant numbers.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#include "numpy/random/bitgen.h"

/* numpy's maximum and minimum: a NaN in either operand gives NaN */
static inline double max_nan(double a, double b) { return (a >= b || a != a) ? a : b; }
static inline double min_nan(double a, double b) { return (a <= b || a != a) ? a : b; }

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
            fx[k] = max_nan(cx[k], 0.0) * psi[k - r] + min_nan(cx[k], 0.0) * psi[k];
    for (long a = h; a < h + nx; a++)
        for (long k = a * r + h; k <= a * r + h + ny; k++)
            fy[k] = max_nan(cy[k], 0.0) * psi[k - 1] + min_nan(cy[k], 0.0) * psi[k];
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

/* Antidiffusive Courant numbers of (cx, cy) into (vx, vy). */
void antidiffusive(const double *restrict psi, long nx, long ny, long h, long r,
                   const double *restrict cx, const double *restrict cy, double *restrict vx,
                   double *restrict vy, double eps)
{
    /* x face: the y faces of cells k - r and k, bottom then top */
    for (long a = h; a <= h + nx; a++)
        for (long k = a * r + h; k < a * r + h + ny; k++)
            vx[k] = antidiffusive_face(
                psi, cx[k], ((cy[k - r] + cy[k]) + cy[k - r + 1]) + cy[k + 1], k, r, 1, eps);
    /* y face: the x faces of cells k - 1 and k, left then right */
    for (long a = h; a < h + nx; a++)
        for (long k = a * r + h; k <= a * r + h + ny; k++)
            vy[k] = antidiffusive_face(
                psi, cy[k], ((cx[k - 1] + cx[k + r - 1]) + cx[k]) + cx[k + r], k, 1, r, eps);
}

/* FCT-limited copy of the corrective field (cx, cy) into (vx, vy).  The
 * ratios beta_up = (max - psi) / (f_in + eps) and beta_dn = (psi - min) /
 * (f_out + eps) are staged in up and dn over the interior plus one cell. */
void limit(const double *restrict psi, long nx, long ny, long h, long r, const double *restrict cx,
           const double *restrict cy, double *restrict vx, double *restrict vy, double *restrict up,
           double *restrict dn, double eps)
{
    for (long a = h - 1; a <= h + nx; a++)
        for (long k = a * r + h - 1; k <= a * r + h + ny; k++) {
            double c0 = psi[k], xm = psi[k - r], xp = psi[k + r], ym = psi[k - 1], yp = psi[k + 1];
            double hi = max_nan(max_nan(max_nan(max_nan(c0, xm), xp), ym), yp);
            double lo = min_nan(min_nan(min_nan(min_nan(c0, xm), xp), ym), yp);
            /* inflow from the left, right, bottom and top neighbours; outflow */
            double f_in = max_nan(cx[k], 0.0) * xm - min_nan(cx[k + r], 0.0) * xp
                          + max_nan(cy[k], 0.0) * ym - min_nan(cy[k + 1], 0.0) * yp;
            double f_out = (max_nan(cx[k + r], 0.0) - min_nan(cx[k], 0.0)
                            + max_nan(cy[k + 1], 0.0) - min_nan(cy[k], 0.0)) * c0;
            up[k] = (hi - c0) / (f_in + eps);
            dn[k] = (c0 - lo) / (f_out + eps);
        }
    /* donor side k - r (x) or k - 1 (y), receiver side k */
    for (long a = h; a <= h + nx; a++)
        for (long k = a * r + h; k < a * r + h + ny; k++)
            vx[k] = min_nan(1.0, min_nan(dn[k - r], up[k])) * max_nan(cx[k], 0.0)
                    + min_nan(1.0, min_nan(dn[k], up[k - r])) * min_nan(cx[k], 0.0);
    for (long a = h; a < h + nx; a++)
        for (long k = a * r + h; k <= a * r + h + ny; k++)
            vy[k] = min_nan(1.0, min_nan(dn[k - 1], up[k])) * max_nan(cy[k], 0.0)
                    + min_nan(1.0, min_nan(dn[k], up[k - 1])) * min_nan(cy[k], 0.0);
}

/* x component of the physical Courant field: (u - coef A) scale, with A the
 * guarded ratio (psi[k] - psi[k - r]) / (psi[k] + psi[k - r]) across the face. */
void courant_x(const double *restrict psi, long nx, long ny, long h, long r, double *restrict cx,
               double u, double coef, double scale, double eps)
{
    for (long a = h; a <= h + nx; a++)
        for (long k = a * r + h; k < a * r + h + ny; k++)
            cx[k] = (u - guarded_ratio(psi[k] - psi[k - r], psi[k] + psi[k - r], eps) * coef) * scale;
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

/* max |v| over the n0 x n1 real elements, a NaN if any is NaN.  With the sign
 * bit cleared a double orders as its bit pattern read as an integer, and
 * every NaN above inf: the integer max has no NaN test to serialise on, so
 * it vectorises. */
double max_abs(const double *v, long n0, long n1, long h, long r)
{
    int64_t top = 0;
    for (long a = h; a < h + n0; a++)
        for (long k = a * r + h; k < a * r + h + n1; k++) {
            int64_t bits;
            memcpy(&bits, v + k, sizeof bits);
            bits &= INT64_MAX;
            top = bits > top ? bits : top;
        }
    double out;
    memcpy(&out, &top, sizeof out);
    return out;
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

/* c's halos: wrapped on the nx x ny torus, or extended from the nearest face */
static void fill_vector(struct faces c, long nx, long ny, long h, long r, long periodic)
{
    if (periodic) {
        wrap(c.x, nx + 1, ny, h, r, nx, ny);
        wrap(c.y, nx, ny + 1, h, r, nx, ny);
    } else {
        fill_faces(c.x, nx + 1, ny, h, r);
        fill_faces(c.y, nx, ny + 1, h, r);
    }
}

/* Writes max |C_x| and max |C_y| of c to out[0] and out[1]; true when both
 * are at most courant_max.  A NaN maximum compares false and fails. */
static int courant_ok(struct faces c, long nx, long ny, long h, long r, double courant_max, double *out)
{
    out[0] = max_abs(c.x, nx + 1, ny, h, r);
    out[1] = max_abs(c.y, nx, ny + 1, h, r);
    return out[0] <= courant_max && out[1] <= courant_max;
}

/* n_steps transport steps of one length on the workspace: psi, the physical
 * field c (C_y written, and C_x too unless rebuild), the corrective slots a
 * and b and the scratch rows up and dn; every fill wraps on the torus if
 * periodic.  Each step fills psi, writes C_x = (u - coef A) scale if rebuild,
 * fills c and checks it, then runs one upwind pass and n_iters - 1 corrective
 * passes on a refilled psi, each antidiffusive field (FCT-limited if
 * nonoscillatory) checked before use.  A failed check of c, or diffusion_ok 0,
 * stops the march before the step changes psi; of a corrective field, before
 * its pass.  Returns the stopping step's index, or n_steps; out gets the
 * failing field's max |C_x|, max |C_y| and 1.0 if corrective, 0.0 if not. */
long march(double *psi, long nx, long ny, long h, long r, double *cx, double *cy, double *ax,
           double *ay, double *bx, double *by, double *up, double *dn, long n_steps, long n_iters,
           long nonoscillatory, long diffusion_ok, long periodic, long rebuild, double u,
           double coef, double scale, double courant_max, double eps, double *out)
{
    struct faces c = {cx, cy}, a = {ax, ay}, b = {bx, by};
    for (long n = 0; n < n_steps; n++) {
        fill_psi(psi, nx, ny, h, r, periodic);
        if (rebuild)
            courant_x(psi, nx, ny, h, r, c.x, u, coef, scale, eps);
        fill_vector(c, nx, ny, h, r, periodic);
        out[2] = 0.0;
        if (!courant_ok(c, nx, ny, h, r, courant_max, out) || !diffusion_ok)
            return n;
        upwind(psi, nx, ny, h, r, c.x, c.y, up, dn);
        struct faces current = c;
        for (long pass = 1; pass < n_iters; pass++) {
            fill_psi(psi, nx, ny, h, r, periodic);
            /* a kernel never writes the slot it reads */
            struct faces next = current.x == a.x ? b : a;
            antidiffusive(psi, nx, ny, h, r, current.x, current.y, next.x, next.y, eps);
            fill_vector(next, nx, ny, h, r, periodic);
            if (nonoscillatory) {
                struct faces limited = next.x == a.x ? b : a;
                limit(psi, nx, ny, h, r, next.x, next.y, limited.x, limited.y, up, dn, eps);
                fill_vector(limited, nx, ny, h, r, periodic);
                next = limited;
            }
            out[2] = 1.0;
            if (!courant_ok(next, nx, ny, h, r, courant_max, out))
                return n;
            upwind(psi, nx, ny, h, r, next.x, next.y, up, dn);
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
void random_standard_normal_fill(bitgen_t *bitgen, intptr_t n, double *out);

/* One Philox4x64-10 stream (Salmon et al., SC 2011) as numpy's Philox steps
 * it: a 256-bit counter bumped before each block of four outputs, which are
 * handed out one at a time. */
struct philox {
    uint64_t ctr[4], key[2], buf[4];
    int used;
};

static uint64_t philox_next(void *state)
{
    struct philox *s = state;
    if (s->used < 4)
        return s->buf[s->used++];
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
    s->used = 1;
    return c0;
}

/* numpy's next_double: the top 53 bits over 2^53 */
static double philox_double(void *state) { return (philox_next(state) >> 11) * (1.0 / 9007199254740992.0); }

/* m standard normals into each of the n rows of z: row i is what numpy's
 * Generator(Philox(key=(seed, first + i))).standard_normal(m) draws.  Each
 * row's stream lives on this call's stack. */
void normals(double *restrict z, long n, long m, uint64_t seed, long first)
{
    for (long i = 0; i < n; i++) {
        struct philox s = {.key = {seed, (uint64_t)(first + i)}, .used = 4};
        bitgen_t gen = {.state = &s, .next_uint64 = philox_next, .next_double = philox_double};
        random_standard_normal_fill(&gen, m, z + i * m);
    }
}
