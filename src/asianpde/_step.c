/* The flat kernels of one MPDATA step, on the padded layout of
 * asianpde.advection.StepWorkspace.
 *
 * Every field is a row-major array of rows of length r.  Cell or face (a, b)
 * sits at flat offset a * r + b, with neighbours at +-r (x) and +-1 (y).
 * With halo width h the real cells are a in [h, h + nx), b in [h, h + ny);
 * the real x faces run to a = h + nx and the real y faces to b = h + ny.
 * The kernels write real elements only and read halos that the caller has
 * filled.
 *
 * Each real element gets the same floating-point operations, in the same
 * order, as a direct numpy evaluation of its formula, so the results are
 * bit-identical to one.  That holds only when the compiler neither
 * reassociates nor fuses them: build with -ffp-contract=off and without
 * -ffast-math.
 */

#include <math.h>

/* numpy's maximum and minimum: a NaN in either operand gives NaN */
static inline double max_nan(double a, double b) { return (a >= b || a != a) ? a : b; }
static inline double min_nan(double a, double b) { return (a <= b || a != a) ? a : b; }

/* num / den, or 0 where |den| < eps (vanishing-denominator guard) */
static inline double guarded_ratio(double num, double den, double eps)
{
    return fabs(den) < eps ? 0.0 : num / den;
}

/* Donor-cell pass: psi -= (fx[k + r] - fx[k]) + (fy[k + 1] - fy[k]), clipped
 * at 0, with the face fluxes max(C, 0) psi_donor + min(C, 0) psi_receiver
 * staged in fx and fy. */
void upwind(double *restrict psi, const double *restrict cx, const double *restrict cy,
            double *restrict fx, double *restrict fy, long nx, long ny, long h, long r)
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
            psi[k] = max_nan(psi[k] - ((fx[k + r] - fx[k]) + (fy[k + 1] - fy[k])), 0.0);
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
void antidiffusive(const double *restrict psi, const double *restrict cx,
                   const double *restrict cy, double *restrict vx, double *restrict vy,
                   long nx, long ny, long h, long r, double eps)
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
void limit(const double *restrict psi, const double *restrict cx, const double *restrict cy,
           double *restrict vx, double *restrict vy, double *restrict up, double *restrict dn,
           long nx, long ny, long h, long r, double eps)
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
void courant_x(const double *restrict psi, double *restrict cx, long nx, long ny, long h,
               long r, double u, double coef, double scale, double eps)
{
    for (long a = h; a <= h + nx; a++)
        for (long k = a * r + h; k < a * r + h + ny; k++)
            cx[k] = (u - guarded_ratio(psi[k] - psi[k - r], psi[k] + psi[k - r], eps) * coef) * scale;
}
