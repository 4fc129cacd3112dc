"""Direct, unoptimised evaluations of the scheme that the tests compare against.

The library runs the step and its halo fills as C loops on a padded layout
(:class:`asianpde.advection.StepWorkspace`); these functions evaluate the same
formulas face by face, path by path, pass by pass or slice by slice, so the
tests can check the library against them.  :func:`reference_normals` is the
numpy draw that the C kernel ``normals`` must match bit for bit, and
:func:`reference_averages` the numpy pipeline of draws, running sum, ``exp``
and trapezoid sum that the C kernel ``averages`` must match bit for bit.
:func:`observed_order` fits the convergence order that the tests assert on
:func:`asianpde.benchmarks.convergence_study`.
"""

from __future__ import annotations

import math

import numpy as np

from asianpde._step import HALO
from asianpde.advection import (
    DEFAULT_EPSILON,
    SolverOptions,
    StepWorkspace,
    antidiffusive_courant,
    check_stability,
    diffusion_number,
    mpdata_step,
    nonoscillatory_limit,
    upwind_step,
)
from asianpde.benchmarks import ConvergenceLevel
from asianpde.errors import ConfigurationError, StabilityError
from asianpde.grid import GridSpec, ScalarField, VectorField, fill_halos_scalar, fill_halos_vector
from asianpde.pricing import (
    InstrumentSpec,
    _courant_x_terms,
    _step_runs,
    _write_courant_y,
    build_courant,
    make_transform,
    terminal_condition,
)
from asianpde.reference import McConfig


def _guarded_ratio(num, den, epsilon: float, out=None, small=None):
    """num / den, or 0 where |den| < epsilon (vanishing-denominator guard).

    ``out`` and the boolean ``small`` receive the result and the guard mask
    when given; ``out`` may be ``num``.
    """
    small = np.less(np.abs(den), epsilon, out=small)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.divide(num, den, out=out if out is not None else np.empty_like(num))
    np.copyto(out, 0.0, where=small)
    return out


def flux(psi_left, psi_right, courant):
    """Donor-cell flux: max(C, 0) * psi_left + min(C, 0) * psi_right."""
    return np.maximum(courant, 0.0) * psi_left + np.minimum(courant, 0.0) * psi_right


def factor_a(psi_here, psi_next, epsilon: float = DEFAULT_EPSILON):
    """First antidiffusive factor (psi_next - psi_here) / (psi_next + psi_here).

    Returns 0 where the denominator magnitude falls below ``epsilon``.
    Accepts scalars or arrays.
    """
    num = np.asarray(psi_next, dtype=float) - np.asarray(psi_here, dtype=float)
    den = np.asarray(psi_next, dtype=float) + np.asarray(psi_here, dtype=float)
    out = _guarded_ratio(np.asarray(num), np.asarray(den), epsilon)
    return float(out) if out.ndim == 0 else out


def factor_b(psi: ScalarField, i: int, j: int, d: int, epsilon: float = DEFAULT_EPSILON) -> float:
    """Cross-dimension antidiffusive factor at face (i+1/2, j) of dimension d.

    Half the difference of the two +1-offset transverse neighbour pairs and
    the two -1-offset ones, over their total; 0 on a vanishing denominator.
    Interior cell indices; halos must be filled.
    """
    h = HALO
    v = psi.values
    a, b = h + i, h + j
    if d == 0:
        up = v[a + 1, b + 1] + v[a, b + 1]
        dn = v[a + 1, b - 1] + v[a, b - 1]
    elif d == 1:
        up = v[a + 1, b + 1] + v[a + 1, b]
        dn = v[a - 1, b + 1] + v[a - 1, b]
    else:
        raise ConfigurationError(f"dimension must be 0 or 1, got {d}")
    den = up + dn
    if abs(den) < epsilon:
        return 0.0
    return 0.5 * (up - dn) / den


def transverse_mean_courant(courant: VectorField, i: int, j: int, d: int, q: int) -> float:
    """Mean of the four q-component faces surrounding face (i+1/2, j) of dimension d."""
    if {d, q} != {0, 1}:
        raise ConfigurationError(f"need distinct dimensions from (0, 1), got d={d}, q={q}")
    h = HALO
    a, b = h + i, h + j
    if d == 0:
        cy = courant.comp_y
        return 0.25 * (cy[a, b] + cy[a + 1, b] + cy[a, b + 1] + cy[a + 1, b + 1])
    cx = courant.comp_x
    return 0.25 * (cx[a, b] + cx[a + 1, b] + cx[a, b + 1] + cx[a + 1, b + 1])


def reference_upwind(psi: ScalarField, courant: VectorField) -> ScalarField:
    """numpy evaluation of the C ``upwind`` on filled halos: the donor-cell
    fluxes of every real face, the interior updated by their differences and
    clipped at 0.  A new field; the inputs are read only."""
    h, v, nx, ny = HALO, psi.values, psi.nx, psi.ny
    out = psi.copy()
    with np.errstate(all="ignore"):
        fx = flux(v[h - 1:h + nx, h:h + ny], v[h:h + nx + 1, h:h + ny], courant.interior_x)
        fy = flux(v[h:h + nx, h - 1:h + ny], v[h:h + nx, h:h + ny + 1], courant.interior_y)
        out.interior[:] = np.maximum(psi.interior - ((fx[1:] - fx[:-1]) + (fy[:, 1:] - fy[:, :-1])), 0.0)
    return out


def _antidiffusive_faces(v, c, cbar_sum, near, far, epsilon):
    """|C| (1 - |C|) A - C Cbar B on one face component, with ``v`` the cell
    views and ``near`` / ``far`` the offsets of the C kernel's face function."""
    (here, behind), (up_here, up_behind), (dn_here, dn_behind) = (
        (v(0, 0), v(*near)), (v(*far), v(near[0] + far[0], near[1] + far[1])),
        (v(-far[0], -far[1]), v(near[0] - far[0], near[1] - far[1])),
    )
    ratio_a = _guarded_ratio(here - behind, here + behind, epsilon)
    up, dn = up_here + up_behind, dn_here + dn_behind
    ratio_b = _guarded_ratio(up - dn, up + dn, epsilon) * 0.5
    abs_c = np.abs(c)
    return (1.0 - abs_c) * abs_c * ratio_a - cbar_sum * 0.25 * c * ratio_b


def reference_antidiffusive(psi: ScalarField, courant: VectorField, epsilon: float = DEFAULT_EPSILON) -> VectorField:
    """numpy evaluation of the C ``antidiffusive`` on filled halos, every
    real face in the C kernel's order of operations.  Halos of the result are 0."""
    h, v, nx, ny = HALO, psi.values, psi.nx, psi.ny
    cx, cy = courant.comp_x, courant.comp_y
    out = VectorField(np.zeros_like(cx), np.zeros_like(cy))
    with np.errstate(all="ignore"):
        # x face (a, b) between cells (a - 1, b) and (a, b); the y faces of both cells
        cells = lambda da, db: v[h + da:h + nx + 1 + da, h + db:h + ny + db]  # noqa: E731
        cbar = ((cy[h - 1:h + nx, h:h + ny] + cy[h:h + nx + 1, h:h + ny]) + cy[h - 1:h + nx, h + 1:h + ny + 1]) \
            + cy[h:h + nx + 1, h + 1:h + ny + 1]
        out.interior_x[:] = _antidiffusive_faces(cells, courant.interior_x, cbar, (-1, 0), (0, 1), epsilon)
        # y face (a, b) between cells (a, b - 1) and (a, b); the x faces of both cells
        cells = lambda da, db: v[h + da:h + nx + da, h + db:h + ny + 1 + db]  # noqa: E731
        cbar = ((cx[h:h + nx, h - 1:h + ny] + cx[h + 1:h + nx + 1, h - 1:h + ny]) + cx[h:h + nx, h:h + ny + 1]) \
            + cx[h + 1:h + nx + 1, h:h + ny + 1]
        out.interior_y[:] = _antidiffusive_faces(cells, courant.interior_y, cbar, (0, -1), (1, 0), epsilon)
    return out


def limiter_ratios(psi: ScalarField, corrective: VectorField, epsilon: float = DEFAULT_EPSILON):
    """numpy evaluation of the FCT ratios that the C ``limit`` stages, on the
    real cells and the ring of one around them: ``(beta_up, beta_dn)``, each
    ``(nx + 2, ny + 2)``, beta_up = (max - psi) / (f_in + eps) and beta_dn =
    (psi - min) / (f_out + eps) over each cell's 5-point stencil."""
    h, v, nx, ny = HALO, psi.values, psi.nx, psi.ny
    cx, cy = corrective.comp_x, corrective.comp_y
    rows, cols = slice(h - 1, h + nx + 1), slice(h - 1, h + ny + 1)
    shifted = lambda a, da, db: a[h - 1 + da:h + nx + 1 + da, h - 1 + db:h + ny + 1 + db]  # noqa: E731
    c0, xm, xp, ym, yp = (shifted(v, *d) for d in ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)))
    hi = np.maximum(np.maximum(np.maximum(np.maximum(c0, xm), xp), ym), yp)
    lo = np.minimum(np.minimum(np.minimum(np.minimum(c0, xm), xp), ym), yp)
    pos, neg = (lambda a: np.maximum(a, 0.0)), (lambda a: np.minimum(a, 0.0))
    left, right, bottom, top = cx[rows, cols], shifted(cx, 1, 0), cy[rows, cols], shifted(cy, 0, 1)
    with np.errstate(all="ignore"):
        f_in = pos(left) * xm - neg(right) * xp + pos(bottom) * ym - neg(top) * yp
        f_out = (pos(right) - neg(left) + pos(top) - neg(bottom)) * c0
        return (hi - c0) / (f_in + epsilon), (c0 - lo) / (f_out + epsilon)


def reference_limit(psi: ScalarField, corrective: VectorField, epsilon: float = DEFAULT_EPSILON) -> VectorField:
    """numpy evaluation of the C ``limit`` on filled halos: each real face of
    ``corrective`` scaled by min(1, beta) of its donor and receiver cells
    (:func:`limiter_ratios`).  Halos of the result are 0."""
    nx, ny = psi.nx, psi.ny
    up, dn = limiter_ratios(psi, corrective, epsilon)
    out = VectorField(np.zeros_like(corrective.comp_x), np.zeros_like(corrective.comp_y))
    # the ratios' index i is cell i - 1: the donor of x face a is cell a - 1
    # (index a), the receiver cell a (index a + 1)
    for faces, c, donor, receiver in (
        (out.interior_x, corrective.interior_x, (slice(0, nx + 1), slice(1, ny + 1)), (slice(1, nx + 2), slice(1, ny + 1))),
        (out.interior_y, corrective.interior_y, (slice(1, nx + 1), slice(0, ny + 1)), (slice(1, nx + 1), slice(1, ny + 2))),
    ):
        with np.errstate(all="ignore"):
            faces[:] = np.minimum(1.0, np.minimum(dn[donor], up[receiver])) * np.maximum(c, 0.0) \
                + np.minimum(1.0, np.minimum(dn[receiver], up[donor])) * np.minimum(c, 0.0)
    return out


def reference_fill_scalar(fld: ScalarField) -> ScalarField:
    """numpy evaluation of :func:`asianpde.grid.fill_halos_scalar`: linear
    extrapolation from the two nearest interior cells, x then y, clipped at 0."""
    v = fld.values
    h = HALO
    for axis in (0, 1):
        lo0, lo1 = (v[h], v[h + 1]) if axis == 0 else (v[:, h], v[:, h + 1])
        hi0, hi1 = (v[-h - 1], v[-h - 2]) if axis == 0 else (v[:, -h - 1], v[:, -h - 2])
        # walk outward along the line through the two edge cells; the
        # incremental form keeps constant fields bit-exact
        lo, hi = lo0.copy(), hi0.copy()
        lo_slope, hi_slope = lo0 - lo1, hi0 - hi1
        for layer in range(1, h + 1):
            lo += lo_slope
            hi += hi_slope
            lo_clipped = np.maximum(lo, 0.0)
            hi_clipped = np.maximum(hi, 0.0)
            if axis == 0:
                v[h - layer] = lo_clipped
                v[-h - 1 + layer] = hi_clipped
            else:
                v[:, h - layer] = lo_clipped
                v[:, -h - 1 + layer] = hi_clipped
    return fld


def reference_fill_vector(fld: VectorField) -> VectorField:
    """numpy evaluation of :func:`asianpde.grid.fill_halos_vector`: constant
    extension of the nearest face."""
    for comp in (fld.comp_x, fld.comp_y):
        h = HALO
        comp[:h, :] = comp[h, :]
        comp[-h:, :] = comp[-h - 1, :]
        comp[:, :h] = comp[:, h][:, None]
        comp[:, -h:] = comp[:, -h - 1][:, None]
    return fld


def reference_periodic_fill_scalar(fld: ScalarField) -> ScalarField:
    """numpy evaluation of the C torus fill ``wrap`` on a scalar, as a
    periodic march runs it: halos wrapped around the torus, rows then columns."""
    v, h, nx, ny = fld.values, HALO, fld.nx, fld.ny
    v[:h, :] = v[nx:nx + h, :]
    v[nx + h:, :] = v[h:2 * h, :]
    v[:, :h] = v[:, ny:ny + h]
    v[:, ny + h:] = v[:, h:2 * h]
    return fld


def reference_periodic_fill_vector(fld: VectorField) -> VectorField:
    """numpy evaluation of the C torus fill ``wrap`` on a face field, as a
    periodic march runs it: face components wrapped with the interior period
    in each axis, the first of the two coinciding boundary faces winning."""
    h = HALO
    cx, cy = fld.comp_x, fld.comp_y
    nx, ny = cy.shape[0] - 2 * h, cx.shape[1] - 2 * h
    cx[h + nx, :] = cx[h, :]
    cx[:h, :] = cx[nx:nx + h, :]
    cx[h + nx + 1:, :] = cx[h + 1:2 * h + 1, :]
    cx[:, :h] = cx[:, ny:ny + h]
    cx[:, ny + h:] = cx[:, h:2 * h]
    cy[:, h + ny] = cy[:, h]
    cy[:, :h] = cy[:, ny:ny + h]
    cy[:, h + ny + 1:] = cy[:, h + 1:2 * h + 1]
    cy[:h, :] = cy[nx:nx + h, :]
    cy[nx + h:, :] = cy[h:2 * h, :]
    return fld


def periodic_mpdata_step(psi: ScalarField, courant: VectorField, opts: SolverOptions) -> ScalarField:
    """:func:`asianpde.advection.mpdata_step` with every fill wrapped on the
    torus: a one-step periodic march on copies of the inputs, as
    ``benchmarks.run_translation`` marches."""
    ws = StepWorkspace.holding(psi, courant)
    ws.march(1, opts, periodic=True)
    return ws.psi.copy()


def full_width_step(
    psi: ScalarField, courant: VectorField, opts: SolverOptions
) -> tuple[ScalarField, list[VectorField]]:
    """One transport step composed of the public passes, each of which runs
    its kernel over every column of a new workspace: UPWIND, then per
    corrective pass the refilled psi's antidiffusive field and, if
    nonoscillatory, its limited copy, each with filled halos.
    Each UPWIND raises :class:`StabilityError` on a field over |C| = 1.
    Returns psi, its halos filled as the march leaves them, and the
    corrective fields in the order the step writes them."""
    out, written, current = upwind_step(psi, courant), [], courant
    for _ in range(opts.n_iters - 1):
        fill_halos_scalar(out)
        written.append(fill_halos_vector(antidiffusive_courant(out, current)))
        if opts.nonoscillatory:
            written.append(fill_halos_vector(nonoscillatory_limit(out, written[-1])))
        current = written[-1]
        out = upwind_step(out, current)
    return fill_halos_scalar(out), written


def full_width_integrate(
    psi: ScalarField, inst: InstrumentSpec, spec: GridSpec, dt: float, opts: SolverOptions
) -> ScalarField:
    """``pricing.integrate`` from the terminal field ``psi`` as a loop of
    :func:`full_width_step`: the same steps and checks, and the same
    :class:`StabilityError`, with the step index when the physical field
    fails and none when a corrective field does."""
    tr, done = make_transform(inst), 0
    for step, count in _step_runs(inst.maturity, dt):
        for n in range(count):
            fill_halos_scalar(psi)
            courant = fill_halos_vector(build_courant(psi, tr, spec, -step))
            report = check_stability(courant, tr.nu, step, spec.dx)
            if not report.ok:
                raise StabilityError(report, step_index=done + n)
            psi = full_width_step(psi, courant, opts)[0]
        done += count
    return psi


def full_width_march(inst: InstrumentSpec, spec: GridSpec, dt: float, opts: SolverOptions) -> ScalarField:
    """``pricing.integrate`` as one :meth:`StepWorkspace.march` per run of
    equal steps on every column of the grid, where integrate narrows a
    put's workspace to the columns its payoff reaches."""
    tr, ws = make_transform(inst), StepWorkspace.holding(terminal_condition(inst, spec))
    for step, count in _step_runs(inst.maturity, dt):
        _write_courant_y(ws, tr, spec, -step)
        diffusion = diffusion_number(tr.nu, step, spec.dx)
        ws.march(count, opts, _courant_x_terms(tr, spec, -step), diffusion)
    return ws.psi


def last_live_column(psi: ScalarField) -> int:
    """The last column of psi's real cells that holds a nonzero bit, as the
    march tells live from +0.0: a NaN, an inf or a -0.0 counts; -1 if none."""
    return int(np.flatnonzero(psi.interior.view(np.uint64).any(axis=0)).max(initial=-1))


def call_forward_value(inst: InstrumentSpec, t: float, spot, average):
    """A call's exact value at time t where the running average has reached
    the strike: the average can only end above it, so the payoff is linear,
    e^{-r(T - t)} (A - K) + S (1 - e^{-r(T - t)}) / (r T), and S (T - t) / T
    in place of the last term at r = 0 (Geman & Yor 1993)."""
    left, r, maturity = inst.maturity - t, inst.rate, inst.maturity
    share = -math.expm1(-r * left) / (r * maturity) if r else left / maturity
    return math.exp(-r * left) * (average - inst.strike) + spot * share


def split_mpdata_step(
    psi: ScalarField, courant: VectorField, opts: SolverOptions, periodic: bool = False
) -> ScalarField:
    """Dimensionally split composition: a 1D x pass followed by a 1D y pass.

    Comparison baseline for the unsplit two-dimensional step; each pass runs
    the full iterative scheme with the transverse component zeroed, as
    :func:`periodic_mpdata_step` if ``periodic``.
    """
    step = periodic_mpdata_step if periodic else mpdata_step
    x_only = VectorField(courant.comp_x.copy(), np.zeros_like(courant.comp_y))
    y_only = VectorField(np.zeros_like(courant.comp_x), courant.comp_y.copy())
    return step(step(psi, x_only, opts), y_only, opts)


def observed_order(levels: list[ConvergenceLevel]) -> float:
    """Least-squares slope of log(error) against log(dx)."""
    log_dx = np.log([lvl.dx for lvl in levels])
    log_err = np.log([lvl.error for lvl in levels])
    return float(np.polyfit(log_dx, log_err, 1)[0])


def reference_normals(seed: int, first: int, n: int, m: int) -> np.ndarray:
    """numpy evaluation of the C ``normals`` of ``_step``: row i holds the m
    standard normals of numpy's Philox stream keyed by (seed, first + i)."""
    z = np.empty((n, m))
    for i in range(n):
        key = np.array([seed & 0xFFFFFFFFFFFFFFFF, first + i], dtype=np.uint64)
        z[i] = np.random.Generator(np.random.Philox(key=key)).standard_normal(m)
    return z


def reference_averages(insts: list[InstrumentSpec], cfg: McConfig, start: int, stop: int) -> np.ndarray:
    """numpy evaluation of the C ``averages`` of ``_step``: row k holds the
    trapezoid averages of paths [start, stop) of instrument k.  Each path's
    log-price is the running sum of ``z * vol + drift``, as ``np.cumsum`` adds
    it, and its average ``spot * ((0.5 + S[:-1].sum() + 0.5 * S[-1]) / m)``
    of ``S = exp(log-price)``, summed by numpy's add reduction."""
    m = cfg.n_steps
    z = reference_normals(cfg.seed, start, stop - start, m)
    out = np.empty((len(insts), stop - start))
    for inst, row in zip(insts, out):
        drift = (inst.rate - 0.5 * inst.sigma * inst.sigma) * (inst.maturity / m)
        rel = np.multiply(z, inst.sigma * math.sqrt(inst.maturity / m))
        rel += drift
        with np.errstate(over="ignore"):  # an overflowing path's average is inf
            rel = np.exp(np.cumsum(rel, axis=1, out=rel), out=rel)
            np.multiply(inst.spot, (0.5 + rel[:, :-1].sum(axis=1) + 0.5 * rel[:, -1]) / m, out=row)
    return out


def gbm_path(inst: InstrumentSpec, cfg: McConfig, path_index: int) -> np.ndarray:
    """Exact log-normal path: the M samples after the spot, S_1 .. S_M.

    Normals come from a counter-based stream keyed by (seed, path_index), so
    the path is reproducible bit for bit and independent of any other path.
    """
    z = reference_normals(cfg.seed, path_index, 1, cfg.n_steps)[0]
    d_tau = inst.maturity / cfg.n_steps
    log_steps = (inst.rate - 0.5 * inst.sigma**2) * d_tau + inst.sigma * math.sqrt(d_tau) * z
    return inst.spot * np.exp(np.cumsum(log_steps))
