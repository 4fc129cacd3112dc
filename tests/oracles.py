"""Direct, unoptimised evaluations of the scheme that the tests compare against.

The library runs the step and its halo fills as C loops on a padded layout
(:class:`asianpde.advection.StepWorkspace`); these functions evaluate the same
formulas face by face, path by path, pass by pass or slice by slice, so the
tests can check the library against them.  :func:`reference_normals` and
:func:`reference_walk` are the numpy draws and running sum that the C Monte
Carlo kernels must match bit for bit.
:func:`observed_order` fits the convergence order that the tests assert on
:func:`asianpde.benchmarks.convergence_study`.
"""

from __future__ import annotations

import math

import numpy as np

from asianpde._step import HALO
from asianpde.advection import DEFAULT_EPSILON, SolverOptions, StepWorkspace, _guard, mpdata_step
from asianpde.benchmarks import ConvergenceLevel
from asianpde.errors import ConfigurationError
from asianpde.grid import ScalarField, VectorField
from asianpde.pricing import InstrumentSpec
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
    ran, _, max_cx, max_cy = ws.march(1, opts, periodic=True)
    if not ran:
        _guard(max_cx, max_cy)
    return ws.psi.copy()


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


def reference_walk(z: np.ndarray, vol: float, drift: float) -> np.ndarray:
    """numpy evaluation of the C ``walk`` of ``_step``: the running sum of
    ``z * vol + drift`` along each row, as ``np.cumsum`` adds it."""
    rel = np.multiply(z, vol)
    rel += drift
    return np.cumsum(rel, axis=1, out=rel)


def reference_normals(seed: int, first: int, n: int, m: int) -> np.ndarray:
    """numpy evaluation of the C ``normals`` of ``_step``: row i holds the m
    standard normals of numpy's Philox stream keyed by (seed, first + i)."""
    z = np.empty((n, m))
    for i in range(n):
        key = np.array([seed & 0xFFFFFFFFFFFFFFFF, first + i], dtype=np.uint64)
        z[i] = np.random.Generator(np.random.Philox(key=key)).standard_normal(m)
    return z


def gbm_path(inst: InstrumentSpec, cfg: McConfig, path_index: int) -> np.ndarray:
    """Exact log-normal path: the M samples after the spot, S_1 .. S_M.

    Normals come from a counter-based stream keyed by (seed, path_index), so
    the path is reproducible bit for bit and independent of any other path.
    """
    z = reference_normals(cfg.seed, path_index, 1, cfg.n_steps)[0]
    d_tau = inst.maturity / cfg.n_steps
    log_steps = (inst.rate - 0.5 * inst.sigma**2) * d_tau + inst.sigma * math.sqrt(d_tau) * z
    return inst.spot * np.exp(np.cumsum(log_steps))
