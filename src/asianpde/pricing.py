"""Maps a fixed-strike Asian option onto the transport problem.

The augmented valuation PDE in (S, A) is rewritten in x = ln S, y = A with
the discounted price field Psi = exp(-r t) f.  Drift u = r - sigma^2 / 2 and
pseudo-diffusivity nu = -sigma^2 / 2 act in x; the running-sum coordinate is
advected at v = exp(x) / T.  The diffusion term enters as an advective flux
with the pseudo-velocity -nu (d_x Psi) / Psi, so a single transport operator
integrates the whole equation.

The terminal payoff is prescribed at t = T and marched backward to t = 0;
backward marching flips the sign of the Courant field, which is why
:func:`integrate` writes it with a negative time step.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from ._step import HALO, MAXIMA, library
from .advection import DEFAULT_EPSILON, ROW_BUFFERS, SolverOptions, StepWorkspace, diffusion_number
from .advection import check_stability, mpdata_step  # noqa: F401 -- perfbench/tracing.py wraps both here
from .errors import ConfigurationError, StabilityError
from .grid import GridSpec, ScalarField, VectorField
from .grid import fill_halos_scalar, fill_halos_vector  # noqa: F401 -- perfbench/tracing.py wraps both here

KINDS = ("call", "put")
MAX_CELL_STEPS = 1e11  # time steps x cells of one march: ~29 min of 2-iteration steps at 5.8e7/s
# the cells that pay for one more thread of a march: below about this many a
# thread's share of a step costs less than the barriers between its passes
CELLS_PER_THREAD = 2048


@dataclass(frozen=True)
class InstrumentSpec:
    """Fixed-strike Asian option contract."""

    kind: str
    strike: float
    maturity: float  # years
    sigma: float  # volatility per sqrt(year)
    rate: float  # risk-free rate per year
    spot: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not self.strike > 0:
            raise ConfigurationError(f"strike must be positive, got {self.strike}")
        if not self.maturity > 0:
            raise ConfigurationError(f"maturity must be positive, got {self.maturity}")
        if self.sigma < 0:
            raise ConfigurationError(f"sigma must be non-negative, got {self.sigma}")
        if not self.spot > 0:
            raise ConfigurationError(f"spot must be positive, got {self.spot}")
        for name in ("strike", "maturity", "sigma", "rate", "spot"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)}")
        # the discount factor for a negative rate, the growth of the paths for a positive one
        factor = "discount factor exp(-rate * maturity)" if self.rate < 0 else "growth factor exp(rate * maturity)"
        try:
            largest = math.exp(abs(self.rate) * self.maturity)
        except OverflowError:
            largest = math.inf
        if not math.isfinite(largest):
            raise ConfigurationError(
                f"the {factor} overflows at rate = {self.rate:g}, maturity = {self.maturity:g}"
            )


@dataclass(frozen=True)
class Transform:
    """Coefficients of the transformed transport equation."""

    u: float  # drift in x, r - sigma^2 / 2
    nu: float  # -sigma^2 / 2 (non-positive)
    T: float  # maturity, normalises the running sum

    def __post_init__(self):
        if self.nu > 0:
            raise ConfigurationError(f"nu must be <= 0, got {self.nu}")


def make_transform(inst: InstrumentSpec) -> Transform:
    half_var = 0.5 * inst.sigma * inst.sigma
    return Transform(u=inst.rate - half_var, nu=-half_var, T=inst.maturity)


def grid_from_price_domain(s_min: float, s_max: float, a_max: float, nx: int, ny: int) -> GridSpec:
    """GridSpec over x in [ln s_min, ln s_max], y in [0, a_max]."""
    if not s_min > 0:
        raise ConfigurationError(f"s_min must be positive for the log transform, got {s_min}")
    if not s_min < s_max:
        raise ConfigurationError(f"the price domain needs smin < smax, got smin = {s_min:g}, smax = {s_max:g}")
    return GridSpec(math.log(s_min), math.log(s_max), 0.0, a_max, nx, ny)


def build_courant(
    psi: ScalarField, tr: Transform, spec: GridSpec, dt: float
) -> VectorField:
    """Courant field {dt/dx (u - nu d_x Psi / Psi), dt/dy exp(x)/T} on the faces.

    The x component discretises the pseudo-velocity with the guarded psi
    ratio across each face; the y component uses exp(x) at the cell-centre x
    of the face's row (it is constant in y and t).  Psi halos must be filled.
    Halos of the result are left for the caller; ``dt`` carries the marching
    sign (negative for backward-in-time integration).  ``psi`` is left as it
    is and a new field is returned.  C_x is built in the march's upwind
    sweep, whose pass is dropped: :class:`MemoryError` if it lacks row buffers.
    """
    ws = StepWorkspace.holding(psi)
    faces = (ws.courant.c_comp_x[0], ws.courant.c_comp_y[0], ws.spare.c_values[0])
    if library().upwind(*ws.psi.c_values, *faces, 1, *_courant_x_terms(tr, spec, dt), DEFAULT_EPSILON, MAXIMA()):
        raise MemoryError(ROW_BUFFERS)
    _write_courant_y(ws, tr, spec, dt)
    return ws.courant.copy()


def _courant_x_terms(tr: Transform, spec: GridSpec, dt: float) -> tuple[float, float, float]:
    """``(u, coef, scale)`` of C_x = (u - coef A) scale, see :meth:`StepWorkspace.march`."""
    return tr.u, tr.nu * (2.0 / spec.dx), dt / spec.dx


def _write_courant_y(ws: StepWorkspace, tr: Transform, spec: GridSpec, dt: float) -> None:
    """Write the constant C_y into the real y faces of ``ws.courant``."""
    ws.courant.interior_y[:] = ((dt / spec.dy) * np.exp(spec.x_centres) / tr.T)[:, None]


def terminal_condition(inst: InstrumentSpec, spec: GridSpec) -> ScalarField:
    """Discounted payoff at maturity, cell-averaged over each cell's y extent.

    The payoff depends on y only, so the average over [y_lo, y_hi] of the
    piecewise-linear ramp has the closed form (ramp(y_hi)^2 - ramp(y_lo)^2)
    / (2 dy) with ramp(z) = max(z, 0) (mirrored for puts).  Raises
    :class:`ConfigurationError` for an instrument the grid cannot resolve: a
    strike outside the A domain, whose payoff kink would lie off the grid; a
    domain so wide that a squared ramp would overflow; and, after that, a
    strike and spot inside the edge cells (:func:`check_edge_cells`).
    """
    if not spec.y_min <= inst.strike <= spec.y_max:
        where = f"below the A domain, which starts at {spec.y_min:g}"
        if inst.strike > spec.y_max:
            where = f"above amax = {spec.y_max:g}; raise --amax above the strike"
        raise ConfigurationError(f"strike {inst.strike:g} lies {where}")
    y_lo = spec.y_min + spec.dy * np.arange(spec.ny)
    y_hi = y_lo + spec.dy
    # the largest ramp that _ramp_sq squares below, as the same double, squared
    # in Python, which warns of nothing (np.errstate and np.isfinite would add
    # about 0.2 MB of peak RSS to every valuation)
    widest = max(float(y_hi[-1] - inst.strike if inst.kind == "call" else inst.strike - y_lo[0]), 0.0)
    if math.isinf(widest * widest):
        raise ConfigurationError(f"amax = {spec.y_max:g} overflows the cell-averaged payoff; lower amax")
    check_edge_cells(inst, spec)
    if inst.kind == "call":
        cell_avg = (_ramp_sq(y_hi - inst.strike) - _ramp_sq(y_lo - inst.strike)) / (2 * spec.dy)
    else:
        cell_avg = (_ramp_sq(inst.strike - y_lo) - _ramp_sq(inst.strike - y_hi)) / (2 * spec.dy)
    fld = ScalarField.zeros(spec)
    fld.interior[:] = math.exp(-inst.rate * inst.maturity) * cell_avg[None, :]
    return fld


def _ramp_sq(z: np.ndarray) -> np.ndarray:
    return np.square(np.maximum(z, 0.0))


def _step_runs(maturity: float, dt: float) -> list[tuple[float, int]]:
    """``(length, count)`` runs of the steps: uniform steps of dt plus a
    fractional tail when T/dt is not integral.

    The steps sum to T within 1e-9 T: the tail is added when the remainder
    exceeds that, so T < dt gives one step of length T.
    """
    n_full = int(math.floor(maturity / dt + 1e-12))
    remainder = maturity - n_full * dt
    runs = [(dt, n_full)] if n_full else []
    if remainder > 1e-9 * maturity:
        runs.append((remainder, 1))
    return runs


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def march_threads(nx: int, ny: int) -> int:
    """The threads of a march on ``nx x ny`` cells: one per
    ``CELLS_PER_THREAD`` cells, at most ``usable_cpus()``, at least 1."""
    return max(1, min(usable_cpus(), nx * ny // CELLS_PER_THREAD))


def integrate(
    inst: InstrumentSpec,
    spec: GridSpec,
    dt: float,
    opts: SolverOptions,
    threads: int | None = None,
) -> ScalarField:
    """March the discounted payoff from t = T back to t = 0.

    Every field of the march lives in one :class:`StepWorkspace` made for
    this call, and each run of equal steps (the full steps, then a
    fractional tail) is one :meth:`StepWorkspace.march` with the
    :mod:`asianpde.grid` fills, in C calls that a Ctrl-C can stop between.
    A pass carries a live column at most a column up, so the workspace ends
    ``n_iters`` columns past the payoff's last live one (a bit test: a NaN,
    an inf or a -0.0 counts), which narrows a put's; if the narrow field's
    top column goes live, the payoff is marched again on every column.  C_y
    is written once per run; before each step C_x is rewritten from the
    current field (the pseudo-velocity is state-dependent) and both
    criteria are checked.  The march raises :class:`StabilityError` on a
    violation, before any field update at that step, with the step index; a
    corrective field over |C| = 1 raises it without one.  Over
    ``MAX_CELL_STEPS`` cell-steps, and an instrument that
    :func:`terminal_condition` refuses, raise :class:`ConfigurationError`
    before the march.
    The march runs on ``threads`` threads, by default
    :func:`march_threads` of the workspace: one per ``CELLS_PER_THREAD``
    cells, at most the usable CPUs.  The result has the same bytes on any
    number and any width: +0.0 pads a narrow field to the full grid.

    Since Psi = exp(-r t) f, the returned field at t = 0 is the price
    surface f itself; it owns its memory.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigurationError(f"dt must be a positive finite number, got {dt}")
    n_steps = inst.maturity / dt
    if not n_steps * spec.nx * spec.ny <= MAX_CELL_STEPS:
        raise ConfigurationError(
            f"dt = {dt:g} gives {n_steps:.3g} time steps over T = {inst.maturity:g} on "
            f"{spec.nx}x{spec.ny} cells, more than {MAX_CELL_STEPS:.0e} cell-steps"
        )
    tr, payoff = make_transform(inst), terminal_condition(inst, spec)
    live = payoff.interior.view(np.uint64).any(axis=0).nonzero()[0]
    for width in (min(spec.ny, live.max(initial=0) + 1 + opts.n_iters), spec.ny):
        ws = StepWorkspace.holding(ScalarField(payoff.values[:, :width + 2 * HALO]))
        n = march_threads(spec.nx, width) if threads is None else threads
        try:
            for step, count in _step_runs(inst.maturity, dt):
                _write_courant_y(ws, tr, spec, -step)
                diffusion = diffusion_number(tr.nu, step, spec.dx)
                ws.march(count, opts, _courant_x_terms(tr, spec, -step), diffusion, threads=n)
        except StabilityError:
            if not _outgrown(ws, spec):
                raise
        if not _outgrown(ws, spec):
            break
    psi = ScalarField.zeros(spec)
    psi.values[:, :width + 2 * HALO] = ws.psi.values
    return psi


def _outgrown(ws: StepWorkspace, spec: GridSpec) -> bool:
    """Whether a narrow march's top column holds a nonzero bit, where a full-width march may differ."""
    return ws.psi.ny < spec.ny and bool(ws.psi.interior[:, -1].view(np.uint64).any())


def check_edge_cells(inst: InstrumentSpec, spec: GridSpec) -> None:
    """Raise :class:`ConfigurationError` when the strike and the spot both
    lie inside the two A cells that :func:`row_values` extrapolates the
    A = 0 edge from.  The path averages then stay inside those cells too,
    which the march cannot resolve: at amax 1e20 a call reads 0.  A strike
    alone inside them is read well, since a call's field is linear in A
    above its strike.  :func:`terminal_condition` checks this before any
    march and :func:`readout` again on the field it is given."""
    edge = spec.y_min + 2.0 * spec.dy
    if max(inst.strike, inst.spot) < edge:
        raise ConfigurationError(
            f"strike {inst.strike:g} and spot {inst.spot:g} lie inside the first two A cells, below "
            f"{edge:.6g}, from which the price at A = 0 is extrapolated (amax = {spec.y_max:g}, "
            f"ny = {spec.ny}); lower amax or raise ny"
        )


def row_values(psi_t0: ScalarField) -> np.ndarray:
    """Price per column at the A = 0 edge.

    The j = 0 and j = 1 cell-centre rows are linearly extrapolated to the
    y = 0 edge, which removes the O(dy) bias of reading the j = 0 row (at
    y = dy/2) as is.  Clipped at 0; see :func:`check_edge_cells`.
    """
    interior = psi_t0.interior
    return np.maximum(1.5 * interior[:, 0] - 0.5 * interior[:, 1], 0.0)


def readout(psi_t0: ScalarField, inst: InstrumentSpec, spec: GridSpec) -> float:
    """Interpolate the t = 0 field at x = ln(spot) along the A = 0 edge (see :func:`row_values`).

    Raises :class:`ConfigurationError` when the spot lies outside the cell
    centres or the strike and spot inside the edge cells
    (:func:`check_edge_cells`, which this checks again since it may be given
    any field).
    """
    check_edge_cells(inst, spec)
    x0 = math.log(inst.spot)
    tol = 1e-9 * spec.dx
    if not (spec.x_min + spec.dx / 2 - tol <= x0 <= spec.x_max - spec.dx / 2 + tol):
        raise ConfigurationError(
            f"spot {inst.spot} (x = {x0:.6g}) is outside the readout range "
            f"[{math.exp(spec.x_min + spec.dx / 2):.6g}, {math.exp(spec.x_max - spec.dx / 2):.6g}]"
        )
    vals = row_values(psi_t0)
    return float(max(np.interp(x0, spec.x_centres, vals), 0.0))
