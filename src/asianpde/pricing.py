"""Maps a fixed-strike Asian option onto the transport problem.

The augmented valuation PDE in (S, A) is rewritten in x = ln S, y = A with
the discounted price field Psi = exp(-r t) f.  Drift u = r - sigma^2 / 2 and
pseudo-diffusivity nu = -sigma^2 / 2 act in x; the running-sum coordinate is
advected at v = exp(x) / T.  The diffusion term enters as an advective flux
with the pseudo-velocity -nu (d_x Psi) / Psi, so a single transport operator
integrates the whole equation.

The terminal payoff is prescribed at t = T and marched backward to t = 0;
backward marching flips the sign of the Courant field, which is why
:func:`integrate` hands a negative time step to :func:`build_courant`.
"""

from __future__ import annotations

import itertools
import math
import sys
import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .advection import (
    SolverOptions,
    StepWorkspace,
    check_stability,
    mpdata_step,
    workspace_of,
)
from .errors import ConfigurationError, StabilityError
from .grid import GridSpec, ScalarField, VectorField, fill_halos_scalar, fill_halos_vector

KINDS = ("call", "put")


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
    half_var = 0.5 * inst.sigma**2
    return Transform(u=inst.rate - half_var, nu=-half_var, T=inst.maturity)


def grid_from_price_domain(s_min: float, s_max: float, a_max: float, nx: int, ny: int) -> GridSpec:
    """GridSpec over x in [ln s_min, ln s_max], y in [0, a_max]."""
    if not s_min > 0:
        raise ConfigurationError(f"s_min must be positive for the log transform, got {s_min}")
    return GridSpec(math.log(s_min), math.log(s_max), 0.0, a_max, nx, ny)


def build_courant(
    psi: ScalarField, tr: Transform, spec: GridSpec, dt: float
) -> VectorField:
    """Courant field {dt/dx (u - nu d_x Psi / Psi), dt/dy exp(x)/T} on the faces.

    The x component discretises the pseudo-velocity with the guarded psi
    ratio across each face; the y component uses exp(x) at the cell-centre x
    of the face's row (it is constant in y and t).  Psi halos must be filled.
    Halos of the result are left for the caller; ``dt`` carries the marching
    sign (negative for backward-in-time integration).  For a workspace psi
    the field is written into the workspace's physical Courant slot, and the
    y component is rebuilt only when ``dt``, ``tr`` or ``spec`` change.
    """
    ws = workspace_of(psi)
    plain = ws is None
    if plain:
        ws = StepWorkspace.holding(psi)
    out = ws.courant
    ws.fill_courant_x(tr.u, tr.nu * (2.0 / spec.dx), dt / spec.dx)
    if ws.courant_y_key != (dt, tr, spec):
        out.interior_y[:] = ((dt / spec.dy) * np.exp(spec.x_centres) / tr.T)[:, None]
        ws.courant_y_key = (dt, tr, spec)
    return out.copy() if plain else out


def terminal_condition(inst: InstrumentSpec, spec: GridSpec) -> ScalarField:
    """Discounted payoff at maturity, cell-averaged over each cell's y extent.

    The payoff depends on y only, so the average over [y_lo, y_hi] of the
    piecewise-linear ramp has the closed form (ramp(y_hi)^2 - ramp(y_lo)^2)
    / (2 dy) with ramp(z) = max(z, 0) (mirrored for puts).
    """
    if not (spec.y_min <= inst.strike <= spec.y_max):
        warnings.warn(
            f"strike {inst.strike} lies outside the averaging domain "
            f"[{spec.y_min}, {spec.y_max}]; the payoff kink is not resolved",
            stacklevel=2,
        )
    y_lo = spec.y_min + spec.dy * np.arange(spec.ny)
    y_hi = y_lo + spec.dy
    if inst.kind == "call":
        cell_avg = (_ramp_sq(y_hi - inst.strike) - _ramp_sq(y_lo - inst.strike)) / (2 * spec.dy)
    else:
        cell_avg = (_ramp_sq(inst.strike - y_lo) - _ramp_sq(inst.strike - y_hi)) / (2 * spec.dy)
    fld = ScalarField.zeros(spec)
    fld.interior[:] = math.exp(-inst.rate * inst.maturity) * cell_avg[None, :]
    return fld


def _ramp_sq(z: np.ndarray) -> np.ndarray:
    return np.square(np.maximum(z, 0.0))


def _step_sizes(maturity: float, dt: float) -> Iterator[float]:
    """Uniform steps of dt plus a fractional tail when T/dt is not integral.

    The steps sum to T within 1e-9 T: the tail is added when the remainder
    exceeds that, so T < dt gives one step of length T.  A step count above
    ``sys.maxsize`` raises :class:`ConfigurationError` before the first step.
    """
    n_steps = maturity / dt + 1e-12
    if not n_steps <= sys.maxsize:
        raise ConfigurationError(
            f"dt = {dt:g} gives {n_steps:.3g} time steps over T = {maturity:g}, more than {sys.maxsize}"
        )
    n_full = int(math.floor(n_steps))
    remainder = maturity - n_full * dt
    yield from itertools.repeat(dt, n_full)
    if remainder > 1e-9 * maturity:
        yield remainder


def integrate(
    inst: InstrumentSpec,
    spec: GridSpec,
    dt: float,
    opts: SolverOptions,
) -> ScalarField:
    """March the discounted payoff from t = T back to t = 0.

    The Courant field is rebuilt from the current field before every step
    (the pseudo-velocity is state-dependent) and checked against both
    stability criteria; a violation raises :class:`StabilityError` carrying
    the step index, before any field update at that step.  Halos are filled
    with the production fills of :mod:`asianpde.grid` (linear extrapolation
    for psi, constant extension for the Courant field).  Every field of the
    march lives in one :class:`StepWorkspace` created for this call.

    Since Psi = exp(-r t) f, the returned field at t = 0 is the price
    surface f itself.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigurationError(f"dt must be a positive finite number, got {dt}")
    tr = make_transform(inst)
    ws = StepWorkspace.holding(terminal_condition(inst, spec))
    psi = ws.psi
    for n, step in enumerate(_step_sizes(inst.maturity, dt)):
        fill_halos_scalar(psi)
        courant = build_courant(psi, tr, spec, -step)
        fill_halos_vector(courant)
        report = check_stability(courant, tr.nu, step, spec.dx)
        if not report.ok:
            raise StabilityError(report, step_index=n)
        psi = mpdata_step(psi, courant, opts)
    return psi.copy()


def row_values(psi_t0: ScalarField) -> np.ndarray:
    """Price per column at the A = 0 edge.

    The j = 0 and j = 1 cell-centre rows are linearly extrapolated to the
    y = 0 edge, which removes the O(dy) bias of reading the j = 0 row (at
    y = dy/2) as is.  Clipped at 0.
    """
    interior = psi_t0.interior
    return np.maximum(1.5 * interior[:, 0] - 0.5 * interior[:, 1], 0.0)


def readout(psi_t0: ScalarField, inst: InstrumentSpec, spec: GridSpec) -> float:
    """Interpolate the t = 0 field at x = ln(spot) along the A = 0 edge (see :func:`row_values`)."""
    x0 = math.log(inst.spot)
    tol = 1e-9 * spec.dx
    if not (spec.x_min + spec.dx / 2 - tol <= x0 <= spec.x_max - spec.dx / 2 + tol):
        raise ConfigurationError(
            f"spot {inst.spot} (x = {x0:.6g}) is outside the readout range "
            f"[{math.exp(spec.x_min + spec.dx / 2):.6g}, {math.exp(spec.x_max - spec.dx / 2):.6g}]"
        )
    vals = row_values(psi_t0)
    return float(max(np.interp(x0, spec.x_centres, vals), 0.0))


def price_instrument(inst: InstrumentSpec, spec: GridSpec, dt: float, opts: SolverOptions) -> float:
    """Full valuation: terminal condition, backward integration, spot readout."""
    return readout(integrate(inst, spec, dt, opts), inst, spec)
