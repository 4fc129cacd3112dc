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

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .advection import (
    DEFAULT_EPSILON,
    SolverOptions,
    StepWorkspace,
    check_stability,
    mpdata_step,
    workspace_of,
)
from .errors import ConfigurationError, StabilityError
from .grid import (
    DEFAULT_HALO,
    GridSpec,
    ScalarField,
    VectorField,
    fill_halos_scalar,
    fill_halos_vector,
)

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


def grid_from_price_domain(
    s_min: float, s_max: float, a_max: float, nx: int, ny: int, a_min: float = 0.0
) -> GridSpec:
    """GridSpec over x in [ln s_min, ln s_max], y in [a_min, a_max]."""
    if not s_min > 0:
        raise ConfigurationError(f"s_min must be positive for the log transform, got {s_min}")
    return GridSpec(math.log(s_min), math.log(s_max), a_min, a_max, nx, ny)


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
    ratio, cx = ws.x_face_ratio(DEFAULT_EPSILON)
    ratio *= tr.nu * (2.0 / spec.dx)
    np.subtract(tr.u, ratio, out=cx)
    cx *= dt / spec.dx
    if ws.courant_y_key != (dt, tr, spec):
        out.interior_y[:] = ((dt / spec.dy) * np.exp(spec.x_centres) / tr.T)[:, None]
        ws.courant_y_key = (dt, tr, spec)
    return out.detached() if plain else out


def terminal_condition(
    inst: InstrumentSpec, spec: GridSpec, halo: int = DEFAULT_HALO
) -> ScalarField:
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
    fld = ScalarField.zeros(spec, halo)
    fld.interior[:] = math.exp(-inst.rate * inst.maturity) * cell_avg[None, :]
    return fld


def _ramp_sq(z: np.ndarray) -> np.ndarray:
    return np.square(np.maximum(z, 0.0))


def _step_sizes(maturity: float, dt: float) -> list[float]:
    """Uniform steps of dt plus a fractional tail when T/dt is not integral.

    round(T/dt) == 0 (T < dt/2) yields no steps; otherwise the tail step is
    added only when the remainder exceeds 1e-9 T.
    """
    if round(maturity / dt) == 0:
        return []
    n_full = int(math.floor(maturity / dt + 1e-12))
    remainder = maturity - n_full * dt
    steps = [dt] * n_full
    if remainder > 1e-9 * maturity:
        steps.append(remainder)
    return steps


def integrate(
    inst: InstrumentSpec,
    spec: GridSpec,
    dt: float,
    opts: SolverOptions,
    halo: int = DEFAULT_HALO,
    boundary=None,
) -> ScalarField:
    """March the discounted payoff from t = T back to t = 0.

    The Courant field is rebuilt from the current field before every step
    (the pseudo-velocity is state-dependent) and checked against both
    stability criteria; a violation raises :class:`StabilityError` carrying
    the step index, before any field update at that step.  Every field of
    the march lives in one :class:`StepWorkspace` created for this call.

    Since Psi = exp(-r t) f, the returned field at t = 0 is the price
    surface f itself.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigurationError(f"dt must be a positive finite number, got {dt}")
    fill_scalar, fill_vector = boundary or (fill_halos_scalar, fill_halos_vector)
    tr = make_transform(inst)
    ws = StepWorkspace.holding(terminal_condition(inst, spec, halo))
    psi = ws.psi
    for n, step in enumerate(_step_sizes(inst.maturity, dt)):
        fill_scalar(psi)
        courant = build_courant(psi, tr, spec, -step)
        fill_vector(courant)
        report = check_stability(courant, tr.nu, step, spec.dx)
        if not report.ok:
            raise StabilityError(report, step_index=n)
        psi = mpdata_step(psi, courant, opts, boundary=(fill_scalar, fill_vector))
    return psi.detached()


def row_values(psi_t0: ScalarField, at_edge: bool = True) -> np.ndarray:
    """Price-per-column along the row nearest A = 0.

    With ``at_edge`` the j = 0 and j = 1 cell-centre rows are linearly
    extrapolated to the y = 0 edge (removing the O(dy) readout bias);
    otherwise the j = 0 row (at y = dy/2) is returned as is.  Clipped at 0.
    """
    interior = psi_t0.interior
    if at_edge:
        vals = 1.5 * interior[:, 0] - 0.5 * interior[:, 1]
    else:
        vals = interior[:, 0].copy()
    return np.maximum(vals, 0.0)


def readout(
    psi_t0: ScalarField, inst: InstrumentSpec, spec: GridSpec, at_edge: bool = True
) -> float:
    """Interpolate the t = 0 field at x = ln(spot) along the row nearest A = 0."""
    x0 = math.log(inst.spot)
    tol = 1e-9 * spec.dx
    if not (spec.x_min + spec.dx / 2 - tol <= x0 <= spec.x_max - spec.dx / 2 + tol):
        raise ConfigurationError(
            f"spot {inst.spot} (x = {x0:.6g}) is outside the readout range "
            f"[{math.exp(spec.x_min + spec.dx / 2):.6g}, {math.exp(spec.x_max - spec.dx / 2):.6g}]"
        )
    vals = row_values(psi_t0, at_edge=at_edge)
    return float(max(np.interp(x0, spec.x_centres, vals), 0.0))


def price_instrument(
    inst: InstrumentSpec,
    spec: GridSpec,
    dt: float,
    opts: SolverOptions,
    at_edge: bool = True,
) -> float:
    """Full valuation: terminal condition, backward integration, spot readout."""
    psi = integrate(inst, spec, dt, opts)
    return readout(psi, inst, spec, at_edge=at_edge)
