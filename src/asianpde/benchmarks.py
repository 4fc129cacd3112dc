"""Solid-body-translation benchmarks for the transport core.

A periodised Gaussian pulse is advected around the unit torus by a constant
Courant field and compared against the exactly translated profile.  Used by
the convergence CLI command and by the scheme-property tests.

The translation is one ``StepWorkspace.march(periodic=True)``, whose halo
fills wrap on the torus (``wrap`` in ``_step.c``) and which raises its own
:class:`~asianpde.errors.StabilityError`; valuations always use the
production extrapolation and constant-extension fills of :mod:`asianpde.grid`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .advection import SolverOptions, StepWorkspace
from .errors import ConfigurationError
from .grid import GridSpec, ScalarField, VectorField
from .pricing import MAX_CELL_STEPS

DEFAULT_COURANT = (0.35, 0.35)
DEFAULT_WIDTH = 0.1
DEFAULT_CENTRE = (0.5, 0.5)


def unit_square(n: int) -> GridSpec:
    return GridSpec(0.0, 1.0, 0.0, 1.0, n, n)


def gaussian_values(spec: GridSpec, centre, width: float) -> np.ndarray:
    """Periodised Gaussian (sum over the nearest images), smooth on the torus."""
    out = np.zeros((spec.nx, spec.ny))
    for mx in (-1.0, 0.0, 1.0):
        x = spec.x_centres[:, None] - centre[0] - mx
        for my in (-1.0, 0.0, 1.0):
            y = spec.y_centres[None, :] - centre[1] - my
            out += np.exp(-(x**2 + y**2) / (2.0 * width**2))
    return out


def gaussian_field(spec: GridSpec, width: float = DEFAULT_WIDTH) -> ScalarField:
    """The pulse of :func:`gaussian_values` centred at ``DEFAULT_CENTRE``."""
    fld = ScalarField.zeros(spec)
    fld.interior[:] = gaussian_values(spec, DEFAULT_CENTRE, width)
    return fld


def constant_courant(spec: GridSpec, cx: float, cy: float) -> VectorField:
    fld = VectorField.zeros(spec)
    fld.comp_x[:] = cx
    fld.comp_y[:] = cy
    return fld


def l2_error(numeric: np.ndarray, exact: np.ndarray, spec: GridSpec) -> float:
    return float(np.sqrt(np.sum((numeric - exact) ** 2) * spec.dx * spec.dy))


def translation_steps(n: int, courant=DEFAULT_COURANT, displacement: float = 0.25) -> int:
    """The step count of :func:`run_translation` on ``n x n`` cells."""
    c_lead = max(abs(courant[0]), abs(courant[1]))
    return max(1, round(displacement * n / c_lead)) if c_lead > 0 else 1


@dataclass(frozen=True)
class ConvergenceLevel:
    n: int
    dx: float
    error: float
    order: float | None  # pairwise estimate vs the previous level


def run_translation(
    n: int,
    opts: SolverOptions,
    courant=DEFAULT_COURANT,
    width: float = DEFAULT_WIDTH,
    displacement: float = 0.25,
) -> ConvergenceLevel:
    """Advect a Gaussian by ~``displacement`` at fixed Courant number.

    The step count scales with resolution so the Courant number stays fixed
    across refinement levels; the analytic solution is the initial profile
    shifted by the exact accumulated displacement.  The steps are one
    periodic march; a Courant number over 1 raises :class:`StabilityError`
    at step 0.  Returns the level's error, with no order.
    """
    spec = unit_square(n)
    n_steps = translation_steps(n, courant, displacement)
    ws = StepWorkspace.holding(gaussian_field(spec, width=width), constant_courant(spec, *courant))
    ws.march(n_steps, opts, periodic=True)
    centre = (
        (DEFAULT_CENTRE[0] + n_steps * courant[0] * spec.dx) % 1.0,
        (DEFAULT_CENTRE[1] + n_steps * courant[1] * spec.dy) % 1.0,
    )
    exact = gaussian_values(spec, centre, width)
    return ConvergenceLevel(n, spec.dx, l2_error(ws.psi.interior, exact, spec), None)


def convergence_study(base_n: int, levels: int, opts: SolverOptions) -> list[ConvergenceLevel]:
    """Translation errors at ``levels`` successively doubled resolutions.

    More than ``pricing.MAX_CELL_STEPS`` cell-steps over all the levels raise
    :class:`ConfigurationError` before the first level runs.
    """
    cell_steps = 0
    for lvl in range(levels):  # stops early: a level costs 8x the last
        spec = unit_square(base_n * 2**lvl)  # refuses fewer than 3 cells, which cost nothing
        cell_steps += spec.nx * spec.ny * translation_steps(spec.nx)
        if cell_steps > MAX_CELL_STEPS:
            raise ConfigurationError(
                f"{levels} levels from n = {base_n} need more than {MAX_CELL_STEPS:.0e} cell-steps"
            )
    out: list[ConvergenceLevel] = []
    for lvl in range(levels):
        res = run_translation(base_n * 2**lvl, opts)
        if out and res.error > 0 and out[-1].error > 0:
            res = replace(res, order=float(np.log2(out[-1].error / res.error)))
        out.append(res)
    return out

