"""MPDATA advection core.

One transport step consists of a donor-cell (UPWIND) pass with the physical
Courant field followed by corrective UPWIND passes with an analytically
derived antidiffusive Courant field that cancels the leading-order numerical
diffusion of the previous pass.  An optional flux-corrected-transport (FCT)
limiter keeps the corrective passes from creating new local extrema.

All operations assume the halos of their inputs have been filled;
:meth:`StepWorkspace.step` refills halos before every corrective pass so the
halo requirement stays independent of the iteration count.

Layout: every field of a step lives in one :class:`StepWorkspace`, a stack of
``(nx + 1 + 2h, ny + 1 + 2h)`` arrays with one row length ``R``, so cell or
face ``(a, b)`` of any field sits at flat offset ``a * R + b``.  The stencils
are C loops over that layout (``_step.c``, built on first use by
:mod:`asianpde._step`).  They write the real cells and faces only, and give
every one the same floating-point operations, in the same order, as a direct
evaluation of the formulas below, so results are bit-identical to one.

The workspace's methods run the kernels in place, and ``pricing.integrate``
marches one workspace through every step.  The public passes take plain
fields: each copies its inputs into a new workspace, runs there and returns
a copy, so its inputs are never changed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._step import library
from .errors import ConfigurationError, StabilityError
from .grid import ScalarField, VectorField, fill_halos_scalar, fill_halos_vector

_COURANT_TOL = 1e-12  # |C| = 1 exactly (unit-Courant translation) must pass

DEFAULT_EPSILON = 1e-15


@dataclass(frozen=True)
class SolverOptions:
    """Transport-step settings; n_iters=1 is pure UPWIND."""

    n_iters: int = 2
    nonoscillatory: bool = True

    def __post_init__(self):
        if self.n_iters < 1:
            raise ConfigurationError(f"n_iters must be >= 1, got {self.n_iters}")


@dataclass(frozen=True)
class StabilityReport:
    ok: bool
    max_abs_courant_x: float
    max_abs_courant_y: float
    diffusion_number: float
    violations: tuple[str, ...] = ()


def check_stability(courant: VectorField, nu: float, dt: float, dx: float) -> StabilityReport:
    """Check the advective (|C| <= 1) and diffusive (2|nu| dt / dx^2 <= 1/2) criteria."""
    max_abs = library().max_abs  # NaN if any interior face is NaN; only reads
    max_cx, max_cy = max_abs(*courant.c_comp_x), max_abs(*courant.c_comp_y)
    diffusion = 2.0 * abs(nu) * abs(dt) / dx**2
    violations = []
    # written as "not <=" so that a NaN, which compares False, is a violation
    if not max_cx <= 1.0 + _COURANT_TOL:
        violations.append(f"advective criterion violated in x: max |C_x| = {max_cx:.6g} > 1")
    if not max_cy <= 1.0 + _COURANT_TOL:
        violations.append(f"advective criterion violated in y: max |C_y| = {max_cy:.6g} > 1")
    if not diffusion <= 0.5 + _COURANT_TOL:
        violations.append(
            f"diffusive criterion violated: 2|nu| dt / dx^2 = {diffusion:.6g} > 1/2"
        )
    return StabilityReport(
        ok=not violations,
        max_abs_courant_x=max_cx,
        max_abs_courant_y=max_cy,
        diffusion_number=diffusion,
        violations=tuple(violations),
    )


def _guard(courant: VectorField) -> None:
    """Raise :class:`StabilityError` when any interior |C| exceeds 1."""
    report = check_stability(courant, 0.0, 0.0, 1.0)
    if not report.ok:
        raise StabilityError(report)


# ---------------------------------------------------------------------------
# padded layout
# ---------------------------------------------------------------------------

class StepWorkspace:
    """Padded storage for every field of a transport step on one grid, and
    the kernel calls that run on it.

    ``psi`` is the scalar, ``courant`` the physical Courant field and
    ``corrective`` two slots that the antidiffusive field and the limiter
    alternate between; each is a plain field viewing one stack of arrays.
    The methods update these fields in place and trust their caller: psi's
    halo is filled and ``courant`` is filled and checked before
    :meth:`step`, as ``integrate`` and :func:`mpdata_step` do.  One
    workspace serves one caller at a time.
    """

    def __init__(self, nx: int, ny: int, halo: int):
        if int(halo) != halo or halo < 2:  # the kernels read two cells deep
            raise ConfigurationError(f"halo width must be an integer >= 2, got {halo}")
        h = int(halo)
        rows, row = nx + 1 + 2 * h, ny + 1 + 2 * h
        self.fields = fields = np.zeros((7, rows, row))
        self.psi = ScalarField(fields[0, :nx + 2 * h, :ny + 2 * h], h)
        self.courant, *self.corrective = (
            VectorField(fields[s, :, :ny + 2 * h], fields[s + 1, :nx + 2 * h, :], h) for s in (1, 3, 5)
        )
        self.scratch = np.zeros((2, rows * row))
        self.scratch_ptrs = (self.scratch[0].ctypes.data, self.scratch[1].ctypes.data)

    @classmethod
    def holding(cls, psi: ScalarField, courant: VectorField | None = None) -> "StepWorkspace":
        """A new workspace holding copies of ``psi`` and, if given, ``courant``."""
        ws = cls(psi.nx, psi.ny, psi.halo)
        ws.psi.values[...] = psi.values
        if courant is not None:
            ws.courant.comp_x[...] = courant.comp_x
            ws.courant.comp_y[...] = courant.comp_y
        return ws

    def fill_courant_x(self, u: float, coef: float, scale: float) -> None:
        """Write C_x = (u - coef A) scale on the real x faces of ``courant``,
        with A the guarded ratio (psi[k] - psi[k - R]) / (psi[k] + psi[k - R])
        of the two cells each face separates."""
        library().courant_x(*self.psi.c_values, self.courant.c_comp_x[0], u, coef, scale, DEFAULT_EPSILON)

    def upwind(self, courant: VectorField) -> None:
        """Donor-cell update of the interior of ``psi`` in place."""
        library().upwind(*self.psi.c_values, courant.c_comp_x[0], courant.c_comp_y[0], *self.scratch_ptrs)

    def antidiffusive(self, courant: VectorField, out: VectorField) -> VectorField:
        """Antidiffusive Courant numbers of ``courant`` into ``out`` on the real faces."""
        library().antidiffusive(
            *self.psi.c_values, courant.c_comp_x[0], courant.c_comp_y[0], out.c_comp_x[0], out.c_comp_y[0],
            DEFAULT_EPSILON,
        )
        return out

    def limit(self, courant: VectorField, out: VectorField) -> VectorField:
        """FCT-limited copy of corrective field ``courant`` into ``out`` on the real faces."""
        library().limit(
            *self.psi.c_values, courant.c_comp_x[0], courant.c_comp_y[0], out.c_comp_x[0], out.c_comp_y[0],
            *self.scratch_ptrs, DEFAULT_EPSILON,
        )
        return out

    def step(self, opts: SolverOptions, boundary=None) -> None:
        """One transport step of ``psi`` in place: UPWIND with ``courant``,
        then ``n_iters - 1`` corrective passes, each on refilled halos and
        checked against |C| <= 1.  ``boundary`` is as in :func:`mpdata_step`."""
        fill_scalar, fill_vector = boundary or (fill_halos_scalar, fill_halos_vector)
        first, second = self.corrective
        self.upwind(self.courant)
        current = self.courant
        for _ in range(opts.n_iters - 1):
            fill_scalar(self.psi)
            # a kernel never writes the slot it reads
            corrective = self.antidiffusive(current, second if current is first else first)
            fill_vector(corrective)
            if opts.nonoscillatory:
                corrective = self.limit(corrective, second if corrective is first else first)
                fill_vector(corrective)
            _guard(corrective)
            self.upwind(corrective)
            current = corrective


# ---------------------------------------------------------------------------
# passes: plain fields in, a new field out, the inputs left as they are
# ---------------------------------------------------------------------------

def upwind_step(psi: ScalarField, courant: VectorField) -> ScalarField:
    """One donor-cell pass updating the interior.

    The halo of ``psi`` must be filled; of ``courant`` only the interior
    faces are read.  Raises :class:`StabilityError` when any interior |C|
    exceeds 1.
    """
    _guard(courant)
    ws = StepWorkspace.holding(psi, courant)
    ws.upwind(ws.courant)
    return ws.psi.copy()


def antidiffusive_courant(psi: ScalarField, courant: VectorField) -> VectorField:
    """Antidiffusive Courant field from the modified-equation analysis.

    Per face of dimension d: |C| (1 - |C|) A - sum_{q != d} C Cbar_q B, with
    A and B the guarded psi ratios and Cbar the four-face transverse mean.
    Computed on the faces bounding the interior; halos of the result are left
    for the caller to fill.
    """
    ws = StepWorkspace.holding(psi, courant)
    return ws.antidiffusive(ws.courant, ws.corrective[0]).copy()


def nonoscillatory_limit(psi_before: ScalarField, courant_corrective: VectorField) -> VectorField:
    """Scale corrective Courant numbers by FCT ratios.

    Guarantees that the subsequent UPWIND pass keeps every cell within the
    min/max of its face-neighbour stencil in ``psi_before`` (a subset of the
    3x3 neighbourhood).  Halos of both inputs must be filled; halos of the
    result are left for the caller.
    """
    ws = StepWorkspace.holding(psi_before, courant_corrective)
    return ws.limit(ws.courant, ws.corrective[0]).copy()


def mpdata_step(
    psi: ScalarField,
    courant: VectorField,
    opts: SolverOptions,
    boundary=None,
) -> ScalarField:
    """One full transport step: UPWIND plus ``n_iters - 1`` corrective passes.

    The inputs are copied into a new workspace, whose halos are filled and
    refilled before every corrective pass, and every Courant field is checked
    against |C| <= 1.  ``boundary`` is an optional ``(fill_scalar,
    fill_vector)`` pair; the production extrapolation / constant-extension
    fills are used by default.  With ``n_iters=1`` the result is
    bit-identical to :func:`upwind_step` on a filled field.
    """
    fill_scalar, fill_vector = boundary or (fill_halos_scalar, fill_halos_vector)
    ws = StepWorkspace.holding(psi, courant)
    fill_vector(ws.courant)
    fill_scalar(ws.psi)
    _guard(ws.courant)
    ws.step(opts, boundary)
    return ws.psi.copy()
