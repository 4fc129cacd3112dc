"""MPDATA advection core.

One transport step consists of a donor-cell (UPWIND) pass with the physical
Courant field followed by corrective UPWIND passes with an analytically
derived antidiffusive Courant field that cancels the leading-order numerical
diffusion of the previous pass.  An optional flux-corrected-transport (FCT)
limiter keeps the corrective passes from creating new local extrema.

All operations assume the halos of their inputs have been filled; the step
orchestrator refills halos before every corrective pass so the halo
requirement stays independent of the iteration count.

Layout: every field of a step lives in one :class:`StepWorkspace`, a stack of
``(nx + 1 + 2h, ny + 1 + 2h)`` arrays with one row length ``R``, so cell or
face ``(a, b)`` of any field sits at flat offset ``a * R + b``.  The stencils
are C loops over that layout (``_step.c``, built on first use by
:mod:`asianpde._step`).  They write the real cells and faces only, and give
every one the same floating-point operations, in the same order, as a direct
evaluation of the formulas below, so results are bit-identical to one.
"""

from __future__ import annotations

import weakref
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

class WorkspaceScalar(ScalarField):
    """A scalar whose values are a view into a :class:`StepWorkspace`."""

    def __init__(self, values: np.ndarray, halo: int, workspace: "StepWorkspace"):
        super().__init__(values, halo)
        # weak: the workspace holds its fields, and a reference cycle would keep
        # every finished workspace alive until the cyclic garbage collector runs
        self.workspace = weakref.ref(workspace)


class WorkspaceVector(VectorField):
    """A face field whose components are views into a :class:`StepWorkspace`."""

    def __init__(self, comp_x, comp_y, halo: int, workspace: "StepWorkspace"):
        super().__init__(comp_x, comp_y, halo)
        self.workspace = weakref.ref(workspace)


class StepWorkspace:
    """Padded storage for every field of a transport step on one grid.

    ``psi`` is the scalar, ``courant`` the physical Courant field and
    ``corrective`` two slots that the antidiffusive field and the limiter
    alternate between.  The step functions update workspace fields in place
    and trust that their Courant fields were checked by the code that filled
    them; plain fields are copied into a new workspace and checked there.
    One workspace serves one caller at a time: ``integrate`` creates its own.
    """

    def __init__(self, nx: int, ny: int, halo: int):
        if int(halo) != halo or halo < 2:  # the kernels read two cells deep
            raise ConfigurationError(f"halo width must be an integer >= 2, got {halo}")
        h = int(halo)
        rows, row = nx + 1 + 2 * h, ny + 1 + 2 * h
        self.fields = fields = np.zeros((7, rows, row))
        self.psi = WorkspaceScalar(fields[0, :nx + 2 * h, :ny + 2 * h], h, self)
        self.courant, *self.corrective = (
            WorkspaceVector(fields[s, :, :ny + 2 * h], fields[s + 1, :nx + 2 * h, :], h, self)
            for s in (1, 3, 5)
        )
        self.scratch = np.zeros((2, rows * row))
        self.scratch_ptrs = (self.scratch[0].ctypes.data, self.scratch[1].ctypes.data)
        self.courant_y_key = None  # what the physical y component was last built for (pricing)

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

    def spare(self, busy: VectorField) -> WorkspaceVector:
        """The corrective slot not occupied by ``busy``."""
        first, second = self.corrective
        return second if busy is first else first


def workspace_of(*fields):
    """The workspace holding every one of ``fields``, or None."""
    held = {f.workspace() if hasattr(f, "workspace") else None for f in fields}
    return held.pop() if len(held) == 1 else None


def _upwind(ws: StepWorkspace, psi: WorkspaceScalar, courant: WorkspaceVector) -> None:
    """Donor-cell update of the interior of ``psi`` in place."""
    library().upwind(*psi.c_values, courant.c_comp_x[0], courant.c_comp_y[0], *ws.scratch_ptrs)


def _antidiffusive(ws, psi, courant, out) -> None:
    """Antidiffusive Courant numbers of ``courant`` into ``out`` on the real faces."""
    library().antidiffusive(
        *psi.c_values, courant.c_comp_x[0], courant.c_comp_y[0], out.c_comp_x[0], out.c_comp_y[0],
        DEFAULT_EPSILON,
    )


def _limit(ws, psi, courant, out) -> None:
    """FCT-limited copy of corrective field ``courant`` into ``out`` on the real faces."""
    library().limit(
        *psi.c_values, courant.c_comp_x[0], courant.c_comp_y[0], out.c_comp_x[0], out.c_comp_y[0],
        *ws.scratch_ptrs, DEFAULT_EPSILON,
    )


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def upwind_step(psi: ScalarField, courant: VectorField) -> ScalarField:
    """One donor-cell pass updating the interior.

    The halo of ``psi`` must be filled; of ``courant`` only the interior
    faces are read.  Raises :class:`StabilityError` when any interior |C|
    exceeds 1.  Plain fields are left as they are and a new field is
    returned; workspace fields are updated in place, with the check left to
    whoever filled the workspace (see :func:`mpdata_step`).
    """
    ws = workspace_of(psi, courant)
    if ws is not None:
        _upwind(ws, psi, courant)
        return psi
    _guard(courant)
    ws = StepWorkspace.holding(psi, courant)
    _upwind(ws, ws.psi, ws.courant)
    return ws.psi.copy()


def _corrective_field(kernel, psi: ScalarField, courant: VectorField) -> VectorField:
    """Run ``kernel`` into the spare corrective slot; plain inputs get a plain result."""
    ws = workspace_of(psi, courant)
    plain = ws is None
    if plain:
        ws = StepWorkspace.holding(psi, courant)
        psi, courant = ws.psi, ws.courant
    out = ws.spare(courant)
    kernel(ws, psi, courant, out)
    return out.copy() if plain else out


def antidiffusive_courant(psi: ScalarField, courant: VectorField) -> VectorField:
    """Antidiffusive Courant field from the modified-equation analysis.

    Per face of dimension d: |C| (1 - |C|) A - sum_{q != d} C Cbar_q B, with
    A and B the guarded psi ratios and Cbar the four-face transverse mean.
    Computed on the faces bounding the interior; halos of the result are left
    for the caller to fill.  For workspace fields the result occupies the
    corrective slot that ``courant`` does not.
    """
    return _corrective_field(_antidiffusive, psi, courant)


def nonoscillatory_limit(psi_before: ScalarField, courant_corrective: VectorField) -> VectorField:
    """Scale corrective Courant numbers by FCT ratios.

    Guarantees that the subsequent UPWIND pass keeps every cell within the
    min/max of its face-neighbour stencil in ``psi_before`` (a subset of the
    3x3 neighbourhood).  Halos of both inputs must be filled; halos of the
    result are left for the caller.  For workspace fields the result
    occupies the corrective slot that ``courant_corrective`` does not.
    """
    return _corrective_field(_limit, psi_before, courant_corrective)


def mpdata_step(
    psi: ScalarField,
    courant: VectorField,
    opts: SolverOptions,
    boundary=None,
) -> ScalarField:
    """One full transport step: UPWIND plus ``n_iters - 1`` corrective passes.

    Halos are refilled before every corrective pass, and every corrective
    Courant field is checked against |C| <= 1.  ``boundary`` is an optional
    ``(fill_scalar, fill_vector)`` pair; the production extrapolation /
    constant-extension fills are used by default.  Plain inputs are copied,
    filled and checked, and a new field is returned.  Workspace inputs (as
    ``integrate`` passes them) must arrive filled and checked; they are
    updated in place.  With ``n_iters=1`` the result is bit-identical to
    :func:`upwind_step` on a filled field.
    """
    fill_scalar, fill_vector = boundary or (fill_halos_scalar, fill_halos_vector)
    plain = workspace_of(psi, courant) is None
    if plain:
        ws = StepWorkspace.holding(psi, courant)
        psi, courant = ws.psi, ws.courant
        fill_vector(courant)
        fill_scalar(psi)
        _guard(courant)
    out = upwind_step(psi, courant)
    current = courant
    for _ in range(opts.n_iters - 1):
        fill_scalar(out)
        corrective = antidiffusive_courant(out, current)
        fill_vector(corrective)
        if opts.nonoscillatory:
            corrective = nonoscillatory_limit(out, corrective)
            fill_vector(corrective)
        _guard(corrective)
        out = upwind_step(out, corrective)
        current = corrective
    return out.copy() if plain else out
