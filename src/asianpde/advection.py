"""MPDATA advection core.

One transport step consists of a donor-cell (UPWIND) pass with the physical
Courant field followed by corrective UPWIND passes with an analytically
derived antidiffusive Courant field that cancels the leading-order numerical
diffusion of the previous pass.  An optional flux-corrected-transport (FCT)
limiter keeps the corrective passes from creating new local extrema.

All operations assume the halos of their inputs have been filled; a step
refills halos before every corrective pass so the halo requirement stays
independent of the iteration count.

Layout: every field of a step lives in one :class:`StepWorkspace`, a stack of
``(nx + 1 + 2h, ny + 1 + 2h)`` arrays (``h = HALO``) with one row length
``R``, so cell or face ``(a, b)`` of any field sits at flat offset
``a * R + b``.  The stencils are C loops over that layout (``_step.c``, built
on first use by :mod:`asianpde._step`).  They write the real cells and faces
only, and give every one the same floating-point operations, in the same
order, as a direct evaluation of the formulas below, so results are
bit-identical to one.

The whole step sequence runs only in :meth:`StepWorkspace.march`, for
``pricing.integrate``, ``benchmarks.run_translation`` and
:func:`mpdata_step` alike, and the march raises the :class:`StabilityError`
of every check it fails.  The single passes take plain fields: each copies
its inputs into a new workspace, runs the march's own loop over every row
there and returns a copy, so its inputs are never changed.  A sweep export
writes psi's second buffer; a scanning export writes its maxima to a double[2].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._step import HALO, MARCH_RESULT, MAXIMA, library, stop_if_unwound
from .errors import ConfigurationError, StabilityError
from .grid import ScalarField, VectorField
from .grid import fill_halos_scalar, fill_halos_vector  # noqa: F401 -- perfbench/tracing.py wraps both here

# the largest passing max |C| and diffusion number: |C| = 1 exactly
# (unit-Courant translation) must pass
_COURANT_LIMIT, _DIFFUSION_LIMIT = 1.0 + 1e-12, 0.5 + 1e-12

DEFAULT_EPSILON = 1e-15
# cell-steps of one C march call: Python sees Ctrl-C, and a table job its
# stop, between calls, ~0.6 s apart at 2 iterations, ~1.5 s at 4
MARCH_CALL_CELL_STEPS = 2**25
# the MemoryError of a march, upwind_step, nonoscillatory_limit or build_courant whose C call lacks row buffers
ROW_BUFFERS = "a step kernel could not allocate its row buffers"


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


def diffusion_number(nu: float, dt: float, dx: float) -> float:
    """2|nu| dt / dx^2, which the diffusive criterion bounds by 1/2."""
    return 2.0 * abs(nu) * abs(dt) / dx**2


def stability_report(max_cx: float, max_cy: float, diffusion: float) -> StabilityReport:
    """The report of the advective (|C| <= 1) and diffusive (2|nu| dt / dx^2
    <= 1/2) criteria, given the largest |C| per component and the diffusion number."""
    violations = []
    # written as "not <=" so that a NaN, which compares False, is a violation
    if not max_cx <= _COURANT_LIMIT:
        violations.append(f"advective criterion violated in x: max |C_x| = {max_cx:.6g} > 1")
    if not max_cy <= _COURANT_LIMIT:
        violations.append(f"advective criterion violated in y: max |C_y| = {max_cy:.6g} > 1")
    if not diffusion <= _DIFFUSION_LIMIT:
        violations.append(f"diffusive criterion violated: 2|nu| dt / dx^2 = {diffusion:.6g} > 1/2")
    return StabilityReport(not violations, max_cx, max_cy, diffusion, tuple(violations))


def _max_abs(courant: VectorField) -> tuple[float, float]:
    """max |C_x| and max |C_y| over the interior faces, NaN if any is NaN; only reads."""
    max_abs = library().max_abs
    return max_abs(*courant.c_comp_x), max_abs(*courant.c_comp_y)


def check_stability(courant: VectorField, nu: float, dt: float, dx: float) -> StabilityReport:
    """Check the advective (|C| <= 1) and diffusive (2|nu| dt / dx^2 <= 1/2) criteria."""
    return stability_report(*_max_abs(courant), diffusion_number(nu, dt, dx))


# ---------------------------------------------------------------------------
# padded layout
# ---------------------------------------------------------------------------

class StepWorkspace:
    """Padded storage for every field of a transport step on one grid, and
    the march over it.

    ``psi`` is the scalar, ``courant`` the physical Courant field and
    ``corrective`` two slots that the antidiffusive field and the limiter
    alternate between; each is a plain field viewing one stack of arrays.
    The last of the stack's 8 slots is psi's second buffer ``spare``, which
    each pass of :meth:`march` and of a single sweep kernel writes.
    :meth:`march` fills and checks every field itself; a single kernel
    called on these fields trusts its caller to have filled the halos it
    reads.  One workspace serves one caller at a time.
    """

    def __init__(self, nx: int, ny: int):
        h = HALO
        self.fields = fields = np.zeros((8, nx + 1 + 2 * h, ny + 1 + 2 * h))
        self.steps = 0  # the steps marched so far
        self.psi, self.spare = (ScalarField(fields[s, :nx + 2 * h, :ny + 2 * h]) for s in (0, 7))
        self.courant, *self.corrective = (
            VectorField(fields[s, :, :ny + 2 * h], fields[s + 1, :nx + 2 * h, :]) for s in (1, 3, 5)
        )

    @classmethod
    def holding(cls, psi: ScalarField, courant: VectorField | None = None) -> "StepWorkspace":
        """A new workspace holding copies of ``psi`` and, if given, ``courant``."""
        ws = cls(psi.nx, psi.ny)
        ws.psi.values[...] = psi.values
        if courant is not None:
            ws.courant.comp_x[...] = courant.comp_x
            ws.courant.comp_y[...] = courant.comp_y
        return ws

    def march(
        self, n_steps: int, opts: SolverOptions, courant_x=None, diffusion: float = 0.0, periodic=False,
        threads: int = 1,
    ) -> None:
        """``n_steps`` transport steps of one length, in C calls of at most
        ``MARCH_CALL_CELL_STEPS`` cell-steps so that Python sees a Ctrl-C
        between them.  Each step fills psi, writes C_x = (u - coef A) scale
        from ``courant_x = (u, coef, scale)`` (None keeps it), A the guarded
        psi ratio across each x face, fills it if a corrective pass follows
        (only the antidiffusive field reads its halos) and checks
        ``courant``; then UPWIND and ``n_iters - 1`` corrective passes, each
        on refilled halos and checked against |C| <= 1.  Every fill wraps on the ``nx x ny``
        torus if ``periodic``, psi's before each pass and at the end, and is
        the :mod:`asianpde.grid` fill if not.  The march writes no component
        of ``courant`` but C_x, so C_y, and C_x when kept, are filled and
        scanned once per C call; every field it writes is checked on the max
        |C| that the kernel writing it finds as it writes it.  Every pass
        runs every column; ``pricing.integrate`` picks a put's width.  Each
        pass writes psi's second buffer (the stack's last slot), psi once
        the pass's field passes its check: the march leaves psi filled.
        Each C call runs on up to ``threads`` threads, one a row at most and
        one if ``periodic``, each over its own block of x rows, with one
        barrier per upwind step and 3 per 2-iteration step with the limiter;
        every byte and every result is that of one thread.

        Adds the steps it completes to :attr:`steps`.  Raises
        :class:`MemoryError` when a C call cannot allocate the row buffers
        of its donor-cell sweeps, before that call's first step.  A failed
        check stops the march and raises :class:`StabilityError` with the
        failing field's maxima: with psi as the step found it when the
        physical field fails |C| <= 1 or ``diffusion`` its bound, with the
        step index :attr:`steps`; with psi as the pass before left it, with
        no step index and no diffusion number, when a corrective field fails
        |C| <= 1.
        """
        faces = (c[0] for fld in (self.courant, *self.corrective) for c in (fld.c_comp_x, fld.c_comp_y))
        arrays = (*self.psi.c_values, *faces, self.spare.c_values[0])
        settings = (
            opts.n_iters, opts.nonoscillatory, diffusion <= _DIFFUSION_LIMIT, periodic, courant_x is not None, threads,
            *(courant_x or (0.0, 0.0, 0.0)), _COURANT_LIMIT, DEFAULT_EPSILON,
        )
        per_call = max(1, MARCH_CALL_CELL_STEPS // (self.psi.nx * self.psi.ny))
        out = MARCH_RESULT()
        for done in range(0, n_steps, per_call):
            stop_if_unwound()
            size = min(per_call, n_steps - done)
            ran = library().march(*arrays, size, *settings, out)
            if ran < 0:
                raise MemoryError(ROW_BUFFERS)
            self.steps += ran
            if ran < size:
                corrective = out[2] != 0.0
                report = stability_report(out[0], out[1], 0.0 if corrective else diffusion)
                raise StabilityError(report, step_index=None if corrective else self.steps)


# ---------------------------------------------------------------------------
# passes: plain fields in, a new field out, the inputs left as they are
# ---------------------------------------------------------------------------

def upwind_step(psi: ScalarField, courant: VectorField) -> ScalarField:
    """One donor-cell pass updating the interior.

    The halo of ``psi`` must be filled; of ``courant`` only the interior
    faces are read.  Raises :class:`StabilityError` when any interior |C|
    exceeds 1, and :class:`MemoryError` when the pass, the march's upwind
    sweep into the workspace's ``spare``, cannot allocate its row buffers.
    """
    report = stability_report(*_max_abs(courant), 0.0)
    if not report.ok:
        raise StabilityError(report)
    ws = StepWorkspace.holding(psi, courant)
    faces = (ws.courant.c_comp_x[0], ws.courant.c_comp_y[0], ws.spare.c_values[0])
    if library().upwind(*ws.psi.c_values, *faces, 0, 0.0, 0.0, 0.0, DEFAULT_EPSILON, MAXIMA()):  # no C_x build
        raise MemoryError(ROW_BUFFERS)
    ws.psi.interior[...] = ws.spare.interior
    return ws.psi.copy()


def antidiffusive_courant(psi: ScalarField, courant: VectorField) -> VectorField:
    """Antidiffusive Courant field from the modified-equation analysis.

    Per face of dimension d: |C| (1 - |C|) A - sum_{q != d} C Cbar_q B, with
    A and B the guarded psi ratios and Cbar the four-face transverse mean.
    Computed on the faces bounding the interior; halos of the result are left
    for the caller to fill.
    """
    ws = StepWorkspace.holding(psi, courant)
    out = ws.corrective[0]
    library().antidiffusive(
        *ws.psi.c_values, ws.courant.c_comp_x[0], ws.courant.c_comp_y[0], out.c_comp_x[0], out.c_comp_y[0],
        DEFAULT_EPSILON, MAXIMA(),
    )
    return out.copy()


def nonoscillatory_limit(psi_before: ScalarField, courant_corrective: VectorField) -> VectorField:
    """Scale corrective Courant numbers by FCT ratios.

    Guarantees that the subsequent UPWIND pass keeps every cell within the
    min/max of its face-neighbour stencil in ``psi_before`` (a subset of the
    3x3 neighbourhood).  Halos of both inputs must be filled; halos of the
    result are left for the caller.  Raises :class:`MemoryError` when the
    limiter, the march's sweep with its pass into ``spare``, cannot allocate
    its row buffers.
    """
    ws = StepWorkspace.holding(psi_before, courant_corrective)
    out = ws.corrective[0]
    if library().limit(
        *ws.psi.c_values, ws.courant.c_comp_x[0], ws.courant.c_comp_y[0], out.c_comp_x[0], out.c_comp_y[0],
        ws.spare.c_values[0], DEFAULT_EPSILON, MAXIMA(),
    ):
        raise MemoryError(ROW_BUFFERS)
    return out.copy()


def mpdata_step(psi: ScalarField, courant: VectorField, opts: SolverOptions) -> ScalarField:
    """One full transport step: UPWIND plus ``n_iters - 1`` corrective passes.

    The inputs are copied into a new workspace, whose halos are filled with
    the production extrapolation / constant-extension fills and refilled
    before every corrective pass, and every Courant field is checked against
    |C| <= 1 by :meth:`StepWorkspace.march`, so a failing physical field
    raises at step 0.  The result's halos are filled; with ``n_iters=1`` its
    real cells are bit-identical to :func:`upwind_step`'s on a filled field.
    """
    ws = StepWorkspace.holding(psi, courant)
    ws.march(1, opts)
    return ws.psi.copy()
