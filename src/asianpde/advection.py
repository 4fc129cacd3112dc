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
``(nx + 1 + 2h, ny + 1 + 2h)`` arrays with one row length ``R``.  Cell or
face ``(a, b)`` of any field sits at flat offset ``a * R + b``, so each
stencil is one contiguous 1D numpy operation over the flat span from the
first to the last real element, with neighbours at offsets +-1 (y) and +-R
(x).  The halo and pad lanes inside a span receive finite values that no
real element reads: scalar updates write the interior only, and the boundary
fill that follows every vector kernel overwrites the vector halos.  Every
real element gets the same floating-point operations, in the same order, as
a direct evaluation of the formulas below, so results are bit-identical to
one.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, StabilityError
from .grid import ScalarField, VectorField, fill_halos_scalar, fill_halos_vector

_COURANT_TOL = 1e-12  # |C| = 1 exactly (unit-Courant translation) must pass

DEFAULT_EPSILON = 1e-15

_N_SCRATCH = 9  # the FCT limiter needs the most flat temporaries


@dataclass(frozen=True)
class SolverOptions:
    """Transport-step settings; n_iters=1 is pure UPWIND."""

    n_iters: int = 2
    nonoscillatory: bool = True
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        if self.n_iters < 1:
            raise ConfigurationError(f"n_iters must be >= 1, got {self.n_iters}")
        if not self.epsilon > 0:
            raise ConfigurationError(f"epsilon must be positive, got {self.epsilon}")


@dataclass(frozen=True)
class StabilityReport:
    ok: bool
    max_abs_courant_x: float
    max_abs_courant_y: float
    diffusion_number: float
    violations: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()


def check_stability(courant: VectorField, nu: float, dt: float, dx: float) -> StabilityReport:
    """Check the advective (|C| <= 1) and diffusive (2|nu| dt / dx^2 <= 1/2) criteria.

    The half-Courant guideline for divergent flow is reported as a warning
    only: the valuation flow is divergence-free in y and the x component is
    covered by the diffusive criterion.
    """
    max_cx = float(np.max(np.abs(courant.interior_x)))
    max_cy = float(np.max(np.abs(courant.interior_y)))
    diffusion = 2.0 * abs(nu) * abs(dt) / dx**2
    violations = []
    if max_cx > 1.0 + _COURANT_TOL:
        violations.append(f"advective criterion violated in x: max |C_x| = {max_cx:.6g} > 1")
    if max_cy > 1.0 + _COURANT_TOL:
        violations.append(f"advective criterion violated in y: max |C_y| = {max_cy:.6g} > 1")
    if diffusion > 0.5 + _COURANT_TOL:
        violations.append(
            f"diffusive criterion violated: 2|nu| dt / dx^2 = {diffusion:.6g} > 1/2"
        )
    warnings = ()
    if not violations and max(max_cx, max_cy) > 0.5:
        warnings = (
            f"max |C| = {max(max_cx, max_cy):.6g} exceeds the half-Courant guideline "
            "for divergent flow fields",
        )
    return StabilityReport(
        ok=not violations,
        max_abs_courant_x=max_cx,
        max_abs_courant_y=max_cy,
        diffusion_number=diffusion,
        violations=tuple(violations),
        warnings=warnings,
    )


def _guard(courant: VectorField) -> None:
    """Raise :class:`StabilityError` when any interior |C| exceeds 1."""
    report = check_stability(courant, 0.0, 0.0, 1.0)
    if not report.ok:
        raise StabilityError(report)


def flux(psi_left, psi_right, courant):
    """Donor-cell flux: max(C, 0) * psi_left + min(C, 0) * psi_right."""
    return np.maximum(courant, 0.0) * psi_left + np.minimum(courant, 0.0) * psi_right


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
    h = psi.halo
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
    h = courant.halo
    a, b = h + i, h + j
    if d == 0:
        cy = courant.comp_y
        return 0.25 * (cy[a, b] + cy[a + 1, b] + cy[a, b + 1] + cy[a + 1, b + 1])
    cx = courant.comp_x
    return 0.25 * (cx[a, b] + cx[a + 1, b] + cx[a, b + 1] + cx[a + 1, b + 1])


# ---------------------------------------------------------------------------
# padded layout
# ---------------------------------------------------------------------------

class WorkspaceScalar(ScalarField):
    """A scalar whose values are a view into a :class:`StepWorkspace`; ``flat``
    is its whole padded array."""

    def __init__(self, values: np.ndarray, halo: int, workspace: "StepWorkspace", flat: np.ndarray):
        super().__init__(values, halo)
        # weak: the workspace holds its fields, and a reference cycle would keep
        # every finished workspace alive until the cyclic garbage collector runs
        self.workspace = weakref.ref(workspace)
        self.flat = flat

    def detached(self) -> ScalarField:
        """A plain copy, halos included."""
        return ScalarField(self.values.copy(), self.halo)


class WorkspaceVector(VectorField):
    """A face field whose components are views into a :class:`StepWorkspace`."""

    def __init__(self, comp_x, comp_y, halo: int, workspace: "StepWorkspace", flat_x, flat_y):
        super().__init__(comp_x, comp_y, halo)
        self.workspace = weakref.ref(workspace)
        self.flat_x = flat_x
        self.flat_y = flat_y

    def detached(self) -> VectorField:
        """A plain copy of the interior faces with zero halos."""
        out = VectorField(np.zeros(self.comp_x.shape), np.zeros(self.comp_y.shape), self.halo)
        out.interior_x[:] = self.interior_x
        out.interior_y[:] = self.interior_y
        return out


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
        h = halo
        rows, row = nx + 1 + 2 * h, ny + 1 + 2 * h
        self.row = row
        fields = np.zeros((7, rows, row))
        flat = fields.reshape(7, -1)
        self.psi = WorkspaceScalar(fields[0, :nx + 2 * h, :ny + 2 * h], h, self, flat[0])
        self.courant, *self.corrective = (
            WorkspaceVector(
                fields[s, :, :ny + 2 * h], fields[s + 1, :nx + 2 * h, :], h, self, flat[s], flat[s + 1]
            )
            for s in (1, 3, 5)
        )
        self.scratch = np.zeros((_N_SCRATCH, rows * row))
        self.small = np.zeros(rows * row, dtype=bool)
        self.courant_y_key = None  # what the physical y component was last built for (pricing)

        def span(a0, b0, a1, b1):  # flat [start, stop) from (a0, b0) through (a1, b1)
            return a0 * row + b0, a1 * row + b1 + 1

        self.cells = span(h, h, h + nx - 1, h + ny - 1)
        self.x_faces = span(h, h, h + nx, h + ny - 1)
        self.y_faces = span(h, h, h + nx - 1, h + ny)
        self.ring = span(h - 1, h - 1, h + nx, h + ny)  # interior plus one cell
        self.interior_index = (slice(h, h + nx), slice(h, h + ny))  # of a (rows, R) view

    @classmethod
    def holding(cls, psi: ScalarField, courant: VectorField | None = None) -> "StepWorkspace":
        """A new workspace holding copies of ``psi`` and, if given, ``courant``."""
        ws = cls(psi.nx, psi.ny, psi.halo)
        ws.psi.values[...] = psi.values
        if courant is not None:
            ws.courant.comp_x[...] = courant.comp_x
            ws.courant.comp_y[...] = courant.comp_y
        return ws

    def x_face_ratio(self, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
        """Flat views over the x-face span: the guarded ratio
        (psi[k] - psi[k - R]) / (psi[k] + psi[k - R]) of the two cells each face
        separates, and the physical C_x there, for the caller to write."""
        r, (x0, x1) = self.row, self.x_faces
        p, num, den = self.psi.flat, self.scratch[0, x0:x1], self.scratch[1, x0:x1]
        np.subtract(p[x0:x1], p[x0 - r:x1 - r], out=num)
        np.add(p[x0:x1], p[x0 - r:x1 - r], out=den)
        ratio = _guarded_ratio(num, den, epsilon, out=num, small=self.small[x0:x1])
        return ratio, self.courant.flat_x[x0:x1]

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
    p, ux, uy = psi.flat, courant.flat_x, courant.flat_y
    r = ws.row
    fx, fy, tmp, dy = ws.scratch[:4]
    x0, x1 = ws.x_faces
    y0, y1 = ws.y_faces
    c0, c1 = ws.cells
    # x faces: donor/receiver cells k - R and k
    np.maximum(ux[x0:x1], 0.0, out=fx[x0:x1])
    fx[x0:x1] *= p[x0 - r:x1 - r]
    np.minimum(ux[x0:x1], 0.0, out=tmp[x0:x1])
    tmp[x0:x1] *= p[x0:x1]
    fx[x0:x1] += tmp[x0:x1]
    # y faces: cells k - 1 and k
    np.maximum(uy[y0:y1], 0.0, out=fy[y0:y1])
    fy[y0:y1] *= p[y0 - 1:y1 - 1]
    np.minimum(uy[y0:y1], 0.0, out=tmp[y0:y1])
    tmp[y0:y1] *= p[y0:y1]
    fy[y0:y1] += tmp[y0:y1]
    # psi - ((fx[k + R] - fx[k]) + (fy[k + 1] - fy[k])), clipped at 0
    div = tmp[c0:c1]
    np.subtract(fx[c0 + r:c1 + r], fx[c0:c1], out=div)
    np.subtract(fy[c0 + 1:c1 + 1], fy[c0:c1], out=dy[c0:c1])
    div += dy[c0:c1]
    np.subtract(p[c0:c1], div, out=div)
    # the scheme is sign-preserving; clip only round-off-level undershoots
    np.maximum(div, 0.0, out=div)
    psi_rows, tmp_rows = p.reshape(-1, r), tmp.reshape(-1, r)
    psi_rows[ws.interior_index] = tmp_rows[ws.interior_index]


def _antidiffusive(ws, psi, courant, out, eps: float) -> None:
    """Antidiffusive Courant numbers of ``courant`` into ``out`` on the real faces."""
    p, ux, uy, vx, vy = psi.flat, courant.flat_x, courant.flat_y, out.flat_x, out.flat_y
    r = ws.row
    pair, num, ratio_a, den, ratio_b = ws.scratch[:5]
    small = ws.small
    for (f0, f1), near, far, vel, cross, res_flat in (
        (ws.x_faces, r, 1, ux, uy, vx),
        (ws.y_faces, 1, r, uy, ux, vy),
    ):
        # A: donor/receiver cells k - near and k
        np.add(p[f0 - far:f1 + far], p[f0 - far - near:f1 + far - near], out=pair[f0 - far:f1 + far])
        np.subtract(p[f0:f1], p[f0 - near:f1 - near], out=num[f0:f1])
        _guarded_ratio(num[f0:f1], pair[f0:f1], eps, out=ratio_a[f0:f1], small=small[f0:f1])
        # B: the transverse neighbour pairs sit at k + far and k - far
        up, dn = pair[f0 + far:f1 + far], pair[f0 - far:f1 - far]
        np.subtract(up, dn, out=num[f0:f1])
        np.add(up, dn, out=den[f0:f1])
        _guarded_ratio(num[f0:f1], den[f0:f1], eps, out=ratio_b[f0:f1], small=small[f0:f1])
        ratio_b[f0:f1] *= 0.5
        # transverse mean of the four cross faces around the face
        cbar = den[f0:f1]
        if near == r:  # x face: y faces of cells k - R and k, bottom then top
            np.add(cross[f0 - r:f1 - r], cross[f0:f1], out=cbar)
            cbar += cross[f0 - r + 1:f1 - r + 1]
            cbar += cross[f0 + 1:f1 + 1]
        else:  # y face: x faces of cells k - 1 and k, left then right
            np.add(cross[f0 - 1:f1 - 1], cross[f0 + r - 1:f1 + r - 1], out=cbar)
            cbar += cross[f0:f1]
            cbar += cross[f0 + r:f1 + r]
        cbar *= 0.25
        # |C| (1 - |C|) A - C Cbar B
        c = vel[f0:f1]
        abs_c = num[f0:f1]
        np.abs(c, out=abs_c)
        res = res_flat[f0:f1]
        np.subtract(1.0, abs_c, out=res)
        res *= abs_c
        res *= ratio_a[f0:f1]
        cbar *= c
        cbar *= ratio_b[f0:f1]
        res -= cbar


def _limit(ws, psi, courant, out, eps: float) -> None:
    """FCT-limited copy of corrective field ``courant`` into ``out`` on the real faces."""
    p, ux, uy, vx, vy = psi.flat, courant.flat_x, courant.flat_y, out.flat_x, out.flat_y
    r = ws.row
    hi, lo, uxp, uxm, uyp, uym, f_in, f_out, tmp = ws.scratch
    r0, r1 = ws.ring
    c0 = p[r0:r1]
    xm, xp = p[r0 - r:r1 - r], p[r0 + r:r1 + r]
    ym, yp = p[r0 - 1:r1 - 1], p[r0 + 1:r1 + 1]
    bound_hi, bound_lo = hi[r0:r1], lo[r0:r1]
    np.maximum(c0, xm, out=bound_hi)
    np.minimum(c0, xm, out=bound_lo)
    for nb in (xp, ym, yp):
        np.maximum(bound_hi, nb, out=bound_hi)
        np.minimum(bound_lo, nb, out=bound_lo)
    np.maximum(ux[r0:r1 + r], 0.0, out=uxp[r0:r1 + r])
    np.minimum(ux[r0:r1 + r], 0.0, out=uxm[r0:r1 + r])
    np.maximum(uy[r0:r1 + 1], 0.0, out=uyp[r0:r1 + 1])
    np.minimum(uy[r0:r1 + 1], 0.0, out=uym[r0:r1 + 1])
    # inflow: left, right, bottom, top neighbours
    t = tmp[r0:r1]
    fin = f_in[r0:r1]
    np.multiply(uxp[r0:r1], xm, out=fin)
    np.multiply(uxm[r0 + r:r1 + r], xp, out=t)
    fin -= t
    np.multiply(uyp[r0:r1], ym, out=t)
    fin += t
    np.multiply(uym[r0 + 1:r1 + 1], yp, out=t)
    fin -= t
    # outflow
    fout = f_out[r0:r1]
    np.subtract(uxp[r0 + r:r1 + r], uxm[r0:r1], out=fout)
    fout += uyp[r0 + 1:r1 + 1]
    fout -= uym[r0:r1]
    fout *= c0
    # beta_up = (max - psi) / (f_in + eps), beta_dn = (psi - min) / (f_out + eps)
    beta_up, beta_dn = bound_hi, bound_lo
    beta_up -= c0
    fin += eps
    beta_up /= fin
    np.subtract(c0, bound_lo, out=beta_dn)
    fout += eps
    beta_dn /= fout
    beta_up, beta_dn = hi, lo
    for (f0, f1), near, pos, neg, res_flat in (
        (ws.x_faces, r, uxp, uxm, vx),
        (ws.y_faces, 1, uyp, uym, vy),
    ):
        # donor side k - near, receiver side k
        res, t = res_flat[f0:f1], tmp[f0:f1]
        np.minimum(beta_dn[f0 - near:f1 - near], beta_up[f0:f1], out=res)
        np.minimum(1.0, res, out=res)
        res *= pos[f0:f1]
        np.minimum(beta_dn[f0:f1], beta_up[f0 - near:f1 - near], out=t)
        np.minimum(1.0, t, out=t)
        t *= neg[f0:f1]
        res += t


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def upwind_step(psi: ScalarField, courant: VectorField) -> ScalarField:
    """One donor-cell pass updating the interior; halos of both inputs must be filled.

    Raises :class:`StabilityError` when any interior |C| exceeds 1.  Plain
    fields are left as they are and a new field is returned; workspace
    fields are updated in place, with the check left to whoever filled the
    workspace (see :func:`mpdata_step`).
    """
    ws = workspace_of(psi, courant)
    if ws is not None:
        _upwind(ws, psi, courant)
        return psi
    _guard(courant)
    ws = StepWorkspace.holding(psi, courant)
    _upwind(ws, ws.psi, ws.courant)
    return ws.psi.detached()


def _corrective_field(kernel, psi: ScalarField, courant: VectorField, epsilon: float) -> VectorField:
    """Run ``kernel`` into the spare corrective slot; plain inputs get a plain result."""
    ws = workspace_of(psi, courant)
    plain = ws is None
    if plain:
        ws = StepWorkspace.holding(psi, courant)
        psi, courant = ws.psi, ws.courant
    out = ws.spare(courant)
    kernel(ws, psi, courant, out, epsilon)
    return out.detached() if plain else out


def antidiffusive_courant(
    psi: ScalarField, courant: VectorField, opts: SolverOptions
) -> VectorField:
    """Antidiffusive Courant field from the modified-equation analysis.

    Per face of dimension d: |C| (1 - |C|) A - sum_{q != d} C Cbar_q B, with
    A and B the guarded psi ratios and Cbar the four-face transverse mean.
    Computed on the faces bounding the interior; halos of the result are left
    for the caller to fill.  For workspace fields the result occupies the
    corrective slot that ``courant`` does not.
    """
    return _corrective_field(_antidiffusive, psi, courant, opts.epsilon)


def nonoscillatory_limit(
    psi_before: ScalarField,
    courant_corrective: VectorField,
    epsilon: float = DEFAULT_EPSILON,
) -> VectorField:
    """Scale corrective Courant numbers by FCT ratios.

    Guarantees that the subsequent UPWIND pass keeps every cell within the
    min/max of its face-neighbour stencil in ``psi_before`` (a subset of the
    3x3 neighbourhood).  Halos of both inputs must be filled; halos of the
    result are left for the caller.  For workspace fields the result
    occupies the corrective slot that ``courant_corrective`` does not.
    """
    return _corrective_field(_limit, psi_before, courant_corrective, epsilon)


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
        corrective = antidiffusive_courant(out, current, opts)
        fill_vector(corrective)
        if opts.nonoscillatory:
            corrective = nonoscillatory_limit(out, corrective, opts.epsilon)
            fill_vector(corrective)
        _guard(corrective)
        out = upwind_step(out, corrective)
        current = corrective
    return out.detached() if plain else out
