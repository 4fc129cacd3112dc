"""Staggered-grid containers and boundary fills.

Arakawa-C layout: scalars live at cell centres, transport (Courant number)
components on cell faces.  Both carry a halo of ghost cells, ``HALO = 2``
wide (see :mod:`asianpde._step`), so that wide stencils can be evaluated up
to the domain edge once a boundary fill has run.

Storage is row-major with the x index on axis 0.  With ``h = HALO``:

* scalar cell ``(i, j)``            -> ``values[h + i, h + j]``
* x-face on the *left* edge of cell ``i``  -> ``comp_x[h + i, h + j]``
  (``nx + 1`` interior face columns, the last one at ``h + nx``)
* y-face on the *bottom* edge of cell ``j`` -> ``comp_y[h + i, h + j]``

The halo fills are C loops (``fill_scalar`` and ``fill_faces`` in
``_step.c``, built on first use by :mod:`asianpde._step`) over any field of
this layout, a plain array or a :class:`asianpde.advection.StepWorkspace`
view with longer rows.  A field is a frozen dataclass of its arrays and
holds nothing else; every kernel call checks the layout of the arrays it
passes (:class:`ConfigurationError` if wrong).

Fields are single-writer objects: concurrent reads are fine, but a halo fill
must not race an interior update on the same field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from ._step import HALO, dims, library, writable
from .errors import ConfigurationError


@dataclass(frozen=True)
class GridSpec:
    """Domain extents and resolution in transformed coordinates (x = ln S, y = A)."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int

    def __post_init__(self):
        for name in ("x_min", "x_max", "y_min", "y_max"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)}")
        if not (isinstance(self.nx, Integral) and isinstance(self.ny, Integral)):
            raise ConfigurationError(f"cell counts must be integers, got nx={self.nx!r}, ny={self.ny!r}")
        if not self.x_min < self.x_max:
            raise ConfigurationError(f"x_min must be < x_max, got [{self.x_min}, {self.x_max}]")
        if not self.y_min < self.y_max:
            raise ConfigurationError(f"y_min must be < y_max, got [{self.y_min}, {self.y_max}]")
        if self.nx < 3 or self.ny < 3:
            raise ConfigurationError(f"need at least 3 cells per dimension, got {self.nx}x{self.ny}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.nx

    @property
    def dy(self) -> float:
        return (self.y_max - self.y_min) / self.ny

    @property
    def x_centres(self) -> np.ndarray:
        return self.x_min + (np.arange(self.nx) + 0.5) * self.dx

    @property
    def y_centres(self) -> np.ndarray:
        return self.y_min + (np.arange(self.ny) + 0.5) * self.dy


@dataclass(frozen=True)
class ScalarField:
    """Cell-centred scalar with a halo ring; interior shape (nx, ny)."""

    values: np.ndarray

    @classmethod
    def zeros(cls, spec: GridSpec) -> "ScalarField":
        return cls(np.zeros((spec.nx + 2 * HALO, spec.ny + 2 * HALO)))

    @property
    def nx(self) -> int:
        return self.values.shape[0] - 2 * HALO

    @property
    def ny(self) -> int:
        return self.values.shape[1] - 2 * HALO

    @property
    def interior(self) -> np.ndarray:
        return self.values[HALO:-HALO, HALO:-HALO]

    # the record of values (see _step.dims), made at each call; the fill reads two cells
    c_values = property(lambda self: dims(self.values, 2))

    def copy(self) -> "ScalarField":
        return ScalarField(self.values.copy())


@dataclass(frozen=True)
class VectorField:
    """Face-centred vector components on the staggered (Arakawa-C) positions."""

    comp_x: np.ndarray
    comp_y: np.ndarray

    @classmethod
    def zeros(cls, spec: GridSpec) -> "VectorField":
        cx = np.zeros((spec.nx + 1 + 2 * HALO, spec.ny + 2 * HALO))
        cy = np.zeros((spec.nx + 2 * HALO, spec.ny + 1 + 2 * HALO))
        return cls(cx, cy)

    @property
    def interior_x(self) -> np.ndarray:
        return self.comp_x[HALO:-HALO, HALO:-HALO]  # (nx + 1, ny)

    @property
    def interior_y(self) -> np.ndarray:
        return self.comp_y[HALO:-HALO, HALO:-HALO]  # (nx, ny + 1)

    # the records of the components (see _step.dims), made at each call
    c_comp_x = property(lambda self: dims(self.comp_x, 1))
    c_comp_y = property(lambda self: dims(self.comp_y, 1))

    def copy(self) -> "VectorField":
        return VectorField(self.comp_x.copy(), self.comp_y.copy())


def fill_halos_scalar(fld: ScalarField) -> ScalarField:
    """Fill scalar halos by linear extrapolation from the two nearest interior cells.

    Extrapolation runs dimension by dimension (x first, then y, so corner
    halos pick up the already-extrapolated columns).  Negative extrapolated
    values are clipped to zero to keep the field sign-preserving.  The fill
    is idempotent and runs in place; the field is returned for chaining.
    The interior needs at least two cells per axis.
    """
    library().fill_scalar(*writable(fld.values, fld.c_values))
    return fld


def fill_halos_vector(fld: VectorField) -> VectorField:
    """Fill vector halos by zeroth-order (constant) extension of the nearest face.

    Interior faces are never touched.  In place; returns the field.
    """
    fill = library().fill_faces
    fill(*writable(fld.comp_x, fld.c_comp_x))
    fill(*writable(fld.comp_y, fld.c_comp_y))
    return fld
