"""Staggered-grid containers and boundary fills.

Arakawa-C layout: scalars live at cell centres, transport (Courant number)
components on cell faces.  Both carry a halo of ghost cells so that wide
stencils can be evaluated up to the domain edge once a boundary fill has run.

Storage is row-major with the x index on axis 0.  With halo width ``h``:

* scalar cell ``(i, j)``            -> ``values[h + i, h + j]``
* x-face on the *left* edge of cell ``i``  -> ``comp_x[h + i, h + j]``
  (``nx + 1`` interior face columns, the last one at ``h + nx``)
* y-face on the *bottom* edge of cell ``j`` -> ``comp_y[h + i, h + j]``

The halo fills are C loops (``fill_scalar`` and ``fill_faces`` in
``_step.c``, built on first use by :mod:`asianpde._step`) over any field of
this layout, a plain array or a :class:`asianpde.advection.StepWorkspace`
view with longer rows.  A field is frozen; its first kernel call checks each
array's layout (:class:`ConfigurationError` if wrong) and keeps the record.

Fields are single-writer objects: concurrent reads are fine, but a halo fill
must not race an interior update on the same field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

from ._step import dims, library, writable
from .errors import ConfigurationError

DEFAULT_HALO = 2  # the corrective stencils and the FCT limiter read 2 cells deep


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


class _Field:
    def __getstate__(self):
        # the c_ records hold this field's addresses: a copy or a pickle makes its own
        return {k: v for k, v in vars(self).items() if not k.startswith("c_")}


@dataclass(frozen=True)
class ScalarField(_Field):
    """Cell-centred scalar with a halo ring; interior shape (nx, ny)."""

    values: np.ndarray
    halo: int = DEFAULT_HALO

    @classmethod
    def zeros(cls, spec: GridSpec) -> "ScalarField":
        h = DEFAULT_HALO
        return cls(np.zeros((spec.nx + 2 * h, spec.ny + 2 * h)), h)

    @property
    def nx(self) -> int:
        return self.values.shape[0] - 2 * self.halo

    @property
    def ny(self) -> int:
        return self.values.shape[1] - 2 * self.halo

    @property
    def interior(self) -> np.ndarray:
        h = self.halo
        return self.values[h:-h, h:-h]

    # the record of values (see _step.dims), made once; the fill reads two cells
    c_values = cached_property(lambda self: dims(self.values, self.halo, 2))

    def copy(self) -> "ScalarField":
        return ScalarField(self.values.copy(), self.halo)


@dataclass(frozen=True)
class VectorField(_Field):
    """Face-centred vector components on the staggered (Arakawa-C) positions."""

    comp_x: np.ndarray
    comp_y: np.ndarray
    halo: int = DEFAULT_HALO

    @classmethod
    def zeros(cls, spec: GridSpec) -> "VectorField":
        h = DEFAULT_HALO
        cx = np.zeros((spec.nx + 1 + 2 * h, spec.ny + 2 * h))
        cy = np.zeros((spec.nx + 2 * h, spec.ny + 1 + 2 * h))
        return cls(cx, cy, h)

    @property
    def interior_x(self) -> np.ndarray:
        h = self.halo
        return self.comp_x[h:-h, h:-h]  # (nx + 1, ny)

    @property
    def interior_y(self) -> np.ndarray:
        h = self.halo
        return self.comp_y[h:-h, h:-h]  # (nx, ny + 1)

    # the records of the components (see _step.dims), made once
    c_comp_x = cached_property(lambda self: dims(self.comp_x, self.halo, 1))
    c_comp_y = cached_property(lambda self: dims(self.comp_y, self.halo, 1))

    def copy(self) -> "VectorField":
        return VectorField(self.comp_x.copy(), self.comp_y.copy(), self.halo)


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
