import numpy as np
import pytest

from asianpde._step import HALO
from asianpde.grid import GridSpec, ScalarField, VectorField


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


def random_positive_field(spec: GridSpec, rng: np.random.Generator, lo=0.0, hi=2.0) -> ScalarField:
    fld = ScalarField.zeros(spec)
    fld.interior[:] = rng.uniform(lo, hi, fld.interior.shape)
    return fld


def random_courant(spec: GridSpec, rng: np.random.Generator, bound=0.22) -> VectorField:
    """Random face field with per-face bound; 4 * bound <= 1 keeps every
    donor cell's total outflow below its content (sign-preserving regime)."""
    fld = VectorField.zeros(spec)
    fld.interior_x[:] = rng.uniform(-bound, bound, fld.interior_x.shape)
    fld.interior_y[:] = rng.uniform(-bound, bound, fld.interior_y.shape)
    return fld


def wrap_courant(fld: VectorField) -> VectorField:
    """Make the interior faces periodic so boundary fluxes telescope."""
    h = HALO
    fld.comp_x[-h - 1, :] = fld.comp_x[h, :]
    fld.comp_y[:, -h - 1] = fld.comp_y[:, h]
    return fld


__all__ = ["random_positive_field", "random_courant", "wrap_courant"]
