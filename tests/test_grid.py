import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asianpde.errors import ConfigurationError
from asianpde.grid import (
    GridSpec,
    ScalarField,
    VectorField,
    fill_halos_scalar,
    fill_halos_vector,
)

SPEC = GridSpec(0.0, 1.0, 0.0, 2.0, 5, 4)


class TestGridSpec:
    def test_cell_sizes_exact(self):
        spec = GridSpec(0.0, 1.0, 0.0, 2.0, 8, 5)
        assert spec.dx == (1.0 - 0.0) / 8
        assert spec.dy == 2.0 / 5

    def test_centre_coordinates(self):
        spec = GridSpec(-1.0, 1.0, 0.0, 1.0, 4, 3)
        np.testing.assert_allclose(spec.x_centres, [-0.75, -0.25, 0.25, 0.75])
        assert spec.x_centres[0] == spec.x_min + 0.5 * spec.dx

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(x_min=1.0, x_max=0.0, y_min=0.0, y_max=1.0, nx=4, ny=4),
            dict(x_min=0.0, x_max=1.0, y_min=1.0, y_max=1.0, nx=4, ny=4),
            dict(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, nx=2, ny=4),
            dict(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, nx=4, ny=2),
            dict(x_min=0.0, x_max=math.inf, y_min=0.0, y_max=1.0, nx=4, ny=4),
            dict(x_min=-math.inf, x_max=1.0, y_min=0.0, y_max=1.0, nx=4, ny=4),
            dict(x_min=0.0, x_max=1.0, y_min=0.0, y_max=math.inf, nx=4, ny=4),
            dict(x_min=0.0, x_max=1.0, y_min=math.nan, y_max=1.0, nx=4, ny=4),
            dict(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, nx=20.5, ny=4),
            dict(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, nx=4, ny=4.0),
        ],
    )
    def test_invalid_spec_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            GridSpec(**kwargs)


class TestMakeGrid:
    def test_minimal_grid_storage(self):
        spec = GridSpec(0, 1, 0, 1, 3, 3)
        scalar, vector = ScalarField.zeros(spec), VectorField.zeros(spec)
        assert scalar.values.shape == (7, 7)
        assert vector.comp_x.shape == (8, 7)
        assert vector.comp_y.shape == (7, 8)

    def test_sample_valuation_grid(self):
        spec = GridSpec(0, 1, 0, 1, 21, 31)
        scalar, vector = ScalarField.zeros(spec), VectorField.zeros(spec)
        assert scalar.interior.shape == (21, 31)
        # one extra face column/row relative to the scalar interior
        assert vector.interior_x.shape == (22, 31)
        assert vector.interior_y.shape == (21, 32)

    def test_zero_initialised(self):
        scalar, vector = ScalarField.zeros(SPEC), VectorField.zeros(SPEC)
        assert not scalar.values.any()
        assert not vector.comp_x.any() and not vector.comp_y.any()

    def test_too_few_cells_rejected(self):
        with pytest.raises(ConfigurationError):
            GridSpec(0, 1, 0, 1, 2, 4)


class TestScalarFill:
    def test_linear_extrapolation_on_edge(self):
        fld = ScalarField.zeros(SPEC)
        fld.interior[:] = 1.0
        fld.interior[-2, :] = 2.0
        fld.interior[-1, :] = 3.0
        fill_halos_scalar(fld)
        h = fld.halo
        # interior row ends (..., 2, 3): first halo layer continues the line to 4, second to 5
        assert fld.values[h + 5, h] == 4.0
        assert fld.values[h + 6, h] == 5.0

    def test_constant_interior_gives_constant_halos(self):
        fld = ScalarField.zeros(SPEC)
        fld.interior[:] = 0.7
        fill_halos_scalar(fld)
        np.testing.assert_array_equal(fld.values, 0.7)

    def test_negative_extrapolation_clipped(self):
        fld = ScalarField.zeros(SPEC)
        fld.interior[:] = 1.0
        fld.interior[-2, :] = 5.0
        fld.interior[-1, :] = 1.0
        fill_halos_scalar(fld)
        h = fld.halo
        # 2*1 - 5 = -3 clips to 0
        assert fld.values[h + 5, h] == 0.0

    def test_linear_field_continued_through_corners(self):
        fld = ScalarField.zeros(SPEC)
        i = np.arange(5)[:, None]
        j = np.arange(4)[None, :]
        fld.interior[:] = 10.0 + 2.0 * i + 3.0 * j
        fill_halos_scalar(fld)
        h = fld.halo
        full_i = np.arange(-h, 5 + h)[:, None]
        full_j = np.arange(-h, 4 + h)[None, :]
        np.testing.assert_allclose(fld.values, 10.0 + 2.0 * full_i + 3.0 * full_j)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_fill_is_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        fld = ScalarField.zeros(SPEC)
        fld.interior[:] = rng.uniform(0.0, 3.0, fld.interior.shape)
        once = fill_halos_scalar(fld.copy()).values
        twice = fill_halos_scalar(ScalarField(once.copy(), fld.halo)).values
        np.testing.assert_array_equal(once, twice)


class TestVectorFill:
    def test_constant_extension(self):
        fld = VectorField.zeros(SPEC)
        fld.interior_x[:] = 0.3
        fill_halos_vector(fld)
        np.testing.assert_array_equal(fld.comp_x, 0.3)

    def test_negative_edge_value_copied(self):
        fld = VectorField.zeros(SPEC)
        fld.interior_x[0, :] = -0.1
        fill_halos_vector(fld)
        h = fld.halo
        assert fld.comp_x[0, h] == -0.1
        assert fld.comp_x[h - 1, h] == -0.1

    def test_zero_field_stays_zero(self):
        fld = VectorField.zeros(SPEC)
        fill_halos_vector(fld)
        assert not fld.comp_x.any() and not fld.comp_y.any()

    def test_interior_preserved_bit_exactly(self, rng):
        fld = VectorField.zeros(SPEC)
        fld.interior_x[:] = rng.uniform(-1, 1, fld.interior_x.shape)
        fld.interior_y[:] = rng.uniform(-1, 1, fld.interior_y.shape)
        ix, iy = fld.interior_x.copy(), fld.interior_y.copy()
        fill_halos_vector(fld)
        np.testing.assert_array_equal(fld.interior_x, ix)
        np.testing.assert_array_equal(fld.interior_y, iy)
