import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asianpde._step import HALO, library
from asianpde.advection import StepWorkspace, check_stability, upwind_step
from asianpde.errors import ConfigurationError
from asianpde.grid import (
    GridSpec,
    ScalarField,
    VectorField,
    fill_halos_scalar,
    fill_halos_vector,
)
from oracles import (
    reference_fill_scalar,
    reference_fill_vector,
    reference_periodic_fill_scalar,
    reference_periodic_fill_vector,
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
        h = HALO
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
        h = HALO
        # 2*1 - 5 = -3 clips to 0
        assert fld.values[h + 5, h] == 0.0

    def test_linear_field_continued_through_corners(self):
        fld = ScalarField.zeros(SPEC)
        i = np.arange(5)[:, None]
        j = np.arange(4)[None, :]
        fld.interior[:] = 10.0 + 2.0 * i + 3.0 * j
        fill_halos_scalar(fld)
        h = HALO
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
        twice = fill_halos_scalar(ScalarField(once.copy())).values
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
        h = HALO
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


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def awkward(rng, shape) -> np.ndarray:
    """Values in [-1, 3) with a NaN, -0.0 and inf on the first and last rows
    and columns, where the fills read: many halo cells extrapolate below 0."""
    a = rng.uniform(-1.0, 3.0, shape)
    a[0, 1] = a[-1, -2] = a[2, 0] = np.nan
    # -0.0 on the edge next to +0.0 extrapolates to -0.0, which numpy clips to +0.0
    a[0, 2] = a[-1, 1] = a[3, 0] = a[4, -1] = -0.0
    a[1, 2] = a[-2, 1] = a[3, 1] = a[4, -2] = 0.0
    a[1, -1] = np.inf
    return a


class TestFillsMatchReference:
    """The C fills give the old numpy fills' bits (``oracles``), on plain
    fields and on workspace views, whose rows are longer than the field."""

    NX, NY = 7, 6

    def fields_of(self, where, rng):
        """A scalar, a face field with stale values in every halo, and the
        workspace that holds them (None for plain fields)."""
        ws = StepWorkspace(self.NX, self.NY)
        ws.fields[...] = rng.uniform(-5.0, 5.0, ws.fields.shape)
        if where == "plain":
            return (
                ScalarField(ws.psi.values.copy()),
                VectorField(ws.courant.comp_x.copy(), ws.courant.comp_y.copy()),
                None,
            )
        assert ws.psi.values.strides[0] > 8 * ws.psi.values.shape[1]
        return ws.psi, ws.courant, ws

    @pytest.mark.parametrize("where", ["plain", "workspace"])
    def test_scalar_fill(self, where, rng):
        fld, _, ws = self.fields_of(where, rng)
        fld.interior[...] = awkward(rng, fld.interior.shape)
        before = None if ws is None else ws.fields.copy()
        want = reference_fill_scalar(ScalarField(fld.values.copy())).values
        assert (want == 0.0).sum() > 2 * HALO and np.isnan(want).sum() > 3  # clipped cells, NaN lines
        fill_halos_scalar(fld)
        np.testing.assert_array_equal(bits(fld.values), bits(want))
        if ws is not None:  # nothing outside the view is written
            before[0, :self.NX + 2 * HALO, :self.NY + 2 * HALO] = want
            np.testing.assert_array_equal(bits(ws.fields), bits(before))

    @pytest.mark.parametrize("where", ["plain", "workspace"])
    def test_vector_fill(self, where, rng):
        _, fld, ws = self.fields_of(where, rng)
        fld.interior_x[...] = awkward(rng, fld.interior_x.shape)
        fld.interior_y[...] = awkward(rng, fld.interior_y.shape)
        before = None if ws is None else ws.fields.copy()
        want = reference_fill_vector(VectorField(fld.comp_x.copy(), fld.comp_y.copy()))
        fill_halos_vector(fld)
        np.testing.assert_array_equal(bits(fld.comp_x), bits(want.comp_x))
        np.testing.assert_array_equal(bits(fld.comp_y), bits(want.comp_y))
        if ws is not None:
            before[1, :, :self.NY + 2 * HALO] = want.comp_x
            before[2, :self.NX + 2 * HALO, :] = want.comp_y
            np.testing.assert_array_equal(bits(ws.fields), bits(before))

    def test_smallest_interior(self, rng):
        scalar = ScalarField(np.zeros((6, 6)))
        scalar.interior[...] = rng.uniform(-1.0, 3.0, (2, 2))
        want = reference_fill_scalar(scalar.copy()).values
        np.testing.assert_array_equal(bits(fill_halos_scalar(scalar).values), bits(want))
        vector = VectorField(np.zeros((5, 5)), np.full((5, 5), -0.5))  # one real face each
        vector.interior_x[...] = 0.25
        vector.interior_y[...] = 0.75
        fill_halos_vector(vector)
        np.testing.assert_array_equal(vector.comp_x, 0.25)
        np.testing.assert_array_equal(vector.comp_y, 0.75)


def wrap_scalar(fld: ScalarField) -> ScalarField:
    """The exported C torus fill ``wrap`` of a scalar, as a periodic march runs it."""
    library().wrap(*fld.c_values, fld.nx, fld.ny)
    return fld


def wrap_vector(fld: VectorField) -> VectorField:
    """``wrap`` of both face components with the x period of C_y's real rows
    and the y period of C_x's real columns, as a periodic march runs it."""
    periods = fld.c_comp_y[1], fld.c_comp_x[2]
    library().wrap(*fld.c_comp_x, *periods)
    library().wrap(*fld.c_comp_y, *periods)
    return fld


class TestPeriodicFillsMatchReference:
    """The C torus fill (``wrap``) gives the numpy periodic fills' bits
    (``oracles``), on plain fields and on workspace views."""

    NX, NY = 7, 6
    fields_of = TestFillsMatchReference.fields_of

    @pytest.mark.parametrize("where", ["plain", "workspace"])
    def test_scalar_fill(self, where, rng):
        fld, _, ws = self.fields_of(where, rng)
        fld.interior[...] = awkward(rng, fld.interior.shape)
        before = None if ws is None else ws.fields.copy()
        want = reference_periodic_fill_scalar(ScalarField(fld.values.copy())).values
        assert np.isnan(want).sum() > np.isnan(fld.interior).sum()  # NaNs wrapped into the halo
        wrap_scalar(fld)
        np.testing.assert_array_equal(bits(fld.values), bits(want))
        if ws is not None:  # nothing outside the view is written
            before[0, :self.NX + 2 * HALO, :self.NY + 2 * HALO] = want
            np.testing.assert_array_equal(bits(ws.fields), bits(before))

    @pytest.mark.parametrize("where", ["plain", "workspace"])
    def test_vector_fill(self, where, rng):
        _, fld, ws = self.fields_of(where, rng)
        fld.interior_x[...] = awkward(rng, fld.interior_x.shape)
        fld.interior_y[...] = awkward(rng, fld.interior_y.shape)
        before = None if ws is None else ws.fields.copy()
        want = reference_periodic_fill_vector(VectorField(fld.comp_x.copy(), fld.comp_y.copy()))
        wrap_vector(fld)
        np.testing.assert_array_equal(bits(fld.comp_x), bits(want.comp_x))
        np.testing.assert_array_equal(bits(fld.comp_y), bits(want.comp_y))
        if ws is not None:
            before[1, :, :self.NY + 2 * HALO] = want.comp_x
            before[2, :self.NX + 2 * HALO, :] = want.comp_y
            np.testing.assert_array_equal(bits(ws.fields), bits(before))

    @pytest.mark.parametrize("nx, ny", [(2, 3), (1, 2), (4, 5), (1, 1)])
    def test_every_element_takes_its_value_one_period_in(self, nx, ny, rng):
        # periods shorter than the halo too: element a takes real element
        # h + (a - h) mod p, which is the periodic extension
        def extension(a, p0, p1):
            rows, cols = (HALO + (np.arange(n) - HALO) % p for n, p in zip(a.shape, (p0, p1)))
            return a[np.ix_(rows, cols)]

        vec = VectorField(rng.uniform(size=(nx + 1 + 2 * HALO, ny + 2 * HALO)),
                          rng.uniform(size=(nx + 2 * HALO, ny + 1 + 2 * HALO)))
        want = extension(vec.comp_x, nx, ny), extension(vec.comp_y, nx, ny)
        wrap_vector(vec)
        np.testing.assert_array_equal(vec.comp_x, want[0])
        np.testing.assert_array_equal(vec.comp_y, want[1])
        if nx > 1:  # a scalar needs two real cells per axis
            psi = ScalarField(rng.uniform(size=(nx + 2 * HALO, ny + 2 * HALO)))
            want = extension(psi.values, nx, ny)
            np.testing.assert_array_equal(wrap_scalar(psi).values, want)


class TestLayoutGuard:
    """An array whose layout the kernels' indices do not fit is refused
    before its address reaches C."""

    def test_not_float64(self):
        with pytest.raises(ConfigurationError, match="float64"):
            fill_halos_scalar(ScalarField(np.zeros((9, 8), dtype=np.float32)))

    def test_inner_stride(self):
        with pytest.raises(ConfigurationError, match="strides"):
            fill_halos_scalar(ScalarField(np.zeros((9, 8), order="F")))
        with pytest.raises(ConfigurationError, match="strides"):
            fill_halos_vector(VectorField(np.zeros((10, 16))[:, ::2], np.zeros((9, 9))))

    def test_too_small(self):
        # one interior cell along x: the extrapolation needs two
        with pytest.raises(ConfigurationError, match="at least 2"):
            fill_halos_scalar(ScalarField(np.zeros((5, 8))))
        with pytest.raises(ConfigurationError, match="at least 1"):
            fill_halos_vector(VectorField(np.zeros((4, 8)), np.zeros((4, 9))))
        # a scalar's record is the fill's, so the stencils refuse it too
        with pytest.raises(ConfigurationError, match="at least 2"):
            upwind_step(ScalarField(np.ones((5, 8))), VectorField(np.zeros((6, 8)), np.zeros((5, 9))))

    def test_read_only(self):
        values = np.zeros((9, 8))
        values.flags.writeable = False
        with pytest.raises(ConfigurationError, match="writable"):
            fill_halos_scalar(ScalarField(values))
        comp_y = np.zeros((9, 9))
        comp_y.flags.writeable = False
        with pytest.raises(ConfigurationError, match="writable"):
            fill_halos_vector(VectorField(np.zeros((10, 8)), comp_y))

    def test_scan_accepts_read_only(self):
        # check_stability only reads the Courant field
        vec = VectorField.zeros(SPEC)
        vec.comp_x[...] = -0.5
        vec.comp_x.flags.writeable = vec.comp_y.flags.writeable = False
        report = check_stability(vec, 0.0, 1.0, 1.0)
        assert report.ok and report.max_abs_courant_x == 0.5


class TestFrozenLayout:
    """A field is a frozen dataclass of its arrays, and each kernel call makes
    the records of the arrays that the field holds then."""

    @pytest.mark.parametrize("cls, name", [(ScalarField, "values"), (VectorField, "comp_x"),
                                           (VectorField, "comp_y")])
    def test_arrays_cannot_be_replaced(self, cls, name):
        fld = cls.zeros(SPEC)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(fld, name, getattr(fld, name))

    @pytest.mark.parametrize("twin", [copy.copy, copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))])
    def test_copies_make_their_own_records(self, twin):
        fld = fill_halos_vector(VectorField.zeros(SPEC))
        other = fill_halos_vector(twin(fld))
        assert other.c_comp_y[0].value == other.comp_y.ctypes.data
