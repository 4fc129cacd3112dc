import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asianpde import advection, pricing
from asianpde._step import HALO, library
from asianpde.advection import (
    SolverOptions,
    StabilityReport,
    StepWorkspace,
    antidiffusive_courant,
    check_stability,
    mpdata_step,
    nonoscillatory_limit,
    upwind_step,
)
from asianpde.errors import ConfigurationError, StabilityError
from asianpde.grid import (
    GridSpec,
    ScalarField,
    VectorField,
    fill_halos_scalar,
    fill_halos_vector,
)
from asianpde.pricing import InstrumentSpec, build_courant, make_transform
from conftest import random_courant, random_positive_field, wrap_courant
from oracles import (
    factor_a,
    factor_b,
    flux,
    periodic_mpdata_step,
    reference_periodic_fill_scalar,
    reference_periodic_fill_vector,
    transverse_mean_courant,
)

SPEC = GridSpec(0.0, 1.0, 0.0, 1.0, 12, 10)


def filled_pair(rng, bound=0.22, spec=SPEC):
    psi = random_positive_field(spec, rng)
    vec = wrap_courant(random_courant(spec, rng, bound))
    reference_periodic_fill_scalar(psi)
    reference_periodic_fill_vector(vec)
    return psi, vec


class TestSolverOptions:
    def test_defaults(self):
        opts = SolverOptions()
        assert opts.n_iters == 2 and opts.nonoscillatory

    @pytest.mark.parametrize("kwargs", [dict(n_iters=0)])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SolverOptions(**kwargs)


class TestFlux:
    def test_zero_courant(self):
        assert flux(1.0, 5.0, 0.0) == 0.0

    def test_positive_courant_takes_left(self):
        assert flux(2.0, 7.0, 0.5) == 1.0

    def test_negative_courant_takes_right(self):
        assert flux(2.0, 4.0, -0.25) == -1.0

    @settings(max_examples=100)
    @given(
        st.floats(0, 1e6), st.floats(0, 1e6), st.floats(-1, 1, allow_nan=False)
    )
    def test_upwind_selection(self, left, right, c):
        value = flux(left, right, c)
        assert value == (c * left if c > 0 else c * right if c < 0 else 0.0)


class TestFactorA:
    def test_equal_neighbours(self):
        assert factor_a(3.0, 3.0) == 0.0

    def test_simple_ratio(self):
        assert factor_a(1.0, 3.0) == 0.5

    def test_vanishing_denominator_guard(self):
        assert factor_a(0.0, 0.0) == 0.0

    @settings(max_examples=100)
    @given(st.floats(0, 1e9), st.floats(0, 1e9))
    def test_bounded_by_one(self, a, b):
        assert abs(factor_a(a, b)) <= 1.0


class TestFactorB:
    @staticmethod
    def field_with(values):
        fld = ScalarField.zeros(SPEC)
        fld.interior[:] = 1.0
        for (i, j), v in values.items():
            fld.interior[i, j] = v
        fill_halos_scalar(fld)
        return fld

    def test_uniform_field(self):
        fld = self.field_with({})
        assert factor_b(fld, 4, 4, 0) == 0.0

    def test_transverse_step(self):
        # face (4+1/2, 4): neighbours above (cells (4,5),(5,5)) = 2, below = 0
        fld = self.field_with({(4, 5): 2.0, (5, 5): 2.0, (4, 3): 0.0, (5, 3): 0.0})
        assert factor_b(fld, 4, 4, 0) == 0.5 * (4.0 - 0.0) / 4.0

    def test_all_neighbours_zero(self):
        fld = ScalarField.zeros(SPEC)
        fill_halos_scalar(fld)
        assert factor_b(fld, 4, 4, 0) == 0.0

    def test_invalid_dimension(self):
        with pytest.raises(ConfigurationError):
            factor_b(self.field_with({}), 4, 4, 2)


class TestTransverseMeanCourant:
    def test_uniform_transverse(self):
        vec = VectorField.zeros(SPEC)
        vec.comp_y[:] = 0.7
        assert transverse_mean_courant(vec, 3, 3, 0, 1) == pytest.approx(0.7)

    def test_mean_of_four(self):
        vec = VectorField.zeros(SPEC)
        h = HALO
        vec.comp_y[h + 3, h + 3] = 0.1
        vec.comp_y[h + 4, h + 3] = 0.2
        vec.comp_y[h + 3, h + 4] = 0.3
        vec.comp_y[h + 4, h + 4] = 0.4
        assert transverse_mean_courant(vec, 3, 3, 0, 1) == pytest.approx(0.25)

    def test_zero_field(self):
        vec = VectorField.zeros(SPEC)
        assert transverse_mean_courant(vec, 2, 2, 1, 0) == 0.0

    def test_same_dimension_rejected(self):
        with pytest.raises(ConfigurationError):
            transverse_mean_courant(VectorField.zeros(SPEC), 2, 2, 1, 1)


class TestUpwindStep:
    def test_constant_field_divergence_free_flow(self):
        psi = ScalarField.zeros(SPEC)
        psi.interior[:] = 2.5
        vec = VectorField.zeros(SPEC)
        vec.comp_x[:] = 0.4
        vec.comp_y[:] = -0.3
        fill_halos_scalar(psi)
        out = upwind_step(psi, vec)
        np.testing.assert_allclose(out.interior, 2.5, rtol=1e-14)

    def test_unit_courant_translates_pulse(self):
        psi = ScalarField.zeros(SPEC)
        psi.interior[4, 5] = 1.0
        vec = VectorField.zeros(SPEC)
        vec.comp_x[:] = 1.0
        fill_halos_scalar(psi)
        out = upwind_step(psi, vec)
        assert out.interior[5, 5] == 1.0
        assert out.interior[4, 5] == 0.0
        assert out.interior.sum() == 1.0

    def test_periodic_conservation(self, rng):
        psi, vec = filled_pair(rng)
        before = psi.interior.sum()
        out = upwind_step(psi, vec)
        assert abs(out.interior.sum() - before) <= 1e-12 * before

    def test_clip_turns_negative_zero_positive(self):
        # numpy's maximum(x, 0.0) gives +0.0 for x = -0.0; so does the C clip
        psi = ScalarField.zeros(GridSpec(0.0, 1.0, 0.0, 1.0, 4, 4))
        psi.values[...] = 1.0
        psi.interior[1, 2] = -0.0
        out = upwind_step(psi, VectorField.zeros(GridSpec(0.0, 1.0, 0.0, 1.0, 4, 4)))
        assert out.interior[1, 2].view(np.uint64) == 0
        assert (out.interior == 1.0).sum() == 15

    def test_courant_above_one_rejected(self):
        psi = ScalarField.zeros(SPEC)
        vec = VectorField.zeros(SPEC)
        vec.comp_x[:] = 1.2
        fill_halos_scalar(psi)
        with pytest.raises(StabilityError):
            upwind_step(psi, vec)

    @pytest.mark.parametrize(
        "run",
        [upwind_step, lambda psi, vec: mpdata_step(psi, vec, SolverOptions())],
        ids=["upwind_step", "mpdata_step"],
    )
    def test_courant_above_one_rejected_on_workspace_arrays(self, run):
        # the fields of a workspace get no trust: they are copied and checked like any other
        ws = StepWorkspace(SPEC.nx, SPEC.ny)
        ws.psi.values[...] = 1.0
        ws.courant.comp_x[...] = 5.0
        before = ws.fields.copy()
        with pytest.raises(StabilityError):
            run(ws.psi, ws.courant)
        np.testing.assert_array_equal(ws.fields, before)

    def test_refused_row_buffers_raise_memory_error(self, monkeypatch):
        # march, upwind and limit return -1, having written nothing, when
        # they cannot allocate the row buffers of their sweep; build_courant
        # builds C_x in upwind's
        kernels = library()

        class Refusing:
            def __getattr__(self, name):
                return getattr(kernels, name)

            def march(self, *args):
                return -1

            upwind = limit = march

        monkeypatch.setattr(advection, "library", Refusing)
        monkeypatch.setattr(pricing, "library", Refusing)
        psi, vec = ScalarField.zeros(SPEC), VectorField.zeros(SPEC)
        with pytest.raises(MemoryError, match="row buffers"):
            upwind_step(psi, vec)
        with pytest.raises(MemoryError, match="row buffers"):
            build_courant(psi, make_transform(InstrumentSpec("call", 100.0, 0.5, 0.3, 0.1, 100.0)), SPEC, -0.001)
        with pytest.raises(MemoryError, match="row buffers"):
            nonoscillatory_limit(psi, vec)
        ws = StepWorkspace.holding(psi, vec)
        with pytest.raises(MemoryError, match="row buffers"):
            ws.march(3, SolverOptions())
        assert ws.steps == 0


class TestAntidiffusiveCourant:
    def test_uniform_field_gives_zero(self):
        psi = ScalarField.zeros(SPEC)
        psi.interior[:] = 3.0
        vec = VectorField.zeros(SPEC)
        vec.comp_x[:] = 0.5
        vec.comp_y[:] = 0.25
        fill_halos_scalar(psi)
        out = antidiffusive_courant(psi, vec)
        np.testing.assert_array_equal(out.interior_x, 0.0)
        np.testing.assert_array_equal(out.interior_y, 0.0)

    def test_unit_courant_kills_leading_term(self):
        # x-varying field, y-uniform: B = 0, so C' = |C|(1-|C|) A = 0 at |C| = 1
        psi = ScalarField.zeros(SPEC)
        psi.interior[:] = np.linspace(1, 2, SPEC.nx)[:, None]
        vec = VectorField.zeros(SPEC)
        vec.comp_x[:] = 1.0
        vec.comp_y[:] = 0.3
        fill_halos_scalar(psi)
        out = antidiffusive_courant(psi, vec)
        np.testing.assert_array_equal(out.interior_x, 0.0)

    def test_one_dimensional_magnitude(self):
        # C = 0.5, A = 0.5 across the face, no transverse flow -> 0.125
        psi = ScalarField.zeros(SPEC)
        psi.interior[:] = 1.0
        psi.interior[5:, :] = 3.0
        vec = VectorField.zeros(SPEC)
        vec.comp_x[:] = 0.5
        fill_halos_scalar(psi)
        out = antidiffusive_courant(psi, vec)
        h = HALO
        assert out.comp_x[h + 5, h + 4] == pytest.approx(0.125)

    def test_matches_pointwise_composition(self, rng):
        psi, vec = filled_pair(rng)
        out = antidiffusive_courant(psi, vec)
        h = HALO
        for i in range(-1, SPEC.nx):
            for j in range(SPEC.ny):
                c = vec.comp_x[h + i + 1, h + j]
                want = abs(c) * (1 - abs(c)) * factor_a(
                    psi.values[h + i, h + j], psi.values[h + i + 1, h + j]
                ) - c * transverse_mean_courant(vec, i, j, 0, 1) * factor_b(psi, i, j, 0)
                assert out.comp_x[h + i + 1, h + j] == pytest.approx(want, abs=1e-15)
        for i in range(SPEC.nx):
            for j in range(-1, SPEC.ny):
                c = vec.comp_y[h + i, h + j + 1]
                want = abs(c) * (1 - abs(c)) * factor_a(
                    psi.values[h + i, h + j], psi.values[h + i, h + j + 1]
                ) - c * transverse_mean_courant(vec, i, j, 1, 0) * factor_b(psi, i, j, 1)
                assert out.comp_y[h + i, h + j + 1] == pytest.approx(want, abs=1e-15)


class TestNonoscillatoryLimit:
    def test_zero_corrective_field(self, rng):
        psi, _ = filled_pair(rng)
        zero = VectorField.zeros(SPEC)
        out = nonoscillatory_limit(psi, zero)
        assert not out.comp_x.any() and not out.comp_y.any()

    def test_monotone_ramp_small_correction_untouched(self):
        psi = ScalarField.zeros(SPEC)
        psi.interior[:] = 1.0 + np.arange(SPEC.nx)[:, None] / SPEC.nx
        fill_halos_scalar(psi)
        vec = VectorField.zeros(SPEC)
        vec.comp_x[:] = 1e-3
        fill_halos_vector(vec)
        out = nonoscillatory_limit(psi, vec)
        np.testing.assert_array_equal(out.interior_x, vec.interior_x)
        np.testing.assert_array_equal(out.interior_y, vec.interior_y)

    def test_step_function_extrema_bounded(self, rng):
        # corrective pass after limiting must not create values outside the
        # local min/max of the field entering the pass
        psi = ScalarField.zeros(SPEC)
        psi.interior[:] = 0.1
        psi.interior[4:8, 3:7] = 1.0
        vec = wrap_courant(random_courant(SPEC, rng, bound=0.22))
        reference_periodic_fill_scalar(psi)
        reference_periodic_fill_vector(vec)
        stepped = upwind_step(psi, vec)
        reference_periodic_fill_scalar(stepped)
        corrective = antidiffusive_courant(stepped, vec)
        reference_periodic_fill_vector(corrective)
        limited = nonoscillatory_limit(stepped, corrective)
        reference_periodic_fill_vector(limited)
        out = upwind_step(stepped, limited)
        lo, hi = _local_extrema_3x3(stepped)
        assert np.all(out.interior <= hi + 1e-14)
        assert np.all(out.interior >= lo - 1e-14)


def _local_extrema_3x3(psi: ScalarField):
    """Min/max over each interior cell's 3x3 neighbourhood (halos must be filled)."""
    h = HALO
    nx, ny = psi.nx, psi.ny
    views = [
        psi.values[h + di:h + di + nx, h + dj:h + dj + ny]
        for di in (-1, 0, 1)
        for dj in (-1, 0, 1)
    ]
    return np.minimum.reduce(views), np.maximum.reduce(views)


class TestMpdataStep:
    def test_single_iteration_is_upwind(self, rng):
        psi, vec = filled_pair(rng)
        via_mpdata = periodic_mpdata_step(psi, vec, SolverOptions(n_iters=1))
        via_upwind = upwind_step(psi, vec)
        np.testing.assert_array_equal(via_mpdata.interior, via_upwind.interior)

    def test_uniform_field_unchanged(self):
        psi = ScalarField.zeros(SPEC)
        psi.interior[:] = 1.7
        vec = VectorField.zeros(SPEC)
        vec.comp_x[:] = 0.3
        vec.comp_y[:] = 0.2
        for n_iters in (1, 2, 3):
            out = periodic_mpdata_step(psi, vec, SolverOptions(n_iters=n_iters))
            np.testing.assert_allclose(out.interior, 1.7, rtol=1e-14)

    @pytest.mark.parametrize("nonosc", [False, True])
    def test_periodic_conservation(self, rng, nonosc):
        psi, vec = filled_pair(rng)
        opts = SolverOptions(n_iters=3, nonoscillatory=nonosc)
        before = psi.interior.sum()
        out = periodic_mpdata_step(psi, vec, opts)
        assert abs(out.interior.sum() - before) <= 1e-12 * before

    @pytest.mark.parametrize("nonosc", [False, True])
    def test_positivity_exact(self, rng, nonosc):
        opts = SolverOptions(n_iters=3, nonoscillatory=nonosc)
        for _ in range(5):
            psi = random_positive_field(SPEC, rng, lo=0.0, hi=1.0)
            psi.interior[rng.integers(0, SPEC.nx), :] = 0.0  # exercise vanishing denominators
            vec = wrap_courant(random_courant(SPEC, rng, bound=0.22))
            out = periodic_mpdata_step(psi, vec, opts)
            assert np.all(out.interior >= 0.0)

    def test_corrective_iterations_reduce_translation_error(self):
        from asianpde.benchmarks import run_translation

        err1 = run_translation(48, SolverOptions(n_iters=1, nonoscillatory=False)).error
        err2 = run_translation(48, SolverOptions(n_iters=2, nonoscillatory=False)).error
        assert err2 < err1


class TestCheckStability:
    @staticmethod
    def uniform(cx, cy):
        vec = VectorField.zeros(SPEC)
        vec.comp_x[:] = cx
        vec.comp_y[:] = cy
        return vec

    def test_passing_report(self):
        # |C| = 0.5 everywhere and diffusion number 0.25
        report = check_stability(self.uniform(0.5, 0.5), nu=-0.125, dt=1.0, dx=1.0)
        assert report.ok
        assert report.max_abs_courant_x == pytest.approx(0.5)
        assert report.diffusion_number == pytest.approx(0.25)
        assert report.violations == ()

    def test_advective_violation(self):
        report = check_stability(self.uniform(1.2, 0.0), nu=0.0, dt=1.0, dx=1.0)
        assert not report.ok
        assert any("advective" in v and "1.2" in v for v in report.violations)

    def test_diffusive_violation(self):
        # 2 |nu| dt / dx^2 = 0.6
        report = check_stability(self.uniform(0.1, 0.1), nu=-0.3, dt=1.0, dx=1.0)
        assert not report.ok
        assert any("diffusive" in v and "0.6" in v for v in report.violations)

    def test_unit_courant_allowed(self):
        assert check_stability(self.uniform(1.0, -1.0), nu=0.0, dt=1.0, dx=1.0).ok

    @pytest.mark.parametrize("component", ["x", "y"])
    def test_nan_courant_rejected(self, component):
        vec = self.uniform(0.5, 0.5)
        getattr(vec, f"interior_{component}")[3, 3] = np.nan
        assert not check_stability(vec, nu=0.0, dt=1.0, dx=1.0).ok
        psi = fill_halos_scalar(random_positive_field(SPEC, np.random.default_rng(7)))
        with pytest.raises(StabilityError):
            upwind_step(psi, vec)

    @pytest.mark.parametrize("case", ["random", "inf", "-inf", "negative zeros"])
    def test_reports_numpy_max_abs(self, case):
        rng = np.random.default_rng(len(case))
        vec = random_courant(SPEC, rng, bound=3.0)
        vec.interior_x[rng.random(vec.interior_x.shape) < 0.2] = -0.0
        vec.interior_y[rng.random(vec.interior_y.shape) < 0.2] = -0.0
        if case == "inf":
            vec.interior_x[-1, 2] = np.inf
        elif case == "-inf":
            vec.interior_y[0, -1] = -np.inf
        elif case == "negative zeros":
            vec.interior_y[...] = -0.0
        # halo faces are not scanned
        halo = np.ones(vec.comp_x.shape, dtype=bool)
        halo[2:-2, 2:-2] = False
        vec.comp_x[halo] = np.nan
        vec.comp_y[:, :2] = 9.0
        report = check_stability(vec, nu=0.0, dt=1.0, dx=1.0)
        for got, comp in ((report.max_abs_courant_x, vec.interior_x), (report.max_abs_courant_y, vec.interior_y)):
            want = np.max(np.abs(comp))
            assert type(got) is float
            assert np.float64(got).view(np.uint64) == want.view(np.uint64)

    @pytest.mark.parametrize("face", [(0, 0), (-1, -1)])
    @pytest.mark.parametrize("component", ["x", "y"])
    def test_nan_on_edge_face_rejected(self, component, face):
        vec = self.uniform(0.5, 0.5)
        getattr(vec, f"interior_{component}")[face] = np.nan
        report = check_stability(vec, nu=0.0, dt=1.0, dx=1.0)
        assert not report.ok and np.isnan(getattr(report, f"max_abs_courant_{component}"))
        psi = fill_halos_scalar(random_positive_field(SPEC, np.random.default_rng(7)))
        with pytest.raises(StabilityError):
            upwind_step(psi, vec)

    @pytest.mark.parametrize("periodic", [False, True])
    def test_mpdata_step_reports_like_the_guard(self, periodic):
        # the physical field's report carries step index 0, a corrective
        # field's none; neither carries a diffusion number
        step = periodic_mpdata_step if periodic else mpdata_step
        psi, vec = filled_pair(np.random.default_rng(7))
        vec.comp_x[...] = -1.25
        with pytest.raises(StabilityError) as err:
            step(psi, vec, SolverOptions(n_iters=2))
        violation = "advective criterion violated in x: max |C_x| = 1.25 > 1"
        assert err.value.step_index == 0 and str(err.value) == f"stability violation at step 0: {violation}"
        max_cy = np.abs(vec.interior_y).max()
        assert err.value.report == StabilityReport(False, 1.25, max_cy, 0.0, (violation,))
        vec.comp_x[...] = 0.2
        psi.interior[3, 3] = np.nan
        with pytest.raises(StabilityError) as err:
            step(psi, vec, SolverOptions(n_iters=2))
        report = err.value.report
        assert err.value.step_index is None and report.diffusion_number == 0.0
        assert math.isnan(report.max_abs_courant_x) and math.isnan(report.max_abs_courant_y)
        assert str(err.value) == "stability violation: " + "; ".join(report.violations)

    def test_nan_corrective_field_rejected(self):
        # a NaN cell makes the antidiffusive field NaN around it, which the
        # guard on every corrective field must refuse
        psi, vec = filled_pair(np.random.default_rng(7))
        psi.interior[3, 3] = np.nan
        with pytest.raises(StabilityError):
            periodic_mpdata_step(psi, vec, SolverOptions(n_iters=2))


class TestNanPropagation:
    """One NaN cell stays visible through every kernel: a max or min that
    turned NaN into 0 would hide a broken field behind a finite price."""

    SPEC = GridSpec(0.0, 1.0, 0.0, 1.0, 8, 8)

    def nan_pair(self):
        rng = np.random.default_rng(11)
        psi = random_positive_field(self.SPEC, rng, lo=0.5, hi=1.5)
        psi.interior[3, 3] = np.nan
        vec = random_courant(self.SPEC, rng)
        return fill_halos_scalar(psi), fill_halos_vector(vec)

    def test_upwind_step(self):
        psi, vec = self.nan_pair()
        want = np.zeros((8, 8), dtype=bool)
        want[3, 3] = want[2, 3] = want[4, 3] = want[3, 2] = want[3, 4] = True
        np.testing.assert_array_equal(np.isnan(upwind_step(psi, vec).interior), want)
        out = mpdata_step(psi, vec, SolverOptions(n_iters=1))
        np.testing.assert_array_equal(np.isnan(out.interior), want)

    def test_antidiffusive_courant(self):
        psi, vec = self.nan_pair()
        out = antidiffusive_courant(psi, vec)
        assert np.isnan(out.interior_x).sum() == 6  # 2 faces of the cell, 4 through B
        assert np.isnan(out.interior_y).sum() == 6

    def test_nonoscillatory_limit(self):
        psi, vec = self.nan_pair()
        out = nonoscillatory_limit(psi, vec)
        assert np.isnan(out.interior_x).sum() == 8
        assert np.isnan(out.interior_y).sum() == 8

    def test_build_courant(self):
        psi, _ = self.nan_pair()
        inst = InstrumentSpec("call", 100.0, 0.5, 0.3, 0.1, 100.0)
        out = build_courant(psi, make_transform(inst), self.SPEC, -0.001)
        assert np.isnan(out.interior_x).sum() == 2
        assert not np.isnan(out.interior_y).any()
