import hashlib

import numpy as np
import pytest

from asianpde import advection
from asianpde._step import HALO
from asianpde.advection import SolverOptions, StabilityReport
from asianpde.benchmarks import (
    constant_courant,
    convergence_study,
    gaussian_field,
    gaussian_values,
    l2_error,
    run_translation,
    unit_square,
)
from asianpde.errors import StabilityError
from asianpde.grid import ScalarField, VectorField
from oracles import (
    observed_order,
    periodic_mpdata_step,
    reference_periodic_fill_scalar,
    reference_periodic_fill_vector,
    split_mpdata_step,
)


class TestPeriodicFills:
    def test_scalar_wrap(self, rng):
        spec = unit_square(6)
        fld = ScalarField.zeros(spec)
        fld.interior[:] = rng.uniform(0, 1, fld.interior.shape)
        reference_periodic_fill_scalar(fld)
        h = HALO
        np.testing.assert_array_equal(fld.values[h - 1, h:-h], fld.values[h + 5, h:-h])
        np.testing.assert_array_equal(fld.values[h + 6, h:-h], fld.values[h, h:-h])
        np.testing.assert_array_equal(fld.values[h:-h, h - 1], fld.values[h:-h, h + 5])

    def test_vector_wrap_makes_boundary_faces_coincide(self, rng):
        spec = unit_square(6)
        fld = VectorField.zeros(spec)
        fld.interior_x[:] = rng.uniform(-1, 1, fld.interior_x.shape)
        fld.interior_y[:] = rng.uniform(-1, 1, fld.interior_y.shape)
        reference_periodic_fill_vector(fld)
        h = HALO
        np.testing.assert_array_equal(fld.comp_x[h, :], fld.comp_x[h + 6, :])
        np.testing.assert_array_equal(fld.comp_y[:, h], fld.comp_y[:, h + 6])


class TestTranslation:
    def test_zero_velocity_gives_zero_error(self):
        res = run_translation(24, SolverOptions(n_iters=2), courant=(0.0, 0.0))
        assert res.error == pytest.approx(0.0, abs=1e-13)

    def test_periodised_gaussian_smooth_at_seam(self):
        spec = unit_square(32)
        vals = gaussian_values(spec, (0.0, 0.5), 0.1)
        # the pulse centred on the seam is symmetric across it
        np.testing.assert_allclose(vals[0, :], vals[-1, :], rtol=1e-12)

    def test_courant_over_one_refused(self):
        # the march stops before the first update and raises its error at step 0
        with pytest.raises(StabilityError) as err:
            run_translation(16, SolverOptions(2), courant=(1.5, 0.2))
        violation = "advective criterion violated in x: max |C_x| = 1.5 > 1"
        assert err.value.step_index == 0 and str(err.value) == f"stability violation at step 0: {violation}"
        assert err.value.report == StabilityReport(False, 1.5, 0.2, 0.0, (violation,))

    def test_errors_decrease_with_iterations(self):
        errs = [
            run_translation(48, SolverOptions(n_iters=k, nonoscillatory=False)).error
            for k in (1, 2, 3)
        ]
        assert errs[0] > errs[1] > errs[2]


class TestConvergenceStudy:
    def test_orders_and_structure(self):
        levels = convergence_study(16, 3, SolverOptions(n_iters=2, nonoscillatory=False))
        assert [lvl.n for lvl in levels] == [16, 32, 64]
        assert levels[0].order is None
        assert levels[1].order is not None and levels[1].order > 1.0
        assert observed_order(levels) > 1.0

    def test_upwind_first_order(self):
        levels = convergence_study(16, 3, SolverOptions(n_iters=1))
        assert 0.5 < observed_order(levels) < 1.3


# (n_iters, nonoscillatory) -> sha256 of the float64 bytes of the three errors
# of convergence_study(16, 3, opts), as the numpy periodic fills gave them
CONVERGENCE_DIGESTS = {
    (1, True): "326d551daf36bd6db6d99f9a32856093a7e6125d00bacc80ded470d040f8766d",
    (2, True): "580dabff80f3d8e8957fd383e6a697ac53d26df13c9cac2913156362c2451595",
    (3, True): "4837c3ad67d2b88079d93795ccd2fc76684bbf18c560595cfce4fcfbd56121b1",
    (1, False): "326d551daf36bd6db6d99f9a32856093a7e6125d00bacc80ded470d040f8766d",
    (2, False): "b26f8da910ad9cafedc52956e886a0343e844589cdc0fd739ace55a1267ac257",
    (3, False): "43a402e985a18d4de324d0678d9e9583ab9a22797e3a9e39b3ec9690fbc810f8",
}


@pytest.mark.parametrize("key", sorted(CONVERGENCE_DIGESTS), ids=lambda k: f"iters{k[0]}-nonosc{k[1]}")
def test_convergence_study_bytes(monkeypatch, key):
    # each level is one march: whole, then cut into C calls of 1, 3 and 7
    # steps of the 16x16 level's 11 (1 step a call at the finer levels)
    n_iters, nonosc = key
    for per_call in (None, 1, 3, 7):
        if per_call is not None:
            monkeypatch.setattr(advection, "MARCH_CALL_CELL_STEPS", 16 * 16 * per_call)
        levels = convergence_study(16, 3, SolverOptions(n_iters=n_iters, nonoscillatory=nonosc))
        errors = np.array([lvl.error for lvl in levels])
        assert hashlib.sha256(errors.tobytes()).hexdigest() == CONVERGENCE_DIGESTS[key], per_call


class TestSplitStep:
    def test_split_equals_unsplit_for_axis_aligned_flow(self, rng):
        # with zero transverse component the two agree except for the extra
        # (inert) pass of the composition
        spec = unit_square(16)
        psi = gaussian_field(spec)
        vec = constant_courant(spec, 0.3, 0.0)
        opts = SolverOptions(n_iters=2, nonoscillatory=False)
        full = periodic_mpdata_step(psi, vec, opts)
        split = split_mpdata_step(psi, vec, opts, periodic=True)
        np.testing.assert_allclose(split.interior, full.interior, rtol=1e-13, atol=1e-15)

    def test_split_conserves_mass(self, rng):
        spec = unit_square(16)
        psi = gaussian_field(spec)
        vec = constant_courant(spec, 0.3, 0.2)
        opts = SolverOptions(n_iters=2, nonoscillatory=True)
        out = split_mpdata_step(psi, vec, opts, periodic=True)
        assert out.interior.sum() == pytest.approx(psi.interior.sum(), rel=1e-12)
