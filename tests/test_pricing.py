import gc
import math
import pickle
import weakref

import numpy as np
import pytest

from asianpde import _step, advection, grid, pricing
from asianpde.advection import SolverOptions, StepWorkspace, check_stability, mpdata_step
from asianpde.benchmarks import periodic_fill_scalar, periodic_fill_vector
from asianpde.errors import ConfigurationError, StabilityError
from asianpde.grid import GridSpec, ScalarField, fill_halos_scalar, fill_halos_vector
from asianpde.pricing import (
    InstrumentSpec,
    Transform,
    build_courant,
    grid_from_price_domain,
    integrate,
    make_transform,
    readout,
    row_values,
    terminal_condition,
    _step_sizes,
)

OPTS = SolverOptions(n_iters=2, nonoscillatory=True)


def sample_instrument(**overrides):
    base = dict(kind="call", strike=100.0, maturity=0.5, sigma=0.2, rate=0.1, spot=100.0)
    base.update(overrides)
    return InstrumentSpec(**base)


class TestInstrumentSpec:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(kind="straddle"),
            dict(strike=0.0),
            dict(maturity=0.0),
            dict(sigma=-0.1),
            dict(spot=-5.0),
            dict(sigma=math.nan),
            dict(rate=math.nan),
            dict(rate=math.inf),
            dict(maturity=math.inf),
        ],
    )
    def test_invalid_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            sample_instrument(**overrides)


class TestMakeTransform:
    def test_drift_cancels_at_matching_vol(self):
        tr = make_transform(sample_instrument(rate=0.08, sigma=0.4))
        assert tr.u == pytest.approx(0.0, abs=1e-16)
        assert tr.nu == pytest.approx(-0.08, rel=1e-15)

    def test_zero_vol_degenerates_to_pure_drift(self):
        tr = make_transform(sample_instrument(rate=0.07, sigma=0.0))
        assert tr.u == 0.07
        assert tr.nu == 0.0

    def test_standard_values(self):
        tr = make_transform(sample_instrument(rate=0.1, sigma=0.2))
        assert tr.u == pytest.approx(0.08)
        assert tr.nu == pytest.approx(-0.02)
        assert tr.T == 0.5

    def test_positive_nu_rejected(self):
        with pytest.raises(ConfigurationError):
            Transform(u=0.1, nu=0.01, T=1.0)


class TestGridFromPriceDomain:
    def test_log_extents(self):
        spec = grid_from_price_domain(50.0, 200.0, 200.0, 10, 12)
        assert spec.x_min == pytest.approx(math.log(50.0))
        assert spec.x_max == pytest.approx(math.log(200.0))
        assert spec.y_min == 0.0 and spec.y_max == 200.0

    def test_nonpositive_smin_rejected(self):
        with pytest.raises(ConfigurationError):
            grid_from_price_domain(0.0, 200.0, 200.0, 10, 10)


class TestBuildCourant:
    SPEC = GridSpec(math.log(50.0), math.log(200.0), 0.0, 200.0, 10, 8)

    def filled_uniform(self, value=2.0):
        psi = ScalarField.zeros(self.SPEC)
        psi.interior[:] = value
        return fill_halos_scalar(psi)

    def test_uniform_field_reduces_to_drift(self):
        tr = Transform(u=0.08, nu=-0.02, T=0.5)
        vec = build_courant(self.filled_uniform(), tr, self.SPEC, dt=0.001)
        np.testing.assert_allclose(vec.interior_x, 0.001 * 0.08 / self.SPEC.dx, rtol=1e-13)

    def test_zero_vol_is_pure_drift_even_with_gradient(self):
        psi = ScalarField.zeros(self.SPEC)
        psi.interior[:] = np.linspace(1, 4, self.SPEC.nx)[:, None]
        fill_halos_scalar(psi)
        tr = Transform(u=0.1, nu=0.0, T=0.5)
        vec = build_courant(psi, tr, self.SPEC, dt=0.001)
        np.testing.assert_allclose(vec.interior_x, 0.001 * 0.1 / self.SPEC.dx, rtol=1e-13)

    def test_y_component_is_price_over_horizon(self):
        tr = Transform(u=0.0, nu=0.0, T=1.0)
        dt = 0.002
        vec = build_courant(self.filled_uniform(), tr, self.SPEC, dt=dt)
        expected = (dt / self.SPEC.dy) * np.exp(self.SPEC.x_centres) / tr.T
        np.testing.assert_allclose(
            vec.interior_y, np.broadcast_to(expected[:, None], vec.interior_y.shape), rtol=1e-13
        )
        # spot value 100 advects the running sum at speed 100 / T
        i = int(np.argmin(np.abs(self.SPEC.x_centres - math.log(100.0))))
        assert vec.interior_y[i, 0] == pytest.approx(
            (dt / self.SPEC.dy) * math.exp(self.SPEC.x_centres[i]), rel=1e-12
        )

    def test_pseudo_velocity_sign_diffuses_backward_marching(self):
        # increasing psi in x with nu < 0 and negative (backward) dt must
        # push mass down-gradient: the face velocity gains a negative term
        psi = ScalarField.zeros(self.SPEC)
        psi.interior[:] = np.linspace(1, 4, self.SPEC.nx)[:, None]
        fill_halos_scalar(psi)
        tr = Transform(u=0.0, nu=-0.02, T=0.5)
        vec = build_courant(psi, tr, self.SPEC, dt=-0.001)
        assert np.all(vec.interior_x < 0.0)


class TestTerminalCondition:
    def test_call_cell_below_strike_is_zero(self):
        spec = GridSpec(0.0, 1.0, 0.0, 200.0, 4, 25)  # dy = 8
        inst = sample_instrument(strike=100.0)
        fld = terminal_condition(inst, spec)
        assert fld.interior[0, 0] == 0.0  # cell [0, 8]
        assert fld.interior[0, 11] == 0.0  # cell [88, 96], still below K

    def test_cell_straddling_strike(self):
        # cell [K - dy/2, K + dy/2]: average payoff dy/8, here dy = 8 -> 1
        spec = GridSpec(0.0, 1.0, 0.0, 200.0, 4, 25)
        inst = sample_instrument(strike=100.0)
        fld = terminal_condition(inst, spec)
        j = 12  # cell [96, 104]
        disc = math.exp(-inst.rate * inst.maturity)
        assert fld.interior[0, j] == pytest.approx(disc * spec.dy / 8.0, rel=1e-13)

    def test_put_with_vanishing_strike_is_zero_field(self):
        spec = GridSpec(0.0, 1.0, 0.0, 200.0, 4, 25)
        inst = sample_instrument(kind="put", strike=1e-9)
        fld = terminal_condition(inst, spec)
        assert np.max(fld.interior) <= 1e-18

    def test_linear_in_money_region(self):
        spec = GridSpec(0.0, 1.0, 0.0, 200.0, 4, 25)
        inst = sample_instrument(strike=100.0)
        fld = terminal_condition(inst, spec)
        disc = math.exp(-inst.rate * inst.maturity)
        centre = spec.y_centres[20]  # fully in the money
        assert fld.interior[0, 20] == pytest.approx(disc * (centre - 100.0), rel=1e-13)

    def test_strike_outside_domain_warns(self):
        spec = GridSpec(0.0, 1.0, 0.0, 50.0, 4, 10)
        with pytest.warns(UserWarning, match="outside the averaging domain"):
            terminal_condition(sample_instrument(strike=100.0), spec)


class TestStepSizes:
    def test_maturity_below_half_step_gives_one_step(self):
        assert list(_step_sizes(0.4e-3, 1e-3)) == [0.4e-3]

    def test_exact_division(self):
        steps = list(_step_sizes(0.5, 1.0 / 1760.0))
        assert len(steps) == 880
        assert all(s == 1.0 / 1760.0 for s in steps)

    def test_fractional_tail(self):
        steps = list(_step_sizes(1.05e-3, 1e-3))
        assert len(steps) == 2
        assert steps[0] == 1e-3
        assert steps[1] == pytest.approx(0.05e-3)

    def test_total_duration_preserved(self):
        for maturity in (0.5, 0.7331, 1.0, 0.251):
            steps = list(_step_sizes(maturity, 1.0 / 500.0))
            assert sum(steps) == pytest.approx(maturity, rel=1e-9)


class TestIntegrate:
    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
    def test_invalid_step_rejected(self, dt):
        spec = grid_from_price_domain(50.0, 200.0, 200.0, 8, 8)
        with pytest.raises(ConfigurationError, match="dt"):
            integrate(sample_instrument(), spec, dt=dt, opts=OPTS)

    def test_below_half_step_refused(self):
        # the one step of length T moves y by dt * S / T = S per step: far past |C_y| <= 1
        spec = grid_from_price_domain(50.0, 200.0, 200.0, 8, 8)
        inst = sample_instrument(maturity=1e-4)
        with pytest.raises(StabilityError, match="advective criterion violated in y"):
            integrate(inst, spec, dt=1e-3, opts=OPTS)

    def test_zero_vol_zero_rate_recovers_spot(self):
        # K -> 0 call has payoff A(T); with r = sigma = 0 the value is the
        # time-average of the deterministic flat path: the spot itself
        spec = grid_from_price_domain(50.0, 200.0, 200.0, 64, 96)
        inst = sample_instrument(kind="call", strike=1e-6, maturity=1.0, sigma=0.0, rate=0.0)
        psi = integrate(inst, spec, dt=1.0 / 400.0, opts=OPTS)
        price = readout(psi, inst, spec)
        assert price == pytest.approx(100.0, rel=2e-3)

    def test_zero_vol_deterministic_average(self):
        # A(T) = S0 (e^{rT} - 1) / (rT); value error is dominated by the
        # payoff-kink smearing of the pure-advection problem
        spec = grid_from_price_domain(50.0, 200.0, 200.0, 101, 121)
        inst = sample_instrument(maturity=1.0, sigma=0.0, rate=0.1)
        exact = math.exp(-0.1) * (100.0 * (math.exp(0.1) - 1.0) / 0.1 - 100.0)
        psi = integrate(inst, spec, dt=1.0 / 440.0, opts=OPTS)
        price = readout(psi, inst, spec)
        assert price == pytest.approx(exact, rel=0.10)

    def test_layout_checks_do_not_grow_with_steps(self, monkeypatch):
        # each field checks its arrays' layout once, not once per kernel call
        calls = []

        def counted(*args):
            calls.append(None)
            return check(*args)

        check = _step.dims
        for module in (_step, grid, advection):
            if getattr(module, "dims", None) is check:
                monkeypatch.setattr(module, "dims", counted)
        spec = grid_from_price_domain(50.0, 200.0, 200.0, 8, 8)
        counts = []
        for n_steps in (20, 40):
            calls.clear()
            integrate(sample_instrument(), spec, dt=0.5 / n_steps, opts=OPTS)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_workspaces_freed_without_the_cycle_collector(self, monkeypatch):
        # a reference cycle through the workspace would keep every finished
        # march's arrays alive until the cyclic collector ran
        made = []
        holding = StepWorkspace.holding.__func__

        def tracked(cls, *args):
            ws = holding(cls, *args)
            made.append(weakref.ref(ws))
            return ws

        monkeypatch.setattr(StepWorkspace, "holding", classmethod(tracked))
        spec = grid_from_price_domain(50.0, 200.0, 200.0, 8, 8)
        gc.disable()
        try:
            psi = integrate(sample_instrument(), spec, dt=0.05, opts=SolverOptions(n_iters=3))
            fill_halos_scalar(psi)
            courant = fill_halos_vector(build_courant(psi, make_transform(sample_instrument()), spec, -0.05))
            mpdata_step(psi, courant, OPTS)
            freed = [ref() is None for ref in made]
        finally:
            gc.enable()
        assert len(freed) == 3 and all(freed)  # integrate's, build_courant's, mpdata_step's
        assert psi.values.base is None

    def test_mass_conserved_under_periodic_test_fill(self, monkeypatch):
        # integrate and mpdata_step look their fills up at call time
        for module in (pricing, advection):
            monkeypatch.setattr(module, "fill_halos_scalar", periodic_fill_scalar)
            monkeypatch.setattr(module, "fill_halos_vector", periodic_fill_vector)
        spec = grid_from_price_domain(50.0, 200.0, 200.0, 24, 24)
        inst = sample_instrument(kind="call", strike=1e-6, maturity=0.1, sigma=0.0, rate=0.0)
        psi0 = terminal_condition(inst, spec)
        before = psi0.interior.sum()
        psi = integrate(inst, spec, dt=1e-3, opts=OPTS)
        assert abs(psi.interior.sum() - before) <= 1e-11 * before

    def test_sample_valuation_profile_shape(self):
        # figure configuration: the terminal y-ramp develops x-dependence but
        # stays monotone in y and non-negative
        spec = grid_from_price_domain(50.0, 200.0, 200.0, 21, 31)
        inst = sample_instrument(rate=0.08, maturity=1.0, sigma=0.4)
        psi = integrate(inst, spec, dt=1.0 / 500.0, opts=OPTS)
        interior = psi.interior
        assert np.all(interior >= 0.0)
        assert np.all(np.diff(interior, axis=1) >= -1e-9)  # monotone in y
        assert readout(psi, inst, spec) > 0.0

    def test_stability_violation_aborts_with_step_index(self):
        spec = grid_from_price_domain(50.0, 200.0, 200.0, 200, 50)
        inst = sample_instrument(sigma=0.4)
        with pytest.raises(StabilityError) as err:
            integrate(inst, spec, dt=1.0 / 1760.0, opts=OPTS)
        assert err.value.step_index == 0
        assert "diffusive" in str(err.value)
        assert not err.value.report.ok

    @pytest.mark.parametrize("prefix", ["", "table row sigma=0.4 T=6mo K=100 call: "])
    def test_stability_error_survives_pickling(self, prefix):
        # a pool worker pickles the error, after run_table may have rewritten its args
        spec = grid_from_price_domain(50.0, 200.0, 200.0, 200, 50)
        with pytest.raises(StabilityError) as err:
            integrate(sample_instrument(sigma=0.4), spec, dt=1.0 / 1760.0, opts=OPTS)
        exc = err.value
        exc.args = (prefix + exc.args[0],)
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is StabilityError
        assert str(copy) == str(exc) and copy.args == exc.args
        assert copy.report == exc.report and copy.step_index == exc.step_index == 0

    @pytest.mark.parametrize("nonosc", [False, True])
    def test_scaling_terminal_condition_scales_readout(self, nonosc):
        # the scheme is homogeneous in the field (psi ratios and FCT ratios
        # are scale-invariant): a power-of-two factor on the terminal
        # condition reaches the readout bit-exactly; field cells whose value
        # decays to the epsilon-guard scale (~1e-15) may differ there
        spec = grid_from_price_domain(50.0, 200.0, 200.0, 32, 32)
        opts = SolverOptions(n_iters=2, nonoscillatory=nonosc)
        inst = sample_instrument()
        tr = make_transform(inst)
        psi1 = terminal_condition(inst, spec)
        psi4 = ScalarField(4.0 * psi1.values, psi1.halo)
        dt = 1.0 / 500.0
        for _ in range(60):
            for psi in (psi1, psi4):
                fill_halos_scalar(psi)
            c1 = fill_halos_vector(build_courant(psi1, tr, spec, -dt))
            c4 = fill_halos_vector(build_courant(psi4, tr, spec, -dt))
            psi1 = mpdata_step(psi1, c1, opts)
            psi4 = mpdata_step(psi4, c4, opts)
        assert 4.0 * readout(psi1, inst, spec) == readout(psi4, inst, spec)
        np.testing.assert_allclose(psi4.interior, 4.0 * psi1.interior, rtol=1e-12, atol=5e-14)


class TestReadout:
    @staticmethod
    def field_with_rows(spec, row0, row1):
        fld = ScalarField.zeros(spec)
        fld.interior[:, 0] = row0
        fld.interior[:, 1] = row1
        return fld

    def test_spot_on_cell_centre(self):
        # grid built so that ln(spot) falls exactly on a cell centre
        dx = 0.01
        x0 = math.log(100.0)
        spec = GridSpec(x0 - 10.5 * dx, x0 + 10.5 * dx, 0.0, 10.0, 21, 5)
        fld = self.field_with_rows(spec, np.arange(21.0), np.arange(21.0))
        inst = sample_instrument()
        # with identical first two rows the edge extrapolation degenerates
        assert readout(fld, inst, spec) == pytest.approx(10.0, abs=1e-9)

    def test_edge_extrapolation_from_two_rows(self):
        dx = 0.01
        x0 = math.log(100.0)
        spec = GridSpec(x0 - 10.5 * dx, x0 + 10.5 * dx, 0.0, 10.0, 21, 5)
        fld = self.field_with_rows(spec, np.full(21, 3.0), np.full(21, 5.0))
        # rows at dy/2 and 3 dy/2 holding 3 and 5 extrapolate to 2 at y = 0
        assert readout(fld, sample_instrument(), spec) == pytest.approx(2.0)

    def test_negative_extrapolation_clipped(self):
        dx = 0.01
        x0 = math.log(100.0)
        spec = GridSpec(x0 - 10.5 * dx, x0 + 10.5 * dx, 0.0, 10.0, 21, 5)
        fld = self.field_with_rows(spec, np.full(21, 1.0), np.full(21, 9.0))
        assert readout(fld, sample_instrument(), spec) == 0.0

    def test_zero_field_prices_zero(self):
        spec = grid_from_price_domain(50.0, 200.0, 200.0, 8, 8)
        fld = ScalarField.zeros(spec)
        assert readout(fld, sample_instrument(), spec) == 0.0

    def test_spot_outside_readout_range_rejected(self):
        spec = grid_from_price_domain(50.0, 200.0, 200.0, 8, 8)
        with pytest.raises(ConfigurationError, match="outside the readout range"):
            readout(ScalarField.zeros(spec), sample_instrument(spot=49.0), spec)
        with pytest.raises(ConfigurationError):
            readout(ScalarField.zeros(spec), sample_instrument(spot=199.9), spec)

    def test_row_values_clip_at_zero(self):
        spec = grid_from_price_domain(50.0, 200.0, 200.0, 8, 8)
        fld = self.field_with_rows(spec, np.full(8, 1.0), np.full(8, 9.0))
        assert np.all(row_values(fld) == 0.0)
