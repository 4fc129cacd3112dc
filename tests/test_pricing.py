import gc
import math
import re
import weakref

import numpy as np
import pytest

from asianpde import _step, advection, grid, pricing
from asianpde.advection import SolverOptions, StabilityReport, StepWorkspace, mpdata_step
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
    _step_runs,
)
import oracles
from oracles import periodic_mpdata_step, reference_periodic_fill_scalar, reference_periodic_fill_vector

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

    @pytest.mark.parametrize(
        "rate, maturity, message",
        [
            (3000.0, 1.0, "the growth factor exp(rate * maturity) overflows at rate = 3000, maturity = 1"),
            (-3000.0, 1.0, "the discount factor exp(-rate * maturity) overflows at rate = -3000, maturity = 1"),
            (1e200, 1e200, "the growth factor exp(rate * maturity) overflows at rate = 1e+200, maturity = 1e+200"),
        ],
    )
    def test_overflowing_growth_or_discount_refused(self, rate, maturity, message):
        # the paths grow like exp(rate t); a price is discounted by exp(-rate T)
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            sample_instrument(rate=rate, maturity=maturity)


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

    def test_strike_outside_domain_refused(self):
        # the payoff kink would lie off the grid; a strike on an edge is resolved
        above, below = GridSpec(0.0, 1.0, 0.0, 50.0, 4, 10), GridSpec(0.0, 1.0, 10.0, 50.0, 4, 10)
        with pytest.raises(ConfigurationError, match="^strike 100 lies above amax = 50; raise --amax above the strike"):
            terminal_condition(sample_instrument(strike=100.0), above)
        with pytest.raises(ConfigurationError, match="^strike 5 lies below the A domain, which starts at 10$"):
            terminal_condition(sample_instrument(strike=5.0), below)
        for spec, strike in ((above, 50.0), (below, 10.0)):
            terminal_condition(sample_instrument(strike=strike), spec)


def _step_sizes(maturity, dt):
    return [step for step, count in _step_runs(maturity, dt) for _ in range(count)]


class TestStepSizes:
    def test_maturity_below_half_step_gives_one_step(self):
        assert _step_sizes(0.4e-3, 1e-3) == [0.4e-3]

    def test_exact_division(self):
        steps = _step_sizes(0.5, 1.0 / 1760.0)
        assert len(steps) == 880
        assert all(s == 1.0 / 1760.0 for s in steps)

    def test_fractional_tail(self):
        steps = _step_sizes(1.05e-3, 1e-3)
        assert len(steps) == 2
        assert steps[0] == 1e-3
        assert steps[1] == pytest.approx(0.05e-3)

    def test_total_duration_preserved(self):
        for maturity in (0.5, 0.7331, 1.0, 0.251):
            steps = _step_sizes(maturity, 1.0 / 500.0)
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
        # the layout checks run once per march call, not once per step
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

    def test_march_calls_do_not_grow_with_steps(self, monkeypatch):
        # the whole march of one step length is one C call
        calls = []
        march = _step.library().march

        def counted(*args):
            calls.append(None)
            return march(*args)

        monkeypatch.setattr(_step.library(), "march", counted)
        spec = grid_from_price_domain(50.0, 200.0, 200.0, 8, 8)
        counts = []
        for n_steps in (20, 40):
            calls.clear()
            integrate(sample_instrument(), spec, dt=0.5 / n_steps, opts=OPTS)
            counts.append(len(calls))
        assert counts == [1, 1]

    @pytest.mark.parametrize(
        "nx, ny, dt, maturity, sizes",
        [
            (102, 121, 1.0 / 1760.0, 0.5, [880]),  # price_mpdata, 10.9M cell-steps
            (102, 121, 1.0 / 1760.0, 1.0, [1760]),  # the table's 12-month rows
            (204, 242, 1.0 / 7040.0, 0.5, [679] * 5 + [125]),  # price_upwind_fine
            (128, 128, 1.0 / 2048.0, 1.0, [2048]),  # 2**25 cell-steps
            (128, 128, 1.0 / 2049.0, 1.0, [2048, 1]),  # one step more
        ],
        ids=["price_mpdata", "table-12mo", "price_upwind_fine", "at-bound", "above-bound"],
    )
    def test_march_calls_bounded_in_cell_steps(self, monkeypatch, nx, ny, dt, maturity, sizes):
        # Python sees a Ctrl-C only between C march calls, so none runs more
        # than MARCH_CALL_CELL_STEPS cell-steps
        asked = []

        def ran_all(*args):
            asked.append(args[11])  # n_steps, after psi's record, the 6 face arrays and psi's second buffer
            return args[11]

        monkeypatch.setattr(_step.library(), "march", ran_all)
        spec = grid_from_price_domain(50.0, 200.0, 200.0, nx, ny)
        integrate(sample_instrument(maturity=maturity), spec, dt=dt, opts=OPTS)
        assert asked == sizes

    @pytest.mark.parametrize(
        "a_max, message",
        [(50.0, "strike 100 lies above amax = 50"), (1e20, "strike 100 and spot 100 lie inside the first two A cells")],
    )
    def test_unresolvable_instrument_refused_before_the_march(self, monkeypatch, a_max, message):
        # terminal_condition refuses what the grid cannot resolve: no C march call runs
        marched = []
        monkeypatch.setattr(_step.library(), "march", lambda *args: marched.append(None))
        spec = grid_from_price_domain(50.0, 200.0, a_max, 8, 8)
        with pytest.raises(ConfigurationError, match=message):
            integrate(sample_instrument(), spec, dt=0.05, opts=OPTS)
        assert marched == []

    @pytest.mark.parametrize("per_call", [1, 4, 18])
    def test_march_calls_carry_the_step_index(self, monkeypatch, per_call):
        # cut into calls of per_call steps, the march stops at the same step
        # with the same error and psi as in one call; with 18 the failing
        # step is the first of a call
        spec = grid_from_price_domain(50.0, 200.0, 400.0, 8, 8)
        inst = InstrumentSpec("call", 100.0, 0.5, 1.04, 8.86, 100.0)
        marched, made = [], []
        march = _step.library().march
        holding = StepWorkspace.holding.__func__

        def recorded(*args):
            marched.append(None)
            return march(*args)

        def tracked(cls, *args):
            made.append(holding(cls, *args))
            return made[-1]

        monkeypatch.setattr(_step.library(), "march", recorded)
        monkeypatch.setattr(StepWorkspace, "holding", classmethod(tracked))
        with pytest.raises(StabilityError) as whole:
            integrate(inst, spec, dt=0.0125, opts=OPTS)
        assert len(marched) == 1
        psi_whole = made[0].psi.values.tobytes()
        marched.clear()
        made.clear()
        monkeypatch.setattr(advection, "MARCH_CALL_CELL_STEPS", 64 * per_call)
        with pytest.raises(StabilityError) as cut:
            integrate(inst, spec, dt=0.0125, opts=OPTS)
        assert len(marched) == 18 // per_call + 1
        assert cut.value.step_index == whole.value.step_index == 18
        assert str(cut.value) == str(whole.value) and cut.value.report == whole.value.report
        assert made[0].psi.values.tobytes() == psi_whole

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

    def test_mass_conserved_under_periodic_test_fill(self):
        # integrate's step sequence with the periodic fills, which
        # integrate's own march never uses
        spec = grid_from_price_domain(50.0, 200.0, 200.0, 24, 24)
        inst = sample_instrument(kind="call", strike=1e-6, maturity=0.1, sigma=0.0, rate=0.0)
        tr = make_transform(inst)
        psi = terminal_condition(inst, spec)
        before = psi.interior.sum()
        for _ in range(100):
            reference_periodic_fill_scalar(psi)
            courant = reference_periodic_fill_vector(build_courant(psi, tr, spec, -1e-3))
            psi = periodic_mpdata_step(psi, courant, OPTS)
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

    # (a_max, n_iters) -> (step, max |C_x|, max |C_y|): sigma 1.04 and r 8.86 on 8x8
    # cells and dt = 0.0125 march stably until C_x, rebuilt from psi every step, passes 1
    LATE_FAILURES = {
        (400.0, 2): (18, 1.0503451671793067, 0.09170040432046707),
        (200.0, 2): (5, 1.0503451671793067, 0.18340080864093414),
        (400.0, 4): (16, 1.0503451671793067, 0.09170040432046707),
    }

    @pytest.mark.parametrize("key", sorted(LATE_FAILURES), ids=lambda k: f"amax{k[0]:g}-iters{k[1]}")
    def test_stability_violation_after_step_zero(self, key):
        a_max, n_iters = key
        step, max_cx, max_cy = self.LATE_FAILURES[key]
        spec = grid_from_price_domain(50.0, 200.0, a_max, 8, 8)
        inst = InstrumentSpec("call", 100.0, 0.5, 1.04, 8.86, 100.0)
        with pytest.raises(StabilityError) as err:
            integrate(inst, spec, dt=0.0125, opts=SolverOptions(n_iters=n_iters))
        violation = "advective criterion violated in x: max |C_x| = 1.05035 > 1"
        assert err.value.step_index == step
        assert str(err.value) == f"stability violation at step {step}: {violation}"
        assert err.value.report == StabilityReport(
            ok=False,
            max_abs_courant_x=max_cx,
            max_abs_courant_y=max_cy,
            diffusion_number=0.45024173797113337,
            violations=(violation,),
        )

    def test_failing_step_leaves_psi_alone(self, monkeypatch):
        # the check of the failing step runs before psi takes its update: psi
        # is the field the steps before it made, on any split of the rows,
        # though the step's upwind pass has run into the second buffer; at
        # 3 iterations the 15 passes before step 5 leave the field there
        marched = []
        march = StepWorkspace.march

        def recorded(ws, *args, **kwargs):
            marched.append(ws)
            return march(ws, *args, **kwargs)

        monkeypatch.setattr(StepWorkspace, "march", recorded)
        inst = InstrumentSpec("call", 100.0, 0.5, 1.04, 8.86, 100.0)
        tr = make_transform(inst)
        for a_max, opts, step in ((400.0, OPTS, 18), (200.0, SolverOptions(n_iters=3), 5)):
            spec = grid_from_price_domain(50.0, 200.0, a_max, 8, 8)
            for threads in (1, 2, 3):
                marched.clear()
                with pytest.raises(StabilityError) as err:
                    integrate(inst, spec, dt=0.0125, opts=opts, threads=threads)
                assert err.value.step_index == step
                psi = terminal_condition(inst, spec)
                for _ in range(step):
                    courant = fill_halos_vector(build_courant(fill_halos_scalar(psi), tr, spec, -0.0125))
                    psi = mpdata_step(psi, courant, opts)
                assert marched[0].psi.values.tobytes() == fill_halos_scalar(psi).values.tobytes(), (a_max, threads)

    @pytest.mark.parametrize("n_iters", [1, 2, 3])
    def test_overflow_fails_the_next_check(self, monkeypatch, n_iters):
        # a cell 0 among neighbours of 1.3e308 overflows to inf in the first
        # upwind pass (C_x = -0.87 and C_y up to -0.84: an outflow sum above 1);
        # the next field built from psi is NaN: the first corrective field,
        # which carries no step index, or with one iteration step 1's C_x
        def huge(inst, spec):
            psi = ScalarField.zeros(spec)
            psi.interior[:] = 1.3e308
            psi.interior[5, 4] = 0.0
            return psi

        monkeypatch.setattr(pricing, "terminal_condition", huge)
        spec = grid_from_price_domain(50.0, 200.0, 35.0, 8, 8)
        inst = InstrumentSpec("call", 10.0, 0.5, 0.0, 15.0, 100.0)
        # the same failure on any split of the rows, one a thread included
        for threads in (1, 2, 3, 8):
            with pytest.raises(StabilityError) as err:
                integrate(inst, spec, dt=0.01, opts=SolverOptions(n_iters=n_iters), threads=threads)
            report = err.value.report
            assert math.isnan(report.max_abs_courant_x) and report.diffusion_number == 0.0
            if n_iters == 1:
                assert err.value.step_index == 1 and report.max_abs_courant_y == 0.8384036966442704
                assert str(err.value) == "stability violation at step 1: " + report.violations[0]
            else:
                assert err.value.step_index is None and math.isnan(report.max_abs_courant_y)
                assert str(err.value) == "stability violation: " + "; ".join(report.violations)
                assert len(report.violations) == 2

    @pytest.mark.parametrize("n_iters", [1, 2, 3])
    @pytest.mark.parametrize("bad", [1.3e308, math.nan])
    def test_put_overflow_above_the_payoff_fails_as_full_width(self, monkeypatch, n_iters, bad):
        # the put's payoff is +0.0 from column 3 up, so a band taken from it
        # would end below column 7; the march scans psi for its band, so the
        # 1.3e308 block above overflows at its zero cell (as above), or the
        # NaN fails the first check, in the same step as the full-width passes
        spec = grid_from_price_domain(50.0, 200.0, 52.5, 8, 12)
        inst = InstrumentSpec("put", 10.0, 0.5, 0.0, 15.0, 100.0)
        psi = terminal_condition(inst, spec)
        assert psi.interior[:, :3].all() and not psi.interior[:, 3:].any()
        psi.interior[:, 8:] = bad
        psi.interior[5, 9] = 0.0
        monkeypatch.setattr(pricing, "terminal_condition", lambda inst, spec: psi.copy())
        ran, stepped = [], []  # the steps each side completed
        march, step = StepWorkspace.march, oracles.full_width_step

        def recorded(ws, *args, **kwargs):
            try:
                march(ws, *args, **kwargs)
            finally:
                ran.append(ws.steps)

        def counted(*args):
            result = step(*args)
            stepped.append(None)
            return result

        monkeypatch.setattr(StepWorkspace, "march", recorded)
        monkeypatch.setattr(oracles, "full_width_step", counted)
        opts = SolverOptions(n_iters=n_iters)
        with pytest.raises(StabilityError) as err:
            integrate(inst, spec, dt=0.01, opts=opts)
        with pytest.raises(StabilityError) as want:
            oracles.full_width_integrate(psi.copy(), inst, spec, 0.01, opts)
        assert (str(err.value), err.value.step_index) == (str(want.value), want.value.step_index)
        assert ran == [len(stepped)] == [0 if math.isnan(bad) or n_iters > 1 else 1]

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
        psi4 = ScalarField(4.0 * psi1.values)
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
