"""Acceptance suite: one test per criterion, each printing a PASS line.

The full valuation table (default configuration: 102x121 cells over
S in [50, 200], A in [0, 200], dt = 1/1760, 2 corrective iterations with the
non-oscillatory limiter, A = 0 edge readout, seed 1) is computed once per
session and shared across criteria.

Reference prices are the published comparison table for fixed-strike Asian
options at spot 100 and rate 0.1 (maturities in months, values rounded to
3 significant digits): per row, the lattice reference value, the UPWIND and
2-iteration corrective finite-difference values, and the N=100000 Monte
Carlo value.
"""

import hashlib
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from asianpde._step import HALO
from asianpde.advection import (
    SolverOptions,
    antidiffusive_courant,
    nonoscillatory_limit,
    upwind_step,
)
from asianpde.benchmarks import (
    DEFAULT_CENTRE,
    constant_courant,
    convergence_study,
    gaussian_field,
    gaussian_values,
    l2_error,
    run_translation,
    translation_steps,
    unit_square,
)
from asianpde.cli import main as cli_main
from asianpde.config import RunConfig
from asianpde.errors import StabilityError
from asianpde.grid import ScalarField, VectorField
from asianpde.harness import VALUATION_HEADER, run_table, run_transect, write_csv
from asianpde.pricing import InstrumentSpec, grid_from_price_domain, integrate
from asianpde.reference import McConfig, mc_asian_price
from conftest import random_courant, random_positive_field, wrap_courant
from oracles import (
    observed_order,
    periodic_mpdata_step,
    reference_periodic_fill_scalar,
    reference_periodic_fill_vector,
    split_mpdata_step,
)

# (sigma, T_months, K, kind) -> (lattice_ref, upwind, mpdata_2it, mc_100k)
PUBLISHED = {
    (0.2, 6.0, 100.0, "call"): (4.55, 7.12, 4.77, 4.47),
    (0.2, 6.0, 100.0, "put"): (2.10, 4.61, 2.39, 2.09),
    (0.2, 6.0, 105.0, "call"): (2.24, 4.80, 2.65, 2.18),
    (0.2, 6.0, 105.0, "put"): (4.55, 7.03, 4.72, 4.55),
    (0.2, 12.0, 100.0, "call"): (7.08, 9.14, 7.19, 7.00),
    (0.2, 12.0, 100.0, "put"): (2.37, 4.31, 2.55, 2.36),
    (0.2, 12.0, 105.0, "call"): (4.54, 6.71, 4.76, 4.47),
    (0.2, 12.0, 105.0, "put"): (4.36, 6.38, 4.49, 4.36),
    (0.4, 6.0, 100.0, "call"): (7.65, 9.34, 7.76, 7.51),
    (0.4, 6.0, 100.0, "put"): (5.20, 6.80, 5.27, 5.16),
    (0.4, 6.0, 105.0, "call"): (5.44, 7.11, 5.59, 5.32),
    (0.4, 6.0, 105.0, "put"): (7.75, 9.30, 7.79, 7.73),
    (0.4, 12.0, 100.0, "call"): (11.2, 12.5, 11.3, 11.0),
    (0.4, 12.0, 100.0, "put"): (6.46, 7.68, 6.53, 6.46),
    (0.4, 12.0, 105.0, "call"): (8.99, 10.3, 9.11, 8.84),
    (0.4, 12.0, 105.0, "put"): (8.77, 9.96, 8.83, 8.78),
}

RUNTIME_BUDGET_SECONDS = 600.0

# sha256 of the default `asianpde table --seed 1` CSV and stdout.  The MC
# columns come from numpy's exp, pairwise sum and ziggurat, so, as with
# test_harness.TABLE_GOLDEN, another numpy build may move them
TABLE_CSV_SHA256 = "68fbb524c401875cdb2ec3344a009028a8604f690b40fc047c203d27cb0eaae2"
TABLE_STDOUT_SHA256 = "59f77728398f22e4c46e83d5ea332319777f4dfb6abb226867c216e988951e4c"


def _pass(number: int, label: str) -> None:
    print(f"ACCEPTANCE CRITERION {number} ({label}): PASS")


def _half_ulp_3_significant_digits(value: float) -> float:
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 2)


class TableResults:
    def __init__(self):
        start = time.perf_counter()
        rows, rendered = run_table(RunConfig())
        self.elapsed = time.perf_counter() - start
        self.rows = rows
        self.rendered = rendered
        self.cells = {}
        for sigma, t_months, strike, kind, method, price, err in rows:
            self.cells.setdefault((sigma, t_months, strike, kind), {})[method] = (price, err)

    def price(self, key, method):
        return self.cells[key][method][0]

    def std_error(self, key, method):
        return self.cells[key][method][1]


@pytest.fixture(scope="module")
def table():
    return TableResults()


# the figure's spot range ends at S = 200; the transect extends S and A to
# 400 with the figure grid's dx, dy and dt, so the truncated outflow edge
# sits well outside the columns that are checked
FIGURE_SMAX = 200.0


@pytest.fixture(scope="module")
def transect_rows():
    cfg = RunConfig(
        kind="call", rate=0.08, sigma=0.4, maturity_months=12.0,
        smax=400.0, amax=400.0, nx=32, ny=62,
        dt=1.0 / 500.0, paths=10000, steps=1000,
    )
    return run_transect(cfg)


class TestCriterion1TableReproduction:
    def test_mpdata_matches_published_table(self, table):
        worst_rel = 0.0
        for key, (lattice_ref, _, mpdata_ref, _) in PUBLISHED.items():
            price = table.price(key, "mpdata_2it")
            rel_paper = abs(price / mpdata_ref - 1.0)
            rel_lattice = abs(price / lattice_ref - 1.0)
            assert rel_paper <= 0.05, f"{key}: {price:.4f} vs {mpdata_ref} ({rel_paper:.2%})"
            assert rel_lattice <= 0.20, f"{key}: {price:.4f} vs lattice {lattice_ref}"
            worst_rel = max(worst_rel, rel_paper)
        assert table.elapsed < RUNTIME_BUDGET_SECONDS
        _pass(1, f"table reproduction; worst deviation {worst_rel:.2%}, "
                 f"{table.elapsed:.0f}s < {RUNTIME_BUDGET_SECONDS:.0f}s")


class TestCriterion2UpwindDiffusionSignature:
    def test_upwind_exceeds_and_matches(self, table):
        for key, (_, upwind_ref, _, _) in PUBLISHED.items():
            upwind = table.price(key, "upwind")
            mpdata = table.price(key, "mpdata_2it")
            assert upwind > mpdata, f"{key}: upwind {upwind:.4f} <= mpdata {mpdata:.4f}"
            rel = abs(upwind / upwind_ref - 1.0)
            assert rel <= 0.10, f"{key}: upwind {upwind:.4f} vs {upwind_ref} ({rel:.2%})"
        _pass(2, "UPWIND diffusion signature")


class TestCriterion3MonteCarloOracle:
    def test_mc_matches_published_column(self, table):
        # both estimates carry N=100000 sampling error and the published
        # value is rounded to 3 significant digits, so the tolerance is
        # 3 * sqrt(2) * SE plus the rounding half-ulp
        for key, (_, _, _, mc_ref) in PUBLISHED.items():
            price, std_error = table.cells[key]["mc_100k"]
            tolerance = 3.0 * math.sqrt(2.0) * std_error + _half_ulp_3_significant_digits(mc_ref)
            assert abs(price - mc_ref) <= tolerance, (
                f"{key}: mc {price:.4f} vs {mc_ref} (tol {tolerance:.4f})"
            )

    def test_deterministic_zero_vol_case(self):
        inst = InstrumentSpec("call", 100.0, 1.0, 0.0, 0.1, 100.0)
        average = 100.0 * (math.exp(0.1) - 1.0) / 0.1
        oracle = math.exp(-0.1) * (average - 100.0)
        result = mc_asian_price(inst, McConfig(1000, 1000, seed=1))
        assert result.price == pytest.approx(oracle, abs=1e-6)
        _pass(3, "Monte Carlo oracle")


class TestCriterion4GeometricLowerBound:
    def test_geometric_bound_everywhere(self, table, transect_rows):
        """The Kemna-Vorst geometric closed form bounds the arithmetic price:
        from below for calls, from above for puts.

        Pathwise the geometric average lies below the arithmetic one; call
        payoffs increase in the average and put payoffs decrease, so the
        bound holds for the exact price in these two directions only.

        - Calls: the 2-iteration price is at least the geometric call, with
          no tolerance, on every table row and on every transect column in
          the figure's range S <= 200.
        - Puts: the published lattice value is at most the geometric put,
          and the 100k-path Monte Carlo price at most the geometric put plus
          3 standard errors.  Both estimate the exact price.  No bound links
          the finite-difference put to the geometric put: at sigma = 0.2 the
          discretisation error lifts it above the geometric put, and only a
          price-level refinement study could bound that error.
        - The transect is computed on S in [50, 400] (see the fixture).  On
          the figure's own domain, which stops at S = 200, the
          linear-extrapolation outflow halo pulls the deep in-the-money
          columns below the bound.  Widening the averaging domain alone
          leaves that deficit unchanged, and on the wide domain it reappears
          next to the new edge (S >= 318), outside the checked columns.
        """
        failures = []
        for key, (lattice, _, _, _) in PUBLISHED.items():
            geometric = table.price(key, "geometric")
            if key[3] == "call":
                mpdata = table.price(key, "mpdata_2it")
                if not mpdata >= geometric:
                    failures.append(f"table {key}: mpdata {mpdata:.4f} < geometric {geometric:.4f}")
            else:
                if not lattice <= geometric:
                    failures.append(f"table {key}: lattice {lattice} > geometric {geometric:.4f}")
                mc_price, mc_err = table.cells[key]["mc_100k"]
                if not mc_price <= geometric + 3.0 * mc_err:
                    failures.append(
                        f"table {key}: mc {mc_price:.4f} > geometric {geometric:.4f} + 3 * {mc_err:.4f}"
                    )
        figure_columns = [row for row in transect_rows if row[0] <= FIGURE_SMAX]
        assert len(figure_columns) == 21  # as many as the figure grid has
        for s, _, mpdata2, _, _, _, geometric in figure_columns:
            if not mpdata2 >= geometric:
                failures.append(f"transect S={s:.2f}: mpdata {mpdata2:.4f} < geometric {geometric:.4f}")
        assert not failures, "geometric bound violated:\n" + "\n".join(failures)
        _pass(4, "geometric bound: PDE calls above it on table rows and transect S <= 200, "
                 "lattice and MC puts below it")


class TestCriterion5SchemeProperties:
    def test_conservation_under_periodic_fill(self):
        rng = np.random.default_rng(7)
        spec = unit_square(20)
        for trial in range(10):
            psi = random_positive_field(spec, rng)
            vec = wrap_courant(random_courant(spec, rng))
            opts = SolverOptions(n_iters=int(rng.integers(1, 4)), nonoscillatory=bool(trial % 2))
            before = psi.interior.sum()
            out = periodic_mpdata_step(psi, vec, opts)
            assert abs(out.interior.sum() - before) <= 1e-12 * before
        _pass(5, "conservation to 1e-12 relative per step")

    def test_positivity_exact(self):
        rng = np.random.default_rng(8)
        spec = unit_square(20)
        for trial in range(10):
            psi = random_positive_field(spec, rng, lo=0.0)
            psi.interior[rng.integers(0, 20), :] = 0.0
            vec = wrap_courant(random_courant(spec, rng))
            opts = SolverOptions(n_iters=int(rng.integers(1, 4)), nonoscillatory=bool(trial % 2))
            out = periodic_mpdata_step(psi, vec, opts)
            assert np.all(out.interior >= 0.0)
        _pass(5, "positivity, exact")

    def test_nonoscillatory_no_new_extrema_on_steps(self):
        # per the stencil definition: after limiting, each corrective pass
        # stays within the 3x3 extrema of the field entering that pass,
        # with zero tolerance; the whole step neither expands the global
        # range nor breaks monotone step profiles
        rng = np.random.default_rng(9)
        spec = unit_square(24)
        opts = SolverOptions(n_iters=3, nonoscillatory=True)
        for _ in range(4):
            psi = ScalarField.zeros(spec)
            psi.interior[:] = 0.05
            for _ in range(3):
                i0, j0 = rng.integers(0, 16, 2)
                psi.interior[i0:i0 + rng.integers(3, 8), j0:j0 + rng.integers(3, 8)] = rng.uniform(0.5, 2.0)
            vec = VectorField.zeros(spec)
            vec.comp_x[:] = rng.uniform(-0.45, 0.45)
            vec.comp_y[:] = rng.uniform(-0.45, 0.45)
            reference_periodic_fill_vector(vec)
            for _ in range(15):
                lo_global, hi_global = psi.interior.min(), psi.interior.max()
                reference_periodic_fill_scalar(psi)
                psi = upwind_step(psi, vec)
                current = vec
                for _ in range(opts.n_iters - 1):
                    reference_periodic_fill_scalar(psi)
                    corrective = antidiffusive_courant(psi, current)
                    reference_periodic_fill_vector(corrective)
                    corrective = nonoscillatory_limit(psi, corrective)
                    reference_periodic_fill_vector(corrective)
                    lo, hi = _extrema_3x3(psi)
                    psi = upwind_step(psi, corrective)
                    assert np.all(psi.interior <= hi)
                    assert np.all(psi.interior >= lo)
                    current = corrective
                assert psi.interior.max() <= hi_global
                assert psi.interior.min() >= lo_global
        self._monotone_step_profile_stays_monotone()
        _pass(5, "non-oscillatory variant, exact per the stencil definition")

    @staticmethod
    def _monotone_step_profile_stays_monotone():
        spec = unit_square(32)
        psi = ScalarField.zeros(spec)
        psi.interior[:] = 0.1
        psi.interior[16:, :] = 1.0  # 1D step, uniform transverse
        vec = VectorField.zeros(spec)
        vec.comp_x[:] = 0.4
        opts = SolverOptions(n_iters=2, nonoscillatory=True)
        for _ in range(10):
            psi = periodic_mpdata_step(psi, vec, opts)
        profile = psi.interior[:, 8]
        # range preserved exactly, and the profile stays bitonic on the
        # torus (one rising front, one falling front, no ringing)
        assert profile.min() >= 0.1
        assert profile.max() <= 1.0
        cyclic_diff = np.diff(np.append(profile, profile[0]))
        signs = np.sign(cyclic_diff[np.abs(cyclic_diff) > 1e-14])
        changes = int(np.sum(signs[1:] != signs[:-1])) + int(signs[0] != signs[-1])
        assert changes <= 2

    def test_convergence_orders(self):
        upwind = observed_order(convergence_study(24, 5, SolverOptions(n_iters=1)))
        corrective = observed_order(
            convergence_study(24, 5, SolverOptions(n_iters=2, nonoscillatory=True))
        )
        assert 0.8 <= upwind <= 1.2, f"upwind order {upwind:.3f}"
        assert corrective >= 1.8, f"2-iteration order {corrective:.3f}"
        _pass(5, f"orders: upwind {upwind:.2f}, corrective {corrective:.2f}")

    def test_unsplit_beats_split_composition(self):
        opts = SolverOptions(n_iters=2, nonoscillatory=False)
        courant, width, displacement = (0.1, 0.1), 0.12, 0.2
        unsplit = run_translation(64, opts, courant, width, displacement).error
        # the same translation as a loop of split steps
        spec = unit_square(64)
        n_steps = translation_steps(64, courant, displacement)
        psi, vec = gaussian_field(spec, width), constant_courant(spec, *courant)
        for _ in range(n_steps):
            psi = split_mpdata_step(psi, vec, opts, periodic=True)
        centre = (
            (DEFAULT_CENTRE[0] + n_steps * courant[0] * spec.dx) % 1.0,
            (DEFAULT_CENTRE[1] + n_steps * courant[1] * spec.dy) % 1.0,
        )
        split = l2_error(psi.interior, gaussian_values(spec, centre, width), spec)
        assert unsplit < split, f"2D {unsplit:.6e} vs split {split:.6e}"
        _pass(5, f"unsplit advantage at 64^2: {unsplit:.4e} < {split:.4e}")


def _extrema_3x3(psi: ScalarField):
    h = HALO
    nx, ny = psi.nx, psi.ny
    views = [
        psi.values[h + di:h + di + nx, h + dj:h + dj + ny]
        for di in (-1, 0, 1)
        for dj in (-1, 0, 1)
    ]
    return np.minimum.reduce(views), np.maximum.reduce(views)


class TestCriterion6StabilityGuard:
    def test_diffusive_violation_rejected_with_exit_code_3(self):
        result = CliRunner().invoke(cli_main, ["price", "--sigma", "0.4", "--nx", "200"])
        assert result.exit_code == 3
        assert "diffusive criterion" in result.output
        assert "2|nu| dt / dx^2" in result.output

    def test_advective_violation_rejected_with_exit_code_3(self):
        result = CliRunner().invoke(cli_main, ["price", "--sigma", "0.0", "--dt", "0.01"])
        assert result.exit_code == 3
        assert "advective criterion" in result.output
        assert "max |C_y|" in result.output

    def test_rejection_happens_before_any_field_update(self):
        spec = grid_from_price_domain(50.0, 200.0, 200.0, 200, 50)
        inst = InstrumentSpec("call", 100.0, 0.5, 0.4, 0.1, 100.0)
        with pytest.raises(StabilityError) as err:
            integrate(inst, spec, 1.0 / 1760.0, SolverOptions())
        assert err.value.step_index == 0
        assert err.value.report.diffusion_number > 0.5
        _pass(6, "stability guard, exit code 3 with attained maxima")


class TestCriterion7Determinism:
    def test_table_bytes_reproducible_across_runs_and_workers(self, tmp_path):
        runner = CliRunner()
        outputs = []
        for name, workers in (("a", 1), ("b", 1), ("c", 3)):
            out = tmp_path / f"table_{name}.csv"
            args = [
                "table", "--nx", "48", "--ny", "40", "--dt", str(1.0 / 400.0),
                "--seed", "1", "--workers", str(workers), "--out", str(out),
            ]
            result = runner.invoke(cli_main, args)
            assert result.exit_code == 0, result.output
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_default_table_bytes_pinned(self, table, tmp_path):
        # the rows through the CSV writer, and the text as the command echoes it
        out = tmp_path / "table.csv"
        write_csv(out, VALUATION_HEADER, table.rows)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == TABLE_CSV_SHA256
        assert hashlib.sha256((table.rendered + "\n").encode()).hexdigest() == TABLE_STDOUT_SHA256

    def test_mc_bytes_reproducible(self, tmp_path):
        runner = CliRunner()
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / f"mc_{name}.csv"
            args = ["mc", "--paths", "100000", "--steps", "1000", "--seed", "1", "--out", str(out)]
            result = runner.invoke(cli_main, args)
            assert result.exit_code == 0, result.output
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        _pass(7, "byte-reproducible table and mc commands")


class TestTableOrderingProperties:
    """Supplementary table invariants: strike monotonicity and the
    diffusion-ordering against the unbiased Monte Carlo reference."""

    def test_strike_monotonicity(self, table):
        for sigma in (0.2, 0.4):
            for t_months in (6.0, 12.0):
                call_100 = table.price((sigma, t_months, 100.0, "call"), "mpdata_2it")
                call_105 = table.price((sigma, t_months, 105.0, "call"), "mpdata_2it")
                put_100 = table.price((sigma, t_months, 100.0, "put"), "mpdata_2it")
                put_105 = table.price((sigma, t_months, 105.0, "put"), "mpdata_2it")
                assert call_100 >= call_105
                assert put_105 >= put_100

    def test_upwind_mpdata_reference_ordering(self, table):
        # numerical diffusion inflates the convex payoff: upwind sits above
        # the corrective scheme, which sits above the Monte Carlo reference
        for key in PUBLISHED:
            upwind = table.price(key, "upwind")
            mpdata = table.price(key, "mpdata_2it")
            mc_price, mc_err = table.cells[key]["mc_100k"]
            assert upwind > mpdata > mc_price - 3.0 * mc_err
