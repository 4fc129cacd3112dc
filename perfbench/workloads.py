"""The benchmark's workloads: seeded inputs, the timed operations and their checks.

Every instrument has S0 = 100, r = 0.1 and a 6-month maturity, as in the
paper's table.  The program only ever receives the generated
``InstrumentSpec`` / ``RunConfig`` values; all calls go through the public
functions of ``pricing`` and ``harness``, looked up on the module at call
time so that a traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import math
import random
import statistics
import time
from dataclasses import dataclass

from asianpde import advection, harness, pricing
from asianpde import grid
from asianpde.advection import SolverOptions
from asianpde.config import RunConfig
from asianpde.errors import ConfigurationError, StabilityError
from asianpde.pricing import InstrumentSpec
from asianpde.reference import McConfig

import checks
from tracing import SpanStats, Tracer, percentile

SPOT = 100.0
RATE = 0.1
MATURITY = 0.5
STRIKE_RANGE = (100.0, 105.0)
SIGMA_RANGE = (0.2, 0.4)
# The paper's first table row opens every price run, so parity_residual_max
# is a fixed-input accuracy gauge that the seed does not move.
ANCHOR = (100.0, 0.2)  # (strike, sigma)
MIN_TABLES = 2
PROGRAM_ERRORS = (ConfigurationError, StabilityError)
MODULES = {"pricing": pricing, "advection": advection, "harness": harness}


@dataclass(frozen=True)
class PriceWorkload:
    """One valuation (integrate + readout) per operation, in call/put pairs."""

    nx: int
    ny: int
    dt: float
    n_iters: int
    parity_bound: float  # |C - P - parity| above this fails the pair

    @property
    def cell_steps(self) -> int:
        """Interior cells x time steps of one valuation."""
        return self.nx * self.ny * round(MATURITY / self.dt)


@dataclass(frozen=True)
class TableWorkload:
    """One ``harness.run_table`` call per operation."""

    nx: int
    ny: int
    dt: float
    workers: int
    parity_bound: float
    mc_paths: tuple[int, int] | None = None  # smoke runs shrink the table's fixed MC sizes
    mc_steps: int | None = None

    def config(self, seed: int, workers: int | None = None) -> RunConfig:
        return RunConfig(
            nx=self.nx, ny=self.ny, dt=self.dt, seed=seed, workers=workers or self.workers
        )

    @property
    def cell_steps(self) -> int:
        """Interior cells x time steps over the table's PDE jobs (upwind and MPDATA per row and kind)."""
        return sum(
            4 * self.nx * self.ny * round(t_months / 12.0 / self.dt)
            for _, t_months, _ in harness.TABLE_ROWS
        )


WORKLOADS = {
    "full": {
        "price_mpdata": PriceWorkload(102, 121, 1.0 / 1760.0, 2, parity_bound=0.5),
        "price_upwind_fine": PriceWorkload(204, 242, 1.0 / 7040.0, 1, parity_bound=0.5),
        "table_coarse": TableWorkload(48, 40, 1.0 / 400.0, 2, parity_bound=1.0),
    },
    # seconds-long smoke sizes for the benchmark's own tests
    "tiny": {
        "price_mpdata": PriceWorkload(24, 20, 1.0 / 100.0, 2, parity_bound=1.0),
        "price_upwind_fine": PriceWorkload(48, 40, 1.0 / 400.0, 1, parity_bound=1.0),
        "table_coarse": TableWorkload(
            24, 20, 1.0 / 100.0, 2, parity_bound=1.0, mc_paths=(1000, 2000), mc_steps=50
        ),
    },
}


def domain(nx: int, ny: int):
    """The program's default (S, A) domain at the given resolution."""
    cfg = RunConfig()
    return pricing.grid_from_price_domain(cfg.smin, cfg.smax, cfg.amax, nx, ny)


def instrument_pairs(seed: int):
    """(strike, sigma) of each call/put pair: the anchor, then seeded draws."""
    yield ANCHOR
    rng = random.Random(seed)
    while True:
        yield rng.uniform(*STRIKE_RANGE), rng.uniform(*SIGMA_RANGE)


def instrument(kind: str, strike: float, sigma: float) -> InstrumentSpec:
    return InstrumentSpec(kind, strike, MATURITY, sigma, RATE, SPOT)


def value(w: PriceWorkload, spec, inst: InstrumentSpec) -> float:
    opts = SolverOptions(n_iters=w.n_iters, nonoscillatory=True)
    return pricing.readout(pricing.integrate(inst, spec, w.dt, opts), inst, spec)


def setup(name: str, size: str, seed: int):
    """Untimed warm-up: one MPDATA step of the anchor call on the workload's grid.

    A whole valuation would cost as much as an operation, and a shorter
    maturity raises the y-Courant number past the stability limit, so the
    step runs through the public step functions.  The table also draws a
    small MC set.
    """
    w = WORKLOADS[size][name]
    strike, sigma = next(instrument_pairs(seed))
    inst = instrument("call", strike, sigma)
    spec = domain(w.nx, w.ny)
    psi = grid.fill_halos_scalar(pricing.terminal_condition(inst, spec))
    courant = pricing.build_courant(psi, pricing.make_transform(inst), spec, -w.dt)
    advection.mpdata_step(psi, courant, SolverOptions(n_iters=2, nonoscillatory=True))
    if isinstance(w, TableWorkload):
        if w.mc_paths:
            harness.TABLE_MC_PATHS, harness.TABLE_MC_STEPS = w.mc_paths, w.mc_steps
        harness.mc_path_averages(inst, McConfig(1000, harness.TABLE_MC_STEPS, seed))
    return w


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, n_ops: int, failures: list[str]) -> None:
        self.attempted += n_ops
        if failures:
            self.failed += n_ops
            self.messages.extend(failures[: max(0, 5 - len(self.messages))])


def _timed(fn, *args):
    start = time.perf_counter()
    try:
        out = fn(*args)
    except PROGRAM_ERRORS as exc:
        return None, time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"]
    return out, time.perf_counter() - start, []


def _price_pair(w, spec, strike, sigma, tracer=None):
    """Value one call/put pair; with a tracer each valuation runs untraced, then traced.

    Returns ``{traced: {kind: (price, seconds)}}``, the untraced pair's
    |parity residual| and the failures of every check.
    """
    results = {False: {}, True: {}} if tracer else {False: {}}
    failures: list[str] = []
    for kind in ("call", "put"):
        inst = instrument(kind, strike, sigma)
        for traced in results:
            if traced:
                tracer.op += 1
            with tracer.patched(MODULES) if traced else contextlib.nullcontext():
                price, seconds, errors = _timed(value, w, spec, inst)
            results[traced][kind] = (math.nan if price is None else price, seconds)
            failures += errors
    residuals = {}
    for traced, pair in results.items():
        pair_fail, residuals[traced] = checks.pair_failures(
            pair["call"][0], pair["put"][0], SPOT, strike, MATURITY, sigma, RATE, w.parity_bound
        )
        failures += pair_fail
    if tracer:
        failures += [
            f"{kind} K={strike} sigma={sigma}: traced price differs"
            for kind in ("call", "put")
            if results[True][kind][0] != results[False][kind][0]
        ]
    return results, residuals[False], failures


def _table_op(w: TableWorkload, cfg: RunConfig, digests: set[str]):
    """One checked ``run_table`` call: (seconds, largest parity residual, failures)."""
    out, seconds, failures = _timed(harness.run_table, cfg)
    if out is None:
        return seconds, math.nan, failures
    rows, _ = out
    table_fail, worst = checks.table_failures(rows, SPOT, RATE, w.parity_bound)
    digests.add(checks.rows_digest(rows))
    if len(digests) > 1:
        table_fail.append("table rows differ between runs of one seed")
    return seconds, worst, failures + table_fail


def run_prices(w: PriceWorkload, seed: int, seconds: float) -> dict:
    """Untraced call/put pairs until ``seconds`` have passed (at least the anchor pair)."""
    spec = domain(w.nx, w.ny)
    tally = Tally()
    times: list[float] = []
    residuals: list[float] = []
    start = time.perf_counter()
    for strike, sigma in instrument_pairs(seed):
        results, residual, failures = _price_pair(w, spec, strike, sigma)
        tally.record(2, failures)
        times += [s for _, s in results[False].values()]
        residuals.append(residual)
        if time.perf_counter() - start >= seconds:
            break
    op_s = statistics.median(times)
    return {
        "tally": tally,
        "op_times": times,
        "metrics": {
            "op_s": (op_s, "s"),
            "cell_steps_per_s": (w.cell_steps / op_s, "1/s"),
            "parity_residual_max": (residuals[0], "price"),
        },
        "detail": {"seeded_parity_residual_max": max(residuals[1:], default=None)},
    }


def run_tables(w: TableWorkload, seed: int, seconds: float) -> dict:
    """Untraced ``run_table`` calls until ``seconds`` have passed (at least two, so repeats are compared)."""
    cfg = w.config(seed)
    tally = Tally()
    times: list[float] = []
    digests: set[str] = set()
    start = time.perf_counter()
    while True:
        elapsed, worst, failures = _table_op(w, cfg, digests)
        times.append(elapsed)
        tally.record(1, failures)
        if len(times) >= MIN_TABLES and time.perf_counter() - start >= seconds:
            break
    table_s = statistics.median(times)
    return {
        "tally": tally,
        "op_times": times,
        "metrics": {
            "op_s": (table_s, "s"),
            "cell_steps_per_s": (w.cell_steps / table_s, "1/s"),
            "parity_residual_max": (worst, "price"),
        },
        "detail": {},
    }


def _pde_layers(stats: SpanStats, valuations: int) -> dict:
    steps = stats.calls["advection.mpdata_step"]
    per_step = max(steps, 1)
    per_valuation = max(valuations, 1)
    step_ms = [1e3 * s for s in stats.step_seconds] or [0.0]

    def calls(name):
        return (stats.calls[name] / per_step, "calls/step")

    def ms(name, table=None):
        return (1e3 * (table or stats.total)[name] / per_step, "ms/step")

    return {
        "grid.fill_halos_scalar.calls_per_step": calls("grid.fill_halos_scalar"),
        "grid.fill_halos_scalar.ms_per_step": ms("grid.fill_halos_scalar"),
        "grid.fill_halos_vector.calls_per_step": calls("grid.fill_halos_vector"),
        "grid.fill_halos_vector.ms_per_step": ms("grid.fill_halos_vector"),
        "advection.mpdata_step.ms_p50": (percentile(step_ms, 50), "ms"),
        "advection.mpdata_step.ms_p99": (percentile(step_ms, 99), "ms"),
        "advection.mpdata_step.self_ms_per_step": ms("advection.mpdata_step", stats.self_time),
        "advection.upwind_step.calls_per_step": calls("advection.upwind_step"),
        "advection.upwind_step.self_ms_per_step": ms("advection.upwind_step", stats.self_time),
        "advection.check_stability.calls_per_step": calls("advection.check_stability"),
        "advection.check_stability.ms_per_step": ms("advection.check_stability"),
        "advection.antidiffusive_courant.ms_per_step": ms("advection.antidiffusive_courant"),
        "advection.nonoscillatory_limit.ms_per_step": ms("advection.nonoscillatory_limit"),
        "pricing.build_courant.ms_per_step": ms("pricing.build_courant"),
        "pricing.integrate.self_ms_per_step": ms("pricing.integrate", stats.self_time),
        "pricing.terminal_condition.ms": (
            1e3 * stats.total["pricing.terminal_condition"] / per_valuation, "ms"),
        "pricing.readout.ms": (1e3 * stats.total["pricing.readout"] / per_valuation, "ms"),
    }


def _table_layers(stats: SpanStats, table_s: float, workers: int) -> dict:
    """Layers only ``run_table`` reaches; zero where a workload does not call them."""
    mc_calls = stats.calls["reference.mc_path_averages"]
    mc_s = stats.total["reference.mc_path_averages"]
    paths = mc_calls * max(harness.TABLE_MC_PATHS)
    # a PDE job is integrate + readout, an MC job one mc_path_averages call
    jobs = stats.children_of("harness.run_table", ("pricing.integrate", "reference.mc_path_averages"))[0]
    job_s = stats.children_of(
        "harness.run_table", ("pricing.integrate", "pricing.readout", "reference.mc_path_averages")
    )[1]
    traced_table_s = stats.total["harness.run_table"]
    result_calls = stats.calls["reference.mc_result_from_averages"]
    return {
        "reference.mc_path_averages.s_per_100k_paths": (
            mc_s * 1e5 / paths if paths else 0.0, "s/100k"),
        "reference.mc_path_averages.share_of_table": (
            mc_s / traced_table_s if traced_table_s else 0.0, "ratio"),
        "reference.mc_result_from_averages.ms": (
            1e3 * stats.total["reference.mc_result_from_averages"] / result_calls
            if result_calls else 0.0, "ms"),
        "harness.jobs": (jobs, "count"),
        "harness.job_s_sum": (job_s, "s"),
        "harness.parallel_efficiency": (
            job_s / (table_s * workers) if table_s else 0.0, "ratio"),
    }


def traced_prices(w: PriceWorkload, seed: int, seconds: float, tracer: Tracer) -> dict:
    """Each valuation runs untraced, then traced; the layers come from the traced ones."""
    spec = domain(w.nx, w.ny)
    tally = Tally()
    plain: list[float] = []
    traced: list[float] = []
    start = time.perf_counter()
    for strike, sigma in instrument_pairs(seed):
        results, _, failures = _price_pair(w, spec, strike, sigma, tracer)
        tally.record(4, failures)
        plain += [s for _, s in results[False].values()]
        traced += [s for _, s in results[True].values()]
        if time.perf_counter() - start >= seconds:
            break
    stats = SpanStats(tracer.spans)
    metrics = _pde_layers(stats, len(traced))
    metrics.update(_table_layers(stats, 0.0, 1))
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0), "%")
    return {"tally": tally, "op_times": traced, "metrics": metrics, "detail": {}}


def traced_tables(w: TableWorkload, seed: int, tracer: Tracer) -> dict:
    """Serial untraced, parallel untraced and serial traced tables of one seed.

    Under threads a wrapped job also counts its GIL waits, so job seconds come
    from the serial traced table; their rows must match byte for byte.
    """
    tally = Tally()
    digests: set[str] = set()
    seconds = {}
    for label, workers, traced in (("serial", 1, False), ("parallel", w.workers, False), ("traced", 1, True)):
        tracer.op += 1
        with tracer.patched(MODULES) if traced else contextlib.nullcontext():
            seconds[label], _, failures = _table_op(w, w.config(seed, workers), digests)
        tally.record(1, failures)
    stats = SpanStats(tracer.spans)
    metrics = _pde_layers(stats, stats.calls["pricing.integrate"])
    metrics.update(_table_layers(stats, seconds["parallel"], w.workers))
    metrics["trace.overhead_pct"] = (100.0 * (seconds["traced"] / seconds["serial"] - 1.0), "%")
    return {"tally": tally, "op_times": [seconds["traced"]], "metrics": metrics, "detail": seconds}


def measure(w, seed: int, seconds: float, tracer: Tracer | None) -> dict:
    """The untraced run, or with a tracer the traced run, of workload ``w``."""
    if isinstance(w, TableWorkload):
        return traced_tables(w, seed, tracer) if tracer else run_tables(w, seed, seconds)
    return traced_prices(w, seed, seconds, tracer) if tracer else run_prices(w, seed, seconds)
