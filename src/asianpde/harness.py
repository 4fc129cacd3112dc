"""Command implementations behind the CLI: valuations, table and transect
reproduction, convergence studies, and deterministic CSV emission.

Outputs are assembled in a fixed row order, so a fixed seed yields
byte-identical files across runs.  ``run_table`` runs its jobs on a pool
of every usable CPU, or of at most ``RunConfig.workers`` (``--workers``)
threads when that is set; the other commands ignore it.
"""

from __future__ import annotations

import csv
import math
import threading
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import TextIO

import numpy as np

from . import _step
from .advection import SolverOptions
from .benchmarks import convergence_study
from .config import RunConfig
from .errors import ConfigurationError, StabilityError
from .grid import GridSpec
from .pricing import (
    InstrumentSpec,
    grid_from_price_domain,
    integrate,
    readout,
    row_values,
    usable_cpus,
)
from .reference import (
    McConfig,
    McResult,
    european_bs_price,
    geometric_asian_price,
    mc_asian_price,
    mc_path_averages,
    mc_path_averages_many,
    mc_result_from_averages,
)

# Table reproduction: 8 parameter rows at spot 100 and rate 0.1, maturities in months
TABLE_ROWS: tuple[tuple[float, float, float], ...] = (
    (0.2, 6.0, 100.0),
    (0.2, 6.0, 105.0),
    (0.2, 12.0, 100.0),
    (0.2, 12.0, 105.0),
    (0.4, 6.0, 100.0),
    (0.4, 6.0, 105.0),
    (0.4, 12.0, 100.0),
    (0.4, 12.0, 105.0),
)
TABLE_SPOT = 100.0
TABLE_RATE = 0.1
TABLE_MC_PATHS = (10_000, 100_000)
TABLE_MC_STEPS = 1000

# the CSV columns of every valuation: price, table and mc
VALUATION_HEADER = ["sigma", "T_months", "K", "kind", "method", "price", "std_error"]


def emit_csv(handle: TextIO, header: list[str], rows: list[tuple]) -> None:
    """Comma-separated, LF endings, '%.17g' float precision, None as an empty field."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([format(v, ".17g") if isinstance(v, float) else v for v in row] for row in rows)


def write_csv(path: str | Path, header: list[str], rows: list[tuple]) -> None:
    """``emit_csv`` into a UTF-8 file."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        emit_csv(handle, header, rows)


def _grid(cfg: RunConfig) -> GridSpec:
    return grid_from_price_domain(cfg.smin, cfg.smax, cfg.amax, cfg.nx, cfg.ny)


def _instrument(cfg: RunConfig) -> InstrumentSpec:
    return InstrumentSpec(
        kind=cfg.kind,
        strike=cfg.strike,
        maturity=cfg.maturity_years,
        sigma=cfg.sigma,
        rate=cfg.rate,
        spot=cfg.spot,
    )


def _options(cfg: RunConfig, n_iters: int) -> SolverOptions:
    return SolverOptions(n_iters=n_iters, nonoscillatory=cfg.nonosc)


def _method_name(n_iters: int) -> str:
    return "upwind" if n_iters == 1 else f"mpdata_{n_iters}it"


# ---------------------------------------------------------------------------
# price
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PriceReport:
    instrument: InstrumentSpec
    entries: tuple[tuple[str, float, float | None], ...]  # (method, price, std_error)

    def lines(self) -> list[str]:
        inst = self.instrument
        out = [
            f"{inst.kind} strike={inst.strike:g} spot={inst.spot:g} "
            f"sigma={inst.sigma:g} rate={inst.rate:g} maturity={inst.maturity:g}y"
        ]
        for method, price, err in self.entries:
            tail = "" if err is None else f" +- {err:.4f}"
            out.append(f"  {method:<12s} {price: .6f}{tail}")
        return out


def run_price(cfg: RunConfig, with_mc: bool = False) -> PriceReport:
    """One valuation with the analytic references and, on request, Monte Carlo."""
    inst = _instrument(cfg)
    spec = _grid(cfg)
    mc_cfg = McConfig(cfg.paths, cfg.steps, cfg.seed) if with_mc else None
    entries = [
        (_method_name(cfg.iters), readout(integrate(inst, spec, cfg.dt, _options(cfg, cfg.iters)), inst, spec), None),
        ("geometric", geometric_asian_price(inst), None),
        ("european", european_bs_price(inst), None),
    ]
    if mc_cfg:
        res = mc_asian_price(inst, mc_cfg)
        entries.append((f"mc_{cfg.paths}", res.price, res.std_error))
    report = PriceReport(inst, tuple(entries))
    if cfg.out:
        key = (cfg.sigma, cfg.maturity_months, cfg.strike, inst.kind)
        write_csv(cfg.out, VALUATION_HEADER, [(*key, *entry) for entry in entries])
    return report


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def _pde_job(key: tuple, spec: GridSpec, dt: float, options: SolverOptions) -> float:
    """One table PDE price, its march on one thread: the table's pool keeps
    every CPU busy.  A stability error names its table row."""
    sigma, t_months, strike, kind, _ = key
    inst = InstrumentSpec(kind, strike, t_months / 12.0, sigma, TABLE_RATE, TABLE_SPOT)
    try:
        return readout(integrate(inst, spec, dt, options, threads=1), inst, spec)
    except StabilityError as exc:
        exc.args = (f"table row sigma={sigma:g} T={t_months:g}mo K={strike:g} {kind}: {exc.args[0]}",)
        raise


def run_table(cfg: RunConfig) -> tuple[list[tuple], str]:
    """All table rows x {call, put} x {upwind, mpdata_2it, mc_10k, mc_100k, geometric},
    with ``mpdata_<iters>it`` for ``cfg.iters`` and no second upwind column at 1.

    Returns the full-precision CSV rows and the same rows as a human-readable
    table rounded to 3 significant digits.  The jobs (the PDE prices, then
    path ranges of one MC call over the four (sigma, T) sets, each filling its
    slice of the four sets' average arrays) run on a pool of ``workers`` or,
    if None, every usable CPU, and of no more (the kernels release the GIL).
    On the first error or Ctrl-C it cancels its pending jobs, and its running
    ones stop at their next C call.  Assembly order is fixed by the row key.
    """
    spec = _grid(cfg)
    iters = dict.fromkeys((1, cfg.iters))  # upwind, then the MPDATA column unless it is upwind too
    pde_keys = [
        (sigma, t_months, strike, kind, n_iters)
        for (sigma, t_months, strike) in TABLE_ROWS
        for kind in ("call", "put")
        for n_iters in iters
    ]
    mc_keys = sorted({(sigma, t_months) for (sigma, t_months, _) in TABLE_ROWS})
    protos = [InstrumentSpec("call", 100.0, t / 12.0, s, TABLE_RATE, TABLE_SPOT) for s, t in mc_keys]
    mc_cfg = McConfig(max(TABLE_MC_PATHS), TABLE_MC_STEPS, cfg.seed)
    mc_averages = np.empty((len(mc_keys), mc_cfg.n_paths))
    # 4 MC ranges per thread: 1, 2 or 4, with the ranges before or after the
    # PDE jobs, timed table_coarse the same within its noise; len(jobs) >
    # size, so the pool needs no bound
    size = min(cfg.workers or usable_cpus(), usable_cpus())
    edges = [mc_cfg.n_paths * i // (4 * size) for i in range(4 * size + 1)]
    jobs = [partial(_pde_job, key, spec, cfg.dt, _options(cfg, key[4])) for key in pde_keys]
    jobs += [partial(mc_path_averages_many, protos, mc_cfg, mc_averages, a, b) for a, b in zip(edges, edges[1:])]
    from concurrent.futures import ThreadPoolExecutor  # imported here: only the table pays its 8 ms
    stop = threading.Event()
    pool = ThreadPoolExecutor(size, initializer=setattr, initargs=(_step.POOL, "stop", stop))
    try:
        results = list(pool.map(lambda job: job(), jobs))
    finally:
        stop.set()  # so that the shutdown waits for no running job's whole march
        pool.shutdown(cancel_futures=True)
    pde_prices = dict(zip(pde_keys, results))  # the MC jobs' results, None, fall off the end

    rows: list[tuple] = []
    for sigma, t_months, strike in TABLE_ROWS:
        for kind in ("call", "put"):
            inst = InstrumentSpec(kind, strike, t_months / 12.0, sigma, TABLE_RATE, TABLE_SPOT)
            key = (sigma, t_months, strike, kind)
            rows += [(*key, _method_name(n), pde_prices[(*key, n)], None) for n in iters]
            for n in TABLE_MC_PATHS:
                res = mc_result_from_averages(mc_averages[mc_keys.index((sigma, t_months))][:n], inst)
                rows.append((*key, f"mc_{n // 1000}k", res.price, res.std_error))
            rows.append((*key, "geometric", geometric_asian_price(inst), None))

    if cfg.out:
        write_csv(cfg.out, VALUATION_HEADER, rows)
    return rows, _render_table(rows)


def _render_table(rows: list[tuple]) -> str:
    """One line per table row: the prices of its call methods, then of its put methods."""
    width = 2 * len(dict.fromkeys(row[4] for row in rows))
    head = f"{'sigma':>5} {'T_mo':>4} {'K':>5} "
    head += " ".join(f"{row[3][0].upper()}:{row[4]:<10}"[:12].ljust(12) for row in rows[:width])
    lines = [head]
    for i in range(0, len(rows), width):
        sigma, t_months, strike = rows[i][:3]
        cols = " ".join(f"{row[5]:<12.3g}" for row in rows[i : i + width])
        lines.append(f"{sigma:>5g} {t_months:>4g} {strike:>5g} " + cols)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# transect
# ---------------------------------------------------------------------------

TRANSECT_HEADER = ["s", "upwind", "mpdata_2it", "mpdata_4it", "mc", "european", "geometric_asian"]


def run_transect(cfg: RunConfig) -> list[tuple]:
    """Per-column values along the row nearest A = 0: the figure's seven curves."""
    spec = _grid(cfg)
    inst = _instrument(cfg)
    mc_cfg = McConfig(cfg.paths, cfg.steps, cfg.seed)  # refused before the marches
    curves = {
        n_iters: row_values(integrate(inst, spec, cfg.dt, _options(cfg, n_iters)))
        for n_iters in (1, 2, 4)
    }
    averages = mc_path_averages(inst, mc_cfg)
    unit_averages = averages / inst.spot
    rows = []
    for i, x in enumerate(spec.x_centres):
        s = math.exp(x)
        col_inst = InstrumentSpec(cfg.kind, cfg.strike, inst.maturity, inst.sigma, inst.rate, s)
        mc = mc_result_from_averages(s * unit_averages, col_inst)
        rows.append(
            (
                s,
                float(curves[1][i]),
                float(curves[2][i]),
                float(curves[4][i]),
                mc.price,
                european_bs_price(col_inst),
                geometric_asian_price(col_inst),
            )
        )
    if cfg.out:
        write_csv(cfg.out, TRANSECT_HEADER, rows)
    return rows


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------

def run_converge(cfg: RunConfig, levels: int) -> list[tuple]:
    """Solid-body-translation errors at doubled resolutions: (dx, l2_error, order)."""
    if levels < 3:
        raise ConfigurationError(f"levels must be >= 3, got {levels}")
    study = convergence_study(cfg.nx, levels, _options(cfg, cfg.iters))
    rows = [(lvl.dx, lvl.error, lvl.order) for lvl in study]
    if cfg.out:
        write_csv(cfg.out, ["dx", "l2_error", "order"], rows)
    return rows


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------

def run_mc(cfg: RunConfig) -> McResult:
    inst = _instrument(cfg)
    res = mc_asian_price(inst, McConfig(cfg.paths, cfg.steps, cfg.seed))
    if cfg.out:
        row = (cfg.sigma, cfg.maturity_months, cfg.strike, cfg.kind, f"mc_{cfg.paths}", res.price, res.std_error)
        write_csv(cfg.out, VALUATION_HEADER, [row])
    return res
