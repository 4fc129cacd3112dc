"""Command implementations behind the CLI: valuations, table and transect
reproduction, convergence studies, and deterministic CSV emission.

Outputs are assembled in a fixed row order, so a fixed seed yields
byte-identical files across runs.  ``RunConfig.workers`` (``--workers``) is
the number of threads ``run_table`` spreads its jobs over (1 runs them in
the calling thread); the other commands ignore it.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .advection import SolverOptions
from .benchmarks import convergence_study
from .config import RunConfig
from .errors import ConfigurationError, StabilityError
from .grid import GridSpec
from .pricing import InstrumentSpec, grid_from_price_domain, integrate, price_instrument, row_values
from .pricing import readout  # noqa: F401 -- perfbench/tracing.py wraps harness.readout
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


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path: str | Path, header: list[str], rows: list[tuple]) -> None:
    """UTF-8, comma-separated, LF endings, '%.17g' float precision."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _grid(cfg: RunConfig) -> GridSpec:
    return grid_from_price_domain(cfg.smin, cfg.smax, cfg.amax, cfg.nx, cfg.ny)


def _instrument(cfg: RunConfig, kind: str | None = None, strike: float | None = None) -> InstrumentSpec:
    return InstrumentSpec(
        kind=kind or cfg.kind,
        strike=cfg.strike if strike is None else strike,
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
        (_method_name(cfg.iters), price_instrument(inst, spec, cfg.dt, _options(cfg, cfg.iters)), None),
        ("geometric", geometric_asian_price(inst), None),
        ("european", european_bs_price(inst), None),
    ]
    if mc_cfg:
        res = mc_asian_price(inst, mc_cfg)
        entries.append((f"mc_{cfg.paths}", res.price, res.std_error))
    report = PriceReport(inst, tuple(entries))
    if cfg.out:
        rows = [
            (cfg.sigma, cfg.maturity_months, cfg.strike, inst.kind, method, price, err)
            for method, price, err in entries
        ]
        write_csv(cfg.out, ["sigma", "T_months", "K", "kind", "method", "price", "std_error"], rows)
    return report


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def _pde_job(key: tuple, spec: GridSpec, dt: float, options: SolverOptions) -> float:
    """One table PDE price; a stability error names its table row."""
    sigma, t_months, strike, kind, _ = key
    inst = InstrumentSpec(kind, strike, t_months / 12.0, sigma, TABLE_RATE, TABLE_SPOT)
    try:
        return price_instrument(inst, spec, dt, options)
    except StabilityError as exc:
        exc.args = (f"table row sigma={sigma:g} T={t_months:g}mo K={strike:g} {kind}: {exc.args[0]}",)
        raise


def _run_job(job: tuple):
    fn, args = job
    return fn(*args)


def run_table(cfg: RunConfig) -> tuple[list[tuple], str]:
    """All table rows x {call, put} x {upwind, mpdata_2it, mc_10k, mc_100k, geometric}.

    Returns the full-precision CSV rows and a human-readable companion table
    rounded to 3 significant digits.  The jobs (32 PDE prices, then path
    ranges of one MC call over the four (sigma, T) sets) run in the calling
    thread when ``workers == 1``, else on a pool of at most ``workers``
    threads and CPUs (the C march and MC kernels release the GIL), whose pending
    jobs are cancelled on the first error.  Assembly order is fixed by the row key.
    """
    spec = _grid(cfg)
    pde_keys = [
        (sigma, t_months, strike, kind, n_iters)
        for (sigma, t_months, strike) in TABLE_ROWS
        for kind in ("call", "put")
        for n_iters in (1, cfg.iters)
    ]
    mc_keys = sorted({(sigma, t_months) for (sigma, t_months, _) in TABLE_ROWS})
    protos = [InstrumentSpec("call", 100.0, t / 12.0, s, TABLE_RATE, TABLE_SPOT) for s, t in mc_keys]
    mc_cfg = McConfig(max(TABLE_MC_PATHS), TABLE_MC_STEPS, cfg.seed)
    # 4 MC ranges per thread balance the load; len(jobs) > size, so it needs no bound
    size = min(cfg.workers, os.cpu_count() or 1)
    edges = [mc_cfg.n_paths * i // (4 * size) for i in range(4 * size + 1)]
    jobs = [(_pde_job, (key, spec, cfg.dt, _options(cfg, key[4]))) for key in pde_keys]
    jobs += [(mc_path_averages_many, (protos, mc_cfg, a, b)) for a, b in zip(edges, edges[1:])]
    if size == 1:
        results = list(map(_run_job, jobs))
    else:
        from concurrent.futures import ThreadPoolExecutor  # imported here: only a pool pays its 8 ms
        pool = ThreadPoolExecutor(size)
        try:
            results = list(pool.map(_run_job, jobs))
        finally:
            pool.shutdown(cancel_futures=True)
    pde_prices = dict(zip(pde_keys, results))
    mc_averages = {k: np.concatenate([r[i] for r in results[len(pde_keys) :]]) for i, k in enumerate(mc_keys)}

    rows: list[tuple] = []
    cells: dict[tuple, dict[str, float]] = {}
    for sigma, t_months, strike in TABLE_ROWS:
        for kind in ("call", "put"):
            inst = InstrumentSpec(kind, strike, t_months / 12.0, sigma, TABLE_RATE, TABLE_SPOT)
            methods: list[tuple[str, float, float | None]] = [
                ("upwind", pde_prices[(sigma, t_months, strike, kind, 1)], None),
                (_method_name(cfg.iters), pde_prices[(sigma, t_months, strike, kind, cfg.iters)], None),
            ]
            averages = mc_averages[(sigma, t_months)]
            for n in TABLE_MC_PATHS:
                res = mc_result_from_averages(averages[:n], inst)
                methods.append((f"mc_{n // 1000}k", res.price, res.std_error))
            methods.append(("geometric", geometric_asian_price(inst), None))
            cells[(sigma, t_months, strike, kind)] = {m: p for m, p, _ in methods}
            for method, price, err in methods:
                rows.append((sigma, t_months, strike, kind, method, price, err))

    if cfg.out:
        write_csv(cfg.out, ["sigma", "T_months", "K", "kind", "method", "price", "std_error"], rows)
    return rows, _render_table(cfg, cells)


def _render_table(cfg: RunConfig, cells: dict) -> str:
    methods = ["upwind", _method_name(cfg.iters)]
    methods += [f"mc_{n // 1000}k" for n in TABLE_MC_PATHS]
    methods.append("geometric")
    head = f"{'sigma':>5} {'T_mo':>4} {'K':>5} "
    head += " ".join(f"{kind[0].upper()}:{m:<10}"[:12].ljust(12) for kind in ("call", "put") for m in methods)
    lines = [head]
    for sigma, t_months, strike in TABLE_ROWS:
        cols = []
        for kind in ("call", "put"):
            row = cells[(sigma, t_months, strike, kind)]
            cols.extend(f"{row[m]:<12.3g}" for m in methods)
        lines.append(f"{sigma:>5g} {t_months:>4g} {strike:>5g} " + " ".join(cols))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# transect
# ---------------------------------------------------------------------------

TRANSECT_HEADER = ["s", "upwind", "mpdata_2it", "mpdata_4it", "mc", "european", "geometric_asian"]


def run_transect(cfg: RunConfig) -> list[tuple]:
    """Per-column values along the row nearest A = 0: the figure's seven curves."""
    spec = _grid(cfg)
    inst = _instrument(cfg)
    curves = {
        n_iters: row_values(integrate(inst, spec, cfg.dt, _options(cfg, n_iters)))
        for n_iters in (1, 2, 4)
    }
    averages = mc_path_averages(inst, McConfig(cfg.paths, cfg.steps, cfg.seed))
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
        write_csv(
            cfg.out,
            ["sigma", "T_months", "K", "kind", "method", "price", "std_error"],
            [(cfg.sigma, cfg.maturity_months, cfg.strike, cfg.kind, f"mc_{cfg.paths}", res.price, res.std_error)],
        )
    return res
