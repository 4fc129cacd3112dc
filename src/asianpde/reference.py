"""Reference pricers used to validate the transport solver.

Closed forms: the geometric-average Asian option (exact under continuous
geometric averaging) and the vanilla European option.  Monte Carlo: exact
log-normal path stepping with counter-based per-path random streams, so the
estimate is reproducible bit for bit regardless of evaluation order or
worker count.  Path i draws what numpy's
``Generator(Philox(key=(seed, i))).standard_normal(n_steps)`` draws; the C
kernel ``normals`` of ``_step`` draws a block of paths in one call, without
the GIL.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import _step
from .errors import ConfigurationError
from .pricing import InstrumentSpec

# paths vectorised per block: 128 x 1000 steps is 1 MB per buffer, so the
# normal block and the work buffer fit together in a 2 MB L2 cache
_PATH_BLOCK = 128


@dataclass(frozen=True)
class McConfig:
    n_paths: int
    n_steps: int
    seed: int = 0

    def __post_init__(self):
        if self.n_paths < 2:
            raise ConfigurationError(f"n_paths must be >= 2, got {self.n_paths}")
        if self.n_steps < 1:
            raise ConfigurationError(f"n_steps must be >= 1, got {self.n_steps}")


@dataclass(frozen=True)
class McResult:
    price: float
    std_error: float
    n_paths: int


def norm_cdf(z: float) -> float:
    """Standard normal CDF via erfc; absolute error below 1e-15."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def geometric_asian_price(inst: InstrumentSpec) -> float:
    """Closed-form price under continuous geometric averaging.

    Volatility of the log average is sigma * sqrt(T/3); sigma = 0 degenerates
    to the discounted payoff of the deterministic path's geometric mean.
    """
    s, k, t, r, sigma = inst.spot, inst.strike, inst.maturity, inst.rate, inst.sigma
    growth = math.exp(-(t / 2.0) * (r + sigma**2 / 6.0))
    if sigma * math.sqrt(t) < 1e-12:
        mean = s * math.exp((r - sigma**2 / 2.0) * t / 2.0)
        return math.exp(-r * t) * _payoff(mean, k, inst.kind)
    sig_avg = sigma * math.sqrt(t / 3.0)
    d1 = (math.log(s / k) + (t / 2.0) * (r + sigma**2 / 6.0)) / sig_avg
    d2 = d1 - sig_avg
    if inst.kind == "call":
        return s * growth * norm_cdf(d1) - k * math.exp(-r * t) * norm_cdf(d2)
    return k * math.exp(-r * t) * norm_cdf(-d2) - s * growth * norm_cdf(-d1)


def european_bs_price(inst: InstrumentSpec) -> float:
    """Standard European call/put value (plotted alongside the Asian transect)."""
    s, k, t, r, sigma = inst.spot, inst.strike, inst.maturity, inst.rate, inst.sigma
    if sigma * math.sqrt(t) < 1e-12:
        return math.exp(-r * t) * _payoff(s * math.exp(r * t), k, inst.kind)
    sig_t = sigma * math.sqrt(t)
    d1 = (math.log(s / k) + (r + sigma**2 / 2.0) * t) / sig_t
    d2 = d1 - sig_t
    if inst.kind == "call":
        return s * norm_cdf(d1) - k * math.exp(-r * t) * norm_cdf(d2)
    return k * math.exp(-r * t) * norm_cdf(-d2) - s * norm_cdf(-d1)


def _payoff(average: float, strike: float, kind: str) -> float:
    if kind == "call":
        return max(average - strike, 0.0)
    return max(strike - average, 0.0)


def mc_path_averages_many(
    insts: Sequence[InstrumentSpec], cfg: McConfig, start: int = 0, stop: int | None = None
) -> list[np.ndarray]:
    """``mc_path_averages`` of every instrument, each bit-identical to a separate call.

    The normals depend only on (seed, path index, M), so each block of paths
    is drawn once and every instrument steps its paths on it.  Only paths
    [start, stop) are stepped, so contiguous ranges concatenate to the whole.
    """
    stop = cfg.n_paths if stop is None else stop
    if not 0 <= start <= stop <= cfg.n_paths:
        raise ConfigurationError(f"path range [{start}, {stop}) outside [0, {cfg.n_paths})")
    m = cfg.n_steps
    steps = [
        ((i.rate - 0.5 * i.sigma**2) * (i.maturity / m), i.sigma * math.sqrt(i.maturity / m))
        for i in insts
    ]
    outs = [np.empty(stop - start) for _ in insts]
    block = np.empty((min(_PATH_BLOCK, stop - start), m))
    work = np.empty_like(block)
    lib = _step.library()
    for lo in range(start, stop, _PATH_BLOCK):
        hi = min(lo + _PATH_BLOCK, stop)
        z, rel = block[: hi - lo], work[: hi - lo]
        lib.normals(z, *z.shape, cfg.seed & 0xFFFFFFFFFFFFFFFF, lo)
        for (drift, vol), out in zip(steps, outs):
            # S/S0 = exp(cumsum(drift + vol * z)), the running sum in C and
            # without the GIL; exp and the pairwise sum stay numpy's
            lib.walk(z, rel, *rel.shape, vol, drift)
            np.exp(rel, out=rel)
            out[lo - start : hi - start] = (0.5 + rel[:, :-1].sum(axis=1) + 0.5 * rel[:, -1]) / m
    return [inst.spot * out for inst, out in zip(insts, outs)]


def mc_path_averages(inst: InstrumentSpec, cfg: McConfig) -> np.ndarray:
    """Per-path arithmetic average of the asset price (trapezoidal in time).

    Independent of strike and kind, so one set of averages prices every
    payoff on the same (spot, rate, sigma, maturity, seed) configuration
    with bit-identical results.
    """
    return mc_path_averages_many([inst], cfg)[0]


def mc_result_from_averages(averages: np.ndarray, inst: InstrumentSpec) -> McResult:
    """Discounted payoff statistics for pre-computed path averages (at least 2)."""
    n = averages.size
    if n < 2:
        raise ConfigurationError(f"a standard error needs at least 2 paths, got {n}")
    if inst.kind == "call":
        payoffs = np.maximum(averages - inst.strike, 0.0)
    else:
        payoffs = np.maximum(inst.strike - averages, 0.0)
    discount = math.exp(-inst.rate * inst.maturity)
    price = discount * float(np.mean(payoffs))
    std_error = discount * float(np.std(payoffs, ddof=1)) / math.sqrt(n)
    return McResult(price=price, std_error=std_error, n_paths=n)


def mc_asian_price(inst: InstrumentSpec, cfg: McConfig) -> McResult:
    """Monte Carlo value of the arithmetic-average instrument.

    Prices are discounted means of per-path payoffs on the trapezoidal
    average including both endpoints; identical (inst, cfg) inputs produce
    bit-identical results.
    """
    return mc_result_from_averages(mc_path_averages(inst, cfg), inst)
