"""Reference pricers used to validate the transport solver.

Closed forms: the geometric-average Asian option (exact under continuous
geometric averaging) and the vanilla European option.  Monte Carlo: exact
log-normal path stepping with counter-based per-path random streams, so the
estimate is reproducible bit for bit regardless of evaluation order or
worker count.  Path i draws what numpy's
``Generator(Philox(key=(seed, i))).standard_normal(n_steps)`` draws, with
the fast path of numpy's ziggurat inline and every other draw left to
numpy's own ``random_standard_normal``.  The C kernel ``averages`` of
``_step`` draws, walks, exponentiates and sums a range of paths in one call,
without the GIL, with numpy's operations in numpy's order (its own float64
``exp`` loop and its pairwise sum), so each average is the bits of the numpy
evaluation in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import _step
from .errors import ConfigurationError
from .pricing import InstrumentSpec

# path-steps of one C averages call, over all its instruments: Python sees a
# Ctrl-C between calls
MC_CALL_PATH_STEPS = 2**25
MAX_PATH_STEPS = 2e11  # paths x steps of one Monte Carlo set: ~28 min on one thread at 8.3 ns a path-step


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
        if self.n_paths * self.n_steps > MAX_PATH_STEPS:
            raise ConfigurationError(
                f"{self.n_paths} paths of {self.n_steps} steps are {self.n_paths * self.n_steps:.3g} "
                f"path-steps, more than {MAX_PATH_STEPS:.0e}"
            )
        # the first word of a Philox key, which ctypes would reduce mod 2^64 without a word
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError(f"seed must be in [0, 2**64), got {self.seed}")


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
    insts: Sequence[InstrumentSpec], cfg: McConfig, out: np.ndarray, start: int, stop: int
) -> None:
    """``mc_path_averages`` of every instrument into its row of ``out``, a
    ``(len(insts), cfg.n_paths)`` array, each bit-identical to a separate call.

    The normals depend only on (seed, path index, M), so each block of paths
    is drawn once and every instrument steps its paths on it.  Only paths
    [start, stop) are stepped and written, so calls on disjoint ranges fill
    disjoint slices of the same array.  The C calls take at most
    ``MC_CALL_PATH_STEPS`` path-steps over all instruments, so that Python
    sees a Ctrl-C, and an unwound table's job stops, between them.
    """
    if not 0 <= start <= stop <= cfg.n_paths:
        raise ConfigurationError(f"path range [{start}, {stop}) outside [0, {cfg.n_paths})")
    if out.shape != (len(insts), cfg.n_paths):
        raise ConfigurationError(f"need averages of shape {(len(insts), cfg.n_paths)}, got {out.shape}")
    m = cfg.n_steps
    steps = np.array(
        [(i.spot, (i.rate - 0.5 * i.sigma * i.sigma) * (i.maturity / m), i.sigma * math.sqrt(i.maturity / m))
         for i in insts]
    ).reshape(-1, 3)
    work = np.empty((2 * _step.LANES, m))
    lib = _step.library()
    per_call = max(1, MC_CALL_PATH_STEPS // (m * max(1, len(insts))))
    # a path that overflows gets an inf average and no warning, and
    # mc_result_from_averages refuses the estimate
    for lo in range(start, stop, per_call):
        _step.stop_if_unwound()
        hi = min(lo + per_call, stop)
        lib.averages(out, *out.shape, steps, m, cfg.seed, lo, hi, work, lib.numpy_exp)


def mc_path_averages(inst: InstrumentSpec, cfg: McConfig) -> np.ndarray:
    """Per-path arithmetic average of the asset price (trapezoidal in time).

    Independent of strike and kind, so one set of averages prices every
    payoff on the same (spot, rate, sigma, maturity, seed) configuration
    with bit-identical results.
    """
    out = np.empty((1, cfg.n_paths))
    mc_path_averages_many([inst], cfg, out, 0, cfg.n_paths)
    return out[0]


def mc_result_from_averages(averages: np.ndarray, inst: InstrumentSpec) -> McResult:
    """Discounted payoff statistics for pre-computed path averages (at least 2).

    Raises :class:`ConfigurationError` when the price or its standard error
    is not finite, as when the paths overflow: a printed nan or inf would
    pass for a result.
    """
    n = averages.size
    if n < 2:
        raise ConfigurationError(f"a standard error needs at least 2 paths, got {n}")
    if inst.kind == "call":
        payoffs = np.maximum(averages - inst.strike, 0.0)
    else:
        payoffs = np.maximum(inst.strike - averages, 0.0)
    discount = math.exp(-inst.rate * inst.maturity)
    # an overflow, or inf - inf in the spread, leaves a non-finite estimate, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        price = discount * float(np.mean(payoffs))
        std_error = discount * float(np.std(payoffs, ddof=1)) / math.sqrt(n)
    if not (math.isfinite(price) and math.isfinite(std_error)):
        raise ConfigurationError(
            f"the Monte Carlo estimate {price:g} +- {std_error:g} at rate = {inst.rate:g}, "
            f"sigma = {inst.sigma:g}, maturity = {inst.maturity:g} is not finite: the paths overflow"
        )
    return McResult(price=price, std_error=std_error, n_paths=n)


def mc_asian_price(inst: InstrumentSpec, cfg: McConfig) -> McResult:
    """Monte Carlo value of the arithmetic-average instrument.

    Prices are discounted means of per-path payoffs on the trapezoidal
    average including both endpoints; identical (inst, cfg) inputs produce
    bit-identical results.
    """
    return mc_result_from_averages(mc_path_averages(inst, cfg), inst)
