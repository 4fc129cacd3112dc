"""Output checks of the benchmark.

They use only closed forms written out here, not the program's own reference
pricers, so a defect in ``asianpde.reference`` cannot hide a wrong price.
Every check returns a list of failure messages; an empty list means the
output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math

PDE_METHODS = ("upwind", "mpdata_")  # method names of the table's PDE columns (prefixes)


def _norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def geometric_call(spot: float, strike: float, maturity: float, sigma: float, rate: float) -> float:
    """Continuous geometric-average call (Kemna-Vorst).

    Pathwise the geometric average lies below the arithmetic one, so this is
    a lower bound on the arithmetic-average call.
    """
    sig_avg = sigma * math.sqrt(maturity / 3.0)
    drift = 0.5 * maturity * (rate + sigma**2 / 6.0)
    d1 = (math.log(spot / strike) + drift) / sig_avg
    d2 = d1 - sig_avg
    return spot * math.exp(-drift) * _norm_cdf(d1) - strike * math.exp(-rate * maturity) * _norm_cdf(d2)


def parity_residual(
    call: float, put: float, spot: float, strike: float, maturity: float, rate: float
) -> float:
    """C - P - (S0 (1 - e^{-rT}) / (rT) - K e^{-rT}): zero for exact continuous-average prices."""
    forward = spot * (1.0 - math.exp(-rate * maturity)) / (rate * maturity)
    return call - put - (forward - strike * math.exp(-rate * maturity))


def price_failures(
    kind: str,
    price: float,
    spot: float,
    strike: float,
    maturity: float,
    sigma: float,
    rate: float,
    geometric_floor: bool = True,
) -> list[str]:
    """Finite, within the no-arbitrage range, and (calls) at or above the geometric call.

    The upper bounds catch a blow-up that the stability guard lets through:
    0 <= call <= S0 and 0 <= put <= K e^{-rT}.
    """
    label = f"{kind} K={strike:.6g} sigma={sigma:.6g} T={maturity:.6g}: price {price!r}"
    if not math.isfinite(price):
        return [f"{label} is not finite"]
    upper = spot if kind == "call" else strike * math.exp(-rate * maturity)
    if not 0.0 <= price <= upper:
        return [f"{label} outside [0, {upper:.6g}]"]
    if kind == "call" and geometric_floor:
        floor = geometric_call(spot, strike, maturity, sigma, rate)
        if not price >= floor:
            return [f"{label} below the geometric call {floor:.6g}"]
    return []


def pair_failures(
    call: float,
    put: float,
    spot: float,
    strike: float,
    maturity: float,
    sigma: float,
    rate: float,
    parity_bound: float,
) -> tuple[list[str], float]:
    """Checks of one call/put pair and its absolute parity residual (nan if not computable)."""
    failures = price_failures("call", call, spot, strike, maturity, sigma, rate)
    failures += price_failures("put", put, spot, strike, maturity, sigma, rate)
    residual = abs(parity_residual(call, put, spot, strike, maturity, rate))
    if not residual <= parity_bound:
        failures.append(
            f"parity K={strike:.6g} sigma={sigma:.6g}: |residual| {residual!r} > {parity_bound}"
        )
    return failures, residual


def table_failures(
    rows: list[tuple], spot: float, rate: float, parity_bound: float
) -> tuple[list[str], float]:
    """Check every row of ``harness.run_table``; return failures and the largest PDE parity residual.

    Rows are ``(sigma, T_months, K, kind, method, price, std_error)``.  PDE
    prices get every price check; Monte Carlo and geometric prices get the
    finite and range checks (a sampled call may sit below the geometric
    floor).  Each PDE method's call/put pair gets the parity check.
    """
    failures: list[str] = []
    pairs: dict[tuple, dict[str, float]] = {}
    for sigma, t_months, strike, kind, method, price, _ in rows:
        maturity = t_months / 12.0
        is_pde = method.startswith(PDE_METHODS)
        failures += [
            f"{method} {msg}"
            for msg in price_failures(kind, price, spot, strike, maturity, sigma, rate, is_pde)
        ]
        if is_pde:
            pairs.setdefault((sigma, t_months, strike, method), {})[kind] = price
    worst = 0.0
    for (sigma, t_months, strike, method), prices in pairs.items():
        if set(prices) != {"call", "put"}:
            failures.append(f"{method} sigma={sigma} T={t_months}mo K={strike}: call/put pair incomplete")
            continue
        residual = abs(parity_residual(prices["call"], prices["put"], spot, strike, t_months / 12.0, rate))
        worst = max(worst, residual)
        if not residual <= parity_bound:
            failures.append(
                f"{method} parity sigma={sigma} T={t_months}mo K={strike}: |residual| {residual!r} > {parity_bound}"
            )
    if not pairs:
        failures.append("table holds no PDE rows")
    return failures, worst


def rows_digest(rows: list[tuple]) -> str:
    """Digest of the rows; equal digests mean byte-identical ``%.17g`` CSV output."""
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()
