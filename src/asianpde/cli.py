"""Command-line interface.

Subcommands: price, table, transect, converge, mc.  Every config-file key is
mirrored by a flag of the same name; explicit flags override file values.
Exit codes: 0 success, 2 configuration/usage error, 3 stability violation,
4 I/O error.
"""

from __future__ import annotations

import functools
import sys

import click

from . import harness
from .config import load_config_file, resolve_config
from .errors import ConfigurationError, StabilityError

EXIT_STABILITY = 3
EXIT_IO = 4

_OPTIONS = [
    click.option("--kind", type=click.Choice(["call", "put"]), default=None),
    click.option("--strike", type=float, default=None),
    click.option("--spot", type=float, default=None),
    click.option("--rate", type=float, default=None),
    click.option("--sigma", type=float, default=None),
    click.option("--maturity-months", type=float, default=None),
    click.option("--smin", type=float, default=None),
    click.option("--smax", type=float, default=None),
    click.option("--amax", type=float, default=None),
    click.option("--nx", type=int, default=None),
    click.option("--ny", type=int, default=None),
    click.option("--dt", type=float, default=None),
    click.option("--iters", type=int, default=None),
    click.option("--nonosc/--no-nonosc", default=None),
    click.option("--seed", type=int, default=None),
    click.option("--paths", type=int, default=None),
    click.option("--steps", type=int, default=None),
    click.option("--workers", type=int, default=None),
    click.option("--out", type=click.Path(dir_okay=False), default=None),
    click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None),
]


def _common_options(func):
    for option in reversed(_OPTIONS):
        func = option(func)
    return func


def _build_config(command: str, config_path, cli_values: dict):
    file_values = load_config_file(config_path) if config_path else {}
    return resolve_config(command, file_values, cli_values)


def _require_strike_on_grid(cfg, strike: float) -> None:
    """Refuse a strike above amax: the payoff kink would lie off the grid and the price read 0."""
    if strike > cfg.amax:
        raise ConfigurationError(
            f"strike {strike:g} lies above amax = {cfg.amax:g}; raise --amax above the strike"
        )


def _handle_errors(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except ConfigurationError as exc:
            raise click.UsageError(str(exc)) from exc
        except StabilityError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_STABILITY)
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(EXIT_IO)

    return wrapper


@click.group()
@click.version_option(package_name="asianpde")
def main():
    """Asian option valuation with an MPDATA transport solver."""


@main.command()
@_common_options
@click.option("--with-mc", is_flag=True, default=False, help="Also run the Monte Carlo reference.")
@_handle_errors
def price(config_path, with_mc, **cli_values):
    """Value one instrument and print the method breakdown."""
    cfg = _build_config("price", config_path, cli_values)
    _require_strike_on_grid(cfg, cfg.strike)
    report = harness.run_price(cfg, with_mc=with_mc)
    for line in report.lines():
        click.echo(line)
    if cfg.out:
        click.echo(f"wrote {cfg.out}")


@main.command()
@_common_options
@_handle_errors
def table(config_path, **cli_values):
    """Reproduce the full valuation table (8 parameter rows x call/put)."""
    cfg = _build_config("table", config_path, cli_values)
    _require_strike_on_grid(cfg, max(strike for _, _, strike in harness.TABLE_ROWS))
    _, rendered = harness.run_table(cfg)
    click.echo(rendered)
    if cfg.out:
        click.echo(f"wrote {cfg.out}")


@main.command()
@_common_options
@_handle_errors
def transect(config_path, **cli_values):
    """Emit the y = 0 transect curves (UPWIND, MPDATA, MC, analytic) as CSV."""
    cfg = _build_config("transect", config_path, cli_values)
    _require_strike_on_grid(cfg, cfg.strike)
    rows = harness.run_transect(cfg)
    if not cfg.out:
        click.echo(",".join(harness.TRANSECT_HEADER))
        for row in rows:
            click.echo(",".join(harness._fmt(v) for v in row))
    else:
        click.echo(f"wrote {cfg.out} ({len(rows)} rows)")


@main.command()
@_common_options
@click.option("--levels", type=int, default=5, show_default=True)
@_handle_errors
def converge(config_path, levels, **cli_values):
    """Solid-body-translation convergence study at doubled resolutions."""
    cfg = _build_config("converge", config_path, cli_values)
    rows = harness.run_converge(cfg, levels)
    click.echo(f"{'dx':>12} {'l2_error':>12} {'order':>7}")
    for dx, err, order in rows:
        click.echo(f"{dx:>12.6g} {err:>12.6g} " + (f"{order:>7.3f}" if order is not None else f"{'-':>7}"))
    if cfg.out:
        click.echo(f"wrote {cfg.out}")


@main.command()
@_common_options
@_handle_errors
def mc(config_path, **cli_values):
    """Monte Carlo valuation of the configured instrument."""
    cfg = _build_config("mc", config_path, cli_values)
    res = harness.run_mc(cfg)
    click.echo(f"mc price {res.price:.6f} +- {res.std_error:.6f} (n_paths={res.n_paths})")
    if cfg.out:
        click.echo(f"wrote {cfg.out}")


if __name__ == "__main__":
    main()
