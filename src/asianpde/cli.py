"""Command-line interface.

Subcommands: price, table, transect, converge, mc.  Every config-file key (a
``RunConfig`` field) is mirrored by a flag of the same name, built from the
field; explicit flags override file values.
Exit codes: 0 success, 2 configuration/usage error (a configuration that
does not fit in memory too), 3 stability violation, 4 I/O error.
"""

from __future__ import annotations

import functools
import sys

import click

from . import harness
from .config import SETTING_TYPES, load_config_file, resolve_config
from .errors import ConfigurationError, StabilityError
from .pricing import KINDS

EXIT_USAGE = 2
EXIT_STABILITY = 3
EXIT_IO = 4

_FLAG_TYPES = {"kind": click.Choice(KINDS), "out": click.Path(dir_okay=False)}


def _setting_option(name: str, kind: type):
    flag = "--" + name.replace("_", "-")
    if kind is bool:
        return click.option(f"{flag}/--no-{flag[2:]}", default=None)
    return click.option(flag, type=_FLAG_TYPES.get(name, kind), default=None)


_OPTIONS = [_setting_option(name, kind) for name, kind in SETTING_TYPES.items()]
_OPTIONS.append(
    click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
)


def _common_options(func):
    for option in reversed(_OPTIONS):
        func = option(func)
    return func


def _build_config(command: str, config_path, cli_values: dict):
    file_values = load_config_file(config_path) if config_path else {}
    return resolve_config(command, file_values, cli_values)


def _handle_errors(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except ConfigurationError as exc:
            raise click.UsageError(str(exc)) from exc
        except MemoryError as exc:
            click.echo(f"error: this configuration does not fit in memory. {exc}".rstrip(), err=True)
            sys.exit(EXIT_USAGE)
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
    rows = harness.run_transect(cfg)
    if not cfg.out:
        harness.emit_csv(sys.stdout, harness.TRANSECT_HEADER, rows)
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
