from dataclasses import fields

import pytest
from click.testing import CliRunner

from asianpde import harness
from asianpde.cli import main
from asianpde.config import RunConfig
from asianpde.reference import McResult

FAST = ["--nx", "32", "--ny", "32", "--dt", "0.005", "--paths", "300", "--steps", "40"]


@pytest.fixture
def runner():
    return CliRunner()


class TestPriceCommand:
    def test_basic_run(self, runner):
        result = runner.invoke(main, ["price", *FAST])
        assert result.exit_code == 0
        assert "mpdata_2it" in result.output
        assert "geometric" in result.output

    def test_csv_output(self, runner, tmp_path):
        out = tmp_path / "p.csv"
        result = runner.invoke(main, ["price", *FAST, "--out", str(out)])
        assert result.exit_code == 0
        header = out.read_text().splitlines()[0]
        assert header == "sigma,T_months,K,kind,method,price,std_error"

    def test_config_file_and_flag_override(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind = put\nstrike = 105\nnx = 32\nny = 32\ndt = 0.005\n")
        result = runner.invoke(main, ["price", "--config", str(cfg), "--strike", "95"])
        assert result.exit_code == 0
        assert "put strike=95" in result.output

    def test_usage_error_exit_code(self, runner):
        result = runner.invoke(main, ["price", "--nx", "2"])
        assert result.exit_code == 2
        assert "at least 3 cells" in result.output

    def test_unknown_config_key_exit_code(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("volatility = 0.3\n")
        result = runner.invoke(main, ["price", "--config", str(cfg)])
        assert result.exit_code == 2

    def test_stability_violation_exit_code(self, runner):
        result = runner.invoke(main, ["price", "--sigma", "0.4", "--nx", "200"])
        assert result.exit_code == 3
        assert "diffusive criterion" in result.output

    def test_maturity_below_half_step_refused(self, runner):
        # T = 0.5 < dt / 2: one step of length T, far past the advective limit, not a silent 0
        result = runner.invoke(main, ["price", "--dt", "2"])
        assert result.exit_code == 3
        assert "advective criterion" in result.output

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--dt", "0"], "dt must be positive"),
            (["--dt", "-0.001"], "dt must be positive"),
            (["--sigma", "nan"], "sigma must be finite"),
            (["--rate", "nan"], "rate must be finite"),
            (["--amax", "50"], "lies above amax"),
            (["--with-mc", "--paths", "1"], "n_paths must be >= 2"),
            (["--dt", "1e-300"], "time steps over T"),
            (["--dt", "1e-12"], "time steps over T"),
        ],
    )
    def test_invalid_input_exit_code(self, runner, args, message):
        result = runner.invoke(main, ["price", *args])
        assert result.exit_code == 2
        assert message in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_io_error_exit_code(self, runner):
        result = runner.invoke(
            main, ["price", *FAST, "--out", "/nonexistent-dir/x.csv"]
        )
        assert result.exit_code == 4


class TestMcCommand:
    def test_deterministic_output(self, runner):
        args = ["mc", "--paths", "500", "--steps", "30", "--seed", "9"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0
        assert first.output == second.output
        assert "mc price" in first.output

    def test_one_path_refused(self, runner):
        result = runner.invoke(main, ["mc", "--paths", "1", "--steps", "30"])
        assert result.exit_code == 2
        assert "n_paths must be >= 2" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)


class TestConvergeCommand:
    def test_runs_and_validates_levels(self, runner):
        result = runner.invoke(main, ["converge", "--levels", "3", "--nx", "12", "--iters", "1"])
        assert result.exit_code == 0
        assert "order" in result.output
        result = runner.invoke(main, ["converge", "--levels", "2"])
        assert result.exit_code == 2


class TestTransectCommand:
    def test_writes_csv(self, runner, tmp_path):
        out = tmp_path / "t.csv"
        result = runner.invoke(
            main,
            ["transect", "--paths", "200", "--steps", "30", "--out", str(out)],
        )
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "s,upwind,mpdata_2it,mpdata_4it,mc,european,geometric_asian"
        assert len(lines) == 22  # header + one row per grid column


class TestTableCommand:
    def test_strike_above_amax_refused(self, runner):
        result = runner.invoke(main, ["table", "--amax", "104"])
        assert result.exit_code == 2
        assert "strike 105 lies above amax" in result.output

    @pytest.mark.parametrize("workers", [1, 2])
    def test_offending_row_identified_on_stability_violation(self, runner, workers):
        # with 2 workers the error is pickled back from a pool process and names the same row
        result = runner.invoke(main, ["table", "--nx", "200", "--dt", "0.002", "--workers", str(workers)])
        assert result.exit_code == 3
        assert "table row sigma=0.2 T=6mo K=100" in result.output
        assert "diffusive criterion" in result.output

    @pytest.mark.parametrize("workers", [1, 2])
    def test_march_too_long_refused(self, runner, workers):
        # up to 1e12 steps of 102x121 cells would run for years; refused before the first
        result = runner.invoke(main, ["table", "--dt", "1e-12", "--workers", str(workers)])
        assert result.exit_code == 2
        assert "time steps over T" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)


class TestSettingFlags:
    def test_every_setting_has_a_flag_that_reaches_the_config(self, runner, monkeypatch):
        # a value off the default for every RunConfig field, numbers one above it
        other = {"kind": "put", "out": "other.csv", "nonosc": False}
        values = {f.name: other[f.name] if f.name in other else f.default + 1 for f in fields(RunConfig)}
        args = ["mc"]
        for name, value in values.items():
            flag = "--" + name.replace("_", "-")
            if isinstance(value, bool):
                args.append(flag if value else "--no-" + flag[2:])
            else:
                args += [flag, str(value)]
        seen = []
        monkeypatch.setattr(harness, "run_mc", lambda cfg: seen.append(cfg) or McResult(1.0, 0.1, 2))
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert seen == [RunConfig(**values)]
