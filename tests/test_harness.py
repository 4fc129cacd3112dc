import concurrent.futures
import hashlib

import pytest

from asianpde.config import RunConfig, load_config_file, resolve_config
from asianpde.errors import ConfigurationError
from asianpde.harness import (
    TRANSECT_HEADER,
    run_converge,
    run_mc,
    run_price,
    run_table,
    run_transect,
    write_csv,
)

# coarse-but-stable settings so harness tests stay fast
FAST = dict(nx=32, ny=32, dt=1.0 / 200.0, paths=400, steps=50)
# numpy's exp, sums and ziggurat make the table's MC columns: another numpy build may move this
TABLE_GOLDEN = "d8033bfebab792eb6700bbc59db43986f0ec4979cb9da5df68e864754748aa3d"


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# comment line\n"
            "kind = put\n"
            "strike = 105\n"
            "maturity_months = 12\n"
            "nonosc = false\n"
            "nx = 48\n"
            "\n"
            "out = table.csv\n"
        )
        values = load_config_file(cfg_file)
        assert values == {
            "kind": "put",
            "strike": 105.0,
            "maturity_months": 12.0,
            "nonosc": False,
            "nx": 48,
            "out": "table.csv",
        }

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("volatility = 0.2\n")
        with pytest.raises(ConfigurationError, match="unknown setting"):
            load_config_file(cfg_file)

    def test_bad_boolean_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("nonosc = maybe\n")
        with pytest.raises(ConfigurationError, match="boolean"):
            load_config_file(cfg_file)

    def test_missing_equals_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("nx 48\n")
        with pytest.raises(ConfigurationError, match="key = value"):
            load_config_file(cfg_file)


class TestResolveConfig:
    def test_cli_overrides_file(self):
        cfg = resolve_config("price", {"strike": 90.0, "nx": 48}, {"strike": 95.0, "ny": None})
        assert cfg.strike == 95.0  # explicit flag wins
        assert cfg.nx == 48  # file value survives
        assert cfg.ny == 121  # default

    def test_transect_defaults(self):
        cfg = resolve_config("transect", {}, {})
        assert (cfg.nx, cfg.ny) == (21, 31)
        assert cfg.dt == pytest.approx(1.0 / 500.0)

    def test_file_overrides_command_default(self):
        cfg = resolve_config("transect", {"nx": 42}, {})
        assert cfg.nx == 42

    def test_table_defaults(self):
        cfg = resolve_config("table", {}, {})
        assert (cfg.nx, cfg.ny) == (102, 121)
        assert cfg.dt == pytest.approx(1.0 / 1760.0)
        assert cfg.nonosc is True and cfg.iters == 2


class TestWriteCsv:
    def test_format_and_line_endings(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["a", "b", "c"], [(1.0 / 3.0, None, "x")])
        raw = path.read_bytes()
        assert raw == b"a,b,c\n0.33333333333333331,,x\n"


class TestRunPrice:
    def test_report_contents(self, tmp_path):
        out = tmp_path / "price.csv"
        cfg = RunConfig(**FAST, out=str(out))
        report = run_price(cfg, with_mc=True)
        methods = [m for m, _, _ in report.entries]
        assert methods == ["mpdata_2it", "geometric", "european", "mc_400"]
        prices = {m: p for m, p, _ in report.entries}
        assert prices["mpdata_2it"] > prices["geometric"] > 0.0
        assert out.read_text().count("\n") == 5  # header + four methods
        assert any("mpdata_2it" in line for line in report.lines())

    def test_upwind_label_for_single_iteration(self):
        report = run_price(RunConfig(**FAST, iters=1))
        assert report.entries[0][0] == "upwind"


class TestRunTransect:
    def test_row_count_and_ordering(self):
        cfg = RunConfig(
            kind="call", rate=0.08, sigma=0.4, maturity_months=12.0,
            nx=21, ny=31, dt=1.0 / 500.0, paths=300, steps=40,
        )
        rows = run_transect(cfg)
        assert len(rows) == 21
        s = [row[0] for row in rows]
        assert all(s[i] < s[i + 1] for i in range(len(s) - 1))
        assert all(len(row) == len(TRANSECT_HEADER) for row in rows)
        assert all(v >= 0.0 for row in rows for v in row)
        # away from the domain edges the numerical-diffusion ordering holds
        # per column; near S_max the inflow extrapolation biases every PDE
        # curve low and the ordering degenerates
        for s_, upwind, mp2, mp4, mc, euro, geo in rows[:13]:
            assert upwind >= mp2 >= mp4 >= geo
            assert euro >= mp4
        # call values are non-decreasing in the spot
        for curve in range(1, 4):
            vals = [row[curve] for row in rows]
            assert all(vals[i] <= vals[i + 1] + 1e-9 for i in range(len(vals) - 1))


class TestRunConverge:
    def test_rows_and_levels_guard(self):
        cfg = RunConfig(nx=12, iters=1)
        rows = run_converge(cfg, levels=3)
        assert len(rows) == 3
        assert rows[0][2] is None and rows[1][2] is not None
        with pytest.raises(ConfigurationError, match="levels"):
            run_converge(cfg, levels=2)


class TestRunMc:
    def test_matches_direct_call(self):
        cfg = RunConfig(**FAST)
        res1 = run_mc(cfg)
        res2 = run_mc(cfg)
        assert res1 == res2
        assert res1.n_paths == cfg.paths


class TestRunTable:
    def test_structure_and_workers_equivalence(self, tmp_path, monkeypatch):
        # shrink the pinned MC sampling so the structural check stays fast;
        # the full-size command is exercised by the acceptance suite
        import asianpde.harness as harness

        monkeypatch.setattr(harness, "TABLE_MC_PATHS", (500, 2000))
        monkeypatch.setattr(harness, "TABLE_MC_STEPS", 50)
        base = dict(nx=24, ny=24, dt=1.0 / 150.0)
        out1 = tmp_path / "t1.csv"
        out2 = tmp_path / "t2.csv"
        rows1, rendered = run_table(RunConfig(**base, workers=1, out=str(out1)))
        rows2, _ = run_table(RunConfig(**base, workers=3, out=str(out2)))
        assert rows1 == rows2
        assert out1.read_bytes() == out2.read_bytes()
        # 8 parameter rows x 2 kinds x 5 methods
        assert len(rows1) == 80
        methods = {row[4] for row in rows1}
        assert methods == {"upwind", "mpdata_2it", "mc_0k", "mc_2k", "geometric"}

    def test_single_iteration_prices_each_row_once(self, monkeypatch):
        # at --iters 1 the MPDATA column is the upwind one: no second job, row or column
        import asianpde.harness as harness

        monkeypatch.setattr(harness, "TABLE_MC_PATHS", (1000, 2000))
        monkeypatch.setattr(harness, "TABLE_MC_STEPS", 10)
        priced = []
        pde_job = harness._pde_job
        monkeypatch.setattr(harness, "_pde_job", lambda key, *args: priced.append(key) or pde_job(key, *args))
        base = dict(nx=24, ny=20, dt=1.0 / 100.0)
        rows, rendered = run_table(RunConfig(**base, iters=1))
        assert len(priced) == 16
        keys = [row[:5] for row in rows]
        assert len(keys) == len(set(keys)) == 8 * 2 * 4
        assert rendered.splitlines()[0].count("C:upwind") == 1
        two_iteration_rows = run_table(RunConfig(**base, iters=2))[0]
        assert rows == [row for row in two_iteration_rows if row[4] != "mpdata_2it"]

    @pytest.mark.parametrize("workers, cpus, size", [(10_000, 3, 3), (2, 64, 2), (10_000, 1, None)])
    def test_pool_size_bounded_by_cpus(self, monkeypatch, workers, cpus, size):
        # the recorder starts no thread: it runs the jobs in the calling one
        import asianpde.harness as harness

        sizes, shutdowns = [], []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def map(self, fn, jobs):
                return map(fn, jobs)

            def shutdown(self, wait=True, *, cancel_futures=False):
                shutdowns.append(cancel_futures)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
        monkeypatch.setattr(harness, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(harness, "TABLE_MC_PATHS", (100, 200))
        monkeypatch.setattr(harness, "TABLE_MC_STEPS", 10)
        base = dict(nx=24, ny=20, dt=1.0 / 100.0)
        rows, _ = run_table(RunConfig(**base, workers=workers))
        assert sizes == ([] if size is None else [size])
        assert shutdowns == ([] if size is None else [True])
        assert rows == run_table(RunConfig(**base, workers=1))[0]

    def test_unknown_cpu_count_counts_as_one(self, monkeypatch):
        # no affinity mask and no CPU count: the table runs without a pool
        import asianpde.pricing as pricing

        monkeypatch.delattr(pricing.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(pricing.os, "cpu_count", lambda: None)
        assert pricing.usable_cpus() == 1

    def test_rows_match_golden_digest(self, monkeypatch):
        # sha256 of repr(rows) as the table gave it when each (sigma, T) MC set
        # drew its own normals; 5000 paths end in a partial block
        import asianpde.harness as harness

        monkeypatch.setattr(harness, "TABLE_MC_PATHS", (100, 5000))
        monkeypatch.setattr(harness, "TABLE_MC_STEPS", 20)
        rows, _ = run_table(RunConfig(nx=24, ny=20, dt=1.0 / 100.0))
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == TABLE_GOLDEN
