"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.2",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


BLOWUP = {"spot": 100.0, "strike": 100.0, "maturity": 0.5, "sigma": 0.4, "rate": 0.1}


@pytest.mark.parametrize("price", [4.5e111, 9.5e125, math.inf, math.nan, -1e-3])
def test_checker_fails_a_price_outside_the_no_arbitrage_range(price):
    # 102x484 cells, sigma 0.4, 6 months and dt 1/1760 pass the stability
    # guard yet return 4.5e111 (upwind) and 9.5e125 (2 iterations)
    assert checks.price_failures("call", price, **BLOWUP)
    assert checks.price_failures("put", price, **BLOWUP)
    failures, _ = checks.pair_failures(price, 5.23, **BLOWUP, parity_bound=0.5)
    assert failures
    rows = [(0.4, 6.0, 100.0, "call", "mpdata_2it", price, None),
            (0.4, 6.0, 100.0, "put", "mpdata_2it", 5.23, None)]
    assert checks.table_failures(rows, 100.0, 0.1, parity_bound=1.0)[0]


def test_checker_passes_the_published_row_and_bounds_the_put():
    # 102x121 MPDATA prices of the sigma = 0.4, K = 100, 6-month row
    failures, residual = checks.pair_failures(7.675663, 5.231405, **BLOWUP, parity_bound=0.5)
    assert failures == [] and residual < 0.05
    assert checks.price_failures("put", 95.2, **BLOWUP)  # above K e^{-rT} = 95.12
    assert checks.price_failures("call", 7.0, **BLOWUP)  # below the geometric call 7.17


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "price_mpdata", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
