"""Benchmark of asianpde: seeded workloads timed from outside, with checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload price_mpdata --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run.  The line
before it holds the run's metadata and raw samples.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("price_mpdata", "price_upwind_fine", "table_coarse")
SETUP_PROBES = 5  # set-up-only processes before and again after the measured one, which adds one sample
# The program makes no BLAS call.  An idle OpenBLAS worker still spins at
# `import numpy` and, when the other core is busy, adds up to 70 ms to a
# set-up, so every benchmark process runs with one BLAS thread.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1"}
TIME_LIMIT_S = 170.0
CHILD = Path(__file__).resolve().parent / "child.py"


def _child(args: argparse.Namespace, deadline: float, *extra: str) -> dict:
    cmd = [
        sys.executable, str(CHILD),
        "--workload", args.workload, "--size", args.size, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=dict(os.environ, **CHILD_ENV),
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"benchmark process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cache_sizes() -> dict:
    """Unified cache sizes of cpu0 by level, as the kernel reports them (e.g. '2048K')."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind == "Unified":
            sizes[f"l{level}"] = size
    return sizes


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root: Path):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))  # never look above the checkout
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metadata(root: Path, numpy_version: str) -> dict:
    src = root / "src" / "asianpde"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(root),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.rglob("*.py")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long smoke sizes for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "asianpde" / "__init__.py").is_file():
        print(f"error: {root} holds no src/asianpde; run from the root of a checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    # set-up is reported only untraced; its probes bracket the measured run
    probes = 0 if args.trace else SETUP_PROBES

    def setup_probes() -> list:
        return [_child(args, deadline, "--setup-only")["setup_s"] for _ in range(probes)]

    try:
        setup_samples = setup_probes()
        measured = _child(args, deadline)
        setup_samples += [measured["setup_s"], *setup_probes()]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = dict(measured["metrics"])
    if not args.trace:
        # the fastest set-up: slow periods of a shared host outlast a run and
        # inflate cold-start work more than the timed steps, so a median drifts
        metrics["setup_s"] = (min(setup_samples), "s")
        metrics["peak_rss_mb"] = (measured["peak_rss_mb"], "MB")
    for message in measured["failures"]:
        print(f"check failed: {message}", file=sys.stderr)

    print(json.dumps({
        "meta": metadata(root, measured["numpy"]),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "op_times_s": measured["op_times"],
        "setup_samples_s": setup_samples,
        "detail": measured["detail"],
        "spans": measured.get("spans"),
    }))
    finite = all(math.isfinite(value) for value, _ in metrics.values())
    print(json.dumps({
        "correct": measured["failed"] == 0 and finite,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
