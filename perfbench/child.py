"""One benchmark process: set up a workload, then (unless --setup-only) measure it.

Started by ``run.py`` from the root of a checkout; prints one JSON object as
its last line.  Set-up time runs from the top of this file, before numpy and
asianpde are imported, to the end of the untimed warm-up.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SPANS_DIR = Path(".perfbench-out")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path.cwd() / "src"))
    import numpy

    import workloads
    from tracing import Tracer

    w = workloads.setup(args.workload, args.size, args.seed)
    out = {"setup_s": time.perf_counter() - _T0}
    if not args.setup_only:
        tracer = Tracer() if args.trace else None
        result = workloads.measure(w, args.seed, args.seconds, tracer)
        tally = result["tally"]
        rss_kb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
        out.update(
            attempted=tally.attempted,
            failed=tally.failed,
            failures=tally.messages,
            op_times=result["op_times"],
            metrics=result["metrics"],
            detail=result["detail"],
            peak_rss_mb=rss_kb / 1024.0,
            numpy=numpy.__version__,
        )
        if tracer:
            path = SPANS_DIR / f"spans-{args.workload}-{args.size}-seed{args.seed}.csv.gz"
            tracer.write(path)
            out["spans"] = str(path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
