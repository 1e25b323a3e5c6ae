"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line before
it holds diagnostics (environment, corpus statistics, checks). The exit code
is 0 when every correctness check passed, 1 when one failed and 2 when the
benchmark could not run (for example, the mmner sources are missing).
"""

import os

# Pin BLAS and OpenMP pools to one thread before anything loads numpy.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"


def environment() -> dict:
    import numpy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        env["blas"] = None
    return env


def _import_mmner():
    """Import mmner from this checkout's sources, never from elsewhere."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        import mmner
    except ImportError as exc:
        print(f"perfbench: cannot import mmner from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    if SRC not in Path(mmner.__file__).resolve().parents:
        print(f"perfbench: mmner was imported from {mmner.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def _exit_on_sigterm(signum, frame):
    # Unwind normally, so that a running model-preparation child is killed
    # and waited for instead of being left behind.
    raise SystemExit(128 + signum)


def main(argv=None, scale=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_mmner()
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    outcome = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        scale or workloads.PAPER, str(OUT_DIR),
    )
    correct = outcome.failed == 0 and outcome.attempted > 0
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "failed_frac": outcome.failed / max(outcome.attempted, 1),
        "failures": outcome.failures, "environment": environment(), **outcome.info,
    }
    for line in outcome.failures:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": outcome.metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    sys.exit(main())
