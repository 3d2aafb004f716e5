"""Benchmark entry point for phmid.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The workload is a closed loop: one
client in one process issues its operations back to back for `--seconds`
seconds, with every BLAS pool pinned to one thread. The lines printed
first explain the run (environment, specs, every metric with its unit,
the failure breakdown); the last line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics. `--trace 1` spends half of
the time untraced and half with span hooks on every layer, and reports
the per-layer metrics plus the tracing overhead between the two halves.
Both write their result, with the environment, to
`.perfbench_out/BENCH_<workload>_seed<N>_trace<T>.json`; the traced run
also writes its spans there. The exit code is 0 when every output
checked out, 1 when one did not, and 2 when the package cannot be found.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
# Must happen before numpy is imported anywhere in the process.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOAD_NAMES = ("desk-sweep", "wide-tau", "large-ring", "certify")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="phmid benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 gives the specs named in "
                             "perfbench/README.md")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time of the passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    # phmid comes from this checkout's src/ and from nowhere else.
    if not (SRC / "phmid" / "__init__.py").is_file():
        print(f"perfbench: no phmid package under {SRC}; run from the root "
              "of a phmid checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench
    return bench.run(args, BLAS_THREAD_VARS)


if __name__ == "__main__":
    sys.exit(main())
