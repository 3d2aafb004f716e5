"""Set-up pieces of a run, timed in one process against a second tree.

    python3 bench/setup_parts.py --before ../parent/src --out FOLDER \
        [--n 1000 100000]

A run's set-up builds its graph and its costs, then solves for theta*.
The curvature constants `mu` and `lipschitz` are read only by `certify`
and the tests. For each N, the script times these pieces of the `phmid`
under `--before` and of this tree's (or `--src`'s), each imported under
its own name:

- `cycle:N`, `quadratic:3:42` and `logistic:3:10:0.1:42`, each built
  from its spec;
- `theta*` of each cost, on the ensemble just built;
- the first read of `mu` and `lipschitz` of each cost, on the same
  ensemble.

The two trees alternate in blocks, the before tree first in even blocks
and the after tree first in odd ones, so that a slow stretch of the
machine falls on both. A block times every piece `calls` times on each
side and keeps the best. The defaults are 10 blocks of 5 calls up to
N = 10000 and 4 blocks of 1 call above. Each piece's median over the
blocks on each side, every block's value and the number of blocks the
after tree won go to `FOLDER/BENCH_setup_N<N>.json`, with the
environment. BLAS runs on one thread. numpy, the standard library and
`phmid` only.
"""

import argparse
import importlib.util
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

COSTS = {"quadratic": "quadratic:3:42", "logistic": "logistic:3:10:0.1:42"}
SIDES = ("before", "after")


def load(src, name):
    """The `phmid` package under `src`, imported as `name`."""
    package = Path(src).resolve() / "phmid"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def timed(fn):
    """(seconds, result) of one call."""
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def one_call(phmid, n):
    """{piece: seconds} of one set-up of every piece."""
    seconds = {}
    seconds[f"cycle:{n}"], _ = timed(lambda: phmid.graphs.from_spec(f"cycle:{n}"))
    for family, spec in COSTS.items():
        seconds[spec], ensemble = timed(lambda: phmid.costs.from_spec(spec, n))
        seconds[f"theta*, {family}"], _ = timed(ensemble.centralized_optimum)
        seconds[f"mu and lipschitz, {family}"], _ = timed(
            lambda: (ensemble.mu, ensemble.lipschitz))
    return seconds


def measure(trees, n, blocks, calls):
    """{piece: {side: [best of `calls` per block]}}, sides alternating."""
    runs = {}
    for block in range(blocks):
        order = SIDES if block % 2 == 0 else SIDES[::-1]
        for side in order:
            best = {}
            for _ in range(calls):
                for piece, s in one_call(trees[side], n).items():
                    best[piece] = min(s, best.get(piece, np.inf))
            for piece, s in best.items():
                runs.setdefault(piece, {each: [] for each in SIDES})[side].append(s)
    return runs


def summary(runs):
    out = {}
    for piece, sides in runs.items():
        out[piece] = {f"{side}_median_s": statistics.median(sides[side])
                      for side in SIDES}
        out[piece]["after_won"] = sum(a < b for b, a in zip(sides["before"],
                                                            sides["after"]))
        out[piece].update({f"{side}_s": sides[side] for side in SIDES})
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    here = Path(__file__).resolve().parents[1] / "src"
    parser.add_argument("--before", required=True, type=Path,
                        help="src folder of the tree to compare against")
    parser.add_argument("--src", type=Path, default=here,
                        help="src folder of the tree under test")
    parser.add_argument("--out", required=True, type=Path,
                        help="folder that receives BENCH_setup_N<N>.json")
    parser.add_argument("--n", type=int, nargs="+", default=[1000, 100000])
    args = parser.parse_args(argv)
    trees = {"before": load(args.before, "phmid_before"),
             "after": load(args.src, "phmid_after")}
    args.out.mkdir(parents=True, exist_ok=True)
    for n in args.n:
        blocks, calls = (10, 5) if n <= 10000 else (4, 1)
        result = {
            "n": n, "blocks": blocks, "calls_per_block": calls,
            "environment": {"python": platform.python_version(),
                            "numpy": np.__version__,
                            "machine": platform.machine(),
                            "processor": platform.processor(),
                            "cpus": os.cpu_count(),
                            "blas_threads": 1},
            "pieces": summary(measure(trees, n, blocks, calls)),
        }
        path = args.out / f"BENCH_setup_N{n}.json"
        path.write_text(json.dumps(result, indent=2) + "\n")
        for piece, row in result["pieces"].items():
            print(f"N={n} {piece}: {row['before_median_s'] * 1e3:.3f} -> "
                  f"{row['after_median_s'] * 1e3:.3f} ms "
                  f"({row['after_won']}/{blocks})")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
