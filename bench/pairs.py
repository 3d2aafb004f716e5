"""Alternating benchmark pairs of a parent tree and a change tree.

    python3 bench/pairs.py --parent DIR --change DIR --name FOLDER \
        --workload certify --seed 0 [--pairs 10]

Runs `perfbench/run.py --trace 0`, at the benchmark's own run length,
once in each tree per pair, one process at a time, the parent first in
even pairs and the change first in odd ones, so that a slow stretch of
the machine falls on both sides. For
every end-to-end metric of the result line it reports the median of each
side, the interquartile range of the parent's runs, and the number of
pairs in which the change did better. A gain counts when the change wins
at least nine pairs in ten and its median differs from the parent's by
more than the parent's interquartile range.

The summary, with every run's value and the environment of both trees,
is written to `bench/FOLDER/pairs_<workload>_seed<N>.json`. The result
files of the first pair are copied to `bench/FOLDER/parent/` and
`bench/FOLDER/change/`. Standard library only; run it from any
directory.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SIDES = ("parent", "change")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path,
                        help="checkout of the change")
    parser.add_argument("--name", required=True,
                        help="folder under bench/ that receives the results")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    for side in SIDES:
        if not (getattr(args, side) / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {getattr(args, side)} has no perfbench/run.py")
    return args


def run_once(tree, args):
    """One benchmark process in `tree`: (result line, result file path)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    name = f"BENCH_{args.workload}_seed{args.seed}_trace0.json"
    return json.loads(lines[-1]), tree / ".perfbench_out" / name


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs, better):
    """Per-metric medians, parent IQR and win count over the pairs."""
    metrics = {}
    for name in runs["parent"][0]["metrics"]:
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in SIDES}
        lower = better.get(name, "lower") == "lower"
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        q1, q3 = quartiles(values["parent"])
        medians = {side: statistics.median(values[side]) for side in SIDES}
        metrics[name] = {
            "unit": runs["parent"][0]["metrics"][name]["unit"],
            "better": "lower" if lower else "higher",
            "parent_median": medians["parent"],
            "change_median": medians["change"],
            "change_pct": 100.0 * (medians["change"] / medians["parent"] - 1.0)
            if medians["parent"] else None,
            "parent_iqr": q3 - q1,
            "beyond_parent_iqr": abs(medians["change"] - medians["parent"]) > q3 - q1,
            "wins": wins,
            "parent": values["parent"],
            "change": values["change"],
        }
    return metrics


def main(argv=None):
    args = parse_args(argv)
    out_dir = BENCH / args.name
    runs = {side: [] for side in SIDES}
    envs = {}
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            result, path = run_once(getattr(args, side), args)
            runs[side].append(result)
            print(f"pair {pair + 1}/{args.pairs} {side}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                + ("" if result["correct"] else " INCORRECT"), flush=True)
            if pair == 0:
                envs[side] = json.loads(path.read_text())["env"]
                (out_dir / side).mkdir(parents=True, exist_ok=True)
                shutil.copy(path, out_dir / side / path.name)
    spec = args.change / "BENCHMARK.json"
    better = ({m["name"]: m["better"] for m in
               json.loads(spec.read_text()).get("end_to_end", [])}
              if spec.is_file() else {})
    summary = {
        "workload": args.workload, "seed": args.seed, "pairs": args.pairs,
        "correct": all(r["correct"] for side in SIDES for r in runs[side]),
        "env": envs,
        "metrics": summarize(runs, better),
    }
    path = out_dir / f"pairs_{args.workload}_seed{args.seed}.json"
    path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    for name, m in summary["metrics"].items():
        pct = "n/a" if m["change_pct"] is None else f"{m['change_pct']:+.1f}%"
        print(f"{name}: parent {m['parent_median']:.6g} change "
              f"{m['change_median']:.6g} {m['unit']} ({pct}), "
              f"parent IQR {m['parent_iqr']:.3g}, change better in "
              f"{m['wins']}/{args.pairs} pairs")
    print(f"written to {path}")
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
