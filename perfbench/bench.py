"""Measurement, checking and reporting of one benchmark run."""

import copy
import json
import os
import platform
import resource
import time
from collections import Counter
from pathlib import Path
from statistics import median, quantiles

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# Set-up rounds are spread over the measuring time, at least this many
# and about this share of it, so that they see the same machine as the
# passes do.
SETUP_ROUNDS = 5
SETUP_SHARE = 0.1
MIN_PASSES = 3


# -- environment ----------------------------------------------------------

def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed, blas_thread_vars):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in blas_thread_vars},
        "commit": _git_commit(),
        "seed": seed,
    }


# -- measurement ------------------------------------------------------------

def measure(workload, seconds, setup=True, on_pass=None):
    """Passes back to back until `seconds` are up, set-up rounds among them.

    Returns the passes as (ops, seconds) pairs, the set-up rounds (the
    seconds of each configuration) and the first round's output for
    checking.
    """
    passes, rounds, first = [], [], None
    start = time.perf_counter()
    setup_wall = 0.0

    def setup_round():
        nonlocal setup_wall, first
        t0 = time.perf_counter()
        times, traces = workload.setup_round()
        setup_wall += time.perf_counter() - t0
        rounds.append(times)
        first = traces if first is None else first

    while len(passes) < MIN_PASSES or time.perf_counter() < start + seconds:
        while setup and (not rounds or setup_wall
                         < SETUP_SHARE * (time.perf_counter() - start)):
            setup_round()
        if on_pass is not None:
            on_pass(len(passes))
        t0 = time.perf_counter()
        ops = workload.run_pass()
        passes.append((ops, time.perf_counter() - t0))
    while setup and len(rounds) < SETUP_ROUNDS:
        setup_round()
    return passes, rounds, first


def typical_pass(passes):
    """The first pass with each operation's time replaced by its median.

    Operations repeat in the same order in every pass. Taking the median
    per operation, over all passes, keeps out the slow bursts of a shared
    machine that every whole-pass time averages in.
    """
    typical = []
    for i, op in enumerate(passes[0][0]):
        op = copy.copy(op)
        op.seconds = median(ops[i].seconds for ops, _ in passes)
        typical.append(op)
    return typical


def typical_setup(rounds):
    """Sum over the configurations of each one's median set-up time."""
    return sum(median(times) for times in zip(*rounds))


def check_passes(workload, passes, setup_problems):
    """Oracle-check the first pass; later passes must repeat it exactly."""
    first = passes[0][0]
    workload.check(first)
    first[0].problems += [f"set-up: {p}" for p in setup_problems]
    for ops, _ in passes[1:]:
        for op, ref in zip(ops, first):
            if op.digest != ref.digest:
                op.problems.append("deterministic output differs from the first pass")


def spread(values):
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = quantiles(values, n=4)
    return f"n={len(values)}, quartiles {q1:.6g}..{q3:.6g}"


def failure_lines(passes):
    """The failure breakdown, and `attempted` and `failed` for the result.

    `attempted` is the number of operations in one pass and `failed` the
    number of those that failed in any pass, so neither grows with the
    number of passes a faster program fits into the measuring time.
    """
    per_pass = len(passes[0][0])
    failed_ops = {i for ops, _ in passes for i, op in enumerate(ops) if op.failed}
    ops = [op for pass_ops, _ in passes for op in pass_ops]
    total = sum(op.failed for op in ops)
    lines = [f"failed_ratio {len(failed_ops) / per_pass:.6g} ratio "
             f"({len(failed_ops)}/{per_pass} operations of a pass raised or "
             f"failed a check; {total}/{len(ops)} over all {len(passes)} passes)"]
    errors = Counter((op.error, op.group or op.label) for op in ops if op.error)
    for (error, where), count in sorted(errors.items()):
        taus = sorted({op.tau for op in ops if op.error == error
                       and (op.group or op.label) == where and op.tau is not None})
        at = " at tau=" + ",".join(f"{t:g}" for t in taus) if taus else ""
        where = "/".join(where) if isinstance(where, tuple) else where
        lines.append(f"  failure {error} x{count}: {where}{at}")
    problems = Counter(f"{op.label}: {p}" for op in ops for p in op.problems)
    for text, count in sorted(problems.items()):
        lines.append(f"  WRONG x{count}: {text}")
    return lines, per_pass, len(failed_ops), not problems


def end_to_end(workload, seconds):
    """Untraced passes; the end-to-end metrics and the lines explaining them."""
    passes, setup_rounds, setup_traces = measure(workload, seconds)
    typical = typical_pass(passes)
    wall = workload.pass_wall(typical)
    walls = [workload.pass_wall(ops) for ops, _ in passes]
    setup = typical_setup(setup_rounds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"wall_s": (wall, "s"), "setup_s": (setup, "s"),
               "peak_rss_mb": (peak_rss_mb, "MB")}
    lines = [f"wall_s {wall:.6g} s (per-operation medians over {len(passes)} "
             f"passes; whole passes {spread(walls)})",
             f"setup_s {setup:.6g} s (per-configuration medians over "
             f"{len(setup_rounds)} rounds; whole rounds "
             f"{spread([sum(r) for r in setup_rounds])})",
             f"peak_rss_mb {peak_rss_mb:.6g} MB"]
    lines += [f"{scheme}_steps_per_s {rate:.6g} 1/s"
              for scheme, rate in workloads.scheme_rates(typical).items() if rate]
    lines += workload.notes(typical)
    extra = {"pass_wall_s": walls, "setup_round_seconds": setup_rounds}
    return passes, metrics, lines, workload.check_setup(setup_traces), extra


def per_layer(workload, seconds, spans_path):
    """Half the time untraced, half traced; the per-layer metrics."""
    _, setup_traces = workload.setup_round()
    plain, _, _ = measure(workload, seconds / 2, setup=False)
    tracer = tracing.Tracer()
    hooks = tracing.Hooks(tracer)
    hooks.install()
    try:
        traced, _, _ = measure(workload, seconds / 2, setup=False,
                               on_pass=lambda i: setattr(tracer, "op", i))
    finally:
        hooks.remove()
    tracer.write(spans_path)
    metrics, absent = tracing.layer_metrics(tracer, hooks.absent)
    for scheme, rate in workloads.scheme_rates(typical_pass(plain)).items():
        metrics[f"{scheme}_steps_per_s"] = (rate, "1/s")
    plain_ops = [op for ops, _ in plain for op in ops]
    metrics["failed_ratio"] = (sum(op.failed for op in plain_ops) / len(plain_ops),
                               "ratio")
    overhead = median(s for _, s in traced) / median(s for _, s in plain) - 1
    metrics["trace.overhead_pct"] = (100 * overhead, "%")
    lines = [f"absent {name} (a hook target no longer exists)" for name in absent]
    lines.append(f"spans {len(tracer)} written to {spans_path.relative_to(ROOT)}")
    lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    return (plain + traced, metrics, lines, workload.check_setup(setup_traces),
            {"absent": absent})


def run(args, blas_thread_vars):
    workload = workloads.WORKLOADS[args.workload](args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    workload.bind_output(OUT_DIR)
    env = environment(args.seed, blas_thread_vars)
    print("env " + json.dumps(env, sort_keys=True))
    print("specs " + json.dumps(workload.specs()))

    if args.trace:
        spans_path = OUT_DIR / f"spans_{args.workload}_seed{args.seed}.npz"
        passes, metrics, lines, setup_problems, extra = per_layer(
            workload, args.seconds, spans_path)
    else:
        passes, metrics, lines, setup_problems, extra = end_to_end(
            workload, args.seconds)
    check_passes(workload, passes, setup_problems)
    failures, attempted, failed, correct = failure_lines(passes)
    for line in lines + failures:
        print(line)

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    report = dict(result, workload=args.workload, env=env, specs=workload.specs(),
                  seconds=args.seconds, trace=args.trace, lines=lines + failures,
                  pass_seconds=[s for _, s in passes], **extra)
    out = OUT_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1
