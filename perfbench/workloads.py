"""The benchmark's four workloads.

Every workload turns the workload seed into spec strings and hands the
package only those. The run workloads keep the cost data of the paper's
desk experiments (`quadratic:3:42`, `logistic:3:10:0.1:42:2.7`) and take
the initial-condition seed 7 + seed, so seed 0 gives initial seed 7. The
certify workload takes its random graphs and cost from the seed
(`er:20:0.3:<1 + seed>`, `er:10:0.4:<42 + seed>`, `quadratic:3:<42 + seed>`).
Fixing the cost data keeps the amount of work in a pass, which depends
on how fast each cell converges, from changing with the seed. A workload
exposes three things:

- `setup_round()`: set every distinct configuration up once and return
  the seconds each one took, plus what is needed to check the set-up;
- `run_pass()`: one pass of its operations, each an `Op`;
- `check(first_pass)`: oracle checks of the first pass' outputs. Later
  passes must reproduce the first one's deterministic outputs exactly.

Operations are issued back to back by one client in one process.
"""

import contextlib
import hashlib
import io
import math
import time
from pathlib import Path
from statistics import median

import numpy as np

from phmid import cli, costs, graphs, harness
from phmid.numerics import MaxIterationsError, SingularMatrixError

import oracles

# The solver failures a cell may raise; each one counts as one failed
# operation instead of ending the run.
SOLVER_ERRORS = (MaxIterationsError, SingularMatrixError)


class Op:
    """One attempted operation and what became of it."""

    def __init__(self, label, seconds, scheme=None, group=None, steps=0,
                 error=None, digest=None, output=None, tau=None):
        self.label = label
        self.tau = tau
        self.seconds = seconds
        self.scheme = scheme
        self.group = group
        self.steps = steps
        self.error = error
        self.digest = digest
        self.output = output
        self.problems = []

    @property
    def failed(self):
        return self.error is not None or bool(self.problems)


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()


def executed_steps(trace):
    """Steps a run executed; a diverging run stops after its bad step."""
    return len(trace.errors) - 1 + (trace.status == harness.STATUS_DIVERGED)


def initial_q(seed, n, m):
    """The initial q of a run: `harness.run` draws it from the config seed
    (p starts at zero)."""
    return np.random.default_rng(seed).standard_normal((n, m))


def setup_seconds(config):
    """Set-up time of one run: a 1-step run minus the step itself."""
    t0 = time.perf_counter()
    trace = harness.run(config.replaced(steps=1))
    wall = time.perf_counter() - t0
    return wall - trace.wall_ns[-1] / 1e9, trace


class Workload:
    """Seed handling and the defaults the workloads share."""

    name = ""

    def __init__(self, seed):
        self.seed = seed
        self.init_seed = 7 + seed

    def bind_output(self, out_dir):
        """Directory for files the workload's commands write."""

    def check_setup(self, traces):
        return []

    def pass_wall(self, ops):
        return sum(op.seconds for op in ops)

    def notes(self, ops):
        """Extra printed lines about a typical pass."""
        return []


class RunWorkload(Workload):
    """Cells run one by one through `harness.run`."""

    graph_spec = ""
    cells = ()

    def config(self, cost_spec, scheme, tau, steps):
        return harness.ExperimentConfig(self.graph_spec, cost_spec,
                                        f"{scheme}:tau={tau!r}", steps=steps,
                                        seed=self.init_seed)

    def setup_round(self):
        times, traces = [], []
        for config in self.setup_configs():
            seconds, trace = setup_seconds(config)
            times.append(seconds)
            traces.append((config, trace))
        return times, traces

    def check_setup(self, traces):
        problems = []
        n = graphs.from_spec(self.graph_spec).n
        for config, trace in traces:
            ensemble = costs.from_spec(config.cost_spec, n)
            problems += [f"{config.cost_spec}: {p}" for p in
                         oracles.theta_star_problems(ensemble, trace.theta_star)]
        return problems

    def run_pass(self):
        ops = []
        for group, config in self.cells:
            scheme, tau = config.scheme_spec.split(":tau=")
            label = f"{group[1]} {config.scheme_spec}"
            t0 = time.perf_counter()
            try:
                trace = harness.run(config)
            except SOLVER_ERRORS as exc:
                ops.append(Op(label, time.perf_counter() - t0, scheme, group,
                              error=type(exc).__name__, tau=float(tau),
                              digest=_digest(type(exc).__name__, exc)))
                continue
            seconds = time.perf_counter() - t0
            ops.append(Op(label, seconds, scheme, group, tau=float(tau),
                          steps=executed_steps(trace), output=trace,
                          digest=_digest(trace.status, trace.errors.tobytes(),
                                         trace.newton_max_iters.tobytes())))
        return ops


class DeskSweep(RunWorkload):
    """`phmid sweep` through `cli.main`, the paper's headline experiment."""

    name = "desk-sweep"
    graph_spec = "cycle:10"
    tau_grid = "0.2:20:5"
    steps = 2000
    accuracy_b = 1e-6
    # Forward Euler must have diverged where its growth factor over the
    # horizon exceeds this; the divergence limit is 1e12 on the state.
    euler_must_diverge = 1e20

    cost_spec = "quadratic:3:42"

    def specs(self):
        return {"graph": self.graph_spec, "cost": self.cost_spec,
                "schemes": "mid,euler", "tau_grid": f"{self.tau_grid} log",
                "steps": self.steps, "init_seed": self.init_seed}

    def setup_configs(self):
        return [self.config(self.cost_spec, scheme, 1.0, 1)
                for scheme in ("mid", "euler")]

    def bind_output(self, out_dir):
        self.csv_path = Path(out_dir) / f"desk-sweep_seed{self.seed}.csv"

    def run_pass(self):
        argv = ["sweep", "--graph", self.graph_spec, "--cost", self.cost_spec,
                "--schemes", "mid,euler", "--tau-grid", self.tau_grid, "--log",
                "--steps", str(self.steps), "--B", repr(self.accuracy_b),
                "--seed", str(self.init_seed), "--out", str(self.csv_path)]
        stdout = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
        except SOLVER_ERRORS as exc:
            return [Op("sweep", time.perf_counter() - t0,
                       error=type(exc).__name__,
                       digest=_digest(type(exc).__name__, exc))]
        seconds = time.perf_counter() - t0
        table = self.csv_path.read_text(encoding="utf-8")
        op = Op("sweep", seconds, output=(code, table),
                digest=_digest(code, table))
        return [op]

    def check(self, ops):
        graph = graphs.from_spec(self.graph_spec)
        ensemble = costs.from_spec(self.cost_spec, graph.n)
        for op in ops:
            if op.error:
                continue
            code, table = op.output
            rows = [line.split(",") for line in table.strip().splitlines()[1:]]
            if code != 0 or len(rows) != 2 * int(self.tau_grid.split(":")[2]):
                op.problems.append(f"sweep exit {code} with {len(rows)} rows")
            for scheme, tau, k_b, final_error, status in rows:
                tau, final_error = float(tau), float(final_error)
                if scheme == "mid" and not final_error <= self.accuracy_b:
                    op.problems.append(f"mid tau={tau:g} ends at {final_error:.3e}")
                if scheme == "euler":
                    growth = oracles.euler_growth(graph, ensemble, tau)
                    if (self.steps * math.log(growth) >= math.log(self.euler_must_diverge)
                            and status != harness.STATUS_DIVERGED):
                        op.problems.append(f"euler tau={tau:g} did not diverge "
                                           f"(growth {growth:.4f} per step)")
                    if growth < 1.0 and status == harness.STATUS_DIVERGED:
                        op.problems.append(f"euler tau={tau:g} diverged inside "
                                           f"its stability region")


class WideTau(RunWorkload):
    """`mid` and `dg` cell by cell over a 14-decade step-size grid."""

    name = "wide-tau"
    graph_spec = "cycle:10"
    taus = tuple(10.0 ** k for k in range(-6, 9))
    steps = 6
    cost_specs = {"quadratic": "quadratic:3:42",
                  "logistic": "logistic:3:10:0.1:42:2.7"}

    def __init__(self, seed):
        super().__init__(seed)
        self.cells = [((scheme, kind), self.config(spec, scheme, tau, self.steps))
                      for kind, spec in self.cost_specs.items()
                      for scheme in ("mid", "dg") for tau in self.taus]

    def specs(self):
        return {"graph": self.graph_spec, "costs": list(self.cost_specs.values()),
                "schemes": "mid,dg", "taus": "1e-6..1e8 (15, log)",
                "steps": self.steps, "init_seed": self.init_seed}

    def setup_configs(self):
        # Set-up does not depend on tau; tau = 1 completes for every scheme.
        return [self.config(spec, scheme, 1.0, 1)
                for spec in self.cost_specs.values() for scheme in ("mid", "dg")]

    # A completed cell's consensus errors must match the dense oracle's
    # to this share of its initial error.
    error_rtol = 1e-8

    def check(self, ops):
        graph = graphs.from_spec(self.graph_spec)
        ensembles = {kind: costs.from_spec(spec, graph.n)
                     for kind, spec in self.cost_specs.items()}
        for op in ops:
            trace = op.output
            if trace is None:
                continue
            if trace.status == harness.STATUS_DIVERGED:
                op.problems.append("diverged")
                continue
            scheme, kind = op.group
            ensemble = ensembles[kind]
            q0 = initial_q(self.init_seed, graph.n, ensemble.dim)
            want = oracles.implicit_errors(graph, ensemble, scheme, op.tau, q0,
                                           np.zeros_like(q0), len(trace.errors) - 1,
                                           trace.theta_star)
            worst = float(np.max(np.abs(np.asarray(want) - trace.errors)))
            if not worst <= self.error_rtol * max(1.0, want[0]):
                op.problems.append(f"errors differ from the dense step oracle "
                                   f"by {worst:.3e}")

    def pass_wall(self, ops):
        """Time a pass over the whole grid takes at the measured step rate.

        Per (scheme, cost) group, the median over the completed cells of
        each cell's seconds per step, set-up included, times the grid's
        nominal steps. Failing cells are left out, so a cell that stops
        failing adds one rate to its group's median rather than its
        whole run time, and shifts the median at most to a neighbouring
        rate, up or down with the side that rate lies on.
        """
        total = 0.0
        for group in {op.group for op in ops}:
            members = [op for op in ops if op.group == group]
            rates = [op.seconds / op.steps for op in members
                     if op.error is None and op.steps]
            if not rates:
                total += sum(op.seconds for op in members)
                continue
            total += median(rates) * self.steps * len(members)
        return total

    def notes(self, ops):
        failing = [op for op in ops if op.error is not None]
        return [f"failing cells {len(failing)} per pass, "
                f"{sum(op.seconds for op in failing):.6g} s a pass "
                "(not in wall_s)"]


class LargeRing(RunWorkload):
    """Three schemes on a 1000-agent ring, where exchange and set-up weigh."""

    name = "large-ring"
    graph_spec = "cycle:1000"
    steps = 60
    schemes = (("mid", 10.0), ("euler", 0.05), ("gt", 0.05))
    cost_spec = "quadratic:3:42"

    def __init__(self, seed):
        super().__init__(seed)
        self.cells = [((scheme, "quadratic"),
                       self.config(self.cost_spec, scheme, tau, self.steps))
                      for scheme, tau in self.schemes]

    def specs(self):
        return {"graph": self.graph_spec, "cost": self.cost_spec,
                "schemes": [f"{s}:tau={t!r}" for s, t in self.schemes],
                "steps": self.steps, "init_seed": self.init_seed}

    def setup_configs(self):
        return [config for _, config in self.cells]

    def check(self, ops):
        for op in ops:
            trace = op.output
            if trace is None:
                continue
            if trace.status != harness.STATUS_MAX_STEPS:
                op.problems.append(f"ended {trace.status}")
            elif not trace.errors[-1] < trace.errors[0]:
                op.problems.append("error did not decrease")


class Certify(Workload):
    """A fixed mix of `phmid certify` commands through `cli.main`."""

    name = "certify"

    def __init__(self, seed):
        super().__init__(seed)
        self.quad_cost = f"quadratic:3:{42 + seed}"
        # (graph, m, tau, mu, lipschitz, quadratic, search)
        self.commands = [
            ("cycle:80", 3, 1000.0, 0.5, 3.0, False, False),
            (f"er:20:0.3:{1 + seed}", 3, 10.0, 0.5, 3.0, False, True),
            (f"er:10:0.4:{42 + seed}", 3, 0.1, None, None, True, True),
        ]

    def argv(self, command):
        graph, m, tau, mu, lipschitz, quadratic, search = command
        argv = ["certify", "--graph", graph, "--tau", repr(tau)]
        if quadratic:
            argv += ["--quadratic", "--cost", self.quad_cost]
        else:
            argv += ["--m", str(m), "--mu", repr(mu), "--lipschitz", repr(lipschitz)]
        return argv + (["--search"] if search else [])

    def specs(self):
        return {"commands": [" ".join(self.argv(c)) for c in self.commands]}

    def setup_round(self):
        times = []
        for graph, *_, quadratic, _ in self.commands:
            t0 = time.perf_counter()
            g = graphs.from_spec(graph)
            if quadratic:
                costs.from_spec(self.quad_cost, g.n)
            times.append(time.perf_counter() - t0)
        return times, []

    def run_pass(self):
        ops = []
        for command in self.commands:
            argv = self.argv(command)
            stdout = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
            seconds = time.perf_counter() - t0
            text = stdout.getvalue()
            ops.append(Op(" ".join(argv[2:4]), seconds, output=(code, text),
                          digest=_digest(code, text)))
        return ops

    def check(self, ops):
        for op, command in zip(ops, self.commands):
            graph_spec, m, tau, mu, _, quadratic, search = command
            graph = graphs.from_spec(graph_spec)
            hessians = None
            if quadratic:
                hessians = costs.from_spec(self.quad_cost, graph.n).hessian_blocks()
            expected = oracles.expected_certify(graph, m, tau, mu, hessians, search)
            code, text = op.output
            op.problems += oracles.certify_problems(text, code, expected)


WORKLOADS = {cls.name: cls for cls in (DeskSweep, WideTau, LargeRing, Certify)}


def scheme_rates(ops):
    """Steps per second of each scheme's completed runs, set-up included."""
    rates = {}
    for scheme in ("mid", "dg", "euler", "gt"):
        done = [op for op in ops if op.scheme == scheme and op.error is None]
        seconds = sum(op.seconds for op in done)
        rates[scheme] = sum(op.steps for op in done) / seconds if done else 0.0
    return rates
