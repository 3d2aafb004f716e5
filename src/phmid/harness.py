"""
Experiment orchestration: seeded runs, the K_B convergence-speed metric,
step-size sweeps and deterministic CSV export.

A run builds graph, costs and scheme from spec strings, computes the
centralized optimum as the error reference, iterates the scheme from a
seeded standard-normal q(0) (p(0) = 0) and records the consensus error
``||q[k] - 1 (x) theta*||`` at every step. Runs never stop early on
convergence: the full trace is needed to evaluate K_B, the first step
after which the error stays at or below the accuracy bound for the rest
of the horizon.
"""

import json
import numbers
import time

import numpy as np

from . import costs as costs_mod
from . import graphs as graphs_mod
from . import integrators
from .dynamics import NetworkState, bregman_lyapunov, equilibrium_state
from .integrators import SOLVER_ERRORS

DIVERGENCE_LIMIT = 1e12

STATUS_MAX_STEPS = "MaxSteps"
STATUS_DIVERGED = "Diverged"
STATUS_CONVERGED = "Converged"

NOT_REACHED = "NotReached"


class SpecError(ValueError):
    """An input that builds nothing: `name` is its flag without the dashes
    (`graph`, `cost`, `scheme`, `steps`, `B`, `seed`, or `tau_sweep`'s
    `schemes`), `spec` is the value."""

    def __init__(self, name, spec, message):
        super().__init__(str(message))
        self.name, self.spec = name, spec


def _from_spec(name, build, spec, *args):
    """`build(spec, *args)`, its ValueError raised as a SpecError."""
    try:
        return build(spec, *args)
    except ValueError as exc:
        raise SpecError(name, spec, exc) from exc


def _require_number(name, value, kind, what):
    """Raise a SpecError unless `value` is a `kind` number: a bool, a
    string, or a float where an integer is due (which `int` would
    truncate) is refused."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise SpecError(name, value, f"{what}, got {type(value).__name__} "
                                     f"{value!r}")


class ExperimentConfig:
    """Everything needed to reproduce one run byte for byte.

    The graph and cost spec strings carry their own generation seeds;
    `seed` drives the initial condition.
    """

    def __init__(self, graph_spec, cost_spec, scheme_spec, steps,
                 accuracy_b=1e-6, seed=0, record_lyapunov=False,
                 output_path=None):
        _require_number("steps", steps, numbers.Integral,
                        "steps must be an integer")
        _require_number("B", accuracy_b, numbers.Real,
                        "accuracy_b must be a real number")
        _require_number("seed", seed, numbers.Integral,
                        "seed must be an integer")
        if steps < 1:
            raise SpecError("steps", steps, "steps must be >= 1")
        if not accuracy_b > 0:
            raise SpecError("B", accuracy_b, "accuracy_b must be > 0")
        self.graph_spec = str(graph_spec)
        self.cost_spec = str(cost_spec)
        self.scheme_spec = str(scheme_spec)
        self.steps = int(steps)
        self.accuracy_b = float(accuracy_b)
        self.seed = int(seed)
        self.record_lyapunov = bool(record_lyapunov)
        self.output_path = output_path

    def replaced(self, **kwargs):
        fields = dict(graph_spec=self.graph_spec, cost_spec=self.cost_spec,
                      scheme_spec=self.scheme_spec, steps=self.steps,
                      accuracy_b=self.accuracy_b, seed=self.seed,
                      record_lyapunov=self.record_lyapunov,
                      output_path=self.output_path)
        fields.update(kwargs)
        return ExperimentConfig(**fields)

    @classmethod
    def from_dict(cls, data):
        known = {"graph_spec", "cost_spec", "scheme_spec", "steps",
                 "accuracy_b", "seed", "record_lyapunov", "output_path"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = {"graph_spec", "cost_spec", "scheme_spec", "steps"} - set(data)
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path, overrides=None):
        """Load a config from JSON; explicit overrides win over the file."""
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        data.update(overrides or {})
        return cls.from_dict(data)

    def __repr__(self):
        return (f"ExperimentConfig(graph={self.graph_spec!r}, "
                f"cost={self.cost_spec!r}, scheme={self.scheme_spec!r}, "
                f"steps={self.steps}, seed={self.seed})")


class RunTrace:
    """Per-step records of one run.

    errors[k] is the consensus error after k steps (errors[0] is the
    initial one); `lyapunov` holds the storage-based value |x - x*|^2/2
    when recording was requested (None otherwise, and for the tracking
    baseline which has no p block). State histories are kept only when
    recording was requested, for the certificate audit.
    """

    def __init__(self, errors, lyapunov, newton_max_iters, wall_ns, status,
                 theta_star, q_history=None, p_history=None):
        self.errors = np.asarray(errors, dtype=float)
        self.lyapunov = None if lyapunov is None else np.asarray(lyapunov, dtype=float)
        self.newton_max_iters = np.asarray(newton_max_iters, dtype=int)
        self.wall_ns = np.asarray(wall_ns, dtype=np.int64)
        self.status = status
        self.theta_star = np.asarray(theta_star, dtype=float)
        self.q_history = q_history
        self.p_history = p_history

    @property
    def final_error(self):
        return float(self.errors[-1])

    def __repr__(self):
        return (f"RunTrace(steps={len(self.errors) - 1}, status={self.status!r}, "
                f"final_error={self.final_error:.3e})")


def _consensus_errors(q, theta_star):
    """||q_t - 1 (x) theta*|| for each cell t of a (T, N, m) stack.

    The row products run through the same BLAS dot product that
    `np.linalg.norm` uses on one flattened cell, so each value is bitwise
    the single-cell norm.
    """
    d = (q - theta_star).reshape(q.shape[0], 1, -1)
    return np.sqrt(np.matmul(d, d.transpose(0, 2, 1))[:, 0, 0])


def _squared_norms(a):
    """Per-cell sum of squares of a (T, N, m) stack."""
    return np.add.reduce((a * a).reshape(a.shape[0], -1), axis=1)


def run(config):
    """Execute one experiment and return its trace."""
    scheme = _from_spec("scheme", integrators.parse_scheme_spec,
                        config.scheme_spec)
    return _simulate(config, [scheme])[0]


def _stepper(kind, graph, ensemble, taus, shape):
    """`(step, plan, carried)` for one scheme on a (T, N, m) stack: the
    per-run `integrators.StepPlan` of the stack, built once; what each step
    hands to the next, a tuple of per-cell arrays (`mid`'s per-agent
    inverse Jacobians, zero before the first step, and nothing for the
    other schemes); and `step(state, plan, *carried) -> (state,
    newton_max_iters per cell, carried)`."""
    plan = integrators.step_plan(kind, graph, taus, shape)
    if kind == "mid":
        def step(state, plan, inverses):
            report = integrators.mid_step(state, ensemble, graph, None, plan,
                                          inverses)
            return (report.state, report.newton_iterations.max(axis=-1),
                    (report.inverses,))
        return step, plan, (np.zeros(shape + shape[-1:]),)
    if kind == "dg":
        def step(state, plan):
            report = integrators.dg_central_step(state, ensemble, graph, None,
                                                 plan)
            return report.state, report.newton_iterations.max(axis=-1), ()
    else:
        kernel = (integrators.euler_step if kind == "euler"
                  else integrators.gradient_tracking_step)

        def step(state, plan):
            return (kernel(state, ensemble, graph, None, plan),
                    np.zeros(plan.shape[0], dtype=int), ())
    return step, plan, ()


def _keep(state, plan, cells, *carried):
    """The cells `cells` (an index or mask over the leading axis) of a
    batched state, of its plan and of the per-cell arrays `carried`."""
    if isinstance(state, integrators.GtState):
        state = integrators.GtState(state.q[cells], state.tracker[cells])
    else:
        state = NetworkState.stepped(state.q[cells], state.p[cells])
    return (state, plan.keep(cells)) + tuple(a[cells] for a in carried)


def _simulate(config, schemes):
    """Run one cell per scheme in `schemes` and return their traces.

    The schemes share one kind and differ in tau only; all cells share the
    config's graph, costs and seeded q(0). They advance together as one
    (T, N, m) state stack, one kernel call per step, and each trace is
    bitwise the one a run of that cell alone records, the wall-clock
    column aside: a cell's `wall_ns` is the batch step's. A cell
    that diverges leaves the batch at that step. When cells raise a solver
    failure, the one that comes first in `schemes` is re-raised after the
    others have run; cells after a failing cell stop at once, since their
    results would be dropped.
    """
    graph = _from_spec("graph", graphs_mod.from_spec, config.graph_spec)
    ensemble = _from_spec("cost", costs_mod.from_spec, config.cost_spec,
                          graph.n)
    theta_star = ensemble.centralized_optimum()
    kind = schemes[0].kind
    cells = len(schemes)
    taus = np.array([scheme.tau for scheme in schemes])

    rng = np.random.default_rng(config.seed)
    q0 = rng.standard_normal((graph.n, ensemble.dim))
    p0 = np.zeros_like(q0)
    q_stack = np.repeat(q0[None], cells, axis=0)
    step, plan, carried = _stepper(kind, graph, ensemble, taus, q_stack.shape)
    if kind == "gt":
        state = integrators.gradient_tracking_init(q_stack, ensemble)
    else:
        state = NetworkState(q_stack, np.zeros_like(q_stack))

    record = config.record_lyapunov and kind != "gt"
    if record:
        # cell-major, so that each cell's history is one contiguous block
        q_hist = np.empty((cells, config.steps + 1) + q0.shape)
        p_hist = np.empty_like(q_hist)
        q_hist[:, 0], p_hist[:, 0] = q0, p0

    steps = config.steps
    # row k holds every cell's value after k steps
    errors = np.empty((steps + 1, cells))
    errors[0] = _consensus_errors(state.q, theta_star)
    newton_iters = np.zeros((steps + 1, cells), dtype=int)
    wall_ns = np.zeros(steps + 1, dtype=np.int64)
    lengths = np.full(cells, steps + 1)
    status = [STATUS_MAX_STEPS] * cells
    live = np.arange(cells)  # the batch's cells, by index into `schemes`
    columns = slice(None)  # `live` to write through: a slice until a cell leaves
    failure = None

    # An overflowing cell leaves the batch as Diverged below; its inf and
    # NaN arithmetic on the way there is expected, not worth a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            while True:
                tic = time.perf_counter_ns()
                try:
                    new, iters, carried = step(state, plan, *carried)
                except SOLVER_ERRORS as exc:
                    cut = getattr(exc, "cell", 0)
                    if cut == 0:
                        # A raised error that this frame still holds forms a
                        # reference cycle with its traceback, which keeps the
                        # whole batch alive until the garbage collector runs.
                        failure = None
                        raise
                    failure = exc
                    live = columns = live[:cut]
                    state, plan, *carried = _keep(state, plan, slice(cut),
                                                  *carried)
                    continue
                toc = time.perf_counter_ns()
                break

            norm_sq = _squared_norms(new.q)
            if kind != "gt":
                norm_sq += _squared_norms(new.p)
            ok = norm_sq <= DIVERGENCE_LIMIT ** 2  # False for a NaN or inf norm
            if not ok.all():
                for cell in live[~ok]:
                    status[cell] = STATUS_DIVERGED
                    lengths[cell] = k
                live = columns = live[ok]
                if not live.size:
                    break
                new, plan, *carried = _keep(new, plan, ok, *carried)
                iters = iters[ok]

            state = new
            errors[k, columns] = _consensus_errors(state.q, theta_star)
            newton_iters[k, columns] = iters
            wall_ns[k] = toc - tic
            if record:
                q_hist[columns, k] = state.q
                p_hist[columns, k] = state.p

    if failure is not None:
        try:
            raise failure
        finally:
            failure = None  # the same cycle as above
    lyap = [None] * cells
    if record:
        # one equilibrium for every cell, or one per tau for mid, and each
        # cell's values from its whole history at once
        eq = equilibrium_state(ensemble, graph, initial=NetworkState(q0, p0),
                               mid_tau=taus if kind == "mid" else None,
                               theta=theta_star)
        for cell, n in enumerate(lengths):
            cell_eq = eq if eq.q.ndim == 2 else NetworkState.stepped(
                eq.q[cell], eq.p[cell])
            lyap[cell] = bregman_lyapunov(
                NetworkState.stepped(q_hist[cell, :n], p_hist[cell, :n]), cell_eq)
    return [RunTrace(errors=errors[:n, cell].copy(), lyapunov=lyap[cell],
                     newton_max_iters=newton_iters[:n, cell].copy(),
                     wall_ns=wall_ns[:n].copy(), status=status[cell],
                     theta_star=theta_star,
                     q_history=q_hist[cell, :n] if record else None,
                     p_history=p_hist[cell, :n] if record else None)
            for cell, n in enumerate(lengths)]


def k_b(trace, accuracy_b):
    """First step index after which the error never exceeds the bound.

    Returns None (not reached) when the run diverged or the final error
    still exceeds the bound; the answer is relative to the recorded
    horizon. Accepts a RunTrace or a bare error sequence.
    """
    if not accuracy_b > 0:
        raise ValueError("accuracy bound must be > 0")
    if isinstance(trace, RunTrace):
        if trace.status == STATUS_DIVERGED:
            return None
        errors = trace.errors
    else:
        errors = np.asarray(trace, dtype=float)
    above = np.nonzero(errors > accuracy_b)[0]
    if above.size == 0:
        return 0
    first_ok = int(above[-1]) + 1
    if first_ok >= errors.shape[0]:
        return None
    return first_ok


class SweepRow:
    """One (scheme, tau) cell of a sweep."""

    def __init__(self, scheme, tau, k_b_value, final_error, status):
        self.scheme = scheme
        self.tau = float(tau)
        self.k_b = k_b_value
        self.final_error = float(final_error)
        self.status = status


class SweepTable:
    """Rows of a step-size sweep, exportable to CSV."""

    columns = ("scheme", "tau", "k_b", "final_error", "status")

    def __init__(self, rows):
        self.rows = list(rows)

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)


def _scheme_kinds(schemes):
    """The lowercase kinds of `schemes`, each a scheme kind in any case.

    Raises SpecError naming the first entry that is not a kind.
    """
    kinds = [str(scheme).lower() for scheme in schemes]
    unknown = [kind for kind in kinds if kind not in integrators.SCHEME_KINDS]
    if unknown:
        raise SpecError("schemes", ",".join(map(str, schemes)),
                        f"unknown scheme {unknown[0]!r}, expected one of "
                        f"{', '.join(integrators.SCHEME_KINDS)}")
    return kinds


def tau_sweep(base_config, tau_values, schemes):
    """Run every (scheme, tau) cell with shared seeds and collect K_B.

    All cells reuse the base config's seed and spec strings, so data and
    initialization are identical across cells; only the scheme changes.
    Each of `schemes` is a scheme kind in any case, and its rows carry the
    lowercase kind. The whole grid is validated before any cell runs: a
    scheme entry that is not a kind, such as `euler:tau=1`, is refused
    with the kinds there are, even with no tau to run. The cells of one
    scheme run as one batched simulation (see `_simulate`); each row is
    bitwise the row of a standalone `run` of that cell.
    """
    kinds = _scheme_kinds(schemes)
    grids = [[integrators.SchemeConfig(kind, tau) for tau in tau_values]
             for kind in kinds]
    rows = []
    for kind, grid in zip(kinds, grids):
        if grid:
            # a comprehension, so no trace outlives its scheme's rows
            rows += [SweepRow(kind, scheme.tau, k_b(trace, base_config.accuracy_b),
                              trace.final_error, trace.status)
                     for scheme, trace in zip(grid, _simulate(base_config, grid))]
    return SweepTable(rows)


def _fmt(x):
    return format(float(x), ".17g")


def export_csv(obj, path):
    """Write a trace or sweep table as CSV.

    Formatting is deterministic: 17 significant digits, '.' decimal
    separator, '\\n' line endings. Trace columns: step, error, lyapunov,
    newton_max_iters, wall_ns (lyapunov empty when not recorded). Sweep
    columns: scheme, tau, k_b, final_error, status.
    """
    if isinstance(obj, RunTrace):
        lines = ["step,error,lyapunov,newton_max_iters,wall_ns"]
        for k in range(len(obj.errors)):
            lyap = "" if obj.lyapunov is None else _fmt(obj.lyapunov[k])
            lines.append(f"{k},{_fmt(obj.errors[k])},{lyap},"
                         f"{int(obj.newton_max_iters[k])},{int(obj.wall_ns[k])}")
    elif isinstance(obj, SweepTable):
        lines = [",".join(SweepTable.columns)]
        for row in obj:
            kb = NOT_REACHED if row.k_b is None else str(int(row.k_b))
            lines.append(f"{row.scheme},{_fmt(row.tau)},{kb},"
                         f"{_fmt(row.final_error)},{row.status}")
    else:
        raise TypeError(f"cannot export object of type {type(obj).__name__}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
