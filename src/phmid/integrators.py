"""
Time-stepping schemes for the network flow.

Three discretizations of the same flow plus one conventional baseline:

- ``euler``: forward Euler, x+ = x + tau * rhs(x). Cheap, but stable only
  for small enough tau.
- ``dg``: discrete-gradient stepping. Because the storage is quadratic,
  its discrete gradient is the midpoint average, so the whole network
  update is one coupled implicit system solved centrally.
- ``mid``: mixed implicit stepping. Each agent's update is implicit in
  its OWN next state but uses neighbors' current states, so every agent
  solves a small local system and communicates once per step.
- ``gt``: a standard gradient-tracking baseline with Metropolis weights,
  included for speed comparisons only.

Every step also advances a stack of T independent cells at once: states
of shape (T, N, m) with one step size per cell, tau of shape (T,). Every
cell's result is bitwise the one its own (N, m) call gives. The `mid`,
`euler` and `gt` steps exchange with one gather of the graph's edge
entries in slot order, summed slot by slot as whole rows
(`Graph.neighbor_sum`, O(|E|) per step, with no per-vertex reduction on a
regular graph); `dg` is the dense reference for small networks. Both
implicit steps solve with the one batched Newton of
`numerics.newton_solve`, whose settings are fixed constants of
`numerics`.

The work a step would otherwise redo every time (validating its step
sizes, and the arrays built from them and from the graph) is done once per
run, in a `StepPlan` (`step_plan`). A run passes its plan to every step; a
step called without one builds its own, so both go through the same code.

A `mid` run also hands each agent's inverse Jacobian from one step to the
next (`StepReport.inverses`), so that each local solve starts with a chord
correction and needs a new Jacobian and factorization only where that is
not enough. They change from step to step, so they are not in the plan. A step given none is the
exact Newton solve; `dg` never carries any, because its Jacobian can be
too ill-conditioned for an inverse-applied correction.
"""

import copy
import math

import numpy as np

from .dynamics import NetworkState, continuous_rhs
from .numerics import (DimensionMismatchError, MaxIterationsError,
                       SingularMatrixError, newton_solve)

SCHEME_KINDS = ("euler", "dg", "mid", "gt")

# The errors `newton_solve` raises; an implicit step re-raises them for
# its first failing cell.
SOLVER_ERRORS = (MaxIterationsError, SingularMatrixError)


class SchemeConfig:
    """A scheme tag with its step size."""

    def __init__(self, kind, tau):
        if kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme {kind!r}, expected one of "
                             f"{', '.join(SCHEME_KINDS)}")
        tau = float(tau)
        if not 0 < tau < math.inf:
            raise ValueError(f"tau must be a finite number > 0, got {tau!r}")
        self.kind = kind
        self.tau = tau

    def __repr__(self):
        return f"SchemeConfig(kind={self.kind!r}, tau={self.tau})"


def parse_scheme_spec(spec):
    """Parse ``euler|dg|mid|gt`` with a ``:tau=<value>`` suffix."""
    parts = str(spec).split(":")
    kind = parts[0].lower()
    tau = None
    for extra in parts[1:]:
        key, _, val = extra.partition("=")
        if key != "tau" or not val:
            raise ValueError(f"unrecognized scheme option {extra!r} in {spec!r}")
        tau = float(val)
    if tau is None:
        raise ValueError(f"scheme spec {spec!r} is missing ':tau=<value>'")
    return SchemeConfig(kind, tau)


class StepReport:
    """Result of one implicit step.

    On success every Newton row met the solver's stop test, so
    `max_residual` is at or below its tolerance unless a row ended with a
    correction at rounding level (see `numerics.newton_solve`).
    `newton_iterations` counts each row's Newton corrections, a chord
    correction with a carried inverse included. `inverses` holds the
    per-agent inverse Jacobians a `mid` step hands to the next one when it
    was given carried ones, and is None otherwise.
    """

    def __init__(self, state, newton_iterations, max_residual, inverses=None):
        self.state = state
        self.newton_iterations = np.asarray(newton_iterations, dtype=int)
        self.max_residual = float(max_residual)
        self.inverses = inverses


class StepPlan:
    """The step-invariant work of one scheme on one graph, done once.

    A plan is built for one state shape, (N, m) or a (T, N, m) stack of
    cells, and one tau: a scalar, or one per cell of a stack. `tau` holds
    the validated step sizes shaped (1,) or (T, 1), to scale per-agent
    rows, and `tau_entry` the same shaped (1, 1) or (T, 1, 1), to scale
    per-entry arrays. Every array is computed with the expression the step
    would use, so a step given the plan is bitwise a step without it. This
    base plan is the one `euler` and `gt` use.

    Arrays named in `_per_cell` lead with the cell axis of a stack;
    `keep(cells)` is the plan of the cells a batch keeps.
    """

    _per_cell = ("tau", "tau_entry")

    def __init__(self, graph, tau, shape):
        shape = tuple(shape)
        if len(shape) not in (2, 3) or shape[-2] != graph.n:
            raise DimensionMismatchError(
                f"states of shape {shape} do not fit a graph of {graph.n} agents")
        tau = np.asarray(tau, dtype=float)
        if tau.shape not in ((), shape[:-2]):
            raise DimensionMismatchError(
                f"tau has shape {tau.shape}, states have shape {shape}")
        if not ((0 < tau) & (tau < math.inf)).all():
            raise ValueError("tau must be a finite number > 0")
        self.graph = graph
        self.shape = shape
        self.tau = np.broadcast_to(tau, shape[:-2])[..., None].copy()
        self.tau_entry = self.tau[..., None]

    def keep(self, cells):
        """The plan of the cells `cells` (an index or mask over the leading
        axis) of a stack."""
        if len(self.shape) != 3:
            raise DimensionMismatchError("only the plan of a stack keeps cells")
        plan = copy.copy(self)
        for name in self._per_cell:
            setattr(plan, name, getattr(self, name)[cells])
        plan.shape = plan.tau.shape[:1] + self.shape[1:]
        return plan


class MidPlan(StepPlan):
    """`mid`: g_i = 1/tau + deg_i + tau deg_i^2 per agent, the neighbour
    scale (1 + tau deg_i) and the constant g_i I part of the Jacobian."""

    _per_cell = StepPlan._per_cell + ("gdiag", "nbr_scale", "jac0")

    def __init__(self, graph, tau, shape):
        super().__init__(graph, tau, shape)
        tau, deg = self.tau, graph.degrees
        self.deg = deg[:, None]
        self.gdiag = (1.0 / tau + deg + tau * deg ** 2)[..., None]
        self.nbr_scale = (1.0 + tau * deg)[..., None]
        self.jac0 = self.gdiag[..., None] * np.eye(self.shape[-1])


class DgPlan(StepPlan):
    """`dg`: the dense Laplacian and the constant part of the Jacobian of
    the stacked [q+; p+] system."""

    _per_cell = StepPlan._per_cell + ("jac0",)

    def __init__(self, graph, tau, shape):
        super().__init__(graph, tau, shape)
        n, m = self.shape[-2:]
        nm = n * m
        self.lap = graph.laplacian()
        self.eye_n = np.eye(n)
        half_lap = np.kron(self.lap, np.eye(m)) / 2.0
        eye = np.eye(nm)
        tau = self.tau_entry
        self.jac0 = np.empty(self.shape[:-2] + (2 * nm, 2 * nm))
        self.jac0[..., :nm, :nm] = eye / tau + half_lap
        self.jac0[..., :nm, nm:] = half_lap
        self.jac0[..., nm:, :nm] = -half_lap
        self.jac0[..., nm:, nm:] = eye / tau


_PLANS = {"euler": StepPlan, "gt": StepPlan, "mid": MidPlan, "dg": DgPlan}


def step_plan(kind, graph, tau, shape):
    """The plan of scheme `kind` for states of `shape` on `graph`."""
    return _PLANS[kind](graph, tau, shape)


def _plan_for(kind, graph, tau, q, plan):
    """`plan`, checked against the step it is given to, or a new plan from
    `tau`; exactly one of the two is given."""
    if plan is None:
        return step_plan(kind, graph, tau, q.shape)
    if tau is not None:
        raise ValueError("give a step either tau or a plan, not both")
    if type(plan) is not _PLANS[kind] or plan.graph is not graph:
        raise ValueError(f"the plan is not a {kind} plan of this graph")
    if q.shape != plan.shape:
        raise DimensionMismatchError(
            f"the plan is for states of shape {plan.shape}, got {q.shape}")
    return plan


def euler_step(state, ensemble, graph, tau, plan=None):
    """Forward Euler step x+ = x + tau * rhs(x).

    `plan` (a `StepPlan`, in place of `tau`) holds the step sizes.
    """
    tau = _plan_for("euler", graph, tau, state.q, plan).tau_entry
    dq, dp = continuous_rhs(state, ensemble, graph)
    return NetworkState.stepped(state.q + tau * dq, state.p + tau * dp)


def dg_central_step(state, ensemble, graph, tau, plan=None):
    """Discrete-gradient step solved as one coupled implicit system.

    For the quadratic storage the discrete gradient between x and x+ is
    the midpoint, so the step reads

        (x+ - x) / tau = rhs evaluated at (x + x+) / 2

    over the whole network at once. The stacked residual in the unknown
    [q+; p+] is driven to the solver tolerance by damped Newton. This
    scheme exists as the centrally-solved reference that the per-agent
    mixed implicit scheme is validated against at small tau.

    A (T, N, m) stack solves its T systems together, one Newton row per
    cell, and each cell's result is bitwise its own step's. Every agent
    reports its cell's Newton iterations. A failing cell raises the solver
    error with its residual; the error's `cell` is the first failing cell.
    `plan` (a `DgPlan`, in place of `tau`) holds the Laplacian and the
    constant part of the Jacobian.
    """
    q0, p0 = state.q, state.p
    plan = _plan_for("dg", graph, tau, q0, plan)
    tau, lap = plan.tau_entry, plan.lap
    lead, (n, m) = q0.shape[:-2], q0.shape[-2:]
    nm = n * m

    def split(z):  # [q; p] -> q, p
        return np.moveaxis(z.reshape(lead + (2, n, m)), -3, 0)

    def residual(z):
        qp, pp = split(z)
        qb = (q0 + qp) / 2.0
        pb = (p0 + pp) / 2.0
        rq = (qp - q0) / tau + lap @ qb + lap @ pb + ensemble.gradient_stack(qb)
        rp = (pp - p0) / tau - lap @ qb
        return np.concatenate([rq, rp], axis=-2).reshape(lead + (2 * nm,))

    def jacobian(z):
        hess = ensemble.hessian_stack((q0 + split(z)[0]) / 2.0)
        # the per-agent Hessians as one block diagonal (..., Nm, Nm)
        blocks = np.einsum("ij,...iab->...iajb", plan.eye_n, hess)
        jac = plan.jac0.copy()
        jac[..., :nm, :nm] += blocks.reshape(lead + (nm, nm)) / 2.0
        return jac

    z0 = np.concatenate([q0, p0], axis=-2).reshape(lead + (2 * nm,))
    try:
        z, iters, rnorm = newton_solve(residual, jacobian, z0)
    except SOLVER_ERRORS as exc:
        raise _cell_failure(exc, 1) from None
    return StepReport(NetworkState.stepped(*split(z)),
                      np.repeat(iters[..., None], n, -1), float(rnorm.max()))


def mid_step(state, ensemble, graph, tau, plan=None, inverses=None):
    """Mixed implicit step: per-agent local solves, one exchange per step.

    Eliminating p_i+ through its own update leaves, for each agent, the
    small strongly convex root problem

        g_i q+ + grad f_i((q+ + q_i) / 2) + c_i = 0

    with the scalar matrix g_i = (1/tau + deg_i + tau deg_i^2) I and

        c_i = -q_i / tau - (1 + tau deg_i) sum_j q_j
              + deg_i p_i - sum_j p_j            (sums over neighbors j)

    obtained by substituting the p-update into the q-row of the step.
    All agents are solved simultaneously (batched damped Newton, one row
    per agent, warm started at q_i), then p_i+ = p_i + tau (deg_i q+_i -
    sum_j q_j). No neighbor future values are used anywhere, so agent i's
    result depends only on its own and its neighbors' current states.

    A (T, N, m) stack of cells solves all T*N agents together. An agent's
    Newton iterates never depend on other agents, so each cell's result is
    bitwise its own step's. A failing agent raises the solver error naming
    it; the error's `cell` is the first cell with a failing agent (0 for a
    single state). `plan` (a `MidPlan`, in place of `tau`) holds g_i, the
    neighbour scales and the g_i I part of the Jacobian.

    `inverses`, one m x m inverse Jacobian per agent shaped like the
    state plus a trailing m (the previous step's `StepReport.inverses`, or
    zeros to start), makes each local solve begin with one chord
    correction (see `numerics.newton_solve`) and returns the updated
    inverses in the report. Without them the step is the exact Newton
    solve and forms no inverse.
    """
    q0, p0 = state.q, state.p
    plan = _plan_for("mid", graph, tau, q0, plan)
    gdiag, jac0 = plan.gdiag, plan.jac0
    if inverses is not None and inverses.shape != q0.shape + q0.shape[-1:]:
        raise DimensionMismatchError(
            f"inverses of shape {inverses.shape} do not fit states of shape "
            f"{q0.shape}")
    nbr_q, nbr_p = graph.neighbor_sum(np.array([q0, p0]))
    const = -q0 / plan.tau_entry - plan.nbr_scale * nbr_q + plan.deg * p0 - nbr_p

    def residual(qp):
        return gdiag * qp + ensemble.gradient_stack((qp + q0) / 2.0) + const

    def jacobian(qp):
        return jac0 + 0.5 * ensemble.hessian_stack((qp + q0) / 2.0)

    try:
        if inverses is None:
            qp, iters, rnorm = newton_solve(residual, jacobian, q0)
        else:
            qp, iters, rnorm, inverses = newton_solve(residual, jacobian, q0,
                                                      inverses)
    except SOLVER_ERRORS as exc:
        raise _cell_failure(exc, q0.shape[-2], "agent") from None
    pp = p0 + plan.tau_entry * (plan.deg * qp - nbr_q)
    return StepReport(NetworkState.stepped(qp, pp), iters, float(rnorm.max()),
                      inverses)


def _cell_failure(exc, rows_per_cell, row_name=None):
    """`exc` for the worst failing Newton row of the first cell that has
    one (rows come `rows_per_cell` to a cell); `cell` is that cell."""
    failed = np.reshape(exc.failed, (-1, rows_per_cell))
    cell = int(np.argmax(failed.any(axis=1)))
    norms = np.reshape(exc.residual_norm, (-1, rows_per_cell))[cell]
    worst = int(np.argmax(np.where(failed[cell], norms, -np.inf)))
    residual = float(norms[worst])
    prefix = f"{row_name} {worst}: " if row_name else ""
    error = type(exc)(f"{prefix}{exc.reason} (residual {residual:.3e})")
    error.iterate = exc.iterate.reshape(
        -1, rows_per_cell, exc.iterate.shape[-1])[cell, worst]
    error.residual_norm = residual
    error.cell = cell
    return error


class GtState:
    """State of the gradient-tracking baseline: estimates and trackers."""

    def __init__(self, q, tracker):
        self.q = np.asarray(q, dtype=float)
        self.tracker = np.asarray(tracker, dtype=float)
        if self.q.shape != self.tracker.shape:
            raise ValueError("q and tracker shapes differ")


def gradient_tracking_init(q0, ensemble):
    """Initialize trackers at the local gradients (sum conservation)."""
    q0 = np.asarray(q0, dtype=float)
    return GtState(q0, ensemble.gradient_stack(q0))


def gradient_tracking_step(gt, ensemble, graph, tau, plan=None):
    """One gradient-tracking update with Metropolis mixing.

    q+ = W q - tau g;  g+ = W g + grad f(q+) - grad f(q), where W x mixes
    over the graph's edges with its `metropolis` weights. `plan` (a
    `StepPlan`, in place of `tau`) holds the step sizes.
    """
    tau = _plan_for("gt", graph, tau, gt.q, plan).tau_entry
    own, edge = graph.metropolis
    both = np.array([gt.q, gt.tracker])
    mixed_q, mixed_tracker = own[:, None] * both + graph.neighbor_sum(both, edge)
    q_next = mixed_q - tau * gt.tracker
    tracker_next = (mixed_tracker
                    + ensemble.gradient_stack(q_next)
                    - ensemble.gradient_stack(gt.q))
    return GtState(q_next, tracker_next)
