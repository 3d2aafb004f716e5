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
`euler` and `gt` steps exchange over the graph's edge arrays
(`Graph.neighbor_sum`, O(|E|) per step); `dg`, the dense reference for
small networks, takes its Laplacian once per run. Both implicit steps solve
with the one batched Newton of `numerics.newton_solve`.
"""

import math

import numpy as np

from .dynamics import NetworkState, continuous_rhs
from .numerics import (DimensionMismatchError, MaxIterationsError,
                       SingularMatrixError, SolverSettings, kron, newton_solve)

SCHEME_KINDS = ("euler", "dg", "mid", "gt")

# The errors `newton_solve` raises; an implicit step re-raises them for
# its first failing cell.
SOLVER_ERRORS = (MaxIterationsError, SingularMatrixError)


class SchemeConfig:
    """A scheme tag with its step size and implicit-solver settings."""

    def __init__(self, kind, tau, solver=None):
        if kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme {kind!r}, expected one of {SCHEME_KINDS}")
        tau = float(tau)
        if not 0 < tau < math.inf:
            raise ValueError(f"tau must be a finite number > 0, got {tau!r}")
        self.kind = kind
        self.tau = tau
        self.solver = solver or SolverSettings()

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

    On success `max_residual` is at or below the solver tolerance.
    """

    def __init__(self, state, newton_iterations, max_residual):
        self.state = state
        self.newton_iterations = np.asarray(newton_iterations, dtype=int)
        self.max_residual = float(max_residual)


def _step_sizes(tau, q):
    """Validated step sizes, shaped to scale per-agent rows of `q`.

    A single (N, m) state takes a scalar tau; a (T, N, m) stack of cells
    takes a scalar or one tau per cell. Returns shape (1,) or (T, 1), so
    `tau * degrees` runs per agent and `tau[..., None] * q` per entry.
    """
    tau = np.asarray(tau, dtype=float)
    if tau.shape not in ((), q.shape[:-2]):
        raise DimensionMismatchError(
            f"tau has shape {tau.shape}, states have shape {q.shape}")
    if not ((0 < tau) & (tau < math.inf)).all():
        raise ValueError("tau must be a finite number > 0")
    return tau[..., None]


def euler_step(state, ensemble, graph, tau):
    """Forward Euler step x+ = x + tau * rhs(x)."""
    tau = _step_sizes(tau, state.q)[..., None]
    dq, dp = continuous_rhs(state, ensemble, graph)
    return NetworkState(state.q + tau * dq, state.p + tau * dp)


def dg_central_step(state, ensemble, graph, tau, solver=None, laplacian=None):
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
    `laplacian` defaults to the graph's own.
    """
    solver = solver or SolverSettings()
    q0, p0 = state.q, state.p
    tau = _step_sizes(tau, q0)[..., None]
    lap = graph.laplacian() if laplacian is None else laplacian
    lead, (n, m) = q0.shape[:-2], q0.shape[-2:]
    nm = n * m
    half_lap = kron(lap, np.eye(m)) / 2.0
    eye = np.eye(nm)
    jac0 = np.empty(lead + (2 * nm, 2 * nm))
    jac0[..., :nm, :nm] = eye / tau + half_lap
    jac0[..., :nm, nm:] = half_lap
    jac0[..., nm:, :nm] = -half_lap
    jac0[..., nm:, nm:] = eye / tau

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
        blocks = np.einsum("ij,...iab->...iajb", np.eye(n), hess)
        jac = jac0.copy()
        jac[..., :nm, :nm] += blocks.reshape(lead + (nm, nm)) / 2.0
        return jac

    z0 = np.concatenate([q0, p0], axis=-2).reshape(lead + (2 * nm,))
    try:
        z, iters, rnorm = newton_solve(residual, jacobian, z0, solver)
    except SOLVER_ERRORS as exc:
        raise _cell_failure(exc, 1) from None
    return StepReport(NetworkState(*split(z)), np.repeat(iters[..., None], n, -1),
                      float(rnorm.max()))


def mid_step(state, ensemble, graph, tau, solver=None):
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
    single state).
    """
    solver = solver or SolverSettings()
    q0, p0 = state.q, state.p
    tau = _step_sizes(tau, q0)
    deg = graph.degrees
    nbr_q, nbr_p = graph.neighbor_sum(np.array([q0, p0]))
    gdiag = 1.0 / tau + deg + tau * deg ** 2
    const = (-q0 / tau[..., None] - (1.0 + tau * deg)[..., None] * nbr_q
             + deg[:, None] * p0 - nbr_p)
    eye = np.eye(q0.shape[-1])

    def residual(qp):
        return gdiag[..., None] * qp + ensemble.gradient_stack((qp + q0) / 2.0) + const

    def jacobian(qp):
        return (gdiag[..., None, None] * eye
                + 0.5 * ensemble.hessian_stack((qp + q0) / 2.0))

    try:
        qp, iters, rnorm = newton_solve(residual, jacobian, q0, solver)
    except SOLVER_ERRORS as exc:
        raise _cell_failure(exc, q0.shape[-2], "agent") from None
    pp = p0 + tau[..., None] * (deg[:, None] * qp - nbr_q)
    return StepReport(NetworkState(qp, pp), iters, float(rnorm.max()))


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


def gradient_tracking_step(gt, ensemble, graph, tau):
    """One gradient-tracking update with Metropolis mixing.

    q+ = W q - tau g;  g+ = W g + grad f(q+) - grad f(q), where W x mixes
    over the graph's edges with its `metropolis` weights.
    """
    tau = _step_sizes(tau, gt.q)[..., None]
    own, edge = graph.metropolis
    both = np.array([gt.q, gt.tracker])
    mixed_q, mixed_tracker = own[:, None] * both + graph.neighbor_sum(both, edge)
    q_next = mixed_q - tau * gt.tracker
    tracker_next = (mixed_tracker
                    + ensemble.gradient_stack(q_next)
                    - ensemble.gradient_stack(gt.q))
    return GtState(q_next, tracker_next)
