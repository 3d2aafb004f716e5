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

``euler_step``, ``mid_step`` and ``gradient_tracking_step`` also advance
a stack of T independent cells at once: states of shape (T, N, m) with
one step size per cell, tau of shape (T,). Every cell's result is bitwise
the one its own (N, m) call gives. A run builds the degrees, adjacency
and Metropolis weights once and passes them in, so no step rebuilds them.
"""

import math

import numpy as np

from .dynamics import NetworkState, continuous_rhs
from .numerics import (DimensionMismatchError, MaxIterationsError,
                       SolverSettings, kron, newton_solve)

SCHEME_KINDS = ("euler", "dg", "mid", "gt")


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


def euler_step(state, ensemble, graph, tau, degrees=None, adjacency=None):
    """Forward Euler step x+ = x + tau * rhs(x).

    `degrees` and `adjacency` default to the graph's own.
    """
    tau = _step_sizes(tau, state.q)[..., None]
    dq, dp = continuous_rhs(state, ensemble, graph, degrees, adjacency)
    return NetworkState(state.q + tau * dq, state.p + tau * dp)


def dg_central_step(state, ensemble, graph, tau, solver=None):
    """Discrete-gradient step solved as one coupled implicit system.

    For the quadratic storage the discrete gradient between x and x+ is
    the midpoint, so the step reads

        (x+ - x) / tau = rhs evaluated at (x + x+) / 2

    over the whole network at once. The stacked residual in the unknown
    [q+; p+] is driven to the solver tolerance by damped Newton. This
    scheme exists as the centrally-solved reference that the per-agent
    mixed implicit scheme is validated against at small tau. It takes a
    single (N, m) state only.
    """
    if not 0 < tau < math.inf:
        raise ValueError("tau must be a finite number > 0")
    solver = solver or SolverSettings()
    n, m = state.q.shape
    nm = n * m
    lap = graph.laplacian()
    lap_m = kron(lap, np.eye(m))
    eye = np.eye(nm)
    q0, p0 = state.q, state.p
    jac_calls = [0]

    def split(z):
        return z[:nm].reshape(n, m), z[nm:].reshape(n, m)

    def residual(z):
        qp, pp = split(z)
        qb = (q0 + qp) / 2.0
        pb = (p0 + pp) / 2.0
        rq = (qp - q0) / tau + lap @ qb + lap @ pb + ensemble.gradient_stack(qb)
        rp = (pp - p0) / tau - lap @ qb
        return np.concatenate([rq.ravel(), rp.ravel()])

    def jacobian(z):
        jac_calls[0] += 1
        qp, _ = split(z)
        qb = (q0 + qp) / 2.0
        hess = ensemble.hessian_stack(qb)
        hbd = np.zeros((nm, nm))
        for i in range(n):
            hbd[i * m:(i + 1) * m, i * m:(i + 1) * m] = hess[i]
        top = np.hstack([eye / tau + lap_m / 2.0 + hbd / 2.0, lap_m / 2.0])
        bot = np.hstack([-lap_m / 2.0, eye / tau])
        return np.vstack([top, bot])

    z0 = np.concatenate([q0.ravel(), p0.ravel()])
    sol = newton_solve(residual, jacobian, z0, solver)
    qp, pp = split(sol)
    res_norm = float(np.linalg.norm(residual(sol)))
    iters = np.full(n, jac_calls[0], dtype=int)
    return StepReport(NetworkState(qp, pp), iters, res_norm)


def mid_step(state, ensemble, graph, tau, solver=None, degrees=None,
             adjacency=None):
    """Mixed implicit step: per-agent local solves, one exchange per step.

    Eliminating p_i+ through its own update leaves, for each agent, the
    small strongly convex root problem

        g_i q+ + grad f_i((q+ + q_i) / 2) + c_i = 0

    with the scalar matrix g_i = (1/tau + deg_i + tau deg_i^2) I and

        c_i = -q_i / tau - (1 + tau deg_i) sum_j q_j
              + deg_i p_i - sum_j p_j            (sums over neighbors j)

    obtained by substituting the p-update into the q-row of the step.
    All agents are solved simultaneously (batched damped Newton, warm
    started at q_i), then p_i+ = p_i + tau (deg_i q+_i - sum_j q_j). No
    neighbor future values are used anywhere, so agent i's result depends
    only on its own and its neighbors' current states.

    A (T, N, m) stack of cells solves all T*N agents together. An agent's
    Newton iterates never depend on other agents, so each cell's result is
    bitwise its own step's. A failing agent raises MaxIterationsError
    naming it; the error's `cell` is the first cell with a failing agent
    (0 for a single state). `degrees` and `adjacency` default to the
    graph's own.
    """
    solver = solver or SolverSettings()
    q0, p0 = state.q, state.p
    tau = _step_sizes(tau, q0)
    deg = graph.degrees if degrees is None else degrees
    adj = graph.adjacency() if adjacency is None else adjacency
    nbr_q = adj @ q0
    nbr_p = adj @ p0
    gdiag = 1.0 / tau + deg + tau * deg ** 2
    const = (-q0 / tau[..., None] - (1.0 + tau * deg)[..., None] * nbr_q
             + deg[:, None] * p0 - nbr_p)

    def residual(qp):
        return gdiag[..., None] * qp + ensemble.gradient_stack((qp + q0) / 2.0) + const

    qp = q0.copy()
    res = residual(qp)
    rnorm = np.linalg.norm(res, axis=-1)
    iters = np.zeros(rnorm.shape, dtype=int)
    eye = np.eye(q0.shape[-1])
    tol = solver.residual_tolerance
    for _ in range(solver.max_iterations):
        active = rnorm > tol
        if not active.any():
            break
        jac = gdiag[..., None, None] * eye + 0.5 * ensemble.hessian_stack((qp + q0) / 2.0)
        delta = np.linalg.solve(jac, -res[..., None])[..., 0]
        # per-agent backtracking: halve until the row residual decreases
        alpha = np.ones(rnorm.shape)
        pending = active.copy()
        for _ in range(60):
            if not pending.any():
                break
            cand = qp + alpha[..., None] * delta
            cres = residual(cand)
            cnorm = np.linalg.norm(cres, axis=-1)
            ok = pending & np.isfinite(cnorm) & (cnorm < rnorm)
            qp[ok] = cand[ok]
            res[ok] = cres[ok]
            rnorm[ok] = cnorm[ok]
            pending &= ~ok
            alpha[pending] *= solver.damping_shrink
        if pending.any():
            raise _agent_failure(pending, rnorm, qp, "backtracking stalled")
        iters[active] += 1
    else:
        active = rnorm > tol
        if active.any():
            raise _agent_failure(
                active, rnorm, qp,
                f"no convergence in {solver.max_iterations} iterations")
    pp = p0 + tau[..., None] * (deg[:, None] * qp - nbr_q)
    return StepReport(NetworkState(qp, pp), iters, float(rnorm.max()))


def _agent_failure(flagged, rnorm, qp, what):
    """MaxIterationsError for the worst flagged agent of the first cell
    that has one; `cell` is that cell's index."""
    n = flagged.shape[-1]
    flagged = flagged.reshape(-1, n)
    cell = int(np.argmax(flagged.any(axis=1)))
    norms = rnorm.reshape(-1, n)[cell]
    worst = int(np.argmax(np.where(flagged[cell], norms, -np.inf)))
    residual = float(norms[worst])
    error = MaxIterationsError(
        f"agent {worst}: {what} (residual {residual:.3e})",
        iterate=qp.reshape(-1, n, qp.shape[-1])[cell, worst],
        residual_norm=residual)
    error.cell = cell
    return error


def metropolis_weights(graph):
    """Doubly stochastic Metropolis weight matrix of a graph.

    w_ij = 1 / (1 + max(deg_i, deg_j)) on edges, diagonal absorbs the
    remainder.
    """
    n = graph.n
    deg = graph.degrees
    w = np.zeros((n, n))
    for i, j in graph.edges:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


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


def gradient_tracking_step(gt, ensemble, graph, tau, weights=None):
    """One gradient-tracking update with Metropolis mixing.

    q+ = W q - tau g;  g+ = W g + grad f(q+) - grad f(q).
    """
    tau = _step_sizes(tau, gt.q)[..., None]
    w = metropolis_weights(graph) if weights is None else weights
    q_next = w @ gt.q - tau * gt.tracker
    tracker_next = (w @ gt.tracker
                    + ensemble.gradient_stack(q_next)
                    - ensemble.gradient_stack(gt.q))
    return GtState(q_next, tracker_next)
