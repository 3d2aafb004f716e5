"""
The continuous-time network flow behind all discretizations.

Each agent i holds x_i = [q_i; p_i]: q_i is its estimate of the shared
minimizer, p_i an auxiliary integral state. The flow is

    dq_i/dt = - sum_{j in N_i} (q_i - q_j) - sum_{j in N_i} (p_i - p_j)
              - grad f_i(q_i)
    dp_i/dt =   sum_{j in N_i} (q_i - q_j)

which is a port-Hamiltonian system with quadratic storage H(x) = |x|^2/2,
no local dissipation, skew-ish edge coupling M = [[-1,-1],[1,0]] (x) I_m
and feedback phi_i = [-grad f_i(q_i); 0]. Its equilibria have all q_i
equal to the centralized minimizer.
"""

import numpy as np

from .numerics import DimensionMismatchError, kron, min_eigenvalue_symmetric


class NetworkState:
    """Stacked per-agent states: rows of `q` and `p` index agents.

    `q` and `p` are (N, m), or (T, N, m) for a stack of T independent
    cells advanced together.
    """

    def __init__(self, q, p):
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        if q.shape != p.shape or q.ndim not in (2, 3):
            raise DimensionMismatchError(
                f"q and p must be matching (N, m) or (T, N, m) arrays, "
                f"got {q.shape} and {p.shape}")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise ValueError("state contains non-finite entries")
        self.q = q
        self.p = p

    @property
    def n_agents(self):
        return self.q.shape[-2]

    @property
    def dim(self):
        return self.q.shape[-1]

    def agent_stack(self):
        """Agent-major flat vector [q_1, p_1, q_2, p_2, ...]."""
        return np.hstack([self.q, self.p]).ravel()

    @classmethod
    def from_agent_stack(cls, vec, n_agents, dim):
        arr = np.asarray(vec, dtype=float).reshape(n_agents, 2 * dim)
        return cls(arr[:, :dim], arr[:, dim:])

    def copy(self):
        return NetworkState(self.q.copy(), self.p.copy())

    def norm(self):
        return float(np.sqrt(np.sum(self.q ** 2) + np.sum(self.p ** 2)))

    def __repr__(self):
        return f"NetworkState(n_agents={self.n_agents}, dim={self.dim})"


def coupling_matrix(m):
    """Edge coupling [[-1, -1], [1, 0]] (x) I_m; symmetric part is NSD."""
    return kron(np.array([[-1.0, -1.0], [1.0, 0.0]]), np.eye(m))


class PhsDesign:
    """Fixed design data of the flow for agents of dimension m.

    Verifies once that the symmetric part of the coupling matrix is
    negative semidefinite, which is what makes the network passive.
    """

    def __init__(self, m):
        self.m = int(m)
        self.coupling = coupling_matrix(m)
        sym = (self.coupling + self.coupling.T) / 2.0
        if min_eigenvalue_symmetric(-sym) < -1e-12:
            raise ValueError("coupling matrix symmetric part is not NSD")

    def feedback(self, state, ensemble):
        """phi(x): rows [-grad f_i(q_i), 0] per agent, agent-major flat."""
        grads = ensemble.gradient_stack(state.q)
        return np.hstack([-grads, np.zeros_like(grads)]).ravel()


def continuous_rhs(state, ensemble, graph, degrees=None, adjacency=None):
    """Time derivative of the network state, in neighbor-sum form.

    Per agent: deg_i x_i minus the sum of neighbor states, evaluated with
    adjacency products so all agents are handled at once. Returns a
    NetworkState-shaped pair of arrays (dq, dp). `degrees` and
    `adjacency` default to the graph's own.
    """
    _check_shapes(state, ensemble, graph)
    adj = graph.adjacency() if adjacency is None else adjacency
    deg = (graph.degrees if degrees is None else degrees)[:, None]
    grads = ensemble.gradient_stack(state.q)
    consensus_q = deg * state.q - adj @ state.q
    consensus_p = deg * state.p - adj @ state.p
    dq = -consensus_q - consensus_p - grads
    dp = consensus_q
    return dq, dp


def compact_rhs(state, ensemble, graph):
    """Same vector field via the stacked form (L (x) M) x + phi(x).

    Built literally with Kronecker products; used as the independent
    cross-check of `continuous_rhs`.
    """
    _check_shapes(state, ensemble, graph)
    n, m = state.q.shape
    design = PhsDesign(m)
    coupling = kron(graph.laplacian(), design.coupling)
    flat = coupling @ state.agent_stack() + design.feedback(state, ensemble)
    arr = flat.reshape(n, 2 * m)
    return arr[:, :m], arr[:, m:]


def optimality_residual(state, ensemble, graph):
    """(gradient residual, consensus residual) of the current q block.

    Both vanish exactly at the network optimum: the summed gradient is
    zero and all q_i agree.
    """
    _check_shapes(state, ensemble, graph)
    grad_res = float(np.linalg.norm(ensemble.gradient_stack(state.q).sum(axis=0)))
    cons_res = float(np.linalg.norm(graph.laplacian() @ state.q))
    return grad_res, cons_res


def bregman_lyapunov(state, equilibrium):
    """Storage-based Lyapunov value |x - x*|^2 / 2.

    For the quadratic storage used here the Bregman distance of H reduces
    to half the squared Euclidean distance to the equilibrium.
    """
    if state.q.shape != equilibrium.q.shape:
        raise DimensionMismatchError("state and equilibrium shapes differ")
    dq = state.q - equilibrium.q
    dp = state.p - equilibrium.p
    return 0.5 * float(np.sum(dq ** 2) + np.sum(dp ** 2))


def passivity_check(state, ensemble, graph):
    """Dissipation rate x' (L (x) M) x of the coupling; always <= 0.

    Returns the quadratic form value, which equals dH/dt minus the
    feedback power along the flow.
    """
    _check_shapes(state, ensemble, graph)
    lap = graph.laplacian()
    q, p = state.q, state.p
    lq = lap @ q
    lp = lap @ p
    value = float(np.sum(q * (-lq - lp)) + np.sum(p * lq))
    return value


def equilibrium_state(ensemble, graph, initial=None, mid_tau=None, tol=1e-12):
    """Closed-form equilibrium reached from `initial`.

    q* stacks the centralized minimizer at every agent. The p block is
    only determined up to consensus directions by the equilibrium
    equations (the Laplacian has a kernel); the reachable value is fixed
    by a conserved quantity of the scheme:

    - continuous flow / forward Euler / central discrete-gradient steps
      conserve the consensus component of p,
    - the mixed implicit scheme conserves the consensus component of
      r = p - tau Q q (pass the step size as `mid_tau`).

    With `initial` omitted, the conserved component is taken as zero.
    """
    n = graph.n
    m = ensemble.dim
    theta = ensemble.centralized_optimum(tol=tol)
    q_star = np.tile(theta, (n, 1))
    grads = ensemble.gradient_stack(q_star)

    lap = graph.laplacian()
    w, vecs = np.linalg.eigh(lap)
    inv = np.where(w > 1e-9, 1.0, 0.0) / np.where(w > 1e-9, w, 1.0)
    lap_pinv = vecs @ np.diag(inv) @ vecs.T

    if mid_tau is None:
        # L p* = -grad f(q*); consensus part of p conserved
        p_star = -(lap_pinv @ grads)
        if initial is not None:
            p_star += np.tile(initial.p.mean(axis=0), (n, 1))
        return NetworkState(q_star, p_star)

    tau = float(mid_tau)
    qmat = graph.q_matrix()
    # r = p - tau Q q; L r* = -grad f(q*) - tau L Q q*, consensus part of
    # r conserved along the mixed implicit iteration
    rhs = -grads - tau * (lap @ (qmat @ q_star))
    r_star = lap_pinv @ rhs
    if initial is not None:
        r0 = initial.p - tau * (qmat @ initial.q)
        r_star += np.tile(r0.mean(axis=0), (n, 1))
    p_star = r_star + tau * (qmat @ q_star)
    return NetworkState(q_star, p_star)


def _check_shapes(state, ensemble, graph):
    if state.n_agents != graph.n:
        raise DimensionMismatchError(
            f"state has {state.n_agents} agents, graph has {graph.n}")
    if state.dim != ensemble.dim:
        raise DimensionMismatchError(
            f"state dimension {state.dim} != cost dimension {ensemble.dim}")
    if ensemble.n_agents != graph.n:
        raise DimensionMismatchError(
            f"ensemble has {ensemble.n_agents} agents, graph has {graph.n}")
