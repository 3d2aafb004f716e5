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

from .numerics import DimensionMismatchError


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
        if not (np.isfinite(q).all() and np.isfinite(p).all()):
            raise ValueError("state contains non-finite entries")
        self.q = q
        self.p = p

    @classmethod
    def stepped(cls, q, p):
        """The state a step computed, not re-checked: an overflowing step
        has to reach the harness's divergence test as inf or NaN."""
        state = cls.__new__(cls)
        state.q, state.p = q, p
        return state

    @property
    def n_agents(self):
        return self.q.shape[-2]

    @property
    def dim(self):
        return self.q.shape[-1]

    def __repr__(self):
        return f"NetworkState(n_agents={self.n_agents}, dim={self.dim})"


def continuous_rhs(state, ensemble, graph):
    """Time derivative of the network state, in neighbor-sum form.

    Per agent: deg_i x_i minus the sum of neighbor states, summed over the
    graph's edge arrays so all agents are handled at once. Returns a
    NetworkState-shaped pair of arrays (dq, dp).
    """
    _check_shapes(state, ensemble, graph)
    deg = graph.degrees[:, None]
    grads = ensemble.gradient_stack(state.q)
    nbr_q, nbr_p = graph.neighbor_sum(np.array([state.q, state.p]))
    consensus_q = deg * state.q - nbr_q
    consensus_p = deg * state.p - nbr_p
    dq = -consensus_q - consensus_p - grads
    dp = consensus_q
    return dq, dp


def bregman_lyapunov(state, equilibrium):
    """Storage-based Lyapunov value |x - x*|^2 / 2.

    For the quadratic storage used here the Bregman distance of H reduces
    to half the squared Euclidean distance to the equilibrium. A (T, N, m)
    state gives one value per cell, against one (N, m) equilibrium or a
    (T, N, m) stack of them; each is bitwise the value of that cell alone.
    """
    if state.q.shape[-2:] != equilibrium.q.shape[-2:]:
        raise DimensionMismatchError("state and equilibrium shapes differ")
    value = 0.5 * (_sum_of_squares(state.q - equilibrium.q)
                   + _sum_of_squares(state.p - equilibrium.p))
    return float(value) if np.ndim(value) == 0 else value


def _sum_of_squares(d):
    """Sum of squares over the last two axes, as one flat pairwise sum."""
    return np.add.reduce((d * d).reshape(d.shape[:-2] + (-1,)), axis=-1)


def equilibrium_state(ensemble, graph, initial=None, mid_tau=None, theta=None):
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
    `mid_tau` may also be a sequence of T step sizes: the result is then a
    (T, N, m) stack, one equilibrium per step size, all from one
    pseudo-inverse of L. `theta` is the centralized minimizer when the
    caller already has it; otherwise it is solved for to 1e-12.
    """
    n = graph.n
    if theta is None:
        theta = ensemble.centralized_optimum()
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

    tau = np.asarray(mid_tau, dtype=float)[..., None, None]
    qmat = graph.q_matrix()
    # r = p - tau Q q; L r* = -grad f(q*) - tau L Q q*, consensus part of
    # r conserved along the mixed implicit iteration
    rhs = -grads - tau * (lap @ (qmat @ q_star))
    r_star = lap_pinv @ rhs
    if initial is not None:
        r0 = initial.p - tau * (qmat @ initial.q)
        r_star += r0.mean(axis=-2, keepdims=True)
    p_star = r_star + tau * (qmat @ q_star)
    return NetworkState(np.tile(theta, p_star.shape[:-1] + (1,)), p_star)


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
