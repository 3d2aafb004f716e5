"""
Reference code that only the tests use.

- `solve_linear` is a dense LU solve written out in Python, the
  independent reference for the linear algebra the package leaves to
  LAPACK.
- `discrete_gradient` is the mean-value discrete gradient by 5-node
  Gauss-Legendre quadrature. No scheme uses it: `dg` takes the midpoint,
  which is exact for the quadratic storage.
- `coupling_matrix`, `PhsDesign` and `compact_rhs` build the flow
  literally as (L (x) M) x + phi(x), the cross-check of
  `continuous_rhs`; `agent_stack`/`from_agent_stack` are its agent-major
  state layout.
- `optimality_residual`, `passivity_check`, `ensemble_constants` and
  `value_sum` are diagnostics of the flow and the costs.
- The (q, p) midpoint map and the change of basis to (q, r) are the other
  side of the similarity identity that checks `midpoint_map_qr`.
- `reference_search` is the certificate search as a plain in-order scan
  over the public checks, the behaviour `search_certificate` must keep.
- `incidence`, `d2_minus_a2`, `tau_upper_bound` and
  `spectral_norm_symmetric` are graph matrices and the classical step-size
  bound that only the identity tests use.
- `metropolis_weights` is the dense Metropolis matrix W, the reference for
  the edge-array mixing of `Graph.metropolis`/`Graph.neighbor_sum`.
- `erdos_renyi_edges` and `quadratic_ensemble_stacks` are the earlier
  generators written as plain per-pair and per-agent loops: the graph
  and cost draws of the vectorised generators must stay the same.
"""

import math

import numpy as np

from phmid.costs import CostEnsemble
from phmid.dynamics import NetworkState
from phmid.graphs import DisconnectedGraphError, Graph
from phmid.numerics import (DimensionMismatchError, SingularMatrixError,
                            as_matrix, as_vector, kron,
                            min_eigenvalue_symmetric, require_symmetric)
from phmid.stability import (LmiCertificate, check_certificate,
                             check_certificate_quadratic)


def solve_linear(a, b):
    """Solve ``a @ x = b`` by LU elimination with partial pivoting.

    Raises SingularMatrixError when a pivot falls below 1e-12 relative to
    the largest entry of `a`.
    """
    a = as_matrix(a, "a")
    b = as_vector(b, "b")
    n = a.shape[0]
    if a.shape[1] != n:
        raise DimensionMismatchError(f"matrix must be square, got {a.shape}")
    if b.shape[0] != n:
        raise DimensionMismatchError(
            f"rhs length {b.shape[0]} does not match matrix size {n}")
    m = np.hstack([a.copy(), b[:, None].copy()])
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 1.0)
    threshold = 1e-12 * scale
    for k in range(n):
        piv = k + int(np.argmax(np.abs(m[k:, k])))
        if abs(m[piv, k]) <= threshold:
            raise SingularMatrixError(f"rank deficiency at column {k}")
        if piv != k:
            m[[k, piv]] = m[[piv, k]]
        factors = m[k + 1:, k] / m[k, k]
        m[k + 1:, k:] -= factors[:, None] * m[k, k:]
    x = np.zeros(n)
    for k in range(n - 1, -1, -1):
        x[k] = (m[k, n] - m[k, k + 1:n] @ x[k + 1:]) / m[k, k]
    return x


# Gauss-Legendre nodes/weights on [0, 1], 5 points (exact for degree <= 9).
_GL5_NODES = np.array([
    0.5 - 0.9061798459386639898 / 2,
    0.5 - 0.5384693101056830910 / 2,
    0.5,
    0.5 + 0.5384693101056830910 / 2,
    0.5 + 0.9061798459386639898 / 2,
])
_GL5_WEIGHTS = np.array([
    0.2369268850561890875 / 2,
    0.4786286704993664680 / 2,
    0.5688888888888888889 / 2,
    0.4786286704993664680 / 2,
    0.2369268850561890875 / 2,
])


def discrete_gradient(value, gradient, u, v):
    """Two-point gradient substitute built from the mean-value integral.

    Returns the integral of ``gradient((1 - s) u + s v)`` over s in [0, 1],
    approximated with fixed 5-node Gauss-Legendre quadrature (exact for
    polynomial integrands up to degree 9, hence exact for quadratics).
    Satisfies the secant identity ``dg(u, v) . (v - u) = value(v) - value(u)``
    up to quadrature error, and reduces to ``gradient(u)`` when u == v.

    `value` is accepted alongside `gradient` so call sites document the
    scalar function the secant identity refers to; only `gradient` is
    evaluated.
    """
    del value
    u = as_vector(u, "u")
    v = as_vector(v, "v")
    if u.shape != v.shape:
        raise DimensionMismatchError(
            f"u has shape {u.shape} but v has shape {v.shape}")
    if float(np.linalg.norm(v - u)) <= 1e-14:
        return np.asarray(gradient(u), dtype=float)
    acc = np.zeros_like(u)
    for s, w in zip(_GL5_NODES, _GL5_WEIGHTS):
        acc = acc + w * np.asarray(gradient(u + s * (v - u)), dtype=float)
    return acc


def agent_stack(state):
    """Agent-major flat vector [q_1, p_1, q_2, p_2, ...]."""
    return np.hstack([state.q, state.p]).ravel()


def from_agent_stack(vec, n_agents, dim):
    arr = np.asarray(vec, dtype=float).reshape(n_agents, 2 * dim)
    return NetworkState(arr[:, :dim], arr[:, dim:])


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


def compact_rhs(state, ensemble, graph):
    """The flow's vector field via the stacked form (L (x) M) x + phi(x).

    Built literally with Kronecker products; the independent cross-check
    of `continuous_rhs`.
    """
    n, m = state.q.shape
    design = PhsDesign(m)
    coupling = kron(graph.laplacian(), design.coupling)
    flat = coupling @ agent_stack(state) + design.feedback(state, ensemble)
    arr = flat.reshape(n, 2 * m)
    return arr[:, :m], arr[:, m:]


def optimality_residual(state, ensemble, graph):
    """(gradient residual, consensus residual) of the current q block.

    Both vanish exactly at the network optimum: the summed gradient is
    zero and all q_i agree.
    """
    grad_res = float(np.linalg.norm(ensemble.gradient_stack(state.q).sum(axis=0)))
    cons_res = float(np.linalg.norm(graph.laplacian() @ state.q))
    return grad_res, cons_res


def passivity_check(state, ensemble, graph):
    """Dissipation rate x' (L (x) M) x of the coupling; always <= 0.

    Returns the quadratic form value, which equals dH/dt minus the
    feedback power along the flow.
    """
    lap = graph.laplacian()
    q, p = state.q, state.p
    lq = lap @ q
    lp = lap @ p
    value = float(np.sum(q * (-lq - lp)) + np.sum(p * lq))
    return value


def ensemble_constants(costs):
    """(mu, lipschitz) certified for every cost in the iterable."""
    ens = CostEnsemble(costs)
    return ens.mu, ens.lipschitz


def value_sum(ensemble, theta):
    """Sum of all local costs of `ensemble` at a common point."""
    return float(sum(c.value(theta) for c in ensemble.costs))


def _step_gram_n(graph, tau):
    qmat = graph.q_matrix()
    gram = np.eye(graph.n) / tau ** 2 + qmat / tau + qmat @ qmat
    return (gram + gram.T) / 2.0


def midpoint_map_qp(graph, m, tau):
    """Linear midpoint map of the step in the raw (q, p) coordinates."""
    lap = graph.laplacian()
    qmat = graph.q_matrix()
    gram = _step_gram_n(graph, tau)
    a11 = -np.linalg.solve(gram, (np.eye(graph.n) / tau + qmat) @ lap)
    a12 = -np.linalg.solve(gram, lap) / tau
    a21 = np.linalg.solve(gram, lap) / tau
    a22 = -np.linalg.solve(gram, qmat @ lap)
    return np.kron(np.block([[a11, a12], [a21, a22]]), np.eye(m))


def change_of_basis(graph, m, tau):
    """Lower triangular T with [q; r] = T [q; p], i.e. r = p - tau Q q.

    Satisfies midpoint_map_qr = T midpoint_map_qp T^-1 exactly.
    """
    n = graph.n
    qmat = graph.q_matrix()
    block = np.block([[np.eye(n), np.zeros((n, n))], [-tau * qmat, np.eye(n)]])
    return np.kron(block, np.eye(m))


def reference_search(graph, m, tau, mu=None, lipschitz=None, hessians=None,
                     tol=1e-9):
    """Every (alpha, beta) of the family through the public check, in order."""
    if hessians is not None:
        hessians = np.asarray(hessians, dtype=float)
        if mu is None:
            mu = min(float(np.linalg.eigvalsh(h)[0]) for h in hessians)
    if mu is None or not mu > 0:
        raise ValueError("a positive mu is required (given or from Hessians)")
    nm = graph.n * m
    zero = np.zeros((nm, nm))
    alphas = [1.0 / tau ** 2] + list(np.logspace(-4, 4, 17))
    rate = mu / tau
    betas = [mu * min(1.0, 1.0 / tau)] + list(rate * np.logspace(0, -8, 17))
    seen = set()
    for alpha in alphas:
        for beta in betas:
            key = (round(float(alpha), 15), round(float(beta), 18))
            if key in seen or beta <= 0:
                continue
            seen.add(key)
            cert = LmiCertificate(p12=zero, p22=alpha * np.eye(nm),
                                  u_cap=zero, u=beta, epsilon=0.0)
            if hessians is not None:
                verdict = check_certificate_quadratic(cert, graph, m, tau,
                                                      hessians, tol)
            else:
                verdict = check_certificate(cert, graph, m, tau, mu,
                                            lipschitz, tol)
            if verdict.feasible:
                return cert
    return None


def spectral_norm_symmetric(s):
    """Induced 2-norm of a symmetric matrix (largest |eigenvalue|)."""
    arr = require_symmetric(s)
    if arr.size == 0:
        return 0.0
    w = np.linalg.eigvalsh(arr)
    return float(max(abs(w[0]), abs(w[-1])))


def incidence(graph):
    """n x |edges| incidence matrix E with E @ E.T equal to the Laplacian.

    Columns are ordered by sorted edge; orientation puts +1 at the
    smaller vertex index mostly so tests are bit-stable (the product
    E @ E.T does not depend on it).
    """
    cols = sorted(graph.edges)
    e = np.zeros((graph.n, len(cols)))
    for k, (i, j) in enumerate(cols):
        e[i, k] = 1.0
        e[j, k] = -1.0
    return e


def d2_minus_a2(graph):
    """D^2 - A^2; PSD exactly when the step-size-free certificate applies."""
    a = graph.adjacency()
    d = np.diag(a.sum(axis=1))
    out = d @ d - a @ a
    return (out + out.T) / 2.0


def tau_upper_bound(graph, mu):
    """Step-size bound mu / ||D^2 - A^2|| valid on any connected graph.

    Returns +inf when the norm vanishes (e.g. a single edge).
    """
    if not mu > 0:
        raise ValueError("mu must be > 0")
    norm = spectral_norm_symmetric(d2_minus_a2(graph))
    if norm <= 0.0:
        return math.inf
    return float(mu) / norm


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


def erdos_renyi_edges(n, p, seed, max_attempts=10000):
    """Edge set of `erdos_renyi(n, p, seed)`, drawn pair by pair."""
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for _ in range(max_attempts):
        draws = rng.random(len(pairs))
        edges = [pair for pair, x in zip(pairs, draws) if x < p]
        try:
            return Graph(n, edges).edges
        except DisconnectedGraphError:
            continue
    return None


def quadratic_ensemble_stacks(n_agents, m, seed, eig_range=(0.5, 3.0)):
    """(H, b) stacks of `random_quadratic_ensemble`, built agent by agent."""
    rng = np.random.default_rng(seed)
    lo, hi = eig_range
    hs, bs = [], []
    for _ in range(n_agents):
        basis, _ = np.linalg.qr(rng.standard_normal((m, m)))
        eigs = rng.uniform(lo, hi, size=m)
        h = basis @ np.diag(eigs) @ basis.T
        hs.append((h + h.T) / 2.0)
        bs.append(rng.standard_normal(m))
    return np.stack(hs), np.stack(bs)
