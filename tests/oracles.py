"""
Reference code that only the tests use.

- `solve_linear` is a dense LU solve written out in Python, the
  independent reference for the linear algebra the package leaves to
  LAPACK.
- `as_matrix`, `min_eigenvalue_symmetric`, `is_psd` and `kron` are the
  small matrix helpers the identity tests use; the package lifts its
  blocks by broadcasting (`stability._lifted`).
- `QuadraticAgent` and `LogisticAgent` are the agent-by-agent reference
  costs (value, gradient, Hessian, curvature bounds), built from the
  records of `CostEnsemble.costs` by `agents`; the package evaluates
  every agent at once from its stacks.
- `discrete_gradient` is the mean-value discrete gradient by 5-node
  Gauss-Legendre quadrature. No scheme uses it: `dg` takes the midpoint,
  which is exact for the quadratic storage.
- `coupling_matrix`, `PhsDesign` and `compact_rhs` build the flow
  literally as (L (x) M) x + phi(x), the cross-check of
  `continuous_rhs`; `agent_stack`/`from_agent_stack` are its agent-major
  state layout.
- `optimality_residual`, `passivity_check` and `value_sum` are
  diagnostics of the flow and the costs.
- The (q, p) midpoint map and the change of basis to (q, r) are the other
  side of the similarity identity that checks the package's (q, r) map.
- `reference_search` is the certificate search as a plain in-order scan
  over the public check, the behaviour `search_certificate` must keep.
  `mu_hessians` is the (mu, L) family as the package checks it, N 1 x 1
  Hessians mu.
- `exact_definiteness` decides PD, PSD-singular or indefinite for a
  matrix of `fractions.Fraction`, by a symmetric-pivoted LDL'; with the
  inputs taken as exact rationals, it is the exact side of a verdict
  that the package reaches in floats.
- `GeneralCertificate` is a certificate of the wider family
  (P12, P22, U, u, epsilon) of the Young-inequality bound, of which the
  package's (alpha, u) certificates are the members with P12 = 0,
  P22 = alpha I, U = 0 and epsilon = 0 (`general` writes one as such).
  `lifted_check_certificate` and `lifted_check_certificate_quadratic` are
  that family's checks written out on the 2Nm x 2Nm matrices, with the
  Schur block [[U, P12], [P12', I]] and the Lipschitz term: they lift a
  certificate's N x N blocks X to X (x) I_m themselves, and form G(tau)
  and the (q, r) midpoint map here from L and Q alone, by solves with
  G(tau) (`_step_gram_n`, `_step_gram`, `_midpoint_map_qr`, which the
  identity tests use too). They are the independent reference for the
  wider family, and for the package's one check, which builds X from
  its blocks and never solves with G(tau): `check_certificate` is the
  quadratic check of the members with P22 = alpha I, and takes the
  (mu, L) ones as 1 x 1 Hessians mu. `hessian_block_diag` is the
  per-agent loop the vectorised `_hessian_block_diag` must match bitwise,
  and `quadratic_gradient_block` the exact quadratic feedback term as one
  matrix.
- `gradient_feedback_gain` and `gradient_bound_block` are the (mu, L)
  feedback bound built from the graph, the reference for the block the
  package forms from the G(tau) it decides on; `assemble_metric` is the
  Lyapunov metric P, and `audit_lyapunov` replays a recorded run and
  measures the certified decrease step by step.
- `neighbors` reads one vertex's sorted neighbours off the graph's edge
  arrays, which an edge scan checks.
- `reduceat_neighbor_sum` is the earlier neighbour exchange, one gather
  over the edge arrays and one `np.add.reduceat`: `Graph.neighbor_sum`,
  which sums its slots as whole rows, must match it bitwise on every row
  of degree at most 8 and on every row above the smallest degree.
- `by_scheme` picks one scheme's rows out of a sweep table.
- `incidence`, `d2_minus_a2`, `tau_upper_bound` and
  `spectral_norm_symmetric` are graph matrices and the classical step-size
  bound that only the identity tests use.
- `metropolis_weights` is the dense Metropolis matrix W, the reference for
  the edge-array mixing of `Graph.metropolis`/`Graph.neighbor_sum`.
- `two_gradient_tracking_step` is the gradient-tracking step that
  evaluates grad f(q) afresh rather than carrying it: the step that
  carries it must match it bitwise.
- `erdos_renyi_edges`, `quadratic_ensemble_stacks` and
  `logistic_ensemble_arrays` are the earlier generators written as plain
  per-pair and per-agent loops: the graph and cost draws of the
  vectorised generators must stay the same.
"""

import math
from collections import namedtuple
from fractions import Fraction

import numpy as np

from phmid.costs import NonQuadraticCostError, QuadraticCost
from phmid.dynamics import NetworkState
from phmid.graphs import DisconnectedGraphError, Graph
from phmid.numerics import (DimensionMismatchError, SingularMatrixError,
                            as_vector, require_symmetric)
from phmid.stability import (CertificateVerdict, InvalidCertificateError,
                             LmiCertificate, check_certificate)


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


def as_matrix(a, name="matrix"):
    """Coerce to a finite 2-D float array, raising on NaN/Inf."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def min_eigenvalue_symmetric(s):
    """Smallest eigenvalue of a symmetric matrix."""
    arr = require_symmetric(s)
    if arr.size == 0:
        raise DimensionMismatchError("empty matrix has no eigenvalues")
    return float(np.linalg.eigvalsh(arr)[0])


def is_psd(s, tol):
    """True iff the smallest eigenvalue of symmetric `s` is >= -tol."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    return min_eigenvalue_symmetric(s) >= -tol


def kron(a, b):
    """Kronecker product of two matrices."""
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


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


def _sigmoid(t):
    """Numerically stable logistic sigmoid."""
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


class _Agent:
    def _check(self, theta):
        theta = as_vector(theta, "theta")
        if theta.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"theta has dimension {theta.shape[0]}, cost expects {self.dim}")
        return theta


class QuadraticAgent(_Agent):
    """f(theta) = theta' H theta / 2 + b' theta, evaluated on its own."""

    def __init__(self, h, b):
        self.h = as_matrix(h, "h")
        self.b = as_vector(b, "b")

    @property
    def dim(self):
        return self.b.shape[0]

    def value(self, theta):
        theta = self._check(theta)
        return float(0.5 * theta @ (self.h @ theta) + self.b @ theta)

    def gradient(self, theta):
        theta = self._check(theta)
        return self.h @ theta + self.b

    def hessian(self, theta):
        self._check(theta)
        return self.h.copy()

    def curvature_bounds(self):
        """(strong convexity constant, gradient Lipschitz constant)."""
        return tuple(np.linalg.eigvalsh(self.h)[[0, -1]].tolist())


class LogisticAgent(_Agent):
    """Regularized logistic loss over labeled points, evaluated on its own.

    f(theta) = sum_k log(1 + exp(-l_k * (theta . [p_k; 1])))
               + reg * ||theta||^2 / (2 * n_agents)
    """

    def __init__(self, points, labels, reg, n_agents):
        self.points = as_matrix(points, "points")
        self.labels = as_vector(labels, "labels")
        self.reg_floor = reg / n_agents
        self.augmented = np.hstack([self.points, np.ones((self.points.shape[0], 1))])

    @property
    def dim(self):
        return self.points.shape[1] + 1

    def value(self, theta):
        theta = self._check(theta)
        margins = self.labels * (self.augmented @ theta)
        loss = float(np.sum(np.logaddexp(0.0, -margins)))
        return loss + 0.5 * self.reg_floor * float(theta @ theta)

    def gradient(self, theta):
        theta = self._check(theta)
        margins = self.labels * (self.augmented @ theta)
        s = _sigmoid(-margins)
        return self.augmented.T @ (-self.labels * s) + self.reg_floor * theta

    def hessian(self, theta):
        theta = self._check(theta)
        margins = self.labels * (self.augmented @ theta)
        s = _sigmoid(-margins)
        w = s * (1.0 - s)
        h = (self.augmented * w[:, None]).T @ self.augmented
        h += self.reg_floor * np.eye(self.dim)
        return (h + h.T) / 2.0

    def curvature_bounds(self):
        """(reg floor, reg floor + data term bound): only the regularizer
        is a certified lower bound, and the upper bound uses the 1/4 cap
        on the sigmoid derivative."""
        gram = self.augmented.T @ self.augmented
        data_top = float(np.linalg.eigvalsh((gram + gram.T) / 2.0)[-1])
        return self.reg_floor, self.reg_floor + 0.25 * data_top


def agents(ensemble):
    """The reference cost of each agent of `ensemble`, from its records."""
    return [QuadraticAgent(c.h, c.b) if isinstance(c, QuadraticCost)
            else LogisticAgent(c.points, c.labels, c.reg, c.n_agents)
            for c in ensemble.costs]


def value_sum(ensemble, theta):
    """Sum of all local costs of `ensemble` at a common point."""
    return float(sum(c.value(theta) for c in agents(ensemble)))


def _require_positive(name, value):
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


def _step_gram_n(graph, tau):
    _require_positive("tau", tau)
    qmat = graph.q_matrix()
    gram = np.eye(graph.n) / tau ** 2 + qmat / tau + qmat @ qmat
    return (gram + gram.T) / 2.0


def _step_gram(graph, m, tau):
    return np.kron(_step_gram_n(graph, tau), np.eye(m))


def _midpoint_map_qr(graph, m, tau):
    """The (q, r) midpoint map, from L and Q alone."""
    lap = graph.laplacian()
    qmat = graph.q_matrix()
    gram = _step_gram_n(graph, tau)
    a11 = -np.linalg.solve(gram, lap / tau + qmat @ lap + lap @ qmat)
    a12 = -np.linalg.solve(gram, lap) / tau
    block = np.block([[a11, a12], [tau * lap, np.zeros((graph.n, graph.n))]])
    return np.kron(block, np.eye(m))


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


def hessian_block_diag(hessians, n, m):
    """Block diagonal of a per-agent (n, m, m) Hessian stack, agent by agent."""
    hessians = np.asarray(hessians, dtype=float)
    if hessians.shape != (n, m, m):
        raise NonQuadraticCostError(
            f"expected per-agent Hessian stack of shape {(n, m, m)}, "
            f"got {hessians.shape}")
    hbd = np.zeros((n * m, n * m))
    for i in range(n):
        hbd[i * m:(i + 1) * m, i * m:(i + 1) * m] = hessians[i]
    return hbd


def quadratic_gradient_block(graph, m, tau, hessians, p12):
    """Exact gradient feedback term for quadratic costs.

    [[ -H / tau,              0 ],
     [ -P12' G(tau) H / tau,  0 ]]

    with H the block diagonal of the per-agent Hessians. Only the
    symmetric part enters the decrease inequality.
    """
    hbd = hessian_block_diag(hessians, graph.n, m)
    gram = _step_gram(graph, m, tau)
    nm = graph.n * m
    out = np.zeros((2 * nm, 2 * nm))
    out[:nm, :nm] = -hbd / tau
    out[nm:, :nm] = -(np.asarray(p12, dtype=float).T @ gram @ hbd) / tau
    return out


class InvalidEpsilonError(ValueError):
    """epsilon = 0 requires U = 0 (and P12 = 0) in the bound block."""


# N x N blocks P12, P22 (symmetric) and U (symmetric), each standing for
# X (x) I_m, the decrease coefficient u and the Young-inequality split
# epsilon >= 0 (0 only with U = P12 = 0)
GeneralCertificate = namedtuple("GeneralCertificate",
                                "p12 p22 u_cap u epsilon")


def general(cert, n):
    """`cert` as a GeneralCertificate of n agents; a package certificate
    (alpha, u) is the one with P12 = 0, P22 = alpha I, U = 0 and
    epsilon = 0."""
    if isinstance(cert, GeneralCertificate):
        return cert
    zero = np.zeros((n, n))
    return GeneralCertificate(zero, cert.alpha * np.eye(n), zero, cert.u, 0.0)


def mu_hessians(graph, mu):
    """The (mu, L) family as the package checks it: N 1 x 1 Hessians mu."""
    return np.full((graph.n, 1, 1), float(mu))


def gradient_feedback_gain(graph, m, tau, lipschitz):
    """gamma(tau) = (lipschitz / tau) * ||G(tau)||, the cross-term gain.

    The lifted G(tau) has the eigenvalues of the N x N one, each repeated
    m times, so the norm is taken at N level.
    """
    gram = _step_gram_n(graph, tau)
    return (lipschitz / tau) * float(np.linalg.eigvalsh(gram)[-1])


def gradient_bound_block(graph, m, tau, epsilon, mu, lipschitz, u_cap):
    """Young-inequality bound on the gradient feedback term.

    blockdiag( (gamma eps / 2 - mu / tau) I,  gamma U / (2 eps) )

    where U upper-bounds P12' P12 through the Schur condition. At
    epsilon = 0 the off-diagonal coupling must be absent, so U (and P12)
    are required to vanish and the lower block is zero.
    """
    _require_positive("tau", tau)
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    nm = graph.n * m
    u_cap = np.asarray(u_cap, dtype=float)
    if u_cap.shape != (nm, nm):
        raise ValueError(f"U must be {nm}x{nm}")
    gamma = gradient_feedback_gain(graph, m, tau, lipschitz)
    top = (gamma * epsilon / 2.0 - mu / tau) * np.eye(nm)
    if epsilon == 0:
        if float(np.max(np.abs(u_cap))) > 0.0:
            raise InvalidEpsilonError("epsilon = 0 requires U = 0")
        bottom = np.zeros((nm, nm))
    else:
        bottom = gamma * u_cap / (2.0 * epsilon)
    out = np.zeros((2 * nm, 2 * nm))
    out[:nm, :nm] = top
    out[nm:, nm:] = bottom
    return out


def _lift(block, m):
    return kron(block, np.eye(m))


def assemble_metric(cert, graph, m, tau):
    """Lyapunov metric P = [[G(tau), P12], [P12', P22]], lifted by (x) I_m."""
    cert = general(cert, graph.n)
    p12 = _lift(cert.p12, m)
    p = np.block([[_step_gram(graph, m, tau), p12],
                  [p12.T, _lift(cert.p22, m)]])
    return (p + p.T) / 2.0


def _min_eig(mat):
    return float(np.linalg.eigvalsh((mat + mat.T) / 2.0)[0])


def _lifted_verdict(cert, p, smap, bound, tol, schur_required):
    """Verdict from the metric, midpoint map and feedback block, all 2Nm."""
    nm = p.shape[0] // 2
    m = nm // cert.p12.shape[0]
    metric_margin = _min_eig(p)
    p12 = _lift(cert.p12, m)
    schur = np.block([[_lift(cert.u_cap, m), p12], [p12.T, np.eye(nm)]])
    schur_margin = _min_eig(schur)
    target = np.zeros_like(p)
    target[:nm, :nm] = cert.u * np.eye(nm)
    x = p @ smap + smap.T @ p + bound
    decrease_margin = _min_eig(-(x + target))
    feasible = (metric_margin >= tol and decrease_margin >= -tol
                and (schur_margin >= -tol or not schur_required))
    return CertificateVerdict(feasible, (metric_margin, schur_margin,
                                         decrease_margin))


def lifted_check_certificate(cert, graph, m, tau, mu, lipschitz, tol=1e-9):
    """The (mu, L) check of a general certificate on the 2Nm x 2Nm
    matrices."""
    cert = general(cert, graph.n)
    if cert.u <= 0:
        raise InvalidCertificateError("certificate requires u > 0")
    bound = gradient_bound_block(graph, m, tau, cert.epsilon, mu, lipschitz,
                                 _lift(cert.u_cap, m))
    return _lifted_verdict(cert, assemble_metric(cert, graph, m, tau),
                           _midpoint_map_qr(graph, m, tau), bound, tol,
                           schur_required=True)


def lifted_check_certificate_quadratic(cert, graph, m, tau, hessians,
                                       tol=1e-9):
    """The quadratic check of a general certificate, written out on its
    own; it does not require the Schur condition."""
    cert = general(cert, graph.n)
    if cert.u <= 0:
        raise InvalidCertificateError("certificate requires u > 0")
    bound = quadratic_gradient_block(graph, m, tau, hessians,
                                     _lift(cert.p12, m))
    bound = (bound + bound.T) / 2.0
    return _lifted_verdict(cert, assemble_metric(cert, graph, m, tau),
                           _midpoint_map_qr(graph, m, tau), bound, tol,
                           schur_required=False)


def reference_search(graph, tau, hessians):
    """Every (alpha, beta) of the family through the public check, in order."""
    hessians = np.asarray(hessians, dtype=float)
    mu = min(float(np.linalg.eigvalsh(h)[0]) for h in hessians)
    if not mu > 0:
        raise ValueError("the Hessians must be positive definite")
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
            cert = LmiCertificate(alpha, beta)
            if check_certificate(cert, graph, tau, hessians).feasible:
                return cert
    return None


def exact_definiteness(mat):
    """The inertia of a symmetric matrix of Fractions, decided exactly:
    "pd", "psd-singular" or "indefinite".

    A symmetric-pivoted LDL': each step takes the largest remaining
    diagonal entry as the pivot and replaces the rest by its Schur
    complement, a congruence, which keeps the inertia. A negative
    diagonal entry of a complement, or a zero diagonal beside a nonzero
    entry of its row, makes the matrix indefinite; a complement that is
    all zero leaves it singular and semidefinite.
    """
    rest = [[Fraction(x) for x in row] for row in mat]
    while rest:
        k = max(range(len(rest)), key=lambda i: rest[i][i])
        pivot = rest[k][k]
        if pivot < 0:
            return "indefinite"
        if pivot == 0:
            return ("indefinite" if any(x for row in rest for x in row)
                    else "psd-singular")
        col = rest[k]
        rest = [[x - col[i] * col[j] / pivot for j, x in enumerate(row)
                 if j != k] for i, row in enumerate(rest) if i != k]
    return "pd"


def audit_lyapunov(trace, cert, equilibrium, graph, tau):
    """Largest per-step violation of the certified decrease along a run.

    Transforms the recorded states to (q, r = p - tau Q q), builds
    V = e' P e / 2 around the equilibrium and returns

        max_k  V(e[k+1]) - V(e[k]) + u * ||q_bar[k] - q*||^2

    which is <= 0 (up to solver round-off) whenever the certificate
    genuinely certifies the run. Positive values are diagnostic only.
    """
    q_hist = getattr(trace, "q_history", None)
    p_hist = getattr(trace, "p_history", None)
    if q_hist is None or p_hist is None:
        raise ValueError("trace carries no state history; rerun with "
                         "record_lyapunov=True")
    q_hist = np.asarray(q_hist, dtype=float)
    p_hist = np.asarray(p_hist, dtype=float)
    if q_hist.shape != p_hist.shape or q_hist.ndim != 3:
        raise ValueError("state history must be (steps+1, N, m) arrays")
    steps_plus, n, m = q_hist.shape
    if n != graph.n or equilibrium.q.shape != (n, m):
        raise ValueError("history, graph and equilibrium disagree on shape")
    if steps_plus < 2:
        return 0.0
    qmat = graph.q_matrix()
    r_hist = p_hist - tau * np.einsum("ab,kbm->kam", qmat, q_hist)
    r_star = equilibrium.p - tau * (qmat @ equilibrium.q)
    err = np.concatenate([
        (q_hist - equilibrium.q[None]).reshape(steps_plus, n * m),
        (r_hist - r_star[None]).reshape(steps_plus, n * m)], axis=1)
    metric = assemble_metric(cert, graph, m, tau)
    values = 0.5 * np.einsum("ki,ij,kj->k", err, metric, err)
    q_mid = (q_hist[:-1] + q_hist[1:]) / 2.0
    dev = np.sum((q_mid - equilibrium.q[None]) ** 2, axis=(1, 2))
    violations = values[1:] - values[:-1] + cert.u * dev
    return float(np.max(violations))


def by_scheme(table, scheme):
    """The rows of a sweep table for one scheme, in grid order."""
    return [row for row in table if row.scheme == scheme]


def neighbors(graph, i):
    """Sorted tuple of neighbors of vertex i."""
    start = graph._starts[i]
    return tuple(graph._neighbors[start:start + int(graph._degrees[i])].tolist())


def reduceat_neighbor_sum(graph, x, weights=None):
    """Neighbour sums of an (..., n, m) stack by one gather over the edge
    arrays and one `np.add.reduceat` per vertex group, each row scaled by
    its entry's weight first when `weights` are given."""
    if not graph._neighbors.size:
        return np.zeros(np.shape(x))
    terms = np.take(x, graph._neighbors, axis=-2)
    if weights is not None:
        terms *= weights[:, None]
    return np.add.reduceat(terms, graph._starts, axis=-2)


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


def two_gradient_tracking_step(q, tracker, ensemble, graph, tau):
    """(q+, tracker+) of one gradient-tracking step, with both gradient
    stacks of tracker+ = W tracker + grad f(q+) - grad f(q) evaluated.
    `tau` broadcasts against `q`: a (T, 1, 1) column for a stack of T
    cells."""
    own, edge = graph.metropolis
    both = np.array([q, tracker])
    mixed_q, mixed_tracker = own[:, None] * both + graph.neighbor_sum(both, edge)
    q_next = mixed_q - tau * tracker
    return q_next, (mixed_tracker + ensemble.gradient_stack(q_next)
                    - ensemble.gradient_stack(q))


def erdos_renyi_edges(n, p, seed):
    """Edge set of `erdos_renyi(n, p, seed)`, drawn pair by pair."""
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for _ in range(10000):
        draws = rng.random(len(pairs))
        edges = [pair for pair, x in zip(pairs, draws) if x < p]
        try:
            return Graph(n, edges).edges
        except DisconnectedGraphError:
            continue
    return None


def quadratic_ensemble_stacks(n_agents, m, seed):
    """(H, b) stacks of `random_quadratic_ensemble`, built agent by agent."""
    rng = np.random.default_rng(seed)
    lo, hi = 0.5, 3.0
    hs, bs = [], []
    for _ in range(n_agents):
        basis, _ = np.linalg.qr(rng.standard_normal((m, m)))
        eigs = rng.uniform(lo, hi, size=m)
        h = basis @ np.diag(eigs) @ basis.T
        hs.append((h + h.T) / 2.0)
        bs.append(rng.standard_normal(m))
    return np.stack(hs), np.stack(bs)


def logistic_ensemble_arrays(n_agents, m, n_points, seed, point_scale=1.0):
    """(points, labels) of `random_logistic_ensemble`, drawn and labelled
    agent by agent."""
    rng = np.random.default_rng(seed)
    truth = rng.standard_normal(m)
    points = np.empty((n_agents, n_points, m - 1))
    labels = np.empty((n_agents, n_points))
    for i in range(n_agents):
        points[i] = point_scale * rng.standard_normal((n_points, m - 1))
        aug = np.hstack([points[i], np.ones((n_points, 1))])
        labels[i] = np.where(aug @ truth >= 0, 1.0, -1.0)
        labels[i, rng.random(n_points) < 0.1] *= -1.0
    return points, labels
