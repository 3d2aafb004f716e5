"""
Eigenvalue-based stability certificates for the mixed implicit scheme.

One mixed implicit step is linear in the state around the gradient term.
Eliminating the half-step, the update obeys

    [dq; dr] = S [q_bar; r_bar] - [G^-1 / tau; 0] grad f(q_bar)

in the coordinates r = p - tau Q q, where Q = (D + A)/2 (x) I_m,
G = I/tau^2 + Q/tau + Q^2 is positive definite, q_bar is the step
midpoint, dq the step difference, and S the midpoint map

    S = [[ -G^-1 (L/tau + Q L + L Q),  -G^-1 L / tau ],
         [  tau L,                      0            ]]

The gradient feedback enters only the q row, which is what makes the
(q, r) coordinates the right ones for the decrease inequality. In the raw
(q, p) coordinates the map is exactly similar to S, through the lower
triangular change of basis r = p - tau Q q.

A certificate (P22, u) proves global asymptotic stability of the
consensus optimum when the metric P = blockdiag(G, P22) is positive
definite, u > 0, and the decrease inequality

    P S + S' P + B  <=  -u [[I, 0], [0, 0]]

holds, where B = blockdiag(F, 0) bounds the gradient feedback term:
F = -mu/tau I for strongly convex costs with constant mu, or the
symmetric part of -H/tau with the per-agent Hessians H of quadratic
costs. These are the members with P12 = 0, U = 0 and epsilon = 0 of the
Young-inequality family (P12, P22, U, u, epsilon), and the only ones the
closed form and the search produce. Their Schur block [[U, P12], [P12',
I]] is blockdiag(0, I), whose margin is a structural 0, and the Lipschitz
constant enters their bound only as gamma epsilon / 2 = 0, so no verdict
depends on it; tests/oracles.py writes out the whole family's check. All
inequalities are verified by symmetric eigenvalue computations; no
semidefinite programming is involved (the certificate search screens its
candidates by Cholesky attempts, which only reject). P22 is N x N and
stands for P22 (x) I_m at every per-agent dimension m. G(tau), S and the
(mu, L) bound are X (x) I_m too, so the (mu, L) check decides on the
2N x 2N factors, built once per check and once per search, and its
verdict is the same for every m. The quadratic check, whose per-agent
Hessians break that structure, lifts its matrices once and runs at 2Nm.
On a regular graph, where every one of these matrices is a polynomial in
the adjacency, a P22 that is a multiple of I is decided mode by mode, on
N 2 x 2 blocks. A closed-form certificate covers every graph with
D^2 - A^2 PSD (cycles, complete graphs) at every step size, and small
enough step sizes on any connected graph.
"""

import functools
import math

import numpy as np

from .costs import NonQuadraticCostError
from .numerics import DimensionMismatchError, require_symmetric

# the tolerance every margin of a check is held to
_EIG_TOL = 1e-9


class InvalidCertificateError(ValueError):
    """Certificate violates a structural requirement (u <= 0)."""


def _lifted(block_n, m):
    """block_n (x) I_m, the same products np.kron forms, without its
    per-call set-up."""
    n = block_n.shape[0]
    eye = np.eye(m)[None, :, None, :]
    return (block_n[:, None, :, None] * eye).reshape(n * m, n * m)


def _require_positive(name, value):
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


def _inverse_square(graph, tau):
    """1/tau^2, or 0 where tau^2 overflows (a Python float raises
    OverflowError on `**` above about 1.3e154 instead of rounding to inf).

    Raises OverflowError where G(tau) or S would hold non-finite entries:
    1/tau^2 overflows below tau of about 7.5e-155, and tau L above about
    1.8e308 over the largest degree.
    """
    _require_positive("tau", tau)
    if math.isinf(float(tau) * float(graph.degrees.max())):
        raise OverflowError("tau L overflows")
    try:
        square = float(tau) ** 2
    except OverflowError:
        return 0.0
    if square == 0.0 or math.isinf(1.0 / square):
        raise OverflowError("1/tau^2 overflows")
    return 1.0 / square


def _step_matrices(graph, tau):
    """N-level G(tau) and S: the one build of every check and search.

    G(tau) is positive definite for every tau > 0 (its smallest eigenvalue
    is at least 1/tau^2), and a polynomial in Q, with which it commutes.
    """
    inverse_square = _inverse_square(graph, tau)
    lap = graph.laplacian()
    qmat = graph.q_matrix()
    gram = np.eye(graph.n) * inverse_square + qmat / tau + qmat @ qmat
    gram = (gram + gram.T) / 2.0
    a11 = -np.linalg.solve(gram, lap / tau + qmat @ lap + lap @ qmat)
    a12 = -np.linalg.solve(gram, lap) / tau
    smap = np.block([[a11, a12], [tau * lap, np.zeros_like(lap)]])
    return gram, smap


def _e11(block):
    """blockdiag(block, 0), shaped as E11 = blockdiag(I, 0): u E11, and the
    feedback bound B = blockdiag(F, 0)."""
    size = block.shape[0]
    out = np.zeros((2 * size, 2 * size))
    out[:size, :size] = block
    return out


def _hessian_bound(hbd, tau):
    """B of the quadratic check: F is the symmetric part of -H/tau, H = hbd."""
    upper = -hbd / tau
    return _e11((upper + upper.T) / 2.0)


def _hessian_block_diag(hessians, n):
    """Block diagonal of a per-agent (n, m, m) Hessian stack, m >= 1."""
    hessians = np.asarray(hessians, dtype=float)
    m = hessians.shape[-1] if hessians.ndim == 3 else 0
    if m < 1 or hessians.shape != (n, m, m):
        raise NonQuadraticCostError(
            f"expected per-agent Hessian stack of shape ({n}, m, m) with "
            f"m >= 1, got {hessians.shape}")
    hbd = np.zeros((n, m, n, m))
    agents = np.arange(n)
    hbd[agents, :, agents, :] = hessians
    return hbd.reshape(n * m, n * m)


class LmiCertificate:
    """Decision variables of a stability certificate.

    P22 is a symmetric N x N matrix standing for P22 (x) I_m at every
    per-agent dimension m; u is the claimed per-step decrease coefficient.
    """

    def __init__(self, p22, u):
        self.p22 = require_symmetric(p22, name="P22")
        self.u = float(u)

    def __repr__(self):
        return f"LmiCertificate(size={self.p22.shape[0]}, u={self.u})"


class CertificateVerdict:
    """Outcome of a certificate check.

    margins holds the three minimal-eigenvalue margins, in order: metric
    positivity (must clear +1e-9), Schur semidefiniteness (a structural 0,
    see the module docstring), and decrease slack (>= -1e-9).
    """

    def __init__(self, feasible, margins):
        self.feasible = bool(feasible)
        self.margins = tuple(float(x) for x in margins)

    @property
    def metric_margin(self):
        return self.margins[0]

    @property
    def schur_margin(self):
        return self.margins[1]

    @property
    def decrease_margin(self):
        return self.margins[2]

    def __repr__(self):
        return f"CertificateVerdict(feasible={self.feasible}, margins={self.margins})"


def _metric(gram, p22):
    """Lyapunov metric P = blockdiag(G(tau), P22)."""
    n = gram.shape[0]
    p = np.zeros((2 * n, 2 * n))
    p[:n, :n], p[n:, n:] = gram, p22
    return (p + p.T) / 2.0


def _min_eig(mat):
    return float(np.linalg.eigvalsh((mat + mat.T) / 2.0)[0])


def _min_eig2(a, b, c):
    """Smallest eigenvalue of every symmetric [[a, b], [b, c]], elementwise.

    Free of cancellation: when the mean (a + c)/2 is positive, the small
    eigenvalue is det / (mean + r) with r = hypot((a - c)/2, b), so a tiny
    eigenvalue beside a large one keeps its relative digits; otherwise
    mean - r adds two nonpositive terms. A diagonal block gives its
    smaller entry exactly, and adding 0.0 turns -0 into +0.
    """
    mean = (a + c) / 2.0
    r = np.hypot((a - c) / 2.0, b)
    small = np.asarray(mean - r)
    np.divide(a * c - b * b, mean + r, out=small, where=mean > 0)
    return np.where(b == 0, np.minimum(a, c), small) + 0.0


def _decrease_lhs(p, smap, bound):
    """X = P S + S' P + B; the decrease inequality is X <= -u E11."""
    return p @ smap + smap.T @ p + bound


def _require_checkable(cert, graph):
    size, n = cert.p22.shape[0], graph.n
    if size != n:
        raise DimensionMismatchError(
            f"certificate blocks are {size}x{size}, but {n} agents need "
            f"{n}x{n}")
    if cert.u <= 0:
        raise InvalidCertificateError("certificate requires u > 0")


def _scalar(block):
    """c when `block` is exactly c I, else None.

    Decided from the diagonal and the count of nonzero entries, without
    forming c I.
    """
    c = block[0, 0]
    diagonal = np.diagonal(block)
    if (diagonal == c).all() and np.count_nonzero(block) == (
            diagonal.size if c != 0 else 0):
        return float(c)
    return None


def _verdict(metric_margin, decrease_margin):
    feasible = metric_margin >= _EIG_TOL and decrease_margin >= -_EIG_TOL
    return CertificateVerdict(feasible, (metric_margin, 0.0, decrease_margin))


def _check_modes(c22, u, graph, tau, mu):
    """`check_certificate` on a d-regular graph with P22 = c22 I.

    There L = d I - A and Q = (d I + A)/2 share the adjacency's
    eigenvectors, so every matrix of the check splits into one 2 x 2
    block per eigenvalue a_j of A: with q = (d + a_j)/2 and l = d - a_j,
    G_j = 1/tau^2 + q/tau + q^2 and S_j = [[s11, s12], [s21, 0]]. The
    computed a_j are clipped to [-d, d], so G_j >= 1/tau^2 as in exact
    arithmetic, and the consensus one, A's largest and simple, is set to
    d, so its mode has l = 0 and S_j = 0 without rounding. Raises
    LinAlgError, as the dense solve does, when some G_j rounds to 0.
    """
    inverse_square = _inverse_square(graph, tau)
    d = graph.degrees[0]
    adj = np.clip(np.linalg.eigvalsh(graph.adjacency()), -d, d)
    adj[-1] = d
    q, lap = (d + adj) / 2.0, d - adj
    gram = inverse_square + q / tau + q * q
    if not (gram > 0).all():
        raise np.linalg.LinAlgError("G(tau) is numerically singular")
    # X = P S + S' P + B mode by mode, with P_j = diag(G_j, c22): its
    # (2, 2) entry is 0, and its off-diagonal G_j s12 + c22 s21 is written
    # with G_j s12 = -l/tau = -s21/tau^2, so that it vanishes without
    # rounding for the closed form's c22 = 1/tau^2
    s11, s21 = -(lap / tau + 2.0 * q * lap) / gram, tau * lap
    ps11 = gram * s11
    x11 = (ps11 + ps11 - mu / tau) + u
    x12 = s21 * (c22 - inverse_square)
    # adding 0.0 turns -0 into +0
    return _verdict(min(float(gram.min()), c22) + 0.0,
                    _min_eig2(-x11, -x12, 0.0).min())


def _check(p22, u, gram, smap, bound):
    """Verdict on P22 and u, from G(tau), S and the feedback bound B, all
    at one level (N, or Nm when lifted)."""
    p = _metric(gram, p22)
    x = _decrease_lhs(p, smap, bound) + _e11(u * np.eye(gram.shape[0]))
    return _verdict(_min_eig(p), _min_eig(-x))


def check_certificate(cert, graph, tau, mu):
    """Verify a certificate for strongly convex costs with constant mu.

    Returns a CertificateVerdict; raises DimensionMismatchError when P22
    is not N x N and InvalidCertificateError when the claimed decrease
    coefficient u is not positive. No Lipschitz constant enters this
    bound (see the module docstring). It runs on the 2N x 2N factors,
    whose verdict is the same for every m; on a regular graph with P22 a
    multiple of I (the closed form and every search result), it runs mode
    by mode instead: one N x N eigen-solve of A and N 2 x 2 blocks, in
    which the conserved consensus mode reads exactly 0.
    """
    _require_checkable(cert, graph)
    degrees = graph.degrees
    if (degrees == degrees[0]).all():
        c22 = _scalar(cert.p22)
        if c22 is not None:
            return _check_modes(c22, cert.u, graph, tau, mu)
    gram, smap = _step_matrices(graph, tau)
    return _check(cert.p22, cert.u, gram, smap,
                  _e11(-mu / tau * np.eye(graph.n)))


def check_certificate_quadratic(cert, graph, tau, hessians):
    """Verify a certificate against the exact quadratic-cost feedback term.

    Tests metric positivity, u > 0 and the decrease inequality with the
    per-agent Hessians, an (N, m, m) stack, in place of the (mu, L)
    bound. Per-agent Hessians break the Kronecker structure, so this
    check lifts G(tau), S and P22 by (x) I_m once and runs on 2Nm x 2Nm
    matrices.
    """
    _require_checkable(cert, graph)
    gram, smap = _step_matrices(graph, tau)
    hbd = _hessian_block_diag(hessians, graph.n)
    m = hbd.shape[0] // graph.n
    return _check(_lifted(cert.p22, m), cert.u, _lifted(gram, m),
                  _lifted(smap, m), _hessian_bound(hbd, tau))


def closed_form_certificate(graph, tau, mu):
    """The certificate that needs no search.

    P22 = I/tau^2 and u = mu * min(1, 1/tau); u is computed as
    mu / max(1, tau), rounded once, so that at tau >= 1 it equals the
    bound's mu/tau bit for bit; FloatingPointError where it
    underflows to 0 (a tiny mu at a huge tau), since no u > 0 is left.
    With these choices the decrease inequality reduces to the positive
    semidefiniteness of L/tau + Q L + L Q (note Q L + L Q equals
    D^2 - A^2 exactly), so the certificate verifies on every graph with
    D^2 - A^2 PSD at every step size, and on any connected graph for
    small enough steps. The decrease coefficient is capped at mu / tau,
    the rate actually guaranteed per step, so certified runs pass the
    trajectory audit.
    """
    inverse_square = _inverse_square(graph, tau)
    _require_positive("mu", mu)
    u = mu / max(1.0, tau)
    if u == 0.0:
        raise FloatingPointError("u = mu / tau underflows to 0")
    return LmiCertificate(p22=np.eye(graph.n) * inverse_square, u=u)


def search_certificate(graph, tau, mu=None, hessians=None):
    """Scan a one-parameter certificate family; no semidefinite programming.

    The family is P22 = alpha I, u = beta, scanned over a log grid of
    alpha (the closed-form alpha = 1/tau^2 first) and descending beta
    below the certified rate. Returns the first certificate that verifies
    - against the quadratic check when `hessians` is given, else against
    the (mu, L) check - with the verdict of the check that accepted it,
    as (cert, verdict), or None when the whole family fails. None is NOT
    evidence of instability; the family is only sufficient.

    The scan builds G(tau) and S once per call and screens, with the
    check's feedback block, at the level the public check uses: 2N x 2N
    for the (mu, L) family, and 2Nm x 2Nm with an (N, m, m) Hessian
    stack. The decrease matrix is affine in alpha, X(alpha) = X_G + alpha
    X_1 with P = blockdiag(G, 0) + alpha blockdiag(0, I), and both terms
    are formed once. The metric margin does not depend on beta, and the
    decrease margin only falls as beta grows, so an alpha that fails at
    the smallest beta has no
    verifying beta and is skipped, as is an alpha whose decrease matrix
    has a symmetric part beyond the float range (alpha tau L near 1e308),
    which no check can verify. The decrease screens are Cholesky
    attempts (`_cholesky_rejects`): they reject only margins proven to
    fail by more than their rounding error (`_rounding_slack`), and
    decide nothing else. A candidate that passes them is returned only
    once the public check (`check_certificate` or
    `check_certificate_quadratic`) accepts it, so the result is the first
    candidate of the scan order that the public check accepts, and its
    verdict, margins included, is that check's.
    """
    if hessians is not None:
        hessians = np.asarray(hessians, dtype=float)
        hbd = _hessian_block_diag(hessians, graph.n)
        if mu is None:
            mu = float(np.linalg.eigvalsh(hessians)[:, 0].min())
    if mu is None:
        raise ValueError("mu is required without Hessians")
    _require_positive("mu", mu)
    gram, smap = _step_matrices(graph, tau)
    gram_min = float(np.linalg.eigvalsh(gram)[0])
    alphas = [_inverse_square(graph, tau)] + list(np.logspace(-4, 4, 17))
    rate = mu / tau
    betas = [mu * min(1.0, 1.0 / tau)] + list(rate * np.logspace(0, -8, 17))
    # each (alpha, beta) is tried once, keyed by rounded values: a repeated
    # alpha (1/tau^2 on the grid) has no candidates left, and a beta
    # repeated within the list is tried at its first place
    candidates = {}
    for beta in betas:
        if beta > 0:
            candidates.setdefault(round(float(beta), 18), beta)
    candidates = list(candidates.values())
    if not candidates:  # every rate underflowed to 0
        return None
    smallest = min(candidates)
    if hessians is None:
        check = functools.partial(check_certificate, mu=mu)
        bound = _e11(-mu / tau * np.eye(graph.n))
    else:
        check = functools.partial(check_certificate_quadratic,
                                  hessians=hessians)
        m = hbd.shape[0] // graph.n
        gram, smap = _lifted(gram, m), _lifted(smap, m)
        bound = _hessian_bound(hbd, tau)
    zero, size = np.zeros_like(gram), gram.shape[0]
    x_gram = _decrease_lhs(_metric(gram, zero), smap, bound)
    x_one = _decrease_lhs(_metric(zero, np.eye(size)), smap, 0.0)
    neg_x_gram = -(x_gram + x_gram.T) / 2.0
    e11 = _e11(np.eye(size))
    with np.errstate(over="ignore"):  # an inf norm makes an inf slack
        gram_norm = float(np.linalg.norm(gram))
        slack_norms = (np.linalg.norm(smap), np.linalg.norm(bound))
    seen = set()
    for alpha in alphas:
        alpha_key = round(float(alpha), 15)
        if alpha_key in seen:
            continue
        seen.add(alpha_key)
        # metric margin: lambda_min(blockdiag(G, alpha I))
        if min(gram_min, alpha) < _EIG_TOL:
            continue
        neg_x = neg_x_gram - alpha * x_one
        if not np.isfinite(neg_x).all():  # no eigen-solve of X can verify
            continue
        # |P| = |blockdiag(G, alpha I)| in closed form
        p_norm = math.hypot(gram_norm, alpha * math.sqrt(size))
        slack = _rounding_slack(2 * size, p_norm, *slack_norms)
        if _cholesky_rejects(neg_x - smallest * e11,
                             _EIG_TOL + slack(smallest)):
            continue
        for beta in candidates:
            if _cholesky_rejects(neg_x - beta * e11, _EIG_TOL + slack(beta)):
                continue
            cert = LmiCertificate(p22=alpha * np.eye(graph.n), u=beta)
            verdict = check(cert, graph, tau)
            if verdict.feasible:
                return cert, verdict
    return None


def _rounding_slack(dim, p_norm, smap_norm, bound_norm):
    """How far a screen margin may fail before the public check could pass.

    Rounding in X = P S + S' P + B and in the eigen-solve moves a computed
    eigenvalue of X + u E11 (dim x dim) by at most about delta = dim * eps
    * (2 |P| |S| + |B| + u), in Frobenius norms; the screen builds its
    matrices at the level the public check uses, so delta bounds both (the
    mode-by-mode check of a regular graph works on 2 x 2 blocks and rounds
    less), and it covers forming X as X_G + alpha X_1, whose two terms
    are each bounded by 2 |P| |S| + |B|. The exact margin only falls as
    u grows, so if the exact margin of the screen's matrix is below -1e-9
    - 2 delta at some u, the public check reads below -1e-9 at that u and
    at every larger one. The slack is 2 delta with a factor of 4 to spare.
    Where the norms overflow (S holds tau L, whose squares pass the float
    range above tau of about 1e154), the slack is inf and the screen
    rejects nothing, leaving the verdict to the public check.
    """
    scale = 2.0 * p_norm * smap_norm + bound_norm
    eps = np.finfo(float).eps
    return lambda u: 8.0 * dim * eps * (scale + u)


def _cholesky_rejects(mat, floor):
    """True when a failed Cholesky factorization proves lambda_min(mat) <
    -floor, for a symmetric `mat`; False proves nothing.

    Demmel's bound (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, Thm 10.7): floating-point Cholesky runs to
    completion on a symmetric n x n B whenever lambda_min(B) > k max_i
    b_ii, with k = n gamma_{n+1} / (1 - n gamma_{n+1}) and gamma_j = j
    u / (1 - j u), u the unit roundoff. The factorization is tried on B =
    mat + c I, with d = max(0, max_i mat_ii) and c = (floor + 2 k d) / (1
    - 2 k), so that c - 2 k (d + c) = floor. If it fails, lambda_min(B)
    <= k max_i b_ii <= k (d + c), so lambda_min(mat) <= k (d + c) - c <
    -floor; the factor 2 on k covers the rounding of c and of the
    shifted diagonal. A non-finite floor (the slack of an overflowing
    norm) rejects nothing.
    """
    n = mat.shape[0]
    unit = np.finfo(float).eps / 2.0
    gamma = (n + 1) * unit / (1.0 - (n + 1) * unit)
    twice_k = 2.0 * n * gamma / (1.0 - n * gamma)
    d = max(float(np.diagonal(mat).max()), 0.0)
    c = (floor + twice_k * d) / (1.0 - twice_k)
    if not math.isfinite(c + d):
        return False
    shifted = mat.copy()
    shifted.flat[::n + 1] += c
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return True
    return False
