"""
Eigenvalue-based stability certificates for the mixed implicit scheme.

In the coordinates r = p - tau Q q, Q = (D + A)/2 (x) I_m, a mixed
implicit step is a linear midpoint map S, which carries the inverse of
G(tau) = I/tau^2 + Q/tau + Q^2, plus a gradient feedback term in the q
row. A certificate (P22, u) proves global asymptotic stability of the
consensus optimum when the metric P = blockdiag(G, P22) is positive
definite, u > 0, and the decrease inequality

    X = P S + S' P + B  <=  -u [[I, 0], [0, 0]]

holds, where B = blockdiag(F, 0) bounds the feedback term: F = -mu/tau I
for strongly convex costs with constant mu, or the symmetric part of
-H/tau with the per-agent Hessians H of quadratic costs. These are the
members with P12 = 0, U = 0 and epsilon = 0 of the Young-inequality
family (P12, P22, U, u, epsilon): their Schur block is blockdiag(0, I),
whose margin is a structural 0, and no verdict depends on the Lipschitz
constant; tests/oracles.py writes out the whole family's check.

G^-1 cancels from X, so no check or search solves with G:

    X11 = -2 K + F,  K = L/tau + D^2 - A^2,  X12 = tau L (P22 - I/tau^2),

and X22 = 0, with A^2 formed from the 0/1 adjacency, so that D^2 - A^2 is
exact. G = (Q + I/(2 tau))^2 + 3/(4 tau^2) I, so lambda_min(G) = 1/tau^2
+ q/tau + q^2 >= 1/tau^2 at q = lambda_min(Q) >= 0. For the closed form's
P22 = I/tau^2, X12 is exactly 0 and the decrease margin is
min(lambda_min(2 K - F - u I), 0). Every margin is a symmetric
eigenvalue; the search screens candidates by Cholesky attempts, which
only reject. P22 is N x N and stands for P22 (x) I_m, so the (mu, L)
check decides on 2N x 2N factors, with the same verdict at every m; the
quadratic check lifts its blocks once and runs at 2Nm. On a regular
graph, a P22 that is a multiple of I is decided mode by mode, on N 2 x 2
blocks. The closed form verifies on every graph with D^2 - A^2 PSD
(cycles, complete graphs) at every step size, and for small enough steps
on any connected graph.
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

    Raises OverflowError where the blocks would hold non-finite entries:
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


class _Blocks:
    """The one build of every dense check and search, at N level: 1/tau^2,
    L, K = L/tau + D^2 - A^2 and Q = (D + A)/2."""

    def __init__(self, graph, tau):
        self.tau = tau
        self.inverse_square = _inverse_square(graph, tau)
        adj = graph.adjacency()
        deg = graph.degrees
        self.lap = np.diag(deg) - adj
        self.k = self.lap / tau + (np.diag(deg * deg) - adj @ adj)
        self.qmat = (np.diag(deg) + adj) / 2.0

    @functools.cached_property
    def gram_min(self):
        """lambda_min(G) = 1/tau^2 + q/tau + q^2 at q = lambda_min(Q) >= 0."""
        q = max(float(np.linalg.eigvalsh(self.qmat)[0]), 0.0)
        return self.inverse_square + q / self.tau + q * q

    def metric_margin(self, p22_min):
        """min(lambda_min(P22), lambda_min(G)); lambda_min(G) is at least
        1/tau^2, so it is read only above that."""
        if p22_min <= self.inverse_square:
            return p22_min
        return min(p22_min, self.gram_min)

    def decrease(self, p22, feedback):
        """-X = [[2 K - F, -X12], [-X12', 0]] for P = blockdiag(G, P22), at
        the level of F: lifted by (x) I_m when F is Nm x Nm. X12 = tau L
        (P22 - I/tau^2) is exactly 0 at P22 = I/tau^2."""
        shifted = p22 - self.inverse_square * np.eye(p22.shape[0])
        x11, x12 = 2.0 * self.k, self.tau * (self.lap @ shifted)
        m = feedback.shape[0] // x11.shape[0]
        if m > 1:
            x11, x12 = _lifted(x11, m), _lifted(x12, m)
        return np.block([[x11 - feedback, -x12],
                         [-x12.T, np.zeros_like(x11)]])


def _quadratic_feedback(hbd, tau):
    """F of the quadratic check: the symmetric part of -H/tau, H = hbd."""
    upper = -hbd / tau
    return (upper + upper.T) / 2.0


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

    There L = d I - A, Q = (d I + A)/2 and K share the adjacency's
    eigenvectors, so every block of the check splits into one 2 x 2 block
    per eigenvalue a_j of A: with l = d - a_j and q = (d + a_j)/2,
    G_j = 1/tau^2 + q/tau + q^2, k_j = l/tau + d^2 - a_j^2 and X12_j =
    tau l (c22 - 1/tau^2). The computed a_j are clipped to [-d, d], so
    G_j >= 1/tau^2 as in exact arithmetic, and the consensus one, A's
    largest and simple, is set to d, so its mode has l = 0 and k_j = 0
    without rounding.
    """
    inverse_square = _inverse_square(graph, tau)
    d = graph.degrees[0]
    adj = np.clip(np.linalg.eigvalsh(graph.adjacency()), -d, d)
    adj[-1] = d
    q, lap = (d + adj) / 2.0, d - adj
    gram = inverse_square + q / tau + q * q
    # d^2 - a_j^2 as (d + a_j) l, without cancellation near a_j = d
    k = lap / tau + (d + adj) * lap
    x12 = tau * lap * (c22 - inverse_square)
    # adding 0.0 turns -0 into +0
    return _verdict(min(float(gram.min()), c22) + 0.0,
                    _min_eig2((2.0 * k + mu / tau) - u, -x12, 0.0).min())


def _check(cert, blocks, feedback):
    """Verdict on P22 and u from the blocks and the feedback block F; the
    decrease inequality is -X - u E11 >= 0."""
    u_e11 = np.diag(np.repeat([cert.u, 0.0], feedback.shape[0]))
    return _verdict(blocks.metric_margin(_min_eig(cert.p22)),
                    _min_eig(blocks.decrease(cert.p22, feedback) - u_e11))


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
    return _check(cert, _Blocks(graph, tau), -mu / tau * np.eye(graph.n))


def check_certificate_quadratic(cert, graph, tau, hessians):
    """Verify a certificate against the exact quadratic-cost feedback term.

    Tests metric positivity, u > 0 and the decrease inequality with the
    per-agent Hessians, an (N, m, m) stack, in place of the (mu, L)
    bound. Per-agent Hessians break the Kronecker structure, so this
    check lifts K and X12 by (x) I_m once and decides the decrease on
    2Nm x 2Nm matrices; the metric margin is the same at every m.
    """
    _require_checkable(cert, graph)
    hbd = _hessian_block_diag(hessians, graph.n)
    return _check(cert, _Blocks(graph, tau), _quadratic_feedback(hbd, tau))


def closed_form_certificate(graph, tau, mu):
    """The certificate that needs no search.

    P22 = I/tau^2 and u = mu * min(1, 1/tau); u is computed as
    mu / max(1, tau), rounded once, so that at tau >= 1 it equals the
    bound's mu/tau bit for bit; FloatingPointError where it
    underflows to 0 (a tiny mu at a huge tau), since no u > 0 is left.
    With these choices X12 = 0 and the decrease inequality reduces to the
    positive semidefiniteness of L/tau + D^2 - A^2 (up to the rate), so
    the certificate verifies on every graph with D^2 - A^2 PSD at every
    step size, and on any connected graph for small enough steps. The
    decrease coefficient is capped at mu / tau, the rate actually
    guaranteed per step, so certified runs pass the trajectory audit.
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

    The scan builds the blocks once per call and screens, with the
    check's feedback block, at the level the public check uses: 2N x 2N
    for the (mu, L) family, and 2Nm x 2Nm with an (N, m, m) Hessian
    stack. The decrease matrix is affine in alpha, -X(alpha) = -X_G -
    alpha X_1, with X_G its value at P22 = 0 and X_1 = [[0, tau L],
    [tau L, 0]], and both terms are formed once. The metric margin does
    not depend on beta, and the decrease margin only falls as beta grows,
    so an alpha that fails at the smallest beta has no verifying beta and
    is skipped, as is an alpha whose decrease matrix has a symmetric part
    beyond the float range (alpha tau L near 1e308), which no check can
    verify. The decrease screens are Cholesky attempts
    (`_cholesky_rejects`): they reject only margins proven to fail by
    more than their rounding error (`_rounding_slack`), and decide
    nothing else. A candidate that passes them is returned only once the
    public check (`check_certificate` or `check_certificate_quadratic`)
    accepts it, so the result is the first candidate of the scan order
    that the public check accepts, and its verdict, margins included, is
    that check's.
    """
    if hessians is not None:
        hessians = np.asarray(hessians, dtype=float)
        hbd = _hessian_block_diag(hessians, graph.n)
        if mu is None:
            mu = float(np.linalg.eigvalsh(hessians)[:, 0].min())
    if mu is None:
        raise ValueError("mu is required without Hessians")
    _require_positive("mu", mu)
    blocks = _Blocks(graph, tau)
    alphas = [blocks.inverse_square] + list(np.logspace(-4, 4, 17))
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
    x1 = tau * blocks.lap
    if hessians is None:
        check = functools.partial(check_certificate, mu=mu)
        feedback = -mu / tau * np.eye(graph.n)
    else:
        check = functools.partial(check_certificate_quadratic,
                                  hessians=hessians)
        feedback = _quadratic_feedback(hbd, tau)
        x1 = _lifted(x1, hbd.shape[0] // graph.n)
    neg_x_gram = blocks.decrease(np.zeros((graph.n, graph.n)), feedback)
    zero = np.zeros_like(x1)
    x_one = np.block([[zero, x1], [x1, zero]])
    e11 = np.diag(np.repeat([1.0, 0.0], x1.shape[0]))
    with np.errstate(over="ignore"):  # an inf norm makes an inf slack
        norms = (float(np.linalg.norm(neg_x_gram)),
                 float(np.linalg.norm(x_one)))
    seen = set()
    for alpha in alphas:
        alpha_key = round(float(alpha), 15)
        if alpha_key in seen:
            continue
        seen.add(alpha_key)
        if blocks.metric_margin(alpha) < _EIG_TOL:
            continue
        neg_x = neg_x_gram - alpha * x_one
        if not np.isfinite(neg_x).all():  # no eigen-solve of X can verify
            continue
        slack = _rounding_slack(neg_x.shape[0], norms[0] + alpha * norms[1])
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


def _rounding_slack(dim, x_norm):
    """How far a screen margin may fail before the public check could pass.

    `x_norm` bounds the Frobenius norm of the terms X is formed from.
    Rounding in forming -X - u E11 (dim x dim) from the blocks and in the
    eigen-solve moves a computed eigenvalue by at most about delta = dim
    * eps * (x_norm + u); the screen builds its matrices at the level the
    public check uses, so delta bounds both (the mode-by-mode check of a
    regular graph works on 2 x 2 blocks and rounds less), and it covers
    forming -X as -X_G - alpha X_1 where the check forms X12 as tau L
    (P22 - I/tau^2). The exact margin only falls as u grows, so if the
    exact margin of the screen's matrix is below -1e-9 - 2 delta at some
    u, the public check reads below -1e-9 at that u and at every larger
    one. The slack is 2 delta with a factor of 4 to spare. Where the
    norms overflow (X_1 holds tau L, whose squares pass the float range
    above tau of about 1e154), the slack is inf and the screen rejects
    nothing, leaving the verdict to the public check.
    """
    eps = np.finfo(float).eps
    return lambda u: 8.0 * dim * eps * (x_norm + u)


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
