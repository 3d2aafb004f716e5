"""
Eigenvalue-based stability certificates for the mixed implicit scheme.

In the coordinates r = p - tau Q q, Q = (D + A)/2 (x) I_m, a mixed
implicit step is a linear midpoint map S, which carries the inverse of
G(tau) = I/tau^2 + Q/tau + Q^2, plus a gradient feedback term in the q
row. A certificate (alpha, u) proves global asymptotic stability of the
consensus optimum when the metric P = blockdiag(G, alpha I) is positive
definite, u > 0, and the decrease inequality

    X = P S + S' P + B  <=  -u [[I, 0], [0, 0]]

holds, where B = blockdiag(F, 0) bounds the feedback term: F is the
symmetric part of -H/tau, with H the block diagonal of the per-agent
Hessians, an (N, m, m) stack. One check serves both cost families:
strongly convex costs with constant mu are the stack of N 1 x 1
Hessians mu, whose F = -mu/tau I is the (mu, L) bound. These are the
members with P12 = 0, P22 = alpha I, U = 0 and epsilon = 0 of the
Young-inequality family (P12, P22, U, u, epsilon): their Schur block is
blockdiag(0, I), whose margin is a structural 0, and no verdict depends
on the Lipschitz constant; tests/oracles.py writes out the whole
family's check, with a general P22.

G^-1 cancels from X, so no check or search solves with G:

    X11 = -2 K + F,  K = L/tau + D^2 - A^2,  X12 = tau (alpha - 1/tau^2) L,

and X22 = 0, with A^2 formed from the 0/1 adjacency, so that D^2 - A^2 is
exact. G = (Q + I/(2 tau))^2 + 3/(4 tau^2) I, so lambda_min(G) = 1/tau^2
+ q/tau + q^2 >= 1/tau^2 at q = lambda_min(Q) >= 0, and the metric
margin is min(alpha, lambda_min(G)). For the closed form's alpha =
1/tau^2, X12 is exactly 0 and the decrease margin is
min(lambda_min(2 K - F - u I), 0). Every margin is a symmetric
eigenvalue; the search screens candidates by Cholesky attempts, which
only reject. The check lifts K and X12 by (x) I_m and decides at 2Nm, so
the (mu, L) family runs at m = 1, and its verdict holds at every m. On a
regular graph whose Hessians are all one c I, it decides mode by mode,
on N 2 x 2 blocks. The closed form verifies on every graph with D^2 -
A^2 PSD (cycles, complete graphs) at every step size, and for small
enough steps on any connected graph.
"""
import functools
import math
from fractions import Fraction

import numpy as np

from .costs import NonQuadraticCostError

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

    def metric_margin(self, alpha):
        """min(alpha, lambda_min(G)); lambda_min(G) is at least 1/tau^2, so
        it is read only above that."""
        if alpha <= self.inverse_square:
            return alpha
        return min(alpha, self.gram_min)

    def decrease(self, alpha, feedback):
        """-X = [[2 K - F, -X12], [-X12', 0]] for P = blockdiag(G, alpha I),
        at the level of F: lifted by (x) I_m when F is Nm x Nm. X12 = tau
        (alpha - 1/tau^2) L is exactly 0 at alpha = 1/tau^2."""
        x11 = 2.0 * self.k
        x12 = self.tau * (self.lap * (alpha - self.inverse_square))
        m = feedback.shape[0] // x11.shape[0]
        if m > 1:
            x11, x12 = _lifted(x11, m), _lifted(x12, m)
        return np.block([[x11 - feedback, -x12],
                         [-x12.T, np.zeros_like(x11)]])


def _hessian_stack(hessians, n):
    """The per-agent Hessians as a float (n, m, m) stack, m >= 1."""
    hessians = np.asarray(hessians, dtype=float)
    m = hessians.shape[-1] if hessians.ndim == 3 else 0
    if m < 1 or hessians.shape != (n, m, m):
        raise NonQuadraticCostError(
            f"expected per-agent Hessian stack of shape ({n}, m, m) with "
            f"m >= 1, got {hessians.shape}")
    return hessians


def _hessian_block_diag(hessians):
    """Block diagonal of an (n, m, m) Hessian stack."""
    n, m, _ = hessians.shape
    hbd = np.zeros((n, m, n, m))
    agents = np.arange(n)
    hbd[agents, :, agents, :] = hessians
    return hbd.reshape(n * m, n * m)


def _feedback(hessians, tau):
    """F, the symmetric part of -H/tau, with H the block diagonal of an
    (n, m, m) Hessian stack."""
    upper = -_hessian_block_diag(hessians) / tau
    return (upper + upper.T) / 2.0


class LmiCertificate:
    """Decision variables of a stability certificate.

    alpha is the scalar of P22 = alpha I, at every per-agent dimension m;
    u is the claimed per-step decrease coefficient.
    """

    def __init__(self, alpha, u):
        self.alpha = float(alpha)
        self.u = float(u)

    def __repr__(self):
        return f"LmiCertificate(alpha={self.alpha}, u={self.u})"


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


def _verdict(metric_margin, decrease_margin):
    feasible = metric_margin >= _EIG_TOL and decrease_margin >= -_EIG_TOL
    return CertificateVerdict(feasible, (metric_margin, 0.0, decrease_margin))


def _check_modes(cert, graph, tau, c):
    """`check_certificate` on a d-regular graph whose Hessians are all c I.

    There L = d I - A, Q = (d I + A)/2 and K share the adjacency's
    eigenvectors, and F = -c/tau I, so every block of the check splits
    into one 2 x 2 block per eigenvalue a_j of A: with l = d - a_j and
    q = (d + a_j)/2, G_j = 1/tau^2 + q/tau + q^2, k_j = l/tau + d^2 -
    a_j^2 and X12_j = tau l (alpha - 1/tau^2). The computed a_j are
    clipped to [-d, d], so G_j >= 1/tau^2 as in exact arithmetic, and the
    consensus one, A's largest and simple, is set to d, so its mode has
    l = 0 and k_j = 0 without rounding.
    """
    inverse_square = _inverse_square(graph, tau)
    d = graph.degrees[0]
    adj = np.clip(np.linalg.eigvalsh(graph.adjacency()), -d, d)
    adj[-1] = d
    q, lap = (d + adj) / 2.0, d - adj
    gram = inverse_square + q / tau + q * q
    # d^2 - a_j^2 as (d + a_j) l, without cancellation near a_j = d
    k = lap / tau + (d + adj) * lap
    x12 = tau * lap * (cert.alpha - inverse_square)
    # adding 0.0 turns -0 into +0
    return _verdict(min(float(gram.min()), cert.alpha) + 0.0,
                    _min_eig2((2.0 * k + c / tau) - cert.u, -x12, 0.0).min())


def check_certificate(cert, graph, tau, hessians):
    """Verify a certificate against the feedback of per-agent Hessians.

    `hessians` is an (N, m, m) stack; strongly convex costs with constant
    mu are checked as the stack np.full((N, 1, 1), mu), whose feedback is
    the (mu, L) bound, and no Lipschitz constant enters it (see the module
    docstring). Returns a CertificateVerdict; raises NonQuadraticCostError
    for a stack of another shape and InvalidCertificateError when the
    claimed decrease coefficient u is not positive. It decides on the
    2Nm x 2Nm matrices, with K and X12 lifted by (x) I_m; on a regular
    graph whose Hessians are all one c I (the (mu, L) family on cycles and
    complete graphs), it runs mode by mode instead: one N x N eigen-solve
    of A and N 2 x 2 blocks, in which the conserved consensus mode reads
    exactly 0.
    """
    hessians = _hessian_stack(hessians, graph.n)
    if cert.u <= 0:
        raise InvalidCertificateError("certificate requires u > 0")
    degrees = graph.degrees
    c = hessians[0, 0, 0]
    if ((degrees == degrees[0]).all()
            and (hessians == c * np.eye(hessians.shape[-1])).all()):
        return _check_modes(cert, graph, tau, float(c))
    blocks = _Blocks(graph, tau)
    feedback = _feedback(hessians, tau)
    u_e11 = np.diag(np.repeat([cert.u, 0.0], feedback.shape[0]))
    return _verdict(blocks.metric_margin(cert.alpha),
                    _min_eig(blocks.decrease(cert.alpha, feedback) - u_e11))


def closed_form_certificate(graph, tau, mu):
    """The certificate that needs no search.

    alpha = 1/tau^2 and u the largest float at or below mu * min(1,
    1/tau): mu / max(1, tau) rounded once, and one float lower where that
    rounding went up, which exact rationals decide. FloatingPointError
    where u underflows to 0 (a tiny mu at a huge tau), since no u > 0 is
    left. With these choices X12 = 0 and the decrease inequality reduces
    to the positive semidefiniteness of L/tau + D^2 - A^2 (up to the
    rate), so the certificate verifies on every graph with D^2 - A^2 PSD
    at every step size, and on any connected graph for small enough
    steps. The decrease coefficient is capped at mu / tau, the rate
    actually guaranteed per step, so certified runs pass the trajectory
    audit.
    """
    inverse_square = _inverse_square(graph, tau)
    _require_positive("mu", mu)
    scale = max(1.0, tau)
    u = mu / scale
    if Fraction(u) * Fraction(scale) > Fraction(mu):
        u = math.nextafter(u, 0.0)
    if u == 0.0:
        raise FloatingPointError("u = mu / tau underflows to 0")
    return LmiCertificate(inverse_square, u)


def search_certificate(graph, tau, hessians):
    """Scan a one-parameter certificate family; no semidefinite programming.

    The family is P22 = alpha I, u = beta, scanned over a log grid of
    alpha (the closed-form alpha = 1/tau^2 first) and descending beta
    below the certified rate mu/tau, with mu the smallest eigenvalue of
    the (N, m, m) Hessian stack. Returns the first certificate that
    `check_certificate` accepts, with that verdict, as (cert, verdict),
    or None when the whole family fails. None is NOT evidence of
    instability; the family is only sufficient.

    The scan builds the blocks once per call and screens, with the
    check's feedback block, at 2Nm x 2Nm, the level of the public check.
    The decrease matrix is affine in alpha, -X(alpha) = -X_G - alpha X_1,
    with X_G its value at alpha = 0 and X_1 = [[0, tau L], [tau L, 0]],
    and both terms are formed once. The metric margin does not depend on
    beta, and the decrease margin only falls as beta grows, so an alpha
    that fails at the smallest beta has no verifying beta and is skipped,
    as is an alpha whose decrease matrix has a symmetric part beyond the
    float range (alpha tau L near 1e308), which no check can verify. The
    decrease screens are Cholesky attempts (`_cholesky_rejects`): they
    reject only margins proven to fail by more than their rounding error
    (`_rounding_slack`), and decide nothing else. A candidate that passes
    them is returned only once `check_certificate` accepts it, so the
    result is the first candidate of the scan order that the public check
    accepts, and its verdict, margins included, is that check's.
    """
    hessians = _hessian_stack(hessians, graph.n)
    mu = float(np.linalg.eigvalsh(hessians)[:, 0].min())
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
    feedback = _feedback(hessians, tau)
    x1 = tau * blocks.lap
    if hessians.shape[-1] > 1:
        x1 = _lifted(x1, hessians.shape[-1])
    neg_x_gram = blocks.decrease(0.0, feedback)
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
            cert = LmiCertificate(alpha, beta)
            verdict = check_certificate(cert, graph, tau, hessians)
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
    forming -X as -X_G - alpha X_1 where the check forms X12 as tau
    (alpha - 1/tau^2) L. The exact margin only falls as u grows, so if the
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
