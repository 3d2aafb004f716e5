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

A certificate (P12, P22, U, u, epsilon) proves global asymptotic
stability of the consensus optimum when three matrix inequalities hold:
the metric P = [[G, P12], [P12', P22]] is positive definite, the Schur
block [[U, P12], [P12', I]] is PSD with u > 0, and the decrease
inequality

    P S + S' P + B  <=  -u [[I, 0], [0, 0]]

holds, where B bounds the gradient feedback term: Young's inequality with
the certified mu and Lipschitz constants for general strongly convex
costs, or the exact per-agent Hessians for quadratic costs. All
inequalities are verified by symmetric eigenvalue computations; no
semidefinite programming is involved. A certificate holds N x N blocks
X, standing for X (x) I_m at every per-agent dimension m. G(tau), S and
the (mu, L) bound are X (x) I_m too, so the (mu, L) check decides on the
2N x 2N factors, built once per check and once per search, and its
verdict is the same for every m. The quadratic check, whose per-agent
Hessians break that structure, lifts the blocks once and runs at 2Nm.
On a regular graph, where every one of these matrices is a polynomial in
the adjacency, a certificate whose blocks are multiples of I is decided
mode by mode, on N 2 x 2 blocks. A closed-form certificate covers every
graph with D^2 - A^2 PSD (cycles, complete graphs) at every step size,
and small enough step sizes on any connected graph.
"""

import functools
import math

import numpy as np

from .costs import NonQuadraticCostError
from .numerics import DimensionMismatchError, require_symmetric

# the tolerance every margin of a check is held to
_EIG_TOL = 1e-9


class InvalidCertificateError(ValueError):
    """Certificate violates a structural requirement (e.g. u <= 0)."""


class InvalidEpsilonError(ValueError):
    """epsilon = 0 requires U = 0 (and P12 = 0) in the bound block."""


def _lifted(block_n, m):
    return np.kron(block_n, np.eye(m))


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


def _step_modes(graph, tau):
    """G(tau) and S of a regular graph, one 2 x 2 block per mode.

    On a d-regular graph L = d I - A and Q = (d I + A)/2, so L, Q, G(tau)
    and S are polynomials in the adjacency A and share its eigenvectors.
    For each eigenvalue a_j of A, with q = (d + a_j)/2 and l = d - a_j,
    returns G_j = 1/tau^2 + q/tau + q^2 and the entries (s11, s12, s21)
    of S_j = [[s11, s12], [s21, 0]]. The eigenvalues of A lie in [-d, d],
    and the computed ones are clipped to it, so q >= 0 and G_j >= 1/tau^2
    as in exact arithmetic. The consensus eigenvalue is set to d exactly:
    it is A's largest and simple on a connected graph, so its mode has
    l = 0 and S_j = 0 without rounding. Raises LinAlgError, as the dense
    solve does, when some G_j rounds to 0.
    """
    inverse_square = _inverse_square(graph, tau)
    d = graph.degrees[0]
    adj = np.clip(np.linalg.eigvalsh(graph.adjacency()), -d, d)
    adj[-1] = d
    q, lap = (d + adj) / 2.0, d - adj
    gram = inverse_square + q / tau + q * q
    if not (gram > 0).all():
        raise np.linalg.LinAlgError("G(tau) is numerically singular")
    return gram, (-(lap / tau + 2.0 * q * lap) / gram, -lap / gram / tau,
                  tau * lap)


def _gain_terms(gram_max, tau, epsilon, mu, lipschitz, u_cap):
    """(top, bottom) of the (mu, L) bound blockdiag(top I, bottom).

    Young's inequality: top = gamma eps/2 - mu/tau and bottom =
    gamma U / (2 eps), with gamma = (lipschitz / tau) lambda_max(G);
    epsilon = 0 needs U = 0 (see the oracle `gradient_bound_block`). U is
    a matrix or, mode by mode, the scalar of U = u I.
    """
    if epsilon == 0 and np.any(u_cap):
        raise InvalidEpsilonError("epsilon = 0 requires U = 0")
    gamma = (lipschitz / tau) * gram_max
    bottom = gamma * u_cap / (2.0 * epsilon) if epsilon != 0 else 0.0
    return gamma * epsilon / 2.0 - mu / tau, bottom


def _gain_block(gram, tau, epsilon, mu, lipschitz, u_cap):
    """The (mu, L) bound of `_gain_terms` as a 2N x 2N matrix."""
    top, bottom = _gain_terms(float(np.linalg.eigvalsh(gram)[-1]), tau,
                              epsilon, mu, lipschitz, u_cap)
    size = gram.shape[0]
    out = np.zeros((2 * size, 2 * size))
    out[:size, :size] = top * np.eye(size)
    out[size:, size:] = bottom
    return out


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


def _hessian_block(hbd, p12, gram, tau):
    """Symmetric part of [[-H / tau, 0], [-P12' G H / tau, 0]], H = hbd."""
    nm = hbd.shape[0]
    out = np.zeros((2 * nm, 2 * nm))
    out[:nm, :nm] = -hbd / tau
    out[nm:, :nm] = -(p12.T @ gram @ hbd) / tau
    return (out + out.T) / 2.0


class LmiCertificate:
    """Decision variables of a stability certificate.

    P12, P22 and U are N x N matrices X (P22 and U symmetric), each
    standing for X (x) I_m at every per-agent dimension m; u is the
    claimed per-step decrease coefficient, epsilon the Young-inequality
    split (0 allowed only with U = P12 = 0).
    """

    def __init__(self, p12, p22, u_cap, u, epsilon):
        self.p12 = np.asarray(p12, dtype=float)
        self.p22 = require_symmetric(p22, name="P22")
        self.u_cap = require_symmetric(u_cap, name="U")
        self.u = float(u)
        self.epsilon = float(epsilon)
        if self.epsilon < 0:
            raise InvalidCertificateError("epsilon must be >= 0")
        if self.p12.shape != self.p22.shape or self.p12.shape != self.u_cap.shape:
            raise ValueError("P12, P22 and U must share their (N, N) shape")

    def __repr__(self):
        return (f"LmiCertificate(size={self.p12.shape[0]}, u={self.u}, "
                f"epsilon={self.epsilon})")


class CertificateVerdict:
    """Outcome of a certificate check.

    margins holds the three minimal-eigenvalue margins, in order: metric
    positivity (must clear +1e-9), Schur semidefiniteness (>= -1e-9), and
    decrease slack (>= -1e-9).
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


def _metric(gram, p12, p22):
    """Lyapunov metric P = [[G(tau), P12], [P12', P22]]."""
    n = gram.shape[0]
    p = np.empty((2 * n, 2 * n))
    p[:n, :n], p[:n, n:], p[n:, :n], p[n:, n:] = gram, p12, p12.T, p22
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


def _decrease_margin(x, u):
    nm = x.shape[0] // 2
    target = np.zeros_like(x)
    target[:nm, :nm] = u * np.eye(nm)
    return _min_eig(-(x + target))


def _require_checkable(cert, graph):
    size, n = cert.p12.shape[0], graph.n
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


def _check_modes(c12, c22, cu, cert, graph, tau, mu, lipschitz):
    """`check_certificate` on a regular graph with P12 = c12 I, P22 = c22 I
    and U = cu I: every matrix of the check splits into one 2 x 2 block
    per eigenvalue of A (see `_step_modes`), each repeated m times, and
    the Schur block is the same [[cu, c12], [c12, 1]] in every mode.
    """
    gram, (s11, s12, s21) = _step_modes(graph, tau)
    top, bottom = _gain_terms(gram.max(), tau, cert.epsilon, mu, lipschitz,
                              cu)
    metric_margin = _min_eig2(gram, c12, c22).min()
    schur_margin = _min_eig2(cu, c12, 1.0)
    # X = P S + S' P + B mode by mode, with P_j = [[G_j, c12], [c12, c22]].
    # Its off-diagonal G_j s12 + c12 s11 + c22 s21 is written with
    # G_j s12 = -l/tau = -s21/tau^2, so that it vanishes without rounding
    # for the closed form's c22 = 1/tau^2 and c12 = 0.
    ps11 = gram * s11 + c12 * s21
    x11 = (ps11 + ps11 + top) + cert.u
    x12 = s21 * (c22 - _inverse_square(graph, tau)) + c12 * s11
    x22 = 2.0 * c12 * s12 + bottom
    decrease_margin = _min_eig2(-x11, -x12, -x22).min()
    feasible = (metric_margin >= _EIG_TOL and decrease_margin >= -_EIG_TOL
                and schur_margin >= -_EIG_TOL)
    return CertificateVerdict(feasible, (metric_margin, schur_margin,
                                         decrease_margin))


def _check(blocks, u, gram, smap, bound, schur_required):
    """Verdict on `blocks` (P12, P22, U) and u, from G(tau), S and the
    feedback block `bound`, all at one level (N, or Nm when lifted)."""
    p12, p22, u_cap = blocks
    p = _metric(gram, p12, p22)
    metric_margin = _min_eig(p)
    schur = np.block([[u_cap, p12], [p12.T, np.eye(p12.shape[0])]])
    schur_margin = _min_eig(schur)
    decrease_margin = _decrease_margin(_decrease_lhs(p, smap, bound), u)
    feasible = (metric_margin >= _EIG_TOL and decrease_margin >= -_EIG_TOL
                and (schur_margin >= -_EIG_TOL or not schur_required))
    return CertificateVerdict(feasible, (metric_margin, schur_margin,
                                         decrease_margin))


def check_certificate(cert, graph, tau, mu, lipschitz):
    """Verify a certificate for strongly convex costs with constants (mu, L).

    Returns a CertificateVerdict; raises DimensionMismatchError when the
    blocks are not N x N and InvalidCertificateError when the claimed
    decrease coefficient u is not positive. Every matrix of this check is
    X (x) I_m, so it runs on the 2N x 2N factors: the 2Nm x 2Nm matrices
    have the same eigenvalues, each repeated m times, and the verdict is
    the same for every m. On a regular graph with P12, P22 and U each a
    multiple of I (the closed form and every search result), it runs
    mode by mode instead: one N x N eigen-solve of A and N 2 x 2 blocks,
    in which the conserved consensus mode reads exactly 0.
    """
    _require_checkable(cert, graph)
    blocks = (cert.p12, cert.p22, cert.u_cap)
    degrees = graph.degrees
    if (degrees == degrees[0]).all():
        scalars = [_scalar(block) for block in blocks]
        if None not in scalars:
            return _check_modes(*scalars, cert, graph, tau, mu, lipschitz)
    gram, smap = _step_matrices(graph, tau)
    bound = _gain_block(gram, tau, cert.epsilon, mu, lipschitz, cert.u_cap)
    return _check(blocks, cert.u, gram, smap, bound, schur_required=True)


def check_certificate_quadratic(cert, graph, tau, hessians):
    """Verify a certificate against the exact quadratic-cost feedback term.

    Tests metric positivity, u > 0 and the decrease inequality with the
    per-agent Hessians, an (N, m, m) stack, in place of the (mu, L)
    bound; the Schur condition is not required in the quadratic variant
    (its margin is still reported for diagnostics). Per-agent Hessians
    break the Kronecker structure, so this check lifts the N x N blocks
    by (x) I_m once and runs on 2Nm x 2Nm matrices.
    """
    _require_checkable(cert, graph)
    gram_n, smap_n = _step_matrices(graph, tau)
    hbd = _hessian_block_diag(hessians, graph.n)
    m = hbd.shape[0] // graph.n
    blocks = tuple(_lifted(x, m) for x in (cert.p12, cert.p22, cert.u_cap))
    gram = _lifted(gram_n, m)
    bound = _hessian_block(hbd, blocks[0], gram, tau)
    return _check(blocks, cert.u, gram, _lifted(smap_n, m), bound,
                  schur_required=False)


def closed_form_certificate(graph, tau, mu):
    """The certificate that needs no search.

    P12 = 0, U = 0, P22 = I/tau^2, u = mu * min(1, 1/tau), epsilon = 0;
    u is computed as mu / max(1, tau), rounded once, so that at tau >= 1
    it equals the bound's mu/tau bit for bit; FloatingPointError where it
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
    zero = np.zeros((graph.n, graph.n))
    return LmiCertificate(p12=zero, p22=np.eye(graph.n) * inverse_square,
                          u_cap=zero, u=u, epsilon=0.0)


def search_certificate(graph, tau, mu=None, lipschitz=None, hessians=None):
    """Scan a one-parameter certificate family; no semidefinite programming.

    The family is P12 = 0, U = 0, P22 = alpha I, u = beta, epsilon = 0,
    scanned over a log grid of alpha (the closed-form alpha = 1/tau^2
    first) and descending beta below the certified rate. Returns the
    first certificate that verifies - against the quadratic check when
    `hessians` is given, else against the (mu, lipschitz) check - or
    None when the whole family fails. None is NOT evidence of
    instability; the family is only sufficient.

    The scan builds G(tau) and S once per call and screens, with the
    check's metric and feedback block, at the level the public check uses:
    2N x 2N for the (mu, lipschitz) family, and 2Nm x 2Nm with an
    (N, m, m) Hessian stack. Within the family the metric and Schur
    margins do not depend on beta, and the decrease margin only falls as
    beta grows, so an alpha that fails at the smallest beta has no
    verifying beta and is skipped, as is an alpha whose decrease matrix X
    has a symmetric part beyond the float range (alpha tau L near 1e308),
    which no check can verify. These screens reject only margins that fail by
    more than their rounding error, and a candidate that passes them is
    returned only once the public check (`check_certificate` or
    `check_certificate_quadratic`) accepts it, so the result is the first
    candidate of the scan order that the public check accepts.
    """
    if hessians is None:
        if lipschitz is None:
            raise ValueError("lipschitz is required without Hessians")
        _require_positive("lipschitz", lipschitz)
        check = functools.partial(check_certificate, mu=mu,
                                  lipschitz=lipschitz)
    else:
        hessians = np.asarray(hessians, dtype=float)
        if mu is None:
            mu = min(float(np.linalg.eigvalsh(h)[0]) for h in hessians)
        check = functools.partial(check_certificate_quadratic,
                                  hessians=hessians)
    if mu is None:
        raise ValueError("mu is required without Hessians")
    _require_positive("mu", mu)
    gram, smap = _step_matrices(graph, tau)
    gram_min = float(np.linalg.eigvalsh(gram)[0])
    alphas = [_inverse_square(graph, tau)] + list(np.logspace(-4, 4, 17))
    rate = mu / tau
    betas = [mu * min(1.0, 1.0 / tau)] + list(rate * np.logspace(0, -8, 17))
    smallest = min((b for b in betas if b > 0), default=None)
    zero_n = np.zeros((graph.n, graph.n))
    if hessians is None:
        bound = _gain_block(gram, tau, 0.0, mu, lipschitz, zero_n)
    else:
        hbd = _hessian_block_diag(hessians, graph.n)
        m = hbd.shape[0] // graph.n
        gram, smap = _lifted(gram, m), _lifted(smap, m)
        bound = _hessian_block(hbd, np.zeros_like(hbd), gram, tau)
    zero, size = np.zeros_like(gram), gram.shape[0]
    beta_keys = [round(float(beta), 18) for beta in betas]
    seen = set()
    for alpha in alphas:
        candidates = []
        alpha_key = round(float(alpha), 15)
        for beta, beta_key in zip(betas, beta_keys):
            key = (alpha_key, beta_key)
            if key in seen or beta <= 0:
                continue
            seen.add(key)
            candidates.append(beta)
        # metric margin: lambda_min(blockdiag(G, alpha I)); the Schur
        # block blockdiag(0, I) has margin 0 and always passes
        if not candidates or min(gram_min, alpha) < _EIG_TOL:
            continue
        p = _metric(gram, zero, alpha * np.eye(size))
        x = _decrease_lhs(p, smap, bound)
        if not np.isfinite(x + x.T).all():  # no eigen-solve of X can verify
            continue
        slack = _rounding_slack(p, smap, bound)
        if _decrease_margin(x, smallest) < -_EIG_TOL - slack(smallest):
            continue
        for beta in candidates:
            if _decrease_margin(x, beta) < -_EIG_TOL - slack(beta):
                continue
            cert = LmiCertificate(p12=zero_n, p22=alpha * np.eye(graph.n),
                                  u_cap=zero_n, u=beta, epsilon=0.0)
            if check(cert, graph, tau).feasible:
                return cert
    return None


def _rounding_slack(p, smap, bound):
    """How far a screen margin may fail before the public check could pass.

    Rounding in X = P S + S' P + B and in the eigen-solve moves a computed
    eigenvalue of X + u E11 by at most about delta = dim * eps * (2 |P| |S|
    + |B| + u), in Frobenius norms; the screen builds its matrices at the
    level the public check uses, so delta bounds both (the mode-by-mode
    check of a regular graph works on 2 x 2 blocks and rounds less). The
    exact margin
    only falls as u grows, so if the screen reads below -1e-9 - 2 delta at
    some u, the public check reads below -1e-9 at that u and at every
    larger one. The slack is 2 delta with a factor of 4 to spare. Where
    the norms overflow (S holds tau L, whose squares pass the float range
    above tau of about 1e154), the slack is inf and the screen rejects
    nothing, leaving the verdict to the public check.
    """
    dim = p.shape[0]
    scale = 2.0 * np.linalg.norm(p) * np.linalg.norm(smap) + np.linalg.norm(bound)
    eps = np.finfo(float).eps
    return lambda u: 8.0 * dim * eps * (scale + u)
