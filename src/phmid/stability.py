"""
Eigenvalue-based stability certificates for the mixed implicit scheme.

One mixed implicit step is linear in the state around the gradient term.
Eliminating the half-step, the update obeys

    [dq; dr] = S [q_bar; r_bar] - [G^-1 / tau; 0] grad f(q_bar)

in the coordinates r = p - tau Q q, where Q = (D + A)/2 (x) I_m,
G = I/tau^2 + Q/tau + Q^2 is positive definite, q_bar is the step
midpoint, dq the step difference, and S the midpoint map returned by
`midpoint_map_qr`. In the raw (q, p) coordinates the map is exactly
similar to S, through the lower triangular change of basis r = p - tau Q q.

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
semidefinite programming is involved. Each check and each search builds
G(tau) and S once, at N level. They and the (mu, L) bound are all
X (x) I_m for an N x N X, so when P12, P22 and U are too,
`check_certificate` decides on the 2N x 2N factors; the quadratic check,
whose Hessians break that structure, runs at 2Nm. On a regular graph,
where every one of these matrices is a polynomial in the adjacency, a
certificate whose blocks are multiples of I is decided mode by mode, on
N 2 x 2 blocks. A closed-form
certificate covers every graph with D^2 - A^2 PSD (cycles, complete
graphs) at every step size, and small enough step sizes on any connected
graph.
"""

import functools

import numpy as np

from .costs import NonQuadraticCostError
from .numerics import DimensionMismatchError, require_symmetric

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


def _step_matrices(graph, tau):
    """N-level G(tau) and S: the one build of every check and search."""
    _require_positive("tau", tau)
    lap = graph.laplacian()
    qmat = graph.q_matrix()
    gram = np.eye(graph.n) / tau ** 2 + qmat / tau + qmat @ qmat
    gram = (gram + gram.T) / 2.0
    a11 = -np.linalg.solve(gram, lap / tau + qmat @ lap + lap @ qmat)
    a12 = -np.linalg.solve(gram, lap) / tau
    smap = np.block([[a11, a12], [tau * lap, np.zeros_like(lap)]])
    return gram, smap


def step_gram(graph, m, tau):
    """G(tau) = I/tau^2 + Q/tau + Q^2, lifted by (x) I_m.

    Positive definite for every tau > 0 (its smallest eigenvalue is at
    least 1/tau^2), and a polynomial in Q, with which it commutes.
    """
    return _lifted(_step_matrices(graph, tau)[0], m)


def midpoint_map_qr(graph, m, tau):
    """Linear midpoint map of the step in (q, r = p - tau Q q) coordinates.

    [[ -G^-1 (L/tau + Q L + L Q),  -G^-1 L / tau ],
     [  tau L,                      0            ]]

    The gradient feedback enters only the q row, which is what makes the
    (q, r) coordinates the right ones for the decrease inequality.
    """
    return _lifted(_step_matrices(graph, tau)[1], m)


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
    _require_positive("tau", tau)
    d = graph.degrees[0]
    adj = np.clip(np.linalg.eigvalsh(graph.adjacency()), -d, d)
    adj[-1] = d
    q, lap = (d + adj) / 2.0, d - adj
    gram = 1.0 / tau ** 2 + q / tau + q * q
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


def _gain_block(gram_n, k, tau, epsilon, mu, lipschitz, u_cap):
    """The (mu, L) bound of `_gain_terms` as a matrix at level k, with
    lambda_max(G) read off the N-level G."""
    top, bottom = _gain_terms(float(np.linalg.eigvalsh(gram_n)[-1]), tau,
                              epsilon, mu, lipschitz, u_cap)
    size = gram_n.shape[0] * k
    out = np.zeros((2 * size, 2 * size))
    out[:size, :size] = top * np.eye(size)
    out[size:, size:] = bottom
    return out


def _hessian_block_diag(hessians, n, m):
    """Block diagonal of a per-agent (n, m, m) Hessian stack."""
    hessians = np.asarray(hessians, dtype=float)
    if hessians.shape != (n, m, m):
        raise NonQuadraticCostError(
            f"expected per-agent Hessian stack of shape {(n, m, m)}, "
            f"got {hessians.shape}")
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

    P12, P22 and U are Nm x Nm matrices (P22 and U symmetric), u the
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
            raise ValueError("P12, P22 and U must share their (Nm, Nm) shape")

    def __repr__(self):
        return (f"LmiCertificate(size={self.p12.shape[0]}, u={self.u}, "
                f"epsilon={self.epsilon})")


class CertificateVerdict:
    """Outcome of a certificate check.

    margins holds the three minimal-eigenvalue margins, in order: metric
    positivity (must clear +tol), Schur semidefiniteness (>= -tol), and
    decrease slack (>= -tol).
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


def _require_checkable(cert, graph, m):
    size, nm = cert.p12.shape[0], graph.n * m
    if size != nm:
        raise DimensionMismatchError(
            f"certificate blocks are {size}x{size}, but {graph.n} agents "
            f"with m = {m} need {nm}x{nm}")
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


def _check_modes(c12, c22, cu, cert, graph, tau, mu, lipschitz, tol):
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
    x12 = s21 * (c22 - 1.0 / tau ** 2) + c12 * s11
    x22 = 2.0 * c12 * s12 + bottom
    decrease_margin = _min_eig2(-x11, -x12, -x22).min()
    feasible = (metric_margin >= tol and decrease_margin >= -tol
                and schur_margin >= -tol)
    return CertificateVerdict(feasible, (metric_margin, schur_margin,
                                         decrease_margin))


def _kronecker_factor(cert, m):
    """(k, blocks) with P12, P22 and U of `blocks` each Nk x Nk.

    k = 1 with the N x N factors when the three blocks are each exactly
    X (x) I_m (every certificate that `closed_form_certificate` and
    `search_certificate` return), else k = m with the certificate itself.
    """
    if m == 1:
        return 1, cert
    blocks = (cert.p12, cert.p22, cert.u_cap)
    factors = [block[::m, ::m] for block in blocks]
    if all(np.array_equal(block, _lifted(x, m))
           for block, x in zip(blocks, factors)):
        return 1, LmiCertificate(*factors, cert.u, cert.epsilon)
    return m, cert


def _check(cert, graph, k, tau, bound, tol, schur_required):
    """Verdict on a certificate whose blocks are Nk x Nk.

    `bound(gram_n, gram)` is the feedback block from the N-level and the
    lifted G(tau).
    """
    gram_n, smap_n = _step_matrices(graph, tau)
    gram = _lifted(gram_n, k)
    p = _metric(gram, cert.p12, cert.p22)
    metric_margin = _min_eig(p)
    schur = np.block([[cert.u_cap, cert.p12],
                      [cert.p12.T, np.eye(graph.n * k)]])
    schur_margin = _min_eig(schur)
    x = _decrease_lhs(p, _lifted(smap_n, k), bound(gram_n, gram))
    decrease_margin = _decrease_margin(x, cert.u)
    feasible = (metric_margin >= tol and decrease_margin >= -tol
                and (schur_margin >= -tol or not schur_required))
    return CertificateVerdict(feasible, (metric_margin, schur_margin,
                                         decrease_margin))


def check_certificate(cert, graph, m, tau, mu, lipschitz, tol=_EIG_TOL):
    """Verify a certificate for strongly convex costs with constants (mu, L).

    Returns a CertificateVerdict; raises DimensionMismatchError when the
    blocks are not Nm x Nm and InvalidCertificateError when the claimed
    decrease coefficient u is not positive. Every matrix of this check is
    X (x) I_m when P12, P22 and U are, and the check then runs on the
    2N x 2N factors instead of the 2Nm x 2Nm matrices: their eigenvalues
    are the same, each repeated m times, so the margins are the lifted
    ones up to rounding. On a regular graph with P12, P22 and U each a
    multiple of I (the closed form and every search result), it runs
    mode by mode instead: one N x N eigen-solve of A and N 2 x 2 blocks,
    in which the conserved consensus mode reads exactly 0.
    """
    _require_checkable(cert, graph, m)
    degrees = graph.degrees
    if (degrees == degrees[0]).all():
        scalars = [_scalar(block) for block in (cert.p12, cert.p22, cert.u_cap)]
        if None not in scalars:
            return _check_modes(*scalars, cert, graph, tau, mu, lipschitz, tol)
    k, blocks = _kronecker_factor(cert, m)
    return _check(blocks, graph, k, tau, lambda gram_n, gram: _gain_block(
        gram_n, k, tau, blocks.epsilon, mu, lipschitz, blocks.u_cap),
        tol, schur_required=True)


def check_certificate_quadratic(cert, graph, m, tau, hessians, tol=_EIG_TOL):
    """Verify a certificate against the exact quadratic-cost feedback term.

    Tests metric positivity, u > 0 and the decrease inequality with the
    per-agent Hessians in place of the (mu, L) bound; the Schur condition
    is not required in the quadratic variant (its margin is still
    reported for diagnostics). Per-agent Hessians break the Kronecker
    structure, so this check always runs on 2Nm x 2Nm matrices.
    """
    _require_checkable(cert, graph, m)
    return _check(cert, graph, m, tau, lambda gram_n, gram: _hessian_block(
        _hessian_block_diag(hessians, graph.n, m), cert.p12, gram, tau),
        tol, schur_required=False)


def closed_form_certificate(graph, m, tau, mu):
    """The certificate that needs no search.

    P12 = 0, U = 0, P22 = I/tau^2, u = mu * min(1, 1/tau), epsilon = 0;
    u is computed as mu / max(1, tau), rounded once, so that at tau >= 1
    it equals the bound's mu/tau bit for bit.
    With these choices the decrease inequality reduces to the positive
    semidefiniteness of L/tau + Q L + L Q (note Q L + L Q equals
    (D^2 - A^2) (x) I_m exactly), so the certificate verifies on every
    graph with D^2 - A^2 PSD at every step size, and on any connected
    graph for small enough steps. The decrease coefficient is capped at
    mu / tau, the rate actually guaranteed per step, so certified runs
    pass the trajectory audit.
    """
    _require_positive("tau", tau)
    _require_positive("mu", mu)
    nm = graph.n * m
    zero = np.zeros((nm, nm))
    return LmiCertificate(p12=zero, p22=np.eye(nm) / tau ** 2, u_cap=zero,
                          u=mu / max(1.0, tau), epsilon=0.0)


def search_certificate(graph, m, tau, mu=None, lipschitz=None, hessians=None,
                       tol=_EIG_TOL):
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
    2N x 2N for the (mu, lipschitz) family, whose blocks are X (x) I_m,
    and 2Nm x 2Nm with Hessians. Within the family the metric and Schur
    margins do not depend on beta, and the decrease margin only falls as
    beta grows, so an alpha that fails at the smallest beta has no
    verifying beta and is skipped. These screens reject only margins that
    fail by more than their rounding error, and a candidate that passes
    them is returned only once the public check (`check_certificate` or
    `check_certificate_quadratic`) accepts it, so the result is the first
    candidate of the scan order that the public check accepts.
    """
    # the (mu, lipschitz) family's blocks are X (x) I_m, so its screen runs
    # at N level, as `check_certificate` does; Hessians break that structure
    if hessians is None:
        if lipschitz is None:
            raise ValueError("lipschitz is required without Hessians")
        _require_positive("lipschitz", lipschitz)
        level = 1
        check = functools.partial(check_certificate, mu=mu,
                                  lipschitz=lipschitz, tol=tol)
    else:
        hessians = np.asarray(hessians, dtype=float)
        if mu is None:
            mu = min(float(np.linalg.eigvalsh(h)[0]) for h in hessians)
        level = m
        check = functools.partial(check_certificate_quadratic,
                                  hessians=hessians, tol=tol)
    if mu is None:
        raise ValueError("mu is required without Hessians")
    _require_positive("mu", mu)
    gram_n, smap_n = _step_matrices(graph, tau)
    alphas = [1.0 / tau ** 2] + list(np.logspace(-4, 4, 17))
    rate = mu / tau
    betas = [mu * min(1.0, 1.0 / tau)] + list(rate * np.logspace(0, -8, 17))
    smallest = min((b for b in betas if b > 0), default=None)
    size, nm = graph.n * level, graph.n * m
    gram, smap = _lifted(gram_n, level), _lifted(smap_n, level)
    zero, zero_nm = np.zeros((size, size)), np.zeros((nm, nm))
    if hessians is None:
        bound = _gain_block(gram_n, level, tau, 0.0, mu, lipschitz, zero)
    else:
        hbd = _hessian_block_diag(hessians, graph.n, m)
        bound = _hessian_block(hbd, zero, gram, tau)
    gram_min = float(np.linalg.eigvalsh(gram_n)[0])
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
        if not candidates or min(gram_min, alpha) < tol:
            continue
        p = _metric(gram, zero, alpha * np.eye(size))
        x = _decrease_lhs(p, smap, bound)
        slack = _rounding_slack(p, smap, bound)
        if _decrease_margin(x, smallest) < -tol - slack(smallest):
            continue
        for beta in candidates:
            if _decrease_margin(x, beta) < -tol - slack(beta):
                continue
            cert = LmiCertificate(p12=zero_nm, p22=alpha * np.eye(nm),
                                  u_cap=zero_nm, u=beta, epsilon=0.0)
            if check(cert, graph, m, tau).feasible:
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
    only falls as u grows, so if the screen reads below -tol - 2 delta at
    some u, the public check reads below -tol at that u and at every
    larger one. The slack is 2 delta with a factor of 4 to spare.
    """
    dim = p.shape[0]
    scale = 2.0 * np.linalg.norm(p) * np.linalg.norm(smap) + np.linalg.norm(bound)
    eps = np.finfo(float).eps
    return lambda u: 8.0 * dim * eps * (scale + u)
