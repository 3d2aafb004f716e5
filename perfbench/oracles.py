"""Independent correctness oracles for the benchmark's outputs.

Each oracle rebuilds what it checks from the raw inputs (cost data, edge
sets, certificate family parameters) with dense numpy calls, so a defect
in the package cannot hide behind itself. Every function returns a list
of problem strings; an empty list means the output checked out.
"""

import numpy as np

_EIG_TOL = 1e-9


def _rel_close(got, want, rtol):
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want)))) <= rtol * scale


# -- per-agent cost data ----------------------------------------------------

def _kind(cost):
    return type(cost).__name__


def _logistic_parts(cost, theta):
    """Augmented points and sigmoid(-margin) of a logistic cost at theta."""
    aug = np.hstack([cost.points, np.ones((cost.points.shape[0], 1))])
    margins = cost.labels * (aug @ theta)
    return aug, np.exp(-np.logaddexp(0.0, margins))


def agent_gradient(cost, theta):
    """Gradient of one agent's cost, rebuilt from its raw data."""
    if _kind(cost) == "QuadraticCost":
        return cost.h @ theta + cost.b
    aug, weight = _logistic_parts(cost, theta)
    return aug.T @ (-cost.labels * weight) + (cost.reg / cost.n_agents) * theta


def agent_hessian(cost, theta):
    """Hessian of one agent's cost, rebuilt from its raw data."""
    if _kind(cost) == "QuadraticCost":
        return cost.h
    aug, weight = _logistic_parts(cost, theta)
    return ((aug.T * (weight * (1.0 - weight))) @ aug
            + (cost.reg / cost.n_agents) * np.eye(theta.shape[0]))


# -- centralized optimum ---------------------------------------------------

def theta_star_problems(ensemble, theta_star):
    """Check a run's reference optimum against a dense recomputation.

    Quadratic ensembles: theta* solves (sum_i H_i) theta = -sum_i b_i.
    Logistic ensembles: the summed gradient, rebuilt from each agent's
    points, labels and regularizer, vanishes at theta*.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    kinds = {_kind(c) for c in ensemble.costs}
    if kinds == {"QuadraticCost"}:
        h = sum(c.h for c in ensemble.costs)
        b = sum(c.b for c in ensemble.costs)
        want = np.linalg.solve(h, -b)
        if not _rel_close(theta_star, want, 1e-9):
            return [f"theta* {theta_star} differs from dense solve {want}"]
        return []
    if kinds == {"LogisticCost"}:
        grad = sum(agent_gradient(c, theta_star) for c in ensemble.costs)
        if float(np.linalg.norm(grad)) > 1e-8:
            return [f"summed logistic gradient at theta* is {np.linalg.norm(grad):.3e}"]
        return []
    return [f"no theta* oracle for cost kinds {sorted(kinds)}"]


# -- implicit steps -----------------------------------------------------------

def implicit_errors(graph, ensemble, scheme, tau, q0, p0, steps, theta_star):
    """Consensus errors of `steps` mid or dg steps, each solved densely.

    With D the degree matrix, A the adjacency and L = D - A, all lifted
    by (x) I_m, the two schemes are

        mid:  (q+ - q)/tau = -(D q+ - A q) - (D p+ - A p) - grad f(qb)
              (p+ - p)/tau =   D q+ - A q
        dg:   (q+ - q)/tau = -L qb - L pb - grad f(qb)
              (p+ - p)/tau =   L qb

    with qb, pb the midpoints of (q, q+) and (p, p+). Each step is solved
    for [q+; p+] at once by dense Newton with backtracking, from the
    current state; for quadratic costs one Newton step is the exact
    linear solve.
    """
    a = _adjacency(graph)
    n, m = q0.shape
    nm = n * m
    eye = np.eye(nm)
    d = np.kron(np.diag(a.sum(axis=1)), np.eye(m))
    a = np.kron(a, np.eye(m))
    if scheme == "mid":
        lhs = np.block([[eye / tau + d, d], [-d, eye / tau]])

        def known(q, p):
            return np.concatenate([q / tau + a @ q + a @ p, p / tau - a @ q])
    elif scheme == "dg":
        lap = d - a
        lhs = np.block([[eye / tau + lap / 2.0, lap / 2.0], [-lap / 2.0, eye / tau]])

        def known(q, p):
            return np.concatenate([q / tau - lap @ (q + p) / 2.0, p / tau + lap @ q / 2.0])
    else:
        raise ValueError(f"no implicit-step oracle for scheme {scheme!r}")
    costs = ensemble.costs

    def gradient(q):
        rows = q.reshape(n, m)
        return np.concatenate([agent_gradient(c, r) for c, r in zip(costs, rows)])

    q, p = np.asarray(q0, dtype=float).ravel(), np.asarray(p0, dtype=float).ravel()
    errors = [float(np.linalg.norm(q0 - theta_star[None, :]))]
    for _ in range(steps):
        rhs = known(q, p)

        def residual(z):
            return lhs @ z - rhs + np.concatenate([gradient((q + z[:nm]) / 2.0),
                                                   np.zeros(nm)])
        z = np.concatenate([q, p])
        res = residual(z)
        for _ in range(60):
            rows = ((q + z[:nm]) / 2.0).reshape(n, m)
            jac = lhs.copy()
            for i, (c, r) in enumerate(zip(costs, rows)):
                jac[i * m:(i + 1) * m, i * m:(i + 1) * m] += agent_hessian(c, r) / 2.0
            dz = np.linalg.solve(jac, -res)
            if np.linalg.norm(dz) <= 1e-14 * (1.0 + np.linalg.norm(z)):
                break
            step = 1.0
            while step > 1e-6:
                cand = residual(z + step * dz)
                if np.linalg.norm(cand) < np.linalg.norm(res):
                    break
                step /= 2.0
            else:
                break  # no decrease left: the residual is at rounding level
            z, res = z + step * dz, cand
        q, p = z[:nm], z[nm:]
        errors.append(float(np.linalg.norm(q.reshape(n, m) - theta_star[None, :])))
    return errors


# -- forward Euler stability edge ------------------------------------------

def _adjacency(graph):
    a = np.zeros((graph.n, graph.n))
    for i, j in graph.edges:
        a[i, j] = a[j, i] = 1.0
    return a


def euler_growth(graph, ensemble, tau):
    """Largest |1 + tau * lambda| over the non-conserved modes of the flow.

    For quadratic costs the flow is affine with matrix
    [[-(L (x) I) - H, -(L (x) I)], [L (x) I, 0]]; its zero eigenvalues are
    the consensus modes of p, which Euler conserves exactly, so they are
    left out. A value above 1 means forward Euler diverges at this tau.
    """
    a = _adjacency(graph)
    lap = np.kron(np.diag(a.sum(axis=1)) - a, np.eye(ensemble.dim))
    nm = lap.shape[0]
    hbd = np.zeros((nm, nm))
    m = ensemble.dim
    for i, c in enumerate(ensemble.costs):
        hbd[i * m:(i + 1) * m, i * m:(i + 1) * m] = c.h
    flow = np.block([[-lap - hbd, -lap], [lap, np.zeros((nm, nm))]])
    lam = np.linalg.eigvals(flow)
    lam = lam[np.abs(lam) > 1e-9]
    return float(np.max(np.abs(1.0 + tau * lam)))


# -- stability certificates -------------------------------------------------

class CertificateOracle:
    """Dense re-derivation of the certificate checks of one (graph, m, tau).

    Built from the edge set alone: Q = (D + A) / 2, G = I/tau^2 + Q/tau + Q^2
    and the (q, r) midpoint map, all lifted by (x) I_m.
    """

    def __init__(self, graph, m, tau):
        a = _adjacency(graph)
        d = np.diag(a.sum(axis=1))
        lap = d - a
        q = (d + a) / 2.0
        n = graph.n
        gram = np.eye(n) / tau ** 2 + q / tau + q @ q
        s11 = -np.linalg.solve(gram, lap / tau + q @ lap + lap @ q)
        s12 = -np.linalg.solve(gram, lap) / tau
        smap = np.block([[s11, s12], [tau * lap, np.zeros((n, n))]])
        eye_m = np.eye(m)
        self.m, self.tau = m, tau
        self.nm = n * m
        self.gram = np.kron(gram, eye_m)
        self.smap = np.kron(smap, eye_m)

    def margins(self, p22, u, feedback):
        """(metric, schur, decrease) margins of P12 = 0, U = 0, epsilon = 0.

        `feedback` is the symmetric (nm, nm) upper-left block of the
        gradient bound; the lower blocks vanish for this family.
        """
        nm = self.nm
        zero = np.zeros((nm, nm))
        p = np.block([[self.gram, zero], [zero, p22]])
        metric = _min_eig(p)
        schur = _min_eig(np.block([[zero, zero], [zero, np.eye(nm)]]))
        bound = np.block([[feedback + u * np.eye(nm), zero], [zero, zero]])
        decrease = _min_eig(-(p @ self.smap + self.smap.T @ p + bound))
        return metric, schur, decrease

    def family(self, mu):
        """The scanned (alpha, beta) family, in the package's scan order."""
        tau = self.tau
        alphas = [1.0 / tau ** 2] + list(np.logspace(-4, 4, 17))
        rate = mu / tau
        betas = [mu * min(1.0, 1.0 / tau)] + list(rate * np.logspace(0, -8, 17))
        return alphas, betas


def _min_eig(mat):
    return float(np.linalg.eigvalsh((mat + mat.T) / 2.0)[0])


def _feasible(margins, need_schur):
    metric, schur, decrease = margins
    return (metric >= _EIG_TOL and decrease >= -_EIG_TOL
            and (schur >= -_EIG_TOL or not need_schur))


def expected_certify(graph, m, tau, mu, hessians=None, search=False):
    """Expected (verdict, margins) of one `phmid certify` command.

    verdict is True, False, or None for NotFound. Without `hessians` the
    gradient bound is the (mu, L) block at epsilon = 0, -mu/tau I (its
    Lipschitz term vanishes with epsilon); with them it is the symmetric
    part of the exact quadratic block, -H/tau. A search is decided by
    monotonicity in beta: the decrease margin only falls as u grows and
    the other margins ignore u, so an alpha verifies for some beta of
    the family exactly when it verifies for the smallest one; only the
    first verifying alpha is then scanned in order.
    """
    oracle = CertificateOracle(graph, m, tau)
    nm = oracle.nm
    if hessians is None:
        feedback = -(mu / tau) * np.eye(nm)
    else:
        feedback = np.zeros((nm, nm))
        for i, h in enumerate(hessians):
            feedback[i * m:(i + 1) * m, i * m:(i + 1) * m] = -h / tau
        mu = min(float(np.linalg.eigvalsh(h)[0]) for h in hessians)
    need_schur = hessians is None
    if not search:
        margins = oracle.margins(np.eye(nm) / tau ** 2, mu * min(1.0, 1.0 / tau),
                                 feedback)
        return _feasible(margins, need_schur), margins
    alphas, betas = oracle.family(mu)
    smallest = min(b for b in betas if b > 0)
    for alpha in alphas:
        if not _feasible(oracle.margins(alpha * np.eye(nm), smallest, feedback),
                         need_schur):
            continue
        for beta in betas:
            margins = oracle.margins(alpha * np.eye(nm), beta, feedback)
            if beta > 0 and _feasible(margins, need_schur):
                return True, margins
    return None, None


def certify_problems(output, returncode, expected):
    """Compare a certify command's printed result with the oracle's."""
    verdict, margins = expected
    lines = output.strip().splitlines()
    if verdict is None:
        if returncode != 1 or not lines or "NotFound" not in lines[-1]:
            return [f"expected NotFound, got rc={returncode} {lines[-1:]}"]
        return []
    if len(lines) < 2 or lines[-2] != "feasible,metric_margin,schur_margin,decrease_margin":
        return [f"unexpected certify output {lines[-2:]}"]
    fields = lines[-1].split(",")
    got_verdict = fields[0] == "true"
    got = [float(x) for x in fields[1:]]
    problems = []
    if got_verdict != verdict or returncode != (0 if verdict else 1):
        problems.append(f"verdict {fields[0]} rc={returncode}, oracle says {verdict}")
    for name, g, w in zip(("metric", "schur", "decrease"), got, margins):
        if abs(g - w) > 1e-8 * max(1.0, abs(w)):
            problems.append(f"{name} margin {g!r} differs from oracle {w!r}")
    return problems
