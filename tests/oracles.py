"""
Reference code that only the tests use.

The (q, p) midpoint map and the change of basis to (q, r) are the other
side of the similarity identity that checks `midpoint_map_qr`, and
`reference_search` is the certificate search as a plain in-order scan
over the public checks, the behaviour `search_certificate` must keep.
"""

import numpy as np

from phmid.stability import (LmiCertificate, check_certificate,
                             check_certificate_quadratic)


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
