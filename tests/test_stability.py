import math
from fractions import Fraction

import numpy as np
import pytest

from phmid import harness, stability
from phmid.cli import main
from phmid.costs import NonQuadraticCostError, random_quadratic_ensemble
from phmid.costs import from_spec as cost_from_spec
from phmid.dynamics import NetworkState, equilibrium_state
from phmid.graphs import Graph, complete, cycle, erdos_renyi, star
from phmid.graphs import from_spec as graph_from_spec
from phmid.integrators import SchemeConfig, euler_step, mid_step
from phmid.stability import (CertificateVerdict, InvalidCertificateError,
                             LmiCertificate, _hessian_block_diag,
                             _rounding_slack, check_certificate,
                             closed_form_certificate, search_certificate)

from oracles import (InvalidEpsilonError, _midpoint_map_qr, _step_gram,
                     _step_gram_n, assemble_metric, audit_lyapunov,
                     change_of_basis, d2_minus_a2, exact_definiteness,
                     general, gradient_bound_block,
                     gradient_feedback_gain, hessian_block_diag, kron,
                     lifted_check_certificate,
                     lifted_check_certificate_quadratic, midpoint_map_qp,
                     mu_hessians, quadratic_gradient_block, reference_search)


def _lifted_step(graph, m, tau):
    """G(tau) and the midpoint map S, lifted by (x) I_m: the oracles' own
    build, which solves with G(tau); the package never forms S."""
    return _step_gram(graph, m, tau), _midpoint_map_qr(graph, m, tau)


def _random_graph(rng):
    n = int(rng.integers(3, 10))
    return erdos_renyi(n, 0.5, seed=int(rng.integers(100000)))


def test_step_gram_two_agents_by_hand():
    # single edge, m=1, tau=1: Q = [[.5,.5],[.5,.5]] is idempotent, so
    # G = I + Q + Q^2 = I + 2Q = [[2,1],[1,2]]
    g = Graph(2, [(0, 1)])
    gram = _step_gram_n(g, 1.0)
    assert np.allclose(gram, [[2.0, 1.0], [1.0, 2.0]], atol=1e-14)


def test_step_gram_definition_and_limit():
    g = erdos_renyi(6, 0.5, seed=1)
    qmat = kron(g.q_matrix(), np.eye(2))
    for tau in (0.3, 1.0, 7.0):
        gram = _lifted_step(g, 2, tau)[0]
        direct = np.eye(12) / tau ** 2 + qmat / tau + qmat @ qmat
        assert np.abs(gram - direct).max() <= 1e-12
    # dominant-term limit: G -> Q^2 as tau grows
    assert np.abs(_lifted_step(g, 2, 1e6)[0] - qmat @ qmat).max() <= 1e-5


def test_step_gram_positive_definite_and_commutes():
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = _random_graph(rng)
        m = int(rng.integers(1, 3))
        tau = float(10 ** rng.uniform(-2, 3))
        gram = _lifted_step(g, m, tau)[0]
        assert np.linalg.eigvalsh(gram).min() >= 1.0 / tau ** 2 - 1e-10
        qmat = kron(g.q_matrix(), np.eye(m))
        assert np.abs(qmat @ gram - gram @ qmat).max() <= 1e-10


def test_similarity_of_midpoint_maps():
    # the (q, r) map is exactly the (q, p) map conjugated by the lower
    # triangular change of basis r = p - tau Q q
    g = cycle(4)
    tau = 0.5
    s_r = _midpoint_map_qr(g, 1, tau)
    s_p = midpoint_map_qp(g, 1, tau)
    t = change_of_basis(g, 1, tau)
    assert np.abs(s_r - t @ s_p @ np.linalg.inv(t)).max() <= 1e-9
    rng = np.random.default_rng(3)
    for _ in range(20):
        graph = _random_graph(rng)
        m = int(rng.integers(1, 3))
        tau = float(10 ** rng.uniform(-1.5, 2))
        s_r = _lifted_step(graph, m, tau)[1]
        s_p = midpoint_map_qp(graph, m, tau)
        t = change_of_basis(graph, m, tau)
        assert np.abs(s_r - t @ s_p @ np.linalg.inv(t)).max() <= 1e-9


def test_midpoint_map_consensus_kernel():
    g = cycle(5)
    s_r = _lifted_step(g, 2, 1.3)[1]
    vec = np.concatenate([np.tile([1.0, -2.0], 5), np.zeros(10)])
    out = s_r @ vec
    assert np.abs(out[10:]).max() <= 1e-12  # Laplacian kills consensus


def test_midpoint_map_single_agent_is_zero():
    g = Graph(1, [])
    assert np.abs(_lifted_step(g, 3, 2.0)[1]).max() == 0.0


def test_midpoint_map_matches_actual_steps():
    # the linear relation [dq; dr] = S [qbar; rbar] - [G^-1/tau; 0] grad
    # must hold along real mixed implicit steps
    rng = np.random.default_rng(4)
    for _ in range(10):
        g = _random_graph(rng)
        m = int(rng.integers(1, 3))
        n = g.n
        ens = random_quadratic_ensemble(n, m, seed=int(rng.integers(10000)))
        tau = float(10 ** rng.uniform(-1, 1.5))
        st = NetworkState(rng.standard_normal((n, m)), rng.standard_normal((n, m)))
        nxt = mid_step(st, ens, g, tau).state
        qmat = g.q_matrix()
        r0 = st.p - tau * (qmat @ st.q)
        r1 = nxt.p - tau * (qmat @ nxt.q)
        y0 = np.concatenate([st.q.ravel(), r0.ravel()])
        y1 = np.concatenate([nxt.q.ravel(), r1.ravel()])
        qbar = (st.q + nxt.q) / 2
        grad = ens.gradient_stack(qbar).ravel()
        gram, smap = _lifted_step(g, m, tau)
        lhs = y1 - y0
        rhs = (smap @ ((y0 + y1) / 2)
               - np.concatenate([np.linalg.solve(gram, grad) / tau,
                                 np.zeros(n * m)]))
        assert np.abs(lhs - rhs).max() <= 1e-9 * (1 + np.abs(lhs).max())


def test_gradient_bound_block_cancellation():
    g = cycle(4)
    mu, lip = 0.5, 2.0
    tau = 1.0
    gamma = gradient_feedback_gain(g, 1, tau, lip)
    eps = 2 * mu / (tau * gamma)  # makes the upper block vanish
    zero = np.zeros((4, 4))
    block = gradient_bound_block(g, 1, tau, eps, mu, lip, zero)
    assert np.abs(block[:4, :4]).max() <= 1e-14
    assert np.abs(block[4:, 4:]).max() == 0.0


def test_gradient_bound_block_zero_epsilon():
    g = cycle(4)
    zero = np.zeros((4, 4))
    block = gradient_bound_block(g, 1, 2.0, 0.0, 0.5, 1.0, zero)
    assert np.allclose(block[:4, :4], -(0.5 / 2.0) * np.eye(4), atol=1e-15)
    assert np.abs(block[4:, 4:]).max() == 0.0
    with pytest.raises(InvalidEpsilonError):
        gradient_bound_block(g, 1, 2.0, 0.0, 0.5, 1.0, np.eye(4))


def test_gradient_feedback_gain_definition():
    g = star(5)
    gram = _lifted_step(g, 2, 1.0)[0]
    expected = 3.0 * np.linalg.eigvalsh(gram)[-1]
    assert gradient_feedback_gain(g, 2, 1.0, 3.0) == pytest.approx(expected, rel=1e-12)


def test_quadratic_gradient_block_structure():
    g = cycle(3)
    zero_h = np.zeros((3, 1, 1))
    assert np.abs(quadratic_gradient_block(g, 1, 1.0, zero_h, np.zeros((3, 3)))).max() == 0.0
    hs = np.array([[[2.0]], [[3.0]], [[4.0]]])
    block = quadratic_gradient_block(g, 1, 2.0, hs, np.zeros((3, 3)))
    assert np.abs(block[3:, :3]).max() == 0.0  # P12 = 0 kills the lower left
    # the feedback term enters with a negative sign: the map
    # -grad is what pushes the error down (flipped relative to a
    # positive-curvature convention that would make the test matrix
    # indefinite for every u > 0)
    assert np.allclose(block[:3, :3], np.diag([-1.0, -1.5, -2.0]), atol=1e-15)
    with pytest.raises(NonQuadraticCostError):
        quadratic_gradient_block(g, 1, 1.0, np.zeros((2, 1, 1)), np.zeros((3, 3)))


def test_closed_form_certificate_metric():
    for g in (cycle(5), star(4), erdos_renyi(7, 0.5, seed=5)):
        for tau in (0.01, 1.0, 100.0):
            cert = closed_form_certificate(g, tau, mu=0.7)
            metric = assemble_metric(cert, g, 2, tau)
            assert np.linalg.eigvalsh(metric).min() > 0.0


def test_check_certificate_cycle_all_step_sizes():
    g = cycle(6)
    for tau in (0.1, 1.0, 10.0, 1000.0):
        cert = closed_form_certificate(g, tau, mu=1.0)
        verdict = check_certificate(cert, g, tau, mu_hessians(g, 1.0))
        assert verdict.feasible, (tau, verdict.margins)


def test_check_certificate_parameter_free_family():
    # graphs with D^2 - A^2 PSD certify at every tested step size
    for g in (cycle(8), complete(5)):
        for k in range(-2, 4):
            tau = 10.0 ** k
            cert = closed_form_certificate(g, tau, mu=0.3)
            verdict = check_certificate(cert, g, tau, mu_hessians(g, 0.3))
            assert verdict.feasible, (g.n, tau, verdict.margins)


def test_check_certificate_star_infeasible_large_tau():
    g = star(4)
    cert = closed_form_certificate(g, 10.0, mu=0.01)
    verdict = check_certificate(cert, g, 10.0, mu_hessians(g, 0.01))
    assert not verdict.feasible
    assert verdict.decrease_margin < -1e-6
    # at tau >= 1 the closed form's rate cancels the (mu, L) bound and
    # X12 = 0, so its decrease margin is 2 lambda_min(L/tau + D^2 - A^2),
    # negative on a star; a solve with G(tau), whose condition grows like
    # tau^2 there, read -1.32 and -2045.67 for these -6 and -36
    for spec, tau in (("star:5", 1e9), ("star:20", 1e155)):
        g = graph_from_spec(spec)
        want = 2.0 * np.linalg.eigvalsh(g.laplacian() / tau
                                        + d2_minus_a2(g))[0]
        verdict = check_certificate(closed_form_certificate(g, tau, 0.5), g,
                                    tau, mu_hessians(g, 0.5))
        assert not verdict.feasible
        assert abs(verdict.decrease_margin - want) <= 1e-9 * abs(want), (
            spec, verdict.decrease_margin, want)


def test_check_certificate_star_small_tau_feasible():
    g = star(4)
    tau = 0.0009  # below mu / ||D^2 - A^2|| = 0.01 / 6
    cert = closed_form_certificate(g, tau, mu=0.01)
    verdict = check_certificate(cert, g, tau, mu_hessians(g, 0.01))
    assert verdict.feasible, verdict.margins
    # and the same certificate shape fails at tau = 1
    cert1 = closed_form_certificate(g, 1.0, mu=0.01)
    assert not check_certificate(cert1, g, 1.0, mu_hessians(g, 0.01)).feasible


def test_check_certificate_rejects_nonpositive_u():
    g = cycle(4)
    cert = LmiCertificate(1.0, u=-1.0)
    with pytest.raises(InvalidCertificateError):
        check_certificate(cert, g, 1.0, mu_hessians(g, 1.0))


def test_quadratic_check_identity_hessians():
    g = cycle(6)
    hs = np.repeat(np.eye(2)[None], 6, axis=0)
    cert = closed_form_certificate(g, 10.0, mu=1.0)
    verdict = check_certificate(cert, g, 10.0, hs)
    assert verdict.feasible, verdict.margins


def test_quadratic_check_er_graph_is_out_of_family():
    # this topology has D^2 - A^2 indefinite; at large tau no certificate in
    # the scanned family verifies (the full decision space would need a
    # semidefinite solver, which is out of scope). NotFound is not an
    # instability claim: the scheme itself still converges here.
    g = erdos_renyi(10, 0.4, seed=42)
    ens = random_quadratic_ensemble(10, 3, seed=42)
    hs = ens.hessian_blocks()
    assert search_certificate(g, 10.0, hs) is None
    theta = ens.centralized_optimum()
    rng = np.random.default_rng(0)
    st = NetworkState(rng.standard_normal((10, 3)), np.zeros((10, 3)))
    for _ in range(2000):
        st = mid_step(st, ens, g, 10.0).state
    assert np.linalg.norm(st.q - theta[None, :]) <= 1e-8


def test_quadratic_check_robust_to_huge_scaling():
    # verdicts stay finite under extreme Hessian scaling; no assertion on
    # the sign of the outcome
    g = cycle(4)
    hs = 1e6 * np.repeat(np.eye(1)[None], 4, axis=0)
    cert = closed_form_certificate(g, 1000.0, mu=1e6)
    verdict = check_certificate(cert, g, 1000.0, hs)
    assert all(np.isfinite(m) for m in verdict.margins)
    assert isinstance(verdict, CertificateVerdict)


def test_quadratic_feasible_whenever_general_feasible():
    # with H >= mu I the exact quadratic feedback term is dominated by the
    # mu-based bound, so general feasibility implies quadratic feasibility
    # on matched instances
    rng = np.random.default_rng(6)
    checked = 0
    for _ in range(20):
        g = _random_graph(rng)
        m = int(rng.integers(1, 3))
        ens = random_quadratic_ensemble(g.n, m, seed=int(rng.integers(10000)))
        tau = float(10 ** rng.uniform(-2, 2))
        cert = closed_form_certificate(g, tau, ens.mu)
        bound = check_certificate(cert, g, tau, mu_hessians(g, ens.mu))
        if bound.feasible:
            quad = check_certificate(cert, g, tau, ens.hessian_blocks())
            assert quad.feasible, (g.n, tau, quad.margins)
            checked += 1
    assert checked >= 5


def test_search_finds_closed_form_on_cycle():
    g = cycle(6)
    hs = mu_hessians(g, 1.0)
    cert, verdict = search_certificate(g, 1.0, hs)
    assert verdict.feasible
    assert verdict.margins == check_certificate(cert, g, 1.0, hs).margins
    assert (cert.alpha, cert.u) == (1.0, 1.0)
    # wherever the closed form verifies, the search cannot fail
    for g2 in (cycle(4), complete(4)):
        for tau in (0.5, 20.0):
            assert search_certificate(g2, tau, mu_hessians(g2, 0.4)) is not None


def test_search_not_found_for_star_large_tau():
    g = star(4)
    hs = 0.01 * np.repeat(np.eye(1)[None], 4, axis=0)
    assert search_certificate(g, 50.0, hs) is None


@pytest.mark.parametrize("spec", ["cycle:6", "star:5", "star:6", "star:20",
                                  "complete:4", "complete:6", "er:6:0.5:1",
                                  "er:7:0.5:3", "er:10:0.4:42",
                                  "er:20:0.3:1"])
def test_search_matches_the_in_order_scan(spec):
    # every decade from 1e-7 to 100 holds 1 and 10, where 1/tau^2 repeats
    # a grid alpha, and the small taus, where rounding decides the
    # margins; 1e4 to 1e8, where most of the family fails its Cholesky
    # screens, follow. The reference checks all 289 candidates of a
    # NotFound scan, so the 20-agent graphs take every third decade. A
    # (mu, L) search is the same at every m, and the quadratic one runs
    # at m = 1 and 3. With P12 = 0 the decrease matrix's (2, 2) block is
    # 0, so its (1, 2) block (alpha tau - 1/tau) L must vanish: every found
    # certificate has the closed form's alpha = 1/tau^2
    g = graph_from_spec(spec)
    families = [mu_hessians(g, 0.5)] + [
        random_quadratic_ensemble(g.n, m, seed=5).hessian_blocks()
        for m in (1, 3)]
    taus = (list(np.logspace(-7, 2, 10)) + [1e4, 1e6, 1e8]
            if g.n <= 10 else np.logspace(-7, 8, 6))
    for tau in taus:
        for hs in families:
            want = reference_search(g, tau, hs)
            found = search_certificate(g, tau, hs)
            assert (found is None) == (want is None), (tau, hs.shape)
            if found is None:
                continue
            got, verdict = found
            assert (got.alpha, got.u) == (want.alpha, want.u)
            assert got.alpha == closed_form_certificate(g, tau, 0.5).alpha
            again = check_certificate(got, g, tau, hs)
            assert verdict.feasible
            assert verdict.margins == again.margins


def test_search_takes_mu_from_one_batched_eigen_solve():
    # the search's mu, and with it every rate it scans, is bitwise the
    # per-agent loop of `reference_search`
    for n, m, seed in ((10, 3, 42), (20, 3, 1), (6, 1, 7), (12, 5, 3)):
        hs = random_quadratic_ensemble(n, m, seed=seed).hessian_blocks()
        loop = min(float(np.linalg.eigvalsh(h)[0]) for h in hs)
        assert float(np.linalg.eigvalsh(hs)[:, 0].min()) == loop


@pytest.mark.parametrize("n", [8, 40, 120])
def test_cholesky_screen_never_rejects_what_the_eigen_screen_keeps(n):
    # symmetric matrices whose smallest eigenvalue sits just above and
    # just below -floor, floor = 1e-9 + the rounding slack of an
    # eigen-solve: a Cholesky rejection is always an eigen-screen one
    rng = np.random.default_rng(n)
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
    tol = stability._EIG_TOL
    for scale in (1e-3, 1.0, 1e3):
        spectrum = scale * rng.uniform(0.0, 10.0, n)
        mat = (basis * spectrum) @ basis.T
        mat = (mat + mat.T) / 2.0
        floor = tol + _eig_slack(mat)
        for offset in (-1e-3, -1e-6, 0.0, 1e-6, 1e-3, 1.0, 9.0):
            shifted = mat - (np.linalg.eigvalsh(mat)[0]
                             + floor * (1.0 + offset)) * np.eye(n)
            keeps = np.linalg.eigvalsh(shifted)[0] >= -floor
            rejects = stability._cholesky_rejects(shifted, floor)
            assert not (keeps and rejects), (scale, offset)
            if offset < 0:
                assert not rejects, (scale, offset)
            if offset == 9.0:  # lambda_min = -10 floor
                assert rejects, (scale, offset)
    # a floor that overflowed rejects nothing
    assert not stability._cholesky_rejects(-np.eye(n), np.inf)


def _random_certificate(rng):
    # alpha log-uniform over six decades, around the grid of the search
    return LmiCertificate(10.0 ** rng.uniform(-3.0, 3.0), u=0.05)


def _eig_slack(mat):
    # an eigenvalue of M rounds as a decrease margin with X = M
    return _rounding_slack(mat.shape[0], np.linalg.norm(mat))(0.0)


def _margin_slacks(cert, g, m, tau, mu, lipschitz, bound=None):
    """Rounding bounds of the three margins, from the 2Nm x 2Nm matrices
    of the lifted check, whose X = P S + S' P + B is bounded by 2 |P| |S| +
    |B|; B is the (mu, L) bound unless given."""
    cert = general(cert, g.n)
    eye = np.eye(m)
    p = assemble_metric(cert, g, m, tau)
    p12, u_cap = kron(cert.p12, eye), kron(cert.u_cap, eye)
    schur = np.block([[u_cap, p12], [p12.T, np.eye(g.n * m)]])
    if bound is None:
        bound = gradient_bound_block(g, m, tau, cert.epsilon, mu, lipschitz,
                                     u_cap)
    smap = _lifted_step(g, m, tau)[1]
    return (_eig_slack(p), _eig_slack(schur),
            _rounding_slack(p.shape[0],
                            2.0 * np.linalg.norm(p) * np.linalg.norm(smap)
                            + np.linalg.norm(bound))(cert.u))


def test_reduced_check_matches_the_lifted_check():
    mu, lipschitz, tol = 0.5, 2.0, stability._EIG_TOL
    rng = np.random.default_rng(13)
    checks = band = flips = 0
    for spec in ("cycle:7", "cycle:10", "star:6", "complete:5", "er:12:0.4:1",
                 "er:8:0.5:3"):
        g = graph_from_spec(spec)
        for m in (1, 2, 3):
            for tau in np.logspace(-7, 9, 17):
                certs = [
                    closed_form_certificate(g, tau, mu),
                    LmiCertificate(1.0, u=1e-2 * mu / tau),
                    LmiCertificate(1e3, u=mu * min(1.0, 1.0 / tau)),
                    _random_certificate(rng),
                ]
                for cert in certs:
                    try:
                        want = lifted_check_certificate(cert, g, m, tau, mu,
                                                        lipschitz)
                    except np.linalg.LinAlgError:
                        # G(tau) numerically singular: the lifted check,
                        # which solves with it, gives no verdict to compare
                        continue
                    got = check_certificate(cert, g, tau, mu_hessians(g, mu))
                    slacks = _margin_slacks(cert, g, m, tau, mu, lipschitz)
                    for a, b, slack in zip(got.margins, want.margins, slacks):
                        assert abs(a - b) <= slack, (spec, m, tau, a, b, slack)
                    thresholds = (tol, -tol, -tol)
                    checks += 1
                    if all(abs(margin - t) > slack for margin, t, slack
                           in zip(want.margins, thresholds, slacks)):
                        assert got.feasible == want.feasible, (spec, m, tau)
                    else:
                        band += 1
                        flips += got.feasible != want.feasible
    print(f"\n[reduced check] {checks} checks against the lifted one, "
          f"{band} with a margin within rounding of its threshold, "
          f"{flips} of them with another verdict")
    assert band < checks // 4


def test_quadratic_check_matches_the_lifted_check():
    rng = np.random.default_rng(14)
    for spec in ("cycle:7", "star:6", "er:8:0.5:3"):
        g = graph_from_spec(spec)
        for m in (1, 3):
            hs = random_quadratic_ensemble(g.n, m, seed=2).hessian_blocks()
            zero = np.zeros((g.n * m, g.n * m))
            for tau in np.logspace(-3, 3, 4):
                for cert in (closed_form_certificate(g, tau, 0.5),
                             _random_certificate(rng)):
                    got = check_certificate(cert, g, tau, hs)
                    want = lifted_check_certificate_quadratic(cert, g, m, tau,
                                                              hs)
                    # the lifted check solves with G(tau), whose condition
                    # grows like tau^2 on the bipartite star: its rounding
                    # bound, not 1e-12, limits the agreement there
                    bound = quadratic_gradient_block(g, m, tau, hs, zero)
                    slacks = _margin_slacks(cert, g, m, tau, None, None,
                                            (bound + bound.T) / 2.0)
                    for a, b, slack in zip(got.margins, want.margins, slacks):
                        assert abs(a - b) <= max(1e-12 * max(1.0, abs(b)),
                                                 slack), (spec, m, tau, a, b)
                    assert got.feasible == want.feasible


def test_kronecker_certificate_is_checked_at_graph_level(monkeypatch, capsys):
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    lifts = []
    lifted = stability._lifted
    monkeypatch.setattr(stability, "_lifted",
                        lambda x, m: lifts.append(m) or lifted(x, m))
    # the benchmark's closed-form check and a search, through certify at
    # m = 3: N x N blocks, no lifted matrix and no eigen-solve above 2N
    g = cycle(80)
    for search in ([], ["--search"]):
        sizes.clear()
        main(["certify", "--graph", "cycle:80", "--tau", "1000", "--m", "3",
              "--mu", "0.5", "--lipschitz", "3"] + search)
        assert sizes and max(sizes) <= 2 * g.n
    assert not lifts


def _scalar_certificates(g, tau, mu):
    """The closed form and two other alphas."""
    return [
        closed_form_certificate(g, tau, mu),
        LmiCertificate(1.0, u=1e-2 * mu / tau),
        LmiCertificate(1e3, u=mu * min(1.0, 1.0 / tau)),
    ]


def test_mode_check_matches_the_lifted_check():
    mu, lipschitz, tol = 0.5, 2.0, stability._EIG_TOL
    checks = band = flips = undecided = 0
    for kind in ("cycle", "complete"):
        for n in range(3, 13):
            g = graph_from_spec(f"{kind}:{n}")
            for m in (1, 3):
                for tau in np.logspace(-7, 9, 9):
                    for cert in _scalar_certificates(g, tau, mu):
                        got = check_certificate(cert, g, tau,
                                                mu_hessians(g, mu))
                        try:
                            want = lifted_check_certificate(cert, g, m, tau,
                                                            mu, lipschitz)
                        except np.linalg.LinAlgError:
                            # G(tau) is numerically singular, so its
                            # smallest mode, and the metric margin, lie
                            # far below tol: the mode check still decides
                            assert got.metric_margin < tol and not got.feasible
                            undecided += 1
                            continue
                        slacks = _margin_slacks(cert, g, m, tau, mu, lipschitz)
                        for a, b, slack in zip(got.margins, want.margins,
                                               slacks):
                            assert abs(a - b) <= slack, (kind, n, m, tau, a, b)
                        checks += 1
                        if all(abs(margin - t) > slack for margin, t, slack
                               in zip(want.margins, (tol, -tol, -tol), slacks)):
                            assert got.feasible == want.feasible, (kind, n, tau)
                        else:
                            band += 1
                            flips += got.feasible != want.feasible
    print(f"\n[mode check] {checks} checks against the lifted one, {band} "
          f"with a margin within rounding of its threshold, {flips} of them "
          f"with another verdict, {undecided} where the lifted check meets a "
          "singular G(tau)")
    # the closed form's decrease margin is 0, within rounding of -tol
    # wherever the lifted slack exceeds tol; most verdicts still compare
    assert band < checks // 2


def test_closed_form_decrease_margin_is_exactly_zero():
    # the conserved consensus mode makes the closed form's decrease margin
    # 0 in exact arithmetic; mode by mode it reads exactly +0, not a
    # rounding residue on either side of the tolerance
    for spec in ("cycle:3", "cycle:80", "complete:12"):
        g = graph_from_spec(spec)
        for mu in (0.3, 0.5, 7.0):
            for tau in np.logspace(-6, 9, 16):
                cert = closed_form_certificate(g, tau, mu)
                margin = check_certificate(
                    cert, g, tau, mu_hessians(g, mu)).decrease_margin
                assert margin == 0.0 and math.copysign(1.0, margin) == 1.0, (
                    spec, mu, tau, margin)


def test_closed_form_rate_never_exceeds_mu_over_tau():
    # u is the largest float at or below mu * min(1, 1/tau): with mu = 0.5,
    # mu / tau rounds up at tau = 10, 3e4, 4e4 and 1e8, among others
    g = cycle(10)
    for mu in (0.5, 0.3, 7.0, 1e-30):
        for tau in [*np.logspace(-6, 12, 181), 10.0, 3e4, 4e4, 1e8]:
            u = closed_form_certificate(g, tau, mu).u
            if tau <= 1.0:
                assert u == mu
                continue
            assert Fraction(u) * Fraction(tau) <= Fraction(mu), (mu, tau)
            above = math.nextafter(u, math.inf)
            assert Fraction(above) * Fraction(tau) > Fraction(mu), (mu, tau)


def _exact_closed_form_decrease(graph, tau, mu, u):
    """2 K + (mu/tau - u) I, the closed form's decrease block at m = 1 (its
    X12 and X22 are 0), with tau, mu and u taken as exact rationals."""
    tau, shift = Fraction(tau), Fraction(mu) / Fraction(tau) - Fraction(u)
    adj = graph.adjacency().astype(int)
    deg = adj.sum(axis=1)
    lap = np.diag(deg) - adj
    k = np.diag(deg * deg) - adj @ adj
    n = graph.n
    return [[2 * (Fraction(int(lap[i, j])) / tau + int(k[i, j]))
             + (shift if i == j else 0) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("spec", ["cycle:10", "complete:12"])
def test_closed_form_rate_is_exactly_feasible(spec):
    # fl(mu / tau) lies above mu / tau at the last four taus, where the
    # decrease block of its consensus mode is exactly negative; the rate
    # the closed form takes is exactly feasible at all five
    g = graph_from_spec(spec)
    mu = 0.5
    for tau in (3.0, 10.0, 3e4, 4e4, 1e8):
        rounded = mu / tau
        want = "pd" if tau == 3.0 else "indefinite"
        assert exact_definiteness(
            _exact_closed_form_decrease(g, tau, mu, rounded)) == want, tau
        u = closed_form_certificate(g, tau, mu).u
        assert exact_definiteness(
            _exact_closed_form_decrease(g, tau, mu, u)) == "pd", tau


def test_exact_definiteness_on_small_matrices():
    assert exact_definiteness([[2, 1], [1, 2]]) == "pd"
    assert exact_definiteness([[1, 1], [1, 1]]) == "psd-singular"
    assert exact_definiteness([[0, 0], [0, 0]]) == "psd-singular"
    assert exact_definiteness([[1, 2], [2, 1]]) == "indefinite"
    assert exact_definiteness([[0, 1], [1, 0]]) == "indefinite"
    assert exact_definiteness([[1, 0], [0, -1]]) == "indefinite"
    third = Fraction(1, 3)
    assert exact_definiteness([[third, third], [third, third]]) == "psd-singular"
    # a Laplacian is singular and semidefinite, and a shift either way
    # by 1e-30 decides it
    lap = cycle(6).laplacian()
    assert exact_definiteness(lap) == "psd-singular"
    for shift, want in ((Fraction(1, 10 ** 30), "pd"),
                        (-Fraction(1, 10 ** 30), "indefinite")):
        shifted = [[Fraction(int(x)) + (shift if i == j else 0)
                    for j, x in enumerate(row)] for i, row in enumerate(lap)]
        assert exact_definiteness(shifted) == want


def test_closed_form_verifies_at_a_tiny_step():
    # the quadratic check's decrease margin is min(lambda_min(2 K - F - u I),
    # 0) with K = L/tau + D^2 - A^2 PSD here and -F - u I = H/tau - mu I
    # PSD: exactly 0, where a solve with G(tau) read -3.3e-8 at tau = 1e-7
    for spec in ("cycle:80", "complete:12"):
        g = graph_from_spec(spec)
        ens = cost_from_spec("quadratic:3:42", g.n)
        for tau in (1e-6, 1e-7):
            cert = closed_form_certificate(g, tau, 0.5)
            verdict = check_certificate(cert, g, tau, mu_hessians(g, 0.5))
            assert verdict.feasible, (spec, tau, verdict.margins)
            cert = closed_form_certificate(g, tau, ens.mu)
            verdict = check_certificate(cert, g, tau, ens.hessian_blocks())
            assert verdict.feasible, (spec, tau, verdict.margins)


def test_regular_graph_certificate_is_checked_mode_by_mode(monkeypatch):
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    tau = 1000.0
    # Hessians that are all one c I, at any m, on a regular graph
    for spec in ("cycle:80", "complete:12"):
        g = graph_from_spec(spec)
        cert = closed_form_certificate(g, tau, 0.5)
        for hs in (mu_hessians(g, 0.5),
                   np.repeat(0.5 * np.eye(3)[None], g.n, axis=0)):
            sizes.clear()
            check_certificate(cert, g, tau, hs)
            assert max(sizes) == g.n
    # Hessians that are not, on a regular graph, and a c I stack on an
    # irregular one, keep the 2Nm x 2Nm check
    g = cycle(12)
    cert = closed_form_certificate(g, tau, 0.5)
    hs = np.repeat(0.5 * np.eye(2)[None], g.n, axis=0)
    hs[3, 0, 0] = 0.75
    coupled = np.repeat(np.array([[[0.5, 0.1], [0.1, 0.5]]]), g.n, axis=0)
    for stack in (hs, coupled,
                  random_quadratic_ensemble(g.n, 1, seed=3).hessian_blocks()):
        sizes.clear()
        check_certificate(cert, g, tau, stack)
        assert max(sizes) == 2 * stack.shape[0] * stack.shape[-1]
    g = star(12)
    sizes.clear()
    check_certificate(closed_form_certificate(g, tau, 0.5), g, tau,
                      mu_hessians(g, 0.5))
    assert max(sizes) == 2 * g.n


@pytest.mark.parametrize("shape", [(4, 1, 1), (5, 2, 3), (5, 2), (5, 0, 0)])
def test_check_and_search_refuse_a_hessian_stack_of_another_shape(shape):
    g = graph_from_spec("cycle:5")
    hs = np.ones(shape)
    cert = LmiCertificate(1.0, u=0.1)
    for call in (lambda: check_certificate(cert, g, 1.0, hs),
                 lambda: search_certificate(g, 1.0, hs)):
        with pytest.raises(NonQuadraticCostError) as exc:
            call()
        assert "(5, m, m)" in str(exc.value)


def test_one_build_per_decision(monkeypatch):
    # 1/tau^2, L, K and Q are formed once per check and once per search
    builds = []
    blocks = stability._Blocks
    monkeypatch.setattr(stability, "_Blocks",
                        lambda *args: builds.append(args) or blocks(*args))
    g, m, tau = cycle(8), 3, 10.0
    cert = closed_form_certificate(g, tau, 0.5)
    hs = random_quadratic_ensemble(g.n, m, seed=3).hessian_blocks()
    hs4 = 0.01 * np.repeat(np.eye(1)[None], 4, axis=0)
    er20 = graph_from_spec("er:20:0.3:1")
    # the (mu, L) family on a cycle is checked mode by mode, from the
    # adjacency's spectrum: it forms no dense blocks at all
    for decide, count in (
            (lambda: check_certificate(cert, g, tau, mu_hessians(g, 0.5)), 0),
            (lambda: check_certificate(cert, g, tau, hs), 1),
            (lambda: check_certificate(cert, star(8), tau,
                                       mu_hessians(g, 0.5)), 1),
            (lambda: search_certificate(star(4), 50.0, hs4), 1),
            (lambda: search_certificate(er20, 10.0, mu_hessians(er20, 0.5)),
             1)):
        del builds[:]
        decide()
        assert len(builds) == count
    assert search_certificate(star(4), 50.0, hs4) is None


def test_a_found_search_runs_the_public_check_once(monkeypatch, capsys):
    # certify prints the verdict of the check that accepted the search's
    # certificate, and checks it no second time
    calls = []
    check = stability.check_certificate
    monkeypatch.setattr(stability, "check_certificate",
                        lambda *args: calls.append(args) or check(*args))
    for argv in (["--graph", "er:10:0.4:42", "--tau", "0.1", "--quadratic",
                  "--cost", "quadratic:3:42"],
                 ["--graph", "cycle:6", "--tau", "1", "--mu", "1",
                  "--lipschitz", "2"]):
        calls.clear()
        assert main(["certify"] + argv + ["--search"]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out.startswith("feasible,")


def test_a_not_found_search_screens_without_eigen_solves(monkeypatch):
    # the benchmark's exhaustive search: one Cholesky screen per distinct
    # alpha, one eigen-solve of Q, for lambda_min(G) in the metric screen,
    # and one batched solve of the 1 x 1 Hessians, for mu
    calls = {"eigvalsh": 0, "cholesky": 0}
    for name in calls:
        def counted(*args, _name=name, _solve=getattr(np.linalg, name),
                    **kwargs):
            calls[_name] += 1
            return _solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    g = graph_from_spec("er:20:0.3:1")
    assert search_certificate(g, 10.0, mu_hessians(g, 0.5)) is None
    assert calls == {"eigvalsh": 2, "cholesky": 17}


@pytest.mark.parametrize("n,m", [(1, 1), (1, 3), (6, 1), (7, 2), (5, 3)])
def test_hessian_block_diag_matches_the_agent_loop(n, m):
    hs = np.random.default_rng(10 * n + m).standard_normal((n, m, m))
    got = _hessian_block_diag(hs)
    assert got.shape == (n * m, n * m)
    assert np.array_equal(got, hessian_block_diag(hs, n, m))


@pytest.mark.parametrize("call", [
    lambda g: _step_gram_n(g, np.inf),
    lambda g: _midpoint_map_qr(g, 1, np.nan),
    lambda g: gradient_feedback_gain(g, 1, 0.0, 1.0),
    lambda g: gradient_bound_block(g, 1, -1.0, 0.0, 1.0, 1.0, np.zeros((4, 4))),
    lambda g: quadratic_gradient_block(g, 1, np.inf, np.ones((4, 1, 1)),
                                       np.zeros((4, 4))),
    lambda g: closed_form_certificate(g, np.inf, mu=1.0),
    lambda g: closed_form_certificate(g, 1.0, mu=np.inf),
    lambda g: search_certificate(g, np.inf, mu_hessians(g, 1.0)),
    lambda g: search_certificate(g, 1.0, mu_hessians(g, np.nan)),
], ids=["gram-inf", "map-nan", "gain-0", "bound-neg", "quad-inf",
        "closed-tau-inf", "closed-mu-inf", "search-tau-inf",
        "search-mu-nan"])
def test_entry_points_reject_bad_inputs(call):
    with pytest.raises(ValueError):
        call(cycle(4))


def _mid_run(graph, ens, tau, steps, rng):
    st = NetworkState(rng.standard_normal((graph.n, ens.dim)),
                      np.zeros((graph.n, ens.dim)))
    q_hist, p_hist = [st.q.copy()], [st.p.copy()]
    start = st
    for _ in range(steps):
        st = mid_step(st, ens, graph, tau).state
        q_hist.append(st.q.copy())
        p_hist.append(st.p.copy())

    class _Trace:
        q_history = np.stack(q_hist)
        p_history = np.stack(p_hist)

    return _Trace(), start


def test_audit_constant_equilibrium_trace_is_zero():
    g = cycle(5)
    ens = random_quadratic_ensemble(5, 2, seed=7)
    tau = 3.0
    rng = np.random.default_rng(8)
    init = NetworkState(rng.standard_normal((5, 2)), np.zeros((5, 2)))
    eq = equilibrium_state(ens, g, initial=init, mid_tau=tau)
    hist = np.stack([eq.q, eq.q]), np.stack([eq.p, eq.p])

    class _Trace:
        q_history, p_history = hist

    cert = closed_form_certificate(g, tau, ens.mu)
    assert audit_lyapunov(_Trace(), cert, eq, g, tau) == pytest.approx(0.0, abs=1e-12)


def test_audit_certified_run_decreases():
    g = cycle(6)
    ens = random_quadratic_ensemble(6, 2, seed=9)
    tau = 10.0
    cert = closed_form_certificate(g, tau, ens.mu)
    assert check_certificate(cert, g, tau, ens.hessian_blocks()).feasible
    rng = np.random.default_rng(10)
    trace, start = _mid_run(g, ens, tau, 800, rng)
    eq = equilibrium_state(ens, g, initial=start, mid_tau=tau)
    violation = audit_lyapunov(trace, cert, eq, g, tau)
    e0 = np.concatenate([(trace.q_history[0] - eq.q).ravel(),
                         ((trace.p_history[0] - tau * (g.q_matrix() @ trace.q_history[0]))
                          - (eq.p - tau * (g.q_matrix() @ eq.q))).ravel()])
    v0 = 0.5 * e0 @ (assemble_metric(cert, g, 2, tau) @ e0)
    assert violation <= 1e-8 * (1.0 + v0)


def test_closed_form_audit_of_carrying_mid_runs_at_every_step_size():
    # runs that carry each agent's inverse Jacobian from step to step (the
    # harness path) decrease the closed-form certificate's Lyapunov function
    # at every step size: its largest per-step rise stays within rounding
    # of the initial value, 16 eps v0 (measured: at most 2.3e-27 v0, at
    # tau = 1 and 10, where the runs end within rounding of the optimum).
    # The closed form holds on cycles at every tau (D^2 - A^2 is PSD); its
    # check rejects tau >= 1e5 only by the absolute tolerance, which is why
    # the audit, not the check, is asserted here
    g = cycle(10)
    taus = [float(t) for t in np.logspace(-6, 8, 15)]
    cfg = harness.ExperimentConfig("cycle:10", "quadratic:3:42", "mid:tau=1",
                                   steps=1000, seed=7, record_lyapunov=True)
    traces = harness._simulate(cfg, [SchemeConfig("mid", t) for t in taus])
    ens = cost_from_spec("quadratic:3:42", 10)
    qmat = g.q_matrix()
    for tau, trace in zip(taus, traces):
        assert trace.status == harness.STATUS_MAX_STEPS
        start = NetworkState(trace.q_history[0], trace.p_history[0])
        eq = equilibrium_state(ens, g, initial=start, mid_tau=tau)
        cert = closed_form_certificate(g, tau, ens.mu)
        e0 = np.concatenate([(start.q - eq.q).ravel(),
                             ((start.p - tau * (qmat @ start.q))
                              - (eq.p - tau * (qmat @ eq.q))).ravel()])
        v0 = 0.5 * e0 @ (assemble_metric(cert, g, 3, tau) @ e0)
        violation = audit_lyapunov(trace, cert, eq, g, tau)
        assert violation <= 16 * np.finfo(float).eps * v0, (tau, violation, v0)


def test_audit_flags_divergent_euler_trace():
    g = cycle(6)
    ens = random_quadratic_ensemble(6, 2, seed=11)
    tau = 10.0
    rng = np.random.default_rng(12)
    st = NetworkState(rng.standard_normal((6, 2)), np.zeros((6, 2)))
    q_hist, p_hist = [st.q.copy()], [st.p.copy()]
    for _ in range(6):
        st = euler_step(st, ens, g, tau)
        q_hist.append(st.q.copy())
        p_hist.append(st.p.copy())

    class _Trace:
        q_history = np.stack(q_hist)
        p_history = np.stack(p_hist)

    eq = equilibrium_state(ens, g, initial=NetworkState(q_hist[0], p_hist[0]))
    cert = closed_form_certificate(g, tau, ens.mu)
    assert audit_lyapunov(_Trace(), cert, eq, g, tau) > 1.0


def test_audit_requires_state_history():
    class _Empty:
        q_history = None
        p_history = None

    g = cycle(4)
    cert = closed_form_certificate(g, 1.0, mu=1.0)
    eq = NetworkState(np.zeros((4, 1)), np.zeros((4, 1)))
    with pytest.raises(ValueError):
        audit_lyapunov(_Empty(), cert, eq, g, 1.0)
