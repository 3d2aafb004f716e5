"""
Acceptance suite: one test per criterion, each printing a PASS line
(run with ``pytest tests/test_acceptance.py -v -s``).

The paper-style experiments use unstated random data, so the criteria
are property-based: each asserts the qualitative claim of the matching
experiment at pinned tolerances on fixed seeded instances.
"""

import numpy as np
import pytest

from phmid.costs import CostEnsemble, from_spec as cost_from_spec
from phmid.costs import random_quadratic_ensemble
from phmid.dynamics import NetworkState, equilibrium_state
from phmid.graphs import complete, cycle, erdos_renyi, star, from_spec as graph_from_spec
from phmid.harness import (STATUS_DIVERGED, STATUS_MAX_STEPS, ExperimentConfig,
                           export_csv, k_b, run, tau_sweep)
from phmid.integrators import euler_step, mid_step
from phmid.stability import check_certificate, closed_form_certificate

from oracles import (_midpoint_map_qr, _step_gram, agents, assemble_metric,
                     audit_lyapunov, by_scheme, change_of_basis, d2_minus_a2,
                     discrete_gradient, incidence, kron, midpoint_map_qp,
                     mu_hessians)

DESK_GRAPH = "cycle:10"
DESK_COST = "quadratic:3:42"
DESK_SEED = 7

LOGI_GRAPH = "er:10:0.4:42"
LOGI_COST = "logistic:3:10:0.1:42:2.7"
LOGI_SEED = 5

MID_STEPS = {1.0: 1500, 10.0: 1500, 100.0: 6000, 1000.0: 45000}


def _desk_config(scheme_spec, steps, record=False):
    return ExperimentConfig(graph_spec=DESK_GRAPH, cost_spec=DESK_COST,
                            scheme_spec=scheme_spec, steps=steps,
                            seed=DESK_SEED, record_lyapunov=record)


@pytest.fixture(scope="module")
def desk_ensemble():
    return cost_from_spec(DESK_COST, 10)


@pytest.fixture(scope="module")
def mid_desk_traces():
    """Criterion-1 runs, reused by criteria 2, 5 and 10."""
    return {tau: run(_desk_config(f"mid:tau={tau!r}", steps, record=True))
            for tau, steps in MID_STEPS.items()}


@pytest.fixture(scope="module")
def desk_sweep():
    """Criterion-3 sweep, reused by criterion 10."""
    taus = [float(t) for t in np.logspace(np.log10(0.05), np.log10(50.0), 50)]
    base = _desk_config("mid:tau=1", steps=6000)
    return taus, tau_sweep(base, taus, ["mid", "euler"])


@pytest.fixture(scope="module")
def logistic_traces():
    """Criterion-9 runs, reused by criterion 10."""
    base = ExperimentConfig(graph_spec=LOGI_GRAPH, cost_spec=LOGI_COST,
                            scheme_spec="mid:tau=3.78", steps=3000,
                            seed=LOGI_SEED)
    return {"mid": run(base),
            "gt": run(base.replaced(scheme_spec="gt:tau=0.05"))}


def test_criterion_1_parameter_free_convergence(mid_desk_traces):
    for tau, trace in mid_desk_traces.items():
        assert trace.status != STATUS_DIVERGED, f"tau={tau} diverged"
        assert len(trace.errors) - 1 <= 10 ** 5
        assert trace.final_error <= 1e-6, (tau, trace.final_error)
        assert k_b(trace, 1e-6) is not None
    print("\n[criterion 1] PASS: mixed implicit stepping reaches 1e-6 on "
          "cycle(10) for tau in {1, 10, 100, 1000} "
          f"(k_b: { {t: k_b(tr, 1e-6) for t, tr in mid_desk_traces.items()} })")


def test_criterion_2_euler_instability_contrast(mid_desk_traces):
    euler_trace = run(_desk_config("euler:tau=10", steps=1000))
    assert euler_trace.status == STATUS_DIVERGED
    assert mid_desk_traces[10.0].final_error <= 1e-6

    # scalar analytic multipliers for f = q^2 / 2
    from phmid.graphs import Graph
    g1 = Graph(1, [])
    ens1 = CostEnsemble.quadratic(np.eye(1)[None], np.zeros((1, 1)))
    st = NetworkState(np.array([[1.0]]), np.array([[0.0]]))
    out = euler_step(st, ens1, g1, 3.0)
    assert abs(out.q[0, 0]) == pytest.approx(abs(1.0 - 3.0), abs=1e-15)
    assert abs(out.q[0, 0]) > 1.0
    for tau in (0.5, 1.0, 3.0, 10.0, 100.0, 1000.0):
        rep = mid_step(st, ens1, g1, tau)
        analytic = (1.0 - tau / 2.0) / (1.0 + tau / 2.0)
        assert rep.state.q[0, 0] == pytest.approx(analytic, abs=1e-14)
        assert abs(analytic) < 1.0
    print("[criterion 2] PASS: Euler diverges at tau=10 where the implicit "
          "scheme converges; scalar multipliers match the analytic forms")


def test_criterion_3_sweep_shape(desk_sweep):
    taus, table = desk_sweep
    mid_rows = by_scheme(table, "mid")
    euler_rows = by_scheme(table, "euler")
    assert len(mid_rows) == len(euler_rows) == 50

    # (a) Euler: finite at the smallest step size, gone at the largest
    assert euler_rows[0].k_b is not None
    assert euler_rows[-1].k_b is None and euler_rows[-1].status == STATUS_DIVERGED

    # (b) interior minimum for the implicit scheme
    mid_kb = [r.k_b for r in mid_rows]
    assert all(kb is not None for kb in mid_kb)
    best = int(np.argmin(mid_kb))
    assert 0 < best < len(mid_kb) - 1
    assert mid_kb[best] < mid_kb[0] and mid_kb[best] < mid_kb[-1]

    # (c) the implicit scheme's best beats Euler's best
    euler_finite = [r.k_b for r in euler_rows if r.k_b is not None]
    assert min(mid_kb) < min(euler_finite)
    print(f"[criterion 3] PASS: sweep shape reproduced (implicit best "
          f"k_b={min(mid_kb)} at tau={mid_rows[best].tau:.3g}; Euler best "
          f"k_b={min(euler_finite)}, unstable beyond tau~"
          f"{max(r.tau for r in euler_rows if r.k_b is not None):.3g})")


def test_criterion_4_certificate_suite(desk_ensemble):
    # (a) closed-form certificate on cycles and complete graphs, every size
    for builder in (cycle, complete):
        for n in range(3, 13):
            g = builder(n)
            for tau in (0.01, 1.0, 100.0):
                cert = closed_form_certificate(g, tau, mu=1.0)
                verdict = check_certificate(cert, g, tau, mu_hessians(g, 1.0))
                assert verdict.feasible, (builder.__name__, n, tau,
                                          verdict.margins)

    # (b) star(4) with mu = 0.01: feasible below the step bound, not at 1
    g = star(4)
    cert = closed_form_certificate(g, 0.0009, mu=0.01)
    assert check_certificate(cert, g, 0.0009, mu_hessians(g, 0.01)).feasible
    cert1 = closed_form_certificate(g, 1.0, mu=0.01)
    assert not check_certificate(cert1, g, 1.0, mu_hessians(g, 0.01)).feasible

    # (c) quadratic-cost inequality on the criterion-1 problem
    g10 = graph_from_spec(DESK_GRAPH)
    hessians = desk_ensemble.hessian_blocks()
    for tau in (3.78, 10.0):
        cert = closed_form_certificate(g10, tau, desk_ensemble.mu)
        verdict = check_certificate(cert, g10, tau, hessians)
        assert verdict.feasible, (tau, verdict.margins)
    print("[criterion 4] PASS: certificates feasible on cycle/complete "
          "(n=3..12, tau in {0.01,1,100}), star(4) bound respected, "
          "quadratic inequality feasible at tau in {3.78, 10}")


def test_criterion_5_lyapunov_decrease_audit(mid_desk_traces, desk_ensemble):
    g = graph_from_spec(DESK_GRAPH)
    hessians = desk_ensemble.hessian_blocks()
    audited = {}
    traces = dict(mid_desk_traces)
    traces[3.78] = run(_desk_config("mid:tau=3.78", steps=1500, record=True))
    for tau, trace in traces.items():
        cert = closed_form_certificate(g, tau, desk_ensemble.mu)
        assert check_certificate(cert, g, tau, hessians).feasible
        init = NetworkState(trace.q_history[0], trace.p_history[0])
        equilibrium = equilibrium_state(desk_ensemble, g, initial=init,
                                        mid_tau=tau)
        violation = audit_lyapunov(trace, cert, equilibrium, g, tau)
        # bound is relative to the certified value at the initial state
        qmat = g.q_matrix()
        r0 = trace.p_history[0] - tau * (qmat @ trace.q_history[0])
        r_star = equilibrium.p - tau * (qmat @ equilibrium.q)
        e0 = np.concatenate([(trace.q_history[0] - equilibrium.q).ravel(),
                             (r0 - r_star).ravel()])
        v0 = 0.5 * e0 @ (assemble_metric(cert, g, 3, tau) @ e0)
        assert violation <= 1e-8 * (1.0 + v0), (tau, violation, v0)
        audited[tau] = violation
    print(f"[criterion 5] PASS: certified runs decrease the certificate "
          f"Lyapunov function (max violations {max(audited.values()):.2e})")


def test_criterion_6_discrete_gradient_identities():
    rng = np.random.default_rng(606)
    logistic = cost_from_spec("logistic:3:10:0.1:5", 10)
    worst_secant = 0.0
    worst_limit = 0.0
    for trial in range(1000):
        if trial % 2 == 0:
            dim = int(rng.integers(1, 6))
            b = rng.standard_normal((dim, dim))
            h = b @ b.T / dim + 0.2 * np.eye(dim)  # curvature O(1)
            lin = rng.standard_normal(dim)
            value = lambda x: float(0.5 * x @ (h @ x) + lin @ x)
            grad = lambda x: h @ x + lin
            u = rng.standard_normal(dim)
            v = rng.standard_normal(dim)
        else:
            cost = agents(logistic)[int(rng.integers(10))]
            value, grad = cost.value, cost.gradient
            u = rng.standard_normal(3)
            # step-scale separation: the fixed 5-node rule resolves the
            # sigmoid integrands at this scale (error grows steeply with
            # the separation along a data direction)
            v = u + 0.25 * rng.standard_normal(3)
        dg = discrete_gradient(value, grad, u, v)
        worst_secant = max(worst_secant,
                           abs(dg @ (v - u) - (value(v) - value(u))))
        w = rng.standard_normal(u.shape[0])
        w /= np.linalg.norm(w)
        dg_close = discrete_gradient(value, grad, u, u + 1e-6 * w)
        worst_limit = max(worst_limit,
                          float(np.linalg.norm(dg_close - grad(u))))
    assert worst_secant <= 1e-8, worst_secant
    assert worst_limit <= 1e-5, worst_limit
    print(f"[criterion 6] PASS: secant identity to {worst_secant:.2e} and "
          f"gradient limit to {worst_limit:.2e} over 1000 draws")


def test_criterion_7_mid_correctness_oracles():
    rng = np.random.default_rng(707)
    # (a) the computed step satisfies both update rows
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 4))
        g = erdos_renyi(n, 0.6, seed=int(rng.integers(100000)))
        if trial % 3 == 0 and m >= 2:
            ens = cost_from_spec(f"logistic:{m}:6:0.1:{int(rng.integers(1000))}", n)
        else:
            ens = random_quadratic_ensemble(n, m, seed=int(rng.integers(1000)))
        st = NetworkState(rng.standard_normal((n, m)), rng.standard_normal((n, m)))
        tau = float(10 ** rng.uniform(-1.5, 1.5))
        rep = mid_step(st, ens, g, tau)
        qp, pp = rep.state.q, rep.state.p
        adj, deg = g.adjacency(), g.degrees[:, None]
        row1 = ((qp - st.q) / tau + (deg * qp - adj @ st.q)
                + (deg * pp - adj @ st.p) + ens.gradient_stack((qp + st.q) / 2))
        row2 = (pp - st.p) / tau - (deg * qp - adj @ st.q)
        worst = max(worst, float(np.abs(row1).max()), float(np.abs(row2).max()))
    assert worst <= 1e-10, worst

    # (b) quadratic case equals the per-agent dense linear solve
    g = cycle(10)
    ens = random_quadratic_ensemble(10, 3, seed=42)
    st = NetworkState(rng.standard_normal((10, 3)), rng.standard_normal((10, 3)))
    tau = 5.1
    rep = mid_step(st, ens, g, tau)
    adj, deg = g.adjacency(), g.degrees
    nbr_q, nbr_p = adj @ st.q, adj @ st.p
    for i in range(10):
        gmat = (1 / tau + deg[i] + tau * deg[i] ** 2) * np.eye(3)
        c = (-st.q[i] / tau - (1 + tau * deg[i]) * nbr_q[i]
             + deg[i] * st.p[i] - nbr_p[i])
        h, b = ens.costs[i].h, ens.costs[i].b
        direct = np.linalg.solve(gmat + h / 2, -(h @ st.q[i] / 2 + b + c))
        assert np.abs(rep.state.q[i] - direct).max() <= 1e-10

    # (c) single agent equals the analytic midpoint contraction
    from phmid.graphs import Graph
    g1 = Graph(1, [])
    ens1 = CostEnsemble.quadratic(np.eye(1)[None], np.zeros((1, 1)))
    for tau in (0.1, 1.0, 10.0, 1000.0):
        rep = mid_step(NetworkState(np.array([[1.0]]), np.array([[0.0]])),
                       ens1, g1, tau)
        assert rep.state.q[0, 0] == pytest.approx(
            (1 - tau / 2) / (1 + tau / 2), abs=1e-14)

    # (d) locality: non-neighbor perturbations change nothing at all
    g = cycle(8)
    ens = random_quadratic_ensemble(8, 2, seed=3)
    st = NetworkState(rng.standard_normal((8, 2)), rng.standard_normal((8, 2)))
    base = mid_step(st, ens, g, 2.5).state
    q2, p2 = st.q.copy(), st.p.copy()
    q2[4] += 3.0  # agents 0 and 4 are not adjacent on the 8-cycle
    p2[4] += 1.0
    out = mid_step(NetworkState(q2, p2), ens, g, 2.5).state
    assert np.abs(out.q[0] - base.q[0]).max() == 0.0
    assert np.abs(out.p[0] - base.p[0]).max() == 0.0
    print(f"[criterion 7] PASS: update rows satisfied to {worst:.1e}, "
          "linear-solve oracle, analytic single-agent and exact locality")


def test_criterion_8_matrix_identity_suite():
    rng = np.random.default_rng(808)
    for _ in range(20):
        n = int(rng.integers(3, 13))
        g = erdos_renyi(n, 0.5, seed=int(rng.integers(100000)))
        m = int(rng.integers(1, 3))
        tau = float(10 ** rng.uniform(-1.5, 1.5))
        # incidence factorization (exact in integer arithmetic)
        assert np.array_equal(incidence(g) @ incidence(g).T, g.laplacian())
        gram, s_r = _step_gram(g, m, tau), _midpoint_map_qr(g, m, tau)
        assert np.linalg.eigvalsh(gram).min() > 0.0
        qmat = kron(g.q_matrix(), np.eye(m))
        assert np.abs(qmat @ gram - gram @ qmat).max() <= 1e-10
        s_p = midpoint_map_qp(g, m, tau)
        t = change_of_basis(g, m, tau)
        assert np.abs(s_r - t @ s_p @ np.linalg.inv(t)).max() <= 1e-9
        lap_m = kron(g.laplacian(), np.eye(m))
        assert np.abs(qmat @ lap_m + lap_m @ qmat
                      - kron(d2_minus_a2(g), np.eye(m))).max() <= 1e-12
    print("[criterion 8] PASS: incidence factorization, positive definite "
          "step Gram, commutation, similarity and anticommutator identities "
          "on 20 random graphs")


def test_criterion_9_logistic_end_to_end(logistic_traces):
    mid_trace = logistic_traces["mid"]
    gt_trace = logistic_traces["gt"]
    assert mid_trace.status == STATUS_MAX_STEPS
    assert len(mid_trace.errors) - 1 <= 10 ** 5
    assert mid_trace.final_error <= 1e-6
    assert gt_trace.status == STATUS_MAX_STEPS
    assert gt_trace.final_error <= 1e-6  # the baseline converges too
    kb_mid = k_b(mid_trace, 1e-6)
    kb_gt = k_b(gt_trace, 1e-6)
    assert kb_mid is not None and kb_gt is not None
    assert kb_mid < kb_gt, (kb_mid, kb_gt)
    print(f"[criterion 9] PASS: logistic network problem, implicit scheme "
          f"k_b={kb_mid} beats tracking baseline k_b={kb_gt} on shared seed")


def _strip_wall_clock(text):
    return ["," .join(line.split(",")[:4]) for line in text.strip().split("\n")]


def test_criterion_10_determinism(tmp_path, mid_desk_traces, desk_sweep,
                                  logistic_traces):
    # traces: identical configs reproduce every recorded column except the
    # wall-clock one (real timings are inherently non-reproducible)
    for tau, steps in MID_STEPS.items():
        fresh = run(_desk_config(f"mid:tau={tau!r}", steps, record=True))
        old_path = tmp_path / f"old_{tau}.csv"
        new_path = tmp_path / f"new_{tau}.csv"
        export_csv(mid_desk_traces[tau], old_path)
        export_csv(fresh, new_path)
        assert (_strip_wall_clock(old_path.read_text())
                == _strip_wall_clock(new_path.read_text())), tau

    # sweep tables are fully byte-identical
    taus, table = desk_sweep
    base = _desk_config("mid:tau=1", steps=6000)
    fresh_table = tau_sweep(base, taus, ["mid", "euler"])
    a, b = tmp_path / "sweep_a.csv", tmp_path / "sweep_b.csv"
    export_csv(table, a)
    export_csv(fresh_table, b)
    assert a.read_bytes() == b.read_bytes()

    # logistic runs reproduce bit for bit as well
    base = ExperimentConfig(graph_spec=LOGI_GRAPH, cost_spec=LOGI_COST,
                            scheme_spec="mid:tau=3.78", steps=3000,
                            seed=LOGI_SEED)
    again = run(base)
    assert np.array_equal(again.errors, logistic_traces["mid"].errors)
    again_gt = run(base.replaced(scheme_spec="gt:tau=0.05"))
    assert np.array_equal(again_gt.errors, logistic_traces["gt"].errors)

    # certificate margins reproduce exactly
    g = graph_from_spec(DESK_GRAPH)
    rows = []
    for _ in range(2):
        cert = closed_form_certificate(g, 10.0, mu=1.0)
        verdict = check_certificate(cert, g, 10.0, mu_hessians(g, 1.0))
        rows.append(",".join(format(x, ".17g") for x in verdict.margins))
    assert rows[0] == rows[1]
    print("[criterion 10] PASS: reruns reproduce traces, sweep tables and "
          "margins (timing column excluded)")
