import math

import numpy as np
import pytest

from phmid.costs import (CostEnsemble, random_logistic_ensemble,
                         random_quadratic_ensemble)
from phmid.dynamics import NetworkState, continuous_rhs, equilibrium_state
from phmid.graphs import Graph, cycle, erdos_renyi
from phmid import graphs, harness, numerics
from phmid.integrators import (GtState, MaxIterationsError, SchemeConfig,
                               dg_central_step, euler_step,
                               gradient_tracking_init, gradient_tracking_step,
                               mid_step, parse_scheme_spec, step_plan)
from phmid.numerics import DimensionMismatchError

from oracles import kron, metropolis_weights, two_gradient_tracking_step


def _scalar_problem():
    g = Graph(1, [])
    ens = CostEnsemble.quadratic(np.eye(1)[None], np.zeros((1, 1)))
    return g, ens


def _network_problem(n=6, m=2, seed=0, graph=None):
    g = graph or cycle(n)
    ens = random_quadratic_ensemble(g.n, m, seed=seed)
    rng = np.random.default_rng(seed + 100)
    st = NetworkState(rng.standard_normal((g.n, m)), rng.standard_normal((g.n, m)))
    return g, ens, st


def test_scheme_spec_parsing():
    cfg = parse_scheme_spec("mid:tau=3.78")
    assert cfg.kind == "mid" and cfg.tau == 3.78
    for bad in ("mid", "warp:tau=1", "mid:step=2", "mid:tau="):
        with pytest.raises(ValueError):
            parse_scheme_spec(bad)
    with pytest.raises(ValueError):
        SchemeConfig("mid", 0.0)


def test_non_finite_tau_is_rejected():
    g, ens, st = _network_problem()
    for bad in ("mid:tau=inf", "mid:tau=nan", "euler:tau=-inf"):
        with pytest.raises(ValueError):
            parse_scheme_spec(bad)
    for tau in (math.inf, math.nan):
        with pytest.raises(ValueError):
            SchemeConfig("mid", tau)
        with pytest.raises(ValueError):
            mid_step(st, ens, g, tau)
        with pytest.raises(ValueError):
            euler_step(st, ens, g, tau)


def test_euler_scalar_multiplier():
    g, ens = _scalar_problem()
    for tau in (0.5, 1.5, 3.0):
        st = NetworkState(np.array([[1.0]]), np.array([[0.0]]))
        out = euler_step(st, ens, g, tau)
        assert out.q[0, 0] == pytest.approx(1.0 - tau, abs=1e-15)
    # contraction iff tau < 2
    assert abs(1.0 - 0.5) < 1.0 and abs(1.0 - 3.0) > 1.0


def test_euler_matches_rhs_definition():
    g, ens, st = _network_problem()
    tau = 1e-8
    out = euler_step(st, ens, g, tau)
    dq, dp = continuous_rhs(st, ens, g)
    # the definition holds bitwise; the difference quotient only up to the
    # cancellation round-off of x + tau*r at tiny tau
    assert np.array_equal(out.q, st.q + tau * dq)
    assert np.array_equal(out.p, st.p + tau * dp)
    assert np.abs((out.q - st.q) / tau - dq).max() <= 1e-6
    assert np.abs((out.p - st.p) / tau - dp).max() <= 1e-6


def test_euler_fixed_point_at_equilibrium():
    g, ens, st = _network_problem(seed=3)
    eq = equilibrium_state(ens, g, initial=st)
    out = euler_step(eq, ens, g, 0.7)
    assert np.abs(out.q - eq.q).max() <= 1e-10
    assert np.abs(out.p - eq.p).max() <= 1e-10


def test_dg_scalar_midpoint_contraction():
    g, ens = _scalar_problem()
    for tau in (0.1, 1.0, 10.0, 1000.0):
        st = NetworkState(np.array([[1.0]]), np.array([[0.4]]))
        rep = dg_central_step(st, ens, g, tau)
        expected = (1.0 - tau / 2.0) / (1.0 + tau / 2.0)
        assert rep.state.q[0, 0] == pytest.approx(expected, abs=1e-12)
        assert abs(expected) < 1.0  # contraction for every tau > 0
        assert rep.state.p[0, 0] == pytest.approx(0.4, abs=1e-12)


def test_dg_fixed_point_at_equilibrium():
    g, ens, st = _network_problem(seed=4)
    eq = equilibrium_state(ens, g, initial=st)
    rep = dg_central_step(eq, ens, g, 5.0)
    assert np.abs(rep.state.q - eq.q).max() <= 1e-10
    assert np.abs(rep.state.p - eq.p).max() <= 1e-10


def test_dg_quadratic_matches_dense_solve():
    g, ens, st = _network_problem(n=5, m=2, seed=5)
    tau = 2.5
    n, m = st.q.shape
    nm = n * m
    rep = dg_central_step(st, ens, g, tau)
    # stacked linear system oracle in z = [q+; p+]
    lap_m = kron(g.laplacian(), np.eye(m))
    hbd = np.zeros((nm, nm))
    for i in range(n):
        hbd[i * m:(i + 1) * m, i * m:(i + 1) * m] = ens.costs[i].h
    b = np.concatenate([c.b for c in ens.costs])
    qv, pv = st.q.ravel(), st.p.ravel()
    eye = np.eye(nm)
    a = np.block([[eye / tau + lap_m / 2 + hbd / 2, lap_m / 2],
                  [-lap_m / 2, eye / tau]])
    rhs = np.concatenate([
        qv / tau - lap_m @ qv / 2 - lap_m @ pv / 2 - hbd @ qv / 2 - b,
        pv / tau + lap_m @ qv / 2])
    z = np.linalg.solve(a, rhs)
    assert np.abs(rep.state.q.ravel() - z[:nm]).max() <= 1e-10
    assert np.abs(rep.state.p.ravel() - z[nm:]).max() <= 1e-10


def test_mid_single_agent_matches_dg_closed_form():
    g, ens = _scalar_problem()
    for tau in (0.1, 1.0, 10.0, 1000.0):
        st = NetworkState(np.array([[2.0]]), np.array([[-1.0]]))
        rep = mid_step(st, ens, g, tau)
        expected = 2.0 * (1.0 - tau / 2.0) / (1.0 + tau / 2.0)
        assert rep.state.q[0, 0] == pytest.approx(expected, abs=1e-14)
        assert rep.state.p[0, 0] == -1.0


def test_mid_fixed_point_at_equilibrium():
    g, ens, st = _network_problem(seed=6)
    tau = 7.0
    eq = equilibrium_state(ens, g, initial=st, mid_tau=tau)
    rep = mid_step(eq, ens, g, tau)
    assert np.abs(rep.state.q - eq.q).max() <= 1e-12
    assert np.abs(rep.state.p - eq.p).max() <= 1e-12


def test_mid_satisfies_both_update_rows():
    # the authoritative check of the per-agent reduction: the computed step
    # must satisfy the original two coupled update rows
    rng = np.random.default_rng(7)
    for trial in range(100):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 4))
        g = erdos_renyi(n, 0.6, seed=int(rng.integers(10000)))
        ens = random_quadratic_ensemble(n, m, seed=int(rng.integers(10000)))
        st = NetworkState(rng.standard_normal((n, m)), rng.standard_normal((n, m)))
        tau = float(10 ** rng.uniform(-1.5, 1.5))
        rep = mid_step(st, ens, g, tau)
        qp, pp = rep.state.q, rep.state.p
        adj, deg = g.adjacency(), g.degrees[:, None]
        row1 = ((qp - st.q) / tau + (deg * qp - adj @ st.q)
                + (deg * pp - adj @ st.p)
                + ens.gradient_stack((qp + st.q) / 2))
        row2 = (pp - st.p) / tau - (deg * qp - adj @ st.q)
        assert np.abs(row1).max() <= 1e-10
        assert np.abs(row2).max() <= 1e-10


def test_mid_quadratic_matches_per_agent_linear_solve():
    g, ens, st = _network_problem(n=7, m=3, seed=8, graph=erdos_renyi(7, 0.5, seed=8))
    tau = 4.2
    rep = mid_step(st, ens, g, tau)
    adj, deg = g.adjacency(), g.degrees
    nbr_q, nbr_p = adj @ st.q, adj @ st.p
    for i in range(g.n):
        gmat = (1 / tau + deg[i] + tau * deg[i] ** 2) * np.eye(3)
        c = (-st.q[i] / tau - (1 + tau * deg[i]) * nbr_q[i]
             + deg[i] * st.p[i] - nbr_p[i])
        h, b = ens.costs[i].h, ens.costs[i].b
        direct = np.linalg.solve(gmat + h / 2, -(h @ st.q[i] / 2 + b + c))
        assert np.abs(rep.state.q[i] - direct).max() <= 1e-10


def test_mid_locality_is_exact():
    # agent i's step may only depend on its own and its neighbors' current
    # states; perturbing anyone else changes nothing, bit for bit
    g = cycle(6)
    ens = random_quadratic_ensemble(6, 2, seed=9)
    rng = np.random.default_rng(10)
    st = NetworkState(rng.standard_normal((6, 2)), rng.standard_normal((6, 2)))
    base = mid_step(st, ens, g, 3.0).state
    q2, p2 = st.q.copy(), st.p.copy()
    q2[3] += 10.0  # agent 3 is not adjacent to agent 0 on the 6-cycle
    p2[3] -= 5.0
    out = mid_step(NetworkState(q2, p2), ens, g, 3.0).state
    assert np.abs(out.q[0] - base.q[0]).max() == 0.0
    assert np.abs(out.p[0] - base.p[0]).max() == 0.0
    # while perturbing a neighbor does change agent 0
    q3 = st.q.copy()
    q3[1] += 1.0
    out2 = mid_step(NetworkState(q3, st.p.copy()), ens, g, 3.0).state
    assert np.abs(out2.q[0] - base.q[0]).max() > 0.0


def test_mid_iteration_reporting():
    g, ens, st = _network_problem(seed=11)
    rep = mid_step(st, ens, g, 2.0)
    # quadratic costs: Newton is exact after one update per agent
    assert np.all(rep.newton_iterations == 1)
    assert rep.max_residual <= numerics._RESIDUAL_TOLERANCE


def test_a_one_off_mid_step_reports_the_exact_newton_counts():
    # a step given no inverses solves exactly and forms none; its Newton
    # counts are those of the exact solver (recorded before the chord
    # correction existed). A step given zero inverses takes no chord
    # correction, so it is the same step, bitwise, and hands on inverses
    g = cycle(6)
    rng = np.random.default_rng(3)
    st = NetworkState(*rng.standard_normal((2, 6, 2)))
    ens = random_logistic_ensemble(6, 2, 10, 0.1, seed=12)
    counts = {1e-6: [2, 1, 1, 1, 1, 2], 0.3: [4, 3, 3, 3, 4, 3],
              30.0: [3, 3, 3, 3, 3, 3], 1e6: [3, 3, 2, 3, 2, 2]}
    for tau, expected in counts.items():
        rep = mid_step(st, ens, g, tau)
        assert rep.newton_iterations.tolist() == expected
        assert rep.inverses is None
        zero = mid_step(st, ens, g, tau, inverses=np.zeros((6, 2, 2)))
        assert np.array_equal(zero.state.q, rep.state.q)
        assert np.array_equal(zero.state.p, rep.state.p)
        assert np.array_equal(zero.newton_iterations, rep.newton_iterations)
        assert zero.inverses.shape == (6, 2, 2)
        assert np.isfinite(zero.inverses).all()
    with pytest.raises(DimensionMismatchError):
        mid_step(st, ens, g, 1.0, inverses=np.zeros((6, 2)))


@pytest.mark.parametrize("carried", ["zero", "far-off"])
def test_a_mid_step_with_a_wrong_carried_inverse_meets_the_stop_test(carried):
    # inverses that do not fit the step (zeros, or those of a step from a
    # far-off state at another tau) still end every agent at the stop
    # test, at the exact step's answer within the tolerance. The residual
    # is at most the tolerance, or on its rounding floor, eps g |state|
    # (above the tolerance at tau = 1e6, where g = 1/tau + 2 + 4 tau)
    g = cycle(6)
    rng = np.random.default_rng(4)
    st = NetworkState(*rng.standard_normal((2, 6, 2)))
    ens = random_logistic_ensemble(6, 2, 10, 0.1, seed=12)
    far = NetworkState(st.q + 40.0, st.p)
    inverses = (np.zeros((6, 2, 2)) if carried == "zero" else
                mid_step(far, ens, g, 1e-3, inverses=np.zeros((6, 2, 2))).inverses)
    for tau in (1e-6, 0.3, 30.0, 1e6):
        exact = mid_step(st, ens, g, tau)
        rep = mid_step(st, ens, g, tau, inverses=inverses)
        scale = max(np.abs(st.q).max(), np.abs(exact.state.q).max())
        floor = 16 * np.finfo(float).eps * (1 / tau + 2 + 4 * tau) * scale
        assert rep.max_residual <= max(numerics._RESIDUAL_TOLERANCE, floor)
        assert np.abs(rep.state.q - exact.state.q).max() <= 1e-12
        assert np.abs(rep.state.p - exact.state.p).max() <= 1e-12 * max(1.0, tau)


def test_mid_reports_failing_agent(monkeypatch):
    # one Newton iteration cannot solve a logistic cost's step
    g = cycle(6)
    ens = random_logistic_ensemble(6, 2, 10, 0.1, seed=12)
    st = _network_problem(seed=12)[2]
    monkeypatch.setattr(numerics, "_MAX_ITERATIONS", 1)
    with pytest.raises(MaxIterationsError) as info:
        mid_step(st, ens, g, 1.0)
    assert "agent" in str(info.value)


def test_schemes_agree_to_second_order():
    # one step of Euler, central and mixed implicit stepping differ pairwise
    # by O(tau^2): Richardson ratio between tau and tau/10 is about 100
    g, ens, st = _network_problem(seed=13)
    # the update rows carry a 1/tau term, so at tiny tau the residual floor
    # sits near 1e-12, where the correction test ends a row (solution error
    # ~1e-13, far below the O(tau^2) differences probed here)
    diffs = {}
    for tau in (1e-3, 1e-4):
        qe = euler_step(st, ens, g, tau).q
        qd = dg_central_step(st, ens, g, tau).state.q
        qm = mid_step(st, ens, g, tau).state.q
        diffs[tau] = (np.linalg.norm(qe - qd), np.linalg.norm(qe - qm),
                      np.linalg.norm(qd - qm))
    for a, b in zip(diffs[1e-3], diffs[1e-4]):
        if a > 1e-14:  # below that, round-off dominates the ratio
            assert 30.0 <= a / b <= 300.0


def test_parameter_free_contraction_multipliers():
    # scalar problem: the implicit midpoint multiplier stays inside the unit
    # circle for every tau, Euler's leaves it past tau = 2
    for tau in (0.1, 1.0, 10.0, 1000.0):
        mult = (1.0 - tau / 2.0) / (1.0 + tau / 2.0)
        assert abs(mult) < 1.0
    assert abs(1.0 - 3.0) > 1.0
    g, ens = _scalar_problem()
    st = NetworkState(np.array([[1.0]]), np.array([[0.0]]))
    for tau in (0.1, 1.0, 10.0, 1000.0):
        rep = mid_step(st, ens, g, tau)
        assert abs(rep.state.q[0, 0]) < 1.0
        assert rep.state.q[0, 0] == pytest.approx(
            (1.0 - tau / 2.0) / (1.0 + tau / 2.0), abs=1e-14)


def test_batched_steps_equal_single_cell_steps():
    # a (T, N, m) stack with one tau per cell steps every cell bitwise as
    # its own (N, m) call does
    g = cycle(7)
    rng = np.random.default_rng(21)
    q = rng.standard_normal((4, 7, 3))
    p = rng.standard_normal((4, 7, 3))
    taus = np.array([0.01, 0.5, 3.0, 400.0])
    for ens in (random_quadratic_ensemble(7, 3, seed=22),
                random_logistic_ensemble(7, 3, 10, 0.1, seed=22)):
        stack = NetworkState(q, p)
        mid = mid_step(stack, ens, g, taus)
        dg = dg_central_step(stack, ens, g, taus)
        euler = euler_step(stack, ens, g, taus)
        gt = gradient_tracking_step(GtState(q, p, ens.gradient_stack(q)), ens, g,
                                    taus)
        assert mid.newton_iterations.shape == (4, 7)
        assert dg.newton_iterations.shape == (4, 7)
        for t, tau in enumerate(taus):
            cell = NetworkState(q[t], p[t])
            one = mid_step(cell, ens, g, tau)
            assert np.array_equal(mid.state.q[t], one.state.q)
            assert np.array_equal(mid.state.p[t], one.state.p)
            assert np.array_equal(mid.newton_iterations[t], one.newton_iterations)
            one = dg_central_step(cell, ens, g, tau)
            assert np.array_equal(dg.state.q[t], one.state.q)
            assert np.array_equal(dg.state.p[t], one.state.p)
            assert np.array_equal(dg.newton_iterations[t], one.newton_iterations)
            one = euler_step(cell, ens, g, tau)
            assert np.array_equal(euler.q[t], one.q)
            assert np.array_equal(euler.p[t], one.p)
            one = gradient_tracking_step(
                GtState(q[t], p[t], ens.gradient_stack(q[t])), ens, g, tau)
            assert np.array_equal(gt.q[t], one.q)
            assert np.array_equal(gt.tracker[t], one.tracker)
    with pytest.raises(DimensionMismatchError):
        mid_step(NetworkState(q, p), ens, g, taus[:3])
    with pytest.raises(DimensionMismatchError):
        dg_central_step(NetworkState(q, p), ens, g, taus[:3])


def test_batched_mid_failure_names_the_first_failing_cell(monkeypatch):
    # with one Newton iteration, mid at tau = 1e4 fails in the second step
    # of this run and dg at tau = 1e-4 in the first: one exact Newton step
    # leaves their residuals on a rounding floor above the tolerance. The
    # stack reports that cell and the very error its own step raises
    g = cycle(10)
    ens = random_quadratic_ensemble(10, 3, seed=42)
    q0 = np.random.default_rng(7).standard_normal((10, 3))
    start = NetworkState(q0, np.zeros_like(q0))
    second = mid_step(start, ens, g, 1e4).state
    monkeypatch.setattr(numerics, "_MAX_ITERATIONS", 1)
    for step, stalls, tau in ((mid_step, second, 1e4),
                              (dg_central_step, start, 1e-4)):
        with pytest.raises(MaxIterationsError) as alone:
            step(stalls, ens, g, tau)
        stack = NetworkState(np.stack([start.q, stalls.q, stalls.q]),
                             np.stack([start.p, stalls.p, stalls.p]))
        with pytest.raises(MaxIterationsError) as batched:
            step(stack, ens, g, np.array([1.0, tau, tau]))
        assert batched.value.cell == 1
        assert str(batched.value) == str(alone.value)
        assert batched.value.residual_norm == alone.value.residual_norm


def _step_kind(kind, state, ens, g, tau, plan=None):
    """(state, Newton iterations or None) after one `kind` step."""
    if kind in ("mid", "dg"):
        step = mid_step if kind == "mid" else dg_central_step
        rep = step(state, ens, g, tau, plan=plan)
        return rep.state, rep.newton_iterations
    step = euler_step if kind == "euler" else gradient_tracking_step
    return step(state, ens, g, tau, plan=plan), None


def _blocks(state):
    if isinstance(state, GtState):
        return state.q, state.tracker, state.grad
    return state.q, state.p


@pytest.mark.parametrize("kind", ["mid", "dg", "euler", "gt"])
def test_a_plan_built_once_steps_as_one_off_calls(kind):
    # k steps that share one plan are bitwise k calls that build their own,
    # on a stack of cells and on a single state, for both cost families
    g = cycle(7)
    rng = np.random.default_rng(31)
    q = rng.standard_normal((3, 7, 3))
    p = rng.standard_normal((3, 7, 3))
    taus = (np.array([0.02, 0.07, 0.1]) if kind in ("euler", "gt")
            else np.array([0.05, 2.0, 300.0]))
    for ens in (random_quadratic_ensemble(7, 3, seed=32),
                random_logistic_ensemble(7, 3, 10, 0.1, seed=32)):
        for state, tau in (((q, p), taus), ((q[1], p[1]), float(taus[1]))):
            state = (GtState(*state, ens.gradient_stack(state[0])) if kind == "gt"
                     else NetworkState(*state))
            plan = step_plan(kind, g, tau, state.q.shape)
            planned = one_off = state
            for _ in range(6):
                planned, planned_iters = _step_kind(kind, planned, ens, g, None, plan)
                one_off, one_off_iters = _step_kind(kind, one_off, ens, g, tau)
                for a, b in zip(_blocks(planned), _blocks(one_off)):
                    assert np.array_equal(a, b)
                assert np.array_equal(planned_iters, one_off_iters)


def test_plans_are_checked_against_their_step():
    g, ens, st = _network_problem()
    plan = step_plan("mid", g, 2.0, st.q.shape)
    with pytest.raises(ValueError):
        mid_step(st, ens, g, 2.0, plan=plan)  # tau and a plan
    with pytest.raises(ValueError):
        dg_central_step(st, ens, g, None, plan=plan)  # another scheme's plan
    with pytest.raises(ValueError):
        mid_step(st, ens, cycle(6), None, plan=plan)  # another graph
    stack = NetworkState(st.q[None], st.p[None])
    with pytest.raises(DimensionMismatchError):
        mid_step(stack, ens, g, None, plan=plan)  # another state shape
    with pytest.raises(DimensionMismatchError):
        plan.keep([0])  # a single state's plan has no cells
    with pytest.raises(DimensionMismatchError):
        step_plan("euler", g, 2.0, (7, 2))
    with pytest.raises(ValueError):
        step_plan("gt", g, np.array([1.0, -1.0]), (2, 6, 2))


def test_a_cut_mid_batch_keeps_its_survivors_bitwise(monkeypatch):
    # the first step runs with the default solver and the later ones with
    # one Newton iteration, so mid at tau = 1e4 fails in the second step
    # of this start (see test_batched_mid_failure_names_the_first_failing_cell);
    # the batch drops that cell and every later one, plan and state alike,
    # and the cells it keeps step on exactly as they do alone
    g = cycle(10)
    ens = random_quadratic_ensemble(10, 3, seed=42)
    q0 = np.random.default_rng(7).standard_normal((10, 3))
    taus = np.array([0.3, 1.0, 1e4, 2.0])
    state = NetworkState(np.repeat(q0[None], 4, 0), np.zeros((4, 10, 3)))
    plan = step_plan("mid", g, taus, state.q.shape)
    alone = [NetworkState(q0, np.zeros_like(q0)) for _ in taus[:2]]
    cuts = []
    for k in range(8):
        if k == 1:
            monkeypatch.setattr(numerics, "_MAX_ITERATIONS", 1)
        try:
            state = mid_step(state, ens, g, None, plan=plan).state
        except MaxIterationsError as exc:
            cuts.append((k, exc.cell))
            state, plan = harness._keep(state, plan, slice(exc.cell))
            state = mid_step(state, ens, g, None, plan=plan).state
        alone = [mid_step(one, ens, g, tau).state
                 for one, tau in zip(alone, taus)]
        for t, one in enumerate(alone):
            assert np.array_equal(state.q[t], one.q)
            assert np.array_equal(state.p[t], one.p)
    assert cuts == [(1, 2)] and plan.shape == (2, 10, 3)


def test_metropolis_weights_doubly_stochastic():
    for g in (cycle(5), erdos_renyi(8, 0.5, seed=14)):
        w = metropolis_weights(g)
        assert np.abs(w - w.T).max() == 0.0
        assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-15
        assert w.min() >= 0.0


def test_gradient_tracking_single_agent_is_gradient_descent():
    g, ens = _scalar_problem()
    gt = gradient_tracking_init(np.array([[2.0]]), ens)
    tau = 0.3
    out = gradient_tracking_step(gt, ens, g, tau)
    assert out.q[0, 0] == pytest.approx(2.0 - tau * 2.0, abs=1e-15)


def test_gradient_tracking_conserves_tracker_sum():
    g, ens, st = _network_problem(seed=15)
    gt = gradient_tracking_init(st.q, ens)
    for _ in range(25):
        gt = gradient_tracking_step(gt, ens, g, 0.05)
        expected = ens.gradient_stack(gt.q).sum(axis=0)
        assert np.abs(gt.tracker.sum(axis=0) - expected).max() <= 1e-9


def test_gradient_tracking_converges_small_tau():
    g = cycle(6)
    ens = random_quadratic_ensemble(6, 2, seed=16)
    theta = ens.centralized_optimum()
    rng = np.random.default_rng(17)
    gt = gradient_tracking_init(rng.standard_normal((6, 2)), ens)
    for _ in range(4000):
        gt = gradient_tracking_step(gt, ens, g, 0.01)
    assert np.linalg.norm(gt.q - theta[None, :]) <= 1e-6


def test_gt_state_validation():
    with pytest.raises(ValueError):
        GtState(np.zeros((2, 2)), np.zeros((3, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        GtState(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((3, 2)))


@pytest.mark.parametrize("spec", ["cycle:10", "star:6"])
def test_gradient_tracking_carries_the_gradient_bitwise(spec):
    # 200 steps that carry grad f(q) from step to step are bitwise the
    # steps that evaluate it again, on a stack of cells and on one state,
    # for both cost families
    g = graphs.from_spec(spec)
    rng = np.random.default_rng(41)
    for ens in (random_quadratic_ensemble(g.n, 3, seed=42),
                random_logistic_ensemble(g.n, 3, 10, 0.1, seed=42)):
        for q0, tau in ((rng.standard_normal((3, g.n, 3)),
                         np.array([0.01, 0.05, 0.1])),
                        (rng.standard_normal((g.n, 3)), 0.05)):
            gt = gradient_tracking_init(q0, ens)
            q, tracker = gt.q, gt.tracker
            for _ in range(200):
                gt = gradient_tracking_step(gt, ens, g, tau)
                q, tracker = two_gradient_tracking_step(
                    q, tracker, ens, g, np.asarray(tau)[..., None, None])
                assert np.array_equal(gt.q, q)
                assert np.array_equal(gt.tracker, tracker)
                assert np.array_equal(gt.grad, ens.gradient_stack(q))
