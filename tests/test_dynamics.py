import numpy as np
import pytest

from phmid.costs import CostEnsemble, random_quadratic_ensemble
from phmid.dynamics import (NetworkState, bregman_lyapunov, continuous_rhs,
                            equilibrium_state)
from phmid.graphs import Graph, complete, cycle, erdos_renyi
from phmid.numerics import DimensionMismatchError

from oracles import (PhsDesign, agent_stack, compact_rhs, from_agent_stack,
                     optimality_residual, passivity_check)


def _single_agent_ensemble(m=1):
    return CostEnsemble.quadratic(np.eye(m)[None], np.zeros((1, m)))


def _random_state(rng, n, m):
    return NetworkState(rng.standard_normal((n, m)), rng.standard_normal((n, m)))


def test_network_state_validation():
    with pytest.raises(ValueError):
        NetworkState(np.array([[np.inf]]), np.array([[0.0]]))
    with pytest.raises(DimensionMismatchError):
        NetworkState(np.zeros((2, 3)), np.zeros((3, 2)))


def test_agent_stack_round_trip():
    rng = np.random.default_rng(0)
    st = _random_state(rng, 4, 3)
    back = from_agent_stack(agent_stack(st), 4, 3)
    assert np.array_equal(back.q, st.q)
    assert np.array_equal(back.p, st.p)


def test_coupling_symmetric_part_is_nsd():
    design = PhsDesign(3)
    sym = (design.coupling + design.coupling.T) / 2
    assert np.linalg.eigvalsh(sym)[-1] <= 1e-12


def test_single_agent_reduces_to_gradient_flow():
    ens = _single_agent_ensemble(2)
    g = Graph(1, [])
    st = NetworkState(np.array([[1.5, -0.5]]), np.array([[0.3, 0.7]]))
    dq, dp = continuous_rhs(st, ens, g)
    assert np.array_equal(dq, -st.q)  # -grad f(q) for f = |q|^2/2
    assert np.array_equal(dp, np.zeros((1, 2)))


def test_rhs_vanishes_at_equilibrium():
    ens = random_quadratic_ensemble(6, 2, seed=1)
    g = cycle(6)
    # p* solves the q-row linear system at q* (least squares oracle)
    theta = ens.centralized_optimum()
    q_star = np.tile(theta, (6, 1))
    grads = ens.gradient_stack(q_star)
    lap = g.laplacian()
    p_star = -np.linalg.lstsq(lap, grads, rcond=None)[0]
    dq, dp = continuous_rhs(NetworkState(q_star, p_star), ens, g)
    assert np.abs(dq).max() <= 1e-10
    assert np.abs(dp).max() <= 1e-10


def test_consensus_state_freezes_p():
    ens = random_quadratic_ensemble(5, 2, seed=2)
    g = complete(5)
    q = np.tile([0.3, -1.2], (5, 1))
    p = np.tile([2.0, 0.1], (5, 1))
    _, dp = continuous_rhs(NetworkState(q, p), ens, g)
    assert np.abs(dp).max() <= 1e-14


def test_neighbor_sum_equals_compact_form():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 4))
        g = erdos_renyi(n, 0.6, seed=int(rng.integers(10000)))
        ens = random_quadratic_ensemble(n, m, seed=int(rng.integers(10000)))
        st = _random_state(rng, n, m)
        dq1, dp1 = continuous_rhs(st, ens, g)
        dq2, dp2 = compact_rhs(st, ens, g)
        assert np.abs(dq1 - dq2).max() <= 1e-12
        assert np.abs(dp1 - dp2).max() <= 1e-12


def test_summed_rows_kill_laplacian_terms():
    # premultiplying the flow by (1' (x) I_m): only the gradient sum survives
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        g = erdos_renyi(n, 0.5, seed=int(rng.integers(10000)))
        ens = random_quadratic_ensemble(n, 2, seed=int(rng.integers(10000)))
        st = _random_state(rng, n, 2)
        dq, dp = continuous_rhs(st, ens, g)
        grads = ens.gradient_stack(st.q)
        assert np.abs(dq.sum(axis=0) + grads.sum(axis=0)).max() <= 1e-12
        assert np.abs(dp.sum(axis=0)).max() <= 1e-12


def test_optimality_residual_examples():
    ens = random_quadratic_ensemble(6, 2, seed=5)
    g = cycle(6)
    theta = ens.centralized_optimum(tol=1e-13)
    st = NetworkState(np.tile(theta, (6, 1)), np.zeros((6, 2)))
    grad_res, cons_res = optimality_residual(st, ens, g)
    assert grad_res <= 1e-10
    assert cons_res <= 1e-10

    off = NetworkState(np.tile(theta + 1.0, (6, 1)), np.zeros((6, 2)))
    grad_res, cons_res = optimality_residual(off, ens, g)
    assert cons_res == 0.0
    assert grad_res > 0.1

    g2 = Graph(2, [(0, 1)])
    ens2 = CostEnsemble.quadratic(np.ones((2, 1, 1)), np.zeros((2, 1)))
    st2 = NetworkState(np.array([[1.0], [-1.0]]), np.zeros((2, 1)))
    _, cons = optimality_residual(st2, ens2, g2)
    assert cons == pytest.approx(np.hypot(2.0, 2.0), rel=1e-15)


def test_bregman_lyapunov_examples():
    st = NetworkState(np.ones((3, 2)), np.zeros((3, 2)))
    assert bregman_lyapunov(st, st) == 0.0
    bumped = NetworkState(st.q.copy(), st.p.copy())
    bumped.q[0, 0] += 1.0
    assert bregman_lyapunov(bumped, st) == pytest.approx(0.5, abs=1e-15)
    # quadratic storage: the strong-convexity lower bound holds with equality
    rng = np.random.default_rng(6)
    other = _random_state(rng, 3, 2)
    dist_sq = np.sum((other.q - st.q) ** 2) + np.sum((other.p - st.p) ** 2)
    assert bregman_lyapunov(other, st) == pytest.approx(dist_sq / 2, rel=1e-15)


def test_passivity_examples():
    rng = np.random.default_rng(7)
    ens = random_quadratic_ensemble(4, 2, seed=8)
    g = cycle(4)
    for _ in range(20):
        st = _random_state(rng, 4, 2)
        assert passivity_check(st, ens, g) <= 1e-10
    consensus = NetworkState(np.tile([1.0, 2.0], (4, 1)), np.tile([0.5, 0.5], (4, 1)))
    assert abs(passivity_check(consensus, ens, g)) <= 1e-14
    single = NetworkState(np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]))
    ens1 = _single_agent_ensemble(2)
    assert passivity_check(single, ens1, Graph(1, [])) == 0.0


def test_coupling_symmetric_part_on_graphs():
    # symmetric part of (L (x) M) has no positive eigenvalues
    from oracles import kron
    design = PhsDesign(2)
    for g in (cycle(5), complete(4), erdos_renyi(7, 0.5, seed=9)):
        coupling = kron(g.laplacian(), design.coupling)
        sym = (coupling + coupling.T) / 2
        assert np.linalg.eigvalsh(sym)[-1] <= 1e-10


def test_equilibrium_state_closed_form():
    ens = random_quadratic_ensemble(7, 2, seed=10)
    g = erdos_renyi(7, 0.5, seed=10)
    rng = np.random.default_rng(11)
    init = _random_state(rng, 7, 2)
    eq = equilibrium_state(ens, g, initial=init)
    dq, dp = continuous_rhs(eq, ens, g)
    assert np.abs(dq).max() <= 1e-9
    assert np.abs(dp).max() <= 1e-9
    # consensus component of p matches the conserved initial one
    assert np.abs(eq.p.mean(axis=0) - init.p.mean(axis=0)).max() <= 1e-12
