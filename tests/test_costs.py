import numpy as np
import pytest

from phmid.costs import (CostEnsemble, QuadraticCost, _sigmoid as sigmoid,
                         from_spec, random_logistic_ensemble,
                         random_quadratic_ensemble)
from phmid.numerics import DimensionMismatchError, NonSymmetricError

from oracles import (QuadraticAgent, _sigmoid, agents, logistic_ensemble_arrays,
                     quadratic_ensemble_stacks, value_sum)


def test_quadratic_identity_cost():
    c, = agents(CostEnsemble.quadratic(np.eye(3)[None], np.zeros((1, 3))))
    theta = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(c.gradient(theta), theta)
    assert c.value(np.zeros(3)) == 0.0
    assert np.array_equal(c.hessian(theta), np.eye(3))


def test_quadratic_rejects_indefinite():
    with pytest.raises(ValueError):
        CostEnsemble.quadratic(np.diag([1.0, -0.1])[None], np.zeros((1, 2)))


def test_logistic_value_at_zero():
    # exp(0) = 1 in every margin, so each point contributes log 2
    c = agents(CostEnsemble.logistic(np.tile([[0.5], [-1.0], [2.0]], (10, 1, 1)),
                                     np.tile([1.0, -1.0, 1.0], (10, 1)), reg=0.1))[0]
    assert c.value(np.zeros(2)) == pytest.approx(3 * np.log(2.0), rel=1e-15)


def test_logistic_validation():
    with pytest.raises(ValueError):
        CostEnsemble.logistic(np.zeros((10, 2, 1)), np.tile([1.0, 0.5], (10, 1)), 0.1)
    with pytest.raises(ValueError):
        CostEnsemble.logistic(np.zeros((10, 2, 1)), np.tile([1.0, -1.0], (10, 1)), 0.0)


def _finite_difference_gradient(cost, theta, step=1e-6):
    g = np.zeros_like(theta)
    for k in range(theta.size):
        delta = np.zeros_like(theta)
        delta[k] = step
        g[k] = (cost.value(theta + delta) - cost.value(theta - delta)) / (2 * step)
    return g


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    quad = agents(random_quadratic_ensemble(3, 4, seed=2))
    logi = agents(random_logistic_ensemble(3, 3, 8, 0.1, seed=2))
    for cost in quad + logi:
        for _ in range(5):
            theta = rng.standard_normal(cost.dim)
            g = cost.gradient(theta)
            fd = _finite_difference_gradient(cost, theta)
            assert np.linalg.norm(g - fd) <= 1e-5 * (1 + np.linalg.norm(g))


def test_hessians_match_finite_differences():
    rng = np.random.default_rng(2)
    for cost in agents(random_logistic_ensemble(2, 3, 6, 0.2, seed=7)):
        theta = rng.standard_normal(cost.dim)
        h = cost.hessian(theta)
        assert np.abs(h - h.T).max() == 0.0
        step = 1e-6
        for k in range(cost.dim):
            delta = np.zeros(cost.dim)
            delta[k] = step
            col = (cost.gradient(theta + delta) - cost.gradient(theta - delta)) / (2 * step)
            assert np.linalg.norm(h[:, k] - col) <= 1e-5 * (1 + np.linalg.norm(col))


def test_logistic_stacks_are_validated_like_single_costs():
    points = np.zeros((2, 3, 1))
    labels = np.array([[1.0, -1.0, 1.0], [-1.0, -1.0, 1.0]])
    assert len(CostEnsemble.logistic(points, labels, 0.1).costs) == 2
    bad = points.copy()
    bad[1, 2, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        CostEnsemble.logistic(bad, labels, 0.1)
    with pytest.raises(DimensionMismatchError):
        CostEnsemble.logistic(points, labels[:, :2], 0.1)
    with pytest.raises(DimensionMismatchError):
        CostEnsemble.logistic(points[0], labels[0], 0.1)
    with pytest.raises(ValueError, match="at least one data point"):
        CostEnsemble.logistic(points[:, :0], labels[:, :0], 0.1)
    with pytest.raises(ValueError, match="at least one cost"):
        CostEnsemble.logistic(points[:0], labels[:0], 0.1)
    bad = labels.copy()
    bad[1, 0] = 0.0
    with pytest.raises(ValueError, match="-1 or \\+1"):
        CostEnsemble.logistic(points, bad, 0.1)
    for reg in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="reg must be > 0"):
            CostEnsemble.logistic(points, labels, reg)


def test_ensemble_constants_quadratic():
    ens = CostEnsemble.quadratic(np.diag([1.0, 3.0])[None], np.zeros((1, 2)))
    mu, lip = ens.mu, ens.lipschitz
    assert mu == pytest.approx(1.0, abs=1e-12)
    assert lip == pytest.approx(3.0, abs=1e-12)


def test_ensemble_constants_logistic():
    ens = random_logistic_ensemble(10, 3, 10, 0.1, seed=42)
    assert ens.mu == pytest.approx(0.1 / 10, rel=1e-15)
    # the Lipschitz bound dominates sampled Hessian eigenvalues
    rng = np.random.default_rng(5)
    for cost in agents(ens):
        for _ in range(10):
            theta = rng.standard_normal(3)
            top = np.linalg.eigvalsh(cost.hessian(theta))[-1]
            assert top <= ens.lipschitz + 1e-10


def test_centralized_optimum_identity_hessians():
    # all f_i = |theta|^2/2 + b_i . theta  =>  theta* = -mean(b_i)
    rng = np.random.default_rng(8)
    bs = rng.standard_normal((5, 3))
    ens = CostEnsemble.quadratic(np.tile(np.eye(3), (5, 1, 1)), bs)
    theta = ens.centralized_optimum()
    assert np.linalg.norm(theta + bs.mean(axis=0)) <= 1e-10


def test_centralized_optimum_symmetric_logistic_data():
    # four-fold symmetric data: for every (point, label) the ensemble also
    # holds (-point, -label), (point, -label) and (-point, label); the
    # summed logistic gradient then cancels exactly at zero
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((6, 2))
    ens = CostEnsemble.logistic(np.stack([pts, -pts, pts, -pts]),
                                np.stack([np.ones(6), -np.ones(6),
                                          -np.ones(6), np.ones(6)]), 0.1)
    theta = ens.centralized_optimum()
    assert np.linalg.norm(theta) <= 1e-10
    # cross-check with an independent gradient-descent oracle
    x = np.full(3, 0.7)
    for _ in range(4000):
        x = x - 0.05 * ens.gradient_sum(x)
    assert np.linalg.norm(x - theta) <= 1e-6


def test_centralized_optimum_is_local_minimum():
    rng = np.random.default_rng(10)
    for ens in (random_quadratic_ensemble(4, 3, seed=11),
                random_logistic_ensemble(4, 3, 6, 0.1, seed=11)):
        theta = ens.centralized_optimum()
        base = value_sum(ens, theta)
        for _ in range(20):
            d = rng.standard_normal(theta.size)
            d /= np.linalg.norm(d)
            assert base <= value_sum(ens, theta + 0.01 * d) + 1e-12


def test_centralized_optimum_converges_at_a_huge_cost_scale():
    # at point scale 1e6 the summed gradient's rounding floor lies far
    # above the 1e-12 tolerance; the solve ends on the correction test,
    # with the sum at rounding level of its terms
    ens = from_spec("logistic:3:10:0.1:42:1e6", 20)
    theta = ens.centralized_optimum()
    grads = ens.gradient_stack(np.repeat(theta[None], 20, axis=0))
    assert np.linalg.norm(grads.sum(axis=0)) <= 1e-12 * np.abs(grads).sum()


def test_strong_monotonicity_and_lipschitz():
    rng = np.random.default_rng(12)
    quad = random_quadratic_ensemble(3, 3, seed=13)
    logi = random_logistic_ensemble(3, 3, 8, 0.1, seed=13)
    for ens in (quad, logi):
        for cost in agents(ens):
            for _ in range(20):
                u = rng.standard_normal(cost.dim)
                v = rng.standard_normal(cost.dim)
                du = cost.gradient(v) - cost.gradient(u)
                gap = (v - u) @ du
                assert gap >= ens.mu * np.sum((v - u) ** 2) - 1e-10
                assert np.linalg.norm(du) <= ens.lipschitz * np.linalg.norm(v - u) + 1e-10


def test_bregman_lower_bound():
    rng = np.random.default_rng(14)
    ens = random_logistic_ensemble(5, 3, 8, 0.3, seed=15)
    star = ens.centralized_optimum()
    f_star = value_sum(ens, star)
    g_star = ens.gradient_sum(star)
    total_mu = ens.mu * ens.n_agents  # each local cost contributes its floor
    for _ in range(30):
        x = star + rng.standard_normal(3)
        breg = value_sum(ens, x) - f_star - g_star @ (x - star)
        assert breg >= total_mu / 2 * np.sum((x - star) ** 2) - 1e-10


def test_gradient_stack_matches_per_agent():
    for ens in (random_quadratic_ensemble(4, 3, seed=16),
                random_logistic_ensemble(4, 3, 6, 0.1, seed=16)):
        rng = np.random.default_rng(17)
        q = rng.standard_normal((4, 3))
        stacked = ens.gradient_stack(q)
        rows = np.stack([c.gradient(q[i]) for i, c in enumerate(agents(ens))])
        assert np.abs(stacked - rows).max() <= 1e-14
        hs = ens.hessian_stack(q)
        hrows = np.stack([c.hessian(q[i]) for i, c in enumerate(agents(ens))])
        assert np.abs(hs - hrows).max() <= 1e-14


def test_stacks_broadcast_over_leading_axes():
    # leading axes (the cells of a sweep) evaluate slice by slice, bitwise
    rng = np.random.default_rng(18)
    for ens in (random_quadratic_ensemble(4, 3, seed=19),
                random_logistic_ensemble(4, 3, 6, 0.1, seed=19)):
        q = rng.standard_normal((2, 3, ens.n_agents, 3))
        grads = ens.gradient_stack(q)
        hessians = ens.hessian_stack(q)
        assert grads.shape == q.shape
        assert hessians.shape == q.shape + (3,)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(grads[idx], ens.gradient_stack(q[idx]))
            assert np.array_equal(hessians[idx], ens.hessian_stack(q[idx]))


def test_random_quadratic_eigenvalue_range():
    ens = random_quadratic_ensemble(10, 3, seed=42)
    for cost in ens.costs:
        eigs = np.linalg.eigvalsh(cost.h)
        assert eigs[0] >= 0.5 - 1e-12
        assert eigs[-1] <= 3.0 + 1e-12


def test_cost_from_spec():
    ens = from_spec("quadratic:3:42", n_agents=5)
    assert ens.n_agents == 5 and ens.dim == 3
    ens2 = from_spec("logistic:3:10:0.1:7", n_agents=10)
    assert ens2.dim == 3
    assert ens2.mu == pytest.approx(0.01, rel=1e-15)
    with pytest.raises(ValueError):
        from_spec("huber:3:1", 4)


def test_dimension_mismatch_raises():
    c, = agents(CostEnsemble.quadratic(np.eye(2)[None], np.zeros((1, 2))))
    with pytest.raises(DimensionMismatchError):
        c.value(np.zeros(3))
    with pytest.raises(DimensionMismatchError):
        CostEnsemble.quadratic(np.stack([np.eye(2), np.eye(2)]), np.zeros((2, 3)))


@pytest.mark.parametrize("n, m, seed", [(1, 3, 5), (10, 3, 42), (50, 1, 3),
                                        (30, 5, 1), (200, 4, 7)])
def test_quadratic_ensemble_keeps_the_per_agent_draws(n, m, seed):
    # the stacked build draws and rounds exactly as the agent-by-agent loop
    h, b = quadratic_ensemble_stacks(n, m, seed)
    ens = random_quadratic_ensemble(n, m, seed)
    assert np.array_equal(np.stack([c.h for c in ens.costs]), h)
    assert np.array_equal(np.stack([c.b for c in ens.costs]), b)
    one_by_one = [QuadraticAgent(h_i, b_i) for h_i, b_i in zip(h, b)]
    bounds = [c.curvature_bounds() for c in one_by_one]
    assert (ens.mu, ens.lipschitz) == (min(lo for lo, _ in bounds),
                                       max(hi for _, hi in bounds))
    assert [c.curvature_bounds() for c in agents(ens)] == bounds
    assert np.array_equal(ens.centralized_optimum(),
                          CostEnsemble.quadratic(h, b).centralized_optimum())


@pytest.mark.parametrize("n, m, d, seed, scale", [
    (1, 3, 10, 42, 1.0), (10, 3, 10, 42, 2.7), (10, 2, 10, 5, 1.0),
    (7, 5, 1, 1, 0.5), (20, 4, 25, 9, 3.0), (1000, 3, 10, 42, 1.0)])
def test_logistic_ensemble_keeps_the_per_agent_draws(n, m, d, seed, scale):
    # the points and labels are bitwise those of the agent-by-agent loop,
    # and so are the constants and theta* built from them
    points, labels = logistic_ensemble_arrays(n, m, d, seed, point_scale=scale)
    ens = random_logistic_ensemble(n, m, d, 0.1, seed, point_scale=scale)
    want = CostEnsemble.logistic(points, labels, 0.1)
    assert np.array_equal(np.stack([c.points for c in ens.costs]), points)
    assert np.array_equal(np.stack([c.labels for c in ens.costs]), labels)
    assert (ens.mu, ens.lipschitz) == (want.mu, want.lipschitz)
    assert np.array_equal(ens.centralized_optimum(), want.centralized_optimum())


def test_sigmoid_keeps_the_branch_arithmetic():
    # one exp(-|t|) for both branches: the same bits as exponentiating each
    # branch on its own, at signed zeros, infinities, NaN and the tails
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 36.9,
               -36.9, 709.0, -709.0, 745.0, -745.0, 800.0, -800.0]
    t = np.concatenate([special, np.random.default_rng(0).standard_normal(999) * 40])
    got, want = sigmoid(t), _sigmoid(t)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got[~np.isnan(got)]),
                          np.signbit(want[~np.isnan(want)]))
    assert np.array_equal(sigmoid(t.reshape(3, 2, -1)), want.reshape(3, 2, -1),
                          equal_nan=True)


def test_quadratic_ensemble_builds_no_per_agent_cost_until_asked(monkeypatch):
    # the random ensemble is built from its stacks: no per-agent object or
    # curvature bound is made unless `costs` is read
    want = random_quadratic_ensemble(40, 3, seed=8)
    theta = want.centralized_optimum()

    def per_agent(*args):
        raise AssertionError("a per-agent cost was built")

    with monkeypatch.context() as patched:
        patched.setattr(QuadraticCost, "__init__", per_agent)
        ens = random_quadratic_ensemble(40, 3, seed=8)
        assert (ens.n_agents, ens.dim) == (40, 3)
        assert (ens.mu, ens.lipschitz) == (want.mu, want.lipschitz)
        assert np.array_equal(ens.centralized_optimum(), theta)
        blocks = ens.hessian_blocks()
        blocks[0] = 0.0  # a copy, not the ensemble's own stack
        assert np.array_equal(ens.hessian_blocks(), want.hessian_blocks())
    assert np.array_equal(np.stack([c.h for c in ens.costs]), want.hessian_blocks())
    assert ens.costs is ens.costs


def test_quadratic_stacks_are_validated_like_single_costs():
    h = np.stack([np.eye(2), np.diag([1.0, 2.0]), np.eye(2)])
    b = np.zeros((3, 2))
    assert len(CostEnsemble.quadratic(h, b).costs) == 3
    bad = h.copy()
    bad[1] = np.diag([1.0, -0.5])
    with pytest.raises(ValueError, match="positive definite"):
        CostEnsemble.quadratic(bad, b)
    bad = h.copy()
    bad[2, 0, 1] = 1e-3
    with pytest.raises(NonSymmetricError):
        CostEnsemble.quadratic(bad, b)
    # each Hessian is held to its own scale, not to the stack's largest
    bad = h.copy()
    bad[0] *= 1e6
    bad[2, 0, 1] = 1e-8
    with pytest.raises(NonSymmetricError):
        CostEnsemble.quadratic(bad[2:], b[2:])
    with pytest.raises(NonSymmetricError):
        CostEnsemble.quadratic(bad, b)
    bad = h.copy()
    bad[0, 1, 1] = np.nan
    with pytest.raises(ValueError):
        CostEnsemble.quadratic(bad, b)
    with pytest.raises(DimensionMismatchError):
        CostEnsemble.quadratic(h, np.zeros((3, 3)))
    with pytest.raises(DimensionMismatchError):
        CostEnsemble.quadratic(np.eye(2)[None], np.zeros((1, 3)))
