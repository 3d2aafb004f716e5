import itertools

import numpy as np
import pytest

from phmid import numerics
from phmid.numerics import (DimensionMismatchError, MaxIterationsError,
                            NonSymmetricError, SingularMatrixError, _row_norms,
                            newton_solve)

from oracles import (discrete_gradient, is_psd, kron, min_eigenvalue_symmetric,
                     solve_linear)


def test_solve_identity():
    x = solve_linear(np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(x, [1.0, 2.0, 3.0])


def test_solve_diagonal():
    x = solve_linear(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
    assert np.allclose(x, [1.0, 2.0], atol=0)


def test_solve_recovers_known_solution():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 5)) + 5 * np.eye(5)  # well conditioned
    x_true = rng.standard_normal(5)
    b = a @ x_true
    x = solve_linear(a, b)
    assert np.linalg.norm(x - x_true) <= 1e-9


def test_solve_residual_contract():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        x = solve_linear(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * (1 + np.linalg.norm(b))


def test_solve_singular_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError):
        solve_linear(a, np.array([1.0, 1.0]))


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        solve_linear(np.eye(3), np.array([1.0, 2.0]))
    with pytest.raises(DimensionMismatchError):
        solve_linear(np.ones((2, 3)), np.array([1.0, 2.0]))


def test_min_eigenvalue_examples():
    assert min_eigenvalue_symmetric(np.eye(4)) == pytest.approx(1.0, abs=1e-10)
    # closed form eigenvalues of [[2,1],[1,2]] are {1, 3}
    assert min_eigenvalue_symmetric([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx(1.0, abs=1e-10)
    assert min_eigenvalue_symmetric(np.diag([-1.0, 5.0])) == pytest.approx(-1.0, abs=1e-10)


def test_min_eigenvalue_rejects_nonsymmetric():
    with pytest.raises(NonSymmetricError):
        min_eigenvalue_symmetric([[0.0, 1.0], [0.0, 0.0]])


def test_is_psd_examples():
    assert is_psd(np.zeros((3, 3)), 0.0)
    assert is_psd(np.diag([1.0, -1e-12]), 1e-10)
    # D^2 - A^2 of the 4-star has eigenvalues {6, -2, 1, 1}
    star_d2a2 = np.array([[6.0, 0.0, 0.0, 0.0],
                          [0.0, 0.0, -1.0, -1.0],
                          [0.0, -1.0, 0.0, -1.0],
                          [0.0, -1.0, -1.0, 0.0]])
    assert not is_psd(star_d2a2, 1e-10)
    assert min_eigenvalue_symmetric(star_d2a2) == pytest.approx(-2.0, abs=1e-10)


def _char_poly_min_root(s):
    """Independent eigenvalue oracle via characteristic polynomial roots."""
    n = s.shape[0]
    if n == 2:
        a, b, c = s[0, 0], s[0, 1], s[1, 1]
        disc = np.sqrt((a - c) ** 2 + 4 * b * b)
        return (a + c - disc) / 2
    tr = np.trace(s)
    minors = sum(s[i, i] * s[j, j] - s[i, j] ** 2
                 for i in range(n) for j in range(i + 1, n))
    det = np.linalg.det(s)
    roots = np.roots([1.0, -tr, minors, -det])
    return float(np.min(roots.real))


def test_is_psd_against_char_poly_oracle_2x2():
    vals = [-2, -1, 0, 1, 2]
    for a, b, c in itertools.product(vals, repeat=3):
        s = np.array([[a, b], [b, c]], dtype=float)
        assert is_psd(s, 1e-9) == (_char_poly_min_root(s) >= -1e-9)


def test_is_psd_against_char_poly_oracle_3x3():
    vals = [-2, -1, 0, 1, 2]
    for a, b, c, d, e, f in itertools.product(vals, repeat=6):
        s = np.array([[a, b, c], [b, d, e], [c, e, f]], dtype=float)
        assert is_psd(s, 1e-9) == (_char_poly_min_root(s) >= -1e-9)


def test_newton_linear_residual():
    x, _, _ = newton_solve(lambda x: x, lambda x: np.eye(1), np.array([5.0]))
    assert abs(x[0]) <= 1e-12


def test_newton_cube_root():
    x, _, _ = newton_solve(lambda x: x ** 3 - 8.0,
                           lambda x: np.array([[3.0 * x[0] ** 2]]),
                           np.array([3.0]))
    assert abs(x[0] - 2.0) <= 1e-12


def test_newton_per_agent_reduction_matches_linear_solve():
    # residual G q + H (q + q0)/2 + c of the per-agent implicit step with a
    # quadratic cost: Newton must agree with the dense linear solve
    rng = np.random.default_rng(11)
    m = 3
    b = rng.standard_normal((m, m))
    h = b @ b.T + 0.5 * np.eye(m)
    g = 4.7 * np.eye(m)
    q0 = rng.standard_normal(m)
    c = rng.standard_normal(m)
    sol, _, _ = newton_solve(lambda q: g @ q + h @ ((q + q0) / 2) + c,
                             lambda q: g + h / 2,
                             q0)
    direct = solve_linear(g + h / 2, -(h @ q0 / 2 + c))
    assert np.linalg.norm(sol - direct) <= 1e-10


def test_newton_strongly_convex_from_far_start():
    # gradient of a strongly convex function: globally convergent with damping
    rng = np.random.default_rng(12)
    for trial in range(5):
        m = int(rng.integers(1, 5))
        b = rng.standard_normal((m, m))
        h = b @ b.T + 0.3 * np.eye(m)
        lin = rng.standard_normal(m)

        def grad(x):
            return h @ x + lin + 0.2 * np.tanh(x)

        def hess(x):
            return h + np.diag(0.2 / np.cosh(x) ** 2)

        x0 = 100.0 * rng.standard_normal(m)
        x, _, _ = newton_solve(grad, hess, x0)
        assert np.linalg.norm(grad(x)) <= 1e-12


def _arctan_problem(c, calls):
    """Row-wise residual arctan(x - c), whose full Newton step overshoots
    far from the root, and its Jacobian; `calls` counts residuals."""
    def residual(x):
        calls.append(1)
        return np.arctan(x - c)

    def jacobian(x):
        return np.eye(c.shape[-1]) / (1.0 + (x - c) ** 2)[..., None, :]

    return residual, jacobian


def test_newton_rows_that_halve_and_rows_that_do_not_match_their_own_solves():
    # every row's iterate, Newton count and residual is bitwise that row
    # solved alone, whether the batch takes full steps (all rows accept)
    # or masks them (some rows halve, or are already done)
    rng = np.random.default_rng(5)
    c = rng.standard_normal((6, 2))
    near = c + 0.3 * rng.standard_normal((6, 2))
    far = near.copy()
    far[[1, 4]] += 6.0  # the full step overshoots: these rows halve
    done = far.copy()
    done[2] = c[2]  # a zero residual: done before the first step
    halved = []
    for x0 in (near, far, done):
        x, iters, rnorm = newton_solve(*_arctan_problem(c, []), x0)
        assert np.all(rnorm <= 1e-12)
        for i in range(len(c)):
            calls = []
            xi, it, ri = newton_solve(*_arctan_problem(c[i], calls), x0[i])
            assert np.array_equal(x[i], xi)
            assert iters[i] == it and rnorm[i] == ri
            if len(calls) > 1 + it:
                halved.append(i)
    assert sorted(set(halved)) == [1, 4]
    assert iters[2] == 0


def _linear_rows(a, b, jacobians):
    """Rows a_i x_i = b_i; `jacobians` counts Jacobian evaluations."""
    def residual(x):
        return np.einsum("...ij,...j->...i", a, x) - b

    def jacobian(x):
        jacobians.append(1)
        return a

    return residual, jacobian


def test_a_carried_exact_inverse_solves_in_one_chord_correction():
    # linear rows: the chord correction with the exact inverse is a Newton
    # step, so no Jacobian is evaluated and every row keeps its inverse
    rng = np.random.default_rng(8)
    b_mat = rng.standard_normal((5, 3, 3))
    a = b_mat @ b_mat.transpose(0, 2, 1) + np.eye(3)
    b = rng.standard_normal((5, 3))
    x0 = rng.standard_normal((5, 3))
    inverses = np.linalg.inv(a)
    jacobians = []
    x, iters, rnorm, kept = newton_solve(*_linear_rows(a, b, jacobians), x0,
                                         inverses=inverses)
    assert jacobians == [] and kept is inverses
    assert np.all(iters == 1) and np.all(rnorm <= 1e-12)
    assert np.abs(x - np.linalg.solve(a, b[..., None])[..., 0]).max() <= 1e-14


def test_a_zero_inverse_carries_nothing():
    # no chord correction is taken with a zero inverse: the solve is the
    # exact one, bitwise and with the same Newton counts, and every row
    # that took an exact step gets the inverse of its last Jacobian
    rng = np.random.default_rng(9)
    c = rng.standard_normal((6, 2))
    x0 = c + 0.3 * rng.standard_normal((6, 2))
    x0[[1, 4]] += 6.0  # rows that halve
    x0[2] = c[2]  # a row done at x0: it keeps its carried inverse
    x, iters, rnorm = newton_solve(*_arctan_problem(c, []), x0)
    carried = np.zeros((6, 2, 2))
    xc, itc, rnc, out = newton_solve(*_arctan_problem(c, []), x0,
                                     inverses=carried)
    assert np.array_equal(x, xc) and np.array_equal(iters, itc)
    assert np.array_equal(rnorm, rnc)
    assert np.array_equal(out[2], carried[2])
    for i in (0, 1, 3, 4, 5):
        # a row solved alone evaluates its last Jacobian where the batch does
        jacs = []
        res, jac = _arctan_problem(c[i], [])
        newton_solve(res, lambda z: jacs.append(jac(z)) or jacs[-1], x0[i])
        assert np.array_equal(out[i], np.linalg.inv(jacs[-1]))


@pytest.mark.parametrize("far", [0.0, 1.0], ids=["zero", "far-off"])
def test_a_wrong_carried_inverse_still_ends_at_the_stop_test(far):
    # a zero inverse, or the inverse of the Jacobian at a far-off point,
    # on rows that start near and far from their roots: every row ends at
    # the stop test with the exact solve's answer, takes the chord
    # correction only where it lowered its residual, and leaves with the
    # inverse of its own last Jacobian
    rng = np.random.default_rng(10)
    c = rng.standard_normal((8, 2))
    x0 = c + 0.5 * rng.standard_normal((8, 2))
    x0[::3] += 4.0
    res, jac = _arctan_problem(c, [])
    carried = far * np.linalg.inv(jac(c + 2.0))
    x, iters, rnorm = newton_solve(res, jac, x0)
    xc, itc, rnc, out = newton_solve(res, jac, x0, inverses=carried)
    assert np.all(rnc <= 1e-12)
    assert np.abs(xc - x).max() <= 1e-12
    chord = x0 - np.einsum("...ij,...j->...i", carried, res(x0))
    lowered = (np.linalg.norm(res(chord), axis=-1)
               < np.linalg.norm(res(x0), axis=-1))
    assert lowered.any() == bool(far) and not lowered.all()
    for i in range(len(c)):
        # the same solve row by row: the chord is kept where it lowered
        # the residual, and the row's iterate, count and inverse are its own
        xi, it, ri, inv_i = newton_solve(*_arctan_problem(c[i], []), x0[i],
                                         inverses=carried[i])
        assert np.array_equal(xc[i], xi) and itc[i] == it and rnc[i] == ri
        assert np.array_equal(out[i], inv_i)
        if not lowered[i]:
            assert it == iters[i] and np.array_equal(xi, x[i])


def test_newton_max_iterations_carries_state(monkeypatch):
    monkeypatch.setattr(numerics, "_MAX_ITERATIONS", 2)
    with pytest.raises(MaxIterationsError) as info:
        newton_solve(lambda x: np.array([np.arctan(x[0])]),
                     lambda x: np.array([[1.0 / (1.0 + x[0] ** 2)]]),
                     np.array([50.0]))
    assert info.value.iterate is not None
    assert info.value.residual_norm > 0


def test_newton_singular_jacobian_raises():
    # rows are solved together; the error flags the row whose Jacobian
    # LAPACK reports singular
    x0 = np.array([[1.0, 1.0], [1.0, 2.0]])
    jac = np.array([np.eye(2), [[1.0, 2.0], [2.0, 4.0]]])
    with pytest.raises(SingularMatrixError) as info:
        newton_solve(lambda x: x, lambda x: jac, x0)
    assert info.value.failed.tolist() == [False, True]
    assert np.array_equal(info.value.iterate, x0)


def test_discrete_gradient_quadratic_is_midpoint():
    rng = np.random.default_rng(21)
    u = rng.standard_normal(4)
    v = rng.standard_normal(4)
    dg = discrete_gradient(lambda x: 0.5 * x @ x, lambda x: x, u, v)
    assert np.allclose(dg, (u + v) / 2, rtol=0, atol=1e-15)


def test_discrete_gradient_linear_is_constant():
    c = np.array([2.0, -3.0, 0.5])
    dg = discrete_gradient(lambda x: c @ x, lambda x: c,
                           np.zeros(3), np.array([4.0, 4.0, 4.0]))
    assert np.allclose(dg, c, rtol=0, atol=1e-14)


def test_discrete_gradient_softplus_vs_trapezoid_oracle():
    value = lambda x: float(np.logaddexp(0.0, x[0]))
    grad = lambda x: np.array([1.0 / (1.0 + np.exp(-x[0]))])
    u, v = np.array([0.0]), np.array([1.0])
    dg = discrete_gradient(value, grad, u, v)
    s = np.linspace(0.0, 1.0, 100001)
    oracle = np.trapezoid(1.0 / (1.0 + np.exp(-s)), s)
    assert abs(dg[0] - oracle) <= 1e-9
    # secant identity
    assert abs(dg[0] * (v[0] - u[0]) - (value(v) - value(u))) <= 1e-9


def test_discrete_gradient_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        discrete_gradient(lambda x: 0.0, lambda x: x, np.zeros(2), np.zeros(3))


def _random_smooth_functions(rng, dim):
    """Mixed quadratic + softplus family with analytic value/gradient."""
    b = rng.standard_normal((dim, dim))
    h = b @ b.T + 0.1 * np.eye(dim)
    lin = rng.standard_normal(dim)
    w = rng.standard_normal(dim)
    w /= np.linalg.norm(w)

    def value(x):
        return float(0.5 * x @ (h @ x) + lin @ x + np.logaddexp(0.0, w @ x))

    def grad(x):
        return h @ x + lin + w / (1.0 + np.exp(-(w @ x)))

    return value, grad


def test_discrete_gradient_secant_property():
    # exact for the quadratic part; the softplus part is resolved by the
    # 5-node rule for step-scale separations (quadrature error grows fast
    # with |w . (v - u)|, so the family keeps that below ~2)
    rng = np.random.default_rng(33)
    for _ in range(200):
        dim = int(rng.integers(1, 6))
        value, grad = _random_smooth_functions(rng, dim)
        u = rng.standard_normal(dim)
        v = u + 0.5 * rng.standard_normal(dim)
        dg = discrete_gradient(value, grad, u, v)
        assert abs(dg @ (v - u) - (value(v) - value(u))) <= 1e-8


def test_discrete_gradient_secant_exact_for_quadratics():
    rng = np.random.default_rng(36)
    for _ in range(100):
        dim = int(rng.integers(1, 6))
        b = rng.standard_normal((dim, dim))
        h = b @ b.T
        lin = rng.standard_normal(dim)
        value = lambda x: float(0.5 * x @ (h @ x) + lin @ x)
        grad = lambda x: h @ x + lin
        u = 3.0 * rng.standard_normal(dim)
        v = 3.0 * rng.standard_normal(dim)
        dg = discrete_gradient(value, grad, u, v)
        scale = 1.0 + abs(value(v) - value(u))
        assert abs(dg @ (v - u) - (value(v) - value(u))) <= 1e-12 * scale


def test_discrete_gradient_limit_property():
    rng = np.random.default_rng(34)
    for _ in range(50):
        dim = int(rng.integers(1, 6))
        value, grad = _random_smooth_functions(rng, dim)
        u = rng.standard_normal(dim)
        w = rng.standard_normal(dim)
        w /= np.linalg.norm(w)
        dg = discrete_gradient(value, grad, u, u + 1e-6 * w)
        assert np.linalg.norm(dg - grad(u)) <= 1e-5


def test_discrete_gradient_coincident_points_return_gradient():
    rng = np.random.default_rng(35)
    value, grad = _random_smooth_functions(rng, 3)
    u = rng.standard_normal(3)
    assert np.array_equal(discrete_gradient(value, grad, u, u.copy()), grad(u))


def test_kron_identity_blockdiag():
    b = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = kron(np.eye(2), b)
    expected = np.zeros((4, 4))
    expected[:2, :2] = b
    expected[2:, 2:] = b
    assert np.array_equal(out, expected)


def test_kron_swap_with_scalar_identity():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(kron(swap, np.eye(1)), swap)


def test_kron_laplacian_row_sums():
    lap3 = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
    lifted = kron(lap3, np.eye(2))
    assert np.allclose(lifted.sum(axis=1)[::2] + lifted.sum(axis=1)[1::2], 0.0,
                       atol=1e-15)
    assert np.allclose(lifted.sum(axis=1), 0.0, atol=1e-15)


def test_row_norms_are_bitwise_the_linalg_norm():
    # the solver's row norms skip np.linalg.norm's argument handling, not
    # any of its arithmetic: huge, tiny, inf and NaN rows included
    rng = np.random.default_rng(3)
    for shape in [(3,), (1000, 3), (4, 10, 3), (5, 40), (2, 0)]:
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-200, 200, shape)
        if x.size:
            x.flat[:3] = [np.inf, np.nan, 1e300]
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.linalg.norm(x, axis=-1)
            got = _row_norms(x)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
