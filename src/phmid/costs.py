"""
Per-agent strongly convex local costs, their global curvature constants
and a centralized-optimum oracle.

Two families are provided: quadratic costs (closed-form curvature) and
l2-regularized logistic losses over labeled points, where the trailing
coordinate of the decision variable acts as the bias (points are
augmented internally with a constant 1).
"""

import numpy as np

from .numerics import (DimensionMismatchError, SolverSettings, as_matrix,
                       as_vector, newton_solve, require_symmetric)


def _sigmoid(t):
    """Numerically stable logistic sigmoid."""
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


def _quadratic_stack(h, b):
    """Validated (N, m, m) Hessians and (N, m) offsets of N quadratic costs,
    with each Hessian's (smallest, largest) eigenvalue as an (N, 2) array.

    Every check runs on the whole stack at once: finite entries, matching
    shapes, symmetry and positive definiteness.
    """
    h = require_symmetric(h, name="h")
    b = np.asarray(b, dtype=float)
    if h.ndim != 3 or b.shape != h.shape[:2]:
        raise DimensionMismatchError("h and b dimensions differ")
    if not np.all(np.isfinite(b)):
        raise ValueError("b contains non-finite entries")
    eigs = np.linalg.eigvalsh(h)[:, [0, -1]]
    if not (eigs[:, 0] > 0).all():
        first = eigs[np.argmin(eigs[:, 0] > 0), 0]
        raise ValueError(f"h must be positive definite (min eig {first:.3e})")
    return h, b, eigs


class QuadraticCost:
    """f(theta) = theta' H theta / 2 + b' theta with H symmetric PD.

    One cost is validated as a stack of one (see `from_stacks`).
    """

    def __init__(self, h, b):
        h, b, eigs = _quadratic_stack(as_matrix(h, "h")[None], as_vector(b, "b")[None])
        self._set(h[0], b[0], eigs[0].tolist())

    @classmethod
    def from_stacks(cls, h, b):
        """One cost per row of (N, m, m) Hessians and (N, m) offsets, with
        the checks of a single cost run once on the whole stack."""
        h, b, eigs = _quadratic_stack(h, b)
        costs = []
        for h_i, b_i, eig_range in zip(h, b, eigs.tolist()):
            cost = cls.__new__(cls)
            cost._set(h_i, b_i, eig_range)
            costs.append(cost)
        return costs

    def _set(self, h, b, eig_range):
        self.h = h
        self.b = b
        self._eig_range = tuple(eig_range)

    @property
    def dim(self):
        return self.b.shape[0]

    def value(self, theta):
        theta = self._check(theta)
        return float(0.5 * theta @ (self.h @ theta) + self.b @ theta)

    def gradient(self, theta):
        theta = self._check(theta)
        return self.h @ theta + self.b

    def hessian(self, theta):
        self._check(theta)
        return self.h.copy()

    def curvature_bounds(self):
        """(strong convexity constant, gradient Lipschitz constant)."""
        return self._eig_range

    def _check(self, theta):
        theta = as_vector(theta, "theta")
        if theta.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"theta has dimension {theta.shape[0]}, cost expects {self.dim}")
        return theta


class LogisticCost:
    """Regularized logistic loss over labeled points.

    f(theta) = sum_k log(1 + exp(-l_k * (theta . [p_k; 1])))
               + reg * ||theta||^2 / (2 * n_agents)

    The points live in R^(m-1); the last coordinate of theta multiplies
    the constant-1 augmentation and plays the role of the bias. The
    regularizer is split by `n_agents` so that the network-wide sum of
    the local costs carries reg * ||theta||^2 / 2 exactly once.
    """

    def __init__(self, points, labels, reg, n_agents):
        points = as_matrix(points, "points")
        labels = as_vector(labels, "labels")
        if points.shape[0] != labels.shape[0]:
            raise DimensionMismatchError("points/labels row counts differ")
        if points.shape[0] < 1:
            raise ValueError("need at least one data point")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if not reg > 0:
            raise ValueError("reg must be > 0")
        if n_agents < 1:
            raise ValueError("n_agents must be >= 1")
        self.points = points
        self.labels = labels
        self.reg = float(reg)
        self.n_agents = int(n_agents)
        self.augmented = np.hstack([points, np.ones((points.shape[0], 1))])

    @property
    def dim(self):
        return self.points.shape[1] + 1

    @property
    def reg_floor(self):
        """Per-agent strong convexity floor reg / n_agents."""
        return self.reg / self.n_agents

    def value(self, theta):
        theta = self._check(theta)
        margins = self.labels * (self.augmented @ theta)
        loss = float(np.sum(np.logaddexp(0.0, -margins)))
        return loss + 0.5 * self.reg_floor * float(theta @ theta)

    def gradient(self, theta):
        theta = self._check(theta)
        margins = self.labels * (self.augmented @ theta)
        s = _sigmoid(-margins)
        return self.augmented.T @ (-self.labels * s) + self.reg_floor * theta

    def hessian(self, theta):
        theta = self._check(theta)
        margins = self.labels * (self.augmented @ theta)
        s = _sigmoid(-margins)
        w = s * (1.0 - s)
        h = (self.augmented * w[:, None]).T @ self.augmented
        h += self.reg_floor * np.eye(self.dim)
        return (h + h.T) / 2.0

    def curvature_bounds(self):
        """(reg floor, reg floor + data term bound).

        The logistic Hessian term can vanish at infinity, so only the
        regularizer is a certified lower bound; the upper bound uses the
        1/4 cap on the sigmoid derivative.
        """
        gram = self.augmented.T @ self.augmented
        data_top = float(np.linalg.eigvalsh((gram + gram.T) / 2.0)[-1])
        return self.reg_floor, self.reg_floor + 0.25 * data_top

    def _check(self, theta):
        theta = as_vector(theta, "theta")
        if theta.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"theta has dimension {theta.shape[0]}, cost expects {self.dim}")
        return theta


class CostEnsemble:
    """One local cost per agent, plus network-wide curvature constants.

    mu is the smallest certified strong-convexity constant over agents
    and `lipschitz` the largest certified gradient Lipschitz constant.
    """

    def __init__(self, costs):
        costs = list(costs)
        if not costs:
            raise ValueError("need at least one cost")
        dims = {c.dim for c in costs}
        if len(dims) != 1:
            raise DimensionMismatchError(f"costs disagree on dimension: {dims}")
        self.costs = costs
        bounds = [c.curvature_bounds() for c in costs]
        self.mu = min(b[0] for b in bounds)
        self.lipschitz = max(b[1] for b in bounds)
        if not self.mu > 0:
            raise ValueError("ensemble is not strongly convex")
        self._batch = self._build_batch()

    @property
    def n_agents(self):
        return len(self.costs)

    @property
    def dim(self):
        return self.costs[0].dim

    # -- batched per-agent evaluation (rows of `q` are the agents' points;
    # leading axes, e.g. the cells of a sweep, broadcast)

    def _build_batch(self):
        if all(isinstance(c, QuadraticCost) for c in self.costs):
            return ("quadratic",
                    np.stack([c.h for c in self.costs]),
                    np.stack([c.b for c in self.costs]))
        if (all(isinstance(c, LogisticCost) for c in self.costs)
                and len({c.points.shape for c in self.costs}) == 1):
            return ("logistic",
                    np.stack([c.augmented for c in self.costs]),
                    np.stack([c.labels for c in self.costs]),
                    self.costs[0].reg_floor)
        return None

    def gradient_stack(self, q):
        """(..., N, m) array of per-agent gradients at the rows of `q`."""
        q = np.asarray(q, dtype=float)
        if self._batch and self._batch[0] == "quadratic":
            _, h, b = self._batch
            return np.einsum("nij,...nj->...ni", h, q) + b
        if self._batch and self._batch[0] == "logistic":
            _, aug, labels, floor = self._batch
            margins = labels * np.einsum("ndm,...nm->...nd", aug, q)
            s = _sigmoid(-margins)
            return np.einsum("...nd,ndm->...nm", -labels * s, aug) + floor * q
        return self._per_agent(lambda c, theta: c.gradient(theta), q)

    def hessian_stack(self, q):
        """(..., N, m, m) array of per-agent Hessians at the rows of `q`."""
        q = np.asarray(q, dtype=float)
        if self._batch and self._batch[0] == "quadratic":
            h = self._batch[1]
            out = np.empty(q.shape[:-2] + h.shape)
            out[...] = h
            return out
        if self._batch and self._batch[0] == "logistic":
            _, aug, labels, floor = self._batch
            margins = labels * np.einsum("ndm,...nm->...nd", aug, q)
            s = _sigmoid(-margins)
            w = s * (1.0 - s)
            h = np.einsum("...nd,ndi,ndj->...nij", w, aug, aug)
            h += floor * np.eye(self.dim)
            return h
        return self._per_agent(lambda c, theta: c.hessian(theta), q)

    def _per_agent(self, evaluate, q):
        """Stack `evaluate(cost_i, q[..., i, :])` over agents and leading axes."""
        rows = q.reshape(-1, self.n_agents, self.dim)
        out = np.stack([np.stack([evaluate(c, row[i]) for i, c in enumerate(self.costs)])
                        for row in rows])
        return out.reshape(q.shape[:-2] + out.shape[1:])

    def _everywhere(self, theta):
        """`theta` as the (N, m) stack that puts it at every agent."""
        theta = as_vector(theta, "theta")
        if theta.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"theta has dimension {theta.shape[0]}, costs expect {self.dim}")
        return np.broadcast_to(theta, (self.n_agents, self.dim))

    def gradient_sum(self, theta):
        """Gradient of the summed cost at a common point."""
        return self.gradient_stack(self._everywhere(theta)).sum(axis=0)

    def hessian_blocks(self):
        """Constant per-agent Hessians (quadratic ensembles only)."""
        if not all(isinstance(c, QuadraticCost) for c in self.costs):
            raise TypeError("hessian_blocks requires a quadratic ensemble")
        return np.stack([c.h for c in self.costs])

    def centralized_optimum(self, tol=1e-12, max_iterations=100):
        """Minimizer of the summed cost via damped Newton.

        Serves as the reference oracle for the consensus error metric.
        """
        if not tol > 0:
            raise ValueError("tol must be > 0")
        settings = SolverSettings(residual_tolerance=tol,
                                  max_iterations=max_iterations)

        def hessian_sum(theta):
            return self.hessian_stack(self._everywhere(theta)).sum(axis=0)

        return newton_solve(self.gradient_sum, hessian_sum, np.zeros(self.dim),
                            settings)[0]


def random_quadratic_ensemble(n_agents, m, seed, eig_range=(0.5, 3.0)):
    """Quadratic ensemble with random SPD Hessians.

    Each H_i has eigenvalues drawn uniformly from `eig_range` with a
    random orthogonal eigenbasis; offsets b_i are standard normal.
    """
    rng = np.random.default_rng(seed)
    lo, hi = eig_range
    draws = np.empty((n_agents, m, m))
    eigs = np.empty((n_agents, m))
    b = np.empty((n_agents, m))
    for i in range(n_agents):  # the stream's order: agent by agent
        draws[i] = rng.standard_normal((m, m))
        eigs[i] = rng.uniform(lo, hi, size=m)
        b[i] = rng.standard_normal(m)
    basis, _ = np.linalg.qr(draws)
    h = (basis * eigs[:, None, :]) @ np.swapaxes(basis, -1, -2)
    return CostEnsemble(QuadraticCost.from_stacks(
        (h + np.swapaxes(h, -1, -2)) / 2.0, b))


def random_logistic_ensemble(n_agents, m, n_points, reg, seed, flip=0.1,
                             point_scale=1.0):
    """Logistic ensemble over random, non-separable labeled points.

    Points are normal with standard deviation `point_scale` in R^(m-1);
    labels come from a random ground-truth hyperplane (over the augmented
    coordinates) with a fraction `flip` of labels inverted so the
    instances are not linearly separable. `point_scale` sets the data
    curvature: larger values push explicit small-step baselines toward
    their stability edge while leaving implicit schemes unaffected.
    """
    if m < 2:
        raise ValueError("logistic costs need m >= 2 (bias coordinate)")
    if not point_scale > 0:
        raise ValueError("point_scale must be > 0")
    rng = np.random.default_rng(seed)
    truth = rng.standard_normal(m)
    costs = []
    for _ in range(n_agents):
        points = point_scale * rng.standard_normal((n_points, m - 1))
        aug = np.hstack([points, np.ones((n_points, 1))])
        labels = np.where(aug @ truth >= 0, 1.0, -1.0)
        flips = rng.random(n_points) < flip
        labels[flips] *= -1.0
        costs.append(LogisticCost(points, labels, reg, n_agents))
    return CostEnsemble(costs)


def from_spec(spec, n_agents):
    """Build a cost ensemble from a CLI spec string.

    Formats: ``quadratic:m:seed`` (random SPD Hessians, eigenvalues in
    [0.5, 3]) and ``logistic:m:d:C:seed[:scale]`` (optional trailing
    point scale, default 1).
    """
    parts = str(spec).split(":")
    kind = parts[0].lower()
    try:
        if kind == "quadratic" and len(parts) == 3:
            return random_quadratic_ensemble(n_agents, int(parts[1]), int(parts[2]))
        if kind == "logistic" and len(parts) in (5, 6):
            scale = float(parts[5]) if len(parts) == 6 else 1.0
            return random_logistic_ensemble(n_agents, int(parts[1]), int(parts[2]),
                                            float(parts[3]), int(parts[4]),
                                            point_scale=scale)
    except ValueError as exc:
        raise ValueError(f"bad cost spec {spec!r}: {exc}") from exc
    raise ValueError(f"unrecognized cost spec {spec!r}")
