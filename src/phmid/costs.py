"""
Per-agent strongly convex local costs, their global curvature constants
and a centralized-optimum oracle.

Two families are provided: quadratic costs (closed-form curvature) and
l2-regularized logistic losses over labeled points, where the trailing
coordinate of the decision variable acts as the bias (points are
augmented internally with a constant 1). An ensemble holds one family as
(N, ...) stacks, one row per agent, and evaluates every agent at once.
"""

import numpy as np

from .numerics import (DimensionMismatchError, SolverSettings, as_vector,
                       newton_solve, require_symmetric)


def _sigmoid(t):
    """Numerically stable logistic sigmoid."""
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


class NonQuadraticCostError(TypeError):
    """A quadratic-cost-only operation received another cost family."""


class QuadraticCost:
    """One agent's f(theta) = theta' H theta / 2 + b' theta: a row of its
    ensemble's stacks."""

    def __init__(self, h, b):
        self.h = h
        self.b = b


class LogisticCost:
    """One agent's regularized logistic loss: a row of its ensemble's
    stacks (see `CostEnsemble.logistic`)."""

    def __init__(self, points, labels, reg, n_agents):
        self.points = points
        self.labels = labels
        self.reg = reg
        self.n_agents = n_agents


class CostEnsemble:
    """One local cost per agent, all of one family, held as (N, ...) stacks,
    plus network-wide curvature constants.

    Build one with `quadratic` or `logistic`. mu is the smallest certified
    strong-convexity constant over agents and `lipschitz` the largest
    certified gradient Lipschitz constant.
    """

    def __init__(self, family, n_agents, dim, mu, lipschitz):
        """Shape and constants of a `family` ensemble; the family
        constructors add its stacks."""
        self._family = family
        self._n, self._dim = n_agents, dim
        self.mu = mu
        self.lipschitz = lipschitz
        self._costs = None

    @classmethod
    def quadratic(cls, h, b):
        """Quadratic costs from (N, m, m) Hessians and (N, m) offsets.

        Every check runs on the whole stack at once: finite entries,
        matching shapes, symmetry and positive definiteness. The curvature
        constants are the extreme Hessian eigenvalues.
        """
        h = require_symmetric(h, name="h")
        b = np.asarray(b, dtype=float)
        if h.ndim != 3 or b.shape != h.shape[:2]:
            raise DimensionMismatchError("h and b dimensions differ")
        if not np.all(np.isfinite(b)):
            raise ValueError("b contains non-finite entries")
        n_agents, dim = b.shape
        if n_agents < 1:
            raise ValueError("need at least one cost")
        if dim < 1:
            raise ValueError("costs need dimension m >= 1")
        eigs = np.linalg.eigvalsh(h)[:, [0, -1]]
        if not (eigs[:, 0] > 0).all():
            first = eigs[np.argmin(eigs[:, 0] > 0), 0]
            raise ValueError(f"h must be positive definite (min eig {first:.3e})")
        ensemble = cls(QuadraticCost, n_agents, dim, float(eigs[:, 0].min()),
                       float(eigs[:, 1].max()))
        ensemble._h, ensemble._b = h, b
        return ensemble

    @classmethod
    def logistic(cls, points, labels, reg):
        """Regularized logistic losses over (N, d, m-1) points and (N, d)
        labels, one row of each per agent.

        Agent i's cost is

            f_i(theta) = sum_k log(1 + exp(-l_ik * (theta . [p_ik; 1])))
                         + reg * ||theta||^2 / (2 N)

        The last coordinate of theta multiplies the constant-1
        augmentation and plays the role of the bias. The regularizer is
        split over the N agents, so the network-wide sum carries
        reg * ||theta||^2 / 2 exactly once. The checks: finite points,
        matching shapes, at least one point, labels -1 or +1, reg > 0.

        Only the regularizer floor reg / N is a certified strong
        convexity constant (the data term can vanish at infinity); the
        Lipschitz bound adds a quarter of the largest eigenvalue of each
        agent's augmented Gram matrix, the 1/4 cap on the sigmoid
        derivative.
        """
        points = np.asarray(points, dtype=float)
        labels = np.asarray(labels, dtype=float)
        if points.ndim != 3 or labels.shape != points.shape[:2]:
            raise DimensionMismatchError("points/labels shapes differ")
        if not np.all(np.isfinite(points)):
            raise ValueError("points contains non-finite entries")
        n_agents, n_points = labels.shape
        if n_agents < 1:
            raise ValueError("need at least one cost")
        if n_points < 1:
            raise ValueError("need at least one data point")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if not reg > 0:
            raise ValueError("reg must be > 0")
        aug = np.concatenate([points, np.ones(labels.shape + (1,))], axis=-1)
        gram = np.swapaxes(aug, -1, -2) @ aug
        data_top = np.linalg.eigvalsh((gram + np.swapaxes(gram, -1, -2)) / 2.0)[:, -1]
        floor = float(reg) / n_agents
        ensemble = cls(LogisticCost, n_agents, aug.shape[-1], floor,
                       float((floor + 0.25 * data_top).max()))
        ensemble._aug, ensemble._labels = aug, labels
        ensemble._reg, ensemble._floor = float(reg), floor
        return ensemble

    @property
    def costs(self):
        """The per-agent cost records, built when first read."""
        if self._costs is None:
            if self._family is QuadraticCost:
                self._costs = [QuadraticCost(h, b) for h, b in zip(self._h, self._b)]
            else:
                self._costs = [LogisticCost(aug[:, :-1], labels, self._reg, self._n)
                               for aug, labels in zip(self._aug, self._labels)]
        return self._costs

    @property
    def n_agents(self):
        return self._n

    @property
    def dim(self):
        return self._dim

    # -- batched per-agent evaluation (rows of `q` are the agents' points;
    # leading axes, e.g. the cells of a sweep, broadcast)

    def gradient_stack(self, q):
        """(..., N, m) array of per-agent gradients at the rows of `q`."""
        q = np.asarray(q, dtype=float)
        if self._family is QuadraticCost:
            return np.einsum("nij,...nj->...ni", self._h, q) + self._b
        aug, labels = self._aug, self._labels
        margins = labels * np.einsum("ndm,...nm->...nd", aug, q)
        s = _sigmoid(-margins)
        return np.einsum("...nd,ndm->...nm", -labels * s, aug) + self._floor * q

    def hessian_stack(self, q):
        """(..., N, m, m) array of per-agent Hessians at the rows of `q`."""
        q = np.asarray(q, dtype=float)
        if self._family is QuadraticCost:
            out = np.empty(q.shape[:-2] + self._h.shape)
            out[...] = self._h
            return out
        aug, labels = self._aug, self._labels
        margins = labels * np.einsum("ndm,...nm->...nd", aug, q)
        s = _sigmoid(-margins)
        w = s * (1.0 - s)
        h = np.einsum("...nd,ndi,ndj->...nij", w, aug, aug)
        h += self._floor * np.eye(self.dim)
        return h

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
        if self._family is not QuadraticCost:
            raise NonQuadraticCostError(
                "hessian_blocks requires a quadratic ensemble")
        return self._h.copy()

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
    return CostEnsemble.quadratic((h + np.swapaxes(h, -1, -2)) / 2.0, b)


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
    points = np.empty((n_agents, n_points, m - 1))
    labels = np.empty((n_agents, n_points))
    for i in range(n_agents):  # the stream's order: agent by agent
        points[i] = point_scale * rng.standard_normal((n_points, m - 1))
        aug = np.hstack([points[i], np.ones((n_points, 1))])
        labels[i] = np.where(aug @ truth >= 0, 1.0, -1.0)
        labels[i, rng.random(n_points) < flip] *= -1.0
    return CostEnsemble.logistic(points, labels, reg)


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
