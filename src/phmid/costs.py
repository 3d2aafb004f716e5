"""
Per-agent strongly convex local costs, their global curvature constants
and a centralized-optimum oracle.

Two families are provided: quadratic costs (closed-form curvature) and
l2-regularized logistic losses over labeled points, where the trailing
coordinate of the decision variable acts as the bias (points are
augmented internally with a constant 1). An ensemble holds one family as
(N, ...) stacks, one row per agent, and evaluates every agent at once.
"""

import functools

import numpy as np

from .numerics import (DimensionMismatchError, as_vector, newton_solve,
                       require_symmetric)


def _sigmoid(t):
    """Numerically stable logistic sigmoid: 1 / (1 + e^-t) for t >= 0 and
    e^t / (1 + e^t) below, both from e = exp(-|t|)."""
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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
    certified gradient Lipschitz constant. Both are computed when first
    read and then kept: a run never reads them, so building an ensemble
    solves no eigenvalue problem.
    """

    def __init__(self, family, n_agents, dim):
        """Shape of a `family` ensemble; the family constructors add its
        stacks."""
        self._family = family
        self._n, self._dim = n_agents, dim
        self._costs = None

    @classmethod
    def quadratic(cls, h, b):
        """Quadratic costs from (N, m, m) Hessians and (N, m) offsets.

        Every check runs on the whole stack at once: finite entries,
        matching shapes, symmetry and positive definiteness, which one
        batched Cholesky factorisation decides. The curvature constants
        are the extreme Hessian eigenvalues.
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
        try:
            np.linalg.cholesky(h)
        except np.linalg.LinAlgError:
            low = np.linalg.eigvalsh(h)[:, 0]
            # the first agent with a smallest eigenvalue that is not
            # positive; where rounding failed the factorisation alone, the
            # smallest over the stack
            first = low[np.argmax(low <= 0)] if (low <= 0).any() else low.min()
            raise ValueError(
                f"h must be positive definite (min eig {first:.3e})") from None
        ensemble = cls(QuadraticCost, n_agents, dim)
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
        ensemble = cls(LogisticCost, n_agents, aug.shape[-1])
        ensemble._aug, ensemble._labels = aug, labels
        ensemble._reg, ensemble._floor = float(reg), float(reg) / n_agents
        return ensemble

    @functools.cached_property
    def mu(self):
        """The smallest certified strong-convexity constant over agents,
        computed when first read."""
        if self._family is QuadraticCost:
            return float(self._hessian_extremes[:, 0].min())
        return self._floor

    @functools.cached_property
    def lipschitz(self):
        """The largest certified gradient Lipschitz constant over agents,
        computed when first read."""
        if self._family is QuadraticCost:
            return float(self._hessian_extremes[:, 1].max())
        aug = self._aug
        gram = np.swapaxes(aug, -1, -2) @ aug
        data_top = np.linalg.eigvalsh((gram + np.swapaxes(gram, -1, -2)) / 2.0)[:, -1]
        return float((self._floor + 0.25 * data_top).max())

    @functools.cached_property
    def _hessian_extremes(self):
        """(N, 2) smallest and largest eigenvalue of each quadratic
        Hessian, shared by `mu` and `lipschitz`."""
        return np.linalg.eigvalsh(self._h)[:, [0, -1]]

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

    def centralized_optimum(self):
        """Minimizer of the summed cost via damped Newton, solved to the
        gradient-norm tolerance 1e-12 of `numerics.newton_solve`.

        Serves as the reference oracle for the consensus error metric.
        """

        def hessian_sum(theta):
            return self.hessian_stack(self._everywhere(theta)).sum(axis=0)

        return newton_solve(self.gradient_sum, hessian_sum,
                            np.zeros(self.dim))[0]


def random_quadratic_ensemble(n_agents, m, seed):
    """Quadratic ensemble with random SPD Hessians.

    Each H_i has eigenvalues drawn uniformly from [0.5, 3] with a random
    orthogonal eigenbasis; offsets b_i are standard normal.
    """
    rng = np.random.default_rng(seed)
    lo, hi = 0.5, 3.0
    # The stream is D_0 U_0 B_0 D_1 U_1 B_1 ..., agent by agent: an m x m
    # normal draw D_i, m uniforms U_i and m normal offsets B_i. So each
    # B_i D_(i+1) is one run of normals, drawn into a buffer laid out
    # D_0 B_0 D_1 B_1 ..., and each U_i is `uniform`'s lo + (hi - lo) * u.
    width = m * m + m
    normals = np.empty((n_agents, width))
    unit = np.empty((n_agents, m))
    flat = normals.reshape(-1)
    rng.standard_normal(out=flat[:m * m])
    for i in range(n_agents):
        rng.random(out=unit[i])
        rng.standard_normal(out=flat[(i + 1) * width - m:(i + 2) * width - m])
    draws = normals[:, :m * m].reshape(n_agents, m, m)
    eigs = lo + (hi - lo) * unit
    b = normals[:, m * m:].copy()  # contiguous, and not holding the draws
    basis, _ = np.linalg.qr(draws)
    h = (basis * eigs[:, None, :]) @ np.swapaxes(basis, -1, -2)
    return CostEnsemble.quadratic((h + np.swapaxes(h, -1, -2)) / 2.0, b)


def random_logistic_ensemble(n_agents, m, n_points, reg, seed,
                             point_scale=1.0):
    """Logistic ensemble over random, non-separable labeled points.

    Points are normal with standard deviation `point_scale` in R^(m-1);
    labels come from a random ground-truth hyperplane (over the augmented
    coordinates) with each label inverted with probability 0.1 so the
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
    raw = np.empty((n_agents, n_points, m - 1))
    unit = np.empty((n_agents, n_points))
    for i in range(n_agents):  # the stream's order: agent by agent
        rng.standard_normal(out=raw[i])
        rng.random(out=unit[i])
    points = point_scale * raw
    aug = np.concatenate([points, np.ones((n_agents, n_points, 1))], axis=-1)
    labels = np.where(aug @ truth >= 0, 1.0, -1.0)
    labels[unit < 0.1] *= -1.0
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
