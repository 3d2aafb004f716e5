"""
Input coercion, the symmetry check, and the batched damped Newton
root-finder behind every implicit solve.

Everything here is a pure function of its inputs; values are never mutated
after construction, so results can be shared freely between threads.
"""

import numpy as np

# a Newton correction no larger than this share of its iterate's norm
# cannot move the iterate at working precision
_ROUNDING_SHARE = 16.0 * np.finfo(float).eps


class NumericsError(Exception):
    """Base class for numerical failures in this module."""


class DimensionMismatchError(NumericsError):
    """Operands have incompatible shapes."""


class SingularMatrixError(NumericsError):
    """A linear solve met a singular matrix."""


class NonSymmetricError(NumericsError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class MaxIterationsError(NumericsError):
    """An iterative solver ran out of iterations or stalled.

    Carries the last iterate and its residual norm as attributes.
    """

    def __init__(self, message, iterate=None, residual_norm=None):
        super().__init__(message)
        self.iterate = iterate
        self.residual_norm = residual_norm


def as_vector(v, name="vector"):
    """Coerce to a finite 1-D float array, raising on NaN/Inf."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def require_symmetric(s, tol=1e-12, name="matrix"):
    """Return `s` as an array after checking symmetry to relative tolerance.

    `s` is a finite matrix or an (..., k, k) stack of them; each matrix is
    held to `tol` times its own largest entry (at least 1).
    """
    arr = np.asarray(s, dtype=float)
    if arr.ndim < 2:
        raise DimensionMismatchError(
            f"{name} must be a matrix or a stack of them, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    if arr.shape[-1] != arr.shape[-2]:
        raise DimensionMismatchError(f"{name} must be square, got {arr.shape}")
    if arr.size:
        scale = np.maximum(1.0, np.abs(arr).max(axis=(-2, -1)))
        skew = np.abs(arr - np.swapaxes(arr, -1, -2)).max(axis=(-2, -1))
        if (skew > tol * scale).any():
            raise NonSymmetricError(f"{name} is not symmetric within {tol}")
    return arr


class SolverSettings:
    """Settings for the damped Newton solver.

    A row is converged when its residual norm is at or below
    `residual_tolerance`, or when its Newton correction is at rounding
    level: the full step does not lower the residual and the correction
    is at most 16 eps times the iterate's norm, so the iterate cannot
    change at working precision. The second rule is what lets a solve
    finish at step sizes where the residual's rounding floor lies above
    the tolerance. Defaults keep the implicit-solve error far below the
    1e-6 accuracy band used by the experiment harness.
    """

    def __init__(self, residual_tolerance=1e-12, max_iterations=100,
                 damping_shrink=0.5):
        if not residual_tolerance > 0:
            raise ValueError("residual_tolerance must be > 0")
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0 < damping_shrink < 1:
            raise ValueError("damping_shrink must lie in (0, 1)")
        self.residual_tolerance = float(residual_tolerance)
        self.max_iterations = int(max_iterations)
        self.damping_shrink = float(damping_shrink)

    def __repr__(self):
        return (f"SolverSettings(residual_tolerance={self.residual_tolerance}, "
                f"max_iterations={self.max_iterations}, "
                f"damping_shrink={self.damping_shrink})")


def newton_solve(residual, jacobian, x0, settings=None):
    """Find a root of every row of an (..., k) iterate by damped Newton.

    `residual` maps the (..., k) iterate to its residuals and `jacobian`
    to the (..., k, k) Jacobians, row by row; a 1-D `x0` is one row. A row
    is done once its residual norm is at or below the tolerance, or once
    its full Newton step fails to lower the residual while the correction
    is at rounding level, ||delta|| <= 16 eps ||x|| (the correction test of
    Deuflhard, Newton Methods for Nonlinear Problems, 2004, sec. 2.1).
    Each row halves its own step (factor `damping_shrink`) until its
    residual norm decreases, which makes the iteration globally convergent
    on the gradient maps of strongly convex functions used throughout this
    package. No row's iterates depend on another row.

    Returns the iterate, the Newton steps per row and the residual norm
    per row, which exceeds the tolerance on rows ended by the correction
    test. Raises MaxIterationsError when a row's backtracking stalls
    (60 halvings) or rows miss the tolerance after `max_iterations`, and
    SingularMatrixError when LAPACK reports a singular Jacobian. Both
    carry `reason`, the mask `failed` of the failing rows, the whole
    `iterate` and the per-row `residual_norm`.
    """
    settings = settings or SolverSettings()
    x = np.array(x0, dtype=float)
    r = residual(x)
    if not np.isfinite(r).all():
        raise ValueError("the residual at the start point is not finite")
    rnorm = np.linalg.norm(r, axis=-1)
    iters = np.zeros(rnorm.shape, dtype=int)
    settled = None  # the rows ended by the correction test, once there are any
    for iteration in range(settings.max_iterations + 1):
        active = rnorm > settings.residual_tolerance
        if settled is not None:
            active &= ~settled
        if not active.any():
            return x, iters, rnorm
        if iteration == settings.max_iterations:
            raise _failure(MaxIterationsError, f"no convergence in {iteration} "
                           "iterations", active, x, rnorm)
        jac = jacobian(x)
        try:
            delta = np.linalg.solve(jac, -r[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # the rows whose LU factors have an exact zero pivot
            raise _failure(SingularMatrixError, "singular Jacobian",
                           np.linalg.slogdet(jac)[0] == 0, x, rnorm) from None
        alpha = np.ones(rnorm.shape)
        pending = active
        step = delta  # alpha = 1 on every row
        for halving in range(60):
            cand = x + step
            cres = residual(cand)
            cnorm = np.linalg.norm(cres, axis=-1)
            ok = pending & (cnorm < rnorm)  # a NaN or inf candidate never passes
            if ok.all():  # every row takes its step: nothing to mask
                x, r, rnorm = cand, cres, cnorm
                break
            x = np.where(ok[..., None], cand, x)
            r = np.where(ok[..., None], cres, r)
            rnorm = np.where(ok, cnorm, rnorm)
            pending = pending & ~ok
            if not pending.any():
                break
            if halving == 0:
                # a full step that cannot lower the residual, by a correction
                # that cannot move the iterate: the row is at its rounding floor
                floor = pending & (np.linalg.norm(delta, axis=-1)
                                   <= _ROUNDING_SHARE * np.linalg.norm(x, axis=-1))
                settled = floor if settled is None else settled | floor
                pending = pending & ~floor
                if not pending.any():
                    break
            alpha = np.where(pending, alpha * settings.damping_shrink, alpha)
            step = alpha[..., None] * delta
        else:
            raise _failure(MaxIterationsError, "backtracking stalled", pending,
                           x, rnorm)
        iters += active


def _failure(kind, reason, failed, x, rnorm):
    """A `kind` error for the rows flagged in `failed`, naming the worst
    flagged residual norm."""
    worst = np.max(np.where(failed, rnorm, -np.inf))
    error = kind(f"{reason} (residual norm {worst:.3e})")
    error.reason, error.failed, error.iterate, error.residual_norm = (
        reason, failed, x, rnorm)
    return error
