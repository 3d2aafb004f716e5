"""
Input coercion, the symmetry check, and the batched damped Newton
root-finder behind every implicit solve.

The solver's settings are the module constants below; no caller sets
them. Everything here is a pure function of its inputs; values are never
mutated after construction, so results can be shared freely between
threads.
"""

import numpy as np

# a Newton correction no larger than this share of its iterate's norm
# cannot move the iterate at working precision
_ROUNDING_SHARE = 16.0 * np.finfo(float).eps
# a row whose residual norm is at or below this is converged; far below
# the 1e-6 accuracy band of the experiment harness
_RESIDUAL_TOLERANCE = 1e-12
# the exact Newton corrections a solve may take
_MAX_ITERATIONS = 100
# the factor by which a row's step shrinks until its residual norm drops
_DAMPING_SHRINK = 0.5


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

    The solver that raises it sets the last iterate and its residual norm
    as attributes.
    """


def as_vector(v, name="vector"):
    """Coerce to a finite 1-D float array, raising on NaN/Inf."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def require_symmetric(s, name="matrix"):
    """Return `s` as an array after checking symmetry to relative tolerance.

    `s` is a finite matrix or an (..., k, k) stack of them; each matrix is
    held to 1e-12 times its own largest entry (at least 1).
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
        skew = arr - np.swapaxes(arr, -1, -2)
        np.abs(skew, out=skew)
        # every scale is at least 1, so a largest skew of at most 1e-12
        # passes every matrix without the per-matrix scales
        if skew.max() > 1e-12:
            scale = np.maximum(1.0, np.abs(arr).max(axis=(-2, -1)))
            if (skew.max(axis=(-2, -1)) > 1e-12 * scale).any():
                raise NonSymmetricError(f"{name} is not symmetric within 1e-12")
    return arr


def newton_solve(residual, jacobian, x0, inverses=None):
    """Find a root of every row of an (..., k) iterate by damped Newton.

    `residual` maps the (..., k) iterate to its residuals and `jacobian`
    to the (..., k, k) Jacobians, row by row; a 1-D `x0` is one row. A row
    is done once its residual norm is at or below the tolerance 1e-12, or
    once its full Newton step fails to lower the residual while the
    correction is at rounding level, ||delta|| <= 16 eps ||x||, so that the
    iterate cannot change at working precision (the correction test of
    Deuflhard, Newton Methods for Nonlinear Problems, 2004, sec. 2.1). The
    second rule is what lets a solve finish at step sizes where the
    residual's rounding floor lies above the tolerance. Each row halves
    its own step until its residual norm decreases, which makes the
    iteration globally convergent on the gradient maps of strongly convex
    functions used throughout this package. No row's iterates depend on
    another row.

    `inverses`, an (..., k, k) stack of one inverse Jacobian per row
    carried from an earlier solve, makes this a chord method (Deuflhard
    2004, sec. 2.1; Hairer & Wanner, Solving ODEs II, sec. IV.8): the
    first correction of every unconverged row is the chord correction
    -inverse @ residual, kept by each row whose residual norm it lowers.
    A row that keeps it counts it as one iteration; a row that does not
    stays at x0. Every later correction is the exact one above. A zero
    inverse carries nothing: its chord correction never lowers a residual.

    Returns the iterate, the Newton steps per row and the residual norm
    per row, which exceeds the tolerance on rows ended by the correction
    test. Given `inverses`, it also returns them updated, as a fourth
    item: each row that took an exact correction gets the inverse of the
    last Jacobian evaluated at it, and every other row keeps its carried
    inverse. Without `inverses` no inverse is formed. Raises
    MaxIterationsError when a row's backtracking stalls (60 halvings) or
    rows miss the tolerance after 100 exact corrections, the ones that
    evaluate and factor a Jacobian (the iteration counts include a chord
    correction on top of them), and SingularMatrixError when LAPACK
    reports a singular Jacobian. Both carry `reason`, the mask `failed` of
    the failing rows, the whole `iterate` and the per-row `residual_norm`.
    """
    x = np.array(x0, dtype=float)
    r = residual(x)
    if not np.isfinite(r).all():
        raise ValueError("the residual at the start point is not finite")
    rnorm = _row_norms(r)
    iters = np.zeros(rnorm.shape, dtype=int)
    if inverses is not None:
        x, r, rnorm, iters = _chord(residual, inverses, x, r, rnorm)
    settled = None  # the rows ended by the correction test, once there are any
    for iteration in range(_MAX_ITERATIONS + 1):
        active = rnorm > _RESIDUAL_TOLERANCE
        if settled is not None:
            active &= ~settled
        if not active.any():
            if inverses is None:
                return x, iters, rnorm
            if iteration:  # the rows of `fresh` took exact steps
                if fresh.all():
                    inverses = np.linalg.inv(last_jac)
                else:
                    inverses = inverses.copy()
                    inverses[fresh] = np.linalg.inv(last_jac[fresh])
            return x, iters, rnorm, inverses
        if iteration == _MAX_ITERATIONS:
            raise _failure(MaxIterationsError, f"no convergence in {iteration} "
                           "iterations", active, x, rnorm)
        jac = jacobian(x)
        try:
            delta = np.linalg.solve(jac, -r[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # the rows whose LU factors have an exact zero pivot
            raise _failure(SingularMatrixError, "singular Jacobian",
                           np.linalg.slogdet(jac)[0] == 0, x, rnorm) from None
        if inverses is not None:
            # each row's own last Jacobian, so that no row's inverse depends
            # on how long the other rows iterate; rows only ever leave `active`
            if iteration == 0:
                fresh, last_jac = active, jac
            else:
                last_jac = np.where(active[..., None, None], jac, last_jac)
        alpha = np.ones(rnorm.shape)
        pending = active
        step = delta  # alpha = 1 on every row
        for halving in range(60):
            cand = x + step
            cres = residual(cand)
            cnorm = _row_norms(cres)
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
                floor = pending & (_row_norms(delta)
                                   <= _ROUNDING_SHARE * _row_norms(x))
                settled = floor if settled is None else settled | floor
                pending = pending & ~floor
                if not pending.any():
                    break
            alpha = np.where(pending, alpha * _DAMPING_SHRINK, alpha)
            step = alpha[..., None] * delta
        else:
            raise _failure(MaxIterationsError, "backtracking stalled", pending,
                           x, rnorm)
        iters += active


def _chord(residual, inverses, x, r, rnorm):
    """`(x, r, rnorm, iters)` after one chord correction -inverse @ r,
    taken by each unconverged row whose residual norm it lowers."""
    iters = np.zeros(rnorm.shape, dtype=int)
    todo = rnorm > _RESIDUAL_TOLERANCE
    if not todo.any():
        return x, r, rnorm, iters
    cand = x - np.einsum("...ij,...j->...i", inverses, r)
    cres = residual(cand)
    cnorm = _row_norms(cres)
    ok = todo & (cnorm < rnorm)  # a NaN or inf candidate never passes
    if ok.all():
        return cand, cres, cnorm, ok.astype(int)
    return (np.where(ok[..., None], cand, x), np.where(ok[..., None], cres, r),
            np.where(ok, cnorm, rnorm), ok.astype(int))


def _row_norms(x):
    """Euclidean norm of each row: the sum of squares `np.linalg.norm(x,
    axis=-1)` takes, bitwise, without its argument handling."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _failure(kind, reason, failed, x, rnorm):
    """A `kind` error for the rows flagged in `failed`, naming the worst
    flagged residual norm."""
    worst = np.max(np.where(failed, rnorm, -np.inf))
    error = kind(f"{reason} (residual norm {worst:.3e})")
    error.reason, error.failed, error.iterate, error.residual_norm = (
        reason, failed, x, rnorm)
    return error
