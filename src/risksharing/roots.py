"""Bracketed monotone root finding, scalar and vectorised over states.

Every implicit equation in this package has the same one-dimensional shape:
a smooth, strictly increasing function with an a-priori bracket.  The
vectorised kernel here solves the recurring family

    alpha * (exp(u) - 1) + beta * u = rhs,        alpha > 0, beta > 0,

whose solution map is the building block for reported-density ratios,
per-state sharing securities, and the risk-neutral limit security.  A
scalar outer root is found by Newton on its increasing condition, whose
slope costs one pass over the states, safeguarded by bisection within an
a-priori bound.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverError

ROOT_MAX_ITER = 200


def logsumexp(a, axis=None):
    """``log(sum(exp(a)))`` along ``axis``.

    The largest term (every tie of it) is split off and the rest summed
    through ``log1p``, which keeps full precision when one term dominates
    (Blanchard, Higham & Higham, IMA J. Numer. Anal. 41, 2021).
    """
    a = np.asarray(a, dtype=float)
    a_max = np.max(a, axis=axis, keepdims=True)
    is_max = a == a_max
    m = np.sum(is_max, axis=axis, keepdims=True, dtype=float)
    rest = np.sum(np.exp(np.where(is_max, -np.inf, a - a_max)), axis=axis, keepdims=True)
    out = np.log1p(rest / m) + np.log(m) + a_max
    return out.item() if axis is None else np.squeeze(out, axis=axis)


def solve_exp_linear(alpha, beta, rhs, rtol: float = 1e-14, max_iter: int = 200):
    """Solve ``alpha*(exp(u)-1) + beta*u = rhs`` elementwise for ``u``.

    The left side is strictly increasing and convex, so Newton started at
    the upper end of the exact bracket converges monotonically; iterates are
    clipped to the bracket as a float-safety net.  Residuals are driven to
    ``rtol * (1 + |rhs|)``.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    alpha, beta, rhs = np.broadcast_arrays(alpha, beta, rhs)
    rhs = np.array(rhs, dtype=float)

    pos = rhs >= 0.0
    lo = np.where(pos, 0.0, rhs / beta)
    hi = np.where(pos, np.minimum(rhs / beta, np.log1p(np.maximum(rhs, 0.0) / alpha)), 0.0)

    u = hi.copy()
    tol = rtol * (1.0 + np.abs(rhs))
    for _ in range(max_iter):
        g = alpha * np.expm1(u) + beta * u - rhs
        active = np.abs(g) > tol
        if not active.any():
            break
        du = g / (alpha * np.exp(u) + beta)
        u = np.where(active, np.clip(u - du, lo, hi), u)
    else:
        g = alpha * np.expm1(u) + beta * u - rhs
        bad = np.abs(g) > 1e-12 * (1.0 + np.abs(rhs))
        if bad.any():
            idx = int(np.argmax(np.abs(g)))
            raise SolverError(
                "exp-linear solve did not converge",
                diagnostics={
                    "max_residual": float(np.max(np.abs(g))),
                    "worst_index": idx,
                    "rhs": float(rhs.flat[idx]) if rhs.size else None,
                },
            )
    return u


def increasing_root(f, x0: float, bound: float):
    """Root of a strictly increasing scalar function, by safeguarded Newton.

    ``f(x)`` returns ``(value, slope, state)``.  Newton starts at ``x0``
    inside the bracket ``[-bound, bound]``, which every evaluation narrows
    by the sign of its value; a step that would leave the bracket is
    replaced by bisection ("rtsafe"; Press et al., *Numerical Recipes*,
    9.4).  Stops once a step is at most ``1e-14`` plus four float spacings
    of the iterate, and returns the last evaluated point with its
    ``state``, so the caller need not evaluate again.  Raises
    :class:`SolverError` when there is no sign change within the bound:
    the bound is never returned as a root.
    """
    lo, hi = -float(bound), float(bound)
    seen_lo = seen_hi = False
    x = float(x0)
    for _ in range(ROOT_MAX_ITER):
        fx, slope, state = f(x)
        fx, slope = float(fx), float(slope)
        if fx == 0.0:
            return x, state
        if fx < 0.0:
            lo, seen_lo = x, True
        elif fx > 0.0:
            hi, seen_hi = x, True
        else:
            break
        x_new = x - fx / slope if slope > 0.0 else np.inf
        newton = lo < x_new < hi or x_new == x  # x_new == x: step below float resolution
        if not newton:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-14 + 4.0 * np.spacing(abs(x)):
            # A bisection only converges onto an end that never saw its
            # sign when the root lies beyond the bound.
            if newton or (seen_lo and seen_hi):
                return x, state
            break
        x = x_new
    raise SolverError(
        "no root of the increasing function within the bound",
        diagnostics={"x": x, "f": fx, "lo": lo, "hi": hi},
    )
