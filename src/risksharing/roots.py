"""Bracketed monotone root finding, scalar and vectorised over states.

Every implicit equation in this package has the same one-dimensional shape:
a smooth, strictly increasing function with an a-priori bracket.  The
vectorised kernel here solves the recurring family

    alpha * (exp(u) - 1) + beta * u = rhs,        alpha > 0, beta > 0,

whose solution map is the building block for reported-density ratios,
per-state sharing securities, and the risk-neutral limit security.  Scalar
outer roots go through Brent's iteration after a geometric bracket
expansion.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverError


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


def find_bracket_increasing(f, x0: float = 0.0, step: float = 1.0, max_abs: float = 1e6):
    """Bracket the root of a strictly increasing scalar function.

    Expands geometrically from ``x0`` (x0 +/- step, 2*step, 4*step, ...) in
    the direction indicated by the sign of ``f(x0)``.  Raises
    :class:`SolverError` when the abscissa exceeds ``max_abs`` without a
    sign change.
    """
    f0 = f(x0)
    if f0 == 0.0:
        return x0, x0
    if f0 < 0.0:
        lo, flo = x0, f0
        h = step
        while True:
            hi = lo + h
            if abs(hi) > max_abs:
                raise SolverError(
                    "bracket expansion exceeded bound",
                    diagnostics={"x": hi, "f_last": flo, "direction": "up"},
                )
            fhi = f(hi)
            if fhi >= 0.0:
                return lo, hi
            lo, flo = hi, fhi
            h *= 2.0
    hi, fhi = x0, f0
    h = step
    while True:
        lo = hi - h
        if abs(lo) > max_abs:
            raise SolverError(
                "bracket expansion exceeded bound",
                diagnostics={"x": lo, "f_last": fhi, "direction": "down"},
            )
        flo = f(lo)
        if flo <= 0.0:
            return lo, hi
        hi, fhi = lo, flo
        h *= 2.0


def brent_root(f, lo: float, hi: float, xtol: float = 1e-14) -> float:
    """Brent iteration on a sign-changing bracket, tightened to float limits.

    Inverse quadratic or secant steps, with bisection whenever a step would
    shrink the bracket too slowly (Brent, *Algorithms for Minimization
    without Derivatives*, 1973, ch. 4).  Stops once the bracket is narrower
    than ``xtol`` plus four float spacings of the iterate.
    """
    if lo == hi:
        return lo
    xpre, xcur = float(lo), float(hi)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    xblk = fblk = spre = scur = 0.0
    for _ in range(200):
        if fpre == 0.0 or fcur == 0.0 or np.isnan(fpre + fcur):
            break
        if np.signbit(fpre) != np.signbit(fcur):
            xblk, fblk, spre, scur = xpre, fpre, xcur - xpre, xcur - xpre
        elif fblk == 0.0:
            break  # no sign change
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta = 0.5 * (xtol + 8.9e-16 * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if abs(sbis) < delta:
            return xcur
        stry = None
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        if stry is not None and 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = float(f(xcur))
    if fcur == 0.0 or fpre == 0.0:
        return xcur if fcur == 0.0 else xpre
    raise SolverError(
        "Brent iteration failed", diagnostics={"x": xcur, "f": fcur, "lo": lo, "hi": hi}
    )
