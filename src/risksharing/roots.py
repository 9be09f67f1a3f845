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

Per-state work on a long state axis runs in contiguous blocks of states,
one per CPU in the process's affinity mask, on a pool of worker threads
(:func:`over_blocks`).
"""

from __future__ import annotations

import contextvars
import os
import threading

import numpy as np

from .errors import SolverError

ROOT_MAX_ITER = 200
KERNEL_RTOL = 1e-14
KERNEL_MAX_ITER = 200
BLOCK_MIN = 16384  # the fewest states of a block; an axis too short for two stays unsplit


try:
    WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # a platform without affinity masks
    WORKERS = os.cpu_count() or 1
_pool, _pool_lock = None, threading.Lock()


def _forget_pool():
    """In a fork child the parent's worker threads are gone; a new pool is made on use."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def over_blocks(fn, arrays, combine):
    """``fn(*arrays)``, or on a long last axis ``combine`` of ``fn`` on blocks of it.

    A last axis of ``n`` elements splits into ``min(WORKERS, n // BLOCK_MIN)``
    contiguous blocks.  ``fn`` gets the views of each block of every array;
    the first block runs on the calling thread and the others on the pool,
    each in a copy of the caller's context (numpy's ``errstate`` is a
    context variable), and ``combine`` gets the results in block order once
    every block is done.  numpy's loops release the GIL, so the blocks run
    on as many cores.  ``fn`` must treat the last axis elementwise, so that
    its results are those of one block bit for bit, and must not call
    ``over_blocks``: blocks waiting on a saturated pool would deadlock.
    The pool is made on first use, with one thread per CPU but the caller's.
    """
    global _pool
    n = arrays[0].shape[-1] if arrays[0].ndim else 0
    k = min(WORKERS, n // BLOCK_MIN)
    if k < 2:
        return fn(*arrays)
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max(1, WORKERS - 1), thread_name_prefix="risksharing")
        pool = _pool
    blocks = [(..., slice(n * j // k, n * (j + 1) // k)) for j in range(k)]
    rest = [
        pool.submit(contextvars.copy_context().run, fn, *(x[b] for x in arrays))
        for b in blocks[1:]
    ]
    try:
        first = fn(*(x[blocks[0]] for x in arrays))
    finally:
        for f in rest:
            f.exception()  # waits: no block outlives the call
    return combine([first, *(f.result() for f in rest)])


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


def solve_exp_linear(alpha, beta, rhs, start=None):
    """Solve ``alpha*(exp(u)-1) + beta*u = rhs`` elementwise for ``u``.

    The left side is strictly increasing and convex, so one Newton step
    from any point lands at or above the root, and Newton then falls
    monotonically to it; iterates are clipped to the exact bracket as a
    float-safety net.  Newton starts at ``start``, such as the solution at
    nearby data, clipped into the bracket; where ``start`` is None or not
    finite it starts at the upper end.  Residuals are driven to
    ``KERNEL_RTOL * (1 + |rhs|)``.  Each element converges on its own, so
    blocks of the last axis run their passes apart (:func:`over_blocks`)
    and give the one-block result bit for bit.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    alpha, beta, rhs = np.broadcast_arrays(alpha, beta, rhs)
    u = np.empty(rhs.shape)
    arrays = (u, alpha, beta, rhs)
    if start is not None:
        arrays += (np.broadcast_to(start, u.shape),)
    if not over_blocks(_solve_block, arrays, all):
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


def _solve_block(u, alpha, beta, rhs, start=None) -> bool:
    """The passes of :func:`solve_exp_linear` on one block, written into ``u``;
    False if ``KERNEL_MAX_ITER`` passes leave some element unconverged."""
    pos = rhs >= 0.0
    lo = np.where(pos, 0.0, rhs / beta)
    hi = np.where(pos, np.minimum(rhs / beta, np.log1p(np.maximum(rhs, 0.0) / alpha)), 0.0)
    u[...] = hi if start is None else np.where(np.isfinite(start), np.clip(start, lo, hi), hi)
    tol = KERNEL_RTOL * (1.0 + np.abs(rhs))
    # The passes update ``u`` in place, with their temporaries allocated once.
    g, du, active = np.empty_like(u), np.empty_like(u), np.empty(u.shape, dtype=bool)
    for _ in range(KERNEL_MAX_ITER):
        np.expm1(u, out=g)
        g *= alpha
        g += np.multiply(beta, u, out=du)
        g -= rhs
        if not np.greater(np.abs(g, out=du), tol, out=active).any():
            return True
        np.exp(u, out=du)
        du *= alpha
        du += beta
        np.divide(g, du, out=du)
        du *= active  # leaves the converged elements where they are
        u -= du
        np.clip(u, lo, hi, out=u)
    return False


def increasing_root(f, x0: float, bound: float):
    """Root of a strictly increasing scalar function, by safeguarded Newton.

    ``f(x)`` returns ``(value, slope, state)``.  Newton starts at ``x0``
    inside the bracket ``[-bound, bound]``, which every evaluation narrows
    by the sign of its value; a step that would leave the bracket is
    replaced by bisection ("rtsafe"; Press et al., *Numerical Recipes*,
    9.4).  Stops once a step is at most ``1e-14`` plus four float spacings
    of the iterate, and returns the last evaluated point with its
    ``state``, so the caller need not evaluate again.  Raises
    :class:`SolverError` when there is no sign change within the bound
    (the bound is never returned as a root), or at a NaN value of ``f``.
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
        f"the increasing function's value is not finite at x = {x!r}"
        if np.isnan(fx) else "no root of the increasing function within the bound",
        diagnostics={"x": x, "f": fx, "lo": lo, "hi": hi},
    )
