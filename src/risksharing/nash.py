"""Nash risk-sharing equilibrium solver.

For each zero-sum vector ``z`` (one coordinate per agent) there is a unique
collection of candidate securities solving a coupled per-state system; the
equilibria are exactly the ``z`` at which every candidate security has zero
price under the induced valuation.  The per-state system is convex with an
M-matrix Jacobian, so one joint Newton iteration per state, started at a
super-solution, decreases monotonically to its root; one Newton step from
any point lands on a super-solution.  So each outer Newton start solves
its first point cold and every later trial point warm, from the last
accepted point's solution, redone cold where the first warm step lands
past the endogenous caps, where no root lies, or the warm solve fails.  The
zero-price condition is met at the fixed points of the certainty-equivalent
update map ``phi``, found for every agent count by one backtracking Newton
iteration on ``phi(z) - z`` and a last Newton step on the prices, both with
exact Jacobians: from the centre of the individually rational box for two
agents, where the root is unique, and also from its corners for three or
more, where all distinct roots found are reported.

The starts run in lockstep along a leading start axis, each one record of
its own point, step, trace and phase (:func:`_newton`).  A trial point's
evaluation is one record of plain arrays (:func:`_evaluate`); only the
root's becomes measures and random variables, in :func:`_assemble`.

Each search owns one workspace (:class:`_Workspace`), built in :func:`_newton`;
a public-map call builds its own in :func:`_evaluate_one`.  The inner solve,
:func:`_evaluate` and :func:`_jacobians` write their stacked temporaries
into views of its leading rows, which shrink as starts leave; what they
return is allocated apart, so no result shares memory with another search.
On long state axes the kernel and the inner solve's passes run on blocks of
states in worker threads, with the one-block result bit for bit.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .agents import Market
from .arrow_debreu import ArrowDebreuEquilibrium, solve_arrow_debreu
from .errors import ContractError, SolverError
from .measures import Measure, RandomVariable, normalize_log_density, normalized_weights
from .roots import over_blocks, solve_exp_linear

INNER_MAX_ITER = 100
DISTANCE_RTOL = 1e-10  # the largest distance, per unit delta_total, of an end taken as a root
Z_SUM_TOL = 1e-9
_SEARCH, _PRICE, _DONE = range(3)  # the phases of a Newton start, in order


@dataclass(frozen=True)
class NashEquilibrium:
    """Solved game: transfers, securities, valuation, revealed beliefs.

    ``log_ratios[i]`` holds log(1 + C_i/delta_minus_i) per state in solution
    space; securities satisfy C_i = delta_minus_i * expm1(log_ratios[i]).
    Residual checks should use ``log_ratios`` directly: recomputing the log
    from float security values loses precision where a security sits within
    ~1e-12 of its endogenous bound.
    """

    z: np.ndarray
    securities: tuple[RandomVariable, ...]
    pricing: Measure
    revealed: tuple[Measure, ...]
    agent_values: tuple[float, ...]
    aggregate_value: float
    distance: float
    log_ratios: np.ndarray
    all_roots: tuple[np.ndarray, ...]

    def security_values(self) -> np.ndarray:
        return np.stack([c.values for c in self.securities])


def _check_z(market: Market, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape != (market.n_agents,):
        raise ContractError(f"z must have one coordinate per agent, got shape {z.shape}")
    if not np.all(np.isfinite(z)) or abs(float(z.sum())) > Z_SUM_TOL * max(1.0, _peak(z)):
        raise ContractError(f"z must be finite and sum to zero, got {z.tolist()!r}")
    return z


def _peak(x) -> float:
    return float(np.max(np.abs(x)))


class _Workspace:
    """The scratch arrays of one equilibrium search, for stacks of up to ``k`` entries.

    ``stacks`` holds nine ``(k, n, S)`` buffers and ``planes`` four ``(k, 1, S)``
    ones: the inner solve's ``y``, its carried agent's ``v``, and the ``|y|``
    and carried spread that each pass's step leaves for its stop.  A stacked
    call of ``m`` entries writes into views of their leading ``m`` rows
    through ``out=``; nothing it returns is such a view, and no buffer holds
    a value from one call to the next.
    """

    def __init__(self, k: int, n: int, s: int):
        self.stacks = np.empty((9, k, n, s))
        self.planes = np.empty((4, k, 1, s))


def _compact(keep, arrays) -> list:
    """The rows ``keep`` of each array moved, in order, into its leading rows; views of those."""
    kept = np.flatnonzero(keep)
    for j, r in enumerate(kept):
        if j < r:
            for x in arrays:
                x[j] = x[r]
    return [x[: len(kept)] for x in arrays]


def _joined(parts):
    """The per-entry results of :func:`_inner_log_ratios`' step on each block of
    states, joined into those of one step on all the states."""
    w_done, du_max, under = zip(*parts)
    w_done = np.all(w_done, axis=0)
    du_max = np.max(du_max, axis=0) if w_done.any() else None
    return w_done, du_max, None if under[0] is None else np.all(under, axis=0)


def _all_blocks(parts):
    return np.all(parts, axis=0)


def _inner_log_ratios(market: Market, ad: ArrowDebreuEquilibrium, z: np.ndarray, start, ws):
    """Per-state solve of the coupled security system at a ``(K, n)`` stack of transfers.

    Returns ``(u, y)``: ``u[k, i]`` is log(1 + C_i/delta_minus_i) per state
    at ``z[k]`` and ``y[k]`` the lambda-weighted mean of the ``u[k, i]``; the
    rows of an entry whose solve fails are NaN.  With ``a = z + C*`` and
    ``D_i = delta_minus_i * exp(u_i) + delta_i``, each state solves

        G_i = delta_minus_i * expm1(u_i) + delta_i * (u_i - y) - a_i = 0,
        W   = y - sum_i lambda_i * u_i = 0.

    The system is convex and its Jacobian ``[[diag(D), -delta], [-lambda^T, 1]]``
    is an M-matrix, so Newton started where ``G, W >= 0`` decreases
    monotonically to the root, and one Newton step from any point lands
    where ``G, W >= 0`` (Ortega & Rheinboldt, 1970, 13.3).  A step is one
    pass over the states through the Schur complement
    ``s = 1 - sum_i lambda_i * delta_i / D_i``.  The cold start is
    ``y0 = sum_i lambda_i * cap_i`` with ``u`` solved at ``y0``: every ratio
    at the root lies below its cap, so ``W(y0) > 0``.  ``start``, the
    ``(u, y)`` rows solved at nearby points, is a warm start instead; an
    entry whose first step leaves some ``u_i`` past its cap, where no root
    lies (or not finite, on a far start that overflows), or that does not
    converge within ``INNER_MAX_ITER`` passes, is redone from the cold
    start, all such entries in one kernel call.  From past a cap, Newton on
    ``expm1`` falls about one unit of ``u`` a pass.  A cold solve fails
    where ``W(y0) < 0`` or it does not converge; the kernel's own failure
    fails every entry of its call.  An entry leaves the stack, with the
    point after its step, at the pass whose step leaves ``W`` at 0 and ``G``
    within half its tolerance: ``W`` is linear, and after a step ``(du, dy)``
    the exact ``G_i`` is ``delta_minus_i * exp(u_i) * (expm1(du_i) - du_i)``,
    bounded without another pass over the states.  Each entry decides
    alone, so its passes are those of a solve of it alone.  An agent holding
    over half the total tolerance is carried as ``v = u - y``: its ``u`` is
    close to ``y``, and ``y`` amplifies an error in ``v`` by ``1/lambda_minus``.

    The stacks it works on belong to ``ws``, the workspace built in
    :func:`_newton` or :func:`_evaluate_one`.  The solving entries
    hold the leading rows of every buffer: ``start`` is copied into them
    once, each pass writes into them, and when entries leave, the rows of
    the others move up, so the views shrink as entries leave.  Per call it
    allocates the returned ``(u, y)`` and, for a cold start, the kernel's
    result; a pass allocates only ``(K, 1, S)`` temporaries.

    On a long state axis a pass runs on blocks of states in worker threads
    (:func:`~risksharing.roots.over_blocks`).  The step's blocks return per
    entry whether ``W`` was within tolerance, the largest ``du`` and whether
    ``u`` stays under the caps, which the calling thread joins; the stop's
    bound then runs on the blocks too.  Nothing sums over states, and each
    entry stops on all its states at once, so the result is that of one
    block bit for bit.
    """
    n_stack, n_states = len(z), market.space.n_states
    stacks, planes = ws.stacks[:, :n_stack], ws.planes[:, :n_stack]
    y_rows, v_rows, abs_y_rows, spread_rows = planes
    a, a_scale, u_start = stacks[0], stacks[1], stacks[8]
    sec_ad = ad.security_values()
    deltas = market.deltas[:, None]
    dminus = market.delta_minus[:, None]
    lambdas = market.lambdas[:, None]
    top = int(np.argmax(market.lambdas))
    width = 1 if market.lambdas[top] > 0.5 else 0
    dom = slice(top, top + width)  # carried as v
    others = np.ones(market.n_agents, dtype=bool)
    others[dom] = False
    rest = float(np.sum(market.lambdas[others]))  # W = rest*y - sum lambda*u, v for dom
    # Clearing forces log(1 + C_i/delta_minus_i) < log(n*delta/delta_minus_i)
    # strictly.  The exact solution can sit within ~1e-140 of that cap, far
    # below float resolution, so solved ratios are projected just inside it;
    # the projection is of the same order as the solve tolerance.
    n_others = market.n_agents - 1
    caps = np.log(n_others * market.delta_total / market.delta_minus)
    projected = (caps - 1e-14 * (1.0 + np.abs(caps)))[:, None]
    u_out, y_out = np.empty((n_stack, market.n_agents, n_states)), np.empty((n_stack, n_states))

    def newton(rows, u, y, warm):
        """Joint Newton for the entries ``rows`` from ``(u, y)``, their ``a`` in the
        leading rows of ``a``; returns those that fail."""
        a_rows, a_scale_rows = a[: len(rows)], a_scale[: len(rows)]
        # Tolerances scale with the terms, y's among them through dG/dy, not
        # with their sum, which cancels.
        np.abs(a_rows, out=a_scale_rows)
        a_scale_rows += 1.0
        v = np.subtract(u[:, dom], y, out=v_rows[: len(rows), :width])
        failed = []

        def step(u, y, v, a_rows, em1, growth, d, g, lam_u, du, abs_y, spread):
            """One Newton step on a block of states, in place.  Per entry: whether
            W was within its tolerance before it, then the largest ``du`` (if any
            entry's was) and, on a first warm step, whether ``u`` is under the caps."""
            np.expm1(u, out=em1)
            np.add(em1, 1.0, out=growth)
            growth *= dminus
            np.add(growth, deltas, out=d)
            np.multiply(deltas[dom], v, out=spread)
            np.subtract(u, y, out=g)
            g *= deltas
            g[:, dom] = spread
            em1 *= dminus
            g += em1
            g -= a_rows
            np.multiply(lambdas, u, out=lam_u)
            lam_u[:, dom] = lambdas[dom] * v
            w = rest * y - np.sum(lam_u, axis=1, keepdims=True)
            np.abs(y, out=abs_y)
            abs_sum = np.sum(np.abs(lam_u, out=lam_u), axis=1, keepdims=True)
            w_tol = 1e-14 * (1.0 + rest * abs_y + abs_sum)
            w_done = np.all(np.abs(w) <= w_tol, axis=(1, 2))
            # s = 1 - sum_i lambda_i*delta_i/D_i, summed without cancellation.
            lam_d = np.divide(lambdas, d, out=lam_u)
            s = np.sum(np.multiply(lam_d, growth, out=em1), axis=1, keepdims=True)
            dy = -(w + np.sum(np.multiply(lam_d, g, out=em1), axis=1, keepdims=True)) / s
            np.multiply(deltas, dy, out=du)
            du -= g
            du /= d
            y += dy
            v += du[:, dom] - dy
            u += du
            u[:, dom] = v + y
            du_max = np.max(du, axis=(1, 2)) if w_done.any() else None
            # No root lies past the caps: a first warm step there is redone cold.
            under = np.all(u <= caps[:, None], axis=(1, 2)) if first_warm else None
            return w_done, du_max, under

        def stop(du, growth, bound, tol, abs_y, spread, scale):
            """Per entry, whether the bound on G after the step is within half of
            G's tolerance at the point before it, on a block of states."""
            np.multiply(du, du, out=bound)
            bound *= growth
            bound *= c
            np.multiply(deltas, abs_y, out=tol)
            tol += scale
            tol[:, dom] = scale[:, dom] + np.abs(spread)
            tol[:, dom] += growth[:, dom] * abs_y
            tol *= 1e-14
            bound -= tol
            return np.max(bound, axis=(1, 2)) <= 0.0

        # The leading rows of the workspace's buffers belong to the entries
        # still solving; each pass writes its (K, n, S) values into them.
        for k in range(INNER_MAX_ITER):
            m, first_warm = len(rows), warm and k == 0
            em1, growth, d, g, lam_u, du = stacks[2:8, :m]
            abs_y, spread = abs_y_rows[:m], spread_rows[:m, :width]
            done, du_max, under = over_blocks(
                step, (u, y, v, a_rows, em1, growth, d, g, lam_u, du, abs_y, spread), _joined
            )
            bad = np.zeros_like(done) if under is None else ~under
            # W is linear, so the step leaves it 0, and G_i differs from its
            # linearisation only through expm1: after the step it is exactly
            # growth_i*(expm1(du_i) - du_i) <= growth_i*du_i^2/2*exp(max(du, 0)).
            # An entry is done once this bound is at most half G's tolerance
            # (the halves cancel in ``stop``) and its W was within its tolerance
            # before the step, since rounding a large step in y may leave W
            # past it.  The bound is evaluated only if some entry passes that.
            if done.any():
                c = np.exp(np.maximum(du_max, 0.0))[:, None, None]
                done &= over_blocks(
                    stop, (du, growth, em1, lam_u, abs_y, spread, a_scale_rows), _all_blocks
                )
            if done.any() or bad.any():
                for j in np.flatnonzero(done):
                    np.minimum(u[j], projected, out=u_out[rows[j]])
                    y_out[rows[j]] = y[j, 0]
                failed += rows[bad].tolist()
                keep = ~(done | bad)
                if not keep.any():
                    return failed
                rows = rows[keep]
                u, y, v, a_rows, a_scale_rows = _compact(keep, (u, y, v, a_rows, a_scale_rows))
        return failed + rows.tolist()

    rows = np.arange(n_stack)
    if start is not None:
        with np.errstate(all="ignore"):  # a far start may overflow; it then falls back
            u, y = np.stack(start[0], out=u_start), np.stack(start[1], out=y_rows[:, 0])[:, None]
            np.add(z[:, :, None], sec_ad, out=a)
            rows = np.array(sorted(newton(rows, u, y, True)), dtype=int)
    if len(rows):
        a_rows, y, rhs = a[: len(rows)], y_rows[: len(rows)], stacks[5, : len(rows)]
        np.add(z[rows][:, :, None], sec_ad, out=a_rows)
        y.fill(float(market.lambdas @ caps))
        np.multiply(deltas, y, out=rhs)
        rhs += a_rows
        try:
            u = solve_exp_linear(dminus, deltas, rhs)
        except SolverError:
            failed = rows
        else:
            lam_u = np.multiply(lambdas, u, out=stacks[6, : len(rows)])
            sound = np.all(y - np.sum(lam_u, axis=1, keepdims=True) >= 0.0, axis=(1, 2))
            failed = rows[~sound].tolist()
            if sound.any():
                u, y, _ = _compact(sound, (u, y, a_rows))
                failed += newton(rows[sound], u, y, False)
        u_out[failed] = np.nan
        y_out[failed] = np.nan
    return u_out, y_out


_Evaluation = namedtuple("_Evaluation", "phi residual prices u y sec q values")


def _evaluate(market: Market, ad: ArrowDebreuEquilibrium, z: np.ndarray, near, ws) -> list:
    """``phi``, ``F = phi - z``, the prices, ``(u, y)``, the securities, the valuation's
    weights ``q`` and the agents' values at each of a ``(K, n)`` stack of transfers.

    One stacked inner solve; ``near``, one evaluation at a nearby point per
    entry, warm-starts it.  Scratch arrays are views of ``ws``'s buffers,
    built in :func:`_newton` or :func:`_evaluate_one`.  Returns one record
    per entry, of views of stacked results allocated apart from the
    workspace, or None where its inner solve fails.
    """
    start = None if near is None else ([e.u for e in near], [e.y for e in near])
    u, y = _inner_log_ratios(market, ad, z, start, ws)
    ok = ~np.isnan(y[:, 0])
    if not ok.all():
        z, u, y = z[ok], u[ok], y[ok]
    u.setflags(write=False)
    sec = np.expm1(u)
    sec *= market.delta_minus[:, None]
    q = normalized_weights(np.log(ad.pricing.weights) - y)
    # The agents' certainty equivalents: cara_utility per agent, stacked.
    work = np.negative(sec, out=ws.stacks[0, : len(sec)])
    work /= market.deltas[:, None]
    top = work.max(axis=2, keepdims=True)
    work -= top
    np.exp(work, out=work)
    work *= market.belief_weights
    values = -market.deltas * (top[:, :, 0] + np.log(np.sum(work, axis=2)))
    shortfall = ad.aggregate_gain - values.sum(axis=1, keepdims=True)
    phi = values - np.asarray(ad.agent_gains) + market.lambdas * shortfall
    prices = np.sum(np.multiply(sec, q[:, None], out=work), axis=2)
    rows = iter(map(_Evaluation, phi, phi - z, prices, u, y, sec, q, values))
    return [next(rows) if solved else None for solved in ok]


def _evaluate_one(market: Market, ad: ArrowDebreuEquilibrium, z) -> _Evaluation:
    """The evaluation at one transfer vector; SolverError if its inner solve fails."""
    z = _check_z(market, z)
    ws = _Workspace(1, market.n_agents, market.space.n_states)
    (e,) = _evaluate(market, ad, z[None], None, ws)
    if e is None:
        raise SolverError("per-state security system failed", diagnostics={"z": z.tolist()})
    return e


def _jacobians(market: Market, evaluations: list, ws):
    """Jacobians of ``F`` and of the prices in ``z[1:]`` (``z[0] = -sum(z[1:])``),
    stacked: one ``(n, n - 1)`` matrix of each per evaluation.

    Differentiating the per-state system of :func:`_inner_log_ratios` gives
    ``dy/dz_j = lambda_j/(D_j*s)`` and ``dC_i/dz_j = r_i*(delta_i*dy/dz_j + [i = j])``
    with ``r_i = delta_minus_i*exp(u_i)/D_i``.  A value moves by ``E_{Q_i}[dC_i/dz_j]``,
    with ``Q_i`` proportional to ``P_i*exp(-C_i/delta_i)``, and a price by
    ``E_q[dC_i/dz_j] - Cov_q(C_i, dy/dz_j)``.  The ``(K, n, S)`` arrays are
    views of ``ws``'s buffers, built in :func:`_newton`.
    """
    sec, work, d, ratio, spread = ws.stacks[:5, : len(evaluations)]
    deltas, lambdas = market.deltas[:, None], market.lambdas[:, None]
    np.stack([e.sec for e in evaluations], out=sec)
    q = np.stack([e.q for e in evaluations], out=ws.planes[0, : len(evaluations), 0])[:, None]
    prices = np.stack([e.prices for e in evaluations])
    diag = np.arange(market.n_agents)
    np.add(sec, market.delta_minus[:, None], out=work)  # dC/du
    np.add(work, deltas, out=d)
    np.divide(work, d, out=ratio)
    d *= np.sum(np.multiply(lambdas, ratio, out=work), axis=1, keepdims=True)
    dy = np.divide(lambdas, d, out=d)  # row j: dy/dz_j
    tilt = np.subtract(market.log_beliefs, np.divide(sec, deltas, out=work), out=work)
    tilt -= tilt.max(axis=2, keepdims=True)
    big_q = np.exp(tilt, out=tilt)
    big_q *= np.divide(ratio, np.sum(big_q, axis=2, keepdims=True), out=spread)  # Q_i * r_i
    # The [i = j] terms are added apart, so no (K, n, n, S) array is formed.
    d_values = deltas * np.einsum("kis,kjs->kij", big_q, dy)
    d_values[:, diag, diag] += np.sum(big_q, axis=2)
    d_f = d_values - lambdas * np.sum(d_values, axis=1, keepdims=True) - np.eye(market.n_agents)
    q_r = np.multiply(q, ratio, out=ratio)
    np.subtract(sec, prices[:, :, None], out=spread)
    spread *= q
    np.subtract(np.multiply(deltas, q_r, out=work), spread, out=spread)
    d_prices = np.einsum("kis,kjs->kij", spread, dy)
    d_prices[:, diag, diag] += np.sum(q_r, axis=2)
    return d_f[:, :, 1:] - d_f[:, :, :1], d_prices[:, :, 1:] - d_prices[:, :, :1]


def _distance_from_prices(market: Market, eps: np.ndarray) -> float:
    """``-sum_i delta_minus_i * log(1 + eps_i/delta_minus_i)``, +inf at or past the pole.

    A saturated security's price can round onto ``-delta_minus_i``, where
    the logarithm has no finite value.
    """
    ratio = eps / market.delta_minus
    if np.any(ratio <= -1.0):
        return float("inf")
    return float(-np.sum(market.delta_minus * np.log1p(ratio)))


def nash_distance(market: Market, ad: ArrowDebreuEquilibrium, z) -> float:
    """Distance from equilibrium: nonnegative, zero exactly at Nash points.

    Reported raw: at a solved root the value is float noise around zero and
    may print as a tiny negative.
    """
    return _distance_from_prices(market, _evaluate_one(market, ad, z).prices)


def phi_map(market: Market, ad: ArrowDebreuEquilibrium, z) -> np.ndarray:
    """Certainty-equivalent update map whose fixed points are the equilibria.

    Component ``i`` is the value agent ``i`` gets at ``z`` minus their
    competitive gain, plus their share of the aggregate shortfall; the
    output sums to zero by construction.
    """
    return _evaluate_one(market, ad, z).phi


def _steps(jac, rhs) -> list:
    """Per entry, the zero-sum step ``dz`` whose ``dz[1:]`` solves
    ``jac[k][1:] @ dz[1:] = -rhs[k][1:]``; None where ``jac[k][1:]`` is singular."""
    try:
        dz = np.linalg.solve(jac[:, 1:], -rhs[:, 1:, None])[:, :, 0]
    except np.linalg.LinAlgError:
        if len(jac) == 1:
            return [None]
        return [step for j, r in zip(jac, rhs) for step in _steps(j[None], r[None])]
    return [np.concatenate(([-d.sum()], d)) for d in dz]


@dataclass(slots=True)
class _Start:
    """A Newton start: accepted point, its evaluation (None if unsolvable),
    ``max|F|`` trace, phase, and step (None at a new point) with halvings left."""

    z: np.ndarray
    e: _Evaluation | None
    trace: list
    phase: int = _SEARCH
    step: np.ndarray | None = None
    left: int = 0

    def back_off(self):
        """Halve the step or, with no step or no halving left, go on to the next phase."""
        if self.step is not None and self.left:
            self.step, self.left = self.step * 0.5, self.left - 1
        else:
            self.phase, self.step = self.phase + 1, None


def _newton(market, ad, z, eps_target):
    """Backtracking Newton on ``F(z) = phi(z) - z``, then one step on the
    prices, from every start of the ``(K, n)`` stack ``z`` in lockstep.

    A start searches on ``F``, takes the price step, and is done; no step,
    or no halving left, moves it on to its next phase.  Steps solve for
    ``z[1:]`` (both residuals sum to zero) with the exact Jacobian at the
    accepted point.  A search step is halved, at most 24 times, until
    ``max|F|`` falls; a trial point outside the individually rational box
    ``z_i >= -gain_i``, or whose inner solve fails, counts as no decrease.
    The search ends after 40 accepted steps or at ``max|F| <= eps_target``.
    ``F`` and the prices vanish together only up to the error of the
    competitive gains and the per-state solve divided by ``lambda_i``, so
    the price step, never halved, is kept if it lowers ``max|price|`` and
    keeps ``max|F|`` within ``eps_target`` or its last value.

    Each round the starts at a new point step from one stacked
    :func:`_jacobians` and :func:`_steps`, and all trial points are solved
    in one stacked :func:`_evaluate`, warm from their starts' points, so
    each start searches as it would alone.  Returns ``(z, e, trace)`` per
    start, ``e`` None if it cannot be solved.
    """
    floor = -np.asarray(ad.agent_gains)
    ws = _Workspace(len(z), market.n_agents, market.space.n_states)
    starts = [
        _Start(p, e, [np.inf], _DONE) if e is None else _Start(p, e, [_peak(e.residual)])
        for p, e in zip(z, _evaluate(market, ad, z, None, ws))
    ]
    while any(s.phase != _DONE for s in starts):
        # The stopping rules, which a start trying a step did not meet at its
        # point; prices below 1e-3 * eps_target are noise that no step lowers.
        for s in starts:
            if s.phase == _SEARCH and (len(s.trace) > 40 or s.trace[-1] <= eps_target):
                s.phase = _PRICE
            if s.phase == _PRICE and _peak(s.e.prices) <= 1e-3 * eps_target:
                s.phase = _DONE
        fresh = [s for s in starts if s.step is None and s.phase != _DONE]
        if fresh:
            pricing = np.array([s.phase == _PRICE for s in fresh])
            d_f, d_prices = _jacobians(market, [s.e for s in fresh], ws)
            rhs = np.stack([s.e.prices if p else s.e.residual for s, p in zip(fresh, pricing)])
            steps = _steps(np.where(pricing[:, None, None], d_prices, d_f), rhs)
            for s, p, step in zip(fresh, pricing, steps):
                s.step, s.left = step, 0 if p else 24
                if step is None:
                    s.back_off()
        for s in starts:
            while s.step is not None and not np.all(s.z + s.step >= floor):  # outside the box
                s.back_off()
        live = [s for s in starts if s.step is not None]
        if live:
            points = np.stack([s.z + s.step for s in live])
            tried = _evaluate(market, ad, points, [s.e for s in live], ws)
            for s, point, e in zip(live, points, tried):
                if e is not None and (
                    _peak(e.residual) < s.trace[-1]
                    if s.phase == _SEARCH
                    else _peak(e.prices) < _peak(s.e.prices)
                    and _peak(e.residual) <= max(eps_target, s.trace[-1])
                ):
                    s.z, s.e = point, e
                    if s.phase == _SEARCH:
                        s.trace.append(_peak(e.residual))
                        s.step = None
                        continue
                s.back_off()  # the price step is never halved: kept or not, it was the last
    return [(s.z, s.e, s.trace) for s in starts]


def _starts(market: Market, ad: ArrowDebreuEquilibrium) -> np.ndarray:
    """The Newton starts: the centre of the individually rational box, and for
    three or more agents also its distinct corners, as a ``(K, n)`` stack."""
    gains = np.asarray(ad.agent_gains)
    n = market.n_agents
    starts = [np.zeros(n)]
    if n > 2:
        for k in range(n):
            corner = -gains.copy()
            corner[k] = gains.sum() - gains[k]
            if all(_peak(corner - s) >= 1e-12 for s in starts):
                starts.append(corner)
    return np.stack(starts)


def _assemble(market, z, e: _Evaluation, all_roots) -> NashEquilibrium:
    """The equilibrium at ``z`` from its evaluation ``e``."""
    revealed = tuple(
        normalize_log_density(agent.beliefs, -logr) for agent, logr in zip(market.agents, e.u)
    )
    values = tuple(e.values.tolist())
    z, *all_roots = (np.array(a) for a in (z, *all_roots))
    for a in (z, *all_roots):
        a.setflags(write=False)
    return NashEquilibrium(
        z=z,
        securities=tuple(RandomVariable(market.space, c) for c in e.sec),
        pricing=Measure(market.space, e.q),
        revealed=revealed,
        agent_values=values,
        aggregate_value=float(sum(values)),
        distance=_distance_from_prices(market, e.prices),
        log_ratios=e.u,
        all_roots=tuple(all_roots),
    )


def solve_nash(market: Market, ad: ArrowDebreuEquilibrium | None = None) -> NashEquilibrium:
    """Solve the risk-sharing game.

    Backtracking Newton on ``phi(z) - z`` (see :func:`_newton`) from the
    centre of the individually rational box, and for three or more agents
    also from its ``n`` corners, where uniqueness is not guaranteed.  An end
    is a root when its equilibrium distance is at most ``DISTANCE_RTOL *
    delta_total``, a bound on float noise, since the equilibria are the
    zero-distance points; Newton keeps going well below it so
    post-equilibrium identities hold to tighter tolerances.  Every distinct
    root is reported, smallest ``max|price|`` first.

    Pure given its inputs: repeated calls return identical results, and
    concurrent use is safe.
    """
    if ad is None:
        ad = solve_arrow_debreu(market)
    tol = DISTANCE_RTOL * market.delta_total
    eps_target = 1e-12 * max(1.0, market.delta_total)

    ends = []  # (distance, max|price|, z, trace, evaluation) per start
    for z, e, trace in _newton(market, ad, _starts(market, ad), eps_target):
        dist = price = float("inf")
        if e is not None:
            dist, price = _distance_from_prices(market, e.prices), _peak(e.prices)
        ends.append((dist, price, z, trace, e))
    found = []  # (z, evaluation) per distinct root
    # At a root the distance is float noise around zero; of several ends at
    # one root, the one with the smallest prices is kept.
    for dist, _, z, _, e in sorted(ends, key=lambda end: end[1]):
        if dist <= tol and not any(_peak(z - r) <= 1e-7 * (1.0 + _peak(r)) for r, _ in found):
            found.append((z, e))
    if not found:
        best = min(ends, key=lambda end: end[0])
        raise SolverError(
            "no equilibrium reached the distance tolerance",
            diagnostics={
                "best_z": best[2].tolist(),
                "best_distance": best[0],
                "tolerance": tol,
                "residual_traces": [end[3][-5:] for end in ends],
            },
        )
    return _assemble(market, *found[0], all_roots=[z for z, _ in found])
