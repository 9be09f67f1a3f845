"""Nash risk-sharing equilibrium solver.

For each zero-sum vector ``z`` (one coordinate per agent) there is a unique
collection of candidate securities solving a coupled per-state system; the
equilibria are exactly the ``z`` at which every candidate security has zero
price under the induced valuation.  The per-state system is convex with an
M-matrix Jacobian, so one joint Newton iteration per state, started at a
super-solution, decreases monotonically to its root; one Newton step from
any point lands on a super-solution.  So each outer Newton start solves
its first point cold and every later trial point warm, from the last
accepted point's solution, redone cold where the warm solve fails.  The
zero-price condition is met at the fixed points of the certainty-equivalent
update map ``phi``, found for every agent count by one backtracking Newton
iteration on ``phi(z) - z`` and a last Newton step on the prices, both with
exact Jacobians: from the centre of the individually rational box for two
agents, where the root is unique, and also from its corners for three or
more, where all distinct roots found are reported.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .agents import Market, cara_utility
from .arrow_debreu import ArrowDebreuEquilibrium, solve_arrow_debreu
from .errors import ContractError, SolverError
from .measures import Measure, RandomVariable, normalize_log_density
from .roots import solve_exp_linear

INNER_MAX_ITER = 100
Z_SUM_TOL = 1e-9


@dataclass(frozen=True)
class InnerSolution:
    """Candidate securities and valuation for one zero-sum vector.

    ``log_ratios[i]`` holds log(1 + C_i/delta_minus_i) per state in solution
    space; securities satisfy C_i = delta_minus_i * expm1(log_ratios[i]).
    Residual checks should use ``log_ratios`` directly: recomputing the log
    from float security values loses precision where a security sits within
    ~1e-12 of its endogenous bound.
    """

    securities: tuple
    log_ratios: np.ndarray
    log_tilt: RandomVariable
    valuation: Measure

    def security_values(self) -> np.ndarray:
        return np.stack([c.values for c in self.securities])


@dataclass(frozen=True)
class NashEquilibrium:
    """Solved game: transfers, securities, valuation, revealed beliefs.

    ``log_ratios`` carries log(1 + C_i/delta_minus_i) in solution space; see
    :class:`InnerSolution` for why residuals should be evaluated with it.
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
    scale = max(1.0, float(np.max(np.abs(z))))
    if abs(float(z.sum())) > Z_SUM_TOL * scale:
        raise ContractError(f"z must sum to zero, got sum {z.sum()!r}")
    return z


def _inner_log_ratios(market: Market, ad: ArrowDebreuEquilibrium, z: np.ndarray, start=None):
    """Per-state solve of the coupled security system.

    Returns ``(u, y)``: ``u[i]`` is log(1 + C_i/delta_minus_i) per state and
    ``y`` the lambda-weighted mean of the ``u[i]``.  With ``a = z + C*`` and
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
    ``(u, y)`` solved at a nearby ``z``, is a warm start instead; if its
    first step does not land where ``G, W`` are at least minus their
    tolerances (float rounding or overflow on a far start), or it does not
    converge, the solve is redone from the cold start.  An agent holding
    over half the total tolerance is carried as ``v = u - y``: its ``u`` is
    close to ``y``, and ``y`` amplifies an error in ``v`` by
    ``1/lambda_minus``.
    """
    cstar = ad.security_values()
    a = z[:, None] + cstar  # (n, S)
    deltas = market.deltas[:, None]
    dminus = market.delta_minus[:, None]
    lambdas = market.lambdas[:, None]
    top = int(np.argmax(market.lambdas))
    dom = slice(top, top + 1) if market.lambdas[top] > 0.5 else slice(0, 0)  # carried as v
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
    # Tolerances scale with the terms, y's among them through dG/dy, not with
    # their sum, which cancels; the step from a point within them lands on
    # the rounding floor.
    a_scale = 1.0 + np.abs(a)

    def newton(u, y, warm):
        """Joint Newton from ``(u, y)``; None where a warm start fails."""
        v = u[dom] - y
        for k in range(INNER_MAX_ITER):
            em1 = np.expm1(u)
            growth = dminus * (em1 + 1.0)
            d = growth + deltas
            spread = deltas * (u - y)
            spread[dom] = deltas[dom] * v
            g = dminus * em1 + spread - a
            lam_u = lambdas * u
            lam_u[dom] = lambdas[dom] * v
            w = rest * y - np.sum(lam_u, axis=0)
            abs_y = np.abs(y)
            w_tol = 1e-14 * (1.0 + rest * abs_y + np.sum(np.abs(lam_u), axis=0))
            done = np.all(np.abs(w) <= w_tol)
            check = warm and k == 1  # the first warm step must land on a super-solution
            # G is checked only once W is within its tolerance, or for that check.
            if done or check:
                g_tol = a_scale + deltas * abs_y
                g_tol[dom] = a_scale[dom] + np.abs(spread[dom]) + growth[dom] * abs_y
                g_tol *= 1e-14
                if check and not (np.all(g >= -g_tol) and np.all(w >= -w_tol)):
                    return None
                done = done and np.all(np.abs(g) <= g_tol)
            # s = 1 - sum_i lambda_i*delta_i/D_i, summed without cancellation.
            lam_d = lambdas / d
            s = np.sum(lam_d * growth, axis=0)
            dy = -(w + np.sum(lam_d * g, axis=0)) / s
            du = (deltas * dy - g) / d
            y += dy
            v += du[dom] - dy
            u += du
            u[dom] = v + y
            if done:
                return np.minimum(u, projected), y
        if warm:
            return None
        idx = int(np.argmax(np.max(np.abs(g), axis=0) + np.abs(w)))
        raise SolverError(
            "per-state security system did not converge",
            diagnostics={
                "state": idx,
                "residual": float(np.max(np.abs(g[:, idx]))),
                "coupling_residual": float(w[idx]),
                "iterations": INNER_MAX_ITER,
            },
        )

    if start is not None:
        with np.errstate(all="ignore"):  # a far start may overflow; it then falls back
            solved = newton(np.array(start[0], dtype=float), np.array(start[1], dtype=float), True)
        if solved is not None:
            return solved
    y = np.full(a.shape[1], float(market.lambdas @ caps))
    u = solve_exp_linear(dminus, deltas, a + deltas * y)
    w = y - np.sum(lambdas * u, axis=0)
    if np.any(w < 0.0):
        idx = int(np.argmin(w))
        raise SolverError(
            "per-state start is not a super-solution",
            diagnostics={"state": idx, "residual": float(w[idx])},
        )
    return newton(u, y, False)


_Evaluation = namedtuple("_Evaluation", "phi residual prices sol values")


def _evaluate(market: Market, ad: ArrowDebreuEquilibrium, z: np.ndarray, near=None) -> _Evaluation:
    """``phi``, ``F = phi - z``, the prices, the inner solution and the values at ``z``.

    ``near``, an evaluation at a nearby point, warm-starts the inner solve.
    """
    start = None if near is None else (near.sol.log_ratios, near.sol.log_tilt.values)
    u, y = _inner_log_ratios(market, ad, z, start)
    u.setflags(write=False)
    sec = market.delta_minus[:, None] * np.expm1(u)
    sol = InnerSolution(
        securities=tuple(RandomVariable(market.space, c) for c in sec),
        log_ratios=u,
        log_tilt=RandomVariable(market.space, y),
        valuation=normalize_log_density(ad.pricing, -y),
    )
    values = np.array([cara_utility(a, c) for a, c in zip(market.agents, sol.securities)])
    phi = values - np.asarray(ad.agent_gains) + market.lambdas * (ad.aggregate_gain - values.sum())
    return _Evaluation(phi, phi - z, np.sum(sec * sol.valuation.weights, axis=1), sol, values)


def _jacobians(market: Market, e: _Evaluation):
    """Jacobians of ``F`` and of the prices of ``e`` in ``z[1:]`` (``z[0] = -sum(z[1:])``).

    Differentiating the per-state system of :func:`_inner_log_ratios` gives
    ``dy/dz_j = lambda_j/(D_j*s)`` and ``dC_i/dz_j = r_i*(delta_i*dy/dz_j + [i = j])``
    with ``r_i = delta_minus_i*exp(u_i)/D_i``.  A value moves by ``E_{Q_i}[dC_i/dz_j]``,
    with ``Q_i`` proportional to ``P_i*exp(-C_i/delta_i)``, and a price by
    ``E_q[dC_i/dz_j] - Cov_q(C_i, dy/dz_j)``.
    """
    deltas, lambdas = market.deltas[:, None], market.lambdas[:, None]
    sec, q = e.sol.security_values(), e.sol.valuation.weights
    growth = sec + market.delta_minus[:, None]  # dC/du
    ratio = growth / (growth + deltas)
    dy = lambdas / ((growth + deltas) * np.sum(lambdas * ratio, axis=0))  # row j: dy/dz_j
    tilt = market.log_beliefs - sec / deltas
    big_q = np.exp(tilt - tilt.max(axis=1, keepdims=True))
    big_q *= ratio / np.sum(big_q, axis=1, keepdims=True)  # Q_i * r_i
    # The [i = j] terms are summed apart, so no (n, n, S) array is formed.
    d_values = deltas * np.einsum("is,js->ij", big_q, dy) + np.diag(np.sum(big_q, axis=1))
    d_f = d_values - lambdas * np.sum(d_values, axis=0) - np.eye(market.n_agents)
    q_r = q * ratio
    d_prices = np.einsum("is,js->ij", deltas * q_r - q * (sec - e.prices[:, None]), dy)
    d_prices += np.diag(np.sum(q_r, axis=1))
    return d_f[:, 1:] - d_f[:, :1], d_prices[:, 1:] - d_prices[:, :1]


def inner_solve(market: Market, ad: ArrowDebreuEquilibrium, z) -> InnerSolution:
    """Unique candidate securities, log tilt, and valuation at ``z``."""
    return _evaluate(market, ad, _check_z(market, z)).sol


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
    return _distance_from_prices(market, _evaluate(market, ad, _check_z(market, z)).prices)


def phi_map(market: Market, ad: ArrowDebreuEquilibrium, z) -> np.ndarray:
    """Certainty-equivalent update map whose fixed points are the equilibria.

    Component ``i`` is the value agent ``i`` gets at ``z`` minus their
    competitive gain, plus their share of the aggregate shortfall; the
    output sums to zero by construction.
    """
    return _evaluate(market, ad, _check_z(market, z)).phi


def _newton(market, ad, z, eps_target):
    """Backtracking Newton on ``F(z) = phi(z) - z``, then one step on the prices.

    Both residuals sum to zero, so a step solves for ``z[1:]`` with the
    exact Jacobian :func:`_jacobians` gives at the accepted point.  A step is
    halved until ``max|F|`` falls; a trial point outside the individually
    rational box ``z_i >= -gain_i``, or whose inner solve fails, counts as
    no decrease.  ``F`` and the prices vanish together only up to the error
    of the competitive gains and the per-state solve divided by
    ``lambda_i``, so a last Newton step on the prices is kept if it lowers
    ``max|price|`` and keeps ``max|F|`` within ``eps_target`` or its last
    value.  Every trial's inner solve is warm-started from the last accepted
    point's.  Returns the point, its evaluation (None if the start cannot be
    solved) and ``max|F|`` at every accepted point.
    """
    floor = -np.asarray(ad.agent_gains)

    def evaluate(z, near=None):
        try:
            return _evaluate(market, ad, z, near)
        except SolverError:
            return None

    def trial(z, near):
        return evaluate(z, near) if np.all(z >= floor) else None

    def newton_step(e, which):
        residual, jac = (e.residual, e.prices)[which], _jacobians(market, e)[which]
        try:
            dy = np.linalg.solve(jac[1:], -residual[1:])
        except np.linalg.LinAlgError:
            return None
        return np.concatenate(([-dy.sum()], dy))

    e = evaluate(z)
    if e is None:
        return z, None, [float("inf")]
    trace = [float(np.max(np.abs(e.residual)))]
    for _ in range(40):
        step = None if trace[-1] <= eps_target else newton_step(e, 0)
        if step is None:
            break
        for _ in range(25):
            e_try = trial(z + step, e)
            if e_try is not None and np.max(np.abs(e_try.residual)) < trace[-1]:
                z, e = z + step, e_try
                trace.append(float(np.max(np.abs(e.residual))))
                break
            step *= 0.5
        else:
            break
    # Prices below 1e-3 * eps_target are float noise that no step lowers.
    if np.max(np.abs(e.prices)) > 1e-3 * eps_target:
        step = newton_step(e, 1)
        e_try = None if step is None else trial(z + step, e)
        if (
            e_try is not None
            and np.max(np.abs(e_try.prices)) < np.max(np.abs(e.prices))
            and np.max(np.abs(e_try.residual)) <= max(eps_target, trace[-1])
        ):
            z, e = z + step, e_try
    return z, e, trace


def _assemble(market, z, e: _Evaluation, all_roots) -> NashEquilibrium:
    """The equilibrium at ``z`` from its evaluation ``e``."""
    revealed = tuple(
        normalize_log_density(agent.beliefs, -logr)
        for agent, logr in zip(market.agents, e.sol.log_ratios)
    )
    values = tuple(e.values.tolist())
    return NashEquilibrium(
        z=z,
        securities=e.sol.securities,
        pricing=e.sol.valuation,
        revealed=revealed,
        agent_values=values,
        aggregate_value=float(sum(values)),
        distance=_distance_from_prices(market, e.prices),
        log_ratios=e.sol.log_ratios,
        all_roots=tuple(np.array(r) for r in all_roots),
    )


def solve_nash(
    market: Market,
    ad: ArrowDebreuEquilibrium | None = None,
    tol: float | None = None,
) -> NashEquilibrium:
    """Solve the risk-sharing game.

    Backtracking Newton on ``phi(z) - z`` (see :func:`_newton`) from the
    centre of the individually rational box, and for three or more agents
    also from its ``n`` corners, where uniqueness is not guaranteed.  Every
    distinct root within ``tol`` is reported, smallest ``max|price|`` first.
    ``tol`` is the acceptance threshold on the equilibrium distance and
    defaults to ``1e-10 * delta_total``; Newton keeps going well below it
    so post-equilibrium identities hold to tighter tolerances.

    Pure given its inputs: repeated calls return identical results, and
    concurrent use is safe.
    """
    if ad is None:
        ad = solve_arrow_debreu(market)
    if tol is None:
        tol = 1e-10 * market.delta_total
    eps_target = 1e-12 * max(1.0, market.delta_total)

    gains = np.asarray(ad.agent_gains)
    n = market.n_agents
    starts = [np.zeros(n)]
    if n > 2:
        for k in range(n):
            corner = -gains.copy()
            corner[k] = gains.sum() - gains[k]
            if any(np.max(np.abs(corner - s)) < 1e-12 for s in starts):
                continue
            starts.append(corner)

    ends = []  # (distance, max|price|, z, trace, evaluation) per start
    for z_start in starts:
        z, e, trace = _newton(market, ad, z_start, eps_target)
        dist = price = float("inf")
        if e is not None:
            dist, price = _distance_from_prices(market, e.prices), float(np.max(np.abs(e.prices)))
        ends.append((dist, price, z, trace, e))
    found = []  # (z, evaluation) per distinct root
    # At a root the distance is float noise around zero; of several ends at
    # one root, the one with the smallest prices is kept.
    for dist, _, z, _, e in sorted(ends, key=lambda end: end[1]):
        if dist <= tol and not any(
            np.max(np.abs(z - root)) <= 1e-7 * (1.0 + np.max(np.abs(root))) for root, _ in found
        ):
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
