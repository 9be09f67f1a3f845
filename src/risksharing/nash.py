"""Nash risk-sharing equilibrium solver.

For each zero-sum vector ``z`` (one coordinate per agent) there is a unique
collection of candidate securities solving a coupled per-state system; the
equilibria are exactly the ``z`` at which every candidate security has zero
price under the induced valuation.  The per-state system is convex with an
M-matrix Jacobian, so one joint Newton iteration per state, started at a
super-solution, decreases monotonically to its root.  The zero-price
condition is met at the fixed points of the certainty-equivalent update map
``phi``, found for every agent count by one backtracking Newton iteration on
``phi(z) - z`` with a last Newton step on the prices: from the centre of the
individually rational box for two agents, where the root is unique, and also
from its corners for three or more, where all distinct roots found are
reported.
"""

from __future__ import annotations

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
    securities: tuple
    pricing: Measure
    revealed: tuple
    agent_values: tuple
    aggregate_value: float
    distance: float
    log_ratios: np.ndarray
    all_roots: tuple

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


def _inner_log_ratios(market: Market, ad: ArrowDebreuEquilibrium, z: np.ndarray):
    """Per-state solve of the coupled security system.

    Returns ``(u, y)``: ``u[i]`` is log(1 + C_i/delta_minus_i) per state and
    ``y`` the lambda-weighted mean of the ``u[i]``.  With ``a = z + C*`` and
    ``D_i = delta_minus_i * exp(u_i) + delta_i``, each state solves

        G_i = delta_minus_i * expm1(u_i) + delta_i * (u_i - y) - a_i = 0,
        W   = y - sum_i lambda_i * u_i = 0.

    The system is convex and its Jacobian ``[[diag(D), -delta], [-lambda^T, 1]]``
    is an M-matrix, so Newton started where ``G, W >= 0`` decreases
    monotonically to the root (Ortega & Rheinboldt, 1970, 13.3).  A step is
    one pass over the states through the Schur complement
    ``s = 1 - sum_i lambda_i * delta_i / D_i``.  It starts at
    ``y0 = sum_i lambda_i * cap_i`` with ``u`` solved at ``y0``: every ratio
    at the root lies below its cap, so ``W(y0) > 0``.  An agent holding
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
    y = np.full(a.shape[1], float(market.lambdas @ caps))
    u = solve_exp_linear(dminus, deltas, a + deltas * y)
    w = y - np.sum(lambdas * u, axis=0)
    if np.any(w < 0.0):
        idx = int(np.argmin(w))
        raise SolverError(
            "per-state start is not a super-solution",
            diagnostics={"state": idx, "residual": float(w[idx])},
        )
    v = u[dom] - y
    caps = (caps - 1e-14 * (1.0 + np.abs(caps)))[:, None]
    # Tolerances scale with the terms, y's among them through dG/dy, not with
    # their sum, which cancels; the step from a point within them lands on
    # the rounding floor.
    a_scale = 1.0 + np.abs(a)
    for _ in range(INNER_MAX_ITER):
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
        done = np.all(np.abs(w) <= 1e-14 * (1.0 + rest * abs_y + np.sum(np.abs(lam_u), axis=0)))
        if done:  # G is checked only once W is within its tolerance
            g_scale = a_scale + deltas * abs_y
            g_scale[dom] = a_scale[dom] + np.abs(spread[dom]) + growth[dom] * abs_y
            done = np.all(np.abs(g) <= 1e-14 * g_scale)
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
            return np.minimum(u, caps), y
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


def _inner_solution(market: Market, ad: ArrowDebreuEquilibrium, u, y) -> InnerSolution:
    securities = market.delta_minus[:, None] * np.expm1(u)
    valuation = normalize_log_density(ad.pricing, -y)
    space = market.space
    u = u.copy()
    u.setflags(write=False)
    return InnerSolution(
        securities=tuple(RandomVariable(space, c) for c in securities),
        log_ratios=u,
        log_tilt=RandomVariable(space, y),
        valuation=valuation,
    )


def inner_solve(market: Market, ad: ArrowDebreuEquilibrium, z) -> InnerSolution:
    """Unique candidate securities, log tilt, and valuation at ``z``."""
    z = _check_z(market, z)
    return _inner_solution(market, ad, *_inner_log_ratios(market, ad, z))


def _phi_and_prices(market: Market, ad: ArrowDebreuEquilibrium, z: np.ndarray):
    """The update map ``phi(z)``, the candidate prices and the inner ``(u, y)``."""
    u, y = _inner_log_ratios(market, ad, z)
    securities = market.delta_minus[:, None] * np.expm1(u)
    q = normalize_log_density(ad.pricing, -y).weights
    payoffs = (RandomVariable(market.space, c) for c in securities)
    u_vals = np.array([cara_utility(a, x) for a, x in zip(market.agents, payoffs)])
    shortfall = ad.aggregate_gain - float(u_vals.sum())
    phi = u_vals - np.asarray(ad.agent_gains) + market.lambdas * shortfall
    return phi, securities @ q, u, y


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
    z = _check_z(market, z)
    return _distance_from_prices(market, _phi_and_prices(market, ad, z)[1])


def phi_map(market: Market, ad: ArrowDebreuEquilibrium, z) -> np.ndarray:
    """Certainty-equivalent update map whose fixed points are the equilibria.

    Component ``i`` is the value agent ``i`` gets at ``z`` minus their
    competitive gain, plus their share of the aggregate shortfall; the
    output sums to zero by construction.
    """
    z = _check_z(market, z)
    return _phi_and_prices(market, ad, z)[0]


def _newton(market, ad, z, eps_target):
    """Backtracking Newton on ``F(z) = phi(z) - z``, then one step on the prices.

    Both residuals sum to zero, so a step solves for ``z[1:]`` with a
    forward-difference Jacobian.  A step is halved until ``max|F|`` falls; a
    trial point outside the individually rational box ``z_i >= -gain_i``, or
    whose inner solve fails, counts as no decrease.  ``F`` and the prices
    vanish together only up to the error of the competitive gains and the
    per-state solve divided by ``lambda_i``, so a last Newton step on the
    prices is kept if it lowers ``max|price|`` and keeps ``max|F|`` within
    ``eps_target`` or its last value.  Returns the point, its residuals and
    inner solution ``(F, prices, u, y)`` (None if the start cannot be
    solved) and ``max|F|`` at every accepted point.
    """
    n = market.n_agents
    floor = -np.asarray(ad.agent_gains)

    def residuals(z):
        try:
            phi, eps, u, y = _phi_and_prices(market, ad, z)
        except SolverError:
            return None
        return phi - z, eps, u, y

    def trial(z):
        return residuals(z) if np.all(z >= floor) else None

    def newton_step(z, r, which):
        h = 1e-7 * (1.0 + np.abs(z[1:]))
        jac = np.empty((n - 1, n - 1))
        for k in range(n - 1):
            dz = np.zeros(n)
            dz[0], dz[k + 1] = -h[k], h[k]
            bumped = residuals(z + dz)
            if bumped is None:
                return None
            jac[:, k] = (bumped[which][1:] - r[which][1:]) / h[k]
        try:
            dy = np.linalg.solve(jac, -r[which][1:])
        except np.linalg.LinAlgError:
            return None
        return np.concatenate(([-dy.sum()], dy))

    r = residuals(z)
    if r is None:
        return z, None, [float("inf")]
    trace = [float(np.max(np.abs(r[0])))]
    for _ in range(40):
        step = None if trace[-1] <= eps_target else newton_step(z, r, 0)
        if step is None:
            break
        for _ in range(25):
            r_try = trial(z + step)
            if r_try is not None and np.max(np.abs(r_try[0])) < trace[-1]:
                z, r = z + step, r_try
                trace.append(float(np.max(np.abs(r[0]))))
                break
            step *= 0.5
        else:
            break
    # Prices below 1e-3 * eps_target are float noise that no step lowers.
    step = newton_step(z, r, 1) if np.max(np.abs(r[1])) > 1e-3 * eps_target else None
    if step is not None:
        r_try = trial(z + step)
        if (
            r_try is not None
            and np.max(np.abs(r_try[1])) < np.max(np.abs(r[1]))
            and np.max(np.abs(r_try[0])) <= max(eps_target, trace[-1])
        ):
            z, r = z + step, r_try
    return z, r, trace


def _assemble(market, ad, z, r, all_roots) -> NashEquilibrium:
    """The equilibrium at ``z`` from its residuals and inner solution ``r``."""
    _, eps, u, y = r
    sol = _inner_solution(market, ad, u, y)
    revealed = tuple(
        normalize_log_density(agent.beliefs, -logr)
        for agent, logr in zip(market.agents, sol.log_ratios)
    )
    values = tuple(
        cara_utility(agent, c) for agent, c in zip(market.agents, sol.securities)
    )
    return NashEquilibrium(
        z=z,
        securities=sol.securities,
        pricing=sol.valuation,
        revealed=revealed,
        agent_values=values,
        aggregate_value=float(sum(values)),
        distance=_distance_from_prices(market, eps),
        log_ratios=sol.log_ratios,
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

    ends = []  # (distance, max|price|, z, trace, residuals) per start
    for z_start in starts:
        z, r, trace = _newton(market, ad, z_start, eps_target)
        dist = price = float("inf")
        if r is not None:
            dist, price = _distance_from_prices(market, r[1]), float(np.max(np.abs(r[1])))
        ends.append((dist, price, z, trace, r))
    found = []  # (z, residuals) per distinct root
    # At a root the distance is float noise around zero; of several ends at
    # one root, the one with the smallest prices is kept.
    for dist, _, z, _, r in sorted(ends, key=lambda end: end[1]):
        if dist <= tol and not any(
            np.max(np.abs(z - root)) <= 1e-7 * (1.0 + np.max(np.abs(root))) for root, _ in found
        ):
            found.append((z, r))
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
    return _assemble(market, ad, *found[0], all_roots=[z for z, _ in found])
