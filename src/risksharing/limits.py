"""Two-agent equilibria when risk tolerance becomes extreme.

When agent 0's risk tolerance grows without bound (agent 1 fixed), both the
competitive and the game equilibria converge to closed-form limit objects,
computed here directly; convergence tables compare them with finite-
tolerance solves.  When both tolerances grow proportionally, the game
security converges to half the competitive one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agents import Agent, Market
from .arrow_debreu import solve_arrow_debreu
from .errors import ContractError
from .measures import (
    Measure,
    RandomVariable,
    _same_space,
    expect,
    normalize_log_density,
    relative_entropy,
    variance,
)
from .nash import solve_nash
from .roots import increasing_root, logsumexp, solve_exp_linear


# Convergence rows ``(delta, dist_competitive, dist_game)``.
Table = tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class LimitReport:
    ad_security: RandomVariable
    nash_security: RandomVariable
    z_infinity: float
    pricing: Measure
    gain_agent0: float
    loss_agent1: float
    table: Table


def limiting_arrow_debreu(p0: Measure, agent1: Agent):
    """Competitive limit when agent 0 becomes risk neutral.

    Returns the limiting security of agent 0 together with the limiting
    gains of the two agents (zero for the risk-neutral side, the scaled
    belief divergence for the other).
    """
    d1 = agent1.delta
    # log_density also checks that the two agents share one state space.
    log_ratio = p0.log_density(agent1.beliefs)
    gap = relative_entropy(p0, agent1.beliefs)
    security = RandomVariable(p0.space, d1 * log_ratio - d1 * gap)
    return security, 0.0, d1 * gap


def limiting_nash(p0: Measure, agent1: Agent):
    """Game limit when agent 0 becomes risk neutral.

    The per-state security ``C = d1*expm1(u)`` solves a monotone implicit
    equation indexed by a scalar ``z``; ``z_infinity`` is the unique root of
    the strictly increasing ``f(z) = -log E_{p0}[exp(-u)]``, found by
    :func:`~risksharing.roots.increasing_root`.  With
    ``u' = 1/(d1 (exp(u) + 1))`` the slope of ``z -> u``,
    ``f'(z) = E_B[u']`` where ``B`` is proportional to ``p0 exp(-u)``.
    Returns ``(z_infinity, security, valuation)``.
    """
    ad_security, _, _ = limiting_arrow_debreu(p0, agent1)
    d1 = agent1.delta
    logp0 = p0.log_weights()

    u_last = None  # each kernel call starts from the last evaluation's u

    def neg_log_mean_inverse_ratio(z: float):
        nonlocal u_last
        u = u_last = solve_exp_linear(d1, d1, z + ad_security.values, start=u_last)
        f = -float(logsumexp(logp0 - u))
        slope = np.sum(np.exp(logp0 - u + f) / (d1 * (np.exp(u) + 1.0)))
        return f, slope, u

    z_inf, u = increasing_root(neg_log_mean_inverse_ratio, 0.0, 1e9)
    security = RandomVariable(p0.space, d1 * np.expm1(u))
    valuation = normalize_log_density(p0, -u)
    return float(z_inf), security, valuation


def _gains(p0: Measure, d1: float, security: RandomVariable, valuation: Measure):
    gain0 = variance(valuation, security) / d1
    loss1 = -gain0 - d1 * relative_entropy(p0, valuation)
    return float(gain0), float(loss1)


def limiting_gains(p0: Measure, agent1: Agent):
    """Limiting value changes (game minus competitive) for both agents.

    Agent 0 always gains: the variance of the limiting security under the
    limiting valuation, scaled by agent 1's tolerance.  Agent 1 loses that
    gain plus the scaled divergence of agent 0's beliefs from the limiting
    valuation.
    """
    _, security, valuation = limiting_nash(p0, agent1)
    return _gains(p0, agent1.delta, security, valuation)


def _convergence_table(delta_grid, agents_at, ad_limit, nash_limit) -> Table:
    """Rows ``(delta, dist_competitive, dist_game)``: the sup-norm distances of
    agent 0's securities in the solved market ``agents_at(delta)`` from the limits."""
    rows = []
    for delta in map(float, delta_grid):
        market = Market(agents_at(delta))
        ad = solve_arrow_debreu(market)
        eq = solve_nash(market, ad=ad)
        dist_ad = float(np.max(np.abs(ad.securities[0].values - ad_limit)))
        dist_nash = float(np.max(np.abs(eq.securities[0].values - nash_limit)))
        rows.append((delta, dist_ad, dist_nash))
    return tuple(rows)


def one_agent_limit_report(p0: Measure, agent1: Agent, delta_grid) -> LimitReport:
    """Limit objects plus a finite-tolerance convergence table.

    For each tolerance in ``delta_grid`` the two-agent market is solved
    exactly and the sup-norm distances of agent 0's competitive and game
    securities from their limits are tabulated.
    """
    ad_security, _, _ = limiting_arrow_debreu(p0, agent1)
    z_inf, nash_security, valuation = limiting_nash(p0, agent1)
    gain0, loss1 = _gains(p0, agent1.delta, nash_security, valuation)
    table = _convergence_table(
        delta_grid, lambda d0: [Agent(d0, p0), agent1], ad_security.values, nash_security.values
    )
    return LimitReport(ad_security, nash_security, z_inf, valuation, gain0, loss1, table)


def both_limit_check(
    xi0: RandomVariable, xi1: RandomVariable, lambda0: float, delta_sequence
) -> Table:
    """Convergence table for the proportional-tolerance limit.

    Belief tilts ``xi_i`` are normalised to zero baseline mean at ingestion.
    For each aggregate tolerance the market with tolerances
    ``(lambda0*delta, (1-lambda0)*delta)`` and beliefs tilted by
    ``xi_i/delta_i`` is solved, and sup-norm distances of agent 0's
    securities from the limiting competitive security and from half of it
    are tabulated as rows ``(delta, dist_competitive, dist_game)``.
    """
    space = _same_space(xi0, xi1)
    if not (0.0 < lambda0 < 1.0):
        raise ContractError("lambda0 must lie strictly between 0 and 1")
    base = space.baseline()
    x0 = xi0.values - expect(base, xi0)
    x1 = xi1.values - expect(base, xi1)
    lam1 = 1.0 - lambda0
    ad_limit = lam1 * x0 - lambda0 * x1

    def agents_at(delta: float) -> list:
        tilted = ((lambda0 * delta, x0), (lam1 * delta, x1))
        return [Agent(d, normalize_log_density(base, x / d)) for d, x in tilted]

    return _convergence_table(delta_sequence, agents_at, ad_limit, 0.5 * ad_limit)
