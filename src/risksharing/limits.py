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
from .errors import DimensionError
from .measures import (
    Measure,
    RandomVariable,
    expect,
    normalize_log_density,
    relative_entropy,
    variance,
)
from .nash import solve_nash
from .roots import increasing_root, logsumexp, solve_exp_linear


@dataclass(frozen=True)
class LimitReport:
    limiting_ad_security: RandomVariable
    limiting_nash_security: RandomVariable
    z_infinity: float
    limiting_pricing: Measure
    gain_agent0: float
    loss_agent1: float
    convergence_table: tuple


def _check_pair(p0: Measure, agent1: Agent) -> None:
    if p0.space is not agent1.beliefs.space and p0.space != agent1.beliefs.space:
        raise DimensionError("the two agents must share one state space")


def limiting_arrow_debreu(p0: Measure, agent1: Agent):
    """Competitive limit when agent 0 becomes risk neutral.

    Returns the limiting security of agent 0 together with the limiting
    gains of the two agents (zero for the risk-neutral side, the scaled
    belief divergence for the other).
    """
    _check_pair(p0, agent1)
    d1 = agent1.delta
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
    _check_pair(p0, agent1)
    ad_security, _, _ = limiting_arrow_debreu(p0, agent1)
    d1 = agent1.delta
    logp0 = p0.log_weights()

    def neg_log_mean_inverse_ratio(z: float):
        u = solve_exp_linear(d1, d1, z + ad_security.values)
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


def one_agent_limit_report(p0: Measure, agent1: Agent, delta_grid) -> LimitReport:
    """Limit objects plus a finite-tolerance convergence table.

    For each tolerance in ``delta_grid`` the two-agent market is solved
    exactly and the sup-norm distances of agent 0's competitive and game
    securities from their limits are tabulated.
    """
    _check_pair(p0, agent1)
    ad_security, gain0_ad, gain1_ad = limiting_arrow_debreu(p0, agent1)
    z_inf, nash_security, valuation = limiting_nash(p0, agent1)
    gain0, loss1 = _gains(p0, agent1.delta, nash_security, valuation)
    rows = []
    for d0 in delta_grid:
        market = Market([Agent(float(d0), p0), agent1])
        ad = solve_arrow_debreu(market)
        eq = solve_nash(market, ad=ad)
        dist_ad = float(np.max(np.abs(ad.securities[0].values - ad_security.values)))
        dist_nash = float(
            np.max(np.abs(eq.securities[0].values - nash_security.values))
        )
        rows.append((float(d0), dist_ad, dist_nash))
    return LimitReport(
        limiting_ad_security=ad_security,
        limiting_nash_security=nash_security,
        z_infinity=z_inf,
        limiting_pricing=valuation,
        gain_agent0=gain0,
        loss_agent1=loss1,
        convergence_table=tuple(rows),
    )


def both_limit_check(
    xi0: RandomVariable, xi1: RandomVariable, lambda0: float, delta_sequence
):
    """Convergence table for the proportional-tolerance limit.

    Belief tilts ``xi_i`` are normalised to zero baseline mean at ingestion.
    For each aggregate tolerance the market with tolerances
    ``(lambda0*delta, (1-lambda0)*delta)`` and beliefs tilted by
    ``xi_i/delta_i`` is solved, and sup-norm distances of agent 0's
    securities from the limiting competitive security and from half of it
    are tabulated as rows ``(delta, dist_competitive, dist_game)``.
    """
    if xi0.space is not xi1.space and xi0.space != xi1.space:
        raise DimensionError("tilts must share one state space")
    if not (0.0 < lambda0 < 1.0):
        raise ValueError("lambda0 must lie strictly between 0 and 1")
    space = xi0.space
    base = space.baseline()
    x0 = xi0.values - expect(base, xi0)
    x1 = xi1.values - expect(base, xi1)
    lam1 = 1.0 - lambda0
    ad_limit = lam1 * x0 - lambda0 * x1
    nash_limit = 0.5 * ad_limit
    rows = []
    for delta in delta_sequence:
        d0, d1 = lambda0 * float(delta), lam1 * float(delta)
        agents = [
            Agent(d0, normalize_log_density(base, x0 / d0)),
            Agent(d1, normalize_log_density(base, x1 / d1)),
        ]
        market = Market(agents)
        ad = solve_arrow_debreu(market)
        eq = solve_nash(market, ad=ad)
        dist_ad = float(np.max(np.abs(ad.securities[0].values - ad_limit)))
        dist_nash = float(np.max(np.abs(eq.securities[0].values - nash_limit)))
        rows.append((float(delta), dist_ad, dist_nash))
    return tuple(rows)
