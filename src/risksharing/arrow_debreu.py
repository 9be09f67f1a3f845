"""The competitive benchmark: unique price-taking equilibrium.

The valuation measure is the risk-tolerance-weighted geometric mean of the
agents' beliefs, and each agent's security is their log-density against it
plus the entropy cash leg, so all securities carry zero price.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agents import Agent, Market, cara_utility
from .errors import SolverError
from .measures import Measure, RandomVariable, _same_space, geometric_mean_measure

CLEARING_TOL = 1e-9


@dataclass(frozen=True)
class ArrowDebreuEquilibrium:
    pricing: Measure
    securities: tuple[RandomVariable, ...]
    agent_gains: tuple[float, ...]
    aggregate_gain: float

    def security_values(self) -> np.ndarray:
        """(n_agents, n_states) payoff array."""
        return np.stack([c.values for c in self.securities])


def solve_arrow_debreu(market: Market) -> ArrowDebreuEquilibrium:
    """Closed-form competitive equilibrium of the market.

    Market clearing is enforced exactly: the last security is set to minus
    the sum of the others, and its closed form is asserted to agree within
    ``CLEARING_TOL`` so float drift cannot leak into downstream residuals.
    """
    beliefs = [a.beliefs for a in market.agents]
    pricing = geometric_mean_measure(beliefs, market.lambdas)
    logq = pricing.log_weights()

    securities = []
    gains = []
    for i, agent in enumerate(market.agents):
        log_dens = market.log_beliefs[i] - logq
        gain = -agent.delta * float(np.sum(pricing.weights * log_dens))  # delta * KL(q | P_i)
        securities.append(agent.delta * log_dens + gain)
        gains.append(gain)

    closed_form_last = securities[-1]
    securities[-1] = -np.sum(securities[:-1], axis=0)
    drift = float(np.max(np.abs(securities[-1] - closed_form_last)))
    if drift > CLEARING_TOL:
        raise SolverError(
            "closed-form securities do not clear the market",
            diagnostics={"max_drift": drift},
        )

    space = market.space
    return ArrowDebreuEquilibrium(
        pricing=pricing,
        securities=tuple(RandomVariable(space, c) for c in securities),
        agent_gains=tuple(float(g) for g in gains),
        aggregate_gain=float(sum(gains)),
    )


def utility_gain_vs_ad(
    market: Market, ad: ArrowDebreuEquilibrium, i: int, c: RandomVariable
) -> float:
    """Certainty-equivalent gain of holding ``c`` instead of the equilibrium security.

    Equals ``U_i(c) - U_i(C_i)`` but is evaluated as a single expectation
    under the pricing measure, which is both cheaper and better conditioned.
    Bounded above by the price of ``c``, with equality only when ``c``
    differs from the equilibrium security by a constant.
    """
    gap = RandomVariable(_same_space(c, ad.securities[i]), c.values - ad.securities[i].values)
    return cara_utility(Agent(market.agents[i].delta, ad.pricing), gap)


