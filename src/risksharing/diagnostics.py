"""Post-equilibrium analytics: efficiency loss, decompositions, bounds.

Every quantity is recomputed from the market and the solved game objects
rather than trusted from solver intermediates, so the closed-form identities
act as end-to-end checks of a solve.  The one representation choice: ratio
logs come from the equilibrium's ``log_ratios`` array, which is the
solution-space encoding of the securities themselves; recomputing
``log(1 + C/delta)`` from float payoffs loses all precision at states where
a payoff saturates its endogenous bound, and a dedicated residual certifies
that the two encodings agree.  Residuals are reported, never clipped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agents import Market, cara_utility
from .arrow_debreu import ArrowDebreuEquilibrium
from .errors import ContractError
from .measures import (
    expect,
    normalize_log_density,
    relative_entropy,
    variance,
    weights_from_logs,
)
from .nash import NashEquilibrium
from .roots import logsumexp


@dataclass(frozen=True)
class NashDiagnostics:
    efficiency_loss: float
    per_agent_delta: tuple
    marginal_measures: tuple
    alpha_weights: tuple
    entropy_terms: tuple
    undervaluation: tuple
    belief_distance: tuple
    marginal_prices: tuple
    residuals: dict

    def max_identity_residual(self) -> float:
        return float(np.max(
            [abs(v) for k, v in self.residuals.items() if not k.startswith("bound_")]
        ))

    def min_bound_slack(self) -> float:
        return float(np.min([v for k, v in self.residuals.items() if k.startswith("bound_")]))


def compute_diagnostics(
    market: Market, ad: ArrowDebreuEquilibrium, nash: NashEquilibrium
) -> NashDiagnostics:
    """Populate the full analytics report for a solved game.

    Raises :class:`ContractError` when the three inputs do not share a state
    space or agent count.
    """
    space = market.space
    if ad.pricing.space != space or nash.pricing.space != space:
        raise ContractError("market, competitive and game results must share a state space")
    if len(ad.securities) != market.n_agents or len(nash.securities) != market.n_agents:
        raise ContractError("inconsistent agent counts across inputs")

    n_others = market.n_agents - 1
    deltas = market.deltas
    dminus = market.delta_minus
    lambdas = market.lambdas

    sec = nash.security_values()
    u = np.asarray(nash.log_ratios)
    qstar = ad.pricing
    qgame = nash.pricing
    log_qgame = qgame.log_weights()

    residuals: dict = {}

    # The log-ratio encoding must reproduce the payoffs.
    residuals["ratio_representation"] = float(
        np.max(np.abs(dminus[:, None] * np.expm1(u) - sec))
    )

    # Certainty equivalents, recomputed from the securities.
    u_game = np.array(
        [cara_utility(agent, c) for agent, c in zip(market.agents, nash.securities)]
    )
    u_star = np.asarray(ad.agent_gains)
    per_agent_delta = u_game - u_star
    efficiency_loss = float(ad.aggregate_gain - u_game.sum())

    marginal = tuple(weights_from_logs(space, log_qgame + ui) for ui in u)
    # Construction drift: the unnormalised marginal densities integrate to
    # one exactly at an equilibrium.
    residuals["marginal_normalisation"] = float(
        np.max(np.abs(np.exp(logsumexp(log_qgame + u, axis=1)) - 1.0))
    )

    alpha = market.lambda_minus / n_others
    entropy_terms = deltas * np.array([relative_entropy(qstar, qi) for qi in marginal])
    undervaluation = np.array([expect(qstar, c) for c in nash.securities])
    belief_distance = np.array(
        [
            relative_entropy(agent.beliefs, rev)
            for agent, rev in zip(market.agents, nash.revealed)
        ]
    )
    marginal_prices = np.array(
        [expect(qi, c) for qi, c in zip(marginal, nash.securities)]
    )

    # Loss formula: aggregate shortfall equals the valuation-weighted
    # log-mean of the lambda-geometric-mean of the price ratios.
    log_mix = np.sum(lambdas[:, None] * u, axis=0)
    loss_formula = market.delta_total * float(
        np.log(np.sum(qgame.weights * np.exp(log_mix)))
    )
    residuals["loss_formula"] = (u_game.sum() - ad.aggregate_gain) - loss_formula

    # Per-agent decomposition: value change = transfer + share of shortfall.
    decomp = per_agent_delta - (nash.z + lambdas * (u_game.sum() - ad.aggregate_gain))
    residuals["loss_decomposition"] = float(np.max(np.abs(decomp)))

    # Aggregate entropy identity.
    residuals["entropy_aggregate"] = efficiency_loss - float(entropy_terms.sum())

    # Per-agent split into mispricing and entropy cost.
    split = per_agent_delta - (undervaluation - entropy_terms)
    residuals["entropy_split"] = float(np.max(np.abs(split)))

    # Marginal measures tilt the game valuation and the agent's own beliefs
    # the same way; cross-check through the belief route.
    tilt_err = 0.0
    for agent, qi, c in zip(market.agents, marginal, nash.securities):
        via_beliefs = normalize_log_density(agent.beliefs, -c.values / agent.delta)
        tilt_err = max(tilt_err, float(np.max(np.abs(qi.weights - via_beliefs.weights))))
    residuals["marginal_vs_belief_tilt"] = tilt_err

    # Pricing decomposition: game valuation is the alpha-mixture of the
    # marginal measures.
    mix = sum(a * qi.weights for a, qi in zip(alpha, marginal))
    residuals["pricing_decomposition"] = float(np.max(np.abs(mix - qgame.weights)))

    # Value identity: each agent's value is their entropy gain on the game
    # valuation less the entropy gap to their marginal measure.
    val_identity = u_game - np.array(
        [
            agent.delta
            * (relative_entropy(qgame, agent.beliefs) - relative_entropy(qgame, qi))
            for agent, qi in zip(market.agents, marginal)
        ]
    )
    residuals["value_identity"] = float(np.max(np.abs(val_identity)))

    # Marginal price is variance over complementary tolerance.
    price_var = marginal_prices - np.array(
        [variance(qgame, c) / dm for c, dm in zip(nash.securities, dminus)]
    )
    residuals["marginal_price_variance"] = float(np.max(np.abs(price_var)))

    # Revealed-belief bounds; slacks are >= 0 up to float error.
    bound_cap = n_others / market.lambda_minus
    slack_cap = np.inf
    ratio_rows = []
    for agent, rev, cap in zip(market.agents, nash.revealed, bound_cap):
        lik = agent.beliefs.weights / rev.weights
        ratio_rows.append(lik)
        slack_cap = min(slack_cap, float(np.min(cap - lik)))
    residuals["bound_likelihood_cap"] = slack_cap
    mixture = sum(a * lik for a, lik in zip(alpha, ratio_rows))
    residuals["bound_alpha_mixture"] = float(np.min(1.0 - mixture))
    residuals["bound_plain_sum"] = float(np.min(sum(ratio_rows) - 1.0))
    residuals["bound_belief_entropy"] = float(
        np.min(np.log(bound_cap) - belief_distance)
    )
    residuals["bound_efficiency"] = efficiency_loss
    residuals["bound_marginal_prices"] = float(np.min(marginal_prices))

    return NashDiagnostics(
        efficiency_loss=efficiency_loss,
        per_agent_delta=tuple(float(x) for x in per_agent_delta),
        marginal_measures=marginal,
        alpha_weights=tuple(float(a) for a in alpha),
        entropy_terms=tuple(float(x) for x in entropy_terms),
        undervaluation=tuple(float(x) for x in undervaluation),
        belief_distance=tuple(float(x) for x in belief_distance),
        marginal_prices=tuple(float(x) for x in marginal_prices),
        residuals={k: float(v) for k, v in residuals.items()},
    )
