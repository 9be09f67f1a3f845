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

from .agents import Market
from .arrow_debreu import ArrowDebreuEquilibrium
from .errors import ContractError
from .measures import Measure, floored
from .nash import NashEquilibrium
from .roots import folded_over_blocks


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
    alpha = market.lambda_minus / n_others
    bound_cap = n_others / market.lambda_minus

    u = np.asarray(nash.log_ratios)
    lam, marg, tilted = np.empty((3, *u.shape))
    arrays = (u, lam, marg, tilted, np.empty(u.shape[1]), ad.pricing.weights,
              nash.pricing.weights, market.belief_weights, market.log_beliefs,
              nash.security_values(), np.stack([m.weights for m in nash.revealed]))

    # On blocks of states (:func:`~risksharing.roots.folded_over_blocks`): the
    # exponents of the certainty equivalents, marginal measures and tilted
    # beliefs, and partial sums and extremes of the textbook formulas.
    def passes(part, u, lam, marg, tilted, log_qgame, qstar, qgame, beliefs, log_b, sec, rev):
        np.divide(-sec, deltas[:, None], out=lam)
        np.add(np.log(qgame, out=log_qgame), u, out=marg)
        np.add(log_b, lam, out=tilted)
        lik = beliefs / rev
        top_lam, top_marg, top_tilted, mean_sec, *_ = yield (
            part(np.maximum, lam),
            part(np.maximum, marg),
            part(np.maximum, tilted),
            part(np.add, qgame * sec),
            part(np.maximum, np.abs(dminus[:, None] * np.expm1(u) - sec)),
            part(np.add, qstar * sec),  # undervaluation
            part(np.add, beliefs * (log_b - np.log(rev))),  # belief distance
            part(np.add, qgame * (log_qgame - log_b)),
            part(np.minimum, bound_cap[:, None] - lik),
            part(np.add, qgame * np.exp(np.sum(lambdas[:, None] * u, axis=0))),
            part(np.minimum, 1.0 - sum(a * x for a, x in zip(alpha, lik))),
            part(np.minimum, sum(lik) - 1.0),
        )
        at_top = np.subtract(marg, top_marg, out=marg) == 0.0
        dev = sec - mean_sec
        _, marg_mass, tilted_mass, *_ = yield (
            part(np.add, beliefs * np.exp(np.subtract(lam, top_lam, out=lam), out=lam)),
            part(np.add, np.exp(marg, out=marg)),
            part(np.add, np.exp(np.subtract(tilted, top_tilted, out=tilted), out=tilted)),
            part(np.add, at_top * 1.0),
            part(np.add, np.where(at_top, 0.0, marg)),
            part(np.add, qgame * dev * dev),
        )
        log_marg = np.log(floored(marg, marg_mass))
        floored(tilted, tilted_mass)
        yield (
            part(np.add, qstar * (np.log(qstar) - log_marg)),
            part(np.add, marg * sec),
            part(np.add, qgame * (log_qgame - log_marg)),
            part(np.maximum, np.abs(marg - tilted)),
            part(np.maximum, np.abs(sum(a * w for a, w in zip(alpha, marg)) - qgame)),
        )

    (
        (top_lam, top_marg, _, _, representation, undervaluation, belief_distance,
         entropy_qgame_beliefs, slack_cap, mix_mass, slack_mix, slack_sum),
        (mass, _, _, ties, rest, var_sec),
        (entropy_star, marginal_prices, entropy_qgame_marg, tilt_err, mixture_err),
    ) = ([x[..., 0] for x in phase] for phase in folded_over_blocks(passes, arrays))
    marginal = tuple(Measure(market.space, w) for w in marg)
    u_game = -deltas * (top_lam + np.log(mass))  # certainty equivalents, from the securities
    per_agent_delta = u_game - np.asarray(ad.agent_gains)
    efficiency_loss = float(ad.aggregate_gain - u_game.sum())
    entropy_terms = deltas * entropy_star
    log_total = np.log1p(rest / ties) + np.log(ties) + top_marg  # log-sum-exp, ties split off
    residuals = {
        # The log-ratio encoding must reproduce the payoffs.
        "ratio_representation": np.max(representation),
        # Construction drift: the unnormalised marginal densities integrate to
        # one exactly at an equilibrium.
        "marginal_normalisation": np.max(np.abs(np.exp(log_total) - 1.0)),
        # Loss formula: aggregate shortfall equals the valuation-weighted
        # log-mean of the lambda-geometric-mean of the price ratios.
        "loss_formula": (u_game.sum() - ad.aggregate_gain)
        - market.delta_total * float(np.log(mix_mass)),
        # Per-agent decomposition: value change = transfer + share of shortfall.
        "loss_decomposition": np.max(np.abs(
            per_agent_delta - (nash.z + lambdas * (u_game.sum() - ad.aggregate_gain))
        )),
        # Aggregate entropy identity.
        "entropy_aggregate": efficiency_loss - float(entropy_terms.sum()),
        # Per-agent split into mispricing and entropy cost.
        "entropy_split": np.max(np.abs(per_agent_delta - (undervaluation - entropy_terms))),
        # Marginal measures tilt the game valuation and the agent's own beliefs
        # the same way; cross-check through the belief route.
        "marginal_vs_belief_tilt": np.max(tilt_err),
        # Pricing decomposition: game valuation is the alpha-mixture of the
        # marginal measures.
        "pricing_decomposition": mixture_err,
        # Value identity: each agent's value is their entropy gain on the game
        # valuation less the entropy gap to their marginal measure.
        "value_identity": np.max(np.abs(
            u_game - deltas * (entropy_qgame_beliefs - entropy_qgame_marg)
        )),
        # Marginal price is variance over complementary tolerance.
        "marginal_price_variance": np.max(np.abs(marginal_prices - var_sec / dminus)),
        # Revealed-belief bounds; slacks are >= 0 up to float error.
        "bound_likelihood_cap": np.min(slack_cap),
        "bound_alpha_mixture": slack_mix,
        "bound_plain_sum": slack_sum,
        "bound_belief_entropy": np.min(np.log(bound_cap) - belief_distance),
        "bound_efficiency": efficiency_loss,
        "bound_marginal_prices": np.min(marginal_prices),
    }

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
