"""Post-equilibrium identity suite and revealed-belief bounds."""

from dataclasses import replace

import numpy as np
import pytest

from helpers import beta_market, common_beliefs_market, random_market
from risksharing import (
    ContractError,
    Market,
    compute_diagnostics,
    solve_arrow_debreu,
    solve_nash,
)


def solved(market):
    ad = solve_arrow_debreu(market)
    eq = solve_nash(market, ad=ad)
    return ad, eq, compute_diagnostics(market, ad, eq)


class TestNoTrade:
    def test_everything_vanishes(self):
        rng = np.random.default_rng(41)
        m = common_beliefs_market(rng, n_agents=3, n_states=40)
        ad, eq, diag = solved(m)
        assert diag.efficiency_loss == pytest.approx(0.0, abs=1e-10)
        assert max(abs(v) for v in diag.per_agent_delta) <= 1e-10
        assert max(abs(v) for v in diag.undervaluation) <= 1e-10
        assert max(abs(v) for v in diag.marginal_prices) <= 1e-10
        assert max(abs(v) for v in diag.belief_distance) <= 1e-10
        shared = m.agents[0].beliefs.weights
        for qi in diag.marginal_measures:
            np.testing.assert_allclose(qi.weights, shared, atol=1e-9)
        np.testing.assert_allclose(eq.pricing.weights, shared, atol=1e-9)


class TestSymmetricMarket:
    def test_strict_loss_split_evenly(self):
        m, _ = beta_market(1.0)
        _, _, diag = solved(m)
        assert diag.efficiency_loss > 1e-3
        assert diag.per_agent_delta[0] == pytest.approx(diag.per_agent_delta[1], abs=1e-10)
        assert diag.alpha_weights == pytest.approx((0.5, 0.5))

    def test_undervaluation_positive_when_trading(self):
        m, _ = beta_market(1.0)
        _, _, diag = solved(m)
        for v in diag.marginal_prices:
            assert v > 0.0


class TestIdentitySuite:
    def test_identities_and_bounds_on_random_markets(self):
        rng = np.random.default_rng(42)
        for _ in range(6):
            m = random_market(rng, n_states=int(rng.integers(30, 120)))
            _, _, diag = solved(m)
            assert diag.max_identity_residual() <= 1e-8
            assert diag.min_bound_slack() >= -1e-12

    def test_a_nan_residual_is_the_summary(self):
        """A NaN that is not the first residual still reaches the summary, so
        its ledger entry fails: Python's ``max`` and ``min`` would drop it."""
        m, _ = beta_market(1.0)
        diag = solved(m)[2]
        nan = replace(diag, residuals=diag.residuals | {"value_identity": float("nan")})
        assert np.isnan(nan.max_identity_residual())
        nan = replace(diag, residuals=diag.residuals | {"bound_efficiency": float("nan")})
        assert np.isnan(nan.min_bound_slack())

    def test_alpha_weights_structure(self):
        rng = np.random.default_rng(43)
        m = random_market(rng, n_agents=4, n_states=30)
        _, _, diag = solved(m)
        alpha = np.asarray(diag.alpha_weights)
        n_others = m.n_agents - 1
        assert alpha.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(alpha > 0) and np.all(alpha < 1.0 / n_others)

    def test_pricing_mixture_tight(self):
        rng = np.random.default_rng(44)
        m = random_market(rng, n_agents=3, n_states=50)
        _, eq, diag = solved(m)
        mix = sum(
            a * qi.weights for a, qi in zip(diag.alpha_weights, diag.marginal_measures)
        )
        assert float(np.max(np.abs(mix - eq.pricing.weights))) <= 1e-12

    def test_belief_entropy_bound(self):
        rng = np.random.default_rng(45)
        m = random_market(rng, n_agents=3, n_states=40)
        _, _, diag = solved(m)
        n_others = m.n_agents - 1
        for dist, lam_minus in zip(diag.belief_distance, m.lambda_minus):
            assert dist <= np.log(n_others / lam_minus) + 1e-12


class TestValidation:
    def test_mismatched_inputs_rejected(self):
        rng = np.random.default_rng(46)
        m1 = random_market(rng, n_agents=2, n_states=20)
        m2 = random_market(rng, n_agents=2, n_states=21)
        ad1 = solve_arrow_debreu(m1)
        eq2 = solve_nash(m2)
        with pytest.raises(ContractError):
            compute_diagnostics(m1, ad1, eq2)

    def test_mismatched_agent_counts_rejected(self):
        """Results of three agents on the space of a two-agent market."""
        m3 = random_market(np.random.default_rng(47), n_agents=3, n_states=20)
        m2 = Market(m3.agents[:2])
        ad3, eq3 = solve_arrow_debreu(m3), solve_nash(m3)
        with pytest.raises(ContractError, match="inconsistent agent counts"):
            compute_diagnostics(m2, ad3, eq3)
