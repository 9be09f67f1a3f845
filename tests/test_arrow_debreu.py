"""Competitive equilibrium: closed forms, optimality, no-trade law."""

import numpy as np
import pytest

from helpers import beta_market, common_beliefs_market, gaussian_pair_space, random_market
from risksharing import (
    Agent,
    Market,
    RandomVariable,
    StateSpace,
    cara_utility,
    endowment_to_beliefs,
    expect,
    normalize_log_density,
    solve_arrow_debreu,
    utility_gain_vs_ad,
)


class TestClosedForms:
    def test_common_beliefs_no_trade(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            m = common_beliefs_market(rng, n_states=80)
            ad = solve_arrow_debreu(m)
            assert float(np.max(np.abs(ad.security_values()))) <= 1e-10
            np.testing.assert_allclose(
                ad.pricing.weights, m.agents[0].beliefs.weights, atol=1e-12
            )
            assert ad.aggregate_gain == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_tilt_example(self):
        """Opposite unit tilts: security is the tilt itself, gain is 1/2."""
        m, x = beta_market(1.0)
        ad = solve_arrow_debreu(m)
        np.testing.assert_allclose(ad.securities[0].values, x.values, atol=1e-12)
        assert ad.agent_gains[0] == pytest.approx(0.5, abs=1e-12)
        assert ad.agent_gains[1] == pytest.approx(0.5, abs=1e-12)

    def test_gaussian_endowment_split(self):
        """Equal tolerances and common actual beliefs: each side gets half the swap."""
        space, e0, e1 = gaussian_pair_space(order=32)
        base = space.baseline()
        m = Market(
            [endowment_to_beliefs(base, e0, 1.0), endowment_to_beliefs(base, e1, 1.0)]
        )
        ad = solve_arrow_debreu(m)
        target = 0.5 * (e1.values - e0.values)
        np.testing.assert_allclose(ad.securities[0].values, target, atol=1e-10)


class TestInvariants:
    def test_zero_price_and_clearing(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            m = random_market(rng)
            ad = solve_arrow_debreu(m)
            assert float(np.max(np.abs(ad.security_values().sum(axis=0)))) <= 1e-12
            for c in ad.securities:
                assert abs(expect(ad.pricing, c)) <= 1e-10

    def test_gains_are_nonnegative_entropies(self):
        rng = np.random.default_rng(6)
        m = random_market(rng, n_agents=3, n_states=60)
        ad = solve_arrow_debreu(m)
        for g in ad.agent_gains:
            assert g >= 0.0
        for i, agent in enumerate(m.agents):
            assert ad.agent_gains[i] == pytest.approx(
                cara_utility(agent, ad.securities[i]), abs=1e-10
            )

    def test_random_leg_leaves_agent_indifferent(self):
        rng = np.random.default_rng(7)
        m = random_market(rng, n_agents=3, n_states=70)
        ad = solve_arrow_debreu(m)
        logq = ad.pricing.log_weights()
        for i, agent in enumerate(m.agents):
            random_leg = agent.delta * (np.log(agent.beliefs.weights) - logq)
            val = cara_utility(agent, RandomVariable(m.space, random_leg))
            assert val == pytest.approx(0.0, abs=1e-10)

    def test_pareto_upper_bound_random_search(self):
        rng = np.random.default_rng(8)
        m = random_market(rng, n_agents=3, n_states=40)
        ad = solve_arrow_debreu(m)
        n, s = m.n_agents, m.space.n_states
        for _ in range(200):
            alloc = rng.normal(0.0, 1.0, (n, s))
            alloc[-1] = -alloc[:-1].sum(axis=0)
            total = sum(
                cara_utility(agent, RandomVariable(m.space, c))
                for agent, c in zip(m.agents, alloc)
            )
            assert total <= ad.aggregate_gain + 1e-9

    def test_no_trade_iff_common_beliefs(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            m = common_beliefs_market(rng, n_states=40)
            assert float(np.max(np.abs(solve_arrow_debreu(m).security_values()))) <= 1e-10
        for _ in range(5):
            m = random_market(rng, n_states=40, tilt_scale=0.5)
            sec = solve_arrow_debreu(m).security_values()
            beliefs = np.stack([a.beliefs.weights for a in m.agents])
            distinct = np.max(np.abs(beliefs - beliefs[0])) > 1e-8
            if distinct:
                assert float(np.max(np.abs(sec))) > 1e-8


class TestUtilityGain:
    def setup_method(self):
        space = StateSpace([0.2, 0.3, 0.5])
        base = space.baseline()
        self.market = Market(
            [
                Agent(1.2, normalize_log_density(base, [0.4, -0.2, 0.0])),
                Agent(0.7, normalize_log_density(base, [-0.5, 0.3, 0.1])),
            ]
        )
        self.ad = solve_arrow_debreu(self.market)
        self.space = space

    def test_own_security_gains_nothing(self):
        got = utility_gain_vs_ad(self.market, self.ad, 0, self.ad.securities[0])
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_cash_shift(self):
        got = utility_gain_vs_ad(
            self.market, self.ad, 0, RandomVariable(self.space, self.ad.securities[0].values + 5.0)
        )
        assert got == pytest.approx(5.0, abs=1e-12)

    def test_matches_direct_utility_difference(self):
        rng = np.random.default_rng(10)
        q = self.ad.pricing
        for i in range(2):
            for _ in range(20):
                c = rng.normal(0.0, 1.0, 3)
                c -= np.dot(q.weights, c)  # zero price under the valuation
                rv = RandomVariable(self.space, c)
                direct = cara_utility(self.market.agents[i], rv) - cara_utility(
                    self.market.agents[i], self.ad.securities[i]
                )
                assert utility_gain_vs_ad(self.market, self.ad, i, rv) == pytest.approx(
                    direct, abs=1e-10
                )
                assert utility_gain_vs_ad(self.market, self.ad, i, rv) <= expect(
                    q, rv
                ) + 1e-10
