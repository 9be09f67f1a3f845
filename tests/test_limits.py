"""Extreme-risk-tolerance limit objects and convergence cross-checks."""

import math

import numpy as np
import pytest

from risksharing import (
    Agent,
    Market,
    Measure,
    RandomVariable,
    StateSpace,
    both_limit_check,
    limiting_arrow_debreu,
    limiting_gains,
    limiting_nash,
    one_agent_limit_report,
    relative_entropy,
    solve_arrow_debreu,
    solve_best_response,
    solve_nash,
    variance,
)

SPACE = StateSpace([0.6, 0.4])
P0 = Measure(SPACE, [0.6, 0.4])
AGENT1 = Agent(1.0, Measure(SPACE, [0.5, 0.5]))


class TestLimitingCompetitive:
    def test_equal_beliefs_vanish(self):
        sec, g0, g1 = limiting_arrow_debreu(P0, Agent(1.0, P0))
        np.testing.assert_allclose(sec.values, 0.0, atol=1e-15)
        assert g0 == 0.0 and g1 == pytest.approx(0.0, abs=1e-15)

    def test_two_state_hand_values(self):
        sec, g0, g1 = limiting_arrow_debreu(P0, AGENT1)
        h = 0.6 * math.log(1.2) + 0.4 * math.log(0.8)
        assert g1 == pytest.approx(h, abs=1e-15)
        assert g1 == pytest.approx(0.02014, abs=5e-6)
        np.testing.assert_allclose(
            sec.values, [math.log(1.2) - h, math.log(0.8) - h], atol=1e-15
        )

    def test_finite_tolerance_convergence(self):
        sec, _, _ = limiting_arrow_debreu(P0, AGENT1)
        ad = solve_arrow_debreu(Market([Agent(1e4, P0), AGENT1]))
        assert float(np.max(np.abs(ad.securities[0].values - sec.values))) <= 1e-3


class TestLimitingGame:
    def test_equal_beliefs_vanish(self):
        z_inf, sec, _ = limiting_nash(P0, Agent(1.0, P0))
        assert z_inf == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(sec.values, 0.0, atol=1e-12)

    def test_root_condition(self):
        _, sec, _ = limiting_nash(P0, AGENT1)
        resid = float(np.dot(P0.weights, 1.0 / (1.0 + sec.values / AGENT1.delta))) - 1.0
        assert abs(resid) <= 1e-10

    def test_security_above_floor(self):
        _, sec, _ = limiting_nash(P0, AGENT1)
        assert float(np.min(sec.values)) > -AGENT1.delta

    def test_finite_tolerance_convergence(self):
        _, sec, _ = limiting_nash(P0, AGENT1)
        eq = solve_nash(Market([Agent(1e5, P0), AGENT1]))
        assert float(np.max(np.abs(eq.securities[0].values - sec.values))) <= 1e-3

    def test_best_response_route_same_limit(self):
        """At huge tolerance, responding against a truthful counterparty and
        playing the full game land on the same security."""
        _, sec, _ = limiting_nash(P0, AGENT1)
        market = Market([Agent(1e5, P0), AGENT1])
        br = solve_best_response(market, 0, [AGENT1.beliefs])
        assert float(np.max(np.abs(br.security.values - sec.values))) <= 1e-3

    def test_accounting_identity(self):
        z_inf, sec, valuation = limiting_nash(P0, AGENT1)
        gain0, _ = limiting_gains(P0, AGENT1)
        rhs = gain0 + AGENT1.delta * relative_entropy(P0, valuation)
        assert z_inf == pytest.approx(rhs, abs=1e-8)


class TestLimitingGains:
    def test_no_trade_gains_vanish(self):
        gain0, loss1 = limiting_gains(P0, Agent(1.0, P0))
        assert gain0 == pytest.approx(0.0, abs=1e-12)
        assert loss1 == pytest.approx(0.0, abs=1e-12)

    def test_signs(self):
        gain0, loss1 = limiting_gains(P0, AGENT1)
        assert gain0 > 0.0
        assert loss1 < 0.0

    def test_variance_formula(self):
        gain0, loss1 = limiting_gains(P0, AGENT1)
        _, sec, valuation = limiting_nash(P0, AGENT1)
        assert gain0 == pytest.approx(variance(valuation, sec) / AGENT1.delta, abs=1e-14)

    def test_matches_finite_tolerance_differences(self):
        gain0, loss1 = limiting_gains(P0, AGENT1)
        market = Market([Agent(1e5, P0), AGENT1])
        ad = solve_arrow_debreu(market)
        eq = solve_nash(market, ad=ad)
        diff0 = eq.agent_values[0] - ad.agent_gains[0]
        diff1 = eq.agent_values[1] - ad.agent_gains[1]
        assert diff0 == pytest.approx(gain0, abs=1e-2)
        assert diff1 == pytest.approx(loss1, abs=1e-2)


class TestConvergenceReport:
    def test_monotone_convergence(self):
        rep = one_agent_limit_report(P0, AGENT1, [1e2, 1e3, 1e4, 1e5])
        table = rep.table
        for (_, a0, n0), (_, a1, n1) in zip(table, table[1:]):
            assert a1 < a0 and n1 < n0
        assert table[-1][1] <= 1e-3 and table[-1][2] <= 1e-3


class TestBothScaling:
    SPACE = StateSpace([0.5, 0.5])
    XI0 = RandomVariable(SPACE, [1.0, -1.0])
    XI1 = RandomVariable(SPACE, [-1.0, 1.0])

    def test_equal_tilts_no_trade(self):
        table = both_limit_check(self.XI0, self.XI0, 0.5, [10.0, 100.0])
        for _, dist_ad, dist_half in table:
            assert dist_ad <= 1e-10 and dist_half <= 1e-10

    def test_hand_limits(self):
        """xi0=(1,-1), xi1=(-1,1), equal shares: competitive limit is xi0,
        game limit is half of it."""
        table = both_limit_check(self.XI0, self.XI1, 0.5, [1e4])
        assert table[0][1] <= 1e-6
        assert table[0][2] <= 1e-3

    def test_decade_shrink_rate(self):
        table = both_limit_check(self.XI0, self.XI1, 0.5, [10.0, 100.0, 1000.0])
        for (_, _, h0), (_, _, h1) in zip(table, table[1:]):
            assert h1 <= h0 / 5.0

    @pytest.mark.parametrize("lambda0", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_share_outside_the_unit_interval_refused(self, lambda0):
        with pytest.raises(ValueError, match="lambda0 must lie strictly between 0 and 1"):
            both_limit_check(self.XI0, self.XI1, lambda0, [10.0])

    def test_tilt_normalisation(self):
        """A constant added to a tilt does not change the analysis."""
        shifted = RandomVariable(self.SPACE, self.XI0.values + 3.0)
        a = both_limit_check(self.XI0, self.XI1, 0.5, [100.0])
        b = both_limit_check(shifted, self.XI1, 0.5, [100.0])
        assert a[0][1] == pytest.approx(b[0][1], abs=1e-12)
        assert a[0][2] == pytest.approx(b[0][2], abs=1e-12)
