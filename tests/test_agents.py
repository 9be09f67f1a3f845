"""CARA certainty equivalents, markets, and endowment folding."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risksharing import (
    Agent,
    ContractError,
    Market,
    Measure,
    RandomVariable,
    StateSpace,
    cara_utility,
    endowment_to_beliefs,
)

SPACE = StateSpace([0.5, 0.5])
BASE = SPACE.baseline()

values4 = st.lists(st.floats(-20, 20), min_size=4, max_size=4).map(np.asarray)


def agent4(delta=1.0, weights=(0.1, 0.2, 0.3, 0.4)):
    space = StateSpace(np.full(4, 0.25))
    return Agent(delta, Measure(space, weights)), space


class TestCaraUtility:
    def test_zero_payoff(self):
        assert cara_utility(Agent(1.0, BASE), RandomVariable(SPACE, [0.0, 0.0])) == 0.0

    def test_constant_is_its_own_certainty_equivalent(self):
        assert cara_utility(Agent(2.5, BASE), RandomVariable(SPACE, [7.0, 7.0])) == pytest.approx(
            7.0, abs=1e-12
        )

    def test_hand_value(self):
        # -log(0.5/2 + 0.5*2) = -log(1.25)
        x = RandomVariable(SPACE, [math.log(2.0), -math.log(2.0)])
        assert cara_utility(Agent(1.0, BASE), x) == pytest.approx(-math.log(1.25), abs=1e-14)
        assert cara_utility(Agent(1.0, BASE), x) == pytest.approx(-0.22314, abs=5e-6)

    def test_extreme_payoffs_do_not_overflow(self):
        x = RandomVariable(SPACE, [-700.0, 700.0])
        assert np.isfinite(cara_utility(Agent(1.0, BASE), x))

    @given(x=values4, c=st.floats(-50, 50), delta=st.floats(0.1, 10))
    @settings(max_examples=100, deadline=None)
    def test_cash_invariance(self, x, c, delta):
        agent, space = agent4(delta)
        u0 = cara_utility(agent, RandomVariable(space, x))
        u1 = cara_utility(agent, RandomVariable(space, x + c))
        assert u1 == pytest.approx(u0 + c, abs=1e-10)

    @given(x=values4, bump=st.lists(st.floats(0, 5), min_size=4, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_monotonicity(self, x, bump):
        agent, space = agent4()
        lo = cara_utility(agent, RandomVariable(space, x))
        hi = cara_utility(agent, RandomVariable(space, x + np.asarray(bump)))
        assert hi >= lo - 1e-12

    @given(x=values4, y=values4)
    @settings(max_examples=100, deadline=None)
    def test_concavity_midpoint(self, x, y):
        agent, space = agent4()
        mid = cara_utility(agent, RandomVariable(space, 0.5 * (x + np.asarray(y))))
        avg = 0.5 * cara_utility(agent, RandomVariable(space, x)) + 0.5 * cara_utility(
            agent, RandomVariable(space, np.asarray(y))
        )
        assert mid >= avg - 1e-10

    def test_jensen_bound(self):
        agent, space = agent4()
        x = RandomVariable(space, [1.0, -2.0, 0.5, 3.0])
        assert cara_utility(agent, x) <= float(
            np.dot(agent.beliefs.weights, x.values)
        ) + 1e-12


class TestEndowmentFolding:
    def test_zero_endowment_keeps_beliefs(self):
        a = endowment_to_beliefs(BASE, RandomVariable(SPACE, [0.0, 0.0]), 1.0)
        np.testing.assert_allclose(a.beliefs.weights, BASE.weights, atol=1e-15)

    def test_constant_endowment_keeps_beliefs(self):
        a = endowment_to_beliefs(BASE, RandomVariable(SPACE, [4.0, 4.0]), 2.0)
        np.testing.assert_allclose(a.beliefs.weights, BASE.weights, atol=1e-14)

    def test_hand_value(self):
        a = endowment_to_beliefs(BASE, RandomVariable(SPACE, [1.0, 0.0]), 1.0)
        expected = np.array([math.exp(-1.0), 1.0]) / (1.0 + math.exp(-1.0))
        np.testing.assert_allclose(a.beliefs.weights, expected, atol=1e-14)
        np.testing.assert_allclose(a.beliefs.weights, [0.26894, 0.73106], atol=5e-6)

    def test_nonpositive_delta_rejected(self):
        with pytest.raises(ContractError):
            endowment_to_beliefs(BASE, RandomVariable(SPACE, [1.0, 0.0]), 0.0)

    @given(
        tilt=values4,
        endow=values4,
        x=values4,
        delta=st.floats(0.2, 5.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_reduction_identity(self, tilt, endow, x, delta):
        """Utility of X over folded beliefs equals the endowed utility gap."""
        space = StateSpace(np.full(4, 0.25))
        actual = Measure(space, np.exp(tilt - tilt.max()) / np.exp(tilt - tilt.max()).sum())
        agent = endowment_to_beliefs(actual, RandomVariable(space, endow), delta)
        reduced = cara_utility(agent, RandomVariable(space, x))

        def endowed_utility(payoff):
            return -delta * math.log(
                float(np.dot(actual.weights, np.exp(-(payoff + endow) / delta)))
            )

        direct = endowed_utility(np.asarray(x)) - endowed_utility(np.zeros(4))
        assert reduced == pytest.approx(direct, abs=1e-10)


class TestMarket:
    def test_needs_two_agents(self):
        with pytest.raises(ContractError):
            Market([Agent(1.0, BASE)])

    def test_delta_bounds(self):
        with pytest.raises(ContractError):
            Agent(1e-12, BASE)
        with pytest.raises(ContractError):
            Agent(1e13, BASE)

    def test_aggregates(self):
        m = Market([Agent(1.0, BASE), Agent(3.0, Measure(SPACE, [0.4, 0.6]))])
        assert m.delta_total == 4.0
        np.testing.assert_allclose(m.lambdas, [0.25, 0.75])
        np.testing.assert_allclose(m.delta_minus, [3.0, 1.0])
        np.testing.assert_allclose(m.lambda_minus, [0.75, 0.25])
        assert m.lambdas.sum() == pytest.approx(1.0, abs=1e-15)

    def test_complements_of_a_dominant_tolerance_are_exact(self):
        """A tolerance 1e17 times the other's: ``delta_total - delta_0`` rounds
        to 0, but the complement is the other tolerance itself."""
        m = Market([Agent(1.84e11, BASE), Agent(1.36e-6, BASE)])
        assert m.delta_minus[0] == 1.36e-6 and m.delta_minus[1] == 1.84e11
        assert m.lambda_minus[0] > 0.0
