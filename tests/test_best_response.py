"""Best probability response: inner per-state solve, outer root, optimality."""

import gc
import math
import weakref

import numpy as np
import pytest

from helpers import common_beliefs_market, gaussian_pair_space, random_market
from risksharing import (
    Agent,
    ContractError,
    Market,
    Measure,
    RandomVariable,
    StateSpace,
    endowment_to_beliefs,
    expect,
    normalize_log_density,
    response_value,
    solve_best_response,
    solve_nash,
)
from risksharing.best_response import _aggregated_log_reports
from risksharing.roots import solve_exp_linear


def small_market():
    space = StateSpace([0.4, 0.6])
    base = space.baseline()
    return Market(
        [
            Agent(1.3, Measure(space, [0.3, 0.7])),
            Agent(0.7, Measure(space, [0.55, 0.45])),
        ]
    ), space


def inner_ratio(m, i, z, r_minus):
    """Density ratio D of agent i's report at outer level z: the per-state
    root of (D - 1)/lambda_i + log D = z - r_minus that the best response
    solves."""
    return np.exp(solve_exp_linear(1.0 / m.lambdas[i], 1.0, z - r_minus.values))


class TestInnerSolve:
    def test_unit_ratio_at_zero_gap(self):
        m, space = small_market()
        r_minus = RandomVariable(space, [0.0, 0.0])
        d = inner_ratio(m, 0, 0.0, r_minus)
        np.testing.assert_allclose(d, 1.0, atol=1e-14)

    def test_constructed_inverse_point(self):
        """With equal tolerances, gap 2 + log 2 inverts to a ratio of 2."""
        space = StateSpace([0.5, 0.5])
        m = Market([Agent(1.0, space.baseline()), Agent(1.0, space.baseline())])
        gap = 2.0 + math.log(2.0)
        d = inner_ratio(m, 0, gap, RandomVariable(space, [0.0, 0.0]))
        np.testing.assert_allclose(d, 2.0, atol=1e-13)

    def test_monotone_in_level(self):
        m, space = small_market()
        r_minus = RandomVariable(space, [0.3, -0.2])
        prev = inner_ratio(m, 0, -2.0, r_minus)
        for z in (-1.0, 0.0, 0.5, 2.0):
            cur = inner_ratio(m, 0, z, r_minus)
            assert np.all(cur > prev)
            prev = cur

    def test_bracket_honoured(self):
        m, space = small_market()
        r_minus = RandomVariable(space, [1.5, -2.5])
        for z in (-3.0, 0.0, 4.0):
            d = inner_ratio(m, 0, z, r_minus)
            gap = z - r_minus.values
            lo = np.minimum(1.0, np.exp(gap))
            hi = np.maximum(1.0, np.exp(gap))
            assert np.all(d >= lo - 1e-12) and np.all(d <= hi + 1e-12)

    def test_residuals_within_tolerance(self):
        m, space = small_market()
        r_minus = RandomVariable(space, [4.0, -3.0])
        z = 1.7
        d = inner_ratio(m, 0, z, r_minus)
        resid = (d - 1.0) / m.lambdas[0] + np.log(d) - (z - r_minus.values)
        assert np.all(np.abs(resid) <= 1e-12 * (1.0 + np.abs(z - r_minus.values)))


class TestResponseValue:
    def test_zero_contract_report_gives_zero(self):
        """The report whose density against own beliefs is the aggregated
        counterparty log report makes the agent's security identically zero."""
        m, _ = small_market()
        r_agg = _aggregated_log_reports(m, 0, [m.agents[1].beliefs])
        r0 = normalize_log_density(m.agents[0].beliefs, r_agg)
        assert response_value(m, 0, r0, [m.agents[1].beliefs]) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_truth_in_no_trade_market(self):
        rng = np.random.default_rng(3)
        m = common_beliefs_market(rng, n_agents=3, n_states=30)
        others = [m.agents[j].beliefs for j in (1, 2)]
        assert response_value(m, 0, m.agents[0].beliefs, others) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_matches_first_principles_enumeration(self):
        """Recompute the valuation, contract, and certainty equivalent longhand."""
        m, space = small_market()
        reported = Measure(space, [0.45, 0.55])
        other = m.agents[1].beliefs
        got = response_value(m, 0, reported, [other])

        lam = m.lambdas
        logq = lam[0] * np.log(reported.weights) + lam[1] * np.log(other.weights)
        q = np.exp(logq - logq.max())
        q /= q.sum()
        dens = np.log(reported.weights) - np.log(q)
        entropy = float(np.dot(q, np.log(q) - np.log(reported.weights)))
        contract = m.deltas[0] * dens + m.deltas[0] * entropy
        p0 = m.agents[0].beliefs.weights
        expected = -m.deltas[0] * math.log(
            float(np.dot(p0, np.exp(-contract / m.deltas[0])))
        )
        assert got == pytest.approx(expected, abs=1e-12)


class TestSolveBestResponse:
    def test_no_incentive_means_truthful(self):
        """Counterparty reports engineered so the agent's contract is zero."""
        m, space = small_market()
        # Choose the other agent's report so the no-trade report equals own
        # beliefs: R_other = own beliefs.
        br = solve_best_response(m, 0, [m.agents[0].beliefs])
        np.testing.assert_allclose(
            br.reported.weights, m.agents[0].beliefs.weights, atol=1e-12
        )
        np.testing.assert_allclose(br.security.values, 0.0, atol=1e-12)

    def test_truthful_iff_zero_contract(self):
        m, space = small_market()
        br = solve_best_response(m, 0, [m.agents[1].beliefs])
        # Beliefs differ, so the response must trade and must not be truthful.
        assert float(np.max(np.abs(br.security.values))) > 1e-6
        assert float(np.max(np.abs(br.reported.weights - m.agents[0].beliefs.weights))) > 1e-8

    def test_reported_density_relation(self):
        m, space = small_market()
        br = solve_best_response(m, 0, [m.agents[1].beliefs])
        target = normalize_log_density(m.agents[0].beliefs, -br.log_ratio)
        np.testing.assert_allclose(br.reported.weights, target.weights, atol=1e-12)

    def test_zero_price_under_own_valuation(self):
        m, space = small_market()
        br = solve_best_response(m, 0, [m.agents[1].beliefs])
        assert abs(expect(br.valuation, br.security)) <= 1e-12

    def test_lower_bound_strict(self):
        m, space = small_market()
        for i in (0, 1):
            others = [m.agents[1 - i].beliefs]
            br = solve_best_response(m, i, others)
            assert np.all(np.isfinite(br.log_ratio))
            assert float(np.min(br.security.values)) > -m.delta_minus[i]

    def test_first_order_condition(self):
        rng = np.random.default_rng(21)
        m = random_market(rng, n_agents=3, n_states=40)
        reports = [m.agents[1].beliefs, m.agents[2].beliefs]
        br = solve_best_response(m, 0, reports)
        log_p0 = np.log(m.agents[0].beliefs.weights)
        acc = sum(
            m.lambdas[j] * (np.log(rep.weights) - log_p0)
            for j, rep in zip((1, 2), reports)
        )
        resid = (
            br.security.values / m.deltas[0]
            + m.lambda_minus[0] * br.log_ratio
            + acc
        )
        resid -= expect(br.valuation, RandomVariable(m.space, resid))
        assert float(np.max(np.abs(resid))) <= 1e-9

    def test_zero_price_map_is_increasing(self):
        from scipy.special import logsumexp

        m, space = small_market()
        r_agg = _aggregated_log_reports(m, 0, [m.agents[1].beliefs])

        def log_mean_ratio(z):
            u = solve_exp_linear(1.0 / m.lambdas[0], 1.0, z - r_agg)
            logq = np.log(m.agents[0].beliefs.weights) - m.lambdas[0] * u
            logq += m.lambda_minus[0] * r_agg
            logq -= logsumexp(logq)
            return float(logsumexp(logq + u))

        zs = np.linspace(-4.0, 4.0, 33)
        vals = [log_mean_ratio(z) for z in zs]
        assert np.all(np.diff(vals) > 0)

    def test_gaussian_endowment_relation(self):
        """Both endowments folded, counterparty truthful: the optimal contract
        satisfies 2*C + log(1+C) = const + (E1 - E0) per state."""
        space, e0, e1 = gaussian_pair_space(order=48)
        base = space.baseline()
        m = Market(
            [endowment_to_beliefs(base, e0, 1.0), endowment_to_beliefs(base, e1, 1.0)]
        )
        br = solve_best_response(m, 0, [m.agents[1].beliefs])
        c = br.security.values
        lhs = 2.0 * c + br.log_ratio  # log_ratio = log(1 + C) here
        gap = lhs - (e1.values - e0.values)
        assert float(np.max(gap) - np.min(gap)) <= 1e-10  # constant per state

    def test_grid_brute_force_two_states(self):
        m, space = small_market()
        for i in (0, 1):
            others = [m.agents[1 - i].beliefs]
            br = solve_best_response(m, i, others)
            ps = np.linspace(1e-6, 1.0 - 1e-6, 10001)
            best = max(
                response_value(m, i, Measure(space, [p, 1.0 - p]), others) for p in ps
            )
            assert br.response_value >= best - 1e-9
            assert br.response_value == pytest.approx(best, abs=1e-7)

    def test_optimality_against_perturbations(self):
        rng = np.random.default_rng(31)
        m = random_market(rng, n_agents=2, n_states=25)
        others = [m.agents[1].beliefs]
        br = solve_best_response(m, 0, others)
        for _ in range(100):
            eps = rng.uniform(0.01, 0.5)
            noise = rng.normal(0.0, eps, m.space.n_states)
            perturbed = normalize_log_density(br.reported, noise)
            assert br.response_value >= response_value(m, 0, perturbed, others) - 1e-9


@pytest.mark.parametrize("n_agents", [2, 3])
def test_start_moves_no_result(n_agents):
    """Started from an equilibrium's log ratios, from a far or from a
    non-finite start, the best response agrees with the one started at zero
    to 1e-12."""
    m = random_market(np.random.default_rng(5), n_agents=n_agents, n_states=400)
    eq = solve_nash(m)
    for i in range(m.n_agents):
        reports = [eq.revealed[j] for j in range(m.n_agents) if j != i]
        plain = solve_best_response(m, i, reports)
        for start in (eq.log_ratios[i], np.full(400, 40.0), np.full(400, np.nan)):
            br = solve_best_response(m, i, reports, start=start)
            assert br.zeta == pytest.approx(plain.zeta, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(br.log_ratio, plain.log_ratio, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(
                br.reported.weights, plain.reported.weights, rtol=1e-12, atol=1e-300
            )
            np.testing.assert_allclose(
                br.security.values, plain.security.values, rtol=1e-12, atol=1e-12
            )


@pytest.mark.parametrize("i", [-1, 3])
def test_agent_index_outside_the_market_refused(i):
    """``list.insert(-1, ...)`` would put a report in agent 1's slot, and 3 is past the end."""
    m = random_market(np.random.default_rng(1), 3, 50)
    reports = [m.agents[0].beliefs, m.agents[1].beliefs]
    with pytest.raises(ContractError, match="agent index"):
        response_value(m, i, m.agents[2].beliefs, reports)
    with pytest.raises(ContractError, match="agent index"):
        solve_best_response(m, i, reports)


@pytest.mark.parametrize("count", [1, 3])
def test_wrong_number_of_reports_refused(count):
    m = random_market(np.random.default_rng(1), 3, 50)
    reports = [m.agents[1].beliefs] * count
    with pytest.raises(ContractError, match=f"expected 2 counterparty reports, got {count}"):
        solve_best_response(m, 0, reports)


def test_solve_leaves_no_reference_cycle():
    """Dropping the result and the market frees the market at once.

    A reference cycle through the outer root's closure would keep the
    market, and every array it holds, alive until a full collection.
    """
    m, _ = small_market()
    ref = weakref.ref(m)
    gc.disable()
    try:
        br = solve_best_response(m, 0, [m.agents[1].beliefs])
        del br, m
        assert ref() is None
    finally:
        gc.enable()
