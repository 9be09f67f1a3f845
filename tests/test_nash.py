"""Game equilibrium solver: inner system, distance, update map, full solves."""

import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import beta_market, common_beliefs_market, random_market
from risksharing import (
    Agent,
    ContractError,
    Market,
    SolverError,
    StateSpace,
    expect,
    inner_solve,
    nash_distance,
    normalize_log_density,
    phi_map,
    solve_arrow_debreu,
    solve_best_response,
    solve_nash,
)
from risksharing import best_response, nash
from risksharing.bundle import nash_ledger
from risksharing.diagnostics import compute_diagnostics
from risksharing.nash import _distance_from_prices, _evaluate, _jacobians


def scalar_two_agent_security(market, ad, z0, tol=1e-14):
    """Independent per-state bisection on the closed two-agent relation.

    Solves C + (d0*d1/d) * log((1 + C/d1) / (1 - C/d0)) = z0 + C* for each
    state on its own, with no shared code with the production solver.
    """
    d0, d1 = market.deltas
    d = d0 + d1
    out = np.empty(market.space.n_states)
    for s, target in enumerate(z0 + ad.securities[0].values):
        lo, hi = -d1, d0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            val = mid + (d0 * d1 / d) * np.log((1 + mid / d1) / (1 - mid / d0))
            if val < target:
                lo = mid
            else:
                hi = mid
            if hi - lo < tol:
                break
        out[s] = 0.5 * (lo + hi)
    return out


class TestInnerSolve:
    def test_common_beliefs_at_origin(self):
        rng = np.random.default_rng(1)
        m = common_beliefs_market(rng, n_agents=3, n_states=40)
        ad = solve_arrow_debreu(m)
        sol = inner_solve(m, ad, np.zeros(3))
        assert float(np.max(np.abs(sol.security_values()))) <= 1e-12
        assert float(np.max(np.abs(sol.log_tilt.values))) <= 1e-12
        np.testing.assert_allclose(sol.valuation.weights, ad.pricing.weights, atol=1e-13)

    def test_matches_independent_two_agent_bisection(self):
        rng = np.random.default_rng(2)
        m = random_market(rng, n_agents=2, n_states=30)
        ad = solve_arrow_debreu(m)
        for z0 in (-0.2, 0.0, 0.35):
            sol = inner_solve(m, ad, np.array([z0, -z0]))
            reference = scalar_two_agent_security(m, ad, z0)
            np.testing.assert_allclose(sol.securities[0].values, reference, atol=1e-10)

    def test_clearing_and_bounds(self):
        rng = np.random.default_rng(3)
        m = random_market(rng, n_agents=4, n_states=50)
        ad = solve_arrow_debreu(m)
        z = rng.normal(0, 0.1, 4)
        z -= z.mean()
        sol = inner_solve(m, ad, z)
        sec = sol.security_values()
        assert float(np.max(np.abs(sec.sum(axis=0)))) <= 1e-9
        caps = np.log((m.n_agents - 1) * m.delta_total / m.delta_minus)
        assert np.all(np.isfinite(sol.log_ratios))
        assert np.all(sol.log_ratios < caps[:, None])

    def test_system_residual(self):
        rng = np.random.default_rng(4)
        m = random_market(rng, n_agents=3, n_states=30)
        ad = solve_arrow_debreu(m)
        z = np.array([0.1, -0.25, 0.15])
        sol = inner_solve(m, ad, z)
        u = sol.log_ratios
        coupling = m.lambdas @ u
        resid = (
            sol.security_values()
            + m.deltas[:, None] * u
            - (z[:, None] + ad.security_values() + m.deltas[:, None] * coupling)
        )
        assert float(np.max(np.abs(resid))) <= 1e-10

    def test_monotone_response_to_transfers(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            m = random_market(rng, n_agents=2, n_states=20)
            ad = solve_arrow_debreu(m)
            base = inner_solve(m, ad, np.array([0.0, 0.0])).securities[0].values
            bumped = inner_solve(m, ad, np.array([0.05, -0.05])).securities[0].values
            assert np.all(bumped > base)

    def test_rejects_nonzero_sum(self):
        rng = np.random.default_rng(6)
        m = random_market(rng, n_agents=2, n_states=10)
        ad = solve_arrow_debreu(m)
        with pytest.raises(ContractError):
            inner_solve(m, ad, np.array([0.1, 0.1]))


class TestDistanceAndMap:
    def test_no_trade_distance_zero_at_origin(self):
        rng = np.random.default_rng(7)
        m = common_beliefs_market(rng, n_agents=3, n_states=40)
        ad = solve_arrow_debreu(m)
        assert nash_distance(m, ad, np.zeros(3)) == pytest.approx(0.0, abs=1e-12)

    def test_distance_positive_off_equilibrium(self):
        rng = np.random.default_rng(8)
        m = random_market(rng, n_agents=3, n_states=30)
        ad = solve_arrow_debreu(m)
        eq = solve_nash(m, ad=ad)
        z_off = eq.z + np.array([0.1, -0.1, 0.0])
        assert nash_distance(m, ad, z_off) > 1e-6

    def test_distance_infinite_at_price_pole(self):
        rng = np.random.default_rng(17)
        m = random_market(rng, n_agents=3, n_states=20)
        pole = -m.delta_minus
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _distance_from_prices(m, pole) == np.inf
            # A saturated price rounds to just past the pole.
            past = np.nextafter(pole, -np.inf)
            assert _distance_from_prices(m, np.array([past[0], 0.0, 0.0])) == np.inf
            inside = np.nextafter(pole, 0.0)
            assert np.isfinite(_distance_from_prices(m, inside))
        assert _distance_from_prices(m, np.zeros(3)) == 0.0

    def test_phi_fixed_point_at_solution(self):
        rng = np.random.default_rng(9)
        m = random_market(rng, n_agents=3, n_states=30)
        ad = solve_arrow_debreu(m)
        eq = solve_nash(m, ad=ad)
        np.testing.assert_allclose(phi_map(m, ad, eq.z), eq.z, atol=1e-8)

    def test_phi_zero_in_no_trade_market(self):
        rng = np.random.default_rng(10)
        m = common_beliefs_market(rng, n_agents=4, n_states=30)
        ad = solve_arrow_debreu(m)
        np.testing.assert_allclose(phi_map(m, ad, np.zeros(4)), 0.0, atol=1e-12)

    def test_phi_output_sums_to_zero_and_respects_floor(self):
        rng = np.random.default_rng(11)
        m = random_market(rng, n_agents=3, n_states=30)
        ad = solve_arrow_debreu(m)
        gains = np.asarray(ad.agent_gains)
        for _ in range(5):
            z = rng.normal(0, 0.3, 3)
            z -= z.mean()
            out = phi_map(m, ad, z)
            assert abs(out.sum()) <= 1e-10
            assert np.all(out >= -(m.delta_minus + gains) - 1e-12)


class TestSolveNash:
    def test_common_beliefs_unique_trivial_equilibrium(self):
        rng = np.random.default_rng(12)
        m = common_beliefs_market(rng, n_agents=3, n_states=60)
        eq = solve_nash(m)
        assert float(np.max(np.abs(eq.z))) <= 1e-9
        assert float(np.max(np.abs(eq.security_values()))) <= 1e-9
        np.testing.assert_allclose(
            eq.pricing.weights, m.agents[0].beliefs.weights, atol=1e-10
        )

    def test_symmetric_tilt_game(self):
        m, x = beta_market(1.0)
        ad = solve_arrow_debreu(m)
        eq = solve_nash(m, ad=ad)
        assert eq.z[0] == pytest.approx(0.0, abs=1e-10)
        c0 = eq.securities[0].values
        u0, u1 = eq.log_ratios
        resid = c0 + 0.5 * (u0 - u1) - x.values
        assert float(np.max(np.abs(resid))) <= 1e-10

    def test_two_agent_determinism(self):
        rng = np.random.default_rng(13)
        m = random_market(rng, n_agents=2, n_states=40)
        z1 = solve_nash(m).z
        z2 = solve_nash(m).z
        assert float(np.max(np.abs(z1 - z2))) <= 1e-12

    def test_equilibrium_invariants(self):
        rng = np.random.default_rng(14)
        for _ in range(4):
            m = random_market(rng)
            ad = solve_arrow_debreu(m)
            eq = solve_nash(m, ad=ad)
            sec = eq.security_values()
            assert float(np.max(np.abs(sec.sum(axis=0)))) <= 1e-9
            assert max(abs(expect(eq.pricing, c)) for c in eq.securities) <= 1e-9
            assert eq.aggregate_value <= ad.aggregate_gain + 1e-9
            assert np.all(eq.z >= -np.asarray(ad.agent_gains) - 1e-9)
            # Valuation reconstruction from the competitive pricing.
            coupling = m.lambdas @ eq.log_ratios
            logq = ad.pricing.log_weights() - coupling
            w = np.exp(logq - logq.max())
            np.testing.assert_allclose(
                w / w.sum(), eq.pricing.weights, atol=1e-10
            )

    def test_best_response_consistency(self):
        rng = np.random.default_rng(15)
        m = random_market(rng, n_agents=3, n_states=40)
        eq = solve_nash(m)
        for i in range(3):
            others = [eq.revealed[j] for j in range(3) if j != i]
            br = solve_best_response(m, i, others)
            gap = float(np.max(np.abs(br.reported.weights - eq.revealed[i].weights)))
            assert gap <= 1e-8

    def test_ledger_takes_the_callers_diagnostics(self):
        m = random_market(np.random.default_rng(18), n_agents=3, n_states=60)
        ad = solve_arrow_debreu(m)
        eq = solve_nash(m, ad=ad)
        diag = compute_diagnostics(m, ad, eq)
        assert nash_ledger(m, ad, eq, diag) == nash_ledger(m, ad, eq)

    def test_trade_strictly_loses_efficiency(self):
        rng = np.random.default_rng(16)
        m = random_market(rng, n_agents=2, n_states=30)
        ad = solve_arrow_debreu(m)
        eq = solve_nash(m, ad=ad)
        if float(np.max(np.abs(eq.security_values()))) > 1e-8:
            assert eq.aggregate_value < ad.aggregate_gain - 1e-12


def stress_market(seed, hi, trial, n_states=200):
    """Trial ``trial`` of a seeded stress draw with wide tolerance ratios and strong tilts.

    Every earlier trial's draws are replayed, so a trial is fixed by
    ``(seed, hi, trial)`` alone.
    """
    rng = np.random.default_rng(seed)
    for _ in range(trial + 1):
        n = int(rng.integers(2, hi))
        tilt = rng.choice([0.5, 2, 5, 10])
        ratio = rng.choice([1, 1e2, 1e4])
        weights = rng.dirichlet(np.full(n_states, 5.0))
        if ratio > 1:
            deltas = np.exp(rng.uniform(0.0, np.log(ratio), n))
        else:
            deltas = rng.uniform(0.3, 3.0, n)
        tilts = [tilt * rng.normal(0.0, 1.0, n_states) for _ in range(n)]
    base = StateSpace(weights).baseline()
    return Market(
        [Agent(float(d), normalize_log_density(base, t)) for d, t in zip(deltas, tilts)]
    )


# Markets on which saturated securities flatten the zero-price map.
PLATEAU_MARKETS = [(7, 9, t) for t in (23, 33, 39, 53, 77, 82, 90)] + [(2026, 7, 12)]


class TestPlateauMarkets:
    @pytest.mark.parametrize("seed,hi,trial", PLATEAU_MARKETS)
    def test_certified(self, seed, hi, trial):
        m = stress_market(seed, hi, trial)
        ad = solve_arrow_debreu(m)
        eq = solve_nash(m, ad=ad)
        assert eq.distance <= 1e-10 * m.delta_total
        failing = {e["name"] for e in nash_ledger(m, ad, eq) if not e["pass"]}
        assert not failing

    def test_failure_carries_one_trace_per_start(self):
        m = stress_market(7, 9, 53)
        with pytest.raises(SolverError) as err:
            solve_nash(m, tol=-1.0)
        diag = err.value.diagnostics
        assert len(diag["residual_traces"]) == m.n_agents + 1
        assert all(len(t) >= 1 for t in diag["residual_traces"])
        assert diag["best_distance"] > -1.0
        assert len(diag["best_z"]) == m.n_agents


def extreme_market(trial):
    """Trial ``trial`` of the extreme-input sweep.

    Tolerance ratios up to 1e9 above a floor drawn log-uniformly on
    [1e-3, 10], log-belief tilts of scale up to 30, 2 to 6 agents and
    20 to 299 Dirichlet(2) states.  Every earlier trial's draws are
    replayed, so a trial is fixed by its index alone.
    """
    rng = np.random.default_rng(99)
    for _ in range(trial + 1):
        n = int(rng.integers(2, 7))
        n_states = int(rng.integers(20, 300))
        ratio = rng.choice([1e2, 1e4, 1e6, 1e9])
        tilt = rng.choice([1.0, 5.0, 15.0, 30.0])
        floor = np.exp(rng.uniform(np.log(1e-3), np.log(10.0)))
        deltas = floor * ratio ** rng.uniform(0.0, 1.0, n)
        weights = rng.dirichlet(np.full(n_states, 2.0))
        tilts = tilt * rng.normal(0.0, 1.0, (n, n_states))
    base = StateSpace(weights).baseline()
    return Market(
        [Agent(float(d), normalize_log_density(base, t)) for d, t in zip(deltas, tilts)]
    )


@pytest.mark.parametrize("trial", range(120))
def test_extreme_inputs_certify_or_raise(trial):
    """Every solve ends certified or in a SolverError that carries diagnostics.

    The competitive benchmark may refuse a market whose closed-form
    securities drift from clearing in float; once it is built, the game
    solve must end with every ledger entry passing.  Any warning is an error.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = extreme_market(trial)
        try:
            ad = solve_arrow_debreu(m)
        except SolverError as err:
            assert err.diagnostics
            return
        eq = solve_nash(m, ad=ad)
        failing = {e["name"]: e["value"] for e in nash_ledger(m, ad, eq) if not e["pass"]}
    assert not failing


def dominant_market(seed):
    """Three agents, the first holding over half the total tolerance (carried as ``v = u - y``)."""
    m = random_market(np.random.default_rng(seed), n_agents=3, n_states=200)
    return Market([Agent(10.0, m.agents[0].beliefs)] + list(m.agents[1:]))


def jacobian_case(case):
    """``(market, z)``: n agents, a dominant agent, or an extreme-sweep trial at its root."""
    if case == "dominant":
        return dominant_market(4), np.array([0.02, -0.01, -0.01])
    if isinstance(case, str):
        m = extreme_market(int(case.split("-")[1]))
        return m, solve_nash(m).z
    rng = np.random.default_rng(case)
    z = rng.normal(0.0, 0.05, case)
    return random_market(rng, n_agents=case, n_states=300), z - z.mean()


class TestExactJacobian:
    @pytest.mark.parametrize("case", [*range(2, 9), "dominant", "extreme-89", "extreme-104"])
    def test_matches_central_differences(self, case):
        m, z = jacobian_case(case)
        ad = solve_arrow_debreu(m)
        e = _evaluate(m, ad, z)
        n = m.n_agents
        fd_residual, fd_prices = np.empty((n, n - 1)), np.empty((n, n - 1))
        for k in range(n - 1):
            h = 1e-5 * (1.0 + abs(z[k + 1]))
            dz = np.zeros(n)
            dz[0], dz[k + 1] = -h, h
            up, down = _evaluate(m, ad, z + dz), _evaluate(m, ad, z - dz)
            fd_residual[:, k] = (up.residual - down.residual) / (2.0 * h)
            fd_prices[:, k] = (up.prices - down.prices) / (2.0 * h)
        for exact, fd in zip(_jacobians(m, e), (fd_residual, fd_prices)):
            assert np.max(np.abs(exact - fd)) <= 1e-6 * np.max(np.abs(fd))

    def test_cases_reach_the_edges(self):
        """The dominant agent holds over half the tolerance, trial 89 has a ratio
        on its projected cap, and trial 104 a security within exp(-50) of its
        floor ``-delta_minus``."""
        assert dominant_market(4).lambdas[0] > 0.5
        m, z = jacobian_case("extreme-89")
        caps = np.log((m.n_agents - 1) * m.delta_total / m.delta_minus)
        assert np.min(caps[:, None] - inner_solve(m, solve_arrow_debreu(m), z).log_ratios) <= 1e-12
        m, z = jacobian_case("extreme-104")
        assert np.min(inner_solve(m, solve_arrow_debreu(m), z).log_ratios) <= -50.0

    def test_inner_solves_per_equilibrium(self, monkeypatch):
        """Guards against Jacobian columns bought with inner solves.

        The search makes one inner solve per trial point.  Forward-difference
        columns add n - 1 more per Newton step: 353 on this market.
        """
        calls = []
        inner = nash._inner_log_ratios
        monkeypatch.setattr(nash, "_inner_log_ratios", lambda *a: calls.append(1) or inner(*a))
        m = random_market(np.random.default_rng(0), n_agents=8, n_states=500)
        solve_nash(m)
        assert 0 < len(calls) <= 12 * (m.n_agents + 1)


def _ir_point(ad, shares):
    """The point of the individually rational box ``z_i >= -gain_i`` that
    splits the aggregate gain by ``shares``."""
    gains = np.asarray(ad.agent_gains)
    shares = np.asarray(shares, dtype=float)
    return -gains + gains.sum() * shares / shares.sum()


@st.composite
def warm_cases(draw):
    """A random market (2 to 8 agents, up to 300 states) and two shares of its aggregate gain."""
    n = draw(st.integers(2, 8))
    market = random_market(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
        n_agents=n,
        n_states=draw(st.integers(2, 300)),
        tilt_scale=draw(st.sampled_from([0.3, 1.0, 3.0])),
    )
    share = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).filter(lambda w: sum(w) > 0.0)
    return market, draw(share), draw(share)


def _kernel_calls(module):
    """Patch ``module.solve_exp_linear`` with a wrapper that counts its calls."""
    return mock.patch.object(module, "solve_exp_linear", wraps=module.solve_exp_linear)


class TestWarmStarts:
    @given(case=warm_cases())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_warm_inner_solve_matches_cold(self, case):
        """Started from the solution at another point of the box, the inner
        solve reaches the cold solve's ``(u, y)`` without a cold start."""
        m, shares, near_shares = case
        ad = solve_arrow_debreu(m)
        z = _ir_point(ad, shares)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, y = nash._inner_log_ratios(m, ad, z)
            start = nash._inner_log_ratios(m, ad, _ir_point(ad, near_shares))
            with _kernel_calls(nash) as kernel:
                u_warm, y_warm = nash._inner_log_ratios(m, ad, z, start)
        assert kernel.call_count == 0
        assert np.all(np.abs(u_warm - u) <= 1e-12 * (1.0 + np.abs(u)))
        assert np.all(np.abs(y_warm - y) <= 1e-12 * (1.0 + np.abs(y)))

    @pytest.mark.parametrize("level", [1e3, 300.0], ids=["overflows", "too-slow"])
    def test_far_start_falls_back_to_cold(self, level):
        """A start whose first step overflows, or from which Newton descends
        too slowly to converge, is redone cold without a warning."""
        m = random_market(np.random.default_rng(3), n_agents=4, n_states=200)
        ad = solve_arrow_debreu(m)
        z = _ir_point(ad, np.ones(4))
        u, y = nash._inner_log_ratios(m, ad, z)
        far = (np.full_like(u, level), np.full_like(y, level))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with _kernel_calls(nash) as kernel:
                u_far, y_far = nash._inner_log_ratios(m, ad, z, far)
        assert kernel.call_count == 1
        assert np.array_equal(u_far, u) and np.array_equal(y_far, y)

    @pytest.mark.parametrize("n_agents, n_states", [(2, 2000), (8, 500)])
    def test_one_kernel_call_per_newton_start(self, n_agents, n_states):
        """Every trial point is solved warm: only the first point of each
        Newton start (the centre, and the corners for three or more agents)
        calls the kernel."""
        m = random_market(np.random.default_rng(0), n_agents=n_agents, n_states=n_states)
        ad = solve_arrow_debreu(m)
        with _kernel_calls(nash) as kernel:
            solve_nash(m, ad=ad)
        assert kernel.call_count == (1 if n_agents == 2 else n_agents + 1)

    @pytest.mark.parametrize("n_agents", [2, 3])
    def test_ledger_best_responses_start_at_the_equilibrium(self, n_agents):
        """Seeded from the equilibrium's ratios, each best response of the
        fixed-point check needs one kernel call."""
        m = random_market(np.random.default_rng(0), n_agents=n_agents, n_states=2000)
        ad = solve_arrow_debreu(m)
        eq = solve_nash(m, ad=ad)
        with _kernel_calls(best_response) as kernel:
            ledger = nash_ledger(m, ad, eq)
        assert all(e["pass"] for e in ledger)
        assert kernel.call_count == n_agents

    @pytest.mark.parametrize("seeded", [True, False])
    def test_fixed_point_gap_fails_a_tilted_report(self, seeded):
        """A revealed belief tilted by a relative 1e-4 fails the gap, whether
        the best responses start at the equilibrium or at zero."""
        rng = np.random.default_rng(21)
        m = random_market(rng, n_agents=3, n_states=300)
        ad = solve_arrow_debreu(m)
        eq = solve_nash(m, ad=ad)
        revealed = list(eq.revealed)
        revealed[1] = normalize_log_density(revealed[1], 1e-4 * rng.choice([-1.0, 1.0], 300))
        eq = dataclasses.replace(eq, revealed=tuple(revealed))
        if seeded:
            gap = next(e for e in nash_ledger(m, ad, eq) if e["name"] == "fixed_point_gap")
            assert not gap["pass"]
            return
        gap = 0.0
        for i in range(m.n_agents):
            others = [eq.revealed[j] for j in range(m.n_agents) if j != i]
            br = solve_best_response(m, i, others, start=None)
            gap = max(gap, float(np.max(np.abs(br.reported.weights - eq.revealed[i].weights))))
        assert gap > 1e-8
