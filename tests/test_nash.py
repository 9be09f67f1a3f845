"""Game equilibrium solver: inner system, distance, update map, full solves."""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    beta_market,
    common_beliefs_market,
    extreme_market,
    force_blocks,
    hedge_market,
    _tilted_market,
    random_market,
    stress_market,
)
from risksharing import (
    Agent,
    ContractError,
    Market,
    RandomVariable,
    SolverError,
    cara_utility,
    expect,
    nash_distance,
    normalize_log_density,
    phi_map,
    solve_arrow_debreu,
    solve_best_response,
    solve_nash,
)
from risksharing import best_response, nash, roots
from risksharing.bundle import nash_ledger
from risksharing.diagnostics import compute_diagnostics
from risksharing.nash import _distance_from_prices, _evaluate_one, _jacobians


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


def used_workspace(market, k):
    """A workspace as a search passes it on: sized for more entries than the
    ``k`` of the call, as ``_newton``'s is once starts leave, and every buffer
    NaN, so that a value read before it is written shows in the result."""
    ws = nash._Workspace(k + 2, market.n_agents, market.space.n_states)
    ws.stacks.fill(np.nan)
    ws.planes.fill(np.nan)
    return ws


def inner_solve(m, ad, z, start=None):
    """``_inner_log_ratios`` at the ``(K, n)`` stack ``z`` in a used workspace."""
    return nash._inner_log_ratios(m, ad, z, start, used_workspace(m, len(z)))


class TestInnerSolve:
    def test_common_beliefs_at_origin(self):
        rng = np.random.default_rng(1)
        m = common_beliefs_market(rng, n_agents=3, n_states=40)
        ad = solve_arrow_debreu(m)
        e = _evaluate_one(m, ad, np.zeros(3))
        assert float(np.max(np.abs(e.sec))) <= 1e-12
        assert float(np.max(np.abs(e.y))) <= 1e-12
        np.testing.assert_allclose(e.q, ad.pricing.weights, atol=1e-13)

    def test_matches_independent_two_agent_bisection(self):
        rng = np.random.default_rng(2)
        m = random_market(rng, n_agents=2, n_states=30)
        ad = solve_arrow_debreu(m)
        for z0 in (-0.2, 0.0, 0.35):
            e = _evaluate_one(m, ad, np.array([z0, -z0]))
            reference = scalar_two_agent_security(m, ad, z0)
            np.testing.assert_allclose(e.sec[0], reference, atol=1e-10)

    def test_clearing_and_bounds(self):
        rng = np.random.default_rng(3)
        m = random_market(rng, n_agents=4, n_states=50)
        ad = solve_arrow_debreu(m)
        z = rng.normal(0, 0.1, 4)
        z -= z.mean()
        e = _evaluate_one(m, ad, z)
        assert float(np.max(np.abs(e.sec.sum(axis=0)))) <= 1e-9
        caps = np.log((m.n_agents - 1) * m.delta_total / m.delta_minus)
        assert np.all(np.isfinite(e.u))
        assert np.all(e.u < caps[:, None])

    def test_system_residual(self):
        rng = np.random.default_rng(4)
        m = random_market(rng, n_agents=3, n_states=30)
        ad = solve_arrow_debreu(m)
        z = np.array([0.1, -0.25, 0.15])
        e = _evaluate_one(m, ad, z)
        u = e.u
        coupling = m.lambdas @ u
        resid = (
            e.sec
            + m.deltas[:, None] * u
            - (z[:, None] + ad.security_values() + m.deltas[:, None] * coupling)
        )
        assert float(np.max(np.abs(resid))) <= 1e-10

    def test_monotone_response_to_transfers(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            m = random_market(rng, n_agents=2, n_states=20)
            ad = solve_arrow_debreu(m)
            base = _evaluate_one(m, ad, np.array([0.0, 0.0])).sec[0]
            bumped = _evaluate_one(m, ad, np.array([0.05, -0.05])).sec[0]
            assert np.all(bumped > base)

    def test_rejects_nonzero_sum(self):
        """A ``z`` that does not sum to zero, or holds NaN or an infinity, or
        has other than one coordinate per agent, is refused before any inner
        solve."""
        rng = np.random.default_rng(6)
        m = random_market(rng, n_agents=2, n_states=10)
        ad = solve_arrow_debreu(m)
        bad = {
            "sum to zero": [[0.1, 0.1], [np.nan, np.nan], [np.inf, -np.inf], [np.inf, np.inf],
                            [0.1, np.nan]],
            "one coordinate per agent": [[0.1, -0.1, 0.0], [[0.1, -0.1]], 0.0],
        }
        for call in (phi_map, nash_distance):
            for message, zs in bad.items():
                for z in zs:
                    with pytest.raises(ContractError, match=message):
                        call(m, ad, np.array(z))


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

    @pytest.mark.parametrize("n_agents", [2, 3])
    def test_record_holds_read_only_arrays(self, n_agents):
        """The record is sealed: none of its arrays can be written."""
        market = random_market(np.random.default_rng(17), n_agents=n_agents, n_states=50)
        eq = solve_nash(market)
        for array in (eq.z, eq.all_roots[0], eq.log_ratios):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

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

    def test_failure_carries_one_trace_per_start(self, monkeypatch):
        """Each start's ``max|F|`` trace, every entry of it, some longer than 5."""
        m = stress_market(7, 9, 53)
        ad = solve_arrow_debreu(m)
        ends = nash._newton(m, ad, nash._starts(m, ad), 1e-12 * max(1.0, m.delta_total))
        monkeypatch.setattr(nash, "DISTANCE_RTOL", -1.0)
        with pytest.raises(SolverError) as err:
            solve_nash(m, ad=ad)
        diag = err.value.diagnostics
        assert len(diag["residual_traces"]) == m.n_agents + 1
        assert diag["residual_traces"] == [trace for _, _, trace in ends]
        assert max(map(len, diag["residual_traces"])) > 5
        assert diag["best_distance"] > -1.0
        assert len(diag["best_z"]) == m.n_agents


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
        e = _evaluate_one(m, ad, z)
        n = m.n_agents
        fd_residual, fd_prices = np.empty((n, n - 1)), np.empty((n, n - 1))
        for k in range(n - 1):
            h = 1e-5 * (1.0 + abs(z[k + 1]))
            dz = np.zeros(n)
            dz[0], dz[k + 1] = -h, h
            up, down = _evaluate_one(m, ad, z + dz), _evaluate_one(m, ad, z - dz)
            fd_residual[:, k] = (up.residual - down.residual) / (2.0 * h)
            fd_prices[:, k] = (up.prices - down.prices) / (2.0 * h)
        for (exact,), fd in zip(_jacobians(m, [e], used_workspace(m, 1)), (fd_residual, fd_prices)):
            assert np.max(np.abs(exact - fd)) <= 1e-6 * np.max(np.abs(fd))

    def test_cases_reach_the_edges(self):
        """The dominant agent holds over half the tolerance, trial 89 has a ratio
        on its projected cap, and trial 104 a security within exp(-50) of its
        floor ``-delta_minus``."""
        assert dominant_market(4).lambdas[0] > 0.5
        m, z = jacobian_case("extreme-89")
        caps = np.log((m.n_agents - 1) * m.delta_total / m.delta_minus)
        assert np.min(caps[:, None] - _evaluate_one(m, solve_arrow_debreu(m), z).u) <= 1e-12
        m, z = jacobian_case("extreme-104")
        assert np.min(_evaluate_one(m, solve_arrow_debreu(m), z).u) <= -50.0

    def test_inner_solves_per_equilibrium(self, monkeypatch):
        """Guards against Jacobian columns bought with inner solves, and
        against rounds that solve the starts' trial points apart.

        Each round solves one trial point per start still searching, all in
        one stacked inner solve, so the stack size of every call is pinned:
        52 trial points on the 8-agent market, 20 on the 3-agent one.
        Forward-difference columns would add n - 1 more per Newton step.
        """
        sizes = []
        inner = nash._inner_log_ratios
        monkeypatch.setattr(
            nash, "_inner_log_ratios", lambda *a: sizes.append(len(a[2])) or inner(*a)
        )
        for n_agents, stacks in ((8, [9, 9, 9, 9, 8, 8]), (3, [4, 4, 4, 4, 4])):
            sizes.clear()
            solve_nash(random_market(np.random.default_rng(0), n_agents=n_agents, n_states=500))
            assert sizes == stacks


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


def assert_within_inner_tolerances(m, ad, z, u, y):
    """``G`` and ``W`` of the per-state system at ``(u, y)``, from their
    definitions, within the inner solve's tolerances: ``1e-14`` times the sum
    of the magnitudes of their terms, ``y``'s through ``dG/dy``; a dominant
    agent's ``G`` has ``delta*|u - y| + delta_minus*exp(u)*|y|`` in place of
    ``delta*|y|``.  States where a ratio sits at its projected cap are skipped."""
    a = z[:, None] + ad.security_values()
    deltas, dminus, lambdas = (x[:, None] for x in (m.deltas, m.delta_minus, m.lambdas))
    g = dminus * np.expm1(u) + deltas * (u - y) - a
    w = y - np.sum(lambdas * u, axis=0)
    g_tol = 1.0 + np.abs(a) + deltas * np.abs(y)
    lam_u = lambdas * u
    rest = 1.0
    top = int(np.argmax(m.lambdas))
    if m.lambdas[top] > 0.5:
        g_tol[top] = 1.0 + np.abs(a[top]) + m.deltas[top] * np.abs(u[top] - y)
        g_tol[top] += m.delta_minus[top] * np.exp(u[top]) * np.abs(y)
        lam_u[top] = m.lambdas[top] * (u[top] - y)
        rest -= m.lambdas[top]
    w_tol = 1.0 + rest * np.abs(y) + np.sum(np.abs(lam_u), axis=0)
    caps = np.log((m.n_agents - 1) * m.delta_total / m.delta_minus)[:, None]
    free = np.all(u < caps - 1e-14 * (1.0 + np.abs(caps)), axis=0)
    assert np.all(np.abs(g[:, free]) <= 1e-14 * g_tol[:, free])
    assert np.all(np.abs(w[free]) <= 1e-14 * w_tol[free])


def _kernel_calls(module):
    """Patch ``module.solve_exp_linear`` with a wrapper that counts its calls."""
    return mock.patch.object(module, "solve_exp_linear", wraps=module.solve_exp_linear)


def _blocks_calls():
    """Patch ``nash.over_blocks`` with a wrapper that records its calls."""
    return mock.patch.object(nash, "over_blocks", wraps=nash.over_blocks)


def _passes(blocks) -> int:
    """The inner solve's lockstep Newton passes among the calls ``blocks`` recorded."""
    return sum(call.args[2] is nash._joined for call in blocks.call_args_list)


def first_step_past_caps(m, ad, z, u, y) -> bool:
    """Whether one Newton step on ``G`` and ``W`` from ``(u, y)`` at ``z``, taken
    state by state through the dense Jacobian, leaves some ``u_i`` above its cap."""
    a = z[:, None] + ad.security_values()
    deltas, dminus, lambdas = (x[:, None] for x in (m.deltas, m.delta_minus, m.lambdas))
    n, s = u.shape
    residual = np.vstack([dminus * np.expm1(u) + deltas * (u - y) - a, y - lambdas.T @ u])
    jac = np.zeros((s, n + 1, n + 1))
    jac[:, np.arange(n), np.arange(n)] = (dminus * np.exp(u) + deltas).T
    jac[:, :n, n] = -m.deltas
    jac[:, n, :n] = -m.lambdas
    jac[:, n, n] = 1.0
    step = np.linalg.solve(jac, -residual.T[..., None])[..., 0].T
    caps = np.log((m.n_agents - 1) * m.delta_total / m.delta_minus)[:, None]
    return bool(np.any(u + step[:n] > caps))


class TestWarmStarts:
    def test_warm_inner_solve_matches_cold(self):
        """Started from the solution at another point of the box, the inner
        solve reaches the cold solve's ``(u, y)`` without a kernel call and
        within 20 passes, also where its first step crosses the caps, as it
        does on some examples, and is projected onto them."""
        crossed = []

        @given(case=warm_cases())
        @settings(max_examples=60, deadline=None, derandomize=True)
        def check(case):
            m, shares, near_shares = case
            ad = solve_arrow_debreu(m)
            z = _ir_point(ad, shares)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                u, y = inner_solve(m, ad, z[None])
                start = inner_solve(m, ad, _ir_point(ad, near_shares)[None])
                with _kernel_calls(nash) as kernel, _blocks_calls() as blocks:
                    u_warm, y_warm = inner_solve(m, ad, z[None], start)
            crossed.append(first_step_past_caps(m, ad, z, start[0][0], start[1][0]))
            assert kernel.call_count == 0
            assert _passes(blocks) <= 20
            assert np.all(np.abs(u_warm - u) <= 1e-12 * (1.0 + np.abs(u)))
            assert np.all(np.abs(y_warm - y) <= 1e-12 * (1.0 + np.abs(y)))

        check()
        assert any(crossed)

    @given(case=warm_cases())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_returned_points_meet_the_inner_tolerances(self, case):
        """The post-step stop certifies ``G`` and ``W`` without evaluating them
        at the point it returns; evaluated there, cold and warm, both are within
        the tolerances of the inner solve, except on states projected onto a cap."""
        m, shares, near_shares = case
        ad = solve_arrow_debreu(m)
        z = _ir_point(ad, shares)[None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cold = inner_solve(m, ad, z)
            start = inner_solve(m, ad, _ir_point(ad, near_shares)[None])
            warm = inner_solve(m, ad, z, start)
        for u, y in (cold, warm):
            assert_within_inner_tolerances(m, ad, z[0], u[0], y[0])

    @pytest.mark.parametrize("level", [1e3], ids=["overflows"])
    def test_far_start_fails(self, level):
        """A start whose first step overflows is not finite after its projection
        onto the caps, so it never converges and, after ``INNER_MAX_ITER``
        passes, fails: NaN rows, no kernel call, no warning."""
        m = random_market(np.random.default_rng(3), n_agents=4, n_states=200)
        ad = solve_arrow_debreu(m)
        z = _ir_point(ad, np.ones(4))[None]
        u, y = inner_solve(m, ad, z)
        far = (np.full_like(u, level), np.full_like(y, level))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with _kernel_calls(nash) as kernel:
                u_far, y_far = inner_solve(m, ad, z, far)
        assert kernel.call_count == 0
        assert np.all(np.isnan(u_far)) and np.all(np.isnan(y_far))

    def test_far_start_is_projected_onto_the_caps(self):
        """From ``u = y = 300`` Newton on ``expm1`` would fall about one unit of
        ``u`` a pass; its first step lands past the caps and is projected onto
        them, from where the warm solve converges: no kernel call, the cold
        result within 1e-12, no warning."""
        m = random_market(np.random.default_rng(3), n_agents=4, n_states=200)
        ad = solve_arrow_debreu(m)
        z = _ir_point(ad, np.ones(4))[None]
        u, y = inner_solve(m, ad, z)
        far = (np.full_like(u, 300.0), np.full_like(y, 300.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with _kernel_calls(nash) as kernel:
                u_far, y_far = inner_solve(m, ad, z, far)
        assert kernel.call_count == 0
        assert np.all(np.abs(u_far - u) <= 1e-12 * (1.0 + np.abs(u)))
        assert np.all(np.abs(y_far - y) <= 1e-12 * (1.0 + np.abs(y)))

    def test_cold_start_below_w_zero_enters_like_a_warm_one(self, monkeypatch):
        """A cold start need not lie where ``W >= 0``: with the kernel's ``u`` of
        entry 0 raised by 5, ``W`` at its start falls below 0, yet its first
        step is projected onto the caps as a warm one is, and the entry
        reaches the unraised solve's ``(u, y)`` within 1e-12; the other
        entries keep their bits."""
        m = random_market(np.random.default_rng(3), n_agents=3, n_states=100)
        ad = solve_arrow_debreu(m)
        z = nash._starts(m, ad)
        u, y = inner_solve(m, ad, z)
        kernel = nash.solve_exp_linear

        def raised(dminus, deltas, rhs):
            u = kernel(dminus, deltas, rhs)
            u[0] += 5.0
            return u

        monkeypatch.setattr(nash, "solve_exp_linear", raised)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u_raised, y_raised = inner_solve(m, ad, z)
        assert np.all(np.abs(u_raised[0] - u[0]) <= 1e-12 * (1.0 + np.abs(u[0])))
        assert np.all(np.abs(y_raised[0] - y[0]) <= 1e-12 * (1.0 + np.abs(y[0])))
        assert u_raised[1:].tobytes() == u[1:].tobytes()
        assert y_raised[1:].tobytes() == y[1:].tobytes()

    def test_warm_solve_past_the_pass_limit_fails(self, monkeypatch):
        """A warm start half a unit under the caps takes 7 passes, so with
        ``INNER_MAX_ITER`` at 6 the warm solve gives up and fails: NaN rows,
        no kernel call, no warning.  At 7 it reaches the cold result."""
        m = random_market(np.random.default_rng(3), n_agents=4, n_states=200)
        ad = solve_arrow_debreu(m)
        z = _ir_point(ad, np.ones(4))[None]
        caps = np.log(3 * m.delta_total / m.delta_minus)
        u_start = np.broadcast_to(caps[:, None] - 0.5, (1, 4, 200)).copy()
        start = (u_start, (m.lambdas @ u_start[0])[None])
        u, y = inner_solve(m, ad, z)
        for limit in (6, 7):
            monkeypatch.setattr(nash, "INNER_MAX_ITER", limit)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with _kernel_calls(nash) as kernel:
                    u_warm, y_warm = inner_solve(m, ad, z, start)
            assert kernel.call_count == 0
            if limit == 6:
                assert np.all(np.isnan(u_warm)) and np.all(np.isnan(y_warm))
        assert np.all(np.abs(u_warm - u) <= 1e-12 * (1.0 + np.abs(u)))
        assert np.all(np.abs(y_warm - y) <= 1e-12 * (1.0 + np.abs(y)))

    def test_first_step_check_projects_a_far_start(self, monkeypatch):
        """Extreme-sweep trial 64's first Newton step moves ``z`` by about 1400,
        so the centre's solution, its warm start, lies 79 in ``u`` from the new
        root.  Its first step is finite but lands past the caps, where no root
        lies, and the check projects it onto them.  Without the check the warm
        solve creeps to its root in 76 passes."""
        self.assert_first_round_converges_warm(monkeypatch, extreme_market(64))

    def test_first_step_check_ends_a_crawl(self, monkeypatch):
        """On stress market (7, 9, 14) the first trial round is 4 entries of 6
        agents on 200 states, warm from the starts' solutions.  Every first
        step lands past the caps but on a super-solution, so a check on the
        super-solution set lets all four through, and two of them then crawl
        down to their roots for 67 and 73 passes.  The check on the caps
        projects all four onto them."""
        self.assert_first_round_converges_warm(monkeypatch, stress_market(7, 9, 14))

    @staticmethod
    def assert_first_round_converges_warm(monkeypatch, m):
        """The first trial round of ``solve_nash`` on ``m``, warm from the
        starts' solutions, takes at most 15 passes and no kernel call, and
        agrees with the cold result within 1e-12."""
        ad = solve_arrow_debreu(m)
        calls = []
        inner = nash._inner_log_ratios
        monkeypatch.setattr(nash, "_inner_log_ratios", lambda *a: calls.append(a) or inner(*a))
        solve_nash(m, ad=ad)
        monkeypatch.undo()
        z, start = calls[1][2:4]  # the first trial round, warm from the starts
        with _kernel_calls(nash) as kernel, _blocks_calls() as blocks:
            u, y = inner_solve(m, ad, z, start)
        u_cold, y_cold = inner_solve(m, ad, z)
        assert kernel.call_count == 0
        assert _passes(blocks) <= 15
        assert np.all(np.abs(u - u_cold) <= 1e-12 * (1.0 + np.abs(u_cold)))
        assert np.all(np.abs(y - y_cold) <= 1e-12 * (1.0 + np.abs(y_cold)))

    @pytest.mark.parametrize(
        "market",
        [
            lambda: random_market(np.random.default_rng(0), n_agents=2, n_states=2000),
            lambda: random_market(np.random.default_rng(0), n_agents=8, n_states=500),
            lambda: extreme_market(64),
            lambda: stress_market(7, 9, 14),
        ],
        ids=["2-2000", "8-500", "extreme-64", "stress-7-9-14"],
    )
    def test_one_kernel_call_for_all_newton_starts(self, market):
        """Every trial point is solved warm, a first step past the caps among
        them, and the first points of all Newton starts (the centre, and the
        corners for three or more agents) are solved together: one kernel
        call per equilibrium."""
        m = market()
        ad = solve_arrow_debreu(m)
        with _kernel_calls(nash) as kernel:
            solve_nash(m, ad=ad)
        assert kernel.call_count == 1

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


class TestWorkspace:
    """One search's stacked solves work in its own workspace and share nothing else."""

    def test_warm_inner_solve_allocates_little_beside_its_workspace(self):
        """Given its workspace, a warm inner solve on all 9 starts of an 8-agent,
        500-state market allocates its result and a few ``(K, 1, S)`` arrays:
        its traced peak stays under 1 MB, where one ``(K, n, S)`` array is 288 kB."""
        m = random_market(np.random.default_rng(0), n_agents=8, n_states=500)
        ad = solve_arrow_debreu(m)
        z = nash._starts(m, ad)
        ws = nash._Workspace(*z.shape, m.space.n_states)
        start = nash._inner_log_ratios(m, ad, z, None, ws)
        with _kernel_calls(nash) as kernel:
            tracemalloc.start()
            try:
                nash._inner_log_ratios(m, ad, 0.9 * z, start, ws)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert kernel.call_count == 0
        assert peak <= 1_000_000

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB on Linux only")
    def test_solve_memory_per_state_stays_small(self):
        """An (8 agents, 20,000 states) solve, in a fresh interpreter, raises the
        peak RSS by under 4 kB a state: its nine starts run one to a chunk and
        only the reported root keeps per-state arrays (9.2 kB a state when the
        nine ran in one stack and every end kept its evaluation)."""
        code = (
            "import resource, numpy as np\n"
            "from helpers import random_market\n"
            "from risksharing import solve_arrow_debreu, solve_nash\n"
            "m = random_market(np.random.default_rng(5), n_agents=8, n_states=20_000)\n"
            "ad = solve_arrow_debreu(m)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "solve_nash(m, ad=ad)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
        )
        here = os.path.dirname(os.path.abspath(__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([os.path.join(here, "..", "src"), here])}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert int(proc.stdout) * 1024 / 20_000 < 4_000

    @pytest.mark.parametrize("case", ["8-agents", "dominant", "blocks"])
    def test_used_workspace_gives_the_bits_of_a_fresh_one(self, monkeypatch, case):
        """The inner solve, cold and warm, ``_evaluate`` and ``_jacobians`` return
        the same bytes in a workspace left by a larger stack and filled with NaN
        as in a fresh one: no buffer carries a value from one call to the next.
        The cases reach the carried agent and three blocks of states."""
        m = {
            "8-agents": lambda: random_market(np.random.default_rng(0), 8, 500),
            "dominant": lambda: dominant_market(4),
            "blocks": lambda: random_market(np.random.default_rng(1), 2, 5000),
        }[case]()
        if case == "blocks":
            force_blocks(monkeypatch, 3, 1000)
        ad = solve_arrow_debreu(m)
        shares = np.random.default_rng(2).uniform(0.1, 1.0, (6, m.n_agents))
        z = np.stack([_ir_point(ad, w) for w in shares])
        ws = nash._Workspace(len(z), m.n_agents, m.space.n_states)
        near = nash._evaluate(m, ad, z, None, ws)[::2]
        few = z[1::2]
        start = ([e.u for e in near], [e.y for e in near])
        evaluations = nash._evaluate(m, ad, few, near, ws)
        calls = {
            "cold inner": lambda w: nash._inner_log_ratios(m, ad, few, None, w),
            "warm inner": lambda w: nash._inner_log_ratios(m, ad, few, start, w),
            "cold evaluate": lambda w: nash._evaluate(m, ad, few, None, w),
            "warm evaluate": lambda w: nash._evaluate(m, ad, few, near, w),
            "jacobians": lambda w: nash._jacobians(m, evaluations, w),
        }

        def arrays(result):
            """Shape and bytes of each array of a result of nested tuples and lists."""
            if isinstance(result, (tuple, list)):
                return [a for r in result for a in arrays(r)]
            return [(result.shape, result.tobytes())]

        for name, call in calls.items():
            ws.stacks.fill(np.nan)
            ws.planes.fill(np.nan)
            used = arrays(call(ws))
            fresh = arrays(call(nash._Workspace(len(few), m.n_agents, m.space.n_states)))
            assert used == fresh, name

    def test_solves_share_no_state(self):
        """Two 8-agent markets and a 3-agent one solved in three threads at once,
        more threads than cores, and again in turn, give each the bits it gets
        solved alone; the earlier results neither change nor share memory with
        the later ones."""

        def arrays(eq):
            return (eq.z, eq.log_ratios, *eq.all_roots, *(c.values for c in eq.securities))

        def same_bits(a, b):
            return a.shape == b.shape and a.tobytes() == b.tobytes()

        markets = [
            random_market(np.random.default_rng(seed), n_agents=n, n_states=500)
            for seed, n in ((0, 8), (1, 3), (2, 8))
        ]
        alone = [solve_nash(m) for m in markets]
        before = [[a.copy() for a in arrays(eq)] for eq in alone]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(markets)) as pool:
                futures = [pool.submit(solve_nash, m) for m in markets]
                threaded = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        in_turn = [solve_nash(m) for m in markets]
        for later in (threaded, in_turn):
            for eq, eq_alone in zip(later, alone):
                assert len(arrays(eq)) == len(arrays(eq_alone))
                assert all(map(same_bits, arrays(eq), arrays(eq_alone)))
        for eq, copies in zip(alone, before):
            assert all(map(same_bits, arrays(eq), copies))
            for a in arrays(eq):
                for later in threaded + in_turn:
                    assert not any(np.shares_memory(a, b) for b in arrays(later))


def solution_bits(eq):
    return [a.tobytes() for a in (eq.z, eq.log_ratios, *eq.all_roots)]


class TestBlocks:
    """On markets forced onto several blocks of states, the pool's failure modes
    leave the one-block bits."""

    def test_far_warm_start_is_projected_as_on_one_block(self, monkeypatch):
        """A start at ``u = y = 300`` lands past the caps, and each block of
        states projects its own states onto them: with warnings as errors,
        three blocks give the bits of one, without a kernel call."""
        m = random_market(np.random.default_rng(3), n_agents=4, n_states=600)
        ad = solve_arrow_debreu(m)
        z = _ir_point(ad, np.ones(4))[None]
        far = tuple(np.full_like(x, 300.0) for x in inner_solve(m, ad, z))
        threads = force_blocks(monkeypatch, 3, 200)

        def far_solve():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with _kernel_calls(nash) as kernel:
                    u, y = inner_solve(m, ad, z, far)
            assert kernel.call_count == 0
            return u.tobytes(), y.tobytes()

        in_blocks = far_solve()
        monkeypatch.setattr(roots, "WORKERS", 1)
        assert far_solve() == in_blocks
        assert any(name.startswith("risksharing") for name in threads)

    @pytest.mark.parametrize("level", [800.0], ids=["overflowing"])
    def test_far_warm_start_fails_as_on_one_block(self, monkeypatch, level):
        """A start at ``u = y = 800`` overflows and never converges; with warnings
        as errors, the blocks, each in a copy of the caller's ``errstate``, fail
        it to the one-block bits, NaN, without a kernel call."""
        m = random_market(np.random.default_rng(3), n_agents=4, n_states=600)
        ad = solve_arrow_debreu(m)
        z = _ir_point(ad, np.ones(4))[None]
        far = tuple(np.full_like(x, level) for x in inner_solve(m, ad, z))
        threads = force_blocks(monkeypatch, 3, 200)

        def far_solve():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with _kernel_calls(nash) as kernel:
                    u, y = inner_solve(m, ad, z, far)
            assert kernel.call_count == 0
            assert np.all(np.isnan(u)) and np.all(np.isnan(y))
            return u.tobytes(), y.tobytes()

        in_blocks = far_solve()
        monkeypatch.setattr(roots, "WORKERS", 1)
        assert far_solve() == in_blocks
        assert any(name.startswith("risksharing") for name in threads)

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_blocks_that_stop_apart_give_the_one_block_bits(self, monkeypatch, workers):
        """Belief tilts that grow along the state axis, and warm starts far
        only on their last states, make the blocks disagree: the last needs
        passes after the first is within its tolerances, and only the last
        steps past the caps.  Each entry decides on all its states at once,
        so the inner solve, cold and warm, and the game's solve give the
        one-block bits and kernel calls."""
        rng = np.random.default_rng(8)
        n_states = 1200
        tilts = rng.normal(0.0, 1.0, (3, n_states)) * np.linspace(0.1, 2.0, n_states)
        m = _tilted_market(rng.uniform(0.3, 3.0, 3), rng.dirichlet(np.full(n_states, 5.0)), tilts)
        ad = solve_arrow_debreu(m)
        z = np.stack([_ir_point(ad, w) for w in rng.uniform(0.1, 1.0, (2, 3))])
        caps = np.log(2 * m.delta_total / m.delta_minus)[:, None]
        start = [x[::-1].copy() for x in inner_solve(m, ad, z)]
        start[0][0, :, -n_states // 4 :] -= 1.0
        start[0][1, :, -n_states // 4 :] = caps + 1.0

        def solves():
            with _kernel_calls(nash) as kernel:
                inner = (*inner_solve(m, ad, z), *inner_solve(m, ad, z, start))
            bits = [a.tobytes() for a in inner]
            return bits, kernel.call_count, solution_bits(solve_nash(m, ad=ad))

        want = solves()
        threads = force_blocks(monkeypatch, workers, 300)
        assert solves() == want
        assert any(name.startswith("risksharing") for name in threads)

    def test_two_callers_at_once_get_the_serial_bits(self, monkeypatch):
        m = random_market(np.random.default_rng(5), n_agents=3, n_states=600)
        ad = solve_arrow_debreu(m)
        want = solution_bits(solve_nash(m, ad=ad))
        threads = force_blocks(monkeypatch, 3, 200)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as callers:
                futures = [callers.submit(solve_nash, m, ad) for _ in range(2)]
                got = [solution_bits(f.result(timeout=120)) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == [want, want]
        assert any(name.startswith("risksharing") for name in threads)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
    def test_a_fork_child_solves_on_a_pool_of_its_own(self, monkeypatch):
        """The parent's worker threads do not exist in a fork child, so a
        child that reused its pool would wait on them forever."""
        m = random_market(np.random.default_rng(5), n_agents=3, n_states=600)
        ad = solve_arrow_debreu(m)
        want = solution_bits(solve_nash(m, ad=ad))
        force_blocks(monkeypatch, 3, 200)
        assert solution_bits(solve_nash(m, ad=ad)) == want and roots._pool is not None
        with warnings.catch_warnings():
            # Python 3.12 on warns that forking a threaded process may deadlock.
            warnings.filterwarnings("ignore", "This process .* is multi-threaded")
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if solution_bits(solve_nash(m, ad=ad)) == want else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60.0
        while not (done := os.waitpid(pid, os.WNOHANG))[0] and time.monotonic() < deadline:
            time.sleep(0.02)
        if not done[0]:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the fork child did not finish its solve within 60 s")
        assert os.waitstatus_to_exitcode(done[1]) == 0


@st.composite
def lockstep_markets(draw):
    """A random market with 3 to 6 agents, so that Newton starts from the
    centre and the corners of the individually rational box."""
    return random_market(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
        n_agents=draw(st.integers(3, 6)),
        n_states=draw(st.integers(2, 300)),
        tilt_scale=draw(st.sampled_from([0.3, 1.0, 3.0])),
    )


def assert_lockstep_matches_alone(m):
    """Every Newton start solved in the stack reaches the point, the trace and
    the ``(u, y)`` it reaches solved alone, bit for bit, and the stacked
    agent values and valuation weights are ``cara_utility``'s and
    ``normalize_log_density``'s."""
    ad = solve_arrow_debreu(m)
    starts = nash._starts(m, ad)
    eps_target = 1e-12 * max(1.0, m.delta_total)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = nash._newton(m, ad, starts, eps_target)
        for k, (z, e, trace) in enumerate(stacked):
            ((z_alone, e_alone, trace_alone),) = nash._newton(m, ad, starts[k : k + 1], eps_target)
            assert np.array_equal(z, z_alone) and trace == trace_alone
            assert np.array_equal(e.u, e_alone.u) and np.array_equal(e.y, e_alone.y)
            for i, agent in enumerate(m.agents):
                assert e.values[i] == cara_utility(agent, RandomVariable(m.space, e.sec[i]))
            assert np.array_equal(e.q, normalize_log_density(ad.pricing, -e.y).weights)


class TestLockstepStarts:
    @given(market=lockstep_markets())
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_stack_matches_each_start_alone(self, market):
        assert_lockstep_matches_alone(market)

    @pytest.mark.parametrize("trial", [(7, 9, 0), (7, 9, 3), (7, 9, 53), (2026, 7, 12)])
    def test_stress_markets(self, trial):
        assert_lockstep_matches_alone(stress_market(*trial))

    @pytest.mark.parametrize("trial", [2, 8, 21, 28, 46])
    def test_extreme_markets(self, trial):
        assert_lockstep_matches_alone(extreme_market(trial))

    def test_more_states_than_numpy_buffers(self):
        """Past numpy's 8,192-element buffer a stacked reduction can depend
        on the stack height; the starts must not."""
        m = random_market(np.random.default_rng(1), n_agents=3, n_states=9_000)
        assert_lockstep_matches_alone(m)

    @pytest.mark.parametrize("per_chunk", [1, 2])
    def test_chunks_match_one_stack(self, monkeypatch, per_chunk):
        """Starts run in chunks under ``STACK_BUDGET`` reach, byte for byte,
        what they reach in one lockstep stack, on more states than numpy buffers."""
        m = random_market(np.random.default_rng(1), n_agents=3, n_states=9_000)
        ad = solve_arrow_debreu(m)
        newton, sizes = nash._newton, []
        monkeypatch.setattr(nash, "_newton", lambda *a: sizes.append(len(a[2])) or newton(*a))
        monkeypatch.setattr(nash, "STACK_BUDGET", 10**9)
        whole = solve_nash(m, ad=ad)
        monkeypatch.setattr(nash, "STACK_BUDGET", per_chunk * m.n_agents * m.space.n_states)
        chunked = solve_nash(m, ad=ad)
        assert sizes == [4] + [per_chunk] * (4 // per_chunk)

        def arrays(eq):
            return [a.tobytes() for a in (eq.z, *eq.all_roots, eq.log_ratios, eq.pricing.weights)]

        assert arrays(chunked) == arrays(whole)

    @pytest.mark.parametrize("per_chunk", [1, 2])
    def test_chunks_fail_with_the_diagnostics_of_one_stack(self, monkeypatch, per_chunk):
        """A market that no start solves raises the same ``SolverError``, with
        the same diagnostics, whether its starts run in chunks or in one stack."""
        m = hedge_market(11, 301)

        def failure():
            with pytest.raises(SolverError) as err:
                solve_nash(m)
            return str(err.value), json.dumps(err.value.diagnostics, sort_keys=True)

        monkeypatch.setattr(nash, "STACK_BUDGET", 10**9)
        whole = failure()
        monkeypatch.setattr(nash, "STACK_BUDGET", per_chunk * m.n_agents * m.space.n_states)
        assert failure() == whole


class TestRootBookkeeping:
    def test_merges_near_ends_keeps_distinct_roots_and_skips_failed_starts(self, monkeypatch):
        """Fabricated ends beside the real ones: one 1e-9 from the root merges
        into it, an evaluated point off the root within a raised
        ``DISTANCE_RTOL`` is the second root, and a start that could not be
        solved is skipped."""
        m = random_market(np.random.default_rng(3), n_agents=3, n_states=100)
        ad = solve_arrow_debreu(m)
        ends = nash._newton(m, ad, nash._starts(m, ad), 1e-12 * max(1.0, m.delta_total))
        root = solve_nash(m, ad=ad).z
        _, e_root, trace = ends[0]
        z_off = root + np.array([0.02, -0.01, -0.01])
        e_off = _evaluate_one(m, ad, z_off)
        off_distance = _distance_from_prices(m, e_off.prices)
        assert 1e-10 * m.delta_total < off_distance < np.inf
        fabricated = [
            (root + np.array([1e-9, -1e-9, 0.0]), e_root, trace),
            (z_off, e_off, [float(np.max(np.abs(e_off.residual)))]),
            (np.zeros(3), None, [np.inf]),
        ]
        monkeypatch.setattr(nash, "_newton", lambda *a: ends + fabricated)
        monkeypatch.setattr(nash, "DISTANCE_RTOL", 2.0 * off_distance / m.delta_total)
        eq = solve_nash(m, ad=ad)
        assert len(eq.all_roots) == 2
        assert np.array_equal(eq.z, root) and np.array_equal(eq.all_roots[0], root)
        assert np.array_equal(eq.all_roots[1], z_off)
        assert np.max(np.abs(e_root.prices)) < np.max(np.abs(e_off.prices))


def _market_and_starts():
    """A 3-agent market, its competitive benchmark, its Newton starts, the
    outer target, and each start searched alone."""
    m = random_market(np.random.default_rng(3), n_agents=3, n_states=100)
    ad = solve_arrow_debreu(m)
    starts = nash._starts(m, ad)
    eps_target = 1e-12 * max(1.0, m.delta_total)
    alone = [nash._newton(m, ad, starts[j : j + 1], eps_target)[0] for j in range(len(starts))]
    return m, ad, starts, eps_target, alone


def assert_others_match_alone(ends, alone, k):
    for j, (z, e, trace) in enumerate(ends):
        if j != k:
            assert np.array_equal(z, alone[j][0]) and trace == alone[j][2]
            assert np.array_equal(e.u, alone[j][1].u)


class TestStartRecord:
    """The transitions of one Newton start in the lockstep search."""

    def test_steps_fall_back_per_matrix_on_a_singular_one(self):
        """A stack whose middle matrix is exactly singular is solved matrix by
        matrix: that entry has no step, and each other step is the zero-sum
        step of its matrix solved alone, bit for bit."""
        jac = np.array(
            [
                [[5.0, 1.0], [2.0, 1.0], [1.0, 3.0]],
                [[0.3, 0.7], [1.0, 2.0], [2.0, 4.0]],
                [[1.0, -2.0], [-1.5, 0.5], [0.25, 2.0]],
            ]
        )
        rhs = np.array([[0.1, -0.4, 0.3], [1.0, 2.0, -3.0], [-0.2, 0.7, -0.5]])
        first, none, last = nash._steps(jac, rhs)
        assert none is None
        for k, step in ((0, first), (2, last)):
            alone = np.linalg.solve(jac[k, 1:], -rhs[k, 1:])
            assert np.array_equal(step[1:], alone)
            assert step[0] == -alone.sum()
            assert abs(step.sum()) <= 1e-15 * np.max(np.abs(step))

    @pytest.mark.parametrize("k", [0, 2])
    def test_no_step_moves_a_start_to_its_price_step(self, monkeypatch, k):
        """A start that gets no step on ``F`` at its first point ends its search
        there and takes its price step from that point in the next round."""
        m, ad, starts, eps_target, alone = _market_and_starts()
        first = _evaluate_one(m, ad, starts[k])
        steps, rhs_seen = nash._steps, []

        def no_first_step(jac, rhs):
            out = steps(jac, rhs)
            if not rhs_seen:
                out[k] = None
            rhs_seen.append(rhs)
            return out

        monkeypatch.setattr(nash, "_steps", no_first_step)
        ends = nash._newton(m, ad, starts, eps_target)
        assert ends[k][2] == [float(np.max(np.abs(first.residual)))]
        assert any(np.array_equal(row, first.prices) for row in rhs_seen[1])
        assert_others_match_alone(ends, alone, k)

    @pytest.mark.parametrize("k", [0, 2])
    def test_unsolvable_first_point_leaves_its_start(self, monkeypatch, k):
        """A start whose first point cannot be solved stays there with trace
        ``[inf]`` and is never evaluated again; every other start still
        reaches what it reaches alone."""
        m, ad, starts, eps_target, alone = _market_and_starts()
        evaluate, sizes = nash._evaluate, []

        def first_fails(*a):
            out = evaluate(*a)
            if not sizes:
                out[k] = None
            sizes.append(len(out))
            return out

        monkeypatch.setattr(nash, "_evaluate", first_fails)
        ends = nash._newton(m, ad, starts, eps_target)
        z, e, trace = ends[k]
        assert np.array_equal(z, starts[k]) and e is None and trace == [np.inf]
        assert all(size < len(starts) for size in sizes[1:])
        assert_others_match_alone(ends, alone, k)

    @pytest.mark.parametrize("k", [0, 2])
    def test_failed_trial_point_halves_its_step(self, monkeypatch, k):
        """A trial point whose inner solve does not converge is not redone: with
        start ``k`` entering its first warm round at ``u = y = 800``, whose
        first step overflows, its next trial point is its point plus half the
        step, it still ends at the root it reaches alone, within the radius
        that merges ends, and every other start reaches what it reaches alone."""
        m, ad, starts, eps_target, alone = _market_and_starts()
        inner, tried = nash._inner_log_ratios, []

        def far_first_warm_round(market, ad, z, start, ws):
            if start is not None:
                if not tried:
                    u, y = list(start[0]), list(start[1])
                    u[k], y[k] = np.full_like(u[k], 800.0), np.full_like(y[k], 800.0)
                    start = (u, y)
                tried.append(z.copy())
            return inner(market, ad, z, start, ws)

        monkeypatch.setattr(nash, "_inner_log_ratios", far_first_warm_round)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ends = nash._newton(m, ad, starts, eps_target)
        assert len(tried[0]) == len(tried[1]) == len(starts)  # every start tries a point
        step = tried[0][k] - starts[k]
        scale = 4.0 * np.finfo(float).eps * np.max(np.abs(tried[0][k]) + np.abs(starts[k]))
        assert np.all(np.abs(tried[1][k] - (starts[k] + 0.5 * step)) <= scale)
        z, e, _ = ends[k]
        z_alone = alone[k][0]
        assert _distance_from_prices(m, e.prices) <= nash.DISTANCE_RTOL * m.delta_total
        assert np.max(np.abs(z - z_alone)) <= 1e-7 * (1.0 + np.max(np.abs(z_alone)))
        assert_others_match_alone(ends, alone, k)


def _failing_kernel(monkeypatch, entry=None):
    """Make the inner solve's kernel fail: raise ``SolverError`` on every call,
    or, with ``entry``, return for that entry of each stack that has it a cold
    start whose first step overflows, so that it never converges within
    ``INNER_MAX_ITER`` passes."""
    kernel = nash.solve_exp_linear

    def failing(dminus, deltas, rhs):
        if entry is None:
            raise SolverError("kernel failed")
        u = kernel(dminus, deltas, rhs)
        if len(u) > entry:
            u[entry] += 1e3  # expm1 overflows on the first step
        return u

    monkeypatch.setattr(nash, "solve_exp_linear", failing)


class TestInnerSolveFailure:
    """A failed inner solve marks its own entry and ends in a SolverError,
    never in a NaN or an exception of another type."""

    @pytest.mark.parametrize("entry", [None, 0, 2], ids=["kernel-raises", "entry-0", "entry-2"])
    def test_evaluate_marks_failed_entries_and_keeps_the_rest(self, monkeypatch, entry):
        m = random_market(np.random.default_rng(3), n_agents=3, n_states=100)
        ad = solve_arrow_debreu(m)
        z = nash._starts(m, ad)
        alone = [
            nash._evaluate(m, ad, z[j : j + 1], None, used_workspace(m, 1))[0]
            for j in range(len(z))
        ]
        _failing_kernel(monkeypatch, entry)
        out = nash._evaluate(m, ad, z, None, used_workspace(m, len(z)))
        assert len(out) == len(z)
        for j, (e, e_alone) in enumerate(zip(out, alone)):
            if entry is None or j == entry:
                assert e is None
            else:
                for field in e._fields:
                    assert np.array_equal(getattr(e, field), getattr(e_alone, field)), field

    @pytest.mark.parametrize("entry", [None, 0], ids=["kernel-raises", "overflowing-start"])
    @pytest.mark.parametrize("public", [phi_map, nash_distance])
    def test_public_maps_raise_solver_error_carrying_z(self, monkeypatch, entry, public):
        m = random_market(np.random.default_rng(3), n_agents=3, n_states=100)
        ad = solve_arrow_debreu(m)
        z = np.array([0.01, -0.02, 0.01])
        _failing_kernel(monkeypatch, entry)
        with pytest.raises(SolverError) as err:
            public(m, ad, z)
        assert err.value.diagnostics == {"z": z.tolist()}

    @pytest.mark.parametrize(
        "n_agents, entry", [(3, None), (2, 0)], ids=["kernel-raises", "overflowing-start"]
    )
    def test_solve_nash_raises_with_one_trace_per_start(self, monkeypatch, n_agents, entry):
        m = random_market(np.random.default_rng(3), n_agents=n_agents, n_states=100)
        ad = solve_arrow_debreu(m)
        starts = nash._starts(m, ad)
        _failing_kernel(monkeypatch, entry)
        with pytest.raises(SolverError) as err:
            solve_nash(m, ad=ad)
        diag = err.value.diagnostics
        assert len(diag["residual_traces"]) == len(starts)
        assert all(trace == [np.inf] for trace in diag["residual_traces"])
        assert diag["best_distance"] == np.inf
        assert np.all(np.isfinite(diag["best_z"]))
        assert any(np.array_equal(diag["best_z"], s) for s in starts)
