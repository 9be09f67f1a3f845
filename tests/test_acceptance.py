"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.

One assertion is expected to fail: criterion 3's reference box.  The
three-agent scenario's solved transfers are certified as an equilibrium of
the built market, but they do not lie near the transfer vector quoted with
the scenario.  The scenario's correlation matrix is not positive
semi-definite, so its data may be at fault; the assertion is kept as stated
until the paper's text can settle it.  Criterion 8 checks the counterparty
tilt that the best response's first-order condition gives for the strategic
report in the two-agent figure scenario.  Comparing it with the paper's own
figure needs the paper's text, which the repository does not hold.
"""

import hashlib
import math
import time

import numpy as np
from helpers import beta_market, common_beliefs_market, gaussian_pair_space, random_market
from risksharing import (
    Agent,
    Market,
    Measure,
    StateSpace,
    RandomVariable,
    both_limit_check,
    compute_diagnostics,
    endowment_to_beliefs,
    limiting_gains,
    limiting_nash,
    nash_distance,
    normalize_log_density,
    one_agent_limit_report,
    relative_entropy,
    response_value,
    solve_arrow_debreu,
    solve_best_response,
    solve_nash,
)
from risksharing.scenario import BUILTIN_SCENARIOS, Scenario, build_market


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_no_trade_law():
    """Common beliefs: both solvers return zero securities and transfers."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_sec, worst_z = 0.0, 0.0
    for _ in range(20):
        market = common_beliefs_market(rng)
        ad = solve_arrow_debreu(market)
        eq = solve_nash(market, ad=ad)
        worst_sec = max(
            worst_sec,
            float(np.max(np.abs(ad.security_values()))),
            float(np.max(np.abs(eq.security_values()))),
        )
        worst_z = max(worst_z, float(np.max(np.abs(eq.z))))
    elapsed = time.perf_counter() - start
    ok = worst_sec <= 1e-9 and worst_z <= 1e-9 and elapsed < 5.0
    report(
        1,
        ok,
        f"no-trade law on 20 common-beliefs markets: sup|C|={worst_sec:.2e}, "
        f"sup|z|={worst_z:.2e}, {elapsed:.2f}s",
    )
    assert worst_sec <= 1e-9
    assert worst_z <= 1e-9
    assert elapsed < 5.0


def test_criterion_2_symmetric_tilt_example():
    """Symmetric two-agent market at tilt scales 1 and 5."""
    start = time.perf_counter()
    market, x = beta_market(1.0, order=64)
    ad = solve_arrow_debreu(market)
    gain_err = abs(ad.agent_gains[0] - 0.5)
    eq = solve_nash(market, ad=ad)
    u0, u1 = eq.log_ratios
    c0 = eq.securities[0].values
    # Two-agent per-state relation, evaluated with the solution-space log
    # ratios (recomputing logs from float payoffs is ill-conditioned where
    # payoffs saturate their bounds).
    resid = float(
        np.max(np.abs(c0 + 0.5 * (u0 - u1) - (eq.z[0] + ad.securities[0].values)))
    )
    z_err = abs(float(eq.z[0]))

    market5, _ = beta_market(5.0, order=64)
    eq5 = solve_nash(market5)
    v0, v1 = eq5.log_ratios
    # C in (-1, 1) per state: finite log ratio (> -1) and below log 2 (< 1).
    in_bounds = bool(
        np.all(np.isfinite(v0))
        and np.all(np.isfinite(v1))
        and np.all(v0 < math.log(2.0))
        and np.all(v1 < math.log(2.0))
    )
    value5 = eq5.agent_values[0]
    elapsed = time.perf_counter() - start
    ok = (
        gain_err <= 1e-6
        and resid <= 1e-10
        and z_err <= 1e-8
        and in_bounds
        and 0.9 < value5 < 1.0
        and elapsed < 2.0
    )
    report(
        2,
        ok,
        f"symmetric tilt: |gain-0.5|={gain_err:.1e}, relation resid={resid:.1e}, "
        f"|z0|={z_err:.1e}, bounds@5={in_bounds}, value@5={value5:.6f}, {elapsed:.2f}s",
    )
    assert gain_err <= 1e-6
    assert resid <= 1e-10
    assert z_err <= 1e-8
    assert in_bounds
    assert 0.9 < value5 < 1.0
    assert elapsed < 2.0


def test_criterion_3_three_agent_reference_point():
    """Three correlated agents: solved transfers against the documented
    reference point (0.14, -0.7, 0.56).

    The solved transfers are certified as an equilibrium of the built market
    by zero distance and by the per-agent best responses, which reproduce
    the revealed beliefs without using the transfer map.  They sit at a
    different location from the reference, and the reference has distance
    about 0.10 on the built market.  The scenario's correlation matrix is not
    positive semi-definite, so the market is built after the ``clip`` repair
    and may differ from the one the reference was stated for.  Until the
    paper's text can settle the scenario's data, the reference-box assertion
    is kept as stated and fails.
    """
    start = time.perf_counter()
    market, _, info = build_market(Scenario.from_dict(BUILTIN_SCENARIOS["example-3.9"]))
    ad = solve_arrow_debreu(market)
    eq = solve_nash(market, ad=ad)
    distance_ok = eq.distance <= 1e-8
    gap = 0.0
    for i in range(3):
        others = [eq.revealed[j] for j in range(3) if j != i]
        br = solve_best_response(market, i, others)
        gap = max(gap, float(np.max(np.abs(br.reported.weights - eq.revealed[i].weights))))
    reference = np.array([0.14, -0.7, 0.56])
    box = float(np.max(np.abs(eq.z - reference)))
    reference_distance = nash_distance(market, ad, reference)
    elapsed = time.perf_counter() - start
    ok = box <= 0.05 and distance_ok and gap <= 1e-8 and elapsed < 60.0
    report(
        3,
        ok,
        f"three-agent scenario: z={np.round(eq.z, 4).tolist()} vs reference "
        f"{reference.tolist()} (gap {box:.3f}), distance={eq.distance:.1e}, "
        f"fixed-point gap={gap:.1e}, roots found={len(eq.all_roots)}; "
        f"covariance clipped to {info['effective_dims']} dims "
        f"(eigenvalue deficit {info['eigenvalue_deficit']:.1e}), "
        f"distance at the reference={reference_distance:.3f}, {elapsed:.1f}s",
    )
    assert distance_ok
    assert gap <= 1e-8
    assert elapsed < 60.0
    assert box <= 0.05, (
        "solved transfers are a verified equilibrium of the built market "
        "but do not match the documented reference point"
    )


def test_criterion_4_identity_suite():
    """Closed-form identities and revealed-belief bounds on random markets."""
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    worst_identity, worst_slack = 0.0, np.inf
    for _ in range(20):
        market = random_market(rng, n_agents=int(rng.integers(2, 5)))
        ad = solve_arrow_debreu(market)
        eq = solve_nash(market, ad=ad)
        diag = compute_diagnostics(market, ad, eq)
        worst_identity = max(worst_identity, diag.max_identity_residual())
        worst_slack = min(worst_slack, diag.min_bound_slack())
    elapsed = time.perf_counter() - start
    ok = worst_identity <= 1e-8 and worst_slack >= -1e-12 and elapsed < 30.0
    report(
        4,
        ok,
        f"identity suite on 20 random markets: max residual={worst_identity:.2e}, "
        f"min bound slack={worst_slack:.2e}, {elapsed:.1f}s",
    )
    assert worst_identity <= 1e-8
    assert worst_slack >= -1e-12
    assert elapsed < 30.0


def test_criterion_5_best_response_optimality():
    """Solver response beats random perturbations and a dense grid."""
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    worst_gap = -np.inf
    for _ in range(10):
        market = random_market(
            rng, n_agents=int(rng.integers(2, 4)), n_states=int(rng.integers(20, 60))
        )
        i = int(rng.integers(0, market.n_agents))
        others = [
            market.agents[j].beliefs for j in range(market.n_agents) if j != i
        ]
        br = solve_best_response(market, i, others)
        for _ in range(100):
            eps = rng.uniform(0.01, 0.5)
            noise = rng.normal(0.0, eps, market.space.n_states)
            rival = response_value(
                market, i, normalize_log_density(br.reported, noise), others
            )
            worst_gap = max(worst_gap, rival - br.response_value)

    space = StateSpace([0.35, 0.65])
    market2 = Market(
        [
            Agent(0.8, Measure(space, [0.5, 0.5])),
            Agent(1.7, Measure(space, [0.25, 0.75])),
        ]
    )
    grid_gap = -np.inf
    for i in (0, 1):
        others = [market2.agents[1 - i].beliefs]
        br = solve_best_response(market2, i, others)
        ps = np.linspace(1e-6, 1 - 1e-6, 10**4 + 1)
        best_grid = max(
            response_value(market2, i, Measure(space, [p, 1 - p]), others) for p in ps
        )
        grid_gap = max(grid_gap, best_grid - br.response_value)
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-9 and grid_gap <= 1e-9 and elapsed < 60.0
    report(
        5,
        ok,
        f"optimality: worst perturbation gain={worst_gap:.2e}, "
        f"grid gain={grid_gap:.2e}, {elapsed:.1f}s",
    )
    assert worst_gap <= 1e-9
    assert grid_gap <= 1e-9
    assert elapsed < 60.0


def test_criterion_6_definition_level_equilibrium():
    """Each revealed belief is the best response to the others' reports."""
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(5):
        market = random_market(
            rng, n_agents=int(rng.integers(2, 5)), n_states=int(rng.integers(30, 120))
        )
        eq = solve_nash(market)
        for i in range(market.n_agents):
            others = [eq.revealed[j] for j in range(market.n_agents) if j != i]
            br = solve_best_response(market, i, others)
            worst = max(
                worst, float(np.max(np.abs(br.reported.weights - eq.revealed[i].weights)))
            )
    ok = worst <= 1e-8
    report(6, ok, f"revealed beliefs are best-response fixed points: sup gap={worst:.2e}")
    assert worst <= 1e-8


def test_criterion_7_extreme_tolerance_limits():
    """Fixed two-state instance: limits, convergence, gains, half law."""
    start = time.perf_counter()
    space = StateSpace([0.6, 0.4])
    p0 = Measure(space, [0.6, 0.4])
    agent1 = Agent(1.0, Measure(space, [0.5, 0.5]))

    rep = one_agent_limit_report(p0, agent1, [1e2, 1e3, 1e4, 1e5])
    table = rep.table
    monotone = all(
        a1 < a0 and n1 < n0 for (_, a0, n0), (_, a1, n1) in zip(table, table[1:])
    )
    final_ok = table[-1][1] <= 1e-3 and table[-1][2] <= 1e-3

    _, sec, valuation = limiting_nash(p0, agent1)
    root_resid = abs(
        float(np.dot(p0.weights, 1.0 / (1.0 + sec.values / agent1.delta))) - 1.0
    )
    gain0, loss1 = limiting_gains(p0, agent1)
    accounting = abs(
        rep.z_infinity - (gain0 + agent1.delta * relative_entropy(p0, valuation))
    )
    market = Market([Agent(1e5, p0), agent1])
    ad = solve_arrow_debreu(market)
    eq = solve_nash(market, ad=ad)
    gains_gap = max(
        abs((eq.agent_values[0] - ad.agent_gains[0]) - gain0),
        abs((eq.agent_values[1] - ad.agent_gains[1]) - loss1),
    )

    space2 = StateSpace([0.5, 0.5])
    xi0 = RandomVariable(space2, [1.0, -1.0])
    xi1 = RandomVariable(space2, [-1.0, 1.0])
    both = both_limit_check(xi0, xi1, 0.5, [10.0, 100.0, 1000.0, 10**4])
    half_law = both[-1][2]

    elapsed = time.perf_counter() - start
    ok = (
        monotone
        and final_ok
        and root_resid <= 1e-10
        and accounting <= 1e-8
        and gains_gap <= 1e-2
        and half_law <= 1e-3
        and elapsed < 30.0
    )
    report(
        7,
        ok,
        f"limits: monotone={monotone}, final dist<=({table[-1][1]:.1e},{table[-1][2]:.1e}), "
        f"root={root_resid:.1e}, accounting={accounting:.1e}, gains gap={gains_gap:.1e}, "
        f"half-law={half_law:.1e}, {elapsed:.1f}s",
    )
    assert monotone and final_ok
    assert root_resid <= 1e-10
    assert accounting <= 1e-8
    assert gains_gap <= 1e-2
    assert half_law <= 1e-3
    assert elapsed < 30.0


def test_criterion_8_figure_shape_claims():
    """Reported-density and position-density direction claims.

    Two-agent Gaussian endowment scenario with ``delta = 1`` and
    ``lambda_0 = 1/2``.  The report is ``br.reported``: agent 0's best
    response to a truthful counterparty, which replaces agent 0's
    endowment-adjusted beliefs.  "True" is the baseline ``P``.  These are
    the measures that ``replicate example-2.7`` writes as the
    ``br_reported_0`` and ``baseline`` histograms.

    Three claims:

    - the report fattens agent 0's own downside (binned mass of ``E0``
      below -1);
    - the report fattens the counterparty endowment's lower tail the way the
      first-order condition says.  The report's log-ratio ``u`` solves
      ``2(exp(u) - 1) + u = zeta + E1 - E0`` per state, and
      ``dR/dP`` is proportional to ``exp(-E0 - u)``.  So
      ``log(dR/dP) + E1 = const + 2 exp(u)``, and on the states where
      ``E0 - E1 >= T`` we have ``u < zeta + 2 - T``.  There
      ``log(dR/dP) + E1`` is constant to within ``2 exp(zeta + 2 - T)``:
      the report's density grows like ``exp(-E1)`` as ``E1`` falls.  With
      ``T = 10`` and ``zeta`` about 0.37 that bound is about 1e-3, under
      the stated tolerance 1e-2, and ``E1`` spans more than 5 on those
      states, so a report that did not tilt by ``exp(-E1)`` there would
      fail;
    - the game position's mean is below the response position's.

    The binned mass of ``E1`` below -1 is printed, not asserted: the
    first-order condition fixes the tilt only where ``E1 << E0``, not the
    sign of the mass change at a finite cut.  That the report is optimal is
    certified separately by criterion 5.
    """
    space, e0, e1 = gaussian_pair_space(order=64)
    base = space.baseline()
    market = Market(
        [endowment_to_beliefs(base, e0, 1.0), endowment_to_beliefs(base, e1, 1.0)]
    )
    br = solve_best_response(market, 0, [market.agents[1].beliefs])
    eq = solve_nash(market)

    bins = 80

    def binned_mass_below(values, weights, cut):
        edges = np.linspace(values.min(), values.max(), bins + 1)
        idx = np.clip(np.digitize(values, edges) - 1, 0, bins - 1)
        mass = np.zeros(bins)
        np.add.at(mass, idx, weights)
        centers = 0.5 * (edges[:-1] + edges[1:])
        return float(mass[centers < cut].sum())

    own_true = binned_mass_below(e0.values, base.weights, -1.0)
    own_reported = binned_mass_below(e0.values, br.reported.weights, -1.0)
    other_true = binned_mass_below(e1.values, base.weights, -1.0)
    other_reported = binned_mass_below(e1.values, br.reported.weights, -1.0)

    tail = e0.values - e1.values >= 10.0
    tail_tilt = br.reported.log_density(base)[tail] + e1.values[tail]
    tail_spread = float(np.ptp(tail_tilt))
    tail_span = float(np.ptp(e1.values[tail]))

    game_position = e0.values + eq.securities[0].values
    response_position = e0.values + br.security.values
    mean_game = float(np.dot(base.weights, game_position))
    mean_response = float(np.dot(base.weights, response_position))

    own_ok = own_reported > own_true
    other_ok = tail_spread <= 1e-2 and tail_span >= 5.0
    shift_ok = mean_game < mean_response
    ok = own_ok and other_ok and shift_ok
    report(
        8,
        ok,
        f"figure shapes: own downside {own_true:.4f}->{own_reported:.4f} ({'ok' if own_ok else 'BAD'}), "
        f"counterparty tail where E0-E1>=10: log(dR/dP)+E1 spread {tail_spread:.1e} over an "
        f"E1 span of {tail_span:.1f}, zeta={br.zeta:.3f} ({'ok' if other_ok else 'BAD'}), "
        f"counterparty downside below -1 {other_true:.4f}->{other_reported:.4f} (measured), "
        f"position means game {mean_game:.4f} < response {mean_response:.4f} ({'ok' if shift_ok else 'BAD'})",
    )
    assert own_ok
    assert shift_ok
    assert tail_span >= 5.0, "too few tail states to test the counterparty tilt"
    assert tail_spread <= 1e-2, (
        "the strategic report does not tilt the counterparty endowment's "
        "lower tail by exp(-E1)"
    )


def test_criterion_9_determinism():
    """Identical seeds and scenarios reproduce results bit for bit."""

    def digest():
        h = hashlib.sha256()
        rng = np.random.default_rng(109)
        for _ in range(3):
            market = random_market(rng, n_agents=3, n_states=50)
            eq = solve_nash(market)
            h.update(eq.z.tobytes())
            h.update(eq.security_values().tobytes())
            h.update(eq.pricing.weights.tobytes())
        market, x = beta_market(1.0)
        eq = solve_nash(market)
        h.update(eq.z.tobytes())
        h.update(eq.security_values().tobytes())
        market39, _, _ = build_market(Scenario.from_dict(BUILTIN_SCENARIOS["example-3.9"]))
        eq39 = solve_nash(market39)
        h.update(eq39.z.tobytes())
        space = StateSpace([0.6, 0.4])
        rep = one_agent_limit_report(
            Measure(space, [0.6, 0.4]),
            Agent(1.0, Measure(space, [0.5, 0.5])),
            [1e2, 1e3],
        )
        h.update(np.asarray(rep.table).tobytes())
        return h.hexdigest()

    first, second = digest(), digest()
    ok = first == second
    report(9, ok, f"bitwise reproducibility: {first[:16]}... == {second[:16]}...")
    assert ok
