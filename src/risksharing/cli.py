"""Command-line interface.

Subcommands: ``ad``, ``nash``, ``best-response``, ``limits``, ``verify``,
``replicate``.  Every solve prints a human-readable table and writes a
machine-readable JSON bundle; ``verify`` re-runs the residual ledger on a
stored bundle.

Exit codes: 0 solved and certified, 2 solved but some residual exceeded its
tolerance, 3 validation error, 4 solver failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .arrow_debreu import solve_arrow_debreu
from .best_response import solve_best_response
from .bundle import (
    ad_ledger,
    ad_to_dict,
    assemble_bundle,
    br_ledger,
    limits_ledger,
    market_to_dict,
    nash_ledger,
    nash_to_dict,
    read_bundle,
    verify_bundle,
    write_bundle,
)
from .diagnostics import compute_diagnostics
from .errors import SolverError, ValidationError
from .limits import both_limit_check, limiting_gains, one_agent_limit_report
from .measures import RandomVariable, expect, relative_entropy
from .nash import solve_nash
from .scenario import Scenario, _evaluate, build_market, builtin_scenario, load_scenario

EXIT_OK = 0
EXIT_RESIDUALS = 2
EXIT_VALIDATION = 3
EXIT_SOLVER = 4


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    states = dict(scenario.states)
    solver = dict(scenario.solver)
    if getattr(args, "quadrature_order", None) is not None:
        states["quadrature_order"] = args.quadrature_order
        states.pop("samples", None)
    if getattr(args, "samples", None) is not None:
        states["samples"] = args.samples
    if getattr(args, "seed", None) is not None:
        states["seed"] = args.seed
    if getattr(args, "tol", None) is not None:
        solver["tol"] = args.tol
    return Scenario(
        name=scenario.name,
        states=states,
        agents=scenario.agents,
        solver=solver,
        limits=scenario.limits,
    )


def _load(args) -> Scenario:
    scenario = load_scenario(args.scenario)
    return _apply_overrides(scenario, args)


def _histograms(args, market, variables, payoffs) -> dict:
    """Binned masses of requested expressions under the available measures."""
    exprs = getattr(args, "hist", None) or []
    if not exprs:
        return {}
    bins = getattr(args, "bins", None) or 50
    ns = dict(variables)
    space = market.space
    for name, values in payoffs.get("payoffs", {}).items():
        ns[name] = RandomVariable(space, values)
    out = {}
    for expr in exprs:
        values = _evaluate(expr, ns, space.n_states)
        lo, hi = float(values.min()), float(values.max())
        if hi <= lo:
            hi = lo + 1.0
        edges = np.linspace(lo, hi, int(bins) + 1)
        idx = np.clip(np.digitize(values, edges) - 1, 0, int(bins) - 1)
        per_measure = {}
        for mname, weights in payoffs.get("measures", {}).items():
            mass = np.zeros(int(bins))
            np.add.at(mass, idx, weights)
            width = edges[1] - edges[0]
            per_measure[mname] = {
                "mass": mass.tolist(),
                "density": (mass / width).tolist(),
            }
        out[expr] = {"edges": edges.tolist(), "measures": per_measure}
    return out


def _print_table(title: str, rows) -> None:
    print(title)
    for label, value in rows:
        if isinstance(value, float):
            print(f"  {label:<34} {value: .12g}")
        else:
            print(f"  {label:<34} {value}")


def _print_ledger(ledger) -> None:
    print("residual ledger")
    for e in ledger:
        status = "pass" if e["pass"] else "FAIL"
        rel = "<=" if e["kind"] == "max" else ">="
        print(
            f"  [{status}] {e['name']:<28} {e['value']: .3e}  ({rel} {e['tolerance']:g})"
        )


def _finish(args, scenario, sections, ledger, info, default_out):
    doc = assemble_bundle(scenario, sections, ledger, info)
    out = getattr(args, "out", None) or default_out
    write_bundle(doc, out)
    _print_ledger(ledger)
    print(f"bundle: {out}")
    return EXIT_OK if doc["certified"] else EXIT_RESIDUALS


def _measures_for(market, ad=None, eq=None, br=None, br_agent=None):
    measures = {"baseline": market.space.baseline_weights}
    for k, agent in enumerate(market.agents):
        measures[f"beliefs_{k}"] = agent.beliefs.weights
    payoffs = {}
    if ad is not None:
        measures["ad_pricing"] = ad.pricing.weights
        for k, c in enumerate(ad.securities):
            payoffs[f"CSTAR{k}"] = c.values
    if eq is not None:
        measures["nash_pricing"] = eq.pricing.weights
        for k, m in enumerate(eq.revealed):
            measures[f"nash_revealed_{k}"] = m.weights
        for k, c in enumerate(eq.securities):
            payoffs[f"C{k}"] = c.values
    if br is not None:
        measures[f"br_reported_{br_agent}"] = br.reported.weights
        measures[f"br_valuation_{br_agent}"] = br.valuation.weights
        payoffs[f"CR{br_agent}"] = br.security.values
    return {"measures": measures, "payoffs": payoffs}


def run_ad(args, scenario: Scenario) -> int:
    market, variables, info = build_market(scenario)
    ad = solve_arrow_debreu(market)
    ledger = ad_ledger(market, ad)
    _print_table(
        f"competitive equilibrium: {scenario.name}",
        [("states", market.space.n_states), ("agents", market.n_agents)]
        + [(f"gain_{i}", g) for i, g in enumerate(ad.agent_gains)]
        + [("aggregate_gain", ad.aggregate_gain)],
    )
    sections = {
        "market": market_to_dict(market),
        "ad": ad_to_dict(ad),
        "histograms": _histograms(args, market, variables, _measures_for(market, ad=ad)),
    }
    return _finish(args, scenario, sections, ledger, info, f"{scenario.name}.ad.json")


def run_nash(args, scenario: Scenario) -> int:
    market, variables, info = build_market(scenario)
    ad = solve_arrow_debreu(market)
    eq = solve_nash(market, ad=ad, tol=scenario.solver.get("tol"))
    diag = compute_diagnostics(market, ad, eq)
    ledger = nash_ledger(market, ad, eq)
    rows = [
        ("states", market.space.n_states),
        ("agents", market.n_agents),
        ("distance", eq.distance),
        ("aggregate_gain_competitive", ad.aggregate_gain),
        ("aggregate_value_game", eq.aggregate_value),
        ("efficiency_loss", diag.efficiency_loss),
    ]
    for i in range(market.n_agents):
        rows.append((f"z_{i}", float(eq.z[i])))
    for i in range(market.n_agents):
        rows.append((f"value_{i} (vs {ad.agent_gains[i]:.6g})", eq.agent_values[i]))
    if len(eq.all_roots) > 1:
        rows.append(("distinct_roots_found", len(eq.all_roots)))
    _print_table(f"risk-sharing game equilibrium: {scenario.name}", rows)
    sections = {
        "market": market_to_dict(market),
        "ad": ad_to_dict(ad),
        "nash": nash_to_dict(eq),
        "diagnostics": {
            "efficiency_loss": diag.efficiency_loss,
            "per_agent_delta": list(diag.per_agent_delta),
            "alpha_weights": list(diag.alpha_weights),
            "entropy_terms": list(diag.entropy_terms),
            "undervaluation": list(diag.undervaluation),
            "belief_distance": list(diag.belief_distance),
            "marginal_prices": list(diag.marginal_prices),
            "residuals": diag.residuals,
        },
        "histograms": _histograms(
            args, market, variables, _measures_for(market, ad=ad, eq=eq)
        ),
    }
    return _finish(args, scenario, sections, ledger, info, f"{scenario.name}.nash.json")


def run_best_response(args, scenario: Scenario) -> int:
    market, variables, info = build_market(scenario)
    i = int(args.agent)
    if not (0 <= i < market.n_agents):
        raise ValidationError(f"agent index {i} out of range")
    if args.truthful_others:
        reports = [market.agents[j].beliefs for j in range(market.n_agents) if j != i]
        mode = "truthful"
    else:
        eq = solve_nash(market)
        reports = [eq.revealed[j] for j in range(market.n_agents) if j != i]
        mode = "nash-revealed"
    br = solve_best_response(market, i, reports)
    ledger = br_ledger(market, i, br, reports)
    _print_table(
        f"best probability response: {scenario.name}, agent {i} vs {mode} reports",
        [
            ("states", market.space.n_states),
            ("response_value", br.response_value),
            ("zeta", br.zeta),
            ("security_min", float(br.security.values.min())),
            ("security_max", float(br.security.values.max())),
            ("price_under_valuation", expect(br.valuation, br.security)),
        ],
    )
    sections = {
        "market": market_to_dict(market),
        "best_response": {
            "agent": i,
            "others_mode": mode,
            "others_reports": [m.weights.tolist() for m in reports],
            "reported": br.reported.weights.tolist(),
            "security": br.security.values.tolist(),
            "valuation": br.valuation.weights.tolist(),
            "zeta": br.zeta,
            "response_value": br.response_value,
            "log_ratio": np.asarray(br.log_ratio).tolist(),
        },
        "histograms": _histograms(
            args, market, variables, _measures_for(market, br=br, br_agent=i)
        ),
    }
    return _finish(args, scenario, sections, ledger, info, f"{scenario.name}.br.json")


def run_limits(args, scenario: Scenario) -> int:
    market, variables, info = build_market(scenario)
    if market.n_agents != 2:
        raise ValidationError("limit analysis needs a two-agent scenario")
    cfg = dict(scenario.limits or {})
    deltas = [float(d) for d in (args.deltas or cfg.get("deltas") or [1e2, 1e3, 1e4, 1e5])]
    mode = cfg.get("mode", "one-agent")
    if mode == "both":
        space = market.space
        xi0 = RandomVariable(space, _evaluate(cfg["xi0"], variables, space.n_states))
        xi1 = RandomVariable(space, _evaluate(cfg["xi1"], variables, space.n_states))
        table = both_limit_check(xi0, xi1, float(cfg.get("lambda0", 0.5)), deltas)
        payload = {
            "mode": "both",
            "table": [list(r) for r in table],
            "root_residual": 0.0,
            "accounting_residual": 0.0,
        }
        rows = [("delta  dist_competitive  dist_half_law", "")]
        rows += [(f"{d:>10.4g}", f"{a:.3e}  {b:.3e}") for d, a, b in table]
    else:
        p0 = market.agents[0].beliefs
        agent1 = market.agents[1]
        report = one_agent_limit_report(p0, agent1, deltas)
        z_inf, c_inf, q_inf = report.z_infinity, report.limiting_nash_security, report.limiting_pricing
        root_resid = abs(
            float(np.dot(p0.weights, 1.0 / (1.0 + c_inf.values / agent1.delta))) - 1.0
        )
        gain0, loss1 = limiting_gains(p0, agent1)
        accounting = abs(z_inf - (gain0 + agent1.delta * relative_entropy(p0, q_inf)))
        payload = {
            "mode": "one-agent",
            "z_infinity": z_inf,
            "ad_security": report.limiting_ad_security.values.tolist(),
            "nash_security": c_inf.values.tolist(),
            "pricing": q_inf.weights.tolist(),
            "gain_agent0": report.gain_agent0,
            "loss_agent1": report.loss_agent1,
            "table": [list(r) for r in report.convergence_table],
            "root_residual": root_resid,
            "accounting_residual": accounting,
        }
        rows = [
            ("z_infinity", z_inf),
            ("gain_agent0", report.gain_agent0),
            ("loss_agent1", report.loss_agent1),
        ]
        rows += [
            (f"delta0={d:>10.4g}", f"dist_ad={a:.3e}  dist_game={b:.3e}")
            for d, a, b in report.convergence_table
        ]
    ledger = limits_ledger(payload)
    _print_table(f"extreme-risk-tolerance analysis: {scenario.name}", rows)
    sections = {"market": market_to_dict(market), "limits": payload}
    return _finish(args, scenario, sections, ledger, info, f"{scenario.name}.limits.json")


def run_verify(args) -> int:
    doc = read_bundle(args.bundle)
    ledger = verify_bundle(doc)
    _print_ledger(ledger)
    ok = all(e["pass"] for e in ledger)
    print("certified" if ok else "NOT certified: residuals exceeded")
    return EXIT_OK if ok else EXIT_RESIDUALS


def run_replicate(args) -> int:
    scenario = _apply_overrides(builtin_scenario(args.name), args)
    if scenario.name in ("limit-one-agent", "limit-both"):
        args.deltas = getattr(args, "deltas", None)
        return run_limits(args, scenario)
    if scenario.name == "example-2.7":
        # Figure data: the reported densities of the endowments and the
        # post-trade position densities need both the single-strategic-agent
        # response and the full game.
        market, variables, info = build_market(scenario)
        ad = solve_arrow_debreu(market)
        reports = [market.agents[j].beliefs for j in range(market.n_agents) if j != 0]
        br = solve_best_response(market, 0, reports)
        eq = solve_nash(market, ad=ad)
        diag = compute_diagnostics(market, ad, eq)
        ledger = nash_ledger(market, ad, eq) + br_ledger(market, 0, br, reports)
        payoff_ns = _measures_for(market, ad=ad, eq=eq, br=br, br_agent=0)
        if not getattr(args, "hist", None):
            args.hist = ["E0", "E1", "E0 + CSTAR0", "E0 + CR0", "E0 + C0"]
        hists = _histograms(args, market, variables, payoff_ns)
        _print_table(
            "replicate example-2.7",
            [
                ("states", market.space.n_states),
                ("response_value_agent0", br.response_value),
                ("game_value_agent0", eq.agent_values[0]),
                ("competitive_gain_agent0", ad.agent_gains[0]),
                ("efficiency_loss", diag.efficiency_loss),
            ],
        )
        sections = {
            "market": market_to_dict(market),
            "ad": ad_to_dict(ad),
            "nash": nash_to_dict(eq),
            "best_response": {
                "agent": 0,
                "others_mode": "truthful",
                "others_reports": [m.weights.tolist() for m in reports],
                "reported": br.reported.weights.tolist(),
                "security": br.security.values.tolist(),
                "valuation": br.valuation.weights.tolist(),
                "zeta": br.zeta,
                "response_value": br.response_value,
                "log_ratio": np.asarray(br.log_ratio).tolist(),
            },
            "diagnostics": {"residuals": diag.residuals},
            "histograms": hists,
        }
        return _finish(args, scenario, sections, ledger, info, f"{scenario.name}.json")
    return run_nash(args, scenario)


def _add_common(p, scenario_arg=True):
    if scenario_arg:
        p.add_argument("scenario", help="path to a scenario YAML/JSON file")
    p.add_argument("--tol", type=float, default=None, help="equilibrium distance tolerance")
    p.add_argument("--seed", type=int, default=None, help="override the sampling seed")
    p.add_argument(
        "--quadrature-order", type=int, default=None, dest="quadrature_order"
    )
    p.add_argument("--samples", type=int, default=None, help="Monte Carlo sample count")
    p.add_argument(
        "--hist",
        action="append",
        default=None,
        metavar="EXPR",
        help="emit binned pdf data for this state expression (repeatable)",
    )
    p.add_argument("--bins", type=int, default=None, help="histogram bin count")
    p.add_argument("--out", default=None, help="bundle output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risksharing",
        description="Competitive and game-theoretic risk-sharing equilibria for CARA agents",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ad", help="solve the competitive (price-taking) equilibrium")
    _add_common(p)

    p = sub.add_parser("nash", help="solve the risk-sharing game and run diagnostics")
    _add_common(p)

    p = sub.add_parser("best-response", help="one agent's optimal reported beliefs")
    _add_common(p)
    p.add_argument("--agent", type=int, required=True, help="strategic agent index")
    p.add_argument(
        "--truthful-others",
        action="store_true",
        help="counterparties report their actual beliefs (default: game-revealed reports)",
    )

    p = sub.add_parser("limits", help="extreme-risk-tolerance limit analysis")
    _add_common(p)
    p.add_argument(
        "--deltas",
        type=lambda s: [float(x) for x in s.split(",")],
        default=None,
        help="comma-separated risk-tolerance grid",
    )

    p = sub.add_parser("verify", help="re-run the residual ledger on a stored bundle")
    p.add_argument("bundle", help="path to a bundle JSON file")

    p = sub.add_parser("replicate", help="run a built-in scenario")
    p.add_argument(
        "name",
        choices=["example-2.7", "beta-symmetric", "example-3.9", "limit-one-agent", "limit-both"],
    )
    _add_common(p, scenario_arg=False)
    p.add_argument("--deltas", type=lambda s: [float(x) for x in s.split(",")], default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return run_verify(args)
        if args.command == "replicate":
            return run_replicate(args)
        scenario = _load(args)
        if args.command == "ad":
            return run_ad(args, scenario)
        if args.command == "nash":
            return run_nash(args, scenario)
        if args.command == "best-response":
            return run_best_response(args, scenario)
        if args.command == "limits":
            return run_limits(args, scenario)
        raise ValidationError(f"unknown command {args.command!r}")
    except (ValidationError, OSError, KeyError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        if exc.diagnostics:
            print(f"diagnostics: {exc.diagnostics}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
