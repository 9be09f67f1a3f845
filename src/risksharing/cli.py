"""Command-line interface.

Subcommands: ``ad``, ``nash``, ``best-response``, ``limits``, ``verify``,
``replicate``.  Every solve prints a human-readable table and writes a
machine-readable JSON bundle; ``verify`` re-runs the residual ledger on a
stored bundle.

Exit codes: 0 solved and certified, 2 solved but some residual exceeded its
tolerance, 3 validation error (scenario, bundle or arguments), 4 solver
failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .arrow_debreu import solve_arrow_debreu
from .best_response import solve_best_response
from .bundle import (
    ad_ledger,
    assemble_bundle,
    br_ledger,
    limits_ledger,
    market_to_dict,
    nash_ledger,
    read_bundle,
    record_to_dict,
    verify_bundle,
    write_bundle,
)
from .diagnostics import compute_diagnostics
from .errors import SolverError, ValidationError
from .limits import both_limit_check, limiting_gains, one_agent_limit_report
from .measures import RandomVariable, expect
from .nash import solve_nash
from .scenario import (
    BUILTIN_SCENARIOS,
    Scenario,
    _evaluate,
    build_market,
    read_scenario,
)

EXIT_OK = 0
EXIT_RESIDUALS = 2
EXIT_VALIDATION = 3
EXIT_SOLVER = 4


def _refuse(args, flags, reader: str) -> None:
    """Refuse the first of ``flags`` given on the command line: ``reader`` does not read it."""
    for flag in flags:
        if getattr(args, flag) is not None:
            raise ValidationError(f"--{flag.replace('_', '-')} is not read by {reader}")


def _apply_overrides(doc: dict, args) -> Scenario:
    """The scenario of ``doc`` with the flags written into a copy of it, validated once."""
    doc = dict(doc)
    if isinstance(doc.get("states"), dict):
        states = doc["states"] = dict(doc["states"])
        if args.quadrature_order is not None:
            states.pop("samples", None)
            states.pop("seed", None)
        if args.samples is not None:
            states.pop("quadrature_order", None)
        for key in ("quadrature_order", "samples", "seed"):
            if getattr(args, key) is not None:
                states[key] = getattr(args, key)
    if args.command == "limits" and doc.get("limits") is None:
        doc["limits"] = {}
    if getattr(args, "deltas", None) is not None and isinstance(doc.get("limits"), dict):
        doc["limits"] = {**doc["limits"], "deltas": args.deltas}
    if getattr(args, "bins", None) is not None:
        if not args.hist:
            raise ValidationError("--bins is not read without --hist")
        if args.bins < 1:
            raise ValidationError(f"--bins must be at least 1, got {args.bins}")
    return Scenario.from_dict(doc)


def _check_hist(args, market, variables, later) -> None:
    """Refuse a bad ``--hist`` expression before the solve: each may read the
    state variables and the payoffs ``later`` that the command computes, and
    one that reads only state variables is evaluated in full."""
    for expr in args.hist or ():
        _evaluate(expr, variables, market.space.n_states, later)


def _histograms(args, market, variables, payoffs) -> dict:
    """Binned masses of requested expressions under the available measures."""
    if not args.hist:
        return {}
    bins = args.bins or 50
    ns = dict(variables)
    space = market.space
    for name, values in payoffs.get("payoffs", {}).items():
        ns[name] = RandomVariable(space, values)
    out = {}
    for expr in args.hist:
        values = _evaluate(expr, ns, space.n_states)
        lo, hi = float(values.min()), float(values.max())
        # Edges from the halves, so that `hi - lo` is never formed: it may overflow.
        edges = 2.0 * np.linspace(lo / 2, hi / 2, int(bins) + 1)
        if not np.all(np.diff(edges) > 0):
            # A constant, or a range narrower than `bins` float spacings: widen it,
            # down from `hi` where up from `lo` would pass the largest float.
            top = max(abs(lo), abs(hi))
            width = max(hi - lo, 1.0, 4.0 * int(bins) * (top - float(np.nextafter(top, 0.0))))
            lo, hi = (lo, lo + width) if lo + width < np.inf else (hi - width, hi)
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


def _finish(args, scenario, market, sections, ledger, info, kind: str):
    """Write the bundle, ``market`` section included, to ``--out`` or ``{name}.{kind}.json``."""
    sections = {"market": market_to_dict(market)} | sections
    doc = assemble_bundle(scenario, sections, ledger, info)
    out = args.out or f"{scenario.name}.{kind}.json"
    write_bundle(doc, out)
    _print_ledger(ledger)
    print(f"bundle: {out}")
    return EXIT_OK if doc["certified"] else EXIT_RESIDUALS


def _measures_for(market, ad=None, eq=None, br=None):
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
        measures[f"br_reported_{br.agent}"] = br.reported.weights
        measures[f"br_valuation_{br.agent}"] = br.valuation.weights
        payoffs[f"CR{br.agent}"] = br.security.values
    return {"measures": measures, "payoffs": payoffs}


def run_ad(args, scenario: Scenario) -> int:
    market, variables, info = build_market(scenario)
    _check_hist(args, market, variables, [f"CSTAR{k}" for k in range(market.n_agents)])
    ad = solve_arrow_debreu(market)
    ledger = ad_ledger(market, ad)
    _print_table(
        f"competitive equilibrium: {scenario.name}",
        [("states", market.space.n_states), ("agents", market.n_agents)]
        + [(f"gain_{i}", g) for i, g in enumerate(ad.agent_gains)]
        + [("aggregate_gain", ad.aggregate_gain)],
    )
    sections = {
        "ad": record_to_dict(ad),
        "histograms": _histograms(args, market, variables, _measures_for(market, ad=ad)),
    }
    return _finish(args, scenario, market, sections, ledger, info, "ad")


def run_nash(args, scenario: Scenario, br_agent: int | None = None) -> int:
    """Solve the game; with ``br_agent``, also that agent's response to truthful reports."""
    market, variables, info = build_market(scenario)
    later = [f"{name}{k}" for name in ("CSTAR", "C") for k in range(market.n_agents)]
    if br_agent is not None:
        later.append(f"CR{br_agent}")
    _check_hist(args, market, variables, later)
    ad = solve_arrow_debreu(market)
    eq = solve_nash(market, ad=ad)
    diag = compute_diagnostics(market, ad, eq)
    ledger = nash_ledger(market, ad, eq, diag)
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
    diagnostics = record_to_dict(diag)
    del diagnostics["marginal_measures"]
    sections = {
        "ad": record_to_dict(ad),
        "nash": record_to_dict(eq),
        "diagnostics": diagnostics,
    }
    br = None
    if br_agent is not None:
        reports = [a.beliefs for j, a in enumerate(market.agents) if j != br_agent]
        br = solve_best_response(market, br_agent, reports)
        ledger += br_ledger(market, br)
        sections["best_response"] = record_to_dict(br) | {"others_mode": "truthful"}
        rows.append((f"response_value_{br_agent}", br.response_value))
    _print_table(f"risk-sharing game equilibrium: {scenario.name}", rows)
    sections["histograms"] = _histograms(
        args, market, variables, _measures_for(market, ad=ad, eq=eq, br=br)
    )
    return _finish(args, scenario, market, sections, ledger, info, "nash")


def run_best_response(args, scenario: Scenario) -> int:
    market, variables, info = build_market(scenario)
    i = int(args.agent)
    if not (0 <= i < market.n_agents):
        raise ValidationError(f"agent index {i} out of range")
    _check_hist(args, market, variables, [f"CR{i}"])
    if args.truthful_others:
        reports = [market.agents[j].beliefs for j in range(market.n_agents) if j != i]
        mode = "truthful"
    else:
        eq = solve_nash(market)
        reports = [eq.revealed[j] for j in range(market.n_agents) if j != i]
        mode = "nash-revealed"
    br = solve_best_response(market, i, reports)
    ledger = br_ledger(market, br)
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
        "best_response": record_to_dict(br) | {"others_mode": mode},
        "histograms": _histograms(args, market, variables, _measures_for(market, br=br)),
    }
    return _finish(args, scenario, market, sections, ledger, info, "br")


def run_limits(args, scenario: Scenario) -> int:
    market, variables, info = build_market(scenario)
    if market.n_agents != 2:
        raise ValidationError("limit analysis needs a two-agent scenario")
    cfg = scenario.limits
    if cfg["mode"] == "both":
        space = market.space
        xi0 = RandomVariable(space, _evaluate(cfg["xi0"], variables, space.n_states))
        xi1 = RandomVariable(space, _evaluate(cfg["xi1"], variables, space.n_states))
        limit = both_limit_check(xi0, xi1, cfg["lambda0"], cfg["deltas"])
        payload = {"mode": "both", "table": [list(r) for r in limit]}
        rows = [("delta  dist_competitive  dist_half_law", "")]
        rows += [(f"{d:>10.4g}", f"{a:.3e}  {b:.3e}") for d, a, b in limit]
    else:
        p0 = market.agents[0].beliefs
        agent1 = market.agents[1]
        limit = one_agent_limit_report(p0, agent1, cfg["deltas"])
        # The report holds the same gains; this second solve of the limit
        # stays while perfbench/spans.py traces cli.limiting_gains.
        gain0, loss1 = limiting_gains(p0, agent1)
        payload = record_to_dict(limit) | {"mode": "one-agent"}
        rows = [("z_infinity", limit.z_infinity), ("gain_agent0", gain0), ("loss_agent1", loss1)]
        rows += [
            (f"delta0={d:>10.4g}", f"dist_ad={a:.3e}  dist_game={b:.3e}")
            for d, a, b in limit.table
        ]
    ledger = limits_ledger(market, limit)
    _print_table(f"extreme-risk-tolerance analysis: {scenario.name}", rows)
    return _finish(args, scenario, market, {"limits": payload}, ledger, info, "limits")


def run_verify(args) -> int:
    doc = read_bundle(args.bundle)
    ledger = verify_bundle(doc)
    _print_ledger(ledger)
    ok = all(e["pass"] for e in ledger)
    print("certified" if ok else "NOT certified: residuals exceeded")
    return EXIT_OK if ok else EXIT_RESIDUALS


def run_replicate(args) -> int:
    br_agent = None
    if args.name == "example-2.7":
        # Figure data: the densities of the endowments and of the post-trade
        # positions under the competitive equilibrium, the game and agent 0's
        # response to truthful reports.
        args.hist = args.hist or ["E0", "E1", "E0 + CSTAR0", "E0 + CR0", "E0 + C0"]
        br_agent = 0
    doc = BUILTIN_SCENARIOS[args.name]
    if doc.get("limits") is None:
        _refuse(args, ("deltas",), f"{args.name}, which has no limits section")
    scenario = _apply_overrides(doc, args)
    if scenario.limits is not None:
        _refuse(args, ("hist", "bins"), f"the limit scenario {args.name}")
        return run_limits(args, scenario)
    return run_nash(args, scenario, br_agent)


class _Parser(argparse.ArgumentParser):
    """A usage error is a validation error (exit 3), not argparse's exit 2."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def tolerance_grid(text: str) -> list:
    return [float(x) for x in text.split(",")]


def _add_common(p, scenario_arg=True, hist=True):
    """The state-model and output flags, and ``--hist``/``--bins`` where read."""
    if scenario_arg:
        p.add_argument("scenario", help="path to a scenario YAML/JSON file")
    p.add_argument("--seed", type=int, default=None, help="override the sampling seed")
    p.add_argument(
        "--quadrature-order", type=int, default=None, dest="quadrature_order"
    )
    p.add_argument("--samples", type=int, default=None, help="Monte Carlo sample count")
    if hist:
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
    parser = _Parser(
        prog="risksharing",
        description="Competitive and game-theoretic risk-sharing equilibria for CARA agents",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ad", help="solve the competitive (price-taking) equilibrium")
    _add_common(p)
    p.set_defaults(run=run_ad)

    p = sub.add_parser("nash", help="solve the risk-sharing game and run diagnostics")
    _add_common(p)
    p.set_defaults(run=run_nash)

    p = sub.add_parser("best-response", help="one agent's optimal reported beliefs")
    _add_common(p)
    p.set_defaults(run=run_best_response)
    p.add_argument("--agent", type=int, required=True, help="strategic agent index")
    p.add_argument(
        "--truthful-others",
        action="store_true",
        help="counterparties report their actual beliefs (default: game-revealed reports)",
    )

    p = sub.add_parser("limits", help="extreme-risk-tolerance limit analysis")
    _add_common(p, hist=False)
    p.set_defaults(run=run_limits)
    p.add_argument("--deltas", type=tolerance_grid, help="comma-separated risk-tolerance grid")

    p = sub.add_parser("verify", help="re-run the residual ledger on a stored bundle")
    p.add_argument("bundle", help="path to a bundle JSON file")
    p.set_defaults(run=run_verify)

    p = sub.add_parser("replicate", help="run a built-in scenario")
    p.add_argument("name", choices=list(BUILTIN_SCENARIOS))
    _add_common(p, scenario_arg=False)
    p.add_argument("--deltas", type=tolerance_grid, help="comma-separated risk-tolerance grid")
    p.set_defaults(run=run_replicate)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if "scenario" in args:
            return args.run(args, _apply_overrides(read_scenario(args.scenario), args))
        return args.run(args)
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
