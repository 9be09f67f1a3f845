"""Result bundles: serialisation, residual ledger, verification.

A bundle is one JSON document carrying the scenario echo, the solved
objects as plain arrays, a residual ledger (each entry: value, tolerance,
pass), and provenance.  Everything needed to re-run the ledger is stored,
so ``verify`` can certify a bundle without re-solving; floats are written
with full round-trip precision and keys are sorted, making bundles
byte-identical across reruns except for the provenance timestamp.
"""

from __future__ import annotations

import datetime as _dt
import json
import os

import numpy as np

from . import __version__
from .agents import Agent, Market
from .arrow_debreu import ArrowDebreuEquilibrium, solve_arrow_debreu
from .best_response import BestResponse, solve_best_response
from .diagnostics import compute_diagnostics
from .errors import ValidationError
from .measures import Measure, RandomVariable, StateSpace, relative_entropy, variance
from .nash import NashEquilibrium

SCHEMA_VERSION = 1

# kind: "max" entries pass when value <= tolerance, "slack" entries when
# value >= tolerance.
LEDGER_TOLERANCES = {
    "ad_clearing": ("max", 1e-9),
    "ad_zero_price": ("max", 1e-10),
    "ad_indifference": ("max", 1e-9),
    "nash_clearing": ("max", 1e-9),
    "nash_zero_price": ("max", 1e-9),
    "nash_system": ("max", 1e-9),
    "nash_pricing_reconstruction": ("max", 1e-10),
    "nash_representation": ("max", 1e-9),
    "identity_suite": ("max", 1e-8),
    "z_bounds": ("slack", -1e-9),
    "efficiency_order": ("slack", -1e-9),
    "belief_bounds": ("slack", -1e-12),
    "endogenous_bounds": ("slack", 0.0),
    "br_zero_price": ("max", 1e-10),
    "br_first_order": ("max", 1e-9),
    "br_lower_bound": ("slack", -1e-12),
    "limit_root": ("max", 1e-10),
    "limit_accounting": ("max", 1e-8),
    # Convergence tables must decrease up to float noise; columns that start
    # at ~1e-13 (already converged) jitter within that band.
    "limit_monotone": ("slack", -1e-12),
    "limit_distance": ("max", 1e-3),
    "fixed_point_gap": ("max", 1e-8),
}


def _entry(name: str, value: float) -> dict:
    kind, tol = LEDGER_TOLERANCES[name]
    ok = value <= tol if kind == "max" else value >= tol
    return {
        "name": name,
        "value": float(value),
        "tolerance": tol,
        "kind": kind,
        "pass": bool(ok),
    }


def market_to_dict(market: Market) -> dict:
    return {
        "deltas": market.deltas.tolist(),
        "baseline_weights": market.space.baseline_weights.tolist(),
        "labels": list(market.space.labels),
        "belief_weights": [a.beliefs.weights.tolist() for a in market.agents],
    }


def market_from_dict(doc: dict) -> Market:
    space = StateSpace(doc["baseline_weights"], labels=doc.get("labels"))
    agents = [
        Agent(float(d), Measure(space, w))
        for d, w in zip(doc["deltas"], doc["belief_weights"])
    ]
    return Market(agents)


def ad_to_dict(ad: ArrowDebreuEquilibrium) -> dict:
    return {
        "pricing": ad.pricing.weights.tolist(),
        "securities": [c.values.tolist() for c in ad.securities],
        "agent_gains": list(ad.agent_gains),
        "aggregate_gain": ad.aggregate_gain,
    }


def ad_from_dict(doc: dict, space: StateSpace) -> ArrowDebreuEquilibrium:
    return ArrowDebreuEquilibrium(
        pricing=Measure(space, doc["pricing"]),
        securities=tuple(RandomVariable(space, v) for v in doc["securities"]),
        agent_gains=tuple(float(g) for g in doc["agent_gains"]),
        aggregate_gain=float(doc["aggregate_gain"]),
    )


def nash_to_dict(eq: NashEquilibrium) -> dict:
    return {
        "z": eq.z.tolist(),
        "pricing": eq.pricing.weights.tolist(),
        "securities": [c.values.tolist() for c in eq.securities],
        "revealed": [m.weights.tolist() for m in eq.revealed],
        "agent_values": list(eq.agent_values),
        "aggregate_value": eq.aggregate_value,
        "distance": eq.distance,
        "log_ratios": np.asarray(eq.log_ratios).tolist(),
        "all_roots": [np.asarray(r).tolist() for r in eq.all_roots],
    }


def nash_from_dict(doc: dict, space: StateSpace) -> NashEquilibrium:
    return NashEquilibrium(
        z=np.asarray(doc["z"], dtype=float),
        securities=tuple(RandomVariable(space, v) for v in doc["securities"]),
        pricing=Measure(space, doc["pricing"]),
        revealed=tuple(Measure(space, w) for w in doc["revealed"]),
        agent_values=tuple(float(v) for v in doc["agent_values"]),
        aggregate_value=float(doc["aggregate_value"]),
        distance=float(doc["distance"]),
        log_ratios=np.asarray(doc["log_ratios"], dtype=float),
        all_roots=tuple(np.asarray(r, dtype=float) for r in doc["all_roots"]),
    )


def br_to_dict(br: BestResponse, agent: int, others_mode: str, reports) -> dict:
    return {
        "agent": agent,
        "others_mode": others_mode,
        "others_reports": [m.weights.tolist() for m in reports],
        "reported": br.reported.weights.tolist(),
        "security": br.security.values.tolist(),
        "valuation": br.valuation.weights.tolist(),
        "zeta": br.zeta,
        "response_value": br.response_value,
        "log_ratio": np.asarray(br.log_ratio).tolist(),
    }


def br_from_dict(doc: dict, space: StateSpace):
    """The stored response with its agent index and the reports it answers."""
    br = BestResponse(
        reported=Measure(space, doc["reported"]),
        security=RandomVariable(space, doc["security"]),
        valuation=Measure(space, doc["valuation"]),
        zeta=float(doc["zeta"]),
        response_value=float(doc["response_value"]),
        log_ratio=np.asarray(doc["log_ratio"], dtype=float)
        if doc.get("log_ratio") is not None
        else None,
    )
    return int(doc["agent"]), br, [Measure(space, w) for w in doc["others_reports"]]


def ad_ledger(market: Market, ad: ArrowDebreuEquilibrium) -> list:
    sec = ad.security_values()
    q = ad.pricing.weights
    clearing = float(np.max(np.abs(sec.sum(axis=0))))
    zero_price = float(np.max(np.abs(sec @ q)))
    # The random leg alone leaves each agent indifferent to no trade.
    indiff = 0.0
    logq = ad.pricing.log_weights()
    for i, agent in enumerate(market.agents):
        part = agent.delta * (market.log_beliefs[i] - logq)
        a = -part / agent.delta
        m = a.max()
        val = -agent.delta * (m + np.log(np.dot(agent.beliefs.weights, np.exp(a - m))))
        indiff = max(indiff, abs(val))
    return [
        _entry("ad_clearing", clearing),
        _entry("ad_zero_price", zero_price),
        _entry("ad_indifference", indiff),
    ]


def nash_ledger(
    market: Market,
    ad: ArrowDebreuEquilibrium,
    eq: NashEquilibrium,
    check_fixed_point: bool = True,
) -> list:
    entries = ad_ledger(market, ad)
    sec = eq.security_values()
    u = np.asarray(eq.log_ratios)
    q = eq.pricing.weights
    deltas = market.deltas[:, None]
    dminus = market.delta_minus[:, None]

    entries.append(_entry("nash_clearing", float(np.max(np.abs(sec.sum(axis=0))))))
    entries.append(_entry("nash_zero_price", float(np.max(np.abs(sec @ q)))))
    entries.append(
        _entry(
            "nash_representation",
            float(np.max(np.abs(dminus * np.expm1(u) - sec))),
        )
    )
    # Per-state characterisation at the solved transfers.
    coupling = market.lambdas @ u
    system = sec + deltas * u - (
        eq.z[:, None] + ad.security_values() + deltas * coupling
    )
    entries.append(_entry("nash_system", float(np.max(np.abs(system)))))
    # Valuation reconstruction from the competitive pricing and the ratios.
    logq = ad.pricing.log_weights() - coupling
    logq -= logq.max()
    w = np.exp(logq)
    entries.append(
        _entry("nash_pricing_reconstruction", float(np.max(np.abs(w / w.sum() - q))))
    )
    diag = compute_diagnostics(market, ad, eq)
    entries.append(_entry("identity_suite", diag.max_identity_residual()))
    entries.append(_entry("belief_bounds", diag.min_bound_slack()))
    entries.append(
        _entry("z_bounds", float(np.min(eq.z + np.asarray(ad.agent_gains))))
    )
    entries.append(_entry("efficiency_order", ad.aggregate_gain - eq.aggregate_value))
    caps = np.log((market.n_agents - 1) * market.delta_total / market.delta_minus)
    bound_slack = float(np.min(caps[:, None] - u)) if np.all(np.isfinite(u)) else -np.inf
    entries.append(_entry("endogenous_bounds", bound_slack))
    if check_fixed_point:
        gap = 0.0
        for i in range(market.n_agents):
            others = [eq.revealed[j] for j in range(market.n_agents) if j != i]
            br = solve_best_response(market, i, others)
            gap = max(
                gap, float(np.max(np.abs(br.reported.weights - eq.revealed[i].weights)))
            )
        entries.append(_entry("fixed_point_gap", gap))
    return entries


def br_ledger(market: Market, i: int, br, reports_others) -> list:
    q = br.valuation.weights
    c = br.security.values
    zero_price = abs(float(np.dot(q, c)))
    # First-order condition, modulo its additive constant.
    log_pi = market.log_beliefs[i]
    acc = np.zeros(market.space.n_states)
    others = [j for j in range(market.n_agents) if j != i]
    for j, rep in zip(others, reports_others):
        acc += market.lambdas[j] * (rep.log_weights() - log_pi)
    if br.log_ratio is not None:
        u = np.asarray(br.log_ratio, dtype=float)
    else:
        u = -br.reported.log_density(market.agents[i].beliefs)
    resid = c / market.deltas[i] + market.lambda_minus[i] * u + acc
    resid -= np.dot(q, resid)
    lower_slack = (
        float(np.min(c + market.delta_minus[i]))
        if not np.all(np.isfinite(u))
        else float(market.delta_minus[i] * np.exp(np.min(u)))
    )
    return [
        _entry("br_zero_price", zero_price),
        _entry("br_first_order", float(np.max(np.abs(resid)))),
        _entry("br_lower_bound", lower_slack),
    ]


def limit_residuals(market: Market, payload: dict) -> tuple:
    """Root and accounting residuals of a stored one-agent limit.

    Recomputed from the stored ``nash_security``, ``pricing`` and
    ``z_infinity`` and the market's agent-0 beliefs and agent-1 tolerance:
    the root condition ``E_p0[1/(1 + C/d1)] = 1`` and the accounting
    ``z_infinity = Var_q(C)/d1 + d1*H(p0|q)``.
    """
    p0 = market.agents[0].beliefs
    d1 = float(market.deltas[1])
    security = RandomVariable(market.space, payload["nash_security"])
    pricing = Measure(market.space, payload["pricing"])
    root = abs(float(np.dot(p0.weights, 1.0 / (1.0 + security.values / d1))) - 1.0)
    gain0 = variance(pricing, security) / d1
    accounting = abs(payload["z_infinity"] - (gain0 + d1 * relative_entropy(p0, pricing)))
    return root, float(accounting)


def limits_ledger(market: Market, payload: dict) -> list:
    entries = []
    if payload.get("mode") == "one-agent":
        root, accounting = limit_residuals(market, payload)
        entries += [_entry("limit_root", root), _entry("limit_accounting", accounting)]
    table = payload.get("table", [])
    mono = np.inf
    for prev, cur in zip(table, table[1:]):
        mono = min(mono, prev[1] - cur[1], prev[2] - cur[2])
    if table:
        entries.append(_entry("limit_monotone", float(min(mono, 0.0) if mono != np.inf else 0.0)))
        entries.append(_entry("limit_distance", float(max(table[-1][1], table[-1][2]))))
    return entries


def assemble_bundle(scenario, sections: dict, ledger: list, provenance_extra: dict) -> dict:
    certified = all(e["pass"] for e in ledger)
    provenance = {
        "artifact_version": __version__,
        "timestamp": _dt.datetime.now(_dt.timezone.utc).isoformat(),
    }
    provenance.update(provenance_extra)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "scenario": {
            "name": scenario.name,
            "states": scenario.states,
            "agents": list(scenario.agents),
            "solver": scenario.solver,
            "limits": scenario.limits,
        },
        "provenance": provenance,
        "residual_ledger": ledger,
        "certified": certified,
    }
    doc.update(sections)
    return doc


def write_bundle(doc: dict, path) -> None:
    """Whole-file atomic write with deterministic layout."""
    text = json.dumps(doc, sort_keys=True, indent=1)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")
    os.replace(tmp, path)


def read_bundle(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError(
            f"bundle schema {doc.get('schema_version')!r} is not supported"
        )
    return doc


def verify_bundle(doc: dict) -> list:
    """Re-run every applicable ledger check on a stored bundle.

    Returns the freshly computed ledger; callers compare ``pass`` flags.
    """
    if "market" not in doc:
        raise ValidationError("bundle has no market section to verify against")
    market = market_from_dict(doc["market"])
    space = market.space
    ledger: list = []
    ad = None
    if "ad" in doc:
        ad = ad_from_dict(doc["ad"], space)
        ledger.extend(ad_ledger(market, ad))
    if "nash" in doc:
        if ad is None:
            ad = solve_arrow_debreu(market)
        eq = nash_from_dict(doc["nash"], space)
        ledger = [e for e in ledger if not e["name"].startswith("ad_")]
        ledger.extend(nash_ledger(market, ad, eq))
    if "best_response" in doc:
        i, br, reports = br_from_dict(doc["best_response"], space)
        ledger.extend(br_ledger(market, i, br, reports))
    if "limits" in doc:
        ledger.extend(limits_ledger(market, doc["limits"]))
    return ledger
