"""Result bundles: serialisation, residual ledger, verification.

A bundle is one JSON document carrying the scenario echo, the solved
objects as plain arrays, a residual ledger (each entry: value, tolerance,
pass), and provenance.  Everything needed to re-run the ledger is stored,
so ``verify`` can certify a bundle without re-solving; floats are written
with full round-trip precision and keys are sorted, making bundles
byte-identical across reruns except for the provenance timestamp.
"""

from __future__ import annotations

import dataclasses
import datetime as _dt
import json
import os
import typing

import numpy as np

from . import __version__
from .agents import Agent, Market, cara_utility
from .arrow_debreu import ArrowDebreuEquilibrium, solve_arrow_debreu
from .best_response import BestResponse, solve_best_response
from .diagnostics import compute_diagnostics
from .errors import ValidationError
from .limits import LimitReport, Table
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


def _encode(value):
    """A field value as JSON data: a measure as its weights, a variable as its values."""
    if isinstance(value, Measure):
        return value.weights.tolist()
    if isinstance(value, RandomVariable):
        return value.values.tolist()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def record_to_dict(record) -> dict:
    """Every field of a dataclass record under its own name, as JSON data."""
    return {f.name: _encode(getattr(record, f.name)) for f in dataclasses.fields(record)}


def _decoder(hint):
    """The map ``(space, value) -> field value`` for a field annotated ``hint``."""
    if typing.get_origin(hint) is tuple and typing.get_args(hint)[1:] == (Ellipsis,):
        item = _decoder(typing.get_args(hint)[0])
        return lambda space, value: tuple(item(space, v) for v in value)
    if hint in (Measure, RandomVariable):
        return hint
    if hint is float:
        return lambda space, value: float(value)
    if hint is np.ndarray:
        return lambda space, value: np.asarray(value, dtype=float)
    raise TypeError(f"bundles cannot decode a field annotated {hint!r}")


def record_from_dict(cls, doc: dict, space: StateSpace):
    """The record ``cls`` rebuilt from ``record_to_dict``'s output, by its annotations."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    return cls(**{f.name: _decoder(hints[f.name])(space, doc[f.name]) for f in fields})


def ad_ledger(market: Market, ad: ArrowDebreuEquilibrium) -> list:
    sec = ad.security_values()
    q = ad.pricing.weights
    clearing = float(np.max(np.abs(sec.sum(axis=0))))
    zero_price = float(np.max(np.abs(np.sum(sec * q, axis=1))))
    # The random leg alone leaves each agent indifferent to no trade.
    indiff = 0.0
    logq = ad.pricing.log_weights()
    for i, agent in enumerate(market.agents):
        part = agent.delta * (market.log_beliefs[i] - logq)
        indiff = max(indiff, abs(cara_utility(agent, RandomVariable(market.space, part))))
    return [
        _entry("ad_clearing", clearing),
        _entry("ad_zero_price", zero_price),
        _entry("ad_indifference", indiff),
    ]


def nash_ledger(market: Market, ad: ArrowDebreuEquilibrium, eq: NashEquilibrium, diag=None) -> list:
    """The game's ledger; ``diag`` is the caller's ``compute_diagnostics``, if it has one."""
    entries = ad_ledger(market, ad)
    sec = eq.security_values()
    u = np.asarray(eq.log_ratios)
    q = eq.pricing.weights
    deltas = market.deltas[:, None]
    dminus = market.delta_minus[:, None]

    entries.append(_entry("nash_clearing", float(np.max(np.abs(sec.sum(axis=0))))))
    entries.append(_entry("nash_zero_price", float(np.max(np.abs(np.sum(sec * q, axis=1))))))
    entries.append(
        _entry(
            "nash_representation",
            float(np.max(np.abs(dminus * np.expm1(u) - sec))),
        )
    )
    # Per-state characterisation at the solved transfers.
    coupling = np.sum(market.lambdas[:, None] * u, axis=0)
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
    if diag is None:
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
    gap = 0.0
    for i in range(market.n_agents):
        others = [eq.revealed[j] for j in range(market.n_agents) if j != i]
        br = solve_best_response(market, i, others, eq.log_ratios[i])
        gap = max(gap, float(np.max(np.abs(br.reported.weights - eq.revealed[i].weights))))
    entries.append(_entry("fixed_point_gap", gap))
    return entries


def br_ledger(market: Market, i: int, br, reports_others) -> list:
    q = br.valuation.weights
    c = br.security.values
    zero_price = abs(float(np.sum(q * c)))
    # First-order condition, modulo its additive constant.
    log_pi = market.log_beliefs[i]
    acc = np.zeros(market.space.n_states)
    others = [j for j in range(market.n_agents) if j != i]
    for j, rep in zip(others, reports_others):
        acc += market.lambdas[j] * (rep.log_weights() - log_pi)
    u = br.log_ratio
    resid = c / market.deltas[i] + market.lambda_minus[i] * u + acc
    resid -= np.sum(q * resid)
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


def limit_residuals(market: Market, report: LimitReport) -> tuple:
    """Root and accounting residuals of a one-agent limit report.

    Recomputed from the report's fields and the market's beliefs and agent-1
    tolerance: the root condition ``E_p0[1/(1 + C/d1)] = 1`` with the
    competitive limit ``d1*log(dp0/dp1) - d1*H(p0|p1)``, and, with
    ``V = Var_q(C)/d1``, the accounting ``gain_agent0 = V`` and
    ``z_infinity = -loss_agent1 = V + d1*H(p0|q)``.
    """
    p0, p1 = market.agents[0].beliefs, market.agents[1].beliefs
    d1 = float(market.deltas[1])
    c, q = report.nash_security, report.pricing
    ad_limit = d1 * p0.log_density(p1) - d1 * relative_entropy(p0, p1)
    root = max(abs(float(np.sum(p0.weights / (1.0 + c.values / d1))) - 1.0),
               float(np.max(np.abs(report.ad_security.values - ad_limit))))
    gain0 = variance(q, c) / d1
    cost = gain0 + d1 * relative_entropy(p0, q)
    gaps = (report.z_infinity - cost, report.gain_agent0 - gain0, report.loss_agent1 + cost)
    return root, float(max(map(abs, gaps)))


def limits_ledger(market: Market, limit: LimitReport | Table) -> list:
    """The limit entries of a one-agent report, or of a mode-``both`` table alone."""
    entries, table = [], limit
    if isinstance(limit, LimitReport):
        root, accounting = limit_residuals(market, limit)
        entries += [_entry("limit_root", root), _entry("limit_accounting", accounting)]
        table = limit.table
    mono = 0.0
    for prev, cur in zip(table, table[1:]):
        mono = min(mono, prev[1] - cur[1], prev[2] - cur[2])
    entries.append(_entry("limit_monotone", mono))
    entries.append(_entry("limit_distance", max(table[-1][1], table[-1][2])))
    return entries


def assemble_bundle(scenario, sections: dict, ledger: list, provenance_extra: dict) -> dict:
    provenance = {
        "artifact_version": __version__,
        "timestamp": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        **provenance_extra,
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario": record_to_dict(scenario),
        "provenance": provenance,
        "residual_ledger": ledger,
        "certified": all(e["pass"] for e in ledger),
        **sections,
    }


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
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ValidationError(f"bundle {path} is not JSON: {exc}") from exc
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != SCHEMA_VERSION:
        raise ValidationError(f"bundle schema {version!r} is not supported")
    return doc


def _check_fit(doc: dict, market: Market) -> None:
    """Raise ``ValueError`` where a stored array does not fit ``market``.

    Checks the agent and state counts of the arrays the ledger reads
    (``None``: any count), and that none of them holds a NaN; the measures
    and random variables of a record already check their state count as
    they decode.  A ``limits`` section needs a market of two agents.
    """
    n, s = market.n_agents, market.space.n_states
    shapes = {
        "ad": {"securities": (n, s), "agent_gains": (n,)},
        "nash": {
            "z": (n,), "securities": (n, s), "revealed": (n, s),
            "agent_values": (n,), "log_ratios": (n, s),
        },
        "best_response": {"others_reports": (n - 1, s), "log_ratio": (s,)},
        "limits": {"table": (None, 3)},
    }
    for section, fields in shapes.items():
        for key, shape in fields.items():
            if key in doc.get(section, ()):
                values = np.asarray(doc[section][key], dtype=float)
                got = values.shape
                if len(got) != len(shape) or any(e not in (None, g) for g, e in zip(got, shape)):
                    raise ValueError(f"{section}.{key} has shape {got}, not {shape}")
                if np.isnan(values).any():
                    raise ValueError(f"{section}.{key} holds a NaN")
    if "best_response" in doc and not 0 <= int(doc["best_response"]["agent"]) < n:
        raise ValueError(f"best_response.agent is not one of the market's {n} agents")
    if "limits" in doc and n != 2:
        raise ValueError(f"limits on a market of {n} agents, not 2")


def verify_bundle(doc: dict) -> list:
    """Re-run every applicable ledger check on a stored bundle.

    Returns the freshly computed ledger; callers compare ``pass`` flags.  A
    section that does not decode, or does not fit the market, is a
    :class:`ValidationError`.
    """
    if "market" not in doc:
        raise ValidationError("bundle has no market section to verify against")
    try:
        market = market_from_dict(doc["market"])
        _check_fit(doc, market)
        space = market.space
        ad = record_from_dict(ArrowDebreuEquilibrium, doc["ad"], space) if "ad" in doc else None
        eq = record_from_dict(NashEquilibrium, doc["nash"], space) if "nash" in doc else None
        if "best_response" in doc:
            section = doc["best_response"]
            response = (
                int(section["agent"]),
                record_from_dict(BestResponse, section, space),
                [Measure(space, w) for w in section["others_reports"]],
            )
        if "limits" in doc:
            limit = doc["limits"]
            if limit["mode"] == "one-agent":
                limit = record_from_dict(LimitReport, limit, space)
            elif limit["mode"] == "both" and set(limit) == {"mode", "table"}:
                limit = _decoder(Table)(space, limit["table"])
            else:
                raise ValueError(f"limits in mode {limit['mode']!r} with keys {sorted(limit)}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed bundle: {exc!r}") from exc
    ledger: list = []
    # Stored values far from any solution overflow; their entries come out
    # non-finite and fail, which is the verdict, so no warning is printed.
    with np.errstate(over="ignore", invalid="ignore"):
        if eq is not None:  # the game's ledger opens with the competitive entries
            ledger.extend(nash_ledger(market, ad or solve_arrow_debreu(market), eq))
        elif ad is not None:
            ledger.extend(ad_ledger(market, ad))
        if "best_response" in doc:
            ledger.extend(br_ledger(market, *response))
        if "limits" in doc:
            ledger.extend(limits_ledger(market, limit))
    return ledger
