"""One agent's optimal reported beliefs against fixed counterparty reports.

Reporting beliefs R and applying the agreed sharing rule hands the agent the
security ``delta_i * log(dR/dQ) + delta_i * H(Q|R)`` priced under the
geometric-mean valuation Q of all reports.  The optimal report is pinned
down by a per-state implicit equation for the density ratio of the report,
indexed by one scalar; the scalar is fixed by requiring the resulting
security to have zero price under the resulting valuation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agents import Market, cara_utility
from .errors import ContractError, DimensionError
from .measures import (
    Measure,
    RandomVariable,
    geometric_mean_measure,
    normalize_log_density,
    relative_entropy,
    weights_from_logs,
)
from .roots import increasing_root, logsumexp, solve_exp_linear

ZETA_BOUND = 1e6


@dataclass(frozen=True)
class BestResponse:
    """Optimal report with its security, valuation, and outer constant.

    ``log_ratio`` is log(1 + security/delta_minus_i) per state in solution
    space; minus it is the log-density of the report against the agent's
    beliefs.  Use it for residual checks: it stays accurate where the float
    security saturates its lower bound or the reported weights underflow.
    """

    reported: Measure
    security: RandomVariable
    valuation: Measure
    zeta: float
    response_value: float
    log_ratio: np.ndarray = None


def _check_reports(market: Market, reports_others) -> list:
    reports = list(reports_others)
    if len(reports) != market.n_agents - 1:
        raise ContractError(
            f"expected {market.n_agents - 1} counterparty reports, got {len(reports)}"
        )
    for r in reports:
        if r.space is not market.space and r.space != market.space:
            raise DimensionError("reports must live on the market's state space")
    return reports


def _aggregated_log_reports(market: Market, i: int, reports) -> np.ndarray:
    """Per-state weighted counterparty log-density against agent i's beliefs.

    Returns (1/lambda_minus_i) * sum_j lambda_j * log(dR_j / dP_i) over the
    other agents; only defined up to an additive constant, which downstream
    normalisation pins.
    """
    log_pi = market.log_beliefs[i]
    others = [j for j in range(market.n_agents) if j != i]
    acc = np.zeros(market.space.n_states)
    for j, rep in zip(others, reports):
        acc += market.lambdas[j] * (rep.log_weights() - log_pi)
    return acc / market.lambda_minus[i]


def response_value(market: Market, i: int, reported_i: Measure, reports_others) -> float:
    """Certainty equivalent agent ``i`` obtains by reporting ``reported_i``.

    Built from first principles (geometric-mean valuation, sharing rule,
    CARA certainty equivalent) so it can serve as an independent check of
    the implicit-equation solver.
    """
    reports = _check_reports(market, reports_others)
    if reported_i.space is not market.space and reported_i.space != market.space:
        raise DimensionError("report must live on the market's state space")
    full = list(reports)
    full.insert(i, reported_i)
    valuation = geometric_mean_measure(full, market.lambdas)
    delta = market.deltas[i]
    contract = delta * reported_i.log_density(valuation) + delta * relative_entropy(
        valuation, reported_i
    )
    return cara_utility(market.agents[i], RandomVariable(market.space, contract))


def solve_inner_D(market: Market, i: int, z: float, r_minus: RandomVariable) -> RandomVariable:
    """Per-state density ratio of the optimal report, at outer level ``z``.

    Solves ``(D - 1)/lambda_i + log D = z - r_minus`` per state.  The
    solution is strictly positive, increasing in ``z``, and sandwiched
    between ``1`` and ``exp(z - r_minus)``.
    """
    if not np.isfinite(z):
        raise ContractError("outer level must be finite")
    u = solve_exp_linear(1.0 / market.lambdas[i], 1.0, z - r_minus.values)
    return RandomVariable(market.space, np.exp(u))


def _log_valuation(market: Market, i: int, u: np.ndarray, r_agg: np.ndarray) -> np.ndarray:
    """Normalised log weights of the valuation measure for report ratio exp(u)."""
    logq = market.log_beliefs[i] - market.lambdas[i] * u + market.lambda_minus[i] * r_agg
    return logq - logsumexp(logq)


def solve_best_response(market: Market, i: int, reports_others) -> BestResponse:
    """Unique optimal report of agent ``i`` against the others' reports.

    The outer scalar ``zeta`` is the root of the strictly increasing log
    valuation-weighted mean density ratio ``h``, found by
    :func:`~risksharing.roots.increasing_root`; each evaluation solves the
    per-state equation of :func:`solve_inner_D` once.  With
    ``u' = 1/(1 + exp(u)/lambda_i)`` the slope of ``zeta -> u`` and ``q``
    the valuation, ``h'(zeta) = (1 - lambda_i) E_A[u'] + lambda_i E_q[u']``
    where ``A`` is proportional to ``q exp(u)``.
    """
    reports = _check_reports(market, reports_others)
    r_agg = _aggregated_log_reports(market, i, reports)
    lam = market.lambdas[i]

    def log_mean_ratio(z: float):
        u = solve_exp_linear(1.0 / lam, 1.0, z - r_agg)
        logq = _log_valuation(market, i, u, r_agg)
        h = float(logsumexp(logq + u))
        du = lam / (lam + np.exp(u))
        slope = np.sum(((1.0 - lam) * np.exp(logq + u - h) + lam * np.exp(logq)) * du)
        return h, slope, u

    zeta, u = increasing_root(log_mean_ratio, 0.0, ZETA_BOUND)
    security = RandomVariable(market.space, market.delta_minus[i] * np.expm1(u))
    logq = _log_valuation(market, i, u, r_agg)
    valuation = weights_from_logs(market.space, logq)
    reported = normalize_log_density(market.agents[i].beliefs, -u)
    value = cara_utility(market.agents[i], security)
    u = u.copy()
    u.setflags(write=False)
    return BestResponse(
        reported=reported,
        security=security,
        valuation=valuation,
        zeta=float(zeta),
        response_value=float(value),
        log_ratio=u,
    )


def no_trade_report(market: Market, i: int, reports_others) -> Measure:
    """The report that makes agent ``i``'s resulting security identically zero."""
    reports = _check_reports(market, reports_others)
    r_agg = _aggregated_log_reports(market, i, reports)
    return normalize_log_density(market.agents[i].beliefs, r_agg)

