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
from .errors import ContractError
from .measures import (
    Measure,
    RandomVariable,
    _same_space,
    geometric_mean_measure,
    normalize_log_density,
    relative_entropy,
    weights_from_logs,
)
from .roots import increasing_root, logsumexp, solve_exp_linear

ZETA_BOUND = 1e6


@dataclass(frozen=True)
class BestResponse:
    """Optimal report of ``agent`` against ``others_reports``, with its
    security, valuation, and outer constant.

    ``log_ratio`` is log(1 + security/delta_minus_i) per state in solution
    space; minus it is the log-density of the report against the agent's
    beliefs.  Use it for residual checks: it stays accurate where the float
    security saturates its lower bound or the reported weights underflow.
    """

    agent: int
    others_reports: tuple[Measure, ...]
    reported: Measure
    security: RandomVariable
    valuation: Measure
    zeta: float
    response_value: float
    log_ratio: np.ndarray


def _check_reports(market: Market, i: int, reports_others) -> list:
    if not 0 <= i < market.n_agents:
        raise ContractError(f"agent index {i} outside 0..{market.n_agents - 1}")
    reports = list(reports_others)
    if len(reports) != market.n_agents - 1:
        raise ContractError(
            f"expected {market.n_agents - 1} counterparty reports, got {len(reports)}"
        )
    for r in reports:
        _same_space(r, market)
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
    reports = _check_reports(market, i, reports_others)
    _same_space(reported_i, market)
    full = list(reports)
    full.insert(i, reported_i)
    valuation = geometric_mean_measure(full, market.lambdas)
    delta = market.deltas[i]
    contract = delta * reported_i.log_density(valuation) + delta * relative_entropy(
        valuation, reported_i
    )
    return cara_utility(market.agents[i], RandomVariable(market.space, contract))


def _log_valuation(market: Market, i: int, u: np.ndarray, r_agg: np.ndarray) -> np.ndarray:
    """Normalised log weights of the valuation measure for report ratio exp(u)."""
    logq = market.log_beliefs[i] - market.lambdas[i] * u + market.lambda_minus[i] * r_agg
    return logq - logsumexp(logq)


def solve_best_response(market: Market, i: int, reports_others, start=None) -> BestResponse:
    """Unique optimal report of agent ``i`` against the others' reports.

    At outer level ``zeta`` the report's density ratio ``D = exp(u)``
    solves ``(D - 1)/lambda_i + log D = zeta - r`` per state, where ``r``
    is the counterparty log-density of :func:`_aggregated_log_reports`;
    ``D`` is increasing in ``zeta`` and lies between ``1`` and
    ``exp(zeta - r)``.  The outer scalar is the root of the strictly
    increasing log valuation-weighted mean density ratio ``h``, found by
    :func:`~risksharing.roots.increasing_root`; each evaluation solves the
    per-state equation once.  With
    ``u' = 1/(1 + exp(u)/lambda_i)`` the slope of ``zeta -> u`` and ``q``
    the valuation, ``h'(zeta) = (1 - lambda_i) E_A[u'] + lambda_i E_q[u']``
    where ``A`` is proportional to ``q exp(u)``.

    ``start``, the log ratio ``u`` the caller expects per state (such as an
    equilibrium's ``log_ratios[i]``), moves where the search begins: it
    starts at the middle value over states of ``expm1(u)/lambda_i + u + r``,
    or at 0 where that is not finite or not inside ``ZETA_BOUND``, and the
    first per-state solve starts from ``start``.  Each later per-state solve
    starts from the last one's ``u``.  The root returned is the same, since
    ``h`` is strictly increasing and only its own converged root is accepted.
    """
    reports = _check_reports(market, i, reports_others)
    r_agg = _aggregated_log_reports(market, i, reports)
    lam = market.lambdas[i]

    u_last = start

    def log_mean_ratio(z: float):
        nonlocal u_last
        u = u_last = solve_exp_linear(1.0 / lam, 1.0, z - r_agg, start=u_last)
        logq = _log_valuation(market, i, u, r_agg)
        h = float(logsumexp(logq + u))
        du = lam / (lam + np.exp(u))
        slope = np.sum(((1.0 - lam) * np.exp(logq + u - h) + lam * np.exp(logq)) * du)
        return h, slope, (u, logq)

    zeta0 = 0.0
    if start is not None:
        with np.errstate(all="ignore"):  # an absurd start overflows and is dropped
            guesses = np.expm1(start) / lam + start + r_agg
        # np.partition, not np.median, which imports numpy.ma (1.4 MB of peak memory).
        guess = float(np.partition(guesses, guesses.size // 2)[guesses.size // 2])
        if np.isfinite(guess) and abs(guess) < ZETA_BOUND:
            zeta0 = guess
    zeta, (u, logq) = increasing_root(log_mean_ratio, zeta0, ZETA_BOUND)
    security = RandomVariable(market.space, market.delta_minus[i] * np.expm1(u))
    valuation = weights_from_logs(market.space, logq)
    reported = normalize_log_density(market.agents[i].beliefs, -u)
    value = cara_utility(market.agents[i], security)
    u.setflags(write=False)
    return BestResponse(
        agent=int(i),
        others_reports=tuple(reports),
        reported=reported,
        security=security,
        valuation=valuation,
        zeta=float(zeta),
        response_value=float(value),
        log_ratio=u,
    )
