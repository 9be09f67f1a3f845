"""Risk-sharing equilibria for CARA agents with heterogeneous beliefs.

Library layout:

- :mod:`risksharing.measures` — state spaces, measures, entropies.
- :mod:`risksharing.agents` — CARA agents, markets, endowment folding.
- :mod:`risksharing.arrow_debreu` — the competitive benchmark equilibrium.
- :mod:`risksharing.best_response` — one agent's optimal reported beliefs.
- :mod:`risksharing.nash` — the risk-sharing game equilibrium solver.
- :mod:`risksharing.diagnostics` — post-equilibrium identities and bounds.
- :mod:`risksharing.limits` — extreme-risk-tolerance limit objects.
- :mod:`risksharing.scenario` / :mod:`risksharing.cli` — file formats and CLI.

All operations are pure functions of immutable inputs (each solver's
result is determined by its arguments), so concurrent invocation is safe;
per-state work is vectorised with fixed-order reductions.
"""

from .agents import Agent, Market, cara_utility, endowment_to_beliefs
from .arrow_debreu import ArrowDebreuEquilibrium, solve_arrow_debreu, utility_gain_vs_ad
from .best_response import BestResponse, response_value, solve_best_response
from .diagnostics import NashDiagnostics, compute_diagnostics
from .errors import ContractError, DimensionError, SolverError, ValidationError
from .limits import (
    LimitReport,
    both_limit_check,
    limiting_arrow_debreu,
    limiting_gains,
    limiting_nash,
    one_agent_limit_report,
)
from .measures import (
    Measure,
    RandomVariable,
    StateSpace,
    expect,
    geometric_mean_measure,
    normalize_log_density,
    relative_entropy,
    variance,
)
from .nash import NashEquilibrium, nash_distance, phi_map, solve_nash

__version__ = "0.1.0"

__all__ = [
    "Agent",
    "ArrowDebreuEquilibrium",
    "BestResponse",
    "ContractError",
    "DimensionError",
    "LimitReport",
    "Market",
    "Measure",
    "NashDiagnostics",
    "NashEquilibrium",
    "RandomVariable",
    "SolverError",
    "StateSpace",
    "ValidationError",
    "both_limit_check",
    "cara_utility",
    "compute_diagnostics",
    "endowment_to_beliefs",
    "expect",
    "geometric_mean_measure",
    "limiting_arrow_debreu",
    "limiting_gains",
    "limiting_nash",
    "nash_distance",
    "normalize_log_density",
    "one_agent_limit_report",
    "phi_map",
    "relative_entropy",
    "response_value",
    "solve_arrow_debreu",
    "solve_best_response",
    "solve_nash",
    "utility_gain_vs_ad",
    "variance",
    "__version__",
]
