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

The namespace is lazy (PEP 562): ``import risksharing`` loads no module
and no numpy, and each public name loads its home module on first use.
So the CLI, a fresh interpreter per command, can choose its BLAS threads
before numpy starts them.

All operations are pure functions of immutable inputs (each solver's
result is determined by its arguments), so concurrent invocation is safe;
per-state work is vectorised with fixed-order reductions, and on long
state axes runs on blocks of states fixed by the state count, in worker
threads, one per CPU; no result depends on the CPU count.
"""

import importlib

__version__ = "0.1.0"

# The home module of each public name.
_HOMES = {
    name: module
    for module, names in {
        "agents": ("Agent", "Market", "cara_utility", "endowment_to_beliefs"),
        "arrow_debreu": ("ArrowDebreuEquilibrium", "solve_arrow_debreu", "utility_gain_vs_ad"),
        "best_response": ("BestResponse", "response_value", "solve_best_response"),
        "diagnostics": ("NashDiagnostics", "compute_diagnostics"),
        "errors": ("ContractError", "DimensionError", "SolverError", "ValidationError"),
        "limits": ("LimitReport", "both_limit_check", "limiting_arrow_debreu", "limiting_gains",
                   "limiting_nash", "one_agent_limit_report"),
        "measures": ("Measure", "RandomVariable", "StateSpace", "expect", "geometric_mean_measure",
                     "normalize_log_density", "relative_entropy", "variance"),
        "nash": ("NashEquilibrium", "nash_distance", "phi_map", "solve_nash"),
    }.items()
    for name in names
}

__all__ = sorted(_HOMES) + ["__version__"]


def __getattr__(name):
    """A public name, from its home module, which is loaded now if it is not yet."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
