"""Fingerprints of the solver's results, to show that a change keeps them bit for bit.

Run from the repository root, with one BLAS thread so that runs compare:

    OPENBLAS_NUM_THREADS=1 python3 tests/same_results.py

Pytest does not collect this file.  For each family of markets it prints one
line: the SHA-256 of the results, the outcome counts and the histogram of
``len(all_roots)``.  The families are

- ``pool``: the benchmark's market pool, every entry of every market family
  that ``perfbench/workloads.py`` visits, in their drawn order;
- ``stress``: ``stress_market(7, 9, 0..99)`` and ``stress_market(2026, 7, 0..39)``;
- ``sweep``: ``extreme_market(0..119)``.

Each market is solved as the benchmark certifies one: the competitive
benchmark, the game equilibrium, then its residual ledger, with warnings as
errors.  Its outcome is one of ``certified`` (every ledger entry passes),
``failed`` (some entry fails), ``refused`` (the competitive benchmark
raises ``SolverError``) or ``solver_error`` (the game solve raises it).
The hash reads, market by market in order, the outcome's name; for a solved
market the bytes of ``z``, ``log_ratios``, every entry of ``all_roots``,
``agent_values`` and every ledger value, as float64; for a ``SolverError``
its message and its diagnostics as sorted JSON.
"""

import hashlib
import json
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from helpers import extreme_market, stress_market  # noqa: E402
from risksharing import SolverError, solve_arrow_debreu, solve_nash  # noqa: E402
from risksharing.bundle import nash_ledger  # noqa: E402
from workloads import FAMILIES, POOL_SIZES, pool_market  # noqa: E402


def pool():
    for workload, families in FAMILIES.items():
        for n_agents, n_states in families:
            for j in range(POOL_SIZES[workload]):
                yield pool_market(n_agents, n_states, j)[0]


def stress():
    for seed, hi, trials in ((7, 9, 100), (2026, 7, 40)):
        for trial in range(trials):
            yield stress_market(seed, hi, trial)


def sweep():
    for trial in range(120):
        yield extreme_market(trial)


def fingerprint(markets) -> tuple:
    """The hash, the outcome counts and the root-count histogram of ``markets``."""
    digest, outcomes, roots = hashlib.sha256(), Counter(), Counter()

    def add(*arrays):
        for a in arrays:
            digest.update(np.asarray(a, dtype=np.float64).tobytes())

    for market in markets:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                ad = solve_arrow_debreu(market)
            except SolverError as err:
                outcome, error = "refused", err
            else:
                try:
                    eq = solve_nash(market, ad=ad)
                except SolverError as err:
                    outcome, error = "solver_error", err
                else:
                    ledger = nash_ledger(market, ad, eq)
                    outcome = "certified" if all(e["pass"] for e in ledger) else "failed"
        outcomes[outcome] += 1
        digest.update(outcome.encode())
        if outcome in ("refused", "solver_error"):
            digest.update(str(error).encode())
            digest.update(json.dumps(error.diagnostics, sort_keys=True, default=str).encode())
            continue
        roots[len(eq.all_roots)] += 1
        add(eq.z, eq.log_ratios, *eq.all_roots, eq.agent_values, [e["value"] for e in ledger])
    return digest.hexdigest(), outcomes, roots


def main() -> None:
    for name, markets in (("pool", pool), ("stress", stress), ("sweep", sweep)):
        t0 = time.perf_counter()
        digest, outcomes, roots = fingerprint(markets())
        counts = " ".join(
            f"{k} {outcomes[k]}" for k in ("certified", "failed", "refused", "solver_error")
        )
        histogram = ", ".join(f"{k}: {v}" for k, v in sorted(roots.items()))
        print(f"{name:6} {digest}  {counts}  roots {{{histogram}}}  "
              f"{time.perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    main()
