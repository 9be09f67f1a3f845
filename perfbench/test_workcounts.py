"""Self-test of the benchmark: traced work counts repeat exactly.

Run from the repository root (about a minute on two cores):

    python3 -m pytest -q perfbench/test_workcounts.py

Each workload's traced pass, cut to its first ops to keep the test short,
runs twice on one seed; the deterministic counts must be identical.  A
second seed must run through with every op certified, so a claim can be
re-checked on a held-out seed.
"""

import pytest

import run

run.import_package()

COUNTS = (
    "nash.inner_solves",
    "roots.kernel_calls",
    "roots.kernel_elements",
    "best_response.calls",
    "nash.roots_found",
)
# Ops of the first pass kept per workload: the n = 3 market, the single
# 100 000-state market, and the whole CLI pass (verify needs its bundles).
FIRST_OPS = {"many-agents": 1, "many-states": 1, "cli": None}


def traced_counts(workload, seed):
    runner, inputs = run.traced_inputs(workload, seed)
    plain, traced, tracer = run.traced_run(runner, inputs[: FIRST_OPS[workload]], 0)
    failed = [(op.name, op.error) for op in plain + traced if not op.ok]
    assert not failed
    metrics, _ = run.layer_metrics(workload, tracer, len(traced))
    return {name: metrics[name][1] for name in COUNTS}


@pytest.mark.parametrize("workload", sorted(FIRST_OPS))
def test_counts_repeat_exactly(workload):
    first = traced_counts(workload, seed=1)
    assert all(value > 0 for value in first.values()), first
    assert traced_counts(workload, seed=1) == first


def test_second_seed_runs_through():
    assert traced_counts("many-agents", seed=2)["nash.inner_solves"] > 0
