"""The A/B runner's markets are the benchmark's, value for value."""

import numpy as np
import pytest

import ab
from workloads import pool_market


@pytest.mark.parametrize("workload", list(ab.PAIRS))
def test_markets_equal_the_benchmark_pool(workload):
    """Each market ``tests/ab.py`` times is ``perfbench.workloads.pool_market``'s
    entry in its drawn order: the same state weights, tolerances and beliefs."""
    for n_agents, n_states, j in ab.markets(workload)[:: len(ab.markets(workload)) // 4 or 1]:
        ours = ab.pool_market("risksharing", n_agents, n_states, j)
        theirs, order = pool_market(n_agents, n_states, j)
        assert np.array_equal(order, np.arange(n_agents))
        assert np.array_equal(ours.space.baseline_weights, theirs.space.baseline_weights)
        assert np.array_equal(ours.deltas, theirs.deltas)
        assert np.array_equal(ours.belief_weights, theirs.belief_weights)
