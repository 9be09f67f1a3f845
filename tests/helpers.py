"""Shared construction helpers for the test suite."""

import threading

import numpy as np

from risksharing import Agent, Market, Measure, RandomVariable, StateSpace, normalize_log_density
from risksharing import nash, roots
from risksharing.scenario import gauss_hermite_rule


def gh_space(order):
    """One-dimensional standard-normal quadrature space and its coordinate."""
    nodes, weights = gauss_hermite_rule(order)
    space = StateSpace(weights)
    return space, RandomVariable(space, nodes)


def beta_market(beta, order=64):
    """Two symmetric unit-tolerance agents with opposite exponential tilts."""
    space, x = gh_space(order)
    base = space.baseline()
    p0 = normalize_log_density(base, beta * x.values)
    p1 = normalize_log_density(base, -beta * x.values)
    return Market([Agent(1.0, p0), Agent(1.0, p1)]), x


def gaussian_pair_space(order, corr=-0.5):
    """Tensor grid for two unit-variance coordinates with given correlation."""
    nodes, weights = gauss_hermite_rule(order)
    z0, z1 = np.meshgrid(nodes, nodes, indexing="ij")
    w = np.multiply.outer(weights, weights).ravel()
    factor = np.linalg.cholesky(np.array([[1.0, corr], [corr, 1.0]]))
    z = np.stack([z0.ravel(), z1.ravel()])
    x = factor @ z
    space = StateSpace(w)
    return space, RandomVariable(space, x[0]), RandomVariable(space, x[1])


def random_market(rng, n_agents=None, n_states=None, tilt_scale=1.0, delta_range=(0.3, 3.0)):
    """Seeded random market with heterogeneous beliefs on a random space."""
    if n_agents is None:
        n_agents = int(rng.integers(2, 5))
    if n_states is None:
        n_states = int(rng.integers(50, 501))
    w = rng.dirichlet(np.full(n_states, 5.0))
    space = StateSpace(w)
    base = space.baseline()
    agents = []
    for _ in range(n_agents):
        tilt = rng.normal(0.0, tilt_scale, n_states)
        agents.append(
            Agent(float(rng.uniform(*delta_range)), normalize_log_density(base, tilt))
        )
    return Market(agents)


def common_beliefs_market(rng, n_agents=None, n_states=None):
    """Agents who differ in tolerance but share one belief measure."""
    if n_agents is None:
        n_agents = int(rng.integers(2, 6))
    if n_states is None:
        n_states = int(rng.integers(50, 501))
    w = rng.dirichlet(np.full(n_states, 5.0))
    space = StateSpace(w)
    shared = normalize_log_density(space.baseline(), rng.normal(0.0, 1.0, n_states))
    return Market(
        [Agent(float(rng.uniform(0.2, 4.0)), shared) for _ in range(n_agents)]
    )


def stress_market(seed, hi, trial, n_states=200):
    """Trial ``trial`` of a seeded stress draw with wide tolerance ratios and strong tilts.

    Every earlier trial's draws are replayed, so a trial is fixed by
    ``(seed, hi, trial)`` alone.
    """
    rng = np.random.default_rng(seed)
    for _ in range(trial + 1):
        n = int(rng.integers(2, hi))
        tilt = rng.choice([0.5, 2, 5, 10])
        ratio = rng.choice([1, 1e2, 1e4])
        weights = rng.dirichlet(np.full(n_states, 5.0))
        if ratio > 1:
            deltas = np.exp(rng.uniform(0.0, np.log(ratio), n))
        else:
            deltas = rng.uniform(0.3, 3.0, n)
        tilts = [tilt * rng.normal(0.0, 1.0, n_states) for _ in range(n)]
    return _tilted_market(deltas, weights, tilts)


def _tilted_market(deltas, weights, tilts):
    """Agents with tolerances ``deltas`` and log-belief tilts ``tilts`` on ``weights``."""
    base = StateSpace(weights).baseline()
    return Market(
        [Agent(float(d), normalize_log_density(base, t)) for d, t in zip(deltas, tilts)]
    )


def _extreme_draws(rng, fewest_agents):
    """One extreme market's tolerances, state weights and tilts, drawn from ``rng``.

    Tolerance ratios up to 1e9 above a floor drawn log-uniformly on
    [1e-3, 10], log-belief tilts of scale up to 30, ``fewest_agents`` to 6
    agents and 20 to 299 Dirichlet(2) states.
    """
    n = int(rng.integers(fewest_agents, 7))
    n_states = int(rng.integers(20, 300))
    ratio = rng.choice([1e2, 1e4, 1e6, 1e9])
    tilt = rng.choice([1.0, 5.0, 15.0, 30.0])
    floor = np.exp(rng.uniform(np.log(1e-3), np.log(10.0)))
    deltas = floor * ratio ** rng.uniform(0.0, 1.0, n)
    weights = rng.dirichlet(np.full(n_states, 2.0))
    return deltas, weights, tilt * rng.normal(0.0, 1.0, (n, n_states))


def extreme_market(trial):
    """Trial ``trial`` of the extreme-input sweep, with 2 to 6 agents.

    Every earlier trial's draws are replayed, so a trial is fixed by its
    index alone.
    """
    rng = np.random.default_rng(99)
    for _ in range(trial + 1):
        draws = _extreme_draws(rng, 2)
    return _tilted_market(*draws)


def hedge_market(seed, k):
    """Market ``k`` of the root-hedge search's extreme family: 3 to 6 agents,
    drawn as the sweep's markets are, from the generator seeded ``[seed, k]``."""
    return _tilted_market(*_extreme_draws(np.random.default_rng([seed, k]), 3))


def measure(space, values):
    arr = np.asarray(values, dtype=float)
    return Measure(space, arr / arr.sum())


def force_blocks(monkeypatch, workers, block_min):
    """Split every last axis of at least ``2 * block_min`` elements into
    ``min(workers, n // block_min)`` blocks, whatever the machine's CPUs.

    Returns the list of the names of the threads that run each block of the
    kernel and the inner solve, filled as they run."""
    monkeypatch.setattr(roots, "BLOCK_MIN", block_min)
    monkeypatch.setattr(roots, "WORKERS", workers)
    threads, over_blocks = [], roots.over_blocks

    def recorded(fn, arrays, combine):
        def block(*views):
            threads.append(threading.current_thread().name)
            return fn(*views)

        return over_blocks(block, arrays, combine)

    for module in (roots, nash):
        monkeypatch.setattr(module, "over_blocks", recorded)
    return threads
