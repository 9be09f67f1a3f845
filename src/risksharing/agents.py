"""Agents with CARA preferences and the market they trade in.

An agent is fully described by a risk tolerance ``delta`` and a belief
measure; random endowments are folded into beliefs at ingestion via
:func:`endowment_to_beliefs`, after which utility is measured relative to
the endowed no-trade position.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractError
from .measures import Measure, RandomVariable, _same_space, normalize_log_density

DELTA_MIN = 1e-9
DELTA_MAX = 1e12


@dataclass(frozen=True)
class Agent:
    """Risk tolerance plus (endowment-adjusted) subjective beliefs."""

    delta: float
    beliefs: Measure

    def __post_init__(self):
        if not (DELTA_MIN <= self.delta <= DELTA_MAX):
            raise ContractError(
                f"risk tolerance must lie in [{DELTA_MIN}, {DELTA_MAX}], got {self.delta!r}"
            )


class Market:
    """Roster of at least two agents sharing one state space.

    Exposes the aggregate risk tolerance and the per-agent relative weights
    and complements used throughout the solvers.
    """

    def __init__(self, agents):
        agents = tuple(agents)
        if len(agents) < 2:
            raise ContractError("a market needs at least 2 agents")
        for a in agents[1:]:
            _same_space(agents[0].beliefs, a.beliefs)
        self.agents = agents
        self.space = agents[0].beliefs.space
        self.deltas = np.array([a.delta for a in agents], dtype=float)
        self.delta_total = float(self.deltas.sum())
        self.lambdas = self.deltas / self.delta_total
        # The sums of the other tolerances: delta_total - delta_i rounds to 0
        # once delta_i exceeds the rest by about 1e16, inside the tolerance range.
        before = np.cumsum(self.deltas)
        after = np.cumsum(self.deltas[::-1])[::-1]
        self.delta_minus = np.append(0.0, before[:-1]) + np.append(after[1:], 0.0)
        self.lambda_minus = self.delta_minus / self.delta_total

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @cached_property
    def belief_weights(self) -> np.ndarray:
        """(n_agents, n_states) array of belief weights."""
        return np.stack([a.beliefs.weights for a in self.agents])

    @cached_property
    def log_beliefs(self) -> np.ndarray:
        """(n_agents, n_states) array of log belief weights."""
        return np.stack([a.beliefs.log_weights() for a in self.agents])


def cara_utility(agent: Agent, x: RandomVariable) -> float:
    """Certainty equivalent -delta*log E[exp(-X/delta)] under the agent's beliefs.

    Evaluated with a max-shift so payoffs with |X|/delta up to ~700 do not
    overflow.  Cash-invariant: adding a constant to ``x`` adds it to the
    result.
    """
    _same_space(x, agent.beliefs)
    a = -x.values / agent.delta
    m = a.max()
    # A plain sum, not np.dot: the game solver calls this at every step, and
    # a BLAS dot wakes idle BLAS threads that burn CPU far beyond the sum.
    return float(-agent.delta * (m + np.log(np.sum(agent.beliefs.weights * np.exp(a - m)))))


def endowment_to_beliefs(actual_beliefs: Measure, endowment: RandomVariable, delta: float) -> Agent:
    """Fold a random endowment into beliefs, tilting by -endowment/delta.

    The returned agent's utility of any payoff X equals the endowed agent's
    utility of X measured relative to the endowed no-trade level.
    """
    if delta <= 0:
        raise ContractError("risk tolerance must be positive")
    tilted = normalize_log_density(actual_beliefs, -endowment.values / delta)
    return Agent(delta=float(delta), beliefs=tilted)
