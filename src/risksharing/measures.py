"""Finite state spaces, equivalent probability measures, and their algebra.

All measures live on a shared :class:`StateSpace` and are strictly positive
(equivalent to the baseline), so densities, log-densities and relative
entropies are always well defined.  Log-densities are only meaningful up to
an additive constant; :func:`normalize_log_density` pins that constant by
renormalising, using a max-shift so nothing overflows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError

# Strict positivity floor: measures must stay equivalent to the baseline,
# and weights appear in denominators of entropies.
MIN_WEIGHT = 1e-300
SUM_TOL = 1e-12


def _as_float_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ContractError(f"expected a 1-d array, got shape {arr.shape}")
    return arr


def _check_weights(weights: np.ndarray, what: str) -> None:
    if weights.size == 0:
        raise ContractError(f"{what}: empty weight vector")
    if not np.all(np.isfinite(weights)):
        raise ContractError(f"{what}: weights must be finite")
    if np.any(weights < MIN_WEIGHT):
        raise ContractError(
            f"{what}: all weights must be >= {MIN_WEIGHT} (strict equivalence)"
        )
    total = float(np.sum(weights))
    if abs(total - 1.0) > SUM_TOL:
        raise ContractError(f"{what}: weights sum to {total!r}, not 1")


@dataclass(frozen=True)
class StateSpace:
    """Ordered finite collection of world states with baseline probabilities."""

    _labels: tuple | None  # None for the default labels s0, s1, ..., built when read
    baseline_weights: np.ndarray

    def __init__(self, baseline_weights, labels=None):
        weights = _as_float_array(baseline_weights)
        _check_weights(weights, "StateSpace")
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != weights.size:
                raise DimensionError("labels and baseline_weights differ in length")
            if all(a == f"s{k}" for k, a in enumerate(labels)):
                labels = None
        weights = weights.copy()
        weights.setflags(write=False)
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "baseline_weights", weights)

    @property
    def labels(self) -> tuple:
        return self._labels or tuple(f"s{k}" for k in range(self.n_states))

    @property
    def n_states(self) -> int:
        return self.baseline_weights.size

    def baseline(self) -> "Measure":
        return Measure(self, self.baseline_weights)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, StateSpace):
            return NotImplemented
        return self._labels == other._labels and np.array_equal(
            self.baseline_weights, other.baseline_weights
        )

    def __hash__(self):
        return hash((self._labels, self.baseline_weights.tobytes()))


def _same_space(a, b) -> StateSpace:
    if a.space is not b.space and a.space != b.space:
        raise DimensionError("objects are defined on different state spaces")
    return a.space


@dataclass(frozen=True, eq=False)
class Measure:
    """Strictly positive probability vector on a :class:`StateSpace`."""

    space: StateSpace
    weights: np.ndarray = field(repr=False)

    def __init__(self, space: StateSpace, weights):
        arr = _as_float_array(weights)
        if arr.size != space.n_states:
            raise DimensionError(
                f"measure has {arr.size} weights on a {space.n_states}-state space"
            )
        _check_weights(arr, "Measure")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "weights", arr)

    def log_weights(self) -> np.ndarray:
        return np.log(self.weights)

    def log_density(self, base: "Measure") -> np.ndarray:
        """Pointwise log(dSelf/dBase); exact, no '~' ambiguity."""
        _same_space(self, base)
        return np.log(self.weights) - np.log(base.weights)


@dataclass(frozen=True, eq=False)
class RandomVariable:
    """Finite, read-only payoff (or log-density) per state; arithmetic is on ``values``."""

    space: StateSpace
    values: np.ndarray = field(repr=False)

    def __init__(self, space: StateSpace, values):
        arr = _as_float_array(values)
        if arr.size != space.n_states:
            raise DimensionError(
                f"random variable has {arr.size} values on a {space.n_states}-state space"
            )
        if not np.all(np.isfinite(arr)):
            raise ContractError("RandomVariable values must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", arr)


def normalized_weights(logw: np.ndarray) -> np.ndarray:
    """Weights proportional to ``exp(logw)`` along the last axis, each at least
    ``MIN_WEIGHT``.

    Max-shifted so nothing overflows, and floored only after normalising, so
    a weight that underflows ends at the floor itself, not below it.
    """
    w = logw - logw.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    return np.maximum(w, MIN_WEIGHT, out=w)


def weights_from_logs(space: StateSpace, logw: np.ndarray) -> Measure:
    """The strictly positive measure of log weights, floored after normalising."""
    return Measure(space, normalized_weights(logw))


def normalize_log_density(base: Measure, log_density) -> Measure:
    """Measure with density proportional to exp(log_density) against ``base``.

    ``log_density`` is an array of one finite value per state.  Any constant
    shift of it yields the same measure.  Computed with a max-shift so
    magnitudes up to ~700 in the exponent do not overflow.
    """
    lam = _as_float_array(log_density)
    if lam.size != base.space.n_states:
        raise DimensionError("log density length does not match state space")
    if not np.all(np.isfinite(lam)):
        raise ContractError("log density must be finite per state")
    return weights_from_logs(base.space, np.log(base.weights) + lam)


def geometric_mean_measure(measures, weights) -> Measure:
    """Probability whose log-density is the weighted average of the inputs'.

    ``weights`` must be nonnegative and sum to one (zero weights drop the
    corresponding measure); the result is the log-linear (geometric)
    mixture of the ``measures``, always strictly positive when the inputs
    are.
    """
    measures = list(measures)
    lam = _as_float_array(weights)
    if len(measures) != lam.size:
        raise DimensionError("one weight per measure is required")
    if np.any(lam < 0):
        raise ContractError("geometric-mean weights must be nonnegative")
    if abs(lam.sum() - 1.0) > 1e-10:
        raise ContractError(f"geometric-mean weights sum to {lam.sum()!r}, not 1")
    for m in measures[1:]:
        _same_space(measures[0], m)
    logw = sum(l * np.log(m.weights) for l, m in zip(lam, measures))
    return weights_from_logs(measures[0].space, logw)


def relative_entropy(q2: Measure, q1: Measure) -> float:
    """Relative entropy of ``q2`` with respect to ``q1``, in nats.

    Nonnegative, and zero exactly when the two measures coincide.
    """
    _same_space(q2, q1)
    return float(np.sum(q2.weights * (np.log(q2.weights) - np.log(q1.weights))))


def expect(q: Measure, x: RandomVariable) -> float:
    """Expectation of ``x`` under ``q``."""
    _same_space(q, x)
    return float(np.sum(q.weights * x.values))


def variance(q: Measure, x: RandomVariable) -> float:
    """Second central moment of ``x`` under ``q``."""
    _same_space(q, x)
    dev = x.values - np.sum(q.weights * x.values)
    return float(np.sum(q.weights * dev * dev))
