"""State-space and measure algebra tests.

Expected constants were computed by hand or with the straight-line
formulas in the docstrings, independently of the implementation.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import risksharing as rs
from risksharing import (
    Agent,
    ContractError,
    DimensionError,
    Market,
    Measure,
    RandomVariable,
    StateSpace,
    expect,
    geometric_mean_measure,
    normalize_log_density,
    relative_entropy,
    variance,
)
from risksharing.measures import MIN_WEIGHT, SUM_TOL, normalized_weights

SPACE2 = StateSpace([0.5, 0.5])
BASE2 = SPACE2.baseline()


def weights_strategy(n=4):
    return (
        st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n)
        .map(lambda xs: np.asarray(xs) / np.sum(xs))
    )


class TestValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ContractError):
            StateSpace([0.5, 0.6])

    def test_weights_must_be_strictly_positive(self):
        with pytest.raises(ContractError):
            StateSpace([1.0, 0.0])
        with pytest.raises(ContractError):
            Measure(SPACE2, [1.0 - 1e-301, 1e-301])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            Measure(SPACE2, [0.2, 0.3, 0.5])
        with pytest.raises(DimensionError):
            expect(BASE2, RandomVariable(StateSpace([0.2, 0.3, 0.5]), [1, 2, 3]))

    def test_random_variable_must_be_finite(self):
        with pytest.raises(ContractError):
            RandomVariable(SPACE2, [1.0, np.inf])

    @pytest.mark.parametrize(
        "call, error, match",
        [
            (lambda: StateSpace([[0.5, 0.5]]), ContractError, "expected a 1-d array"),
            (lambda: StateSpace([]), ContractError, "empty weight vector"),
            (lambda: StateSpace([0.5, np.nan]), ContractError, "weights must be finite"),
            (lambda: StateSpace([0.5, 0.5], labels=["a"]), DimensionError, "differ in length"),
            (lambda: RandomVariable(SPACE2, [1.0, 2.0, 3.0]), DimensionError,
             "3 values on a 2-state space"),
            (lambda: normalize_log_density(BASE2, [0.0]), DimensionError,
             "does not match state space"),
            (lambda: normalize_log_density(BASE2, [0.0, np.nan]), ContractError,
             "must be finite per state"),
            (lambda: geometric_mean_measure([BASE2, BASE2], [1.0]), DimensionError,
             "one weight per measure"),
            (lambda: geometric_mean_measure([BASE2, BASE2], [1.5, -0.5]), ContractError,
             "must be nonnegative"),
        ],
        ids=[
            "weights-2d", "weights-empty", "weights-nan", "labels-length", "variable-length",
            "log-density-length", "log-density-nan", "geometric-weight-count",
            "geometric-weight-negative",
        ],
    )
    def test_malformed_input_is_refused(self, call, error, match):
        with pytest.raises(error, match=match):
            call()


# A space of the same size as SPACE2 that is not SPACE2, so that only the
# state-space check, and no length check, can refuse a mix of the two.
FOREIGN2 = StateSpace([0.4, 0.6])
P2, Q2 = Measure(SPACE2, [0.3, 0.7]), Measure(FOREIGN2, [0.6, 0.4])
MARKET2 = Market([Agent(1.0, P2), Agent(2.0, BASE2)])


@pytest.mark.parametrize(
    "call",
    [
        lambda: Market([Agent(1.0, P2), Agent(1.0, Q2)]),
        lambda: rs.cara_utility(Agent(1.0, P2), RandomVariable(FOREIGN2, [1.0, -1.0])),
        lambda: rs.solve_best_response(MARKET2, 0, [Q2]),
        lambda: rs.response_value(MARKET2, 0, Q2, [BASE2]),
        lambda: rs.limiting_arrow_debreu(P2, Agent(1.0, Q2)),
        lambda: rs.limiting_nash(P2, Agent(1.0, Q2)),
        lambda: rs.limiting_gains(P2, Agent(1.0, Q2)),
        lambda: rs.one_agent_limit_report(P2, Agent(1.0, Q2), [10.0]),
        lambda: rs.both_limit_check(
            RandomVariable(SPACE2, [1.0, -1.0]), RandomVariable(FOREIGN2, [1.0, -1.0]), 0.5, [10.0]
        ),
        lambda: geometric_mean_measure([P2, Q2], [0.5, 0.5]),
        lambda: rs.utility_gain_vs_ad(
            MARKET2, rs.solve_arrow_debreu(MARKET2), 0, RandomVariable(FOREIGN2, [1.0, -1.0])
        ),
    ],
    ids=[
        "Market", "cara_utility", "solve_best_response", "response_value",
        "limiting_arrow_debreu", "limiting_nash", "limiting_gains", "one_agent_limit_report",
        "both_limit_check", "geometric_mean_measure", "utility_gain_vs_ad",
    ],
)
def test_foreign_state_space_is_refused(call):
    with pytest.raises(DimensionError, match="different state spaces"):
        call()


class TestStateSpaceLabels:
    def test_default_labels_equal_explicit_ones(self):
        """A space built without labels reads ``s0, s1, ...``, and equals and
        hashes like the same space given those labels."""
        w = np.full(5, 0.2)
        default, explicit = StateSpace(w), StateSpace(w, labels=[f"s{k}" for k in range(5)])
        assert default.labels == explicit.labels == ("s0", "s1", "s2", "s3", "s4")
        assert default == explicit and hash(default) == hash(explicit)
        named = StateSpace(w, labels="abcde")
        assert named.labels == tuple("abcde") and named != default

    def test_comparing_and_hashing_build_no_labels(self):
        w = np.full(3, 1.0 / 3.0)
        a, b, c = StateSpace(w), StateSpace(w, labels=["s0", "s1", "s2"]), StateSpace(w, "xyz")
        built = property(lambda self: pytest.fail("labels were built"))
        with mock.patch.object(StateSpace, "labels", built):
            assert a == b and a != c and len({a, b, c}) == 2

    def test_a_long_space_allocates_little_beside_its_weights(self):
        """Building a 100,000-state space allocates under 1 MB beyond its
        weights; one label string per state took 6.8 MB."""
        w = np.full(100_000, 1e-5)
        tracemalloc.start()
        try:
            space = StateSpace(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - space.baseline_weights.nbytes < 1_000_000
        assert space.labels[-1] == "s99999" and len(space.labels) == 100_000


class TestNormalizeLogDensity:
    def test_zero_log_density_is_identity(self):
        out = normalize_log_density(BASE2, [0.0, 0.0])
        np.testing.assert_allclose(out.weights, BASE2.weights, rtol=0, atol=1e-15)

    def test_hand_normalisation(self):
        # 0.5*2 / (0.5*2 + 0.5*1) = 2/3
        out = normalize_log_density(BASE2, [math.log(2.0), 0.0])
        np.testing.assert_allclose(out.weights, [2.0 / 3.0, 1.0 / 3.0], atol=1e-14)

    def test_huge_log_density_does_not_overflow(self):
        out = normalize_log_density(BASE2, [1000.0, 0.0])
        assert out.weights[0] == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < out.weights[1] < 1e-300 * 1e10

    @given(
        lam=st.lists(st.floats(-30, 30), min_size=4, max_size=4),
        shift=st.floats(-50, 50),
        w=weights_strategy(),
    )
    @settings(max_examples=100, deadline=None)
    def test_additive_constants_do_not_matter(self, lam, shift, w):
        base = StateSpace(w).baseline()
        a = normalize_log_density(base, np.asarray(lam))
        b = normalize_log_density(base, np.asarray(lam) + shift)
        np.testing.assert_allclose(a.weights, b.weights, atol=1e-13)


def log_weights(shape):
    """Log weights spread over up to 2,000, so ``exp`` underflows and the floor is hit."""
    return arrays(np.float64, shape, elements=st.floats(-1000.0, 1000.0))


def floor_first(logw):
    """The recipe that floored before normalising, written out."""
    logw = logw - logw.max()
    w = np.maximum(np.exp(logw), MIN_WEIGHT)
    return w / w.sum()


class TestNormalizedWeights:
    @given(logw=st.integers(1, 400).flatmap(log_weights))
    @example(logw=np.array([0.5, -800.0, 0.0]))  # floored before normalising: 6.2e-301
    @example(logw=np.array([0.0, -800.0]))  # a floored weight over a sum of exactly 1
    @settings(max_examples=200, deadline=None)
    def test_a_normalised_row_is_a_measure(self, logw):
        w = normalized_weights(logw)
        assert w.min() >= MIN_WEIGHT
        assert abs(w.sum() - 1.0) <= SUM_TOL
        Measure(StateSpace(np.full(logw.size, 1.0 / logw.size)), w)
        old = floor_first(logw)
        if old.min() >= MIN_WEIGHT:  # every measure the old recipe accepted is unchanged
            assert np.array_equal(w, old)

    @given(logw=st.tuples(st.integers(1, 5), st.integers(1, 400)).flatmap(log_weights))
    @settings(max_examples=100, deadline=None)
    def test_each_row_of_a_stack_is_the_row_alone(self, logw):
        w = normalized_weights(logw)
        for row, alone in zip(w, logw):
            assert np.array_equal(row, normalized_weights(alone))


class TestGeometricMean:
    def test_mean_of_equal_measures_is_the_measure(self):
        r = Measure(SPACE2, [0.3, 0.7])
        out = geometric_mean_measure([r, r, r], [0.2, 0.3, 0.5])
        np.testing.assert_allclose(out.weights, r.weights, atol=1e-14)

    def test_hand_example(self):
        # sqrt(0.5*0.8)=0.63246, sqrt(0.5*0.2)=0.31623, ratio 2:1.
        out = geometric_mean_measure(
            [BASE2, Measure(SPACE2, [0.8, 0.2])], [0.5, 0.5]
        )
        np.testing.assert_allclose(out.weights, [2.0 / 3.0, 1.0 / 3.0], atol=1e-14)

    def test_degenerate_weight_returns_first_measure(self):
        r0 = Measure(SPACE2, [0.9, 0.1])
        out = geometric_mean_measure([r0, BASE2], [1.0, 0.0])
        np.testing.assert_allclose(out.weights, r0.weights, atol=1e-15)

    def test_weight_sum_is_enforced(self):
        with pytest.raises(ContractError):
            geometric_mean_measure([BASE2, BASE2], [0.7, 0.31])

    @given(w1=weights_strategy(), w2=weights_strategy(), lam=st.floats(0.05, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_output_strictly_positive_with_finite_entropy(self, w1, w2, lam):
        space = StateSpace(np.full(4, 0.25))
        r1, r2 = Measure(space, w1), Measure(space, w2)
        out = geometric_mean_measure([r1, r2], [lam, 1.0 - lam])
        assert np.all(out.weights > 0)
        for r in (r1, r2):
            h = relative_entropy(out, r)
            assert np.isfinite(h) and h >= -1e-15


class TestRelativeEntropy:
    def test_zero_on_equal(self):
        q = Measure(SPACE2, [0.8, 0.2])
        assert relative_entropy(q, q) == 0.0

    def test_hand_value(self):
        # 0.8*log(1.6) + 0.2*log(0.4) = 0.1927448...
        got = relative_entropy(Measure(SPACE2, [0.8, 0.2]), BASE2)
        assert got == pytest.approx(0.8 * math.log(1.6) + 0.2 * math.log(0.4), abs=1e-15)
        assert got == pytest.approx(0.19274, abs=5e-6)

    def test_asymmetry(self):
        a = relative_entropy(Measure(SPACE2, [0.8, 0.2]), BASE2)
        b = relative_entropy(BASE2, Measure(SPACE2, [0.8, 0.2]))
        assert b == pytest.approx(0.22314, abs=5e-6)
        assert a != b

    @given(w1=weights_strategy(), w2=weights_strategy())
    @example(  # about 1e-6 apart, with an entropy of 2.6e-12
        w1=np.array([1.0, 2.0, 2.0, 2.0]) / 7.0,
        w2=np.array([0.14285694, 0.28571388, 0.28571388, 0.28571531]) / 1.00000001,
    )
    @settings(max_examples=100, deadline=None)
    def test_gibbs_inequality(self, w1, w2):
        space = StateSpace(np.full(4, 0.25))
        q2, q1 = Measure(space, w2), Measure(space, w1)
        h = relative_entropy(q2, q1)
        assert h >= -1e-14
        # Relative entropy is at most the chi-square divergence, so nearly
        # equal weights give nearly zero entropy.
        chi2 = np.sum((q2.weights - q1.weights) ** 2 / q1.weights)
        assert h <= chi2 + 1e-14
        if h == 0.0:
            np.testing.assert_allclose(w1, w2, atol=1e-12)


class TestMoments:
    def test_expectation_of_constant(self):
        assert expect(BASE2, RandomVariable(SPACE2, [3.5, 3.5])) == 3.5

    def test_symmetric_expectation(self):
        assert expect(BASE2, RandomVariable(SPACE2, [1.0, -1.0])) == 0.0

    def test_hand_expectation(self):
        q = Measure(SPACE2, [0.25, 0.75])
        assert expect(q, RandomVariable(SPACE2, [4.0, 0.0])) == 1.0

    def test_variance_of_constant_is_zero(self):
        assert variance(BASE2, RandomVariable(SPACE2, [2.0, 2.0])) == 0.0

    def test_variance_hand_value_and_scaling(self):
        x = RandomVariable(SPACE2, [1.0, -1.0])
        assert variance(BASE2, x) == pytest.approx(1.0, abs=1e-15)
        scaled = RandomVariable(SPACE2, 3.0 * x.values)
        assert variance(BASE2, scaled) == pytest.approx(9.0 * variance(BASE2, x), rel=1e-12)
