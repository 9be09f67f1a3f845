"""Root-finding kernels: vectorised exp-linear solves and the safeguarded scalar Newton."""

import functools
import operator
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import brentq
from scipy.special import logsumexp as scipy_logsumexp

from helpers import force_blocks
from risksharing import roots
from risksharing.errors import SolverError
from risksharing.roots import KERNEL_RTOL, increasing_root, logsumexp, solve_exp_linear


class TestExpLinear:
    def test_matches_scalar_brent_oracle(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            alpha = float(rng.uniform(0.01, 100.0))
            beta = float(rng.uniform(0.01, 100.0))
            rhs = float(rng.normal(0.0, 50.0))
            got = float(solve_exp_linear(alpha, beta, rhs))
            lo, hi = -1e6, 1e6

            def f(u):
                return alpha * np.expm1(u) + beta * u - rhs

            want = brentq(f, lo, min(hi, 700.0), xtol=1e-14, rtol=8.9e-16)
            assert got == pytest.approx(want, abs=1e-11 * (1 + abs(want)))

    def test_vectorised_residuals(self):
        rng = np.random.default_rng(72)
        alpha = rng.uniform(0.1, 10.0, 200)
        beta = rng.uniform(0.1, 10.0, 200)
        rhs = rng.normal(0.0, 30.0, 200)
        u = solve_exp_linear(alpha, beta, rhs)
        resid = alpha * np.expm1(u) + beta * u - rhs
        assert np.all(np.abs(resid) <= 1e-12 * (1.0 + np.abs(rhs)))

    def test_extreme_coefficients(self):
        # Tolerances up to 1e12 appear when one agent is nearly risk neutral.
        u = solve_exp_linear(1.0, 1e12, np.array([-1e10, 0.0, 1e10]))
        resid = 1.0 * np.expm1(u) + 1e12 * u - np.array([-1e10, 0.0, 1e10])
        assert np.all(np.abs(resid) <= 1e-12 * (1.0 + 1e10))

    def test_zero_rhs_gives_zero(self):
        assert float(solve_exp_linear(3.0, 2.0, 0.0)) == 0.0

    def test_sign_matches_rhs(self):
        assert float(solve_exp_linear(1.0, 1.0, 5.0)) > 0
        assert float(solve_exp_linear(1.0, 1.0, -5.0)) < 0

    @pytest.mark.parametrize(
        "where", ["below", "above", "far-below", "far-above", "nan", "inf", "-inf"]
    )
    def test_any_start_reaches_the_same_root(self, where):
        """From a start below or above the root, outside the bracket, or not
        finite, the kernel reaches the root it reaches from the bracket's upper
        end: each result is within ``KERNEL_RTOL * (1 + |rhs|)`` of it in the
        residual, so the two lie within twice that over the smaller slope."""
        rng = np.random.default_rng(74)
        alpha = rng.uniform(0.1, 10.0, 300)
        beta = rng.uniform(0.1, 10.0, 300)
        rhs = rng.normal(0.0, 30.0, 300)
        cold = solve_exp_linear(alpha, beta, rhs)
        start = {
            "below": cold - rng.uniform(0.0, 3.0, 300),
            "above": cold + rng.uniform(0.0, 3.0, 300),
            "far-below": np.full(300, -1e6),
            "far-above": np.full(300, 1e6),
            "nan": np.full(300, np.nan),
            "inf": np.full(300, np.inf),
            "-inf": np.full(300, -np.inf),
        }[where]
        u = solve_exp_linear(alpha, beta, rhs, start=start)
        tol = KERNEL_RTOL * (1.0 + np.abs(rhs))
        assert np.all(np.abs(alpha * np.expm1(u) + beta * u - rhs) <= tol)
        slope = alpha * np.exp(np.minimum(u, cold)) + beta
        assert np.all(np.abs(u - cold) <= 2.0 * tol / slope)

    def test_start_at_the_root_is_returned(self):
        """A start that already meets the tolerance costs one residual pass and
        comes back unchanged, as a new array."""
        alpha, beta, rhs = np.array([0.5, 2.0]), np.array([1.0, 3.0]), np.array([-4.0, 7.0])
        root = solve_exp_linear(alpha, beta, rhs)
        u = solve_exp_linear(alpha, beta, rhs, start=root)
        assert np.array_equal(u, root) and u is not root

    def test_spent_passes_accept_a_residual_within_1e_12(self, monkeypatch):
        """A tolerance no pass can meet spends every pass; the last iterate is
        then accepted because its residual is within ``1e-12 * (1 + |rhs|)``."""
        alpha, beta, rhs = np.array([0.5, 2.0]), np.array([1.0, 3.0]), np.array([-4.0, 7.0])
        want = solve_exp_linear(alpha, beta, rhs)
        monkeypatch.setattr(roots, "KERNEL_RTOL", -1.0)
        monkeypatch.setattr(roots, "KERNEL_MAX_ITER", 30)
        got = solve_exp_linear(alpha, beta, rhs)
        residual = alpha * np.expm1(got) + beta * got - rhs
        assert np.all(np.abs(residual) <= 1e-12 * (1 + np.abs(rhs)))
        assert np.allclose(got, want, rtol=0.0, atol=1e-13)

    def test_spent_passes_with_a_large_residual_raise(self, monkeypatch):
        """One pass from the upper end leaves the residual far above 1e-12: a
        ``SolverError`` that names the worst state, its residual and its rhs."""
        alpha, beta, rhs = np.ones(3), np.ones(3), np.array([0.0, 50.0, -3.0])
        monkeypatch.setattr(roots, "KERNEL_MAX_ITER", 1)
        with pytest.raises(SolverError, match="did not converge") as err:
            solve_exp_linear(alpha, beta, rhs)
        diag = err.value.diagnostics
        assert set(diag) == {"max_residual", "worst_index", "rhs"}
        assert diag["worst_index"] in (1, 2) and diag["rhs"] == rhs[diag["worst_index"]]
        assert diag["max_residual"] > 1e-12 * (1.0 + abs(diag["rhs"]))


def where_kernel(alpha, beta, rhs, start=None):
    """The kernel as it was before it updated its iterate in place: every pass
    builds a new ``u`` with ``np.where``.  The reference for the in-place one."""
    alpha, beta, rhs = (np.asarray(x, dtype=float) for x in (alpha, beta, rhs))
    alpha, beta, rhs = np.broadcast_arrays(alpha, beta, rhs)
    pos = rhs >= 0.0
    lo = np.where(pos, 0.0, rhs / beta)
    hi = np.where(pos, np.minimum(rhs / beta, np.log1p(np.maximum(rhs, 0.0) / alpha)), 0.0)
    u = hi.copy() if start is None else np.where(np.isfinite(start), np.clip(start, lo, hi), hi)
    tol = KERNEL_RTOL * (1.0 + np.abs(rhs))
    for _ in range(roots.KERNEL_MAX_ITER):
        g = alpha * np.expm1(u) + beta * u - rhs
        active = np.abs(g) > tol
        if not active.any():
            break
        du = g / (alpha * np.exp(u) + beta)
        u = np.where(active, np.clip(u - du, lo, hi), u)
    return u


def magnitudes(lo, hi):
    """Positive floats spread evenly over the decades ``10**lo`` to ``10**hi``."""
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def kernel_cases(draw):
    """Mutually broadcastable ``alpha``, ``beta`` and ``rhs``, with coefficients over
    twelve decades and ``rhs`` of either sign over twenty-four, and a start (or None)
    of the result's shape: NaN, +-inf, or finite, inside or outside the bracket."""
    shapes = draw(hnp.mutually_broadcastable_shapes(num_shapes=3, max_dims=3, max_side=4))
    alpha, beta = (
        draw(hnp.arrays(float, s, elements=magnitudes(-6, 6))) for s in shapes.input_shapes[:2]
    )
    signed = st.builds(operator.mul, st.sampled_from([-1.0, 1.0]), magnitudes(-12, 12))
    rhs = draw(hnp.arrays(float, shapes.input_shapes[2], elements=st.just(0.0) | signed))
    not_finite = st.sampled_from([np.nan, np.inf, -np.inf])
    starts = not_finite | st.floats(-1.0, 1.0) | st.floats(-1e6, 1e6)
    start = draw(st.none() | hnp.arrays(float, shapes.result_shape, elements=starts))
    return alpha, beta, rhs, start


class TestInPlaceKernel:
    @given(case=kernel_cases())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_same_bits_as_the_where_kernel(self, case):
        want = where_kernel(*case)
        got = solve_exp_linear(*case)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestIncreasingRoot:
    def test_matches_scipy_brentq(self):
        rng = np.random.default_rng(73)
        for _ in range(200):
            c, k = rng.normal(0.0, 5.0), rng.uniform(0.01, 10.0)

            def f(x):
                return np.expm1(x - c) + k * (x - c)

            def f_slope(x):
                return f(x), np.exp(x - c) + k, None

            want = brentq(f, -50.0, 50.0, xtol=1e-14, rtol=8.9e-16, maxiter=200)
            got, _ = increasing_root(f_slope, 0.0, 50.0)
            assert got == pytest.approx(want, abs=1e-14 * (1 + abs(want)))

    def test_returns_state_of_last_evaluation(self):
        seen = []

        def f(x):
            seen.append(x)
            return x - 17.3, 1.0, len(seen)

        root, state = increasing_root(f, 0.0, 1e6)
        assert root == seen[-1] == pytest.approx(17.3, abs=1e-12)
        assert state == len(seen)

    @pytest.mark.parametrize(
        "f, unseen",
        [(lambda x: (-1.0, 0.0, None), "hi"), (lambda x: (x + 200.0, 1.0, None), "lo")],
        ids=["below", "above"],
    )
    def test_no_sign_change_raises(self, f, unseen):
        with pytest.raises(SolverError, match="no root .* within the bound") as err:
            increasing_root(f, 0.0, 100.0)
        diag = err.value.diagnostics
        assert set(diag) == {"x", "f", "lo", "hi"}
        assert abs(diag[unseen]) == 100.0  # that end of the bracket never saw its sign
        assert diag["f"] != 0.0

    def test_nan_value_raises(self):
        """A NaN value has no sign: the search stops there, not at a bound."""
        with pytest.raises(SolverError, match="not finite at x = 2.0") as err:
            increasing_root(lambda x: (np.nan, 1.0, None), 2.0, 100.0)
        diag = err.value.diagnostics
        assert np.isnan(diag["f"]) and diag["x"] == 2.0
        assert (diag["lo"], diag["hi"]) == (-100.0, 100.0)

    def test_bisects_when_newton_overshoots(self):
        # Newton on arctan diverges from 0: its second step lands at -120,
        # outside the bracket [0, 12.49] the first two values give.
        xs = []

        def f(x):
            xs.append(x)
            return np.arctan(x - 3.0), 1.0 / (1.0 + (x - 3.0) ** 2), None

        root, _ = increasing_root(f, 0.0, 1e6)
        assert root == pytest.approx(3.0, abs=1e-14)
        assert xs[2] == 0.5 * (xs[0] + xs[1])
        assert all(0.0 <= x <= xs[1] for x in xs)


class TestBlocks:
    """Forced onto blocks of its last axis in worker threads, the kernel gives
    the one-block bits, and on failure the one-block diagnostics.  An axis of
    ``n`` elements makes ``n // BLOCK_MIN`` blocks, dealt in contiguous runs
    to ``min(WORKERS, blocks)`` threads, the first run on the caller's; the
    kernel is elementwise, so it solves each run as one view."""

    @pytest.mark.parametrize("workers", [2, 3, 4])
    @pytest.mark.parametrize("started", [False, True], ids=["cold", "started"])
    def test_stacked_blocks_give_the_one_block_bits(self, monkeypatch, workers, started):
        rng = np.random.default_rng(75)
        alpha, beta = rng.uniform(0.1, 10.0, (2, 1)), rng.uniform(0.1, 10.0, (2, 1))
        rhs = rng.normal(0.0, 30.0, (3, 2, 1000))
        start = None
        if started:
            start = rhs / beta + rng.normal(0.0, 1.0, rhs.shape)
            start[..., ::7] = np.nan
        want = solve_exp_linear(alpha, beta, rhs, start)
        threads = force_blocks(monkeypatch, workers, 100)
        got = solve_exp_linear(alpha, beta, rhs, start)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        caller = threading.current_thread().name
        assert len(threads) == workers and threads.count(caller) == 1
        assert all(name.startswith("risksharing") for name in threads if name != caller)

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_partial_sums_fold_over_blocks_fixed_by_the_length(self, monkeypatch, workers):
        """1,000 elements make 10 blocks of 100 whatever the workers: each
        block's partial sum and maximum, folded in block order, are the
        bytes of the same fold done by hand, and a second phase gets the
        first's folded items.  The calling thread runs the first of
        ``min(workers, 10)`` runs: on one worker block by block, and on
        several in one call per run."""
        x = np.random.default_rng(76).normal(0.0, 1.0, (3, 1000)) * np.logspace(0, 12, 1000)
        blocks = [slice(100 * j, 100 * (j + 1)) for j in range(10)]
        parts = [(np.sum(x[:, b], axis=1, keepdims=True), np.max(x[:, b], axis=1, keepdims=True))
                 for b in blocks]
        want = [functools.reduce(op, items) for op, items in zip((np.add, np.maximum), zip(*parts))]
        mass = functools.reduce(np.add, [np.sum(np.exp(x[:, b] - want[1]), axis=1, keepdims=True)
                                         for b in blocks])
        threads = force_blocks(monkeypatch, workers, 100)

        def fn(part, v):
            _, top = yield part(np.add, v), part(np.maximum, v)
            yield (part(np.add, np.exp(v - top)),)

        got, (got_mass,) = roots.folded_over_blocks(fn, (x,))
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert got_mass.tobytes() == mass.tobytes()
        assert got[0].tobytes() != np.sum(x, axis=1, keepdims=True).tobytes()  # not one sum
        caller = threading.current_thread().name
        calls = 10 if workers == 1 else workers
        assert len(threads) == calls and threads.count(caller) == calls // workers

    def test_a_0d_rhs_is_one_block(self, monkeypatch):
        want = solve_exp_linear(2.0, 3.0, 5.0, start=7.0)
        threads = force_blocks(monkeypatch, 4, 1)
        got = solve_exp_linear(2.0, 3.0, 5.0, start=7.0)
        assert got.shape == () and got.tobytes() == want.tobytes()
        assert threads == [threading.current_thread().name]

    def test_a_block_that_does_not_converge_names_the_global_worst_state(self, monkeypatch):
        """One pass leaves two states unconverged, in the first and the last
        block; the error is the one-block error, and ``worst_index`` is the
        flat index of the worst state in the whole array."""
        alpha, beta, rhs = np.ones((2, 1)), np.ones((2, 1)), np.zeros((3, 2, 1000))
        rhs[0, 0, 10], rhs[2, 1, 990] = 0.5, 50.0
        monkeypatch.setattr(roots, "KERNEL_MAX_ITER", 1)
        with pytest.raises(SolverError, match="did not converge") as one:
            solve_exp_linear(alpha, beta, rhs)
        threads = force_blocks(monkeypatch, 4, 100)
        with pytest.raises(SolverError, match="did not converge") as blocks:
            solve_exp_linear(alpha, beta, rhs)
        assert len(threads) == 4
        assert blocks.value.diagnostics == one.value.diagnostics
        assert one.value.diagnostics["worst_index"] == np.ravel_multi_index((2, 1, 990), rhs.shape)


def test_logsumexp_matches_scipy():
    rng = np.random.default_rng(74)
    for scale in (1.0, 30.0, 700.0):
        a = rng.normal(0.0, scale, (3, 40))
        a[:, 0] = a[:, 1] = a.max(axis=1)  # a tie at each row's maximum
        for axis in (None, 0, 1):
            np.testing.assert_allclose(
                logsumexp(a, axis=axis), scipy_logsumexp(a, axis=axis), rtol=1e-15, atol=0.0
            )
    assert isinstance(logsumexp(np.zeros(4)), float)
