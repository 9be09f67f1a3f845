"""Root-finding kernels: vectorised exp-linear solves and the safeguarded scalar Newton."""

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import logsumexp as scipy_logsumexp

from risksharing.errors import SolverError
from risksharing.roots import increasing_root, logsumexp, solve_exp_linear


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
        with pytest.raises(SolverError) as err:
            increasing_root(f, 0.0, 100.0)
        diag = err.value.diagnostics
        assert set(diag) == {"x", "f", "lo", "hi"}
        assert abs(diag[unseen]) == 100.0  # that end of the bracket never saw its sign
        assert diag["f"] != 0.0

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
