"""Root-finding kernels: vectorised exp-linear solves and bracket expansion."""

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import logsumexp as scipy_logsumexp

from risksharing.errors import SolverError
from risksharing.roots import brent_root, find_bracket_increasing, logsumexp, solve_exp_linear


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


class TestBracketing:
    def test_finds_increasing_root(self):
        lo, hi = find_bracket_increasing(lambda x: x - 17.3, x0=0.0)
        assert lo <= 17.3 <= hi
        assert brent_root(lambda x: x - 17.3, lo, hi) == pytest.approx(17.3, abs=1e-12)

    def test_downward_expansion(self):
        lo, hi = find_bracket_increasing(lambda x: x + 9.1, x0=0.0)
        assert lo <= -9.1 <= hi

    def test_expansion_bound_raises(self):
        with pytest.raises(SolverError) as err:
            find_bracket_increasing(lambda x: -1.0, x0=0.0, max_abs=100.0)
        assert "bracket" in str(err.value)
        assert err.value.diagnostics["direction"] == "up"

    def test_brent_matches_scipy_brentq(self):
        rng = np.random.default_rng(73)
        for _ in range(200):
            c, k = rng.normal(0.0, 5.0), rng.uniform(0.01, 10.0)

            def f(x):
                return np.expm1(x - c) + k * (x - c)

            lo, hi = find_bracket_increasing(f, x0=0.0)
            want = brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=200)
            assert brent_root(f, lo, hi) == pytest.approx(want, abs=1e-14 * (1 + abs(want)))

    def test_brent_needs_sign_change(self):
        with pytest.raises(SolverError):
            brent_root(lambda x: x + 1.0, 0.0, 1.0)


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
