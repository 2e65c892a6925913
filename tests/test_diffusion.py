"""Schedules, forward process, posteriors, and samplers."""

import math

import numpy as np
import pytest

from groupattr import (
    DenoiserParams,
    GaussianLaw,
    build_schedule,
    forward_marginal,
    model_posterior,
    sample,
    true_posterior,
)
from groupattr.training import KernelDenoiser


def linear_schedule(betas):
    # Exact beta endpoints make np.linspace reproduce the given vector.
    return build_schedule(len(betas), "linear", beta_start=betas[0], beta_end=betas[-1])


class TestBuildSchedule:
    def test_two_step_linear(self):
        s = linear_schedule([0.1, 0.2])
        np.testing.assert_allclose(s.alpha_bars, [0.9, 0.72], rtol=1e-15)
        np.testing.assert_allclose(s.sigmas, [math.sqrt(0.1), math.sqrt(0.28)], rtol=1e-15)

    def test_single_step_linear(self):
        s = build_schedule(1, "linear", beta_start=0.5)
        np.testing.assert_allclose(s.alpha_bars, [0.5], rtol=1e-15)

    def test_squared_cosine_matches_reference(self):
        """Independent pure-python evaluation of the cosine formula."""
        T = 4000
        off = 0.008

        def f(t):
            return math.cos(((t / T + off) / (1 + off)) * math.pi / 2) ** 2

        abar = 1.0
        ref = []
        for t in range(1, T + 1):
            beta = min(1.0 - f(t) / f(t - 1), 0.999)
            abar *= 1.0 - beta
            ref.append(abar)

        s = build_schedule(T, "squared_cosine")
        np.testing.assert_allclose(s.alpha_bars, ref, rtol=1e-12)
        # Frozen endpoint value from the reference loop.
        assert s.alpha_bars[-1] == pytest.approx(1.5179804688514517e-10, rel=1e-12)

    def test_invariants(self):
        for s in (build_schedule(50, "squared_cosine"), linear_schedule([0.01, 0.1, 0.3])):
            np.testing.assert_allclose(s.sigmas**2 + s.alpha_bars, 1.0, atol=1e-12)
            np.testing.assert_allclose(
                s.alpha_bars, np.cumprod(1.0 - s.betas), rtol=1e-12
            )
            assert np.all(np.diff(s.alpha_bars) < 0)
            assert np.all((s.betas > 0) & (s.betas < 1))

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError):
            build_schedule(0, "linear")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_schedule(10, "sigmoid")

    def test_schedule_arrays_immutable(self):
        s = build_schedule(10, "squared_cosine")
        with pytest.raises(ValueError):
            s.betas[0] = 0.5


class TestForwardMarginal:
    def setup_method(self):
        self.s = linear_schedule([0.1, 0.2])

    def test_zero_noise(self):
        x0 = np.array([1.5, -2.0])
        out = forward_marginal(self.s, x0, 2, np.zeros(2))
        np.testing.assert_allclose(out, math.sqrt(0.72) * x0, rtol=1e-15)

    def test_direct_substitution(self):
        out = forward_marginal(self.s, np.array([1.0]), 2, np.array([1.0]))
        assert out[0] == pytest.approx(1.3777, abs=1e-4)

    def test_zero_data(self):
        eps = np.array([0.3, -0.7])
        out = forward_marginal(self.s, np.zeros(2), 2, eps)
        np.testing.assert_allclose(out, math.sqrt(0.28) * eps, rtol=1e-15)

    def test_out_of_range_t(self):
        with pytest.raises(ValueError):
            forward_marginal(self.s, np.zeros(2), 3, np.zeros(2))
        with pytest.raises(ValueError):
            forward_marginal(self.s, np.zeros(2), 0, np.zeros(2))

    def test_marginal_composition(self):
        """Composing one-step kernels reproduces the marginal coefficients.

        mean factor: prod sqrt(1 - beta_t); variance: v_t = (1-beta_t)
        v_{t-1} + beta_t must equal sigma_t^2.
        """
        s = build_schedule(16, "squared_cosine")
        mean_coef, var = 1.0, 0.0
        for t in range(1, 17):
            beta = s.beta(t)
            mean_coef *= math.sqrt(1.0 - beta)
            var = (1.0 - beta) * var + beta
            assert mean_coef == pytest.approx(math.sqrt(s.alpha_bar(t)), abs=1e-9)
            assert var == pytest.approx(s.sigma(t) ** 2, abs=1e-9)


def posterior_mean_by_quadrature(s, x0, xt, t):
    """1-D oracle: q(x_{t-1} | x_t, x_0) via Bayes rule on a grid.

    q(x_{t-1}|x_t,x_0) is proportional to q(x_t|x_{t-1}) q(x_{t-1}|x_0)
    with q(x_t|x_{t-1}) = N(sqrt(1-beta_t) x_{t-1}, beta_t) and
    q(x_{t-1}|x_0) = N(sqrt(abar_{t-1}) x_0, 1 - abar_{t-1}).
    """
    beta = s.beta(t)
    abar_prev = s.alpha_bar(t - 1)
    grid = np.linspace(-20, 20, 400001)
    log_lik = -((xt - math.sqrt(1 - beta) * grid) ** 2) / (2 * beta)
    log_prior = -((grid - math.sqrt(abar_prev) * x0) ** 2) / (2 * (1 - abar_prev))
    logw = log_lik + log_prior
    w = np.exp(logw - logw.max())
    w /= w.sum()
    return float(np.sum(w * grid))


class TestTruePosterior:
    def test_small_beta_limit_mean_near_xt(self):
        s = linear_schedule([1e-8, 1e-8])
        xt = np.array([0.7])
        law = true_posterior(s, np.array([0.7]), xt, 2)
        np.testing.assert_allclose(law.mean, xt, atol=1e-7)

    def test_symmetric_case_matches_quadrature(self):
        s = linear_schedule([0.1, 0.2])
        x0, xt = 0.8, -0.8
        law = true_posterior(s, np.array([x0]), np.array([xt]), 2)
        oracle = posterior_mean_by_quadrature(s, x0, xt, 2)
        assert law.mean[0] == pytest.approx(oracle, abs=1e-6)

    def test_generic_case_matches_quadrature(self):
        s = build_schedule(10, "squared_cosine")
        rng = np.random.default_rng(7)
        for t in (2, 5, 10):
            x0, xt = rng.normal(size=2)
            law = true_posterior(s, np.array([x0]), np.array([xt]), t)
            oracle = posterior_mean_by_quadrature(s, x0, xt, t)
            assert law.mean[0] == pytest.approx(oracle, abs=1e-6)

    def test_variance_direct(self):
        s = linear_schedule([0.1, 0.2])
        law = true_posterior(s, np.zeros(1), np.zeros(1), 2)
        assert law.variance == pytest.approx((0.1 / 0.28) * 0.2, rel=1e-12)

    def test_t1_rejected(self):
        s = linear_schedule([0.1, 0.2])
        with pytest.raises(ValueError):
            true_posterior(s, np.zeros(1), np.zeros(1), 1)


class TestModelPosterior:
    def test_exact_eps_recovers_true_posterior(self):
        s = build_schedule(12, "squared_cosine")
        rng = np.random.default_rng(0)
        for t in range(2, 13):
            x0 = rng.normal(size=3)
            eps = rng.normal(size=3)
            xt = forward_marginal(s, x0, t, eps)
            q = true_posterior(s, x0, xt, t)
            p = model_posterior(s, eps, xt, t)
            np.testing.assert_allclose(p.mean, q.mean, atol=1e-10)
            assert p.variance == pytest.approx(q.variance, rel=1e-12)

    def test_zero_eps_hat(self):
        s = linear_schedule([0.1, 0.2])
        xt = np.array([2.0, -1.0])
        p = model_posterior(s, np.zeros(2), xt, 2)
        np.testing.assert_allclose(p.mean, xt / math.sqrt(0.8), rtol=1e-14)

    def test_random_scalar_hand_expansion(self):
        s = linear_schedule([0.1, 0.2])
        eps_hat, xt = 0.37, -1.21
        p = model_posterior(s, np.array([eps_hat]), np.array([xt]), 2)
        # (xt - beta_2 / sqrt(1 - abar_2) * eps_hat) / sqrt(alpha_2)
        expected = (xt - 0.2 / math.sqrt(0.28) * eps_hat) / math.sqrt(0.8)
        assert p.mean[0] == pytest.approx(expected, rel=1e-12)

    def test_out_of_range(self):
        s = linear_schedule([0.1, 0.2])
        with pytest.raises(ValueError):
            model_posterior(s, np.zeros(1), np.zeros(1), 3)


class TestGaussianLaw:
    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            GaussianLaw(np.zeros(2), 0.0)


class TestSample:
    def setup_method(self):
        self.s = build_schedule(60, "squared_cosine")

    def test_deterministic_given_seed(self):
        den = KernelDenoiser(np.array([[1.0, 2.0]]), self.s)
        a = sample(self.s, den, [5], steps=60)
        b = sample(self.s, den, [5], steps=60)
        np.testing.assert_array_equal(a, b)

    def test_single_point_attractor(self):
        """Exact denoiser of a 1-point dataset pulls samples onto it."""
        x_star = np.array([1.0, -2.0])
        den = KernelDenoiser(x_star[None, :], self.s)
        for out in sample(self.s, den, range(4), steps=60):
            assert np.linalg.norm(out - x_star) < 0.1

    def test_identical_denoisers_identical_samples(self):
        pts = np.random.default_rng(3).normal(size=(6, 2))
        a = sample(self.s, KernelDenoiser(pts, self.s), [11], steps=60)
        b = sample(self.s, KernelDenoiser(pts.copy(), self.s), [11], steps=60)
        np.testing.assert_array_equal(a, b)

    def test_ddim_deterministic_and_distinct_seeds(self):
        den = KernelDenoiser(np.array([[0.0, 0.0], [3.0, 3.0]]), self.s)
        a = sample(self.s, den, [1], steps=30, method="ddim")
        b = sample(self.s, den, [1], steps=30, method="ddim")
        np.testing.assert_array_equal(a, b)
        # The exact 2-point denoiser collapses every run onto a data
        # point; different seeds must reach both attractors.
        outs = {tuple(np.round(row, 6))
                for row in sample(self.s, den, range(6), steps=30, method="ddim")}
        assert len(outs) == 2

    def test_too_many_steps_rejected(self):
        den = KernelDenoiser(np.zeros((1, 2)), self.s)
        with pytest.raises(ValueError):
            sample(self.s, den, [0], steps=61)
