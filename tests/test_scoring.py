"""ELBO estimation, KL correctness, and paired score differences."""

import math

import numpy as np
import pytest

from groupattr import (
    Architecture,
    DatasetSpec,
    ElboConfig,
    TrainConfig,
    build_schedule,
    elbo_estimate,
    gaussian_kl_isotropic,
    generate_grouped_dataset,
    init_network,
    paired_score_difference,
)
from groupattr.training import KernelDenoiser, train_full

S = build_schedule(60, "squared_cosine")


def kl_by_quadrature(mu_q, mu_p, variance):
    """1-D KL(q || p) via direct numerical integration of q log(q/p)."""
    sd = math.sqrt(variance)
    grid = np.linspace(mu_q - 12 * sd, mu_q + 12 * sd, 200_001)
    log_q = -((grid - mu_q) ** 2) / (2 * variance)
    log_p = -((grid - mu_p) ** 2) / (2 * variance)
    q = np.exp(log_q) / math.sqrt(2 * math.pi * variance)
    return float(np.trapezoid(q * (log_q - log_p), grid))


class TestGaussianKl:
    def test_identical_means(self):
        assert gaussian_kl_isotropic(np.ones(3), np.ones(3), 0.5) == 0.0

    def test_direct_substitution(self):
        mu_q = np.array([1.0, 0.0])
        mu_p = np.array([0.0, 1.0])  # squared distance 2
        assert gaussian_kl_isotropic(mu_q, mu_p, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_matches_quadrature_worked_example(self):
        val = gaussian_kl_isotropic(np.array([0.0]), np.array([0.5]), 0.25)
        assert val == pytest.approx(0.5, rel=1e-12)
        assert val == pytest.approx(kl_by_quadrature(0.0, 0.5, 0.25), abs=1e-6)

    def test_matches_quadrature_random(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            mu_q, mu_p = rng.normal(size=2)
            var = float(rng.uniform(0.05, 2.0))
            analytic = gaussian_kl_isotropic(np.array([mu_q]), np.array([mu_p]), var)
            assert analytic == pytest.approx(kl_by_quadrature(mu_q, mu_p, var), abs=1e-6)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            gaussian_kl_isotropic(np.zeros(1), np.zeros(1), 0.0)


class TestElboConfig:
    def test_grid(self):
        cfg = ElboConfig(stride=10, t_min=2, t_max=60, noise_seed=0)
        assert list(cfg.grid()) == [2, 12, 22, 32, 42, 52]

    def test_validation(self):
        with pytest.raises(ValueError):
            ElboConfig(stride=0, t_min=2, t_max=10, noise_seed=0)
        with pytest.raises(ValueError):
            ElboConfig(stride=1, t_min=1, t_max=10, noise_seed=0)
        with pytest.raises(ValueError):
            ElboConfig(stride=1, t_min=11, t_max=10, noise_seed=0)


class ExactNoiseDenoiser:
    """Cheating block denoiser that replays the elbo noise stream on every row."""

    input_dim = 2

    def __init__(self, cfg):
        self.cfg = cfg

    def __call__(self, xt, t, cond=None):
        from groupattr.seeding import rng_for

        return np.stack([rng_for(self.cfg.noise_seed, t, 0).standard_normal(2) for _ in xt])


class TestElboEstimate:
    def setup_method(self):
        self.cfg = ElboConfig(stride=7, t_min=2, t_max=60, noise_seed=41)

    def test_exact_noise_gives_zero(self):
        den = ExactNoiseDenoiser(self.cfg)
        val = elbo_estimate(den, np.array([0.4, -1.0]), None, self.cfg, S)
        assert val == pytest.approx(0.0, abs=1e-18)

    def test_seeded_determinism(self):
        p = init_network(Architecture(2, (8,), 4), seed=3)
        x0 = np.array([0.2, 0.1])
        a = elbo_estimate(p, x0, None, self.cfg, S)
        b = elbo_estimate(p, x0, None, self.cfg, S)
        assert a == b

    def test_single_point_kernel_is_maximal(self):
        """The kernel denoiser of {x0} predicts the exact noise at every
        timestep, so every KL term vanishes."""
        x0 = np.array([1.0, -2.0])
        den = KernelDenoiser(x0[None, :], S)
        val = elbo_estimate(den, x0, None, self.cfg, S)
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_nonzero_for_imperfect_model(self):
        p = init_network(Architecture(2, (8,), 4), seed=3)
        assert elbo_estimate(p, np.array([0.2, 0.1]), None, self.cfg, S) < 0.0

    def test_grid_additivity(self):
        """ELBO over a union of disjoint grids is the sum of the parts."""
        p = init_network(Architecture(2, (8,), 4), seed=5)
        x0 = np.array([0.5, 0.5])
        full = ElboConfig(stride=10, t_min=2, t_max=60, noise_seed=8)
        evens = ElboConfig(stride=20, t_min=2, t_max=60, noise_seed=8)
        odds = ElboConfig(stride=20, t_min=12, t_max=60, noise_seed=8)
        assert set(full.grid()) == set(evens.grid()) | set(odds.grid())
        e_full = elbo_estimate(p, x0, None, full, S)
        e_sum = elbo_estimate(p, x0, None, evens, S) + elbo_estimate(p, x0, None, odds, S)
        assert e_full == pytest.approx(e_sum, rel=1e-12)

    def test_t_max_beyond_schedule_rejected(self):
        cfg = ElboConfig(stride=10, t_min=2, t_max=61, noise_seed=0)
        p = init_network(Architecture(2, (8,), 4), seed=3)
        with pytest.raises(ValueError):
            elbo_estimate(p, np.zeros(2), None, cfg, S)

    def test_monotone_degradation_under_weight_noise(self):
        """Growing weight corruption cannot raise the median ELBO."""
        spec = DatasetSpec(n_groups=2, samples_per_group=40, radius=3.0, noise_std=0.4)
        d = generate_grouped_dataset(spec, seed=2)
        arch = Architecture(2, (16, 16), 8)
        run = train_full(d, arch, TrainConfig(epochs=60, batch_size=32, lr=1e-3, seed=3), S)
        x0 = d.groups[0][0]
        cfg = ElboConfig(stride=10, t_min=2, t_max=60, noise_seed=17)
        medians = []
        for scale in (0.0, 0.05, 0.15, 0.5, 2.0):
            vals = []
            for seed in range(16):
                noise = np.random.default_rng(seed).standard_normal(run.params.param_count)
                corrupted = run.params.with_weights(run.params.weights + scale * noise)
                vals.append(elbo_estimate(corrupted, x0, None, cfg, S))
            medians.append(float(np.median(vals)))
        assert all(b <= a + 1e-9 for a, b in zip(medians, medians[1:]))


class TestPairedScoreDifference:
    def setup_method(self):
        self.cfg = ElboConfig(stride=10, t_min=2, t_max=60, noise_seed=23)
        self.arch = Architecture(2, (8,), 4)

    def test_identical_models_exactly_zero(self):
        p = init_network(self.arch, seed=1)
        diff = paired_score_difference(p, p, np.array([0.1, 0.2]), None, self.cfg, S)
        assert diff == 0.0

    def test_antisymmetry(self):
        a = init_network(self.arch, seed=1)
        b = init_network(self.arch, seed=2)
        x0 = np.array([0.3, -0.4])
        ab = paired_score_difference(a, b, x0, None, self.cfg, S)
        ba = paired_score_difference(b, a, x0, None, self.cfg, S)
        assert ab == -ba != 0.0

    def test_dimension_mismatch_rejected(self):
        a = init_network(self.arch, seed=1)
        b = init_network(Architecture(3, (8,), 4), seed=1)
        with pytest.raises(ValueError):
            paired_score_difference(a, b, np.zeros(2), None, self.cfg, S)

    def test_separated_groups_sign(self):
        """Removing the query's group from an exact kernel denoiser
        strictly lowers its ELBO; removing the other group does not."""
        spec = DatasetSpec(n_groups=2, samples_per_group=50, radius=5.0, noise_std=0.3)
        d = generate_grouped_dataset(spec, seed=31)
        full = KernelDenoiser(d.all_samples(), S)
        without_0 = KernelDenoiser(d.all_samples(exclude=0), S)
        without_1 = KernelDenoiser(d.all_samples(exclude=1), S)
        x0 = d.groups[0][3]
        own = paired_score_difference(full, without_0, x0, None, self.cfg, S)
        other = paired_score_difference(full, without_1, x0, None, self.cfg, S)
        assert own > 0.0
        assert own > 10 * abs(other)

    def test_variance_reduction_vs_independent_noise(self):
        """Shared-noise differences vary strictly less across seeds than
        independent-noise differences."""
        base = init_network(self.arch, seed=4)
        bump = np.random.default_rng(0).standard_normal(base.param_count) * 0.05
        other = base.with_weights(base.weights + bump)
        x0 = np.array([0.25, -0.5])

        paired, independent = [], []
        for i in range(32):
            cfg_i = ElboConfig(stride=10, t_min=2, t_max=60, noise_seed=1000 + i)
            paired.append(paired_score_difference(base, other, x0, None, cfg_i, S))
            cfg_a = ElboConfig(stride=10, t_min=2, t_max=60, noise_seed=2000 + i)
            cfg_b = ElboConfig(stride=10, t_min=2, t_max=60, noise_seed=3000 + i)
            independent.append(
                elbo_estimate(base, x0, None, cfg_a, S)
                - elbo_estimate(other, x0, None, cfg_b, S)
            )
        assert np.var(paired) < np.var(independent)
