"""ELBO estimation, KL correctness, and paired score differences."""

import math

import numpy as np
import pytest

from groupattr import (
    Architecture,
    DatasetSpec,
    ElboSpec,
    TrainSpec,
    build_schedule,
    elbo_estimate,
    gaussian_kl_isotropic,
    generate_grouped_dataset,
    init_network,
    paired_score_difference,
)
from groupattr.scoring import ElboGrid
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
        """The grid is every stride-th t from 2 to T - 1."""
        seen = []

        def zero(xt, t, cond=None):
            seen.append(t)
            return np.zeros_like(xt)

        ElboGrid(np.zeros((1, 2)), None, [0], ElboSpec(stride=10), S).elbos([zero])
        assert seen == [2, 12, 22, 32, 42, 52]

    @pytest.mark.parametrize("stride", [1, 2, 7, 14])
    def test_no_grid_point_outweighs_the_rest(self, stride):
        """On T = 100, where each stride below steps onto t = T from t = 2,
        the weight of a unit eps error at any grid point stays within 100x
        the mean weight at the others.  Model m predicts the exact noise
        except at the m-th grid point, so its score is minus that weight.
        At t = T the clipped beta_T gives a weight of about 500, 3000-5000
        times the mean at the other points of these grids."""
        s = build_schedule(100, "squared_cosine")
        x0 = np.array([[0.3, -0.7]])
        spec = ElboSpec(stride=stride)
        grid = []

        def record(xt, t, cond=None):
            grid.append(t)
            return np.zeros_like(xt)

        ElboGrid(x0, None, [5], spec, s).elbos([record])

        def off_at(t_off):
            def eps(xt, t, cond=None):
                exact = (xt - math.sqrt(s.alpha_bar(t)) * x0) / s.sigma(t)
                return exact + (t == t_off) * np.array([1.0, 0.0])
            return eps

        weights = -ElboGrid(x0, None, [5], spec, s).elbos([off_at(t) for t in grid])[:, 0]
        assert np.all(weights > 0.0)
        for g, w in enumerate(weights):
            assert w <= 100.0 * np.delete(weights, g).mean(), (grid[g], w)

    def test_validation(self):
        with pytest.raises(ValueError):
            ElboSpec(stride=0)
        with pytest.raises(ValueError):
            ElboSpec(samples_per_t=0)
        with pytest.raises(ValueError, match="T = 1"):
            ElboGrid(np.zeros((1, 2)), None, [0], ElboSpec(),
                     build_schedule(1, "squared_cosine")).elbos([ExactNoiseDenoiser(0)])


class ExactNoiseDenoiser:
    """Cheating block denoiser that replays the elbo noise draw on every row."""

    input_dim = 2

    def __init__(self, noise_seed):
        self.noise_seed = noise_seed

    def __call__(self, xt, t, cond=None):
        from groupattr.seeding import content_rng, normals

        eps = normals(content_rng(self.noise_seed, t, 0, n=2), 2)
        return np.repeat(eps, len(xt), axis=0)


class TestElboEstimate:
    def setup_method(self):
        self.spec = ElboSpec(stride=7)
        self.seed = 41

    def test_exact_noise_gives_zero(self):
        den = ExactNoiseDenoiser(self.seed)
        val = elbo_estimate(den, np.array([0.4, -1.0]), None, self.spec, S, self.seed)
        assert val == pytest.approx(0.0, abs=1e-18)

    def test_seeded_determinism(self):
        p = init_network(Architecture(2, (8,), 4), seed=3)
        x0 = np.array([0.2, 0.1])
        a = elbo_estimate(p, x0, None, self.spec, S, self.seed)
        b = elbo_estimate(p, x0, None, self.spec, S, self.seed)
        assert a == b

    def test_single_point_kernel_is_maximal(self):
        """The kernel denoiser of {x0} predicts the exact noise at every
        timestep, so every KL term vanishes."""
        x0 = np.array([1.0, -2.0])
        den = KernelDenoiser(x0[None, :], S)
        val = elbo_estimate(den, x0, None, self.spec, S, self.seed)
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_nonzero_for_imperfect_model(self):
        p = init_network(Architecture(2, (8,), 4), seed=3)
        assert elbo_estimate(p, np.array([0.2, 0.1]), None, self.spec, S, self.seed) < 0.0

    def test_monotone_degradation_under_weight_noise(self):
        """Growing weight corruption cannot raise the median ELBO."""
        spec = DatasetSpec(n_groups=2, samples_per_group=40, radius=3.0, noise_std=0.4)
        d = generate_grouped_dataset(spec, seed=2)
        arch = Architecture(2, (16, 16), 8)
        run = train_full(d, arch, TrainSpec(epochs=60, batch_size=32, lr=1e-3,
                                            exposure_matched=False), S, 3)
        x0 = d.groups[0][0]
        medians = []
        for scale in (0.0, 0.05, 0.15, 0.5, 2.0):
            vals = []
            for seed in range(16):
                noise = np.random.default_rng(seed).standard_normal(run.params.param_count)
                corrupted = run.params.with_weights(run.params.weights + scale * noise)
                vals.append(elbo_estimate(corrupted, x0, None, ElboSpec(stride=10), S, 17))
            medians.append(float(np.median(vals)))
        assert all(b <= a + 1e-9 for a, b in zip(medians, medians[1:]))


class TestPairedScoreDifference:
    def setup_method(self):
        self.spec = ElboSpec(stride=10)
        self.seed = 23
        self.arch = Architecture(2, (8,), 4)

    def test_identical_models_exactly_zero(self):
        p = init_network(self.arch, seed=1)
        diff = paired_score_difference(p, p, np.array([0.1, 0.2]), None, self.spec, S, self.seed)
        assert diff == 0.0

    def test_antisymmetry(self):
        a = init_network(self.arch, seed=1)
        b = init_network(self.arch, seed=2)
        x0 = np.array([0.3, -0.4])
        ab = paired_score_difference(a, b, x0, None, self.spec, S, self.seed)
        ba = paired_score_difference(b, a, x0, None, self.spec, S, self.seed)
        assert ab == -ba != 0.0

    def test_dimension_mismatch_rejected(self):
        a = init_network(self.arch, seed=1)
        b = init_network(Architecture(3, (8,), 4), seed=1)
        with pytest.raises(ValueError):
            paired_score_difference(a, b, np.zeros(2), None, self.spec, S, self.seed)

    def test_separated_groups_sign(self):
        """Removing the query's group from an exact kernel denoiser
        strictly lowers its ELBO; removing the other group does not."""
        spec = DatasetSpec(n_groups=2, samples_per_group=50, radius=5.0, noise_std=0.3)
        d = generate_grouped_dataset(spec, seed=31)
        full = KernelDenoiser(d.labeled_samples()[0], S)
        without_0 = KernelDenoiser(d.labeled_samples(exclude=0)[0], S)
        without_1 = KernelDenoiser(d.labeled_samples(exclude=1)[0], S)
        x0 = d.groups[0][3]
        own = paired_score_difference(full, without_0, x0, None, self.spec, S, self.seed)
        other = paired_score_difference(full, without_1, x0, None, self.spec, S, self.seed)
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
            paired.append(paired_score_difference(base, other, x0, None, self.spec, S,
                                                  1000 + i))
            independent.append(
                elbo_estimate(base, x0, None, self.spec, S, 2000 + i)
                - elbo_estimate(other, x0, None, self.spec, S, 3000 + i)
            )
        assert np.var(paired) < np.var(independent)
