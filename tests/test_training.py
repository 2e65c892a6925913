"""Training loops, exposure matching, and the exact kernel denoiser."""

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
    empirical_denoiser,
    generate_grouped_dataset,
    init_network,
    loss_and_grad,
)
from groupattr.denoiser import noise_batch
from groupattr.harness import _write_log
from groupattr.seeding import derive_seed
from groupattr.training import KernelDenoiser, train_full, train_logo

ARCH = Architecture(input_dim=2, hidden_dims=(32, 32), time_embed_dim=8, cond_dim=0)


@pytest.fixture(scope="module")
def schedule():
    return build_schedule(50, "squared_cosine")


@pytest.fixture(scope="module")
def two_groups():
    spec = DatasetSpec(n_groups=2, samples_per_group=60, radius=4.0, noise_std=0.3)
    return generate_grouped_dataset(spec, seed=5)


class TestTrainFull:
    def test_zero_epochs_returns_init(self, two_groups, schedule):
        cfg = TrainSpec(epochs=0, batch_size=16, lr=1e-3, exposure_matched=False)
        run = train_full(two_groups, ARCH, cfg, schedule, 3)
        init = init_network(ARCH, derive_seed(3, "init"))
        np.testing.assert_array_equal(run.params.weights, init.weights)
        assert run.steps == 0

    def test_exposure_matching_per_epoch_counts(self, schedule):
        """Every exposure-matched epoch sees exactly (N-1)/N of the data,
        and the excluded group varies across epochs."""
        spec = DatasetSpec(n_groups=4, samples_per_group=8)
        d = generate_grouped_dataset(spec, seed=1)
        seen_per_epoch, excluded = {}, {}

        def hook(epoch, xs, conds):
            seen_per_epoch[epoch] = seen_per_epoch.get(epoch, 0) + len(xs)
            for row in xs:
                g = _owner(d, row)
                excluded.setdefault(epoch, set()).add(g)

        cfg = TrainSpec(epochs=12, batch_size=8, lr=1e-3, exposure_matched=True)
        train_full(d, ARCH, cfg, schedule, 9, batch_hook=hook)
        assert all(count == 24 for count in seen_per_epoch.values())
        missing = [tuple(sorted({0, 1, 2, 3} - groups)) for groups in excluded.values()]
        assert all(len(m) == 1 for m in missing)
        assert len(set(missing)) > 1  # the excluded group is not constant

    def test_determinism(self, two_groups, schedule):
        cfg = TrainSpec(epochs=2, batch_size=16, lr=1e-3, exposure_matched=False)
        a = train_full(two_groups, ARCH, cfg, schedule, 8)
        b = train_full(two_groups, ARCH, cfg, schedule, 8)
        np.testing.assert_array_equal(a.params.weights, b.params.weights)

    def test_training_log_written(self, two_groups, schedule, tmp_path):
        cfg = TrainSpec(epochs=3, batch_size=32, lr=1e-3, exposure_matched=False)
        run = train_full(two_groups, ARCH, cfg, schedule, 1)
        assert len(run.epoch_ms) == 3 and all(ms > 0.0 for ms in run.epoch_ms)
        _write_log(tmp_path / "log.csv", "epoch,loss,wall_ms", run.epoch_losses, run.epoch_ms)
        lines = (tmp_path / "log.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss,wall_ms"
        assert len(lines) == 4
        assert lines[1] == f"0,{run.epoch_losses[0]!r},{run.epoch_ms[0]!r}"

    def test_loss_approaches_kernel_floor(self, schedule):
        """After 200 epochs the eps-loss sits within 110% of the exact
        kernel denoiser's loss on the same evaluation batches."""
        spec = DatasetSpec(n_groups=2, samples_per_group=200, radius=4.0,
                           noise_std=0.4)
        d = generate_grouped_dataset(spec, seed=5)
        arch = Architecture(input_dim=2, hidden_dims=(64, 64),
                            time_embed_dim=16, cond_dim=0)
        cfg = TrainSpec(epochs=200, batch_size=32, lr=1e-3, exposure_matched=False,
                        weight_decay=0.0)
        run = train_full(d, arch, cfg, schedule, 2)

        all_x = d.labeled_samples()[0]
        net_loss, _ = loss_and_grad(run.params, all_x, None, schedule, rng_seed=123)
        floor = _kernel_loss(all_x, all_x, None, schedule, rng_seed=123)
        assert net_loss <= 1.10 * floor


def _owner(d, row):
    for g, group in enumerate(d.groups):
        if np.any(np.all(group == row, axis=1)):
            return g
    raise AssertionError("sample not found in any group")


def _kernel_loss(points, x0, cond, s, rng_seed):
    """Mean squared eps error of the exact kernel denoiser, using the
    identical per-row draws as loss_and_grad."""
    ts, xts, epss, _ = noise_batch(x0, cond, s, rng_seed, 1, s.num_steps)
    total = 0.0
    for xt, t, eps in zip(xts, ts, epss):
        pred = empirical_denoiser(points, xt, int(t), s)
        total += float(np.sum((pred - eps) ** 2))
    return total / len(x0)


class TestTrainLogo:
    def test_excluded_group_never_trains(self, schedule):
        spec = DatasetSpec(n_groups=3, samples_per_group=6)
        d = generate_grouped_dataset(spec, seed=2)
        forget = d.groups[1]

        def hook(epoch, xs, conds):
            for row in xs:
                assert not np.any(np.all(forget == row, axis=1))

        cfg = TrainSpec(epochs=4, batch_size=4, lr=1e-3, exposure_matched=False)
        train_logo(d, 1, ARCH, cfg, schedule, 6, batch_hook=hook)

    def test_invalid_group_rejected(self, two_groups, schedule):
        cfg = TrainSpec(epochs=1, batch_size=8, lr=1e-3, exposure_matched=False)
        with pytest.raises(ValueError):
            train_logo(two_groups, 5, ARCH, cfg, schedule, 0)

    def test_step_budget_parity(self, schedule):
        """Equal-size groups: full (exposure-matched) and leave-one-out
        runs take identical optimizer step counts."""
        spec = DatasetSpec(n_groups=4, samples_per_group=10)
        d = generate_grouped_dataset(spec, seed=3)
        cfg = TrainSpec(epochs=5, batch_size=8, lr=1e-3, exposure_matched=True)
        full = train_full(d, ARCH, cfg, schedule, 4)
        logo = train_logo(d, 2, ARCH, cfg, schedule, 4)
        assert full.steps == logo.steps > 0

    def test_left_out_group_scores_worse(self, schedule):
        """ELBO of a held-out group's prototype is lower under the
        leave-that-group-out model than under the full model."""
        spec = DatasetSpec(n_groups=2, samples_per_group=80, radius=4.0, noise_std=0.3)
        d = generate_grouped_dataset(spec, seed=9)
        cfg = TrainSpec(epochs=120, batch_size=32, lr=1e-3, exposure_matched=True)
        full = train_full(d, ARCH, cfg, schedule, 10)
        logo = train_logo(d, 0, ARCH, cfg, schedule, 10)
        proto = d.groups[0].mean(axis=0)
        spec = ElboSpec(stride=5)
        e_full = elbo_estimate(full.params, proto, None, spec, schedule, 777)
        e_logo = elbo_estimate(logo.params, proto, None, spec, schedule, 777)
        assert e_logo < e_full


class TestEmpiricalDenoiser:
    def setup_method(self):
        self.s = build_schedule(20, "squared_cosine")

    def test_single_point(self):
        x_star = np.array([1.0, -2.0])
        xt = np.array([0.5, 0.5])
        t = 7
        out = empirical_denoiser(x_star[None, :], xt, t, self.s)
        root = math.sqrt(self.s.alpha_bar(t))
        expected = (xt - root * x_star) / self.s.sigma(t)
        np.testing.assert_allclose(out, expected, rtol=1e-14)

    def test_two_equidistant_points_average(self):
        t = 9
        root = math.sqrt(self.s.alpha_bar(t))
        sigma = self.s.sigma(t)
        pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
        xt = np.array([0.0, 0.7])
        out = empirical_denoiser(pts, xt, t, self.s)
        singles = [(xt - root * p) / sigma for p in pts]
        np.testing.assert_allclose(out, (singles[0] + singles[1]) / 2, rtol=1e-12)

    def test_matches_direct_summation(self):
        """Naive unnormalized-weight reference on random points."""
        rng = np.random.default_rng(14)
        pts = rng.normal(size=(5, 2))
        for t in (2, 6, 15):
            xt = rng.normal(size=2)
            root = math.sqrt(self.s.alpha_bar(t))
            sigma = self.s.sigma(t)
            weights = np.array([
                math.exp(-float(np.sum((xt - root * p) ** 2)) / (2 * sigma**2))
                for p in pts
            ])
            targets = np.stack([(xt - root * p) / sigma for p in pts])
            expected = (weights / weights.sum()) @ targets
            out = empirical_denoiser(pts, xt, t, self.s)
            np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            empirical_denoiser(np.zeros((0, 2)), np.zeros(2), 3, self.s)

    def test_optimality_against_trained_network(self, two_groups, schedule):
        """The kernel denoiser is the exact minimizer; its loss lower
        bounds any network's on identical batches."""
        cfg = TrainSpec(epochs=30, batch_size=32, lr=1e-3, exposure_matched=False)
        run = train_full(two_groups, ARCH, cfg, schedule, 1)
        all_x = two_groups.labeled_samples()[0]
        for seed in (11, 22, 33):
            x0 = all_x[::3]
            net_loss, _ = loss_and_grad(run.params, x0, None, schedule, rng_seed=seed)
            kernel = _kernel_loss(all_x, x0, None, schedule, rng_seed=seed)
            assert kernel <= net_loss

    def test_kernel_denoiser_handle(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        handle = KernelDenoiser(pts, self.s)
        assert handle.input_dim == 2
        np.testing.assert_array_equal(
            handle(np.array([0.2, 0.3]), 4),
            empirical_denoiser(pts, np.array([0.2, 0.3]), 4, self.s),
        )
