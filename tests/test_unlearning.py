"""Unlearning losses, anchors, importance weights, and the operator itself."""

import math

import numpy as np
import pytest

from groupattr import (
    Architecture,
    DatasetSpec,
    DenoiserParams,
    TrainSpec,
    UnlearnSpec,
    anchor_select,
    build_schedule,
    conditional_forget_loss,
    esd_forget_loss,
    generate_grouped_dataset,
    init_network,
    loss_and_grad,
    preservation_loss,
    retain_mixture_logpdf,
    retrack_forget_loss,
    retrack_target,
    unlearn,
)
from groupattr.data import GroupedDataset
from groupattr.denoiser import forward_batch, noise_batch
from groupattr.diffusion import forward_marginal, kernel_logits, softmax_inplace
from groupattr.training import empirical_denoiser, train_full
from groupattr.unlearning import AnchorSelector, default_timestep_range

from test_denoiser import max_rel_error, numeric_grad

S = build_schedule(40, "squared_cosine")

COND_ARCH = Architecture(input_dim=2, hidden_dims=(6,), time_embed_dim=4, cond_dim=7)
UNCOND_ARCH = Architecture(input_dim=2, hidden_dims=(6,), time_embed_dim=4, cond_dim=0)


def make_cfg(method="retrack", **kw):
    base = dict(method=method, lr=1e-3, steps_or_epochs=5,
                timestep_range=(2, 35), K=4, kl_cap=1e9, batch_size=4)
    base.update(kw)
    return UnlearnSpec(**base)


def block(d, k, n):
    """The first n rows of group k with the group's condition on every row."""
    return d.groups[k][:n], np.tile(d.cond_vectors[k], (n, 1))


@pytest.fixture(scope="module")
def cond_dataset():
    spec = DatasetSpec(n_groups=3, samples_per_group=12, radius=3.0, noise_std=0.3,
                       conditional=True, descriptor_dim=4)
    return generate_grouped_dataset(spec, seed=6)


class TestImportanceWeights:
    def test_single_point(self):
        w = softmax_inplace(kernel_logits(np.array([[0.3, 0.4]]), np.array([1.0, 1.0]), 5, S)[0])
        np.testing.assert_array_equal(w, [1.0])

    def test_two_equidistant(self):
        pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
        w = softmax_inplace(kernel_logits(pts, np.array([0.0, 0.5]), 7, S)[0])
        np.testing.assert_allclose(w, [0.5, 0.5], rtol=1e-12)

    def test_direct_substitution(self):
        """Squared scaled distances 0 and 2 sigma^2 give softmax(0, -1)."""
        t = 9
        root = math.sqrt(S.alpha_bar(t))
        sigma = S.sigma(t)
        xt = np.array([0.0, 0.0])
        # First point exactly at xt / root; second offset by sigma*sqrt(2)/root.
        pts = np.array([[0.0, 0.0], [sigma * math.sqrt(2.0) / root, 0.0]])
        w = softmax_inplace(kernel_logits(pts, xt, t, S)[0])
        expected = np.array([1.0, math.exp(-1.0)])
        expected /= expected.sum()
        np.testing.assert_allclose(w, expected, atol=1e-4)
        assert w[0] == pytest.approx(0.7311, abs=1e-4)
        assert w[1] == pytest.approx(0.2689, abs=1e-4)

    def test_sum_one_and_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            pts = rng.normal(size=(13, 2)) * 2.0
            xt = rng.normal(size=2)
            t = int(rng.integers(2, 41))
            w = softmax_inplace(kernel_logits(pts, xt, t, S)[0])
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            perm = rng.permutation(13)
            w_perm = softmax_inplace(kernel_logits(pts[perm], xt, t, S)[0])
            np.testing.assert_allclose(w_perm, w[perm], rtol=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            kernel_logits(np.zeros((0, 2)), np.zeros(2), 3, S)


class TestRetainMixtureLogpdf:
    def test_matches_direct_sum(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(6, 2))
        xt = rng.normal(size=2)
        t = 11
        root = math.sqrt(S.alpha_bar(t))
        var = S.sigma(t) ** 2
        direct = np.mean([
            math.exp(-float(np.sum((xt - root * p) ** 2)) / (2 * var))
            / (2 * math.pi * var)
            for p in pts
        ])
        assert retain_mixture_logpdf(pts, xt, t, S) == pytest.approx(math.log(direct), rel=1e-10)


class TestRetrackTarget:
    def test_full_k_equals_empirical_denoiser(self):
        """Untruncated target is exactly the retain-set kernel denoiser."""
        rng = np.random.default_rng(1)
        for _ in range(100):
            pts = rng.normal(size=(9, 2)) * 3.0
            xt = rng.normal(size=2) * 2.0
            t = int(rng.integers(2, 41))
            a = retrack_target(pts, xt, t, 9, S)
            b = empirical_denoiser(pts, xt, t, S)
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_k1_matches_argmin_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            pts = rng.normal(size=(7, 2)) * 2.0
            xt = rng.normal(size=2)
            t = int(rng.integers(2, 41))
            root = math.sqrt(S.alpha_bar(t))
            nearest = min(range(7), key=lambda i: float(np.sum((xt - root * pts[i]) ** 2)))
            expected = (xt - root * pts[nearest]) / S.sigma(t)
            np.testing.assert_allclose(retrack_target(pts, xt, t, 1, S), expected, rtol=1e-12)

    def test_k2_collinear_hand_computed(self):
        t = 12
        root = math.sqrt(S.alpha_bar(t))
        sigma = S.sigma(t)
        # Three collinear points; xt placed so the two nearest are the
        # first two.
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
        xt = np.array([root * 0.4, 0.0])
        d0 = float(np.sum((xt - root * pts[0]) ** 2))
        d1 = float(np.sum((xt - root * pts[1]) ** 2))
        w = np.array([math.exp(-d0 / (2 * sigma**2)), math.exp(-d1 / (2 * sigma**2))])
        w /= w.sum()
        expected = (w[0] * (xt - root * pts[0]) + w[1] * (xt - root * pts[1])) / sigma
        np.testing.assert_allclose(retrack_target(pts, xt, t, 2, S), expected, rtol=1e-12)

    def test_k_out_of_range(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ValueError):
            retrack_target(pts, np.zeros(2), 5, 0, S)
        with pytest.raises(ValueError):
            retrack_target(pts, np.zeros(2), 5, 4, S)

    def test_mean_error_non_increasing_in_k(self):
        """Aggregate truncation error shrinks through the doubling grid."""
        n = 32
        ks = [1, 2, 4, 8, 16, 32]
        errs = np.zeros((150, len(ks)))
        for trial in range(150):
            rng = np.random.default_rng(trial)
            pts = rng.normal(size=(n, 2)) * 3.0
            src = pts[rng.integers(n)]
            t = int(rng.integers(2, 41))
            xt = forward_marginal(S, src, t, rng.standard_normal(2))
            full = retrack_target(pts, xt, t, n, S)
            for j, K in enumerate(ks):
                errs[trial, j] = np.linalg.norm(retrack_target(pts, xt, t, K, S) - full)
        mean_curve = errs.mean(axis=0)
        assert np.all(np.diff(mean_curve) <= 1e-12)

    def test_strong_decay_regime_mostly_monotone_per_instance(self):
        """At low noise levels weights decay hard and the per-instance
        error curve is almost always monotone."""
        n = 16
        ks = [1, 2, 4, 8, 16]
        good = 0
        for trial in range(200):
            rng = np.random.default_rng(10_000 + trial)
            pts = rng.normal(size=(n, 2)) * 5.0
            src = pts[rng.integers(n)]
            t = int(rng.integers(2, 9))
            xt = forward_marginal(S, src, t, rng.standard_normal(2))
            full = retrack_target(pts, xt, t, n, S)
            errs = [np.linalg.norm(retrack_target(pts, xt, t, K, S) - full) for K in ks]
            if np.all(np.diff(errs) <= 1e-9):
                good += 1
        assert good >= 190


class TestRetrackForgetLoss:
    def test_zero_loss_when_output_equals_target(self, cond_dataset):
        """Bias-only network reproducing the target gives exactly 0."""
        retain = cond_dataset.labeled_samples(exclude=0)[0]
        x0 = cond_dataset.groups[0][0]
        cfg = make_cfg(K=6)
        # Replicate the per-item draw to know (t, xt) in advance.
        ts, xts, _, _ = noise_batch(x0[None], None, S, 777, *cfg.timestep_range)
        t, xt = int(ts[0]), xts[0]
        target = retrack_target(retain, xt, t, 6, S)
        w = np.zeros(UNCOND_ARCH.param_count)
        w[-2:] = target
        p = DenoiserParams(UNCOND_ARCH, w)
        loss, grad = retrack_forget_loss(p, x0[None], None, retain, cfg, S, rng_seed=777)
        assert loss == pytest.approx(0.0, abs=1e-28)
        np.testing.assert_array_equal(grad, 0.0)

    def test_gradient_matches_finite_differences(self, cond_dataset):
        retain = cond_dataset.labeled_samples(exclude=1)[0]
        x0 = cond_dataset.groups[1][:3]
        p = init_network(UNCOND_ARCH, seed=5)
        cfg = make_cfg()
        loss, grad = retrack_forget_loss(p, x0, None, retain, cfg, S, rng_seed=11)

        def f(w):
            return retrack_forget_loss(p.with_weights(w), x0, None, retain, cfg, S, rng_seed=11)[0]

        num = numeric_grad(f, p.weights.copy())
        assert max_rel_error(grad, num) <= 1e-3

    def test_zero_cap_zeroes_loss_and_grad(self, cond_dataset):
        retain = cond_dataset.labeled_samples(exclude=0)[0]
        x0 = cond_dataset.groups[0][:4]
        p = init_network(UNCOND_ARCH, seed=2)
        cfg = make_cfg(kl_cap=0.0)
        loss, grad = retrack_forget_loss(p, x0, None, retain, cfg, S, rng_seed=4)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_cap_bounds_per_sample_contribution(self, cond_dataset):
        retain = cond_dataset.labeled_samples(exclude=0)[0]
        x0 = cond_dataset.groups[0][:4]
        p = init_network(UNCOND_ARCH, seed=2)
        capped, _ = retrack_forget_loss(p, x0, None, retain, make_cfg(kl_cap=0.5), S, rng_seed=4)
        raw, _ = retrack_forget_loss(p, x0, None, retain, make_cfg(kl_cap=1e9), S, rng_seed=4)
        assert capped <= 0.5 + 1e-12
        assert capped <= raw


class TestEsdForgetLoss:
    def _linear_cond_net(self, out_gain=1.0, bias=0.0):
        """1-D net whose output equals out_gain * cond + bias."""
        arch = Architecture(input_dim=1, hidden_dims=(1,), time_embed_dim=2,
                            cond_dim=1, activation="relu")
        # W1 = [w_x, w_sin, w_cos, w_cond], b1, W2, b2.
        w = np.array([0.0, 0.0, 0.0, 1.0, 0.0, out_gain, bias])
        return DenoiserParams(arch, w)

    def test_scalar_hand_case_target_minus_five(self):
        """Frozen net outputs its condition: eps_c=1, eps_u=0, w=5 -> -5."""
        frozen = self._linear_cond_net()
        trainee = self._linear_cond_net(out_gain=0.0, bias=0.0)  # outputs 0
        x0, cond = np.array([[0.3]]), np.array([[1.0]])
        cfg = make_cfg("esd", guidance_weight=5.0)
        loss, _ = esd_forget_loss(trainee, frozen, x0, cond, cfg, S, rng_seed=9)
        # Trainee outputs 0 against target -5: squared error 25.
        assert loss == pytest.approx(25.0, rel=1e-12)

    def test_zero_loss_at_guided_target(self):
        frozen = self._linear_cond_net()
        # Constant output -5 matches the guided target exactly.
        trainee = self._linear_cond_net(out_gain=0.0, bias=-5.0)
        x0, cond = np.array([[0.3]]), np.array([[1.0]])
        cfg = make_cfg("esd", guidance_weight=5.0)
        loss, grad = esd_forget_loss(trainee, frozen, x0, cond, cfg, S, rng_seed=9)
        assert loss == pytest.approx(0.0, abs=1e-24)

    def test_zero_guidance_targets_unconditional(self):
        frozen = self._linear_cond_net()
        # eps_u = 0, so a zero-output trainee has zero loss at w=0.
        trainee = self._linear_cond_net(out_gain=0.0, bias=0.0)
        x0, cond = np.array([[0.3]]), np.array([[1.0]])
        cfg = make_cfg("esd", guidance_weight=0.0)
        loss, _ = esd_forget_loss(trainee, frozen, x0, cond, cfg, S, rng_seed=9)
        assert loss == pytest.approx(0.0, abs=1e-24)

    def test_gradient_matches_finite_differences(self, cond_dataset):
        frozen = init_network(COND_ARCH, seed=1)
        p = init_network(COND_ARCH, seed=2)
        x0, cond = block(cond_dataset, 0, 3)
        cfg = make_cfg("esd")
        loss, grad = esd_forget_loss(p, frozen, x0, cond, cfg, S, rng_seed=3)

        def f(w):
            return esd_forget_loss(p.with_weights(w), frozen, x0, cond, cfg, S, rng_seed=3)[0]

        num = numeric_grad(f, p.weights.copy())
        assert max_rel_error(grad, num) <= 1e-3

    def test_unconditional_model_rejected(self):
        p = init_network(UNCOND_ARCH, seed=0)
        with pytest.raises(ValueError):
            esd_forget_loss(p, p, np.zeros((1, 2)), None, make_cfg("esd"), S, 0)


class TestPreservationLoss:
    def test_self_distillation_fixed_point(self, cond_dataset):
        p = init_network(COND_ARCH, seed=4)
        x0, cond = block(cond_dataset, 1, 4)
        loss, grad = preservation_loss(p, p, x0, cond, S, seed=5)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_gradient_matches_finite_differences(self, cond_dataset):
        frozen = init_network(COND_ARCH, seed=6)
        p = init_network(COND_ARCH, seed=7)
        x0, cond = block(cond_dataset, 2, 3)
        loss, grad = preservation_loss(p, frozen, x0, cond, S, seed=8)

        def f(w):
            return preservation_loss(p.with_weights(w), frozen, x0, cond, S, seed=8)[0]

        num = numeric_grad(f, p.weights.copy())
        assert max_rel_error(grad, num) <= 1e-3


# Batch-mean losses over (x0, cond) blocks of group-0 rows, each row with
# its noising keyed by (seed 9, row content).
BATCH_LOSSES = {
    "preservation": lambda p, frozen, x0, cond, d: preservation_loss(
        p, frozen, x0, cond, S, seed=9),
    "retrack": lambda p, frozen, x0, cond, d: retrack_forget_loss(
        p, x0, cond, d.labeled_samples(exclude=0)[0], make_cfg(), S, rng_seed=9),
    "esd": lambda p, frozen, x0, cond, d: esd_forget_loss(
        p, frozen, x0, cond, make_cfg("esd"), S, rng_seed=9),
    "cond_anchor": lambda p, frozen, x0, cond, d: conditional_forget_loss(
        p, frozen, x0, cond, 0, AnchorSelector.from_dataset(d), make_cfg("cond_anchor"), S,
        rng_seed=9),
}


@pytest.mark.parametrize("loss", sorted(BATCH_LOSSES))
def test_duplication_invariance(loss, cond_dataset):
    """Duplicating an item reuses its draws, so the batch mean is unchanged."""
    frozen = init_network(COND_ARCH, seed=6)
    p = init_network(COND_ARCH, seed=7)
    x0, cond = block(cond_dataset, 0, 1)
    single, _ = BATCH_LOSSES[loss](p, frozen, x0, cond, cond_dataset)
    doubled, _ = BATCH_LOSSES[loss](p, frozen, np.repeat(x0, 2, axis=0),
                                    np.repeat(cond, 2, axis=0), cond_dataset)
    assert doubled == pytest.approx(single, rel=1e-12)


def make_selector(prototypes, tau=2.0, eta_mix=0.1, content_dim=2, cond_vectors=None):
    prototypes = np.asarray(prototypes, dtype=np.float64)
    if cond_vectors is None:
        n = len(prototypes)
        cond_vectors = np.hstack([np.eye(n)[:, :content_dim], prototypes])
    return AnchorSelector(prototypes, tau, eta_mix, np.asarray(cond_vectors), content_dim)


class TestAnchorSelect:
    def test_worked_probabilities(self):
        """Cosine similarities (0.9, 0.1), tau=2, eta=0.1."""
        protos = np.array([
            [1.0, 0.0],
            [0.9, math.sqrt(1 - 0.81)],
            [0.1, math.sqrt(1 - 0.01)],
        ])
        sel = make_selector(protos, tau=2.0, eta_mix=0.1, content_dim=3)
        idx, probs = sel.selection_probs(0)
        np.testing.assert_array_equal(idx, [1, 2])
        assert probs[0] == pytest.approx(0.7988, abs=1e-4)
        assert probs[1] == pytest.approx(0.2012, abs=1e-4)

    def test_pure_mixing_uniform(self):
        protos = np.array([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0], [-1.0, 0.0]])
        sel = make_selector(protos, eta_mix=1.0, content_dim=4)
        _, probs = sel.selection_probs(2)
        np.testing.assert_allclose(probs, 1.0 / 3.0, rtol=1e-12)

    def test_forget_group_never_selected(self):
        protos = np.array([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]])
        sel = make_selector(protos, content_dim=3)
        picks = {anchor_select(sel, 1, seed)[0] for seed in range(10_000)}
        assert 1 not in picks
        assert picks == {0, 2}

    def test_anchor_keeps_content_swaps_style(self, cond_dataset):
        sel = AnchorSelector.from_dataset(cond_dataset)
        style, anchor = anchor_select(sel, 0, seed=123)
        n = cond_dataset.n_groups
        np.testing.assert_array_equal(anchor[:n], cond_dataset.cond_vectors[0][:n])
        np.testing.assert_array_equal(anchor[n:], cond_dataset.cond_vectors[style][n:])

    def test_from_dataset_prototypes_unit_norm(self, cond_dataset):
        sel = AnchorSelector.from_dataset(cond_dataset)
        np.testing.assert_allclose(np.linalg.norm(sel.prototypes, axis=1), 1.0, rtol=1e-12)


def shared_descriptor_dataset():
    """Conditional dataset where all groups share one descriptor block,
    making every anchor condition identical to the forget condition."""
    spec = DatasetSpec(n_groups=3, samples_per_group=8, radius=3.0,
                       conditional=True, descriptor_dim=4)
    d = generate_grouped_dataset(spec, seed=13)
    conds = np.hstack([np.eye(3), np.tile(d.cond_vectors[0, 3:], (3, 1))])
    return GroupedDataset(d.groups, d.dim, conds, d.group_names)


class TestConditionalForgetLoss:
    def test_identity_redirection_exact_zero(self):
        d = shared_descriptor_dataset()
        sel = AnchorSelector.from_dataset(d)
        p = init_network(COND_ARCH, seed=1)
        x0, cond = block(d, 0, 4)
        cfg = make_cfg("cond_anchor")
        loss, grad = conditional_forget_loss(p, p, x0, cond, 0, sel, cfg, S, rng_seed=2)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_gradient_matches_finite_differences(self, cond_dataset):
        sel = AnchorSelector.from_dataset(cond_dataset)
        frozen = init_network(COND_ARCH, seed=3)
        p = init_network(COND_ARCH, seed=4)
        x0, cond = block(cond_dataset, 1, 3)
        cfg = make_cfg("cond_anchor")
        loss, grad = conditional_forget_loss(p, frozen, x0, cond, 1, sel, cfg, S, rng_seed=5)

        def f(w):
            return conditional_forget_loss(
                p.with_weights(w), frozen, x0, cond, 1, sel, cfg, S, rng_seed=5
            )[0]

        num = numeric_grad(f, p.weights.copy())
        assert max_rel_error(grad, num) <= 1e-3

    def test_frozen_target_independent_of_trainee(self, cond_dataset):
        """The loss decomposes as MSE against a fixed reference that does
        not move when the trainee parameters move."""
        sel = AnchorSelector.from_dataset(cond_dataset)
        frozen = init_network(COND_ARCH, seed=6)
        x0s, conds = block(cond_dataset, 0, 3)
        cfg = make_cfg("cond_anchor")

        def manual_loss(p):
            # Recompute draws and anchors exactly as the loss does.
            total = 0.0
            for x0, cond in zip(x0s, conds):
                ts, xts, _, seeds = noise_batch(x0[None], cond[None], S, 7,
                                                *cfg.timestep_range, anchor_seeds=True)
                t, xt = int(ts[0]), xts[0]
                _, c_a = anchor_select(sel, 0, int(seeds[0]))
                ref = forward_batch(frozen, xt[None], t, S.num_steps, c_a[None])[0]
                out = forward_batch(p, xt[None], t, S.num_steps, np.asarray(cond)[None])[0]
                total += float(np.sum((out - ref) ** 2))
            return total / len(x0s)

        for seed in (8, 9):
            p = init_network(COND_ARCH, seed=seed)
            loss, _ = conditional_forget_loss(p, frozen, x0s, conds, 0, sel, cfg, S, rng_seed=7)
            assert loss == pytest.approx(manual_loss(p), rel=1e-12)

    def test_unconditional_model_rejected(self):
        d = shared_descriptor_dataset()
        sel = AnchorSelector.from_dataset(d)
        p = init_network(UNCOND_ARCH, seed=0)
        with pytest.raises(ValueError):
            conditional_forget_loss(p, p, np.zeros((1, 2)), None, 0, sel, make_cfg("cond_anchor"),
                                    S, 0)


@pytest.fixture(scope="module")
def trained_two_groups():
    spec = DatasetSpec(n_groups=2, samples_per_group=80, radius=4.0,
                       noise_std=0.3, conditional=True, descriptor_dim=4)
    d = generate_grouped_dataset(spec, seed=21)
    arch = Architecture(input_dim=2, hidden_dims=(32, 32), time_embed_dim=8,
                        cond_dim=d.cond_dim)
    cfg = TrainSpec(epochs=100, batch_size=32, lr=1e-3, exposure_matched=True)
    run = train_full(d, arch, cfg, S, 22)
    return d, run.params


class TestUnlearn:
    def test_zero_steps_returns_full(self, trained_two_groups):
        d, p_full = trained_two_groups
        cfg = make_cfg(steps_or_epochs=0)
        run = unlearn(p_full, d, 0, cfg, S, 3)
        np.testing.assert_array_equal(run.params.weights, p_full.weights)
        assert run.steps == 0

    def test_zero_forget_weight_stays_at_full(self, trained_two_groups):
        """With lambda_forget = 0 only preservation acts, whose gradient
        vanishes at the full model; preservation loss cannot rise."""
        d, p_full = trained_two_groups
        cfg = make_cfg(lambda_forget=0.0, steps_or_epochs=10)
        run = unlearn(p_full, d, 0, cfg, S, 3)
        assert run.preserve_losses[-1] <= run.preserve_losses[0] + 1e-12
        np.testing.assert_allclose(run.params.weights, p_full.weights, atol=1e-12)

    def test_unlearned_group_loss_rises(self, trained_two_groups):
        """eps-loss on the forgotten group strictly exceeds the full
        model's, averaged over 512 seeded draws."""
        d, p_full = trained_two_groups
        cfg = make_cfg(steps_or_epochs=150, lr=1e-4, lambda_forget=0.05,
                       K=10, kl_cap=1e9, batch_size=32,
                       timestep_range=default_timestep_range(S.num_steps))
        run = unlearn(p_full, d, 0, cfg, S, 3)

        rng = np.random.default_rng(500)
        idx = rng.integers(0, len(d.groups[0]), size=512)
        x0, cond = d.groups[0][idx], np.zeros((len(idx), d.cond_dim))
        seeds = rng.integers(0, 1 << 31, size=8)
        full_losses, ul_losses = [], []
        for sd in seeds:
            full_losses.append(loss_and_grad(p_full, x0, cond, S, rng_seed=int(sd))[0])
            ul_losses.append(loss_and_grad(run.params, x0, cond, S, rng_seed=int(sd))[0])
        assert np.mean(ul_losses) > np.mean(full_losses)

    def test_unset_timestep_range_is_the_default(self, trained_two_groups):
        """``timestep_range=None`` runs exactly the schedule's default range."""
        d, p_full = trained_two_groups
        unset = unlearn(p_full, d, 0, make_cfg(timestep_range=None), S, 3)
        given = unlearn(p_full, d, 0, make_cfg(timestep_range=default_timestep_range(S.num_steps)),
                        S, 3)
        assert unset.params.weights.tobytes() == given.params.weights.tobytes()
        assert unset.forget_losses == given.forget_losses

    def test_method_validation(self, trained_two_groups):
        d, p_full = trained_two_groups
        with pytest.raises(ValueError):
            make_cfg(method="nonsense")
        with pytest.raises(ValueError):
            unlearn(p_full, d, 5, make_cfg(), S, 3)

    def test_esd_requires_conditional(self):
        spec = DatasetSpec(n_groups=2, samples_per_group=8)
        d = generate_grouped_dataset(spec, seed=1)
        p = init_network(UNCOND_ARCH, seed=1)
        with pytest.raises(ValueError):
            unlearn(p, d, 0, make_cfg("esd", steps_or_epochs=1), S, 3)

    def test_determinism(self, trained_two_groups):
        d, p_full = trained_two_groups
        cfg = make_cfg(steps_or_epochs=3)
        a = unlearn(p_full, d, 1, cfg, S, 3)
        b = unlearn(p_full, d, 1, cfg, S, 3)
        np.testing.assert_array_equal(a.params.weights, b.params.weights)
