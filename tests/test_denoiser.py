"""Network forward pass, analytic gradients, and the optimizer update."""

import math

import numpy as np
import pytest

from groupattr import (
    Architecture,
    DenoiserParams,
    OptimizerState,
    build_schedule,
    init_network,
    init_optimizer,
    loss_and_grad,
    optimizer_step,
    predict_eps,
)
from groupattr.denoiser import clip_gradient, forward_batch, time_features

SMALL = Architecture(input_dim=2, hidden_dims=(8,), time_embed_dim=4, cond_dim=0)


def numeric_grad(f, w, h=1e-4):
    """Central finite differences of a scalar function of a flat vector."""
    g = np.zeros_like(w)
    for i in range(len(w)):
        wp, wm = w.copy(), w.copy()
        wp[i] += h
        wm[i] -= h
        g[i] = (f(wp) - f(wm)) / (2 * h)
    return g


def max_rel_error(analytic, numeric, floor=1e-8):
    return float(np.max(np.abs(analytic - numeric) / np.maximum(np.abs(numeric), floor)))


class TestArchitecture:
    def test_param_count_direct(self):
        # (2+4)->8 weights+bias, 8->2 weights+bias: 48+8+16+2.
        assert SMALL.param_count == 74

    def test_validation(self):
        with pytest.raises(ValueError):
            Architecture(input_dim=0, hidden_dims=(4,), time_embed_dim=4)
        with pytest.raises(ValueError):
            Architecture(input_dim=2, hidden_dims=(), time_embed_dim=4)
        with pytest.raises(ValueError):
            Architecture(input_dim=2, hidden_dims=(4,), time_embed_dim=3)
        with pytest.raises(ValueError):
            Architecture(input_dim=2, hidden_dims=(4,), time_embed_dim=4, activation="tanh")


class TestInitNetwork:
    def test_deterministic(self):
        a = init_network(SMALL, seed=42)
        b = init_network(SMALL, seed=42)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_seed_sensitivity(self):
        a = init_network(SMALL, seed=1)
        b = init_network(SMALL, seed=2)
        assert np.any(a.weights != b.weights)

    def test_biases_zero(self):
        p = init_network(SMALL, seed=0)
        # Layout: W1 (48), b1 (8), W2 (16), b2 (2).
        np.testing.assert_array_equal(p.weights[48:56], 0.0)
        np.testing.assert_array_equal(p.weights[72:74], 0.0)

    def test_rejects_nonfinite_weights(self):
        w = np.zeros(SMALL.param_count)
        w[3] = np.inf
        with pytest.raises(ValueError):
            DenoiserParams(SMALL, w)


class TestPredictEps:
    def test_zero_weights_zero_output(self):
        p = DenoiserParams(SMALL, np.zeros(SMALL.param_count))
        out = predict_eps(p, np.array([1.0, -1.0]), 3, 10)
        np.testing.assert_array_equal(out, 0.0)

    def test_purity(self):
        p = init_network(SMALL, seed=9)
        x = np.array([0.4, 0.6])
        np.testing.assert_array_equal(
            predict_eps(p, x, 5, 10), predict_eps(p, x, 5, 10)
        )

    def test_hand_forward_single_hidden_unit(self):
        """Manual forward pass through a 1-hidden-unit relu network."""
        arch = Architecture(input_dim=1, hidden_dims=(1,), time_embed_dim=2,
                            activation="relu")
        # Layout: W1 (1x3), b1 (1), W2 (1x1), b2 (1).
        w = np.array([0.5, -0.25, 0.1, 0.2, 2.0, -0.3])
        p = DenoiserParams(arch, w)
        T, t, x = 4, 1, 1.2
        angle = 2 * math.pi * 1.0 * t / T  # single frequency = 1
        z1 = 0.5 * x - 0.25 * math.sin(angle) + 0.1 * math.cos(angle) + 0.2
        expected = 2.0 * max(z1, 0.0) - 0.3
        out = predict_eps(p, np.array([x]), t, T)
        assert out[0] == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        p = init_network(SMALL, seed=0)
        with pytest.raises(ValueError):
            predict_eps(p, np.array([1.0]), 1, 10)

    def test_conditioning_wiring(self):
        """Changing the condition changes the output for generic weights."""
        arch = Architecture(input_dim=2, hidden_dims=(16,), time_embed_dim=4, cond_dim=3)
        p = init_network(arch, seed=3)
        x = np.array([0.1, 0.2])
        a = predict_eps(p, x, 2, 10, cond=np.array([1.0, 0.0, 0.0]))
        b = predict_eps(p, x, 2, 10, cond=np.array([0.0, 1.0, 0.0]))
        assert np.any(a != b)

    def test_cond_required_iff_conditional(self):
        uncond = init_network(SMALL, seed=0)
        with pytest.raises(ValueError):
            predict_eps(uncond, np.zeros(2), 1, 10, cond=np.array([1.0]))
        cond_arch = Architecture(input_dim=2, hidden_dims=(4,), time_embed_dim=4, cond_dim=2)
        cond_net = init_network(cond_arch, seed=0)
        with pytest.raises(ValueError):
            predict_eps(cond_net, np.zeros(2), 1, 10)


class TestInferenceForward:
    @pytest.mark.parametrize("activation", ["silu", "relu"])
    @pytest.mark.parametrize("rows", [1, 128, 256])
    def test_matches_the_cached_forward_bit_for_bit(self, activation, rows):
        """Without a cache the activations are formed in place: the output
        is the cached forward's, bit for bit, and aliases no input."""
        arch = Architecture(input_dim=2, hidden_dims=(64, 64), time_embed_dim=8, cond_dim=3,
                            activation=activation)
        p = init_network(arch, 11)
        rng = np.random.default_rng(rows)
        xt, cond = rng.normal(size=(rows, 2)) * 3.0, rng.normal(size=(rows, 3))
        ts = rng.integers(1, 51, size=rows)
        inputs = (xt, cond, ts, p.weights)
        before = [a.tobytes() for a in inputs]
        out = forward_batch(p, xt, ts, 50, cond)
        cached, _ = forward_batch(p, xt, ts, 50, cond, want_cache=True)
        assert out.tobytes() == cached.tobytes()
        assert not any(np.shares_memory(out, a) for a in inputs)
        assert [a.tobytes() for a in inputs] == before


class TestTimeFeatures:
    def test_shapes(self):
        assert time_features(3, 10, 8).shape == (8,)
        assert time_features(np.array([1, 2, 3]), 10, 6).shape == (3, 6)

    def test_distinct_timesteps_distinct_features(self):
        f = time_features(np.arange(1, 11), 10, 8)
        assert len({tuple(np.round(row, 12)) for row in f}) == 10


class TestLossAndGrad:
    def setup_method(self):
        self.s = build_schedule(10, "squared_cosine")

    def test_gradient_matches_finite_differences(self):
        p = init_network(SMALL, seed=12)
        rng = np.random.default_rng(0)
        x0 = rng.normal(size=(3, 2))
        loss, grad = loss_and_grad(p, x0, None, self.s, rng_seed=77)

        def f(w):
            return loss_and_grad(p.with_weights(w), x0, None, self.s, rng_seed=77)[0]

        num = numeric_grad(f, p.weights.copy())
        assert max_rel_error(grad, num) <= 1e-3

    def test_duplicated_items_leave_loss_unchanged(self):
        p = init_network(SMALL, seed=4)
        x = np.array([0.5, -0.2])
        single, _ = loss_and_grad(p, x[None], None, self.s, rng_seed=5)
        doubled, _ = loss_and_grad(p, np.stack([x, x]), None, self.s, rng_seed=5)
        assert doubled == pytest.approx(single, rel=1e-12)

    def test_perfect_denoiser_zero_loss(self):
        """A network that outputs the drawn noise exactly has loss 0."""
        from groupattr.denoiser import noise_batch

        x0 = np.array([0.7, -0.4])
        eps = noise_batch(x0[None], None, self.s, 99, 1, self.s.num_steps)[2][0]
        # All weights zero except the output bias, which is set to the
        # exact noise draw for this (rng_seed, item) pair.
        w = np.zeros(SMALL.param_count)
        w[72:74] = eps
        p = DenoiserParams(SMALL, w)
        loss, grad = loss_and_grad(p, x0[None], None, self.s, rng_seed=99)
        assert loss == pytest.approx(0.0, abs=1e-30)
        # The zero network's loss equals the noise norm for the same draw.
        zero, _ = loss_and_grad(
            DenoiserParams(SMALL, np.zeros(SMALL.param_count)),
            x0[None], None, self.s, rng_seed=99,
        )
        assert zero == pytest.approx(float(np.sum(eps**2)), rel=1e-12)

    def test_empty_batch_rejected(self):
        p = init_network(SMALL, seed=0)
        with pytest.raises(ValueError):
            loss_and_grad(p, np.zeros((0, 2)), None, self.s, rng_seed=0)

    def test_conditional_gradient_matches_finite_differences(self):
        arch = Architecture(input_dim=2, hidden_dims=(6,), time_embed_dim=4, cond_dim=2)
        p = init_network(arch, seed=8)
        rng = np.random.default_rng(1)
        pairs = rng.normal(size=(2, 2, 2))  # row i: (x0_i, cond_i)
        x0, cond = pairs[:, 0], pairs[:, 1]
        loss, grad = loss_and_grad(p, x0, cond, self.s, rng_seed=13)

        def f(w):
            return loss_and_grad(p.with_weights(w), x0, cond, self.s, rng_seed=13)[0]

        num = numeric_grad(f, p.weights.copy())
        assert max_rel_error(grad, num) <= 1e-3


class TestOptimizerStep:
    def test_zero_grad_fixed_point(self):
        p = init_network(SMALL, seed=0)
        st = init_optimizer(p, lr=1e-3, weight_decay=0.0)
        new_p, new_st = optimizer_step(p, st, np.zeros(p.param_count))
        np.testing.assert_array_equal(new_p.weights, p.weights)
        assert new_st.step_count == 1

    def test_hand_computed_single_coordinate(self):
        """One update with hand-set moments, evaluated coordinate-wise."""
        arch = Architecture(input_dim=1, hidden_dims=(1,), time_embed_dim=2)
        w = np.array([0.5, 0.0, 0.0, 0.0, 0.0, 0.0])
        p = DenoiserParams(arch, w)
        m0 = np.array([0.1, 0.0, 0.0, 0.0, 0.0, 0.0])
        v0 = np.array([0.02, 0.0, 0.0, 0.0, 0.0, 0.0])
        st = OptimizerState(m0, v0, step_count=3, lr=0.01, weight_decay=0.1)
        grad = np.array([0.3, 0.0, 0.0, 0.0, 0.0, 0.0])
        new_p, new_st = optimizer_step(p, st, grad)

        m = 0.9 * 0.1 + 0.1 * 0.3
        v = 0.999 * 0.02 + 0.001 * 0.3**2
        m_hat = m / (1 - 0.9**4)
        v_hat = v / (1 - 0.999**4)
        expected = 0.5 * (1 - 0.01 * 0.1) - 0.01 * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert new_p.weights[0] == pytest.approx(expected, rel=1e-12)
        assert new_p.weights[1] == 0.0
        assert new_st.step_count == 4

    def test_clipping_definition(self):
        g = np.full(74, 10.0 / math.sqrt(74))  # norm 10
        clipped = clip_gradient(g)
        assert np.linalg.norm(clipped) == pytest.approx(1.0, rel=1e-12)
        # A pre-normalized gradient produces the identical update.
        p = init_network(SMALL, seed=0)
        st = init_optimizer(p, lr=1e-3, weight_decay=0.0)
        a, _ = optimizer_step(p, st, g)
        b, _ = optimizer_step(p, st, g / 10.0)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_nonfinite_grad_rejected(self):
        p = init_network(SMALL, seed=0)
        st = init_optimizer(p, lr=1e-3)
        bad = np.zeros(p.param_count)
        bad[0] = np.nan
        with pytest.raises(FloatingPointError):
            optimizer_step(p, st, bad)
