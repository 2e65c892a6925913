"""Network forward pass, analytic gradients, and the optimizer update."""

import math

import numpy as np
import pytest

from groupattr import (
    AdamW,
    Architecture,
    DenoiserParams,
    build_schedule,
    init_network,
    loss_and_grad,
    optimizer_step,
    predict_eps,
)
from groupattr import denoiser
from groupattr.denoiser import forward_batch, time_features

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


def formula_features(t, num_steps, embed_dim):
    """The direct sinusoidal formula, written out."""
    freqs = np.geomspace(1.0, max(num_steps / 2.0, 1.0), embed_dim // 2)
    angles = 2.0 * math.pi * np.multiply.outer(np.asarray(t, dtype=np.float64), freqs) / num_steps
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)


class TestTimeFeatureTable:
    @pytest.mark.parametrize("T", [3, 40, 100])
    @pytest.mark.parametrize("E", [2, 8])
    def test_every_integer_timestep_gives_the_formula_bits(self, T, E):
        ts = np.arange(T + 1)
        for t in ts:
            for scalar in (int(t), t, np.int32(t), np.uint64(t)):
                got = time_features(scalar, T, E)
                assert got.shape == (E,)
                assert got.tobytes() == formula_features(t, T, E).tobytes()
        rng = np.random.default_rng(T * E)
        for rows in (ts, ts[::-1], rng.integers(0, T + 1, size=129), ts[T:], ts[:1]):
            got = time_features(rows, T, E)
            assert got.shape == (len(rows), E)
            assert got.tobytes() == formula_features(rows, T, E).tobytes()

    @pytest.mark.parametrize("t", [-1, 4, 7, -3.0, 2.5, 1.0, np.array([0, 1, 4]),
                                   np.array([-1, 2]), np.array([1.0, 2.0]), np.array([0.5])])
    def test_float_negative_and_beyond_T_use_the_formula(self, t, monkeypatch):
        """No row index wraps around: -1 is not row T, T + 1 is not an error."""
        want = formula_features(t, 3, 8)

        def no_table(*args):
            raise AssertionError("the table was consulted")

        monkeypatch.setattr(denoiser, "_feature_table", no_table)
        assert time_features(t, 3, 8).tobytes() == want.tobytes()

    def test_result_is_a_fresh_array(self):
        """Writing into a result leaves the shared table and later results alone."""
        first = time_features(np.array([1, 2]), 40, 8)
        first[:] = 0.0
        one = time_features(2, 40, 8)
        one[:] = 0.0
        assert time_features(np.array([1, 2]), 40, 8).tobytes() == \
            formula_features(np.array([1, 2]), 40, 8).tobytes()


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


def functional_optimizer_step(w, state, grad, lr, weight_decay):
    """One AdamW update as a pure function of the weights, an (m, v, step)
    state and the gradient, written out in the ufuncs and order of
    ``optimizer_step``: an independent reference for its bits."""
    m, v, step = state
    assert np.all(np.isfinite(grad))
    norm = float(np.linalg.norm(grad))
    if norm > 1.0:
        grad = grad * (1.0 / norm)
    step += 1
    m = m * 0.9
    tmp = grad * (1.0 - 0.9)
    m += tmp
    v = v * 0.999
    np.square(grad, out=tmp)
    tmp *= 1.0 - 0.999
    v += tmp
    np.divide(v, 1.0 - 0.999**step, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += 1e-8
    upd = m / (1.0 - 0.9**step)
    upd *= lr
    upd /= tmp
    w = w * (1.0 - lr * weight_decay)
    w -= upd
    return w, (m, v, step)


def zero_state(n):
    return np.zeros(n), np.zeros(n), 0


def gradients(n, steps, seed):
    """Gradients whose norms straddle the clip at 1 (both branches taken)."""
    rng = np.random.default_rng(seed)
    scales = [0.02, 0.5, 3.0, 40.0]
    return [rng.standard_normal(n) * scales[i % 4] / math.sqrt(n) for i in range(steps)]


def run_bytes(run):
    return [run.params.weights.tobytes(), run._m.tobytes(), run._v.tobytes(), run.step_count]


def assert_run_is(run, w, state):
    m, v, step = state
    assert run.params.weights.tobytes() == w.tobytes()
    assert run._m.tobytes() == m.tobytes() and run._v.tobytes() == v.tobytes()
    assert run.step_count == step


class TestOptimizerStep:
    def test_zero_grad_fixed_point(self):
        p = init_network(SMALL, seed=0)
        run = AdamW(p, lr=1e-3, weight_decay=0.0)
        optimizer_step(run, np.zeros(p.param_count))
        np.testing.assert_array_equal(run.params.weights, p.weights)
        assert run.step_count == 1

    def test_hand_computed_single_coordinate(self):
        """The fourth update, evaluated coordinate-wise from moments
        accumulated by hand over three prior steps."""
        arch = Architecture(input_dim=1, hidden_dims=(1,), time_embed_dim=2)
        p = DenoiserParams(arch, np.array([0.5, 0.0, 0.0, 0.0, 0.0, 0.0]))
        run = AdamW(p, lr=0.01, weight_decay=0.1)
        g1, g2, g3, g4 = 0.2, -0.4, 0.1, 0.3
        for g in (g1, g2, g3):
            optimizer_step(run, np.array([g, 0.0, 0.0, 0.0, 0.0, 0.0]))
        m3 = 0.1 * (0.9**2 * g1 + 0.9 * g2 + g3)
        v3 = 0.001 * (0.999**2 * g1**2 + 0.999 * g2**2 + g3**2)
        assert run._m[0] == pytest.approx(m3, rel=1e-12)
        assert run._v[0] == pytest.approx(v3, rel=1e-12)
        w3 = float(run.params.weights[0])
        optimizer_step(run, np.array([g4, 0.0, 0.0, 0.0, 0.0, 0.0]))

        m = 0.9 * m3 + 0.1 * g4
        v = 0.999 * v3 + 0.001 * g4**2
        m_hat = m / (1 - 0.9**4)
        v_hat = v / (1 - 0.999**4)
        expected = w3 * (1 - 0.01 * 0.1) - 0.01 * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert run.params.weights[0] == pytest.approx(expected, rel=1e-12)
        assert run.params.weights[1] == 0.0
        assert run.step_count == 4

    def test_clipping_definition(self):
        g = np.full(74, 10.0 / math.sqrt(74))  # norm 10
        p = init_network(SMALL, seed=0)
        a = AdamW(p, lr=1e-3, weight_decay=0.0)
        b = AdamW(p, lr=1e-3, weight_decay=0.0)
        clipped = g.copy()
        optimizer_step(a, clipped)
        assert np.linalg.norm(clipped) == pytest.approx(1.0, rel=1e-12)
        # A pre-normalized gradient produces the identical update.
        optimizer_step(b, g / 10.0)
        np.testing.assert_array_equal(a.params.weights, b.params.weights)

    def test_run_copies_its_start_model_and_clips_grad_in_place(self):
        p = init_network(SMALL, seed=0)
        before = p.weights.tobytes()
        run = AdamW(p, lr=1e-3)
        grad = np.full(p.param_count, 3.0)  # norm above 1: clipped
        norm = np.linalg.norm(grad)
        optimizer_step(run, grad)
        assert p.weights.tobytes() == before
        assert run.params.weights.tobytes() != before
        np.testing.assert_array_equal(grad, 3.0 * (1.0 / norm))
        assert not np.shares_memory(run.params.weights, p.weights)
        result = run.result()
        assert not result.weights.flags.writeable
        assert not np.shares_memory(result.weights, run.params.weights)

    def test_nonfinite_grad_rejected(self):
        p = init_network(SMALL, seed=0)
        run = AdamW(p, lr=1e-3)
        bad = np.zeros(p.param_count)
        bad[0] = np.nan
        with pytest.raises(FloatingPointError):
            optimizer_step(run, bad)

    def test_gradient_shape_checked(self):
        """A scalar would broadcast over the weights; it is refused, as is a
        gradient of the wrong length or rank, and the run is unchanged."""
        p = init_network(SMALL, seed=0)
        run = AdamW(p, lr=1e-3)
        before = run_bytes(run)
        for bad in [np.float64(0.1), 0.1, np.zeros(p.param_count - 1),
                    np.zeros((p.param_count, 1))]:
            with pytest.raises(ValueError, match="gradient shape"):
                optimizer_step(run, bad)
        assert run_bytes(run) == before

    def test_hyperparameters_checked(self):
        p = init_network(SMALL, seed=0)
        for lr in (0.0, -1e-3, math.nan):
            with pytest.raises(ValueError, match="lr"):
                AdamW(p, lr=lr)
        with pytest.raises(ValueError, match="weight_decay"):
            AdamW(p, lr=1e-3, weight_decay=-1e-4)


class TestInPlaceAdamW:
    """``optimizer_step`` on a run's buffers against the pure functional
    update written out above, bit for bit."""

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4, 0.05])
    def test_sixty_steps_equal_the_pure_and_the_functional_update(self, weight_decay):
        p = init_network(SMALL, seed=4)
        run = AdamW(p, lr=3e-3, weight_decay=weight_decay)
        ref_w, ref_state = p.weights, zero_state(p.param_count)
        grads = gradients(p.param_count, 60, seed=9)
        assert {np.linalg.norm(g) > 1.0 for g in grads} == {True, False}
        for g in grads:
            buf = run.grads[0][0]
            buf[:] = g
            optimizer_step(run, buf)
            ref_w, ref_state = functional_optimizer_step(ref_w, ref_state, g, 3e-3, weight_decay)
            assert_run_is(run, ref_w, ref_state)
        assert run.step_count == 60
        assert run.result().weights.tobytes() == ref_w.tobytes()

    def test_layer_views_follow_the_updates(self):
        p = init_network(SMALL, seed=1)
        run = AdamW(p, lr=1e-2)
        layers = run.params.layers
        for g in gradients(p.param_count, 5, seed=2):
            optimizer_step(run, g.copy())
        assert run.params.layers is layers
        fresh = DenoiserParams(SMALL, run.params.weights.copy()).layers
        for (w, b), (fw, fb) in zip(layers, fresh):
            assert w.tobytes() == fw.tobytes() and b.tobytes() == fb.tobytes()
        assert not run.params.weights.flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_gradient_raises_at_its_step_and_changes_nothing(self, bad):
        p = init_network(SMALL, seed=0)
        run = AdamW(p, lr=1e-3)
        grads = gradients(p.param_count, 8, seed=5)
        grads[6][3] = bad
        ref_w, ref_state = p.weights, zero_state(p.param_count)
        for i, g in enumerate(grads):
            if i == 6:
                before = run_bytes(run)
                with pytest.raises(FloatingPointError):
                    optimizer_step(run, g.copy())
                assert run_bytes(run) == before
                break
            optimizer_step(run, g.copy())
            ref_w, ref_state = functional_optimizer_step(ref_w, ref_state, g, 1e-3, 1e-4)
        assert_run_is(run, ref_w, ref_state)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_finite_gradient_whose_squared_norm_overflows(self):
        """Entries of 1e200: every one is finite, the norm is inf, and the
        clip scales the gradient by 1 / inf, to zero, as it always did."""
        p = init_network(SMALL, seed=0)
        run = AdamW(p, lr=1e-3, weight_decay=0.01)
        g0 = gradients(p.param_count, 1, seed=1)[0]
        optimizer_step(run, g0.copy())
        ref_w, ref_state = functional_optimizer_step(p.weights, zero_state(p.param_count), g0,
                                                     1e-3, 0.01)
        g = np.full(p.param_count, 1e200)
        g[::2] = -1e200
        assert math.isinf(np.linalg.norm(g))
        optimizer_step(run, g.copy())
        ref_w, ref_state = functional_optimizer_step(ref_w, ref_state, g, 1e-3, 0.01)
        assert_run_is(run, ref_w, ref_state)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_nonfinite_weights_after_the_update_raise(self):
        """Weights of 1e300 decayed by 1 - lr * wd = -1e304 overflow; weights
        of 1e200 whose squares overflow are still accepted."""
        p = DenoiserParams(SMALL, np.full(SMALL.param_count, 1e300))
        run = AdamW(p, lr=1e308)
        with pytest.raises(ValueError, match="non-finite"):
            optimizer_step(run, np.full(p.param_count, 0.1))
        big = DenoiserParams(SMALL, np.full(SMALL.param_count, 1e200))
        run = AdamW(big, lr=1e-3)
        optimizer_step(run, np.full(p.param_count, 0.1))
        ref_w, ref_state = functional_optimizer_step(big.weights, zero_state(p.param_count),
                                                     np.full(p.param_count, 0.1), 1e-3, 1e-4)
        assert_run_is(run, ref_w, ref_state)
