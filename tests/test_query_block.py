"""Block query path against per-query references built from one-point primitives.

``sample`` runs all seeds as one (Q, dim) block and ``elbo_block`` scores
all queries under all models at once.  The references below take one
query at a time through the public single-point functions; the block
path may differ from them only by BLAS rounding (a one-row product
against a block product) and, for the kernel oracle, by the order of
one subtraction.
"""

import math
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupattr import (
    Architecture,
    DatasetSpec,
    DenoiserParams,
    ElboConfig,
    KernelDenoiser,
    attribution_matrix,
    build_schedule,
    empirical_denoiser,
    forward_marginal,
    gaussian_kl_isotropic,
    generate_grouped_dataset,
    init_network,
    model_posterior,
    predict_eps,
    sample,
    true_posterior,
)
from groupattr.denoiser import forward_batch
from groupattr.scoring import elbo_block
from groupattr.seeding import derive_seed, rng_for

S = build_schedule(50, "squared_cosine")
# Sampling with an untrained network stays O(1) only where abar_T is not tiny.
S_LIN = build_schedule(50, "linear")
N_GROUPS = 3


def one_point_eps(model, xt, t, cond):
    if isinstance(model, DenoiserParams):
        return predict_eps(model, xt, t, S.num_steps, cond)
    return empirical_denoiser(model.points, xt, t, S)


def reference_elbo(model, x0, cond, seed, cfg):
    terms = []
    for t in cfg.grid():
        kls = []
        for j in range(cfg.samples_per_t):
            eps = rng_for(seed, t, j).standard_normal(x0.shape[0])
            xt = forward_marginal(S, x0, t, eps)
            q = true_posterior(S, x0, xt, t)
            p = model_posterior(S, one_point_eps(model, xt, t, cond), xt, t)
            kls.append(gaussian_kl_isotropic(q.mean, p.mean, q.variance))
        terms.append(math.fsum(kls) / cfg.samples_per_t)
    return -math.fsum(terms)


def reference_matrix(queries, full, cfs, cfg):
    rows = []
    for q, (x0, cond) in enumerate(queries):
        seed = derive_seed(cfg.noise_seed, "query", q)
        e_full = reference_elbo(full, x0, cond, seed, cfg)
        rows.append([e_full - reference_elbo(cf, x0, cond, seed, cfg) for cf in cfs])
    return np.array(rows)


def reference_sample(s, eps_fn, seed, cond, steps, method, dim, clip_x0):
    """One seed through the reverse process, one row at a time."""
    rng = rng_for(seed, "sample")
    x = rng.standard_normal(dim)
    taus = np.unique(np.round(np.linspace(s.num_steps, 1, steps)).astype(int))
    for i in range(len(taus) - 1, -1, -1):
        t_cur = int(taus[i])
        t_prev = int(taus[i - 1]) if i > 0 else 0
        abar_cur, abar_prev = s.alpha_bar(t_cur), s.alpha_bar(t_prev)
        eps_hat = eps_fn(x, t_cur, cond)
        x0_hat = (x - math.sqrt(1.0 - abar_cur) * eps_hat) / math.sqrt(abar_cur)
        if clip_x0 is not None:
            x0_hat = np.clip(x0_hat, -clip_x0, clip_x0)
        if method == "ddim":
            x = math.sqrt(abar_prev) * x0_hat + math.sqrt(1.0 - abar_prev) * eps_hat
        else:
            alpha_eff = abar_cur / abar_prev
            beta_eff = 1.0 - alpha_eff
            x = (math.sqrt(abar_prev) * beta_eff / (1.0 - abar_cur) * x0_hat
                 + math.sqrt(alpha_eff) * (1.0 - abar_prev) / (1.0 - abar_cur) * x)
            var = (1.0 - abar_prev) / (1.0 - abar_cur) * beta_eff
            if var > 0.0:
                x = x + math.sqrt(var) * rng.standard_normal(dim)
    return x


@cache
def dataset():
    spec = DatasetSpec(n_groups=N_GROUPS, samples_per_group=30, radius=4.0, noise_std=0.3,
                       conditional=True, descriptor_dim=2)
    return generate_grouped_dataset(spec, seed=5)


@cache
def networks():
    """A conditional full model and one perturbed model per group."""
    arch = Architecture(2, (16, 16), 4, cond_dim=dataset().cond_dim)
    full = init_network(arch, seed=1)
    cfs = [full.with_weights(full.weights + 0.05 * np.random.default_rng(k).standard_normal(
        full.param_count)) for k in range(N_GROUPS)]
    return full, cfs


def kernels():
    d = dataset()
    return (KernelDenoiser(d.all_samples(), S),
            [KernelDenoiser(d.all_samples(exclude=k), S) for k in range(N_GROUPS)])


def query_block(n, cond_mode):
    d = dataset()
    x0 = np.random.default_rng(3).normal(size=(n, 2)) * 3.0
    if cond_mode == "null":
        conds = [d.null_condition() for _ in range(n)]
    elif cond_mode == "group":
        conds = [d.cond_vectors[q % N_GROUPS] for q in range(n)]
    else:
        conds = [None] * n
    return list(zip(x0, conds))


class TestBlockScoring:
    @pytest.mark.parametrize("models, cond_mode, samples_per_t", [
        ("network", "null", 1),
        ("network", "group", 1),
        ("network", "group", 2),
        ("oracle", "none", 1),
        ("oracle", "none", 2),
    ])
    def test_matches_per_query_reference(self, models, cond_mode, samples_per_t):
        full, cfs = networks() if models == "network" else kernels()
        queries = query_block(12, cond_mode)
        cfg = ElboConfig(stride=6, t_min=2, t_max=50, noise_seed=77,
                         samples_per_t=samples_per_t)
        got = attribution_matrix(queries, full, cfs, cfg, S).scores
        want = reference_matrix(queries, full, cfs, cfg)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        np.testing.assert_array_equal(np.argmax(got, axis=1), np.argmax(want, axis=1))

    def test_one_query_one_model_is_elbo_estimate(self):
        from groupattr import elbo_estimate

        full, _ = networks()
        (x0, cond), = query_block(1, "group")
        cfg = ElboConfig(stride=6, t_min=2, t_max=50, noise_seed=91)
        block = elbo_block([full], x0[None, :], cond[None, :], [cfg.noise_seed], cfg, S)
        assert block.shape == (1, 1)
        assert block[0, 0] == elbo_estimate(full, x0, cond, cfg, S)
        assert abs(block[0, 0] - reference_elbo(full, x0, cond, cfg.noise_seed, cfg)) <= (
            1e-12 * abs(block[0, 0]))

    def test_noise_drawn_once_per_query_and_grid_point(self, monkeypatch):
        """One keyed draw per (query, t, j), shared by every model."""
        from groupattr import scoring

        calls = []
        real_rng_for = scoring.rng_for

        def counting_rng_for(*path):
            calls.append(path)
            return real_rng_for(*path)

        monkeypatch.setattr(scoring, "rng_for", counting_rng_for)
        full, cfs = kernels()
        cfg = ElboConfig(stride=10, t_min=2, t_max=50, noise_seed=4, samples_per_t=2)
        attribution_matrix(query_block(5, "none"), full, cfs, cfg, S)
        assert len(calls) == len(set(calls)) == 5 * len(cfg.grid()) * 2


class TestBlockSampler:
    @pytest.mark.parametrize("method", ["ddpm", "ddim"])
    @pytest.mark.parametrize("clip_x0", [None, 2.0])
    @pytest.mark.parametrize("steps", [50, 17])
    def test_network_block_matches_per_seed_loop(self, method, clip_x0, steps):
        full, _ = networks()
        seeds = [11, 12, 13, 14, 15, 16]
        conds = np.array([dataset().cond_vectors[q % N_GROUPS] for q in range(len(seeds))])
        block = sample(S_LIN, _net_fn(), seeds, cond=conds, steps=steps, method=method,
                       dim=2, clip_x0=clip_x0)
        loop = np.stack([
            reference_sample(S_LIN, lambda x, t, c: predict_eps(full, x, t, S.num_steps, c),
                             seed, cond, steps, method, 2, clip_x0)
            for seed, cond in zip(seeds, conds)
        ])
        assert np.max(np.abs(block - loop)) <= 1e-12

    @pytest.mark.parametrize("method", ["ddpm", "ddim"])
    def test_kernel_block_matches_per_seed_loop(self, method):
        full, _ = kernels()
        seeds = [21, 22, 23, 24]
        block = sample(S, full, seeds, steps=25, method=method)
        loop = np.stack([
            reference_sample(S, lambda x, t, c: empirical_denoiser(full.points, x, t, S),
                             seed, None, 25, method, 2, None)
            for seed in seeds
        ])
        assert np.max(np.abs(block - loop)) <= 1e-12

    def test_empty_block(self):
        full, _ = kernels()
        assert sample(S, full, []).shape == (0, 2)


# -- rows depend only on their own query ------------------------------------

Q = 8
PROP_CFG = ElboConfig(stride=12, t_min=2, t_max=50, noise_seed=0)


@cache
def full_block():
    full, cfs = networks()
    x0 = np.random.default_rng(8).normal(size=(Q, 2)) * 2.0
    conds = np.array([dataset().cond_vectors[q % N_GROUPS] for q in range(Q)])
    seeds = [derive_seed(99, "query", q) for q in range(Q)]
    scores = elbo_block([full, *cfs], x0, conds, seeds, PROP_CFG, S)
    samples = sample(S_LIN, _net_fn(), seeds, cond=conds, steps=20, dim=2)
    return x0, conds, seeds, scores, samples


def _net_fn():
    full, _ = networks()
    return lambda xt, t, c: forward_batch(full, xt, t, S.num_steps, c)


rows_strategy = st.one_of(
    st.permutations(range(Q)),
    st.lists(st.integers(0, Q - 1), min_size=1, max_size=Q, unique=True),
)


@settings(max_examples=25, deadline=None)
@given(rows=rows_strategy)
def test_block_rows_follow_their_queries(rows):
    """Permuting or subsetting the queries permutes or subsets the rows of
    the scores and of the sampled queries."""
    full, cfs = networks()
    x0, conds, seeds, scores, samples = full_block()
    rows = list(rows)
    sub_seeds = [seeds[r] for r in rows]
    got = elbo_block([full, *cfs], x0[rows], conds[rows], sub_seeds, PROP_CFG, S)
    assert np.max(np.abs(got - scores[:, rows])) <= 1e-12
    got_samples = sample(S_LIN, _net_fn(), sub_seeds, cond=conds[rows], steps=20, dim=2)
    assert np.max(np.abs(got_samples - samples[rows])) <= 1e-12


@settings(max_examples=10, deadline=None)
@given(n=st.integers(1, Q))
def test_matrix_prefix_keeps_rows(n):
    """The first n queries of a matrix score as they do in the whole matrix."""
    full, cfs = networks()
    x0, conds, _, _, _ = full_block()
    queries = list(zip(x0, conds))
    whole = attribution_matrix(queries, full, cfs, PROP_CFG, S).scores
    prefix = attribution_matrix(queries[:n], full, cfs, PROP_CFG, S).scores
    assert np.max(np.abs(prefix - whole[:n])) <= 1e-12
