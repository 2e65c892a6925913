"""Block query path against per-query references built from one-point primitives.

``sample`` runs all seeds as one (Q, dim) block and an ``ElboGrid`` scores
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
    ElboSpec,
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
from groupattr.scoring import ElboGrid
from groupattr.seeding import content_rng, derive_seed, normals, query_seeds

S = build_schedule(50, "squared_cosine")
# Sampling with an untrained network stays O(1) only where abar_T is not tiny.
S_LIN = build_schedule(50, "linear")
N_GROUPS = 3


def one_point_eps(model, xt, t, cond):
    if isinstance(model, DenoiserParams):
        return predict_eps(model, xt, t, S.num_steps, cond)
    return empirical_denoiser(model.points, xt, t, S)


def reference_elbo(model, x0, cond, seed, spec):
    dim = x0.shape[0]
    terms = []
    for t in range(2, S.num_steps, spec.stride):
        kls = []
        for j in range(spec.samples_per_t):
            eps = normals(content_rng(seed, t, j, n=dim + dim % 2), dim)[0]
            xt = forward_marginal(S, x0, t, eps)
            q = true_posterior(S, x0, xt, t)
            p = model_posterior(S, one_point_eps(model, xt, t, cond), xt, t)
            kls.append(gaussian_kl_isotropic(q.mean, p.mean, q.variance))
        terms.append(math.fsum(kls) / spec.samples_per_t)
    return -math.fsum(terms)


def reference_matrix(x0s, conds, full, cfs, spec, noise_seed):
    rows = []
    for q, (x0, cond) in enumerate(zip(x0s, [None] * len(x0s) if conds is None else conds)):
        seed = derive_seed(noise_seed, "query", q)
        e_full = reference_elbo(full, x0, cond, seed, spec)
        rows.append([e_full - reference_elbo(cf, x0, cond, seed, spec) for cf in cfs])
    return np.array(rows)


def reference_sample(s, eps_fn, seed, cond, steps, method, dim, clip_x0):
    """One seed through the reverse process, one row at a time.  Its normals
    are the seed's one-row keyed draw: x_T, then one row per step that adds
    noise."""
    taus = np.unique(np.round(np.linspace(s.num_steps, 1, steps)).astype(int))
    width = (len(taus) if method == "ddpm" else 1) * dim
    noise = iter(normals(content_rng(seed, "sample", n=width + width % 2), width).reshape(-1, dim))
    x = next(noise)
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
                x = x + math.sqrt(var) * next(noise)
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
    return (KernelDenoiser(d.labeled_samples()[0], S),
            [KernelDenoiser(d.labeled_samples(exclude=k)[0], S) for k in range(N_GROUPS)])


def query_block(n, cond_mode):
    d = dataset()
    x0 = np.random.default_rng(3).normal(size=(n, 2)) * 3.0
    if cond_mode == "null":
        return x0, np.zeros((n, d.cond_dim))
    if cond_mode == "group":
        return x0, np.array([d.cond_vectors[q % N_GROUPS] for q in range(n)])
    return x0, None


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
        x0, cond = query_block(12, cond_mode)
        spec = ElboSpec(stride=6, samples_per_t=samples_per_t)
        got = attribution_matrix(x0, cond, full, cfs, spec, S, query_seeds(77, len(x0))).scores
        want = reference_matrix(x0, cond, full, cfs, spec, 77)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        np.testing.assert_array_equal(np.argmax(got, axis=1), np.argmax(want, axis=1))

    def test_one_query_one_model_is_elbo_estimate(self):
        from groupattr import elbo_estimate

        full, _ = networks()
        (x0,), (cond,) = query_block(1, "group")
        spec = ElboSpec(stride=6)
        block = ElboGrid(x0[None, :], cond[None, :], [91], spec, S).elbos([full])
        assert block.shape == (1, 1)
        assert block[0, 0] == elbo_estimate(full, x0, cond, spec, S, 91)
        assert abs(block[0, 0] - reference_elbo(full, x0, cond, 91, spec)) <= (
            1e-12 * abs(block[0, 0]))

    @pytest.mark.parametrize("samples_per_t", [1, 2])
    def test_grid_sum_is_the_nested_fsum(self, samples_per_t):
        from groupattr.scoring import _grid_sums

        rng = np.random.default_rng(samples_per_t)
        kls = rng.lognormal(0.0, 6.0, size=(6, 40, 10, samples_per_t))
        want = np.array([[math.fsum(math.fsum(kl_j) / samples_per_t for kl_j in kl_q)
                          for kl_q in kl_m] for kl_m in kls])
        assert _grid_sums(kls).tobytes() == want.tobytes()

    def test_noise_drawn_once_per_query_and_grid_point(self, monkeypatch):
        """One keyed draw per (query, t, j), shared by every model."""
        from groupattr import scoring

        calls = []
        real_content_rng = scoring.content_rng

        def counting_content_rng(roots, *labels, n):
            calls.extend((root, *labels) for root in roots)
            return real_content_rng(roots, *labels, n=n)

        monkeypatch.setattr(scoring, "content_rng", counting_content_rng)
        full, cfs = kernels()
        attribution_matrix(*query_block(5, "none"), full, cfs,
                           ElboSpec(stride=10, samples_per_t=2), S, query_seeds(4, 5))
        assert len(calls) == len(set(calls)) == 5 * len(range(2, 51, 10)) * 2


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

    @pytest.mark.parametrize("method", ["ddpm", "ddim"])
    @pytest.mark.parametrize("steps", [50, 17])
    def test_elementwise_block_is_the_per_seed_loop_bit_for_bit(self, method, steps):
        """With a zero denoiser every step is elementwise, so each row is its
        seed's one-row run exactly: one draw per query gives the values of
        the per-step draws."""
        def zero(x, t, cond):
            return np.zeros_like(x)

        seeds = [0, 7, 2**32 - 1, 2**32, 2**40 + 3]
        block = sample(S_LIN, zero, seeds, steps=steps, method=method, dim=3)
        for row, seed in zip(block, seeds):
            ref = reference_sample(S_LIN, zero, seed, None, steps, method, 3, None)
            assert row.tobytes() == ref.tobytes()


@cache
def desk_oracle():
    """A desk-size oracle built as the harness builds it: the full kernel
    denoiser and its restriction to every leave-one-group-out set."""
    d = generate_grouped_dataset(DatasetSpec(n_groups=5, samples_per_group=200), seed=0)
    points, labels = d.labeled_samples()
    full = KernelDenoiser(points, S)
    return d, full, [full.restrict(np.flatnonzero(labels != k)) for k in range(5)]


class TestSharedKernelBlock:
    """The oracle's denoisers take their predictions from the full point
    set's one kernel block: one distance block and one ``exp`` per row
    block of each grid point.  Every prediction is bit for bit
    ``empirical_denoiser`` over the denoiser's own points."""

    @staticmethod
    def assert_block_predictions(full, subsets, xt, t):
        """Each restriction, then the full set (which consumes the block's
        exps), predicts ``empirical_denoiser``'s bits; the logits are kept."""
        block = full.kernel_block(xt, t)
        logits = block.logits.copy()
        for sub in subsets:
            want = empirical_denoiser(full.points[sub.cols], xt, t, S).tobytes()
            assert sub.from_block(block, xt, t).tobytes() == want
            assert sub(xt, t).tobytes() == want
        want = empirical_denoiser(full.points, xt, t, S).tobytes()
        assert full.from_block(block, xt, t).tobytes() == want
        assert block.logits.tobytes() == logits.tobytes()

    @pytest.mark.parametrize("t", [2, 12, 31, 50])
    def test_restriction_is_empirical_denoiser_bit_for_bit(self, t):
        from groupattr.scoring import _predict_all

        d, full, cfs = desk_oracle()
        xt = np.random.default_rng(t).normal(size=(64, 2)) * 4.0
        got = _predict_all([full, *cfs], xt, t, None, S)
        want = empirical_denoiser(full.points, xt, t, S).tobytes()
        assert got[0].tobytes() == want
        for k, (cf, eps) in enumerate(zip(cfs, got[1:])):
            points = d.labeled_samples(exclude=k)[0]
            assert cf.points.tobytes() == points.tobytes()
            assert eps.tobytes() == empirical_denoiser(points, xt, t, S).tobytes()
        self.assert_block_predictions(full, cfs, xt, t)

    @pytest.mark.parametrize("t", [2, 31])
    def test_rows_nearest_every_group(self, t):
        """Every group holds some row's nearest point, so every
        leave-one-group-out denoiser recomputes the exps of those rows."""
        d, full, cfs = desk_oracle()
        _, labels = d.labeled_samples()
        xt = math.sqrt(S.alpha_bar(t)) * full.points[::25] + 0.01
        nearest = full.kernel_block(xt, t).nearest
        assert set(labels[nearest].tolist()) == set(range(len(cfs)))
        self.assert_block_predictions(full, cfs, xt, t)

    @pytest.mark.parametrize("t", [2, 12])
    def test_row_maximum_tied_across_two_groups(self, t):
        """A point of group 0 duplicated in group 1: rows centred on it have
        their first argmax in group 0 and the same maximum in group 1.  The
        last row's nearest point is in group 0 too; at t = 2 its exps over
        the other groups, taken relative to the full row maximum, underflow
        to 0, so leaving out group 0 must compute them again."""
        points = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0], [3.0, 0.0], [-3.0, 0.0]])
        labels = np.array([0, 0, 1, 1, 2])
        full = KernelDenoiser(points, S)
        cfs = [full.restrict(np.flatnonzero(labels != k)) for k in range(3)]
        xt = math.sqrt(S.alpha_bar(t)) * np.array([[3.0, 0.0], [3.0, 0.0], [0.0, 0.0]])
        xt[1] += 1e-3
        block = full.kernel_block(xt, t)
        assert block.nearest.tolist() == [1, 1, 0]
        assert block.logits[:2, 1].tobytes() == block.logits[:2, 3].tobytes()
        self.assert_block_predictions(full, cfs, xt, t)

    @pytest.mark.parametrize("t", [2, 31])
    def test_any_column_subset(self, t):
        """Restrictions that are no group's complement, copied run by run:
        every third point (one run per point), the whole set and the first
        or last group left out (one run each), a single point, and columns
        out of order with a repeat."""
        _, full, _ = desk_oracle()
        n = len(full.points)
        third = full.restrict(np.arange(0, n, 3))
        subsets = [third, full.restrict(np.arange(n)), full.restrict([417]),
                   full.restrict(np.arange(200, n)), full.restrict(np.arange(n - 200)),
                   full.restrict([5, 6, 7, 2, 3, 3])]
        assert [len(sub._runs) for sub in subsets] == [len(third.cols), 1, 1, 1, 1, 3]
        xt = np.random.default_rng(t).normal(size=(64, 2)) * 4.0
        nearest = full.kernel_block(xt, t).nearest
        assert 0 < np.count_nonzero(nearest % 3) < len(xt)
        self.assert_block_predictions(full, subsets, xt, t)

    def test_restrict_rejects_columns_outside_the_point_set(self):
        """A negative or too-large index, or columns that are not 1-D, are
        refused rather than wrapped or sliced into other points."""
        _, full, _ = desk_oracle()
        n = len(full.points)
        for cols in ([-1, 0, 1], [0, n], [n - 1, n], np.arange(6).reshape(2, 3), 3):
            with pytest.raises(ValueError):
                full.restrict(cols)
        assert full.restrict([0, n - 1]).points.tobytes() == full.points[[0, n - 1]].tobytes()

    @pytest.mark.parametrize("t", [2, 12, 31])
    def test_unequal_group_sizes(self, t, tmp_path):
        """Groups of 3, 9 and 5 points: each leave-one-group-out set, built
        by the harness, predicts the bits of ``empirical_denoiser`` over
        the dataset's samples without that group."""
        from groupattr import GroupedDataset, Pipeline, default_experiment_config
        from groupattr.scoring import _predict_all

        rng = np.random.default_rng(11)
        groups = [rng.normal(size=(m, 2)) * 2.0 + 3.0 * k for k, m in enumerate((3, 9, 5))]
        d = GroupedDataset(groups, 2, None, ["a", "b", "c"])
        p = Pipeline(default_experiment_config(0), tmp_path)
        full, cfs = p._models_for("oracle", d)
        s = p.schedule()
        xt = np.concatenate([math.sqrt(s.alpha_bar(t)) * full.points,
                             rng.normal(size=(47, 2)) * 4.0])
        assert [len(cf._runs) for cf in cfs] == [1, 2, 1]
        assert set(d.labeled_samples()[1][full.kernel_block(xt, t).nearest]) == {0, 1, 2}
        got = _predict_all([full, *cfs], xt, t, None, s)
        assert got[0].tobytes() == empirical_denoiser(full.points, xt, t, s).tobytes()
        for k, (cf, eps) in enumerate(zip(cfs, got[1:])):
            points = d.labeled_samples(exclude=k)[0]
            assert cf.points.tobytes() == points.tobytes()
            assert eps.tobytes() == empirical_denoiser(points, xt, t, s).tobytes()

    @pytest.mark.parametrize("rows", [1, 31, 33, 257])
    def test_row_blocks_give_the_whole_block_bits(self, rows, monkeypatch):
        """``_predict_all`` runs the oracle in row blocks of 32 rows at
        n = 1000.  On x_t blocks of other lengths, with a denoiser listed
        twice and a column subset that is no group's complement, every
        prediction is ``empirical_denoiser``'s over the whole x_t block,
        and no kernel block is larger than one row block."""
        from groupattr import scoring

        _, full, cfs = desk_oracle()
        models = [cfs[2], full.restrict(np.arange(1, len(full.points), 3)), full, cfs[2],
                  cfs[0]]
        sizes = []
        real_kernel_block = KernelDenoiser.kernel_block

        def recording(self, xt, t):
            sizes.append(len(xt))
            return real_kernel_block(self, xt, t)

        monkeypatch.setattr(KernelDenoiser, "kernel_block", recording)
        xt = np.random.default_rng(rows).normal(size=(rows, 2)) * 4.0
        got = scoring._predict_all(models, xt, 12, None, S)
        assert [eps.tobytes() for eps in got] == [
            empirical_denoiser(m.points, xt, 12, S).tobytes() for m in models]
        block_rows = scoring._KERNEL_BLOCK_BYTES // (8 * len(full.points))
        assert block_rows == 32
        assert sum(sizes) == rows and max(sizes) <= block_rows

    def test_denoiser_listed_twice(self):
        from groupattr.scoring import _predict_all

        _, full, cfs = desk_oracle()
        xt = np.random.default_rng(3).normal(size=(16, 2)) * 4.0
        got = _predict_all([full, cfs[0], full, cfs[0], cfs[1]], xt, 12, None, S)
        want = [empirical_denoiser(m.points, xt, 12, S).tobytes()
                for m in (full, cfs[0], full, cfs[0], cfs[1])]
        assert [eps.tobytes() for eps in got] == want


# -- rows depend only on their own query ------------------------------------

Q = 8
PROP_SPEC = ElboSpec(stride=12)


@cache
def full_block():
    full, cfs = networks()
    x0 = np.random.default_rng(8).normal(size=(Q, 2)) * 2.0
    conds = np.array([dataset().cond_vectors[q % N_GROUPS] for q in range(Q)])
    seeds = [derive_seed(99, "query", q) for q in range(Q)]
    scores = ElboGrid(x0, conds, seeds, PROP_SPEC, S).elbos([full, *cfs])
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
    got = ElboGrid(x0[rows], conds[rows], sub_seeds, PROP_SPEC, S).elbos([full, *cfs])
    assert np.max(np.abs(got - scores[:, rows])) <= 1e-12
    got_samples = sample(S_LIN, _net_fn(), sub_seeds, cond=conds[rows], steps=20, dim=2)
    assert np.max(np.abs(got_samples - samples[rows])) <= 1e-12


@settings(max_examples=10, deadline=None)
@given(n=st.integers(1, Q))
def test_matrix_prefix_keeps_rows(n):
    """The first n queries of a matrix score as they do in the whole matrix."""
    full, cfs = networks()
    x0, conds, _, _, _ = full_block()
    whole = attribution_matrix(x0, conds, full, cfs, PROP_SPEC, S, query_seeds(0, Q)).scores
    prefix = attribution_matrix(x0[:n], conds[:n], full, cfs, PROP_SPEC, S,
                                query_seeds(0, n)).scores
    assert np.max(np.abs(prefix - whole[:n])) <= 1e-12
