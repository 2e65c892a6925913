"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
lines alongside pytest's own pass/fail report.
"""

import math
import time

import numpy as np
import pytest

from groupattr import (
    Architecture,
    DatasetSpec,
    ElboSpec,
    KernelDenoiser,
    attribution_matrix,
    build_schedule,
    elbo_estimate,
    gaussian_kl_isotropic,
    generate_grouped_dataset,
    init_network,
    loss_and_grad,
    paired_score_difference,
    rank,
)
from groupattr.denoiser import DenoiserParams, noise_batch
from groupattr.diffusion import forward_marginal
from groupattr.harness import Pipeline, default_experiment_config, run_experiment
from groupattr.seeding import query_seeds
from groupattr.training import empirical_denoiser
from groupattr.unlearning import (
    AnchorSelector,
    UnlearnSpec,
    anchor_select,
    conditional_forget_loss,
    esd_forget_loss,
    preservation_loss,
    retain_mixture_logpdf,
    retrack_forget_loss,
    retrack_target,
)

from test_denoiser import max_rel_error, numeric_grad
from test_metrics import (
    ref_mrr,
    ref_ndcg3,
    ref_rbo,
    ref_spearman,
    ref_top1,
    ref_top3,
    report as metric_report,
)
from test_scoring import kl_by_quadrature


def report(n, text):
    print(f"\nPASS  criterion {n}: {text}")


def test_criterion_1_oracle_identity():
    """Untruncated redirection target equals the kernel denoiser."""
    s = build_schedule(64, "squared_cosine")
    rng = np.random.default_rng(42)
    worst = 0.0
    tic = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(3, 40))
        retain = rng.normal(size=(n, 2)) * float(rng.uniform(0.5, 5.0))
        xt = rng.normal(size=2) * 3.0
        t = int(rng.integers(2, 65))
        gap = np.max(np.abs(
            retrack_target(retain, xt, t, n, s) - empirical_denoiser(retain, xt, t, s)
        ))
        worst = max(worst, float(gap))
    elapsed = time.perf_counter() - tic
    assert worst <= 1e-12
    assert elapsed < 1.0
    report(1, f"oracle identity on 1000 instances, max gap {worst:.2e} ({elapsed:.2f}s)")


def test_criterion_2_exact_nonparametric_attribution():
    """Kernel-denoiser attribution recovers the generating group."""
    tic = time.perf_counter()
    spec = DatasetSpec(n_groups=5, samples_per_group=200, dim=2, radius=5.0,
                       noise_std=0.3)
    d = generate_grouped_dataset(spec, seed=11)
    s = build_schedule(100, "squared_cosine")
    full = KernelDenoiser(d.labeled_samples()[0], s)
    cfs = [KernelDenoiser(d.labeled_samples(exclude=k)[0], s) for k in range(5)]

    queries, labels = [], []
    for q in range(256):
        g = q % 5
        queries.append(d.groups[g][(q * 7) % 200])
        labels.append(g)
    mat = attribution_matrix(np.stack(queries), None, full, cfs, ElboSpec(stride=10), s,
                             query_seeds(321, 256))
    top = np.array([rank(mat.scores[q])[0] for q in range(256)])
    agreement = float(np.mean(top == np.array(labels)))
    elapsed = time.perf_counter() - tic
    assert agreement >= 0.95
    assert elapsed < 60.0
    report(2, f"exact nonparametric top-1 agreement {agreement:.3f} >= 0.95 ({elapsed:.1f}s)")


@pytest.mark.slow
def test_criterion_3_scaled_benchmark_agreement(tmp_path):
    """Trained-network benchmark: retrack vs gold and vs esd, 3 seeds."""
    tic = time.perf_counter()
    outcomes = []
    for seed in (0, 1, 2):
        cfg = default_experiment_config(master_seed=seed)
        summary = run_experiment(cfg, tmp_path / f"seed{seed}")
        r = summary["reports"]
        outcomes.append((seed, r["retrack"]["top1"], r["esd"]["top1"]))
    elapsed = time.perf_counter() - tic
    passing = [s for s, rt, es in outcomes if rt >= 0.60 and rt >= es]
    detail = ", ".join(f"seed {s}: retrack {rt:.3f} esd {es:.3f}" for s, rt, es in outcomes)
    assert len(passing) >= 2, f"only {len(passing)}/3 seeds satisfied the bound ({detail})"
    assert elapsed < 1800.0
    report(3, f"{len(passing)}/3 seeds pass ({detail}) in {elapsed:.0f}s")


def test_criterion_4_retrack_unbiasedness():
    """Importance-reweighted forget-sampled gradient of the untruncated
    objective matches the closed-form retain-only gradient (3 SE)."""
    tic = time.perf_counter()
    s = build_schedule(10, "squared_cosine")
    t = 6
    root = math.sqrt(s.alpha_bar(t))
    sigma = s.sigma(t)
    retain = np.array([-1.2, -0.4, 0.1, 0.7, 1.5])
    forget = np.array([1.8, 2.4])
    a0, b0 = 0.3, -0.2

    # Closed-form gradient of E_{r, eps} (a x_t + b - eps)^2 with
    # x_t = root r + sigma eps: cross terms vanish under E[eps] = 0.
    exact_da = float(np.mean(2 * (a0 * root * retain + b0) * root * retain)
                     + 2 * sigma * (a0 * sigma - 1))
    exact_db = float(np.mean(2 * (a0 * root * retain + b0)))

    n = 200_000
    rng = np.random.default_rng(2024)
    f = forget[rng.integers(0, len(forget), size=n)]
    x = root * f + sigma * rng.standard_normal(n)

    def mix_logpdf(points, xs):
        d2 = (xs[:, None] - root * points[None, :]) ** 2
        logs = -d2 / (2 * sigma**2) - 0.5 * math.log(2 * math.pi * sigma**2)
        m = logs.max(axis=1, keepdims=True)
        return m[:, 0] + np.log(np.exp(logs - m).sum(axis=1)) - math.log(len(points))

    rho = np.exp(mix_logpdf(retain, x) - mix_logpdf(forget, x))
    d2 = (x[:, None] - root * retain[None, :]) ** 2
    logits = -d2 / (2 * sigma**2)
    logits -= logits.max(axis=1, keepdims=True)
    w = np.exp(logits)
    w /= w.sum(axis=1, keepdims=True)
    eps_bar = (w * ((x[:, None] - root * retain[None, :]) / sigma)).sum(axis=1)

    # The vectorized pieces must agree with the library implementations.
    for i in (0, 123, 4567):
        assert abs(
            empirical_denoiser(retain[:, None], x[i : i + 1], t, s)[0] - eps_bar[i]
        ) < 1e-12
        assert abs(
            retain_mixture_logpdf(retain[:, None], x[i : i + 1], t, s)
            - mix_logpdf(retain, x[i : i + 1])[0]
        ) < 1e-12

    resid = a0 * x + b0 - eps_bar
    zs = []
    for g, exact in ((rho * 2 * resid * x, exact_da), (rho * 2 * resid, exact_db)):
        se = g.std(ddof=1) / math.sqrt(n)
        zs.append(abs(g.mean() - exact) / se)
    elapsed = time.perf_counter() - tic
    assert all(z <= 3.0 for z in zs), f"z-scores {zs}"
    assert elapsed < 60.0
    report(4, f"unbiasedness z-scores {zs[0]:.2f}, {zs[1]:.2f} <= 3 at {n} draws ({elapsed:.1f}s)")


def test_criterion_5_metric_suite_exactness():
    """Six metrics vs naive references on 1000 pairs plus worked values."""
    tic = time.perf_counter()
    rng = np.random.default_rng(99)
    checks = [
        ("top1", ref_top1), ("mrr", ref_mrr), ("ndcg3", ref_ndcg3),
        ("top3", ref_top3),
        ("rbo", lambda p, g: ref_rbo(p, g, 0.9)),
        ("spearman", ref_spearman),
    ]
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        ps, gs = rng.normal(size=n), rng.normal(size=n)
        rep = metric_report(ps, gs, 0.9)
        for name, ref in checks:
            worst = max(worst, abs(getattr(rep, name) - ref(ps, gs)))
    assert worst <= 1e-9

    gold3 = np.array([3.0, 2.0, 1.0])
    pred3 = np.array([2.0, 3.0, 1.0])
    assert metric_report(pred3, gold3).ndcg3 == pytest.approx(0.8428, abs=1e-3)
    ident10 = np.arange(10, 0, -1, dtype=float)
    assert metric_report(ident10, ident10, 0.9).rbo == pytest.approx(0.6513, abs=1e-4)
    assert metric_report(ident10, ident10, 0.9).rbo == pytest.approx(1 - 0.9**10, abs=1e-9)
    ident2 = np.array([2.0, 1.0])
    assert metric_report(ident2, ident2, 0.9).rbo == pytest.approx(0.19, abs=1e-12)
    elapsed = time.perf_counter() - tic
    assert elapsed < 10.0
    report(5, f"metric suite max deviation {worst:.1e} <= 1e-9, worked values exact ({elapsed:.1f}s)")


def test_criterion_6_kl_correctness():
    """Closed-form isotropic KL vs 1-D numerical quadrature."""
    tic = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        mu_q, mu_p = rng.normal(size=2) * 2.0
        var = float(rng.uniform(0.05, 3.0))
        analytic = gaussian_kl_isotropic(np.array([mu_q]), np.array([mu_p]), var)
        worst = max(worst, abs(analytic - kl_by_quadrature(mu_q, mu_p, var)))
    elapsed = time.perf_counter() - tic
    assert worst <= 1e-6
    assert elapsed < 5.0
    report(6, f"KL vs quadrature max deviation {worst:.1e} <= 1e-6 ({elapsed:.1f}s)")


def test_criterion_7_gradient_checks():
    """Finite-difference checks for every loss operation."""
    tic = time.perf_counter()
    s = build_schedule(30, "squared_cosine")
    spec = DatasetSpec(n_groups=3, samples_per_group=10, radius=3.0,
                       conditional=True, descriptor_dim=4)
    d = generate_grouped_dataset(spec, seed=61)
    uncond = Architecture(input_dim=2, hidden_dims=(8,), time_embed_dim=4, cond_dim=0)
    cond = Architecture(input_dim=2, hidden_dims=(6,), time_embed_dim=4,
                        cond_dim=d.cond_dim)
    ucfg = UnlearnSpec(method="retrack", lr=1e-3, steps_or_epochs=1,
                       timestep_range=(2, 28), K=5, kl_cap=1e9, batch_size=4)
    retain = d.labeled_samples(exclude=0)[0]
    frozen_c = init_network(cond, seed=100)
    sel = AnchorSelector.from_dataset(d)

    errors = {}
    lo, hi = ucfg.timestep_range
    T = s.num_steps

    def max_error(p, loss):
        """Analytic against central-difference gradient of ``loss(p)``."""
        return max_rel_error(loss(p)[1], numeric_grad(lambda w: loss(p.with_weights(w))[0],
                                                      p.weights.copy()))

    # Each objective on rows noised once, as the loops noise them.
    p = init_network(uncond, seed=1)
    x0, c = d.groups[0][:3], None
    ts, xt, eps, _ = noise_batch(x0, c, s, 7, 1, T)
    errors["training_mse"] = max_error(p, lambda q: loss_and_grad(q, xt, ts, T, c, eps))

    ts, xt, _, _ = noise_batch(x0, c, s, 8, lo, hi)
    targets = retrack_target(retain, xt, ts, ucfg.K, s)
    errors["retrack_forget"] = max_error(
        p, lambda q: retrack_forget_loss(q, xt, ts, targets, ucfg, s))

    pc = init_network(cond, seed=2)
    c = np.tile(d.cond_vectors[0], (3, 1))
    ts, xt, _, _ = noise_batch(x0, c, s, 9, lo, hi)
    errors["esd_forget"] = max_error(
        pc, lambda q: esd_forget_loss(q, frozen_c, xt, ts, c, ucfg, s))

    ts, xt, _, _ = noise_batch(x0, c, s, 10, 1, T)
    errors["preservation"] = max_error(
        pc, lambda q: preservation_loss(q, frozen_c, xt, ts, c, s))

    ts, xt, _, seeds = noise_batch(x0, c, s, 11, lo, hi, anchor_seeds=True)
    anchors = anchor_select(sel, 0, seeds)[1]
    errors["conditional_forget"] = max_error(
        pc, lambda q: conditional_forget_loss(q, frozen_c, xt, ts, c, anchors, s))

    elapsed = time.perf_counter() - tic
    assert all(e <= 1e-3 for e in errors.values()), errors
    assert elapsed < 60.0
    detail = ", ".join(f"{k} {v:.1e}" for k, v in errors.items())
    report(7, f"gradient checks <= 1e-3 ({detail}) ({elapsed:.1f}s)")


def test_criterion_8_variance_reduction():
    """Shared-noise paired differences beat independent-noise ones."""
    tic = time.perf_counter()
    s = build_schedule(100, "squared_cosine")
    arch = Architecture(input_dim=2, hidden_dims=(16, 16), time_embed_dim=8)
    base = init_network(arch, seed=77)
    bump = np.random.default_rng(3).standard_normal(base.param_count) * 0.05
    other = base.with_weights(base.weights + bump)
    x0 = np.array([1.2, -0.7])

    paired, independent = [], []
    for i in range(32):
        spec = ElboSpec(stride=10)
        paired.append(paired_score_difference(base, other, x0, None, spec, s, 4000 + i))
        independent.append(elbo_estimate(base, x0, None, spec, s, 5000 + i)
                           - elbo_estimate(other, x0, None, spec, s, 6000 + i))
    vp, vi = float(np.var(paired)), float(np.var(independent))
    elapsed = time.perf_counter() - tic
    assert vp < vi
    assert elapsed < 120.0
    report(8, f"paired variance {vp:.3e} < independent {vi:.3e} ({elapsed:.1f}s)")


def test_criterion_9_cost_accounting(tiny_run):
    """Step-count ratio exact; totals decompose as preproc + Q * t_query."""
    cfg, out, _ = tiny_run
    rep = Pipeline(cfg, out).ensure_timing()
    # Configured: 6 epochs x ceil(80/16) = 30 steps per leave-one-out
    # model, 10 unlearning steps per group, 3 groups each.
    assert rep.phase_steps["train_logo_0"] == 30
    configured_ratio = (3 * 30) / (3 * 10)
    for m in ("retrack", "esd"):
        assert rep.methods[m]["logo_step_ratio"] == configured_ratio
    for m, entry in rep.methods.items():
        assert entry["total_seconds"] == entry["preproc_seconds"] + entry["query_seconds"]
        assert entry["t_query_seconds"] == entry["query_seconds"] / rep.queries
    report(9, f"step ratio exactly {configured_ratio}, totals decompose exactly")


def test_criterion_10_truncation_behavior():
    """Mean truncation error is non-increasing through doubling K."""
    tic = time.perf_counter()
    s = build_schedule(100, "squared_cosine")
    regimes = {"unlearning range": (50, 97), "full range": (2, 100)}
    curves = {}
    for name, (t_lo, t_hi) in regimes.items():
        errs = []
        for trial in range(150):
            rng = np.random.default_rng(10_000 + trial)
            spec = DatasetSpec(n_groups=5, samples_per_group=40, radius=5.0,
                               noise_std=0.3)
            d = generate_grouped_dataset(spec, seed=trial)
            k = trial % 5
            retain = d.labeled_samples(exclude=k)[0]
            x0 = d.groups[k][int(rng.integers(40))]
            t = int(rng.integers(t_lo, t_hi + 1))
            xt = forward_marginal(s, x0, t, rng.standard_normal(2))
            n = len(retain)
            ks = [1]
            while ks[-1] * 2 < n:
                ks.append(ks[-1] * 2)
            ks.append(n)
            full = retrack_target(retain, xt, t, n, s)
            errs.append([float(np.linalg.norm(retrack_target(retain, xt, t, K, s) - full))
                         for K in ks])
        curve = np.mean(errs, axis=0)
        assert np.all(np.diff(curve) <= 1e-12), f"{name}: {curve}"
        curves[name] = curve
    elapsed = time.perf_counter() - tic
    assert elapsed < 30.0
    detail = "; ".join(f"{k}: {v[0]:.3f} -> {v[-2]:.3f} -> 0" for k, v in curves.items())
    report(10, f"mean truncation error non-increasing over 150 instances ({detail}) ({elapsed:.1f}s)")
