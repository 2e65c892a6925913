"""Stride-grid ELBO estimation and paired model score differences.

The ELBO of a sample under a model is estimated as the negative sum of
per-timestep KL divergences between the true posterior q(x_{t-1} | x_t,
x_0) and the model posterior p(x_{t-1} | x_t), evaluated on a uniform
timestep grid starting at t = 2 (the reconstruction term at t = 1 and
the prior term at t = T are constants across compared models and are
dropped).  Both posteriors share the fixed variance, so each KL is a
closed-form mean-difference term.

Scoring runs on blocks: ``elbo_block`` scores Q queries under M models
with one denoiser call per model and grid point.  Each query's noise at
grid point t derives deterministically from (its noise seed, t), is
drawn once and shared by every model, which makes score differences
between models use identical noise (variance reduction) and makes grid
sums additive over disjoint grids.  ``elbo_estimate`` and
``paired_score_difference`` are the one-query cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .denoiser import DenoiserParams, forward_batch
from .diffusion import Schedule, forward_marginal, model_posterior, true_posterior
from .seeding import rng_for


@dataclass(frozen=True)
class ElboConfig:
    stride: int
    t_min: int
    t_max: int
    noise_seed: int
    samples_per_t: int = 1

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if not 2 <= self.t_min <= self.t_max:
            raise ValueError(f"need 2 <= t_min <= t_max, got [{self.t_min}, {self.t_max}]")
        if self.samples_per_t < 1:
            raise ValueError("samples_per_t must be >= 1")

    def grid(self) -> range:
        return range(self.t_min, self.t_max + 1, self.stride)


def gaussian_kl_isotropic(mu_q: np.ndarray, mu_p: np.ndarray, variance: float) -> float:
    """KL between isotropic Gaussians sharing one scalar variance.

    Equals |mu_q - mu_p|^2 / (2 variance); computed in float64.
    """
    if not variance > 0.0:
        raise ValueError(f"variance must be positive, got {variance}")
    mu_q = np.asarray(mu_q, dtype=np.float64)
    mu_p = np.asarray(mu_p, dtype=np.float64)
    return float(np.sum((mu_q - mu_p) ** 2) / (2.0 * variance))


def check_input_dims(models: Sequence) -> None:
    """Reject models that report different input dimensions.

    A model reports ``input_dim`` itself (denoiser handles) or through
    its ``arch`` (DenoiserParams); a bare callable reports nothing.
    """
    dims = {
        getattr(m, "input_dim", None) or getattr(getattr(m, "arch", None), "input_dim", None)
        for m in models
    } - {None}
    if len(dims) > 1:
        raise ValueError(f"models disagree on input dim: {sorted(dims)}")


def _predict(model, xt: np.ndarray, t: int, cond: np.ndarray | None, s: Schedule) -> np.ndarray:
    # DenoiserParams run as one forward pass; anything else is a block denoiser.
    if isinstance(model, DenoiserParams):
        return forward_batch(model, xt, t, s.num_steps, cond)
    if callable(model):
        return np.asarray(model(xt, t, cond), dtype=np.float64)
    raise TypeError(f"cannot interpret {type(model).__name__} as a denoiser")


def elbo_block(
    models: Sequence,
    x0: np.ndarray,
    cond: np.ndarray | None,
    noise_seeds: Sequence[int],
    cfg: ElboConfig,
    s: Schedule,
) -> np.ndarray:
    """ELBO of every query under every model, as an (M models, Q queries) array.

    ``x0`` holds one query per row and ``cond`` is None or one condition
    row per query.  At each grid point t and sample j, query q draws its
    noise from ``rng_for(noise_seeds[q], t, j)`` (``cfg.noise_seed`` is
    not read: the caller keys each query's stream).  The noise, x_t and
    the true posterior are formed once and shared by all models, and
    each model makes one denoiser call over the Q rows.  Per query the
    per-timestep KLs are summed with ``math.fsum`` over the grid, so each
    row is the value the query would get scored alone.
    """
    if cfg.t_max > s.num_steps:
        raise ValueError(f"t_max {cfg.t_max} exceeds schedule length {s.num_steps}")
    x0 = np.asarray(x0, dtype=np.float64)
    if len(noise_seeds) != len(x0):
        raise ValueError(f"{len(noise_seeds)} noise seeds for {len(x0)} queries")
    if len(x0) == 0:
        return np.zeros((len(models), 0))
    grid = cfg.grid()
    J = cfg.samples_per_t
    kls = np.empty((len(models), len(x0), len(grid), J))
    for g, t in enumerate(grid):
        for j in range(J):
            eps = np.stack([rng_for(seed, t, j).standard_normal(x0.shape[1])
                            for seed in noise_seeds])
            xt = forward_marginal(s, x0, t, eps)
            q = true_posterior(s, x0, xt, t)
            for m, model in enumerate(models):
                p = model_posterior(s, _predict(model, xt, t, cond, s), xt, t)
                kls[m, :, g, j] = np.sum((q.mean - p.mean) ** 2, axis=1) / (2.0 * q.variance)
    return np.array([[-math.fsum(math.fsum(kl_j) / J for kl_j in kl_q) for kl_q in kl_m]
                     for kl_m in kls])


def elbo_estimate(
    model,
    x0: np.ndarray,
    cond: np.ndarray | None,
    cfg: ElboConfig,
    s: Schedule,
) -> float:
    """Negative sum of per-timestep posterior KLs on the stride grid.

    Higher is better; a model predicting the exact noise at every grid
    point attains 0.  The noise at (t, j) comes from
    ``rng_for(cfg.noise_seed, t, j)``, so identical (model, x0, cfg)
    always reproduce the same value.  This is ``elbo_block`` for one
    model and one query.
    """
    cond = None if cond is None else np.atleast_2d(cond)
    return float(elbo_block([model], np.atleast_2d(x0), cond, [cfg.noise_seed], cfg, s)[0, 0])


def paired_score_difference(
    model_full,
    model_cf,
    x0: np.ndarray,
    cond: np.ndarray | None,
    cfg: ElboConfig,
    s: Schedule,
) -> float:
    """ELBO(full) - ELBO(counterfactual) under one shared noise stream.

    Positive values mean the full model explains the sample better than
    the counterfactual.  Identical models give exactly 0 and swapping
    the arguments flips the sign exactly.
    """
    check_input_dims([model_full, model_cf])
    return elbo_estimate(model_full, x0, cond, cfg, s) - elbo_estimate(
        model_cf, x0, cond, cfg, s
    )
