"""Stride-grid ELBO estimation and paired model score differences.

The ELBO of a sample under a model is estimated as the negative sum of
per-timestep KL divergences between the true posterior q(x_{t-1} | x_t,
x_0) and the model posterior p(x_{t-1} | x_t), evaluated on a uniform
timestep grid starting at t = 2 (the reconstruction term at t = 1 and
the prior term at t = T are constants across compared models and are
dropped).  Both posteriors share the fixed variance, so each KL is a
closed-form mean-difference term.

Noise at each grid point derives deterministically from (noise_seed, t),
which makes score differences between two models use identical noise
(variance reduction) and makes grid sums additive over disjoint grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .denoiser import DenoiserParams, NetworkDenoiser
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


def as_denoiser(model, s: Schedule):
    """Accept DenoiserParams or any (xt, t, cond) -> eps callable."""
    if isinstance(model, DenoiserParams):
        return NetworkDenoiser(model, s.num_steps)
    if callable(model):
        return model
    raise TypeError(f"cannot interpret {type(model).__name__} as a denoiser")


def elbo_estimate(
    model,
    x0: np.ndarray,
    cond: np.ndarray | None,
    cfg: ElboConfig,
    s: Schedule,
) -> float:
    """Negative sum of per-timestep posterior KLs on the stride grid.

    Higher is better; a model predicting the exact noise at every grid
    point attains 0.  Identical (model, x0, cfg) always reproduce the
    same value because x_t derives from (noise_seed, t).
    """
    if cfg.t_max > s.num_steps:
        raise ValueError(f"t_max {cfg.t_max} exceeds schedule length {s.num_steps}")
    den = as_denoiser(model, s)
    x0 = np.asarray(x0, dtype=np.float64)
    terms = []
    for t in cfg.grid():
        kls = []
        for j in range(cfg.samples_per_t):
            eps = rng_for(cfg.noise_seed, t, j).standard_normal(x0.shape[0])
            xt = forward_marginal(s, x0, t, eps)
            q = true_posterior(s, x0, xt, t)
            eps_hat = np.asarray(den(xt, t, cond), dtype=np.float64)
            p = model_posterior(s, eps_hat, xt, t)
            kls.append(gaussian_kl_isotropic(q.mean, p.mean, q.variance))
        terms.append(math.fsum(kls) / cfg.samples_per_t)
    return -math.fsum(terms)


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
