"""Stride-grid ELBO estimation and paired model score differences.

The ELBO of a sample under a model is estimated as the negative sum of
per-timestep KL divergences between the true posterior q(x_{t-1} | x_t,
x_0) and the model posterior p(x_{t-1} | x_t), evaluated at every
``stride``-th timestep from t = 2 to T - 1.  The reconstruction term at
t = 1 and the prior term are constants across compared models and are
dropped.  So is the KL term at t = T: the schedule clips beta_T (to 0.999
for the squared-cosine schedule), which weights that term's eps error
hundreds of times more than any other, so a grid that reached T would be
ruled by one noisy term.  ``ElboSpec`` holds the stride and the number
of noise draws per grid point.  Both posteriors share the fixed variance,
so each KL is a closed-form mean-difference term.

Scoring runs on blocks: ``elbo_block`` scores Q queries under M models
with one denoiser call per model and grid point.  Each query's noise at
grid point t derives deterministically from (its noise seed, t): the
(Q, dim) noise block of a grid point is one keyed ``content_rng`` draw,
drawn once and shared by every model, which makes score differences
between models use identical noise (variance reduction).  The caller
derives the Q noise seeds once and passes the same list to every block.

Kernel denoisers over one point set (the oracle's full and
leave-one-group-out sets) share one ``KernelBlock`` per grid point: one
distance block and one exp(logits - row maximum) over all n points.  A
subset reuses those exps wherever the row maximum over all points lies
in the subset.  There the maximum over the subset is the same float, so
the exps are the very bits its own softmax would compute.  Only the other
rows are exponentiated again.  Each set's row sums, normalisation and
contraction then run as they would alone, so every score is bit for bit
the one its denoiser would give scored by itself.  ``elbo_estimate`` and
``paired_score_difference`` are the one-query cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .denoiser import DenoiserParams, forward_batch
from .diffusion import Schedule, forward_marginal, model_posterior, true_posterior
from .seeding import content_rng, normals
from .training import KernelDenoiser


@dataclass(frozen=True)
class ElboSpec:
    """The ELBO grid (every ``stride``-th t from 2 to T - 1) and draws per t."""

    stride: int = 10
    samples_per_t: int = 1

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.samples_per_t < 1:
            raise ValueError("samples_per_t must be >= 1")


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


def _predict_all(models: Sequence, xt: np.ndarray, t: int, cond: np.ndarray | None,
                 s: Schedule) -> list[np.ndarray]:
    """Every model's eps block at (x_t, t).

    DenoiserParams run as one forward pass.  Kernel denoisers over one
    base share that base's one ``KernelDenoiser.kernel_block``: one
    distance block and one ``exp`` over all its points, from which each
    takes its columns (see ``KernelDenoiser.from_block`` for why the bits
    are those of its own softmax).  The base's own denoiser normalises the
    block's exps in place, so it predicts last, and a denoiser listed
    twice predicts once.  Any other callable is a block denoiser.
    """
    eps: list = [None] * len(models)
    kernels: dict[int, list[int]] = {}
    for m, model in enumerate(models):
        if isinstance(model, DenoiserParams):
            eps[m] = forward_batch(model, xt, t, s.num_steps, cond)
        elif isinstance(model, KernelDenoiser):
            kernels.setdefault(id(model.base), []).append(m)
        elif callable(model):
            eps[m] = np.asarray(model(xt, t, cond), dtype=np.float64)
        else:
            raise TypeError(f"cannot interpret {type(model).__name__} as a denoiser")
    for users in kernels.values():
        base = models[users[0]].base
        block = base.kernel_block(xt, t)
        done: dict[int, np.ndarray] = {}
        for m in sorted(users, key=lambda m: models[m] is base):
            if id(models[m]) not in done:
                done[id(models[m])] = models[m].from_block(block, xt, t)
            eps[m] = done[id(models[m])]
    return eps


def elbo_block(
    models: Sequence,
    x0: np.ndarray,
    cond: np.ndarray | None,
    noise_seeds: Sequence[int],
    spec: ElboSpec,
    s: Schedule,
) -> np.ndarray:
    """ELBO of every query under every model, as an (M models, Q queries) array.

    ``x0`` holds one query per row and ``cond`` is None or one condition
    row per query.  The grid is ``range(2, T, spec.stride)``.  At each
    grid point t and sample j, the (Q, dim) noise block is
    ``normals(content_rng(noise_seeds, t, j, n=dim + dim % 2), dim)``:
    row q depends only on (noise_seeds[q], t, j).  The noise, x_t and
    the true posterior are formed once and shared by all models, and
    each model makes one denoiser call over the Q rows (kernel denoisers
    over one point set share its kernel block).  Per query the
    per-timestep KLs are summed with ``math.fsum`` over the grid, so each
    row is the value the query would get scored alone.
    """
    if s.num_steps < 3:
        raise ValueError(f"the ELBO grid is t = 2..T - 1, but T = {s.num_steps}")
    x0 = np.asarray(x0, dtype=np.float64)
    if len(noise_seeds) != len(x0):
        raise ValueError(f"{len(noise_seeds)} noise seeds for {len(x0)} queries")
    if len(x0) == 0:
        return np.zeros((len(models), 0))
    grid = range(2, s.num_steps, spec.stride)
    J = spec.samples_per_t
    kls = np.empty((len(models), len(x0), len(grid), J))
    dim = x0.shape[1]
    for g, t in enumerate(grid):
        for j in range(J):
            eps = normals(content_rng(noise_seeds, t, j, n=dim + dim % 2), dim)
            xt = forward_marginal(s, x0, t, eps)
            q = true_posterior(s, x0, xt, t)
            for m, eps_hat in enumerate(_predict_all(models, xt, t, cond, s)):
                p = model_posterior(s, eps_hat, xt, t)
                kls[m, :, g, j] = np.sum((q.mean - p.mean) ** 2, axis=1) / (2.0 * q.variance)
    return -_grid_sums(kls)


def _grid_sums(kls: np.ndarray) -> np.ndarray:
    """Per (model, query) of an (M, Q, G, J) KL block: ``math.fsum`` over
    the J samples of each grid point divided by J, then ``math.fsum`` over
    the grid in grid order.  Runs on Python floats, not numpy scalars.
    With J = 1 the per-point mean ``math.fsum([x]) / 1`` is x exactly, so
    the grid sums run straight over the (M * Q, G) rows."""
    M, Q, G, J = kls.shape
    if J == 1:
        rows = kls.reshape(M * Q, G).tolist()
    else:
        means = [math.fsum(kl_j) / J for kl_j in kls.reshape(-1, J).tolist()]
        rows = [means[i:i + G] for i in range(0, len(means), G)]
    return np.array([math.fsum(row) for row in rows]).reshape(M, Q)


def elbo_estimate(
    model,
    x0: np.ndarray,
    cond: np.ndarray | None,
    spec: ElboSpec,
    s: Schedule,
    noise_seed: int,
) -> float:
    """Negative sum of per-timestep posterior KLs on the stride grid.

    Higher is better; a model predicting the exact noise at every grid
    point attains 0.  The noise at (t, j) is keyed by
    ``(noise_seed, t, j)``, so identical (model, x0, spec, noise_seed)
    always reproduce the same value.  This is ``elbo_block`` for one
    model and one query.
    """
    cond = None if cond is None else np.atleast_2d(cond)
    return float(elbo_block([model], np.atleast_2d(x0), cond, [noise_seed], spec, s)[0, 0])


def paired_score_difference(
    model_full,
    model_cf,
    x0: np.ndarray,
    cond: np.ndarray | None,
    spec: ElboSpec,
    s: Schedule,
    noise_seed: int,
) -> float:
    """ELBO(full) - ELBO(counterfactual) under one shared noise draw.

    Positive values mean the full model explains the sample better than
    the counterfactual.  Identical models give exactly 0 and swapping
    the arguments flips the sign exactly.
    """
    check_input_dims([model_full, model_cf])
    return elbo_estimate(model_full, x0, cond, spec, s, noise_seed) - elbo_estimate(
        model_cf, x0, cond, spec, s, noise_seed
    )
