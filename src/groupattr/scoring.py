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

Scoring runs on blocks.  An ``ElboGrid`` is one query block noised at
every grid point: each query's noise at grid point t derives
deterministically from (its noise seed, t), so the (Q, dim) noise block
of a grid point is one keyed ``content_rng`` draw.  The grid forms the
noise, x_t and true posterior once, and every model it scores, in one
``ElboGrid.elbos`` call or several, sees that same noise, which makes
score differences between models use identical noise (variance
reduction).  A model makes one denoiser call per grid point, and its
ELBO row does not depend on which models are scored with it, so a
pipeline scores its full model once and subtracts each counterfactual
row from that.

Kernel denoisers over one point set (the oracle's full and
leave-one-group-out sets) are scored in row blocks of the x_t block,
each of about ``_KERNEL_BLOCK_BYTES`` per (rows, n) array so that the
distance and exp blocks stay in cache.  In a row block they share one
``KernelBlock``: one distance block and one exp(logits - row maximum)
over all n points.  A subset copies its columns of those exps as the
slices of its runs of consecutive point indices (one or two runs for a
leave-one-group-out set), and reuses them wherever the row maximum
over all points lies in the subset.  There the maximum over the subset is
the same float, so the exps are the very bits its own softmax would
compute.  Only the other rows are exponentiated again.  Each set's row
sums, normalisation and contraction then run as they would alone, so
every score is bit for bit the one its denoiser would give scored by
itself (see ``_row_blocks`` for the one condition on BLAS).
``elbo_estimate`` and ``paired_score_difference`` are the one-query
cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .denoiser import DenoiserParams, forward_batch
from .diffusion import (GaussianLaw, Schedule, forward_marginal, model_posterior,
                        true_posterior)
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


# The (rows, n) float64 arrays of one kernel row block take about this many bytes.
_KERNEL_BLOCK_BYTES = 1 << 18
_ROW_ALIGN = 8


def _row_blocks(rows: int, n: int) -> list[slice]:
    """Row slices of an x_t block of ``rows`` rows for a kernel over n points.

    Each slice's (rows, n) arrays take about ``_KERNEL_BLOCK_BYTES`` (at
    least 16 rows).  Slices start at multiples of 8 rows and the last is
    never one row alone.  BLAS multiplies rows in groups of up to 8 and a
    lone row as a matrix-vector product, so on these slices the
    contraction ``w @ centres`` gives each row the bits of one product
    over all the rows.  The one exception is a product too large for
    BLAS's small-matrix path (on OpenBLAS, rows * n * dim above about
    10^6), whose rows may differ from the sliced ones in the last bits.
    """
    step = max(2 * _ROW_ALIGN, _KERNEL_BLOCK_BYTES // (8 * n) // _ROW_ALIGN * _ROW_ALIGN)
    starts = list(range(0, rows, step))
    if len(starts) > 1 and rows - starts[-1] == 1:
        starts[-1] -= _ROW_ALIGN
    return [slice(a, b) for a, b in zip(starts, [*starts[1:], rows])]


def _predict_all(models: Sequence, xt: np.ndarray, t: int, cond: np.ndarray | None,
                 s: Schedule) -> list[np.ndarray]:
    """Every model's eps block at (x_t, t).

    DenoiserParams run as one forward pass.  Kernel denoisers over one
    base run on the ``_row_blocks`` of x_t.  In each, they share the
    base's one ``KernelDenoiser.kernel_block``, allocated afresh for the
    block: one distance block and one ``exp`` over all its points, from
    which each takes its columns (see ``KernelDenoiser.from_block`` for
    why the bits are those of its own softmax).  The base's own denoiser
    normalises the block's exps in place, so it predicts last, and a
    denoiser listed twice predicts once.  Any other callable is a block
    denoiser.
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
        unique = {id(models[m]): models[m]
                  for m in sorted(users, key=lambda m: models[m] is base)}
        out = {key: np.empty(xt.shape) for key in unique}
        for rows in _row_blocks(len(xt), len(base.points)):
            xt_rows = xt[rows]
            block = base.kernel_block(xt_rows, t)
            for key, model in unique.items():
                out[key][rows] = model.from_block(block, xt_rows, t)
        for m in users:
            eps[m] = out[id(models[m])]
    return eps


class ElboGrid:
    """A query block noised at every ELBO grid point, scored under any models.

    ``x0`` holds one query per row and ``cond`` is None or one condition
    row per query.  The grid is ``range(2, T, spec.stride)``.  At each
    grid point t and sample j, the (Q, dim) noise block is
    ``normals(content_rng(noise_seeds, t, j, n=dim + dim % 2), dim)``:
    row q depends only on (noise_seeds[q], t, j).  The noise, x_t and the
    true posterior are formed here, once, and shared by every model that
    ``elbos`` scores.
    """

    def __init__(self, x0: np.ndarray, cond: np.ndarray | None, noise_seeds: Sequence[int],
                 spec: ElboSpec, s: Schedule):
        if s.num_steps < 3:
            raise ValueError(f"the ELBO grid is t = 2..T - 1, but T = {s.num_steps}")
        x0 = np.asarray(x0, dtype=np.float64)
        if len(noise_seeds) != len(x0):
            raise ValueError(f"{len(noise_seeds)} noise seeds for {len(x0)} queries")
        self.cond, self.s = cond, s
        self.queries = len(x0)
        self.shape = (len(range(2, s.num_steps, spec.stride)), spec.samples_per_t)
        # (t, x_t, true posterior) per grid point and sample, in (t, j) order
        self.points: list[tuple[int, np.ndarray, GaussianLaw]] = []
        if self.queries == 0:
            return
        dim = x0.shape[1]
        for t in range(2, s.num_steps, spec.stride):
            for j in range(spec.samples_per_t):
                eps = normals(content_rng(noise_seeds, t, j, n=dim + dim % 2), dim)
                xt = forward_marginal(s, x0, t, eps)
                self.points.append((t, xt, true_posterior(s, x0, xt, t)))

    def elbos(self, models: Sequence) -> np.ndarray:
        """ELBO of every query under every model, as an (M models, Q queries) array.

        Each model makes one denoiser call per grid point and sample over
        the Q rows (kernel denoisers over one point set share its kernel
        blocks).  Per query the per-timestep KLs are summed with
        ``math.fsum`` over the grid, so each row is the value the query
        would get scored alone, and a model's row is the same bits
        whichever models are scored with it.
        """
        J = self.shape[1]
        kls = np.empty((len(models), self.queries, *self.shape))
        for i, (t, xt, q) in enumerate(self.points):
            g, j = divmod(i, J)
            for m, eps_hat in enumerate(_predict_all(models, xt, t, self.cond, self.s)):
                p = model_posterior(self.s, eps_hat, xt, t)
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
    always reproduce the same value.  This is the one-query, one-model
    ``ElboGrid``.
    """
    cond = None if cond is None else np.atleast_2d(cond)
    grid = ElboGrid(np.atleast_2d(x0), cond, [noise_seed], spec, s)
    return float(grid.elbos([model])[0, 0])


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
