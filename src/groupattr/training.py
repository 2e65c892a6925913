"""Full-data and leave-one-group-out training, plus the exact kernel denoiser.

Two training entry points share one loop:

- ``train_full`` trains on all groups.  With exposure matching it
  excludes one uniformly random group per epoch so the expected number
  of optimizer steps matches a leave-one-group-out run.
- ``train_logo`` excludes a fixed group throughout.

Both take one ``TrainSpec`` and the run's seed as an argument; the
caller writes the per-epoch log from the ``TrainRun`` they return.

``empirical_denoiser`` is the closed-form optimal eps-predictor for an
empirical data distribution; it serves as an exact oracle both for
attribution (no training required) and as a loss floor for trained
networks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import GroupedDataset
from .denoiser import (
    Architecture,
    DenoiserParams,
    init_network,
    init_optimizer,
    loss_and_grad,
    optimizer_step,
)
from .diffusion import Schedule, kernel_softmax
from .seeding import derive_seed, rng_for


@dataclass(frozen=True)
class TrainSpec:
    epochs: int = 200
    batch_size: int = 128
    lr: float = 1e-3
    exposure_matched: bool = True
    weight_decay: float = 1e-4

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.lr > 0.0:
            raise ValueError("lr must be positive")


@dataclass
class TrainRun:
    """Trained parameters plus bookkeeping for cost accounting and the
    loss log: the mean loss and wall milliseconds of each epoch."""

    params: DenoiserParams
    steps: int
    epoch_losses: list[float]
    wall_seconds: float
    epoch_ms: list[float]


BatchHook = Callable[[int, np.ndarray, np.ndarray | None], None]


def _train(
    d: GroupedDataset,
    arch: Architecture,
    cfg: TrainSpec,
    s: Schedule,
    seed: int,
    fixed_exclude: int | None,
    exposure: bool,
    batch_hook: BatchHook | None = None,
) -> TrainRun:
    params = init_network(arch, derive_seed(seed, "init"))
    if arch.cond_dim not in (0, d.cond_dim):
        raise ValueError(f"architecture cond_dim {arch.cond_dim} != dataset {d.cond_dim}")
    conditional = arch.cond_dim > 0

    opt = init_optimizer(params, cfg.lr, cfg.weight_decay)
    exposure_rng = rng_for(seed, "exposure")
    steps = 0
    epoch_losses: list[float] = []
    epoch_ms: list[float] = []
    start = time.perf_counter()
    for epoch in range(cfg.epochs):
        tic = time.perf_counter()
        if exposure:
            exclude = int(exposure_rng.integers(d.n_groups))
        else:
            exclude = fixed_exclude
        xs, labels = d.labeled_samples(exclude=exclude)
        perm = rng_for(seed, "shuffle", epoch).permutation(len(xs))
        xs, labels = xs[perm], labels[perm]

        losses = []
        n_batches = math.ceil(len(xs) / cfg.batch_size)
        for b in range(n_batches):
            rows = slice(b * cfg.batch_size, (b + 1) * cfg.batch_size)
            bx, blab = xs[rows], labels[rows]
            conds = d.dropout_conditions(blab, conditional, seed, epoch, b)
            if batch_hook is not None:
                batch_hook(epoch, bx, conds)
            loss, grad = loss_and_grad(params, bx, conds, s,
                                       derive_seed(seed, "loss", epoch, b))
            params, opt = optimizer_step(params, opt, grad)
            steps += 1
            losses.append(loss)
        epoch_losses.append(float(np.mean(losses)) if losses else math.nan)
        epoch_ms.append((time.perf_counter() - tic) * 1e3)

    return TrainRun(params, steps, epoch_losses, time.perf_counter() - start, epoch_ms)


def train_full(
    d: GroupedDataset,
    arch: Architecture,
    cfg: TrainSpec,
    s: Schedule,
    seed: int,
    batch_hook: BatchHook | None = None,
) -> TrainRun:
    """Train on all groups (one random group left out per epoch when
    exposure matching is on); the run carries per-epoch logs."""
    if cfg.exposure_matched and d.n_groups < 2:
        raise ValueError("exposure matching needs at least 2 groups")
    return _train(d, arch, cfg, s, seed, fixed_exclude=None, exposure=cfg.exposure_matched,
                  batch_hook=batch_hook)


def train_logo(
    d: GroupedDataset,
    k: int,
    arch: Architecture,
    cfg: TrainSpec,
    s: Schedule,
    seed: int,
    batch_hook: BatchHook | None = None,
) -> TrainRun:
    """Train with group k excluded throughout, same step budget as
    ``train_full`` under equal group sizes; the run carries per-epoch logs."""
    if not 0 <= k < d.n_groups:
        raise ValueError(f"group index {k} outside [0, {d.n_groups})")
    return _train(d, arch, cfg, s, seed, fixed_exclude=k, exposure=False,
                  batch_hook=batch_hook)


def empirical_denoiser(subset: np.ndarray, xt: np.ndarray, t: int, s: Schedule) -> np.ndarray:
    """Exact posterior-mean eps-predictor of the empirical distribution.

    Returns sum_i softmax_i(-|xt - sqrt(abar_t) x_i|^2 / (2 sigma_t^2))
    * (xt - sqrt(abar_t) x_i) / sigma_t, evaluated with a stable
    log-sum-exp, for one x_t row (dim,) or a block (B, dim).  This is
    the minimizer of the eps-prediction loss when the data distribution
    is the empirical measure on ``subset``.
    """
    w, centers = kernel_softmax(subset, xt, t, s)
    return (xt - w @ centers) / s.sigma(t)


class KernelDenoiser:
    """Block denoiser running ``empirical_denoiser`` over a fixed point set.

    Ignores the condition argument; the empirical predictor is defined
    on the raw sample space.
    """

    def __init__(self, points: np.ndarray, schedule: Schedule):
        self.points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if self.points.shape[0] == 0:
            raise ValueError("points must be non-empty")
        self.schedule = schedule

    @property
    def input_dim(self) -> int:
        return self.points.shape[1]

    def __call__(self, xt: np.ndarray, t: int, cond: np.ndarray | None = None) -> np.ndarray:
        return empirical_denoiser(self.points, xt, t, self.schedule)
