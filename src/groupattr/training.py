"""Full-data and leave-one-group-out training, plus the exact kernel denoiser.

Two training entry points share one loop:

- ``train_full`` trains on all groups.  With exposure matching it
  excludes one uniformly random group per epoch so the expected number
  of optimizer steps matches a leave-one-group-out run.
- ``train_logo`` excludes a fixed group throughout.

Both take one ``TrainSpec`` and the run's seed as an argument; the
caller writes the per-epoch log from the ``TrainRun`` they return.

A step's draws come from streams of the run's seed: epoch e is shuffled
by (seed, "shuffle", e), batch b's condition dropout by (seed, "dropout",
e, b), and the whole epoch is noised by one ``noise_batch`` call in which
batch b's rows are keyed by ``derive_seed(seed, "loss", e, b)``.  So every
batch gets the noise that ``loss_and_grad`` would draw for it alone.

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
    AdamW,
    Architecture,
    DenoiserParams,
    init_network,
    noise_batch,
    optimizer_step,
    regress,
)
from .diffusion import Schedule, _point_set, kernel_logits, softmax_inplace, softmax_numerators
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
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be non-negative")


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

    run = AdamW(params, cfg.lr, cfg.weight_decay)
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

        # One keyed draw noises the epoch, each row under its batch's root.
        starts = range(0, len(xs), cfg.batch_size)
        conds = [d.dropout_conditions(labels[i : i + cfg.batch_size], conditional, seed,
                                      epoch, b) for b, i in enumerate(starts)]
        roots = np.repeat([derive_seed(seed, "loss", epoch, b) for b in range(len(starts))],
                          [min(cfg.batch_size, len(xs) - i) for i in starts])
        ts, xts, eps, _ = noise_batch(xs, np.concatenate(conds) if conditional else None, s,
                                      roots, 1, s.num_steps)
        losses = []
        for b, i in enumerate(starts):
            rows = slice(i, i + cfg.batch_size)
            if batch_hook is not None:
                batch_hook(epoch, xs[rows], conds[b])
            loss, grad = regress(run.params, xts[rows], ts[rows], s.num_steps, conds[b],
                                 eps[rows], out=run.grads[0])
            optimizer_step(run, grad)
            steps += 1
            losses.append(loss)
        epoch_losses.append(float(np.mean(losses)) if losses else math.nan)
        epoch_ms.append((time.perf_counter() - tic) * 1e3)

    return TrainRun(run.result(), steps, epoch_losses, time.perf_counter() - start, epoch_ms)


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
    w, centers = kernel_logits(subset, xt, t, s)
    return (xt - softmax_inplace(w) @ centers) / s.sigma(t)


class KernelDenoiser:
    """Block denoiser running ``empirical_denoiser`` over a fixed point set.

    Ignores the condition argument; the empirical predictor is defined
    on the raw sample space.  ``restrict(cols)`` gives the denoiser over
    ``points[cols]`` whose ``base`` is this one; a denoiser is its own
    base.  A restriction keeps ``cols`` as its maximal runs of
    consecutive indices: the point set is ordered by group, so a
    leave-one-group-out set is one or two runs.  Every denoiser over one
    base predicts from the base's one ``kernel_block`` at (x_t, t)
    through ``from_block``: scoring runs an x_t block in cache-sized row
    blocks, and the oracle's full and N leave-one-group-out denoisers
    share one distance block and one ``exp`` per row block
    (``scoring._predict_all``).
    """

    def __init__(self, points: np.ndarray, schedule: Schedule):
        self.points = _point_set(points)
        self.schedule = schedule
        self.base = self
        self.cols: np.ndarray | None = None
        self._runs: list[slice] = []
        self._member: np.ndarray | None = None

    @property
    def input_dim(self) -> int:
        return self.points.shape[1]

    def restrict(self, cols) -> "KernelDenoiser":
        """The denoiser over ``points[cols]``, with this one as its base.

        ``cols`` is a 1-D array of indices in [0, n), in any order and
        with repeats allowed."""
        cols = np.asarray(cols, dtype=np.intp)
        n = len(self.points)
        if cols.ndim != 1:
            raise ValueError(f"cols must be 1-D, got shape {cols.shape}")
        if len(cols) and not (0 <= cols.min() and cols.max() < n):
            raise ValueError(f"cols must lie in [0, {n})")
        sub = KernelDenoiser(self.points[cols], self.schedule)
        sub.base, sub.cols = self, cols
        cuts = [0, *(np.flatnonzero(np.diff(cols) != 1) + 1).tolist(), len(cols)]
        sub._runs = [slice(int(cols[a]), int(cols[b - 1]) + 1) for a, b in zip(cuts, cuts[1:])]
        sub._member = np.zeros(n, dtype=bool)
        sub._member[cols] = True
        return sub

    def kernel_block(self, xt: np.ndarray, t: int) -> KernelBlock:
        """This point set's ``KernelBlock`` at an x_t block (B, dim) and t."""
        logits, centers = kernel_logits(self.points, xt, t, self.schedule)
        nearest = logits.argmax(axis=-1)
        exps = logits - np.take_along_axis(logits, nearest[:, None], axis=-1)
        return KernelBlock(logits, np.exp(exps, out=exps), nearest, centers)

    def from_block(self, block: KernelBlock, xt: np.ndarray, t: int) -> np.ndarray:
        """The prediction at (x_t, t) from ``base.kernel_block(xt, t)``.

        The result is bit for bit ``empirical_denoiser(points, xt, t)``.
        That softmax subtracts each row's maximum over ``points`` and
        exponentiates.  A restricted denoiser copies its columns of
        ``block.exps`` by concatenating the slices of its runs; a row
        whose nearest base point is one of its points has the base's row
        maximum, so the copied exps are the bits it would compute.  Only
        the other rows (about B / N for N equal leave-one-group-out sets)
        are exponentiated again from their logits over the runs.  The
        centres are copied the same way.  The fresh C-contiguous copy
        then sums and contracts exactly as ``empirical_denoiser`` does.
        The base's own denoiser normalises ``block.exps`` in place, so it
        must be the block's last user.
        """
        if self.cols is None:
            w, centers = block.exps, block.centers
        else:
            w = np.concatenate([block.exps[..., r] for r in self._runs], axis=-1)
            centers = np.concatenate([block.centers[..., r, :] for r in self._runs], axis=-2)
            rows = np.flatnonzero(~self._member[block.nearest])
            w[rows] = softmax_numerators(
                np.concatenate([block.logits[rows, r] for r in self._runs], axis=-1))
        w /= w.sum(axis=-1, keepdims=True)
        return (xt - w @ centers) / self.schedule.sigma(t)

    def __call__(self, xt: np.ndarray, t: int, cond: np.ndarray | None = None) -> np.ndarray:
        return empirical_denoiser(self.points, xt, t, self.schedule)


@dataclass(frozen=True)
class KernelBlock:
    """A point set's kernel at an x_t block (B, dim): ``kernel_logits``'
    (B, n) logits and centres, ``exps`` = exp(logits - each row's maximum)
    and ``nearest``, each row's first argmax (its nearest point)."""

    logits: np.ndarray
    exps: np.ndarray
    nearest: np.ndarray
    centers: np.ndarray
