"""Unlearning operators that approximate leave-one-group-out retraining.

Three forget objectives share a common preservation term:

- ``retrack``: noised forget samples are redirected toward the
  importance-weighted posterior-mean target over the retain set,
  truncated to the K nearest neighbors under the forward-process
  Gaussian kernel.  With K equal to the retain size the target is
  exactly the retain-set empirical denoiser.
- ``esd``: negative guidance away from the frozen model's
  group-conditioned prediction, using a jointly trained null-condition
  branch as the unconditional reference.
- ``cond_anchor``: conditional redirection that matches the frozen
  model's prediction under an anchor condition keeping the forget
  group's content block while swapping in a retain group's descriptor
  block.

Loss weighting follows two conventions, selected by method:
``lambda_forget * L_forget + L_preserve`` for retrack/esd and
``L_forget + lambda_pres * L_preserve`` for cond_anchor.

Every objective is one public function on noised rows (x_t, t) and
ends in ``denoiser.loss_and_grad``: ``retrack_forget_loss`` on the rows'
``retrack_target`` targets, ``esd_forget_loss``, ``preservation_loss``
and ``conditional_forget_loss`` on the rows' anchor conditions.  Each
writes its gradient into ``out`` if given; in ``unlearn`` the forget loss
and the preservation loss write into the run's two gradient buffers (see
``denoiser.AdamW``).

Step s of ``unlearn`` draws its retain and forget rows from (seed,
"retain", s) and (seed, "forget", s), and its retain rows' condition
dropout from (seed, "dropout", s).  Its noise comes from two
``noise_batch`` calls per block of ``_DRAW_BLOCK`` steps, one over the
block's forget rows (over the spec's timestep range) and one over its
retain rows (over all timesteps), with step s's rows keyed by
``derive_seed(seed, "floss", s)`` and ``derive_seed(seed, "ploss", s)``:
the bits that a ``noise_batch`` call for that step's rows alone would
draw.  cond_anchor's anchors are drawn once per block too, keyed per row
by the forget rows' anchor seeds.

Retrack's targets depend on the draws only, not on the weights, so
``unlearn`` calls ``retrack_target`` once per draw block, on all of the
block's noised forget rows, and each step regresses on its rows' slice
of those targets.  They come from one ``diffusion.NearestKernel`` per
``unlearn`` run, built over the retain set (with its k-d tree) and given
the spec's K on each call.  A block's targets are bit for bit the ones
that per-step calls would give.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .data import GroupedDataset
from .denoiser import (
    AdamW,
    DenoiserParams,
    forward_batch,
    loss_and_grad,
    noise_batch,
    optimizer_step,
)
from .diffusion import NearestKernel, Schedule, kernel_logits, softmax_inplace
from .seeding import content_rng, derive_seed, rng_for

UNLEARN_METHODS = ("retrack", "esd", "cond_anchor")

# Steps whose forget and retain rows are noised by one keyed draw each.
_DRAW_BLOCK = 16

# The ``UnlearnSpec`` fields each method reads.
_COMMON_SETTINGS = ("steps_or_epochs", "lr", "batch_size", "timestep_range")
_METHOD_SETTINGS = {
    "retrack": _COMMON_SETTINGS + ("lambda_forget", "K", "kl_cap"),
    "esd": _COMMON_SETTINGS + ("lambda_forget", "guidance_weight"),
    "cond_anchor": _COMMON_SETTINGS + ("lambda_pres", "tau", "eta_mix"),
}


@dataclass(frozen=True)
class UnlearnSpec:
    """One unlearning method's settings.

    ``timestep_range`` bounds the forget objective's timesteps; ``None``
    means ``default_timestep_range`` of the schedule the method runs on.
    """

    method: str
    steps_or_epochs: int
    lr: float
    lambda_forget: float = 0.03
    lambda_pres: float = 2.0
    K: int = 10
    kl_cap: float = 1.0
    guidance_weight: float = 5.0
    tau: float = 2.0
    eta_mix: float = 0.1
    timestep_range: tuple[int, int] | None = None
    batch_size: int = 64

    def __post_init__(self):
        if self.method not in UNLEARN_METHODS:
            raise ValueError(f"unknown unlearning method {self.method!r}")
        if not self.lr > 0.0:
            raise ValueError("lr must be positive")
        if self.steps_or_epochs < 0:
            raise ValueError("steps_or_epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.lambda_forget < 0.0 or self.lambda_pres < 0.0:
            raise ValueError("loss weights must be non-negative")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.kl_cap < 0.0:
            raise ValueError("kl_cap must be non-negative")
        if not 0.0 <= self.eta_mix <= 1.0:
            raise ValueError("eta_mix must be in [0, 1]")
        if not self.tau > 0.0:
            raise ValueError("tau must be positive")
        if self.timestep_range is not None:
            lo, hi = self.timestep_range
            object.__setattr__(self, "timestep_range", (lo, hi))
            if not 1 <= lo <= hi:
                raise ValueError(f"invalid timestep range {self.timestep_range}")

    def read_settings(self) -> dict:
        """The fields its method reads, by name: what a model unlearned with it depends on."""
        return {name: getattr(self, name) for name in _METHOD_SETTINGS[self.method]}


def default_timestep_range(num_steps: int) -> tuple[int, int]:
    """Upper-half range [T/2, 0.975 T], scaled from the reference setup."""
    return (max(1, num_steps // 2), max(1, round(0.975 * num_steps)))


def retain_mixture_logpdf(points: np.ndarray, xt: np.ndarray, t: int, s: Schedule) -> float:
    """log of the timestep-t marginal mixture (1/n) sum_i q_t(xt | x_i)."""
    logits, centers = kernel_logits(points, xt, t, s)
    logs = logits - 0.5 * centers.shape[1] * math.log(2.0 * math.pi * s.sigma(t) ** 2)
    m = logs.max()
    return float(m + math.log(np.exp(logs - m).sum()) - math.log(len(logs)))


def retrack_target(retain: np.ndarray | NearestKernel, xt: np.ndarray, t, K: int,
                   s: Schedule) -> np.ndarray:
    """Importance-weighted eps target truncated to the K nearest retain points.

    Nearest is measured by |xt - sqrt(abar_t) x_i|; ties break toward the
    lower sample index.  Weights are renormalized over the kept subset.
    The target is ``w @ (xt - centers) / sigma_t``.  ``xt`` is one row
    (dim,) with one timestep, or a (B, dim) block with one timestep or a
    (B,) vector of them, contracted as one stacked ``matmul`` of (1, K)
    by (K, dim) per row; a block's row i is bit for bit the one-row
    target of (xt[i], t[i]).  ``retain`` is the (n, dim) retain set, for
    which a fresh ``NearestKernel`` is built, or a prepared
    ``NearestKernel`` over it, whose k-d tree is reused; ``K`` is passed
    to the kernel's call.  The kernel takes each row's K nearest points
    from the tree's candidates, rechecked with exact arithmetic; rows
    whose candidates it cannot prove complete, and calls with K close to
    n, are answered by a tree query for all n points.
    """
    kernel = retain if isinstance(retain, NearestKernel) else NearestKernel(retain)
    w, centers = kernel(xt, t, s, K)
    softmax_inplace(w)
    if np.ndim(xt) == 1:
        return (w @ (xt - centers)) / s.sigma(t)
    sigmas = np.reshape(s.sigmas[np.asarray(t) - 1], (-1, 1))
    return np.matmul(w[:, None, :], xt[:, None, :] - centers)[:, 0] / sigmas


def retrack_forget_loss(
    p: DenoiserParams,
    xt: np.ndarray,
    ts: np.ndarray,
    targets: np.ndarray,
    cfg: UnlearnSpec,
    s: Schedule,
    out=None,
) -> tuple[float, np.ndarray]:
    """Redirection loss of noised forget rows toward their ``retrack_target``
    targets.

    The trained model is evaluated under the null condition.  Per-row
    squared deviations are capped at ``kl_cap`` (trust-region clipping): a
    row whose raw loss exceeds the cap contributes the cap value and no
    gradient.
    """
    null = np.zeros((len(xt), p.arch.cond_dim)) if p.arch.cond_dim > 0 else None
    return loss_and_grad(p, xt, ts, s.num_steps, null, targets, cap=cfg.kl_cap, out=out)


def esd_forget_loss(
    p: DenoiserParams,
    p_full_frozen: DenoiserParams,
    xt: np.ndarray,
    ts: np.ndarray,
    cond: np.ndarray,
    cfg: UnlearnSpec,
    s: Schedule,
    out=None,
) -> tuple[float, np.ndarray]:
    """Negative-guidance loss of noised forget rows toward eps_u - w (eps_c - eps_u).

    Both guidance branches come from the frozen reference model: the
    group-conditioned prediction and the null-condition prediction.
    The trained model is evaluated under the group condition.
    """
    if p.arch.cond_dim == 0 or p_full_frozen.arch.cond_dim == 0:
        raise ValueError("esd requires conditional models (cond_dim > 0)")
    null = np.zeros((len(xt), p.arch.cond_dim))
    eps_c = forward_batch(p_full_frozen, xt, ts, s.num_steps, cond)
    eps_u = forward_batch(p_full_frozen, xt, ts, s.num_steps, null)
    target = eps_u - cfg.guidance_weight * (eps_c - eps_u)
    return loss_and_grad(p, xt, ts, s.num_steps, cond, target, out=out)


def preservation_loss(
    p: DenoiserParams,
    p_full_frozen: DenoiserParams,
    xt: np.ndarray,
    ts: np.ndarray,
    cond: np.ndarray | None,
    s: Schedule,
    out=None,
) -> tuple[float, np.ndarray]:
    """Score-matching distillation toward the frozen full model: the batch
    mean of |eps_p - eps_full|^2 on noised retain rows, both under ``cond``.
    """
    ref = forward_batch(p_full_frozen, xt, ts, s.num_steps, cond)
    return loss_and_grad(p, xt, ts, s.num_steps, cond, ref, out=out)


@dataclass(frozen=True)
class AnchorSelector:
    """Weighted style selection over retain groups.

    ``prototypes`` are unit-normalized per-group descriptor embeddings;
    selection follows (1 - eta) * softmax(tau * e_f . e_s) + eta *
    uniform, restricted to groups other than the forget group.  The
    synthesized anchor keeps the forget group's content block and swaps
    in the selected group's descriptor block.
    """

    prototypes: np.ndarray
    tau: float
    eta_mix: float
    cond_vectors: np.ndarray
    content_dim: int

    @classmethod
    def from_dataset(cls, d: GroupedDataset, tau: float = 2.0, eta_mix: float = 0.1) -> "AnchorSelector":
        if d.cond_vectors is None:
            raise ValueError("dataset has no condition vectors")
        desc = d.cond_vectors[:, d.n_groups :]
        norms = np.linalg.norm(desc, axis=1)
        if np.any(norms == 0.0):
            raise FloatingPointError("zero-norm descriptor vector")
        return cls(desc / norms[:, None], tau, eta_mix, d.cond_vectors, d.n_groups)

    def selection_probs(self, forget_group: int) -> tuple[np.ndarray, np.ndarray]:
        """(retain group indices, probabilities) for the forget group."""
        n = self.prototypes.shape[0]
        if n < 2:
            raise ValueError("need at least 2 groups")
        retain_idx = np.array([i for i in range(n) if i != forget_group])
        sims = self.prototypes[retain_idx] @ self.prototypes[forget_group]
        logits = self.tau * sims
        logits -= logits.max()
        soft = np.exp(logits)
        soft /= soft.sum()
        probs = (1.0 - self.eta_mix) * soft + self.eta_mix / len(retain_idx)
        return retain_idx, probs

    def anchor_condition(self, forget_group: int, style_group) -> np.ndarray:
        """Anchor for one style group (cond_dim,) or a vector of them (B, cond_dim)."""
        anchor = self.cond_vectors[style_group].copy()
        anchor[..., : self.content_dim] = self.cond_vectors[forget_group][: self.content_dim]
        return anchor


def anchor_select(sel: AnchorSelector, forget_group: int, seed) -> tuple:
    """Sample a retain style and synthesize the anchor condition.

    ``seed`` is one seed, giving (style, anchor (cond_dim,)), or a (B,)
    vector of seeds, giving (styles (B,), anchors (B, cond_dim)).  Each
    seed's style takes one uniform, keyed by (seed, "anchor") through
    ``content_rng``, and places it by one ``searchsorted`` on the
    normalized cumulative probabilities.
    """
    retain_idx, probs = sel.selection_probs(forget_group)
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    chosen = retain_idx[cdf.searchsorted(content_rng(seed, "anchor", n=1)[:, 0], side="right")]
    if np.ndim(seed) == 0:
        chosen = int(chosen[0])
    return chosen, sel.anchor_condition(forget_group, chosen)


def conditional_forget_loss(
    p: DenoiserParams,
    p_full_frozen: DenoiserParams,
    xt: np.ndarray,
    ts: np.ndarray,
    cond: np.ndarray,
    anchors: np.ndarray,
    s: Schedule,
    out=None,
) -> tuple[float, np.ndarray]:
    """Anchor-redirection loss |eps_p(xt, t, c_f) - eps_full(xt, t, c_a)|^2
    on noised forget rows.

    The anchor latent equals the forget latent; only the conditioning
    signal changes: ``cond`` holds each row's forget condition c_f and
    ``anchors`` its anchor condition c_a, drawn per row from the weighted
    style selection distribution (``anchor_select``).
    """
    if p.arch.cond_dim == 0:
        raise ValueError("cond_anchor requires a conditional model")
    ref = forward_batch(p_full_frozen, xt, ts, s.num_steps, anchors)
    return loss_and_grad(p, xt, ts, s.num_steps, cond, ref, out=out)


@dataclass
class UnlearnRun:
    params: DenoiserParams
    steps: int
    forget_losses: list[float]
    preserve_losses: list[float]
    wall_seconds: float


def unlearn(
    p_full: DenoiserParams,
    d: GroupedDataset,
    k: int,
    cfg: UnlearnSpec,
    s: Schedule,
    seed: int,
) -> UnlearnRun:
    """Fine-tune from the full model to remove group k's influence.

    Each optimizer step draws one retain batch and one forget batch from
    streams of ``seed``.  The composite gradient follows the per-method
    weighting convention; the optimizer is AdamW without weight decay.
    """
    if not 0 <= k < d.n_groups:
        raise ValueError(f"group index {k} outside [0, {d.n_groups})")
    if cfg.method in ("esd", "cond_anchor") and p_full.arch.cond_dim == 0:
        raise ValueError(f"{cfg.method} requires a conditional model")

    start = time.perf_counter()
    if cfg.steps_or_epochs == 0:
        return UnlearnRun(p_full, 0, [], [], time.perf_counter() - start)
    lo, hi = cfg.timestep_range or default_timestep_range(s.num_steps)
    if hi > s.num_steps:
        raise ValueError(f"timestep range {(lo, hi)} exceeds T={s.num_steps}")

    retain_x, retain_lab = d.labeled_samples(exclude=k)
    forget_x = d.groups[k]
    conditional = p_full.arch.cond_dim > 0
    sel = AnchorSelector.from_dataset(d, cfg.tau, cfg.eta_mix) if cfg.method == "cond_anchor" else None
    nearest = NearestKernel(retain_x) if cfg.method == "retrack" else None
    n_retain = min(cfg.batch_size, len(retain_x))
    n_forget = min(cfg.batch_size, len(forget_x))
    forget_cond = np.tile(d.cond_of(k), (n_forget, 1)) if conditional else None

    if cfg.method == "cond_anchor":
        w_forget, w_preserve = 1.0, cfg.lambda_pres
    else:
        w_forget, w_preserve = cfg.lambda_forget, 1.0
    # One gradient buffer for the forget term, one for the preservation term.
    run = AdamW(p_full, cfg.lr, weight_decay=0.0, n_grads=2)
    params, g_forget, g_preserve = run.params, *run.grads
    forget_losses, preserve_losses = [], []
    for first in range(0, cfg.steps_or_epochs, _DRAW_BLOCK):
        block = range(first, min(first + _DRAW_BLOCK, cfg.steps_or_epochs))
        rbs = [rng_for(seed, "retain", step).choice(len(retain_x), size=n_retain, replace=False)
               for step in block]
        fbs = [rng_for(seed, "forget", step).choice(len(forget_x), size=n_forget, replace=False)
               for step in block]
        retain_conds = [d.dropout_conditions(retain_lab[rb], conditional, seed, step)
                        for rb, step in zip(rbs, block)]
        # One keyed draw each for the block's forget and retain rows, each row
        # under its step's root.
        f_ts, f_xts, _, f_seeds = noise_batch(
            forget_x[np.concatenate(fbs)],
            np.tile(forget_cond, (len(block), 1)) if conditional else None, s,
            np.repeat([derive_seed(seed, "floss", step) for step in block], n_forget),
            lo, hi, anchor_seeds=sel is not None)
        anchors = anchor_select(sel, k, f_seeds)[1] if sel is not None else None
        targets = retrack_target(nearest, f_xts, f_ts, cfg.K, s) if nearest is not None else None
        p_ts, p_xts, _, _ = noise_batch(
            retain_x[np.concatenate(rbs)],
            np.concatenate(retain_conds) if conditional else None, s,
            np.repeat([derive_seed(seed, "ploss", step) for step in block], n_retain),
            1, s.num_steps)

        for j, rcond in enumerate(retain_conds):
            f = slice(j * n_forget, (j + 1) * n_forget)
            if cfg.method == "retrack":
                lf, gf = retrack_forget_loss(params, f_xts[f], f_ts[f], targets[f], cfg, s,
                                             g_forget)
            elif cfg.method == "esd":
                lf, gf = esd_forget_loss(params, p_full, f_xts[f], f_ts[f], forget_cond, cfg,
                                         s, g_forget)
            else:
                lf, gf = conditional_forget_loss(params, p_full, f_xts[f], f_ts[f],
                                                 forget_cond, anchors[f], s, g_forget)
            r = slice(j * n_retain, (j + 1) * n_retain)
            lp, gp = preservation_loss(params, p_full, p_xts[r], p_ts[r], rcond, s, g_preserve)
            # w_forget * gf + w_preserve * gp, in place in the run's buffers.
            gf *= w_forget
            gf += np.multiply(gp, w_preserve, out=gp)
            optimizer_step(run, gf)
            forget_losses.append(lf)
            preserve_losses.append(lp)

    return UnlearnRun(run.result(), cfg.steps_or_epochs, forget_losses, preserve_losses,
                      time.perf_counter() - start)
