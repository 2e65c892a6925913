"""Discrete-time diffusion substrate: schedules, forward process, posteriors, samplers.

Conventions used throughout the package:

- Timesteps are 1-based indices t = 1..T.  Internally the coefficient
  arrays are 0-based; ``Schedule`` accessors perform the shift.
- Forward marginal: q_t(x_t | x_0) = N(sqrt(abar_t) x_0, sigma_t^2 I)
  with abar_t = prod_{s<=t} (1 - beta_s) and sigma_t = sqrt(1 - abar_t).
- Reverse-step laws are isotropic Gaussians with the fixed posterior
  variance bt_tilde = (1 - abar_{t-1}) / (1 - abar_t) * beta_t; the
  model mean comes from the eps-parameterization.

All functions are pure given their inputs; a ``Schedule`` is immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .seeding import content_rng, normals

SCHEDULE_KINDS = ("linear", "squared_cosine")
SAMPLERS = ("ddpm", "ddim")

# Offset and beta ceiling for the squared-cosine schedule.
_COSINE_OFFSET = 0.008
_BETA_MAX = 0.999

# Tree candidates per row beyond the K that ``NearestKernel`` keeps.  Its
# candidate check allows (dim + 16) * _ROUNDING_SLACK of a row's magnitude
# for the rounding of each of the two distance formulas: 2^-44 is 512 units
# of float64 rounding, far more than the few units per coordinate that the
# exact recompute or the tree's bookkeeping can lose.
_SPARE_CANDIDATES = 4
_ROUNDING_SLACK = 2.0 ** -44

# (x_t block (B, dim), t, condition block (B, cond_dim) or None) -> eps block (B, dim)
DenoiserFn = Callable[[np.ndarray, int, Optional[np.ndarray]], np.ndarray]


@dataclass(frozen=True)
class Schedule:
    """Precomputed diffusion coefficients for T timesteps."""

    num_steps: int
    betas: np.ndarray
    alpha_bars: np.ndarray
    sigmas: np.ndarray
    kind: str

    def __post_init__(self):
        for arr in (self.betas, self.alpha_bars, self.sigmas):
            arr.setflags(write=False)

    def _check_t(self, t: int, lo: int = 1) -> int:
        t = int(t)
        if not lo <= t <= self.num_steps:
            raise ValueError(f"timestep {t} outside [{lo}, {self.num_steps}]")
        return t

    def _index(self, t) -> np.ndarray:
        """0-based coefficient index of a timestep or a vector of timesteps."""
        t = np.asarray(t)
        if t.ndim == 0:
            return np.asarray(self._check_t(t) - 1)
        if t.ndim != 1 or not np.issubdtype(t.dtype, np.integer):
            raise ValueError("timesteps must be one integer or a vector of integers")
        if len(t) and not (t.min() >= 1 and t.max() <= self.num_steps):
            raise ValueError(f"timesteps outside [1, {self.num_steps}]")
        return t - 1

    def beta(self, t: int) -> float:
        return float(self.betas[self._check_t(t) - 1])

    def alpha_bar(self, t: int) -> float:
        """abar_t, with the abar_0 = 1 convention."""
        t = int(t)
        if t == 0:
            return 1.0
        return float(self.alpha_bars[self._check_t(t) - 1])

    def sigma(self, t: int) -> float:
        return float(self.sigmas[self._check_t(t) - 1])

    def posterior_variance(self, t: int) -> float:
        """Fixed reverse-step variance bt_tilde for t >= 2."""
        t = self._check_t(t, lo=2)
        return (1.0 - self.alpha_bar(t - 1)) / (1.0 - self.alpha_bar(t)) * self.beta(t)


@dataclass(frozen=True)
class GaussianLaw:
    """Isotropic Gaussian with a shared scalar variance."""

    mean: np.ndarray
    variance: float

    def __post_init__(self):
        if not self.variance > 0.0:
            raise ValueError(f"variance must be positive, got {self.variance}")


def build_schedule(
    num_steps: int,
    kind: str = "squared_cosine",
    beta_start: float = 1e-4,
    beta_end: float = 0.02,
) -> Schedule:
    """Construct a diffusion schedule.

    ``linear`` spaces betas evenly in [beta_start, beta_end].  The
    squared-cosine schedule follows

        abar_t = cos^2(((t/T + s) / (1 + s)) * pi/2) / cos^2(s/(1+s) * pi/2)

    with offset s = 0.008, converted to betas and clipped at 0.999.
    ``alpha_bars`` is always the running product of (1 - beta), so the
    stored coefficients stay mutually consistent after clipping.
    """
    if num_steps < 1:
        raise ValueError("num_steps must be >= 1")
    if kind not in SCHEDULE_KINDS:
        raise ValueError(f"unknown schedule kind {kind!r}")

    if kind == "linear":
        betas = np.linspace(beta_start, beta_end, num_steps, dtype=np.float64)
    else:
        s = _COSINE_OFFSET
        t_grid = np.arange(num_steps + 1, dtype=np.float64)
        f = np.cos(((t_grid / num_steps + s) / (1.0 + s)) * (math.pi / 2.0)) ** 2
        betas = np.minimum(1.0 - f[1:] / f[:-1], _BETA_MAX)

    if not np.all((betas > 0.0) & (betas < 1.0)):
        raise ValueError("betas fell outside (0, 1)")
    alpha_bars = np.cumprod(1.0 - betas)
    sigmas = np.sqrt(1.0 - alpha_bars)
    return Schedule(num_steps, betas, alpha_bars, sigmas, kind)


def forward_marginal(s: Schedule, x0: np.ndarray, t, eps: np.ndarray) -> np.ndarray:
    """x_t = sqrt(abar_t) x_0 + sigma_t eps.

    ``t`` is one timestep, or a (B,) vector of per-row timesteps for a
    (B, dim) block; each row gets the arithmetic of a one-row call.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise ValueError(f"x0 shape {x0.shape} != eps shape {eps.shape}")
    idx = s._index(t)
    if idx.ndim:
        if x0.ndim != 2 or len(idx) != len(x0):
            raise ValueError(f"{len(idx)} timesteps for a block of shape {x0.shape}")
        idx = idx[:, None]
    return np.sqrt(s.alpha_bars[idx]) * x0 + s.sigmas[idx] * eps


def kernel_logits(points: np.ndarray, xt: np.ndarray, t: int,
                  s: Schedule) -> tuple[np.ndarray, np.ndarray]:
    """Forward-kernel log-weights of a point set given x_t, and the kernel centres.

    Returns (-|xt - sqrt(abar_t) x_i|^2 / (2 sigma_t^2), sqrt(abar_t) x_i)
    over all the points x_i at one timestep t.  ``xt`` is one row (dim,),
    giving logits of shape (n,), or a block (B, dim), giving (B, n)
    logits; the centres are (n, dim) either way.  The squared distance is
    summed coordinate by coordinate into two (B, n) buffers, so a block
    needs no (B, n, dim) temporary.  Every row gets the arithmetic of a
    one-row call.  ``NearestKernel`` keeps only the K nearest points of
    each row.
    """
    points = _point_set(points)
    xt = np.asarray(xt, dtype=np.float64)
    scale = math.sqrt(s.alpha_bar(s._check_t(t)))
    dist2 = np.empty(xt.shape[:-1] + (len(points),))
    _squared_distances(points.T, xt, scale, dist2, np.empty_like(dist2))
    dist2 /= -2.0 * s.sigma(t) ** 2
    return dist2, scale * points


class NearestKernel:
    """``kernel_logits`` of a fixed point set truncated to the K nearest
    points.

    Calling it with (xt, t, s, K) returns the K kept logits and centres of
    each row, (B, K) and (B, K, dim) for a block or (K,) and (K, dim) for
    one row, ordered by (distance, index): ties break toward the lower
    index, as a stable sort would.  K is chosen per call and must be in
    [1, n].

    A k-d tree over the points (``scipy.spatial.cKDTree``, built once)
    gives each row its k = min(K + ``_SPARE_CANDIDATES``, n) candidates,
    the points nearest to x_t / sqrt(abar_t).  Their squared distances are
    recomputed with ``kernel_logits``' arithmetic and ordered by (distance,
    index).  A row keeps them only when every point outside the candidates
    is provably farther than its K-th kept point: the tree's last candidate
    distance, scaled back, must exceed that point's distance by a slack
    that covers the rounding of both distance formulas.  Rows that fail
    this check, and every row of a call with K + ``_SPARE_CANDIDATES`` >= n,
    are answered by a tree query for all n points, which needs no check.
    Either way a row's result is bit for bit the first K of a stable
    argsort of its distances to all n points.
    """

    def __init__(self, points: np.ndarray):
        self.points = _point_set(points)
        self._columns = np.ascontiguousarray(self.points.T)
        self._reach = np.abs(self.points).max(axis=0)
        self._tree = cKDTree(self.points)

    def __call__(self, xt: np.ndarray, t, s: Schedule, K: int) -> tuple[np.ndarray, np.ndarray]:
        n = len(self.points)
        if not 1 <= K <= n:
            raise ValueError(f"K must be in [1, {n}], got {K}")
        xt = np.asarray(xt, dtype=np.float64)
        if np.ndim(t):  # a (B,) vector of per-row timesteps: (B, 1) columns
            idx = s._index(t)
            if xt.ndim != 2 or len(idx) != len(xt):
                raise ValueError(f"{len(idx)} timesteps for an x_t block of shape {xt.shape}")
            scale, denom = np.sqrt(s.alpha_bars[idx])[:, None], (-2.0 * s.sigmas[idx] ** 2)[:, None]
        else:
            scale, denom = math.sqrt(s.alpha_bar(s._check_t(t))), -2.0 * s.sigma(t) ** 2
        keep, logits = self._nearest(np.atleast_2d(xt), scale, K, min(K + _SPARE_CANDIDATES, n))
        logits /= denom
        if np.ndim(scale):
            centers = self.points[keep] * scale[..., None]
        else:
            centers = scale * self.points[keep]
        return (logits, centers) if xt.ndim == 2 else (logits[0], centers[0])

    def _nearest(self, rows: np.ndarray, scale, K: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(kept indices, their squared distances), both (B, K), from each
        row's k nearest tree candidates; rows the check refuses are asked
        again for all n points."""
        tree_dist, cand = self._tree.query(rows / scale, k)
        tree_dist, cand = tree_dist.reshape(len(rows), k), cand.reshape(len(rows), k)
        dist2 = np.empty(cand.shape)
        _squared_distances(self._columns[:, cand], rows, scale, dist2, np.empty_like(dist2))
        # A row whose recomputed distances strictly increase in the tree's
        # order is already in (distance, index) order; only the others, out
        # of order or tied, are sorted.
        unsorted = ~np.all(dist2[:, 1:] > dist2[:, :-1], axis=1)
        if unsorted.any():
            order = np.lexsort((cand[unsorted], dist2[unsorted]))
            cand[unsorted] = np.take_along_axis(cand[unsorted], order, axis=1)
            dist2[unsorted] = np.take_along_axis(dist2[unsorted], order, axis=1)
        keep, dist2 = np.ascontiguousarray(cand[:, :K]), np.ascontiguousarray(dist2[:, :K])
        if k == len(self.points):  # every point is a candidate
            return keep, dist2
        # Every term of either formula is bounded by the row's magnitude
        # sum_j (|x_t,j| + sqrt(abar_t) max_i |x_i,j|)^2.
        size = np.square(np.abs(rows) + scale * self._reach).sum(axis=1)
        slack = _ROUNDING_SLACK * (rows.shape[1] + 16) * size
        outside = np.square(scale * tree_dist[:, -1:])[:, 0]
        refused = ~(dist2[:, -1] + slack < outside - slack)
        if refused.any():
            keep[refused], dist2[refused] = self._nearest(
                rows[refused], scale[refused] if np.ndim(scale) else scale, K, len(self.points))
        return keep, dist2


def _point_set(points: np.ndarray) -> np.ndarray:
    """``points`` as a float64 (n, dim) array; an empty set is refused."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.shape[0] == 0:
        raise ValueError("point set must be non-empty")
    return points


def _squared_distances(columns, xt: np.ndarray, scale, dist2: np.ndarray,
                       diff: np.ndarray) -> None:
    """Write |xt - scale x_i|^2 into ``dist2``, summed coordinate by
    coordinate over the points' ``columns``: (dim, n) for every point, or
    (dim, B, m) for m points per row.  ``diff`` is scratch of its shape."""
    # Squares are never -0.0, so starting from the first square instead of
    # from zeros leaves every sum unchanged.
    for i, column in enumerate(columns):
        out = diff if i else dist2
        if np.ndim(scale):  # per-row scales: the (B, n) products go straight into the buffer
            np.multiply(scale, column, out=out)
            np.subtract(xt[..., i, None], out, out=out)
        else:
            np.subtract(xt[..., i, None], scale * column, out=out)
        np.multiply(out, out, out=out)
        if i:
            dist2 += diff


def softmax_numerators(w: np.ndarray) -> np.ndarray:
    """exp(w - max of ``w`` over its last axis), written into ``w``."""
    w -= w.max(axis=-1, keepdims=True)
    return np.exp(w, out=w)


def softmax_inplace(w: np.ndarray) -> np.ndarray:
    """Stable softmax of ``w`` over its last axis, written into ``w``."""
    w = softmax_numerators(w)
    w /= w.sum(axis=-1, keepdims=True)
    return w


def true_posterior(s: Schedule, x0: np.ndarray, xt: np.ndarray, t: int) -> GaussianLaw:
    """q(x_{t-1} | x_t, x_0) for t >= 2.

    mean = sqrt(abar_{t-1}) beta_t / (1 - abar_t) * x_0
         + sqrt(alpha_t) (1 - abar_{t-1}) / (1 - abar_t) * x_t
    """
    t = s._check_t(t, lo=2)
    x0 = np.asarray(x0, dtype=np.float64)
    xt = np.asarray(xt, dtype=np.float64)
    if x0.shape != xt.shape:
        raise ValueError(f"x0 shape {x0.shape} != xt shape {xt.shape}")
    abar_t = s.alpha_bar(t)
    abar_prev = s.alpha_bar(t - 1)
    beta_t = s.beta(t)
    coef0 = math.sqrt(abar_prev) * beta_t / (1.0 - abar_t)
    coeft = math.sqrt(1.0 - beta_t) * (1.0 - abar_prev) / (1.0 - abar_t)
    return GaussianLaw(coef0 * x0 + coeft * xt, s.posterior_variance(t))


def model_posterior(s: Schedule, eps_hat: np.ndarray, xt: np.ndarray, t: int) -> GaussianLaw:
    """p(x_{t-1} | x_t) under an eps-prediction model, t >= 2.

    mean = (x_t - beta_t / sigma_t * eps_hat) / sqrt(alpha_t), with the
    same fixed variance as the true posterior.  Feeding the exact eps
    that generated x_t reproduces the true posterior mean.
    """
    t = s._check_t(t, lo=2)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    xt = np.asarray(xt, dtype=np.float64)
    if eps_hat.shape != xt.shape:
        raise ValueError(f"eps_hat shape {eps_hat.shape} != xt shape {xt.shape}")
    mean = (xt - s.beta(t) / s.sigma(t) * eps_hat) / math.sqrt(1.0 - s.beta(t))
    return GaussianLaw(mean, s.posterior_variance(t))


def _respaced_timesteps(num_steps: int, steps: int) -> np.ndarray:
    # Ascending grid of distinct timesteps ending at T; steps=1 -> [T].
    grid = np.round(np.linspace(num_steps, 1, steps)).astype(int)
    return np.unique(grid)


def sample(
    s: Schedule,
    denoiser: DenoiserFn,
    seeds: Sequence[int],
    cond: np.ndarray | None = None,
    steps: int | None = None,
    method: str = "ddpm",
    dim: int | None = None,
    clip_x0: float | None = None,
) -> np.ndarray:
    """Draw one sample per seed by running the reverse process on one block.

    Row q of the returned (len(seeds), dim) block is the sample of
    ``seeds[q]``; ``cond`` is None or one condition row per seed.
    ``denoiser`` maps an (x_t block, t, cond) to predicted noise and is
    called once per step; objects with an ``input_dim`` attribute (kernel
    denoisers) do not need an explicit ``dim``.  ``ddpm`` is ancestral
    sampling with the fixed posterior variance; ``ddim`` is the
    deterministic update.  Both support running on a subgrid of
    ``steps`` <= T timesteps, in which case the posterior coefficients
    are formed from the abar values of consecutive grid points.
    ``clip_x0`` clamps the predicted clean sample to a coordinate box
    (the usual clip-denoised stabilization; off by default).  All of a
    row's normals (x_T, then one per ``ddpm`` step with noise) are one
    keyed draw, ``normals(content_rng(seeds, "sample", ...))``, so a row
    depends only on its seed and condition.
    """
    steps = s.num_steps if steps is None else int(steps)
    if not 1 <= steps <= s.num_steps:
        raise ValueError(f"steps must be in [1, {s.num_steps}], got {steps}")
    if method not in SAMPLERS:
        raise ValueError(f"unknown sampling method {method!r}")
    if clip_x0 is not None and not clip_x0 > 0.0:
        raise ValueError(f"clip_x0 must be positive, got {clip_x0}")
    if dim is None:
        dim = getattr(denoiser, "input_dim", None)
        if dim is None:
            raise ValueError("dim is required for a bare callable denoiser")
    if len(seeds) == 0:
        return np.zeros((0, dim))

    taus = _respaced_timesteps(s.num_steps, steps)
    # x_T, then one row per ddpm step; the last step (var = 0) adds no
    # noise, so the last row is drawn but unused.
    rows = len(taus) if method == "ddpm" else 1
    width = rows * dim
    noise = normals(content_rng(seeds, "sample", n=width + width % 2), width)
    noise = noise.reshape(len(seeds), rows, dim)
    x = noise[:, 0].copy()
    drawn = 1
    for i in range(len(taus) - 1, -1, -1):
        t_cur = int(taus[i])
        t_prev = int(taus[i - 1]) if i > 0 else 0
        abar_cur = s.alpha_bar(t_cur)
        abar_prev = s.alpha_bar(t_prev)
        eps_hat = np.asarray(denoiser(x, t_cur, cond), dtype=np.float64)
        x0_hat = (x - math.sqrt(1.0 - abar_cur) * eps_hat) / math.sqrt(abar_cur)
        if clip_x0 is not None:
            x0_hat = np.clip(x0_hat, -clip_x0, clip_x0)
        if method == "ddim":
            x = math.sqrt(abar_prev) * x0_hat + math.sqrt(1.0 - abar_prev) * eps_hat
        else:
            alpha_eff = abar_cur / abar_prev
            beta_eff = 1.0 - alpha_eff
            mean = (
                math.sqrt(abar_prev) * beta_eff / (1.0 - abar_cur) * x0_hat
                + math.sqrt(alpha_eff) * (1.0 - abar_prev) / (1.0 - abar_cur) * x
            )
            var = (1.0 - abar_prev) / (1.0 - abar_cur) * beta_eff
            x = mean
            if var > 0.0:
                x = x + math.sqrt(var) * noise[:, drawn]
                drawn += 1
    return x
