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

from .seeding import rng_for

SCHEDULE_KINDS = ("linear", "squared_cosine")

# Offset and beta ceiling for the squared-cosine schedule.
_COSINE_OFFSET = 0.008
_BETA_MAX = 0.999

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

    def beta(self, t: int) -> float:
        return float(self.betas[self._check_t(t) - 1])

    def alpha(self, t: int) -> float:
        return 1.0 - self.beta(t)

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


def forward_marginal(s: Schedule, x0: np.ndarray, t: int, eps: np.ndarray) -> np.ndarray:
    """x_t = sqrt(abar_t) x_0 + sigma_t eps."""
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise ValueError(f"x0 shape {x0.shape} != eps shape {eps.shape}")
    t = s._check_t(t)
    return math.sqrt(s.alpha_bar(t)) * x0 + s.sigma(t) * eps


def kernel_logits(
    points: np.ndarray, xt: np.ndarray, t: int, s: Schedule, K: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Forward-kernel log-weights of a point set given x_t, and the kernel centres.

    Returns (-|xt - sqrt(abar_t) x_i|^2 / (2 sigma_t^2), sqrt(abar_t) x_i)
    over the points x_i.  ``xt`` is one row (dim,), giving logits of
    shape (n,), or a block (B, dim), giving (B, n).  The squared distance
    is summed coordinate by coordinate, so a block needs no (B, n, dim)
    temporary.  With ``K`` (one row only) only the K nearest points are
    kept, ties breaking toward the lower index.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = points.shape[0]
    if n == 0:
        raise ValueError("point set must be non-empty")
    xt = np.asarray(xt, dtype=np.float64)
    if K is not None and not 1 <= K <= n:
        raise ValueError(f"K must be in [1, {n}], got {K}")
    if K is not None and xt.ndim != 1:
        raise ValueError("K-nearest truncation takes one x_t row")
    centers = math.sqrt(s.alpha_bar(t)) * points
    dist2 = np.zeros(xt.shape[:-1] + (n,))
    for i in range(points.shape[1]):
        diff = xt[..., i, None] - centers[:, i]
        diff *= diff
        dist2 += diff
    if K is not None:
        keep = np.argsort(dist2, kind="stable")[:K]
        centers, dist2 = centers[keep], dist2[keep]
    dist2 /= -2.0 * s.sigma(t) ** 2
    return dist2, centers


def kernel_softmax(
    points: np.ndarray, xt: np.ndarray, t: int, s: Schedule, K: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``kernel_logits`` normalized to posterior weights (per row) by a stable softmax."""
    w, centers = kernel_logits(points, xt, t, s, K)
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    return w, centers


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
    (the usual clip-denoised stabilization; off by default).  Each row
    draws x_T and then its step noise from its own ``rng_for(seed,
    "sample")`` stream, so a row depends only on its seed and condition.
    """
    steps = s.num_steps if steps is None else int(steps)
    if not 1 <= steps <= s.num_steps:
        raise ValueError(f"steps must be in [1, {s.num_steps}], got {steps}")
    if method not in ("ddpm", "ddim"):
        raise ValueError(f"unknown sampling method {method!r}")
    if dim is None:
        dim = getattr(denoiser, "input_dim", None)
        if dim is None:
            raise ValueError("dim is required for a bare callable denoiser")
    if len(seeds) == 0:
        return np.zeros((0, dim))

    rngs = [rng_for(seed, "sample") for seed in seeds]

    def normals() -> np.ndarray:
        return np.stack([rng.standard_normal(dim) for rng in rngs])

    x = normals()
    taus = _respaced_timesteps(s.num_steps, steps)
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
                x = x + math.sqrt(var) * normals()
    return x
