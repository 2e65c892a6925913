"""Small eps-prediction MLP with analytic gradients and an AdamW optimizer.

The network consumes [x_t, sinusoidal time features, condition vector]
and predicts the noise that produced x_t.  Parameters live in a single
flat float64 vector so that training, unlearning, checkpointing and
finite-difference checks all share one representation.  Forward and
backward passes are written directly in numpy; reverse-mode gradients
are exact up to floating point.

A batch is one (x0, cond) block, (B, dim) and (B, cond_dim) or None;
every training and unlearning objective noises it with ``noise_batch``
and ends in ``regress``, the shared forward, residual and backward step.
``noise_batch`` takes each row's t and eps from one keyed draw over the
block (``seeding.content_rng``), keyed by the row's root and content, so
a row's noise does not depend on its batch or its position in it.  The
root is one seed for the block or one seed per row: ``loss_and_grad``
draws its own block under one seed, while the training and unlearning
loops noise a whole epoch or block of steps in one call, each row under
its step's seed, and so draw the same bits.

A forward pass that a backward pass follows (``want_cache``) keeps each
layer's input and pre-activation and, under SiLU, its sigmoid; the
backward pass reuses them and writes every layer's gradient straight
into one flat vector.  An inference forward keeps nothing and forms each
activation in place.  A ``DenoiserParams`` unpacks its layer views once
(``layers``), and integer timesteps in [0, T] take their time features
from one table per (T, embed_dim).

Every ``DenoiserParams`` handed out is immutable: its weights are a
read-only array that nothing writes.  During a training or unlearning
run the weights live in the run's ``AdamW``, which owns the writable
weight buffer, the AdamW moments and scratch, and the flat gradient
buffers.  The one update, ``optimizer_step(run, grad)``, mutates them in
place and clips ``grad`` in place.  The run's model is a read-only view
of that buffer, so its layer views stay valid; it is not handed out.
The run ends by handing out a fresh copy (``result``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .diffusion import Schedule, forward_marginal
from .seeding import content_rng, normals

ACTIVATIONS = ("silu", "relu")

GRAD_CLIP_NORM = 1.0
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class Architecture:
    """Shape descriptor for the eps-prediction MLP."""

    input_dim: int
    hidden_dims: tuple[int, ...]
    time_embed_dim: int
    cond_dim: int = 0
    activation: str = "silu"

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if not self.hidden_dims or any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden_dims must be non-empty positive integers")
        if self.time_embed_dim < 2 or self.time_embed_dim % 2 != 0:
            raise ValueError("time_embed_dim must be an even integer >= 2")
        if self.cond_dim < 0:
            raise ValueError("cond_dim must be >= 0")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def feature_dim(self) -> int:
        return self.input_dim + self.time_embed_dim + self.cond_dim

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.feature_dim, *self.hidden_dims, self.input_dim)

    @property
    def param_count(self) -> int:
        dims = self.layer_dims
        return sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(len(dims) - 1))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Architecture":
        return cls(**d)


@dataclass(frozen=True)
class DenoiserParams:
    """Immutable flat parameter vector plus its architecture."""

    arch: Architecture
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size != self.arch.param_count:
            raise ValueError(
                f"expected {self.arch.param_count} parameters, got shape {w.shape}"
            )
        if not np.all(np.isfinite(w)):
            raise ValueError("weights contain non-finite entries")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def param_count(self) -> int:
        return self.arch.param_count

    def with_weights(self, w: np.ndarray) -> "DenoiserParams":
        return DenoiserParams(self.arch, np.array(w, dtype=np.float64))

    @functools.cached_property
    def layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each layer's (weight, bias) views into ``weights``, unpacked once."""
        return _unpack(self.arch, self.weights)


def time_features(t, num_steps: int, embed_dim: int) -> np.ndarray:
    """Sinusoidal features with frequencies geometric from 1 to T/2.

    Accepts a scalar timestep or a vector of per-row timesteps; returns
    shape (embed_dim,) or (len(t), embed_dim) respectively.  Integer
    timesteps that all lie in [0, T] are copied from rows of
    ``_feature_table``, which holds the formula's bits; any other ``t``
    (float, negative or beyond T) is computed by the formula.
    """
    t_arr = np.asarray(t)
    if t_arr.dtype.kind in "iu" and t_arr.size and 0 <= t_arr.min() and t_arr.max() <= num_steps:
        return np.take(_feature_table(num_steps, embed_dim), t_arr, axis=0)
    return _features(t_arr, num_steps, embed_dim)


def _features(t: np.ndarray, num_steps: int, embed_dim: int) -> np.ndarray:
    freqs = _frequencies(num_steps, embed_dim)
    angles = 2.0 * math.pi * np.multiply.outer(t.astype(np.float64), freqs) / num_steps
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)


@functools.lru_cache(maxsize=64)
def _feature_table(num_steps: int, embed_dim: int) -> np.ndarray:
    """Row t is ``_features(t)`` for t = 0..T, read-only."""
    table = _features(np.arange(num_steps + 1), num_steps, embed_dim)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=64)
def _frequencies(num_steps: int, embed_dim: int) -> np.ndarray:
    freqs = np.geomspace(1.0, max(num_steps / 2.0, 1.0), embed_dim // 2)
    freqs.setflags(write=False)
    return freqs


def _unpack(arch: Architecture, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    dims = arch.layer_dims
    layers = []
    off = 0
    for i in range(len(dims) - 1):
        m, n = dims[i], dims[i + 1]
        w = flat[off : off + m * n].reshape(n, m)
        off += m * n
        b = flat[off : off + n]
        off += n
        layers.append((w, b))
    return layers


def init_network(arch: Architecture, seed: int) -> DenoiserParams:
    """Fan-in-scaled uniform weights, zero biases, deterministic in seed."""
    rng = np.random.default_rng(seed)
    chunks = []
    dims = arch.layer_dims
    for i in range(len(dims) - 1):
        m, n = dims[i], dims[i + 1]
        bound = 1.0 / math.sqrt(m)
        chunks.append(rng.uniform(-bound, bound, size=m * n))
        chunks.append(np.zeros(n))
    return DenoiserParams(arch, np.concatenate(chunks))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)), computed in one new array."""
    sig = np.negative(z)
    np.exp(sig, out=sig)
    sig += 1.0
    return np.divide(1.0, sig, out=sig)


def _assemble_features(
    arch: Architecture,
    xt: np.ndarray,
    t,
    num_steps: int,
    cond: np.ndarray | None,
) -> np.ndarray:
    tf = time_features(t, num_steps, arch.time_embed_dim)
    if tf.ndim == 1 and xt.ndim == 2:
        tf = np.broadcast_to(tf, (xt.shape[0], arch.time_embed_dim))
    parts = [xt, tf]
    if arch.cond_dim > 0:
        if cond is None:
            raise ValueError("conditional network requires a condition vector")
        cond = np.asarray(cond, dtype=np.float64)
        if cond.shape[-1] != arch.cond_dim:
            raise ValueError(f"condition dim {cond.shape[-1]} != {arch.cond_dim}")
        if cond.ndim == 1 and xt.ndim == 2:
            cond = np.broadcast_to(cond, (xt.shape[0], arch.cond_dim))
        parts.append(cond)
    elif cond is not None:
        raise ValueError("unconditional network, but a condition was given")
    return np.concatenate(parts, axis=-1)


def forward_batch(
    p: DenoiserParams,
    xt: np.ndarray,
    t,
    num_steps: int,
    cond: np.ndarray | None = None,
    want_cache: bool = False,
):
    """Batched forward pass.

    ``xt`` has shape (B, input_dim); ``t`` is a scalar or length-B
    vector; ``cond`` is None, a single vector, or a (B, cond_dim) matrix.
    With ``want_cache`` the returned cache supports ``backward_batch``;
    without it no layer's arrays are kept and each activation is formed
    in place, in the same bits.
    """
    xt = np.asarray(xt, dtype=np.float64)
    if xt.ndim != 2 or xt.shape[1] != p.arch.input_dim:
        raise ValueError(f"xt must have shape (B, {p.arch.input_dim})")
    feats = _assemble_features(p.arch, xt, t, num_steps, cond)
    layers = p.layers
    silu = p.arch.activation == "silu"

    # pre[i] is hidden layer i's pre-activation z, post[i] its input, and
    # sigs[i] its sigmoid(z) under SiLU (None under ReLU), reused by the backward pass.
    a = feats
    pre, post, sigs = [], [feats], []
    for w, b in layers[:-1]:
        z = a @ w.T
        z += b
        if want_cache:
            sig = _sigmoid(z) if silu else None
            a = z * sig if silu else np.maximum(z, 0.0)
            pre.append(z)
            sigs.append(sig)
            post.append(a)
        elif silu:  # nothing is kept, so the activation is formed in place
            a = _sigmoid(z)
            a *= z
        else:
            a = np.maximum(z, 0.0, out=z)
    w, b = layers[-1]
    out = a @ w.T
    out += b
    if not want_cache:
        return out
    return out, (layers, pre, post, sigs)


def gradient_buffer(arch: Architecture) -> tuple[np.ndarray, list]:
    """A flat gradient vector and its per-layer views, laid out as the weights."""
    flat = np.empty(arch.param_count)
    return flat, _unpack(arch, flat)


def backward_batch(p: DenoiserParams, cache, grad_out: np.ndarray, out=None) -> np.ndarray:
    """Flat parameter gradient given d(loss)/d(output) rows.

    Each layer's weight and bias gradients are written straight into
    their slices of the flat vector: a fresh one, or ``out``, a
    ``gradient_buffer``, whose flat vector is returned.  The activation
    derivative is sig * (1 + z * (1 - sig)) for SiLU, from the forward
    pass's sigmoid, and the 0/1 mask of z > 0 for ReLU.
    """
    layers, pre, post, sigs = cache
    flat, grads = gradient_buffer(p.arch) if out is None else out
    g = np.asarray(grad_out, dtype=np.float64)
    for i in range(len(layers) - 1, -1, -1):
        gw, gb = grads[i]
        np.matmul(g.T, post[i], out=gw)
        np.sum(g, axis=0, out=gb)
        if i > 0:
            z, sig = pre[i - 1], sigs[i - 1]
            if sig is None:
                d = (z > 0.0).astype(np.float64)
            else:
                d = np.subtract(1.0, sig)
                d *= z
                d += 1.0
                d *= sig
            g = g @ layers[i][0]
            g *= d
    return flat


def predict_eps(
    p: DenoiserParams,
    xt: np.ndarray,
    t: int,
    num_steps: int,
    cond: np.ndarray | None = None,
) -> np.ndarray:
    """Predicted noise for a single input; pure in all arguments."""
    xt = np.asarray(xt, dtype=np.float64)
    if xt.shape != (p.arch.input_dim,):
        raise ValueError(f"xt must have shape ({p.arch.input_dim},), got {xt.shape}")
    if not 1 <= int(t) <= num_steps:
        raise ValueError(f"timestep {t} outside [1, {num_steps}]")
    return forward_batch(p, xt[None, :], int(t), num_steps, cond)[0]


def noise_batch(
    x0: np.ndarray,
    cond: np.ndarray | None,
    s: Schedule,
    rng_seed: int | np.ndarray,
    t_lo: int,
    t_hi: int,
    *,
    anchor_seeds: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Noise every row of an (x0, cond) block through the forward marginal.

    ``x0`` is (B, dim) and ``cond`` is (B, cond_dim) or None;
    ``rng_seed`` is one seed or a (B,) vector of per-row seeds.  Row i's
    draws are the uniforms of ``content_rng(rng_seed, x0, cond)`` row i,
    so they depend only on (its seed, row content): uniform 0 gives t in
    [t_lo, t_hi], the next 2 * ceil(dim / 2) give eps by Box-Muller
    (``normals``), and, with ``anchor_seeds``, one more gives the row's
    anchor seed in [0, 2^62).  x_t is formed for the whole block by one
    ``forward_marginal`` call.  Returns t (B,), x_t (B, dim), eps (B, dim)
    and the anchor seeds (B,) (else None).
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim != 2 or len(x0) == 0:
        raise ValueError("batch must be a non-empty (B, dim) block")
    dim = x0.shape[1]
    u = content_rng(rng_seed, x0, cond, n=1 + dim + dim % 2 + anchor_seeds)
    ts = t_lo + np.floor(u[:, 0] * (t_hi - t_lo + 1)).astype(np.int64)
    eps = normals(u[:, 1:], dim)
    seeds = (u[:, -1] * 2.0**62).astype(np.int64) if anchor_seeds else None
    return ts, forward_marginal(s, x0, ts, eps), eps, seeds


def regress(
    p: DenoiserParams,
    xt: np.ndarray,
    ts: np.ndarray,
    num_steps: int,
    cond: np.ndarray | None,
    target: np.ndarray,
    cap: float | None = None,
    out=None,
) -> tuple[float, np.ndarray]:
    """Batch mean of |eps_p(xt, t, cond) - target|^2 over rows, with gradient.

    With ``cap`` each row's squared residual norm is clipped at ``cap``
    (trust-region clipping): a clipped row contributes the cap value and
    no gradient.  The gradient is written into ``out`` (a
    ``gradient_buffer``) if given.
    """
    resid, cache = forward_batch(p, xt, ts, num_steps, cond, want_cache=True)
    resid -= target
    raw = np.sum(resid**2, axis=1)
    if cap is not None:
        resid *= (raw < cap)[:, None]
        raw = np.minimum(raw, cap)
    loss = float(np.mean(raw))
    resid *= 2.0
    resid /= len(xt)
    return loss, backward_batch(p, cache, resid, out)


def loss_and_grad(
    p: DenoiserParams,
    x0: np.ndarray,
    cond: np.ndarray | None,
    s: Schedule,
    rng_seed: int,
) -> tuple[float, np.ndarray]:
    """Mean squared eps-prediction error over an (x0, cond) block, with gradient.

    Each row draws a uniform timestep and a Gaussian noise vector
    deterministically from (rng_seed, row content), is noised through
    the forward marginal, and the loss is the batch mean of the squared
    prediction residual norm.
    """
    ts, xt, eps, _ = noise_batch(x0, cond, s, rng_seed, 1, s.num_steps)
    return regress(p, xt, ts, s.num_steps, cond, eps)


class AdamW:
    """A run's weights, AdamW moments and scratch, updated in place by
    ``optimizer_step``.

    Built from a starting model, which is copied, with zero moments.
    ``params`` is a read-only view of the run's weight buffer: its layer
    views follow every step, and it is for the run's own forward and
    backward passes only.  ``grads`` holds ``n_grads`` gradient buffers
    for ``regress(out=...)``.  ``result`` hands out the weights as a fresh
    immutable ``DenoiserParams``.
    """

    def __init__(self, p: DenoiserParams, lr: float, weight_decay: float = 1e-4,
                 n_grads: int = 1):
        if not lr > 0.0:
            raise ValueError("lr must be positive")
        if weight_decay < 0.0:
            raise ValueError("weight_decay must be non-negative")
        self.lr, self.weight_decay = lr, weight_decay
        self.step_count = 0
        self._w = np.array(p.weights)
        # ``[:]`` is a view: DenoiserParams makes it read-only, not the buffer.
        self.params = DenoiserParams(p.arch, self._w[:])
        self._m = np.zeros_like(self._w)
        self._v = np.zeros_like(self._w)
        self._tmp = np.empty_like(self._w)
        self._upd = np.empty_like(self._w)
        self.grads = [gradient_buffer(p.arch) for _ in range(n_grads)]

    def result(self) -> DenoiserParams:
        """The current weights as a fresh immutable model."""
        return DenoiserParams(self.params.arch, self._w.copy())


def optimizer_step(run: AdamW, grad: np.ndarray) -> None:
    """One AdamW update of ``run`` with global-norm gradient clipping at 1.0.

    The gradient is rescaled in place so its norm is at most 1, then
    the bias-corrected moment update is applied together with
    decoupled weight decay.  A gradient not shaped as the weights raises
    ``ValueError``; a non-finite gradient raises ``FloatingPointError``
    and leaves the run unchanged; non-finite weights after the update
    raise ``ValueError``.
    """
    w, m, v, tmp, upd = run._w, run._m, run._v, run._tmp, run._upd
    if np.shape(grad) != w.shape:
        raise ValueError(f"gradient shape {np.shape(grad)} != {w.shape}")
    # A non-finite entry makes the norm non-finite, so only then are the
    # entries scanned.  A finite gradient whose squared norm overflows
    # passes the scan and is scaled by 1 / inf, to zero.
    norm = float(np.linalg.norm(grad))
    if not math.isfinite(norm) and not np.all(np.isfinite(grad)):
        raise FloatingPointError("gradient contains non-finite entries")
    if norm > GRAD_CLIP_NORM:
        grad *= GRAD_CLIP_NORM / norm
    lr = run.lr
    run.step_count += 1
    step = run.step_count
    m *= BETA1
    np.multiply(grad, 1.0 - BETA1, out=tmp)
    m += tmp
    v *= BETA2
    np.square(grad, out=tmp)
    tmp *= 1.0 - BETA2
    v += tmp
    # tmp becomes sqrt(v_hat) + epsilon, upd lr * m_hat over it.
    np.divide(v, 1.0 - BETA2**step, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += EPSILON
    np.divide(m, 1.0 - BETA1**step, out=upd)
    upd *= lr
    upd /= tmp
    w *= 1.0 - lr * run.weight_decay
    w -= upd
    # As for the gradient, only a non-finite sum of squares makes the scan.
    with np.errstate(over="ignore"):
        sq = np.dot(w, w)
    if not math.isfinite(sq) and not np.all(np.isfinite(w)):
        raise ValueError("weights contain non-finite entries")
