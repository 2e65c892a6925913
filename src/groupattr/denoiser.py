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
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .diffusion import Schedule, forward_marginal
from .seeding import block_rngs, content_rng  # noqa: F401  (content_rng: one row's stream)

ACTIVATIONS = ("silu", "relu")

GRAD_CLIP_NORM = 1.0


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


@dataclass(frozen=True)
class OptimizerState:
    """AdamW state: moment estimates and hyperparameters."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int
    lr: float
    weight_decay: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.first_moment.shape != self.second_moment.shape:
            raise ValueError("moment vectors must have identical shape")
        if not self.lr > 0.0:
            raise ValueError("lr must be positive")
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be non-negative")


def init_optimizer(p: DenoiserParams, lr: float, weight_decay: float = 1e-4) -> OptimizerState:
    n = p.param_count
    return OptimizerState(np.zeros(n), np.zeros(n), 0, lr, weight_decay)


def time_features(t, num_steps: int, embed_dim: int) -> np.ndarray:
    """Sinusoidal features with frequencies geometric from 1 to T/2.

    Accepts a scalar timestep or a vector of per-row timesteps; returns
    shape (embed_dim,) or (len(t), embed_dim) respectively.
    """
    freqs = _frequencies(num_steps, embed_dim)
    t_arr = np.asarray(t, dtype=np.float64)
    angles = 2.0 * math.pi * np.multiply.outer(t_arr, freqs) / num_steps
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)


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


def _silu(z):
    sig = 1.0 / (1.0 + np.exp(-z))
    return z * sig


def _silu_grad(z):
    sig = 1.0 / (1.0 + np.exp(-z))
    return sig * (1.0 + z * (1.0 - sig))


def _relu(z):
    return np.maximum(z, 0.0)


def _relu_grad(z):
    return (z > 0.0).astype(np.float64)


_ACT = {"silu": (_silu, _silu_grad), "relu": (_relu, _relu_grad)}


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
    With ``want_cache`` the returned cache supports ``backward_batch``.
    """
    xt = np.asarray(xt, dtype=np.float64)
    if xt.ndim != 2 or xt.shape[1] != p.arch.input_dim:
        raise ValueError(f"xt must have shape (B, {p.arch.input_dim})")
    feats = _assemble_features(p.arch, xt, t, num_steps, cond)
    act, act_grad = _ACT[p.arch.activation]
    layers = _unpack(p.arch, p.weights)

    a = feats
    pre, post = [], [feats]
    for i, (w, b) in enumerate(layers):
        z = a @ w.T + b
        if i < len(layers) - 1:
            pre.append(z)
            a = act(z)
            post.append(a)
        else:
            a = z
    if not want_cache:
        return a
    return a, (layers, pre, post, act_grad)


def backward_batch(p: DenoiserParams, cache, grad_out: np.ndarray) -> np.ndarray:
    """Flat parameter gradient given d(loss)/d(output) rows."""
    layers, pre, post, act_grad = cache
    grads = [None] * len(layers)
    g = np.asarray(grad_out, dtype=np.float64)
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        grads[i] = (g.T @ post[i], g.sum(axis=0))
        if i > 0:
            g = (g @ w) * act_grad(pre[i - 1])
    flat = np.empty(p.param_count)
    off = 0
    for gw, gb in grads:
        flat[off : off + gw.size] = gw.ravel()
        off += gw.size
        flat[off : off + gb.size] = gb
        off += gb.size
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
    rng_seed: int,
    t_lo: int,
    t_hi: int,
    *,
    anchor_seeds: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Noise every row of an (x0, cond) block through the forward marginal.

    ``x0`` is (B, dim) and ``cond`` is (B, cond_dim) or None.  Row i
    draws t uniform in [t_lo, t_hi], then eps, from its own
    ``content_rng(rng_seed, x0[i], cond[i])`` stream, so its draws depend
    only on (rng_seed, row content).  The rows' streams are seeded as one
    block by ``block_rngs`` and are bit for bit those of ``content_rng``;
    x_t is formed for the whole block by one ``forward_marginal`` call.
    Returns t (B,), x_t (B, dim) and eps (B, dim), plus, with
    ``anchor_seeds``, each row's next draw ``integers(1 << 62)`` from its
    stream (B,) (else None).
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim != 2 or len(x0) == 0:
        raise ValueError("batch must be a non-empty (B, dim) block")
    ts = np.empty(len(x0), dtype=np.int64)
    eps = np.empty_like(x0)
    seeds = np.empty(len(x0), dtype=np.int64) if anchor_seeds else None
    for i, rng in enumerate(block_rngs(rng_seed, x0, cond)):
        ts[i] = rng.integers(t_lo, t_hi + 1)
        eps[i] = rng.standard_normal(x0.shape[1])
        if anchor_seeds:
            seeds[i] = rng.integers(1 << 62)
    return ts, forward_marginal(s, x0, ts, eps), eps, seeds


def regress(
    p: DenoiserParams,
    xt: np.ndarray,
    ts: np.ndarray,
    num_steps: int,
    cond: np.ndarray | None,
    target: np.ndarray,
    cap: float | None = None,
) -> tuple[float, np.ndarray]:
    """Batch mean of |eps_p(xt, t, cond) - target|^2 over rows, with gradient.

    With ``cap`` each row's squared residual norm is clipped at ``cap``
    (trust-region clipping): a clipped row contributes the cap value and
    no gradient.
    """
    out, cache = forward_batch(p, xt, ts, num_steps, cond, want_cache=True)
    resid = out - target
    raw = np.sum(resid**2, axis=1)
    if cap is not None:
        resid = resid * (raw < cap)[:, None]
        raw = np.minimum(raw, cap)
    loss = float(np.mean(raw))
    grad = backward_batch(p, cache, 2.0 * resid / len(xt))
    return loss, grad


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


def clip_gradient(grad: np.ndarray, max_norm: float = GRAD_CLIP_NORM) -> np.ndarray:
    """Rescale so the global norm is at most ``max_norm``."""
    norm = float(np.linalg.norm(grad))
    if norm > max_norm:
        return grad * (max_norm / norm)
    return grad


def optimizer_step(
    p: DenoiserParams,
    st: OptimizerState,
    grad: np.ndarray,
) -> tuple[DenoiserParams, OptimizerState]:
    """One AdamW update with global-norm gradient clipping at 1.0.

    The gradient is rescaled so its norm is at most 1, then the
    bias-corrected moment update is applied together with decoupled
    weight decay.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != p.weights.shape:
        raise ValueError(f"gradient shape {grad.shape} != {p.weights.shape}")
    if not np.all(np.isfinite(grad)):
        raise FloatingPointError("gradient contains non-finite entries")

    grad = clip_gradient(grad)

    step = st.step_count + 1
    m = st.beta1 * st.first_moment + (1.0 - st.beta1) * grad
    v = st.beta2 * st.second_moment + (1.0 - st.beta2) * grad**2
    m_hat = m / (1.0 - st.beta1**step)
    v_hat = v / (1.0 - st.beta2**step)
    w = p.weights * (1.0 - st.lr * st.weight_decay)
    w = w - st.lr * m_hat / (np.sqrt(v_hat) + st.epsilon)
    new_state = replace(st, first_moment=m, second_moment=v, step_count=step)
    return p.with_weights(w), new_state
