"""Hierarchical, order-independent random seed derivation.

Every stochastic phase of the pipeline derives its generator from a root
seed plus a path of labels (phase name, group index, query index, ...).
Two derivations with the same root and path always produce the same
stream, regardless of how many other streams were consumed in between,
so results do not depend on scheduling or evaluation order.  ``rng_for``
and ``derive_seed`` hash (root, *path) with ``np.random.SeedSequence``;
``query_seeds`` is one ``derive_seed`` per query.

Per-row draws inside a block (training noise, ELBO noise, anchor styles,
sampler noise) come from ``content_rng``, a keyed counter-based draw
(Salmon et al., SC'11): each row's key is a SplitMix64 chain over its
root, the labels and the row's float64 words, and uniform k of the row
is one more mix of ``key + (k + 1) * golden``.  A row's draws depend only
on (root, labels, row content), so a duplicated row draws identically,
and a whole block is drawn with uint64 array arithmetic.
"""

from __future__ import annotations

import zlib

import numpy as np

_MASK63 = (1 << 63) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _encode(part: int | str) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    return int(part) & _MASK63


def rng_for(root: int, *path: int | str) -> np.random.Generator:
    """Generator for the stream identified by (root, *path)."""
    entropy = [_encode(root)] + [_encode(p) for p in path]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(root: int, *path: int | str) -> int:
    """Integer sub-seed for (root, *path), usable as a new root."""
    entropy = [_encode(root)] + [_encode(p) for p in path]
    state = np.random.SeedSequence(entropy).generate_state(2, dtype=np.uint32)
    return int(state[0]) << 31 | int(state[1] >> 1)


def query_seeds(root: int, count: int) -> list[int]:
    """``derive_seed(root, "query", q)`` for each query q < ``count``."""
    return [derive_seed(root, "query", q) for q in range(count)]


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, in place on a uint64 array, which it returns."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def content_rng(roots, *columns: np.ndarray | str | int | None, n: int) -> np.ndarray:
    """(B, n) uniforms in [0, 1), row i keyed by (roots[i], each column's row i).

    ``roots`` is one root for every row or a (B,) vector of roots.  Each
    column is a (B, d) block, keyed by the float64 words of its row
    (after ``+ 0.0``, so -0.0 keys as 0.0), or a label: a string (its
    crc32), an integer, or ``None`` (the label 0).  A one-root call with
    no block column draws one row.
    """
    key = np.atleast_1d(np.asarray(roots)).astype(np.uint64)
    key &= np.uint64(_MASK63)
    _mix(key)
    for c in columns:
        if c is None or isinstance(c, (str, int, np.integer)):
            key ^= np.uint64(0 if c is None else _encode(c))
            _mix(key)
        else:
            words = (np.asarray(c, dtype=np.float64) + 0.0).view(np.uint64)
            for w in words.T:
                if key.shape == w.shape:
                    key ^= w
                else:  # one root for a block: its first word spreads the key over the rows
                    key = key ^ w
                _mix(key)
    u = _mix(key[:, None] + np.arange(1, n + 1, dtype=np.uint64) * _GOLDEN)
    u >>= np.uint64(11)
    return u * 2.0**-53


def normals(u: np.ndarray, dim: int) -> np.ndarray:
    """(B, dim) standard normals from the first 2 * ceil(dim / 2) columns
    of the uniforms ``u`` (Box-Muller)."""
    p = -(-dim // 2)
    r = np.sqrt(-2.0 * np.log1p(-u[:, :p]))
    theta = 2.0 * np.pi * u[:, p:2 * p]
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=1)[:, :dim]
