"""Hierarchical, order-independent random seed derivation.

Every stochastic phase of the pipeline derives its generator from a root
seed plus a path of labels (phase name, group index, query index, ...).
Two derivations with the same root and path always produce the same
stream, regardless of how many other streams were consumed in between,
so results do not depend on scheduling or evaluation order.

``block_rngs`` is the block form of ``content_rng`` and ``rng_for``: it
hashes the seed of every row of a block in one vectorized pass of
``SeedSequence``'s algorithm and replays each row's stream through one
reused generator.  Its labels are strings or integers, as the path parts
of ``rng_for``.  The streams are bit for bit those of the one-row
functions.
"""

from __future__ import annotations

import zlib
from typing import Iterator

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK63 = (1 << 63) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants and pool size (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _encode(part: int | str) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    return int(part) & _MASK63


def _crc(arr: np.ndarray | None) -> int:
    if arr is None:
        return 0
    return zlib.crc32(np.ascontiguousarray(arr, dtype=np.float64).tobytes())


def rng_for(root: int, *path: int | str) -> np.random.Generator:
    """Generator for the stream identified by (root, *path)."""
    entropy = [_encode(root)] + [_encode(p) for p in path]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(root: int, *path: int | str) -> int:
    """Integer sub-seed for (root, *path), usable as a new root."""
    entropy = [_encode(root)] + [_encode(p) for p in path]
    state = np.random.SeedSequence(entropy).generate_state(2, dtype=np.uint32)
    return int(state[0]) << 31 | int(state[1] >> 1)


def content_rng(root: int, *arrays: np.ndarray | None) -> np.random.Generator:
    """Generator keyed by the byte content of the given arrays.

    Used for per-item noise draws inside batched losses: the draw
    depends only on (root, item content), so duplicating an item in a
    batch reuses the same draw and leaves a batch-mean loss unchanged.
    """
    entropy = [_encode(root)] + [_crc(arr) for arr in arrays]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def block_rngs(roots, *columns: np.ndarray | str | int | None) -> Iterator[np.random.Generator]:
    """Yield, for each row i of a block, a generator in row i's stream.

    ``roots`` is one root for every row or a (B,) vector of roots.  Each
    column is a block with one row per item (keyed by the row's bytes,
    as ``content_rng``), ``None`` (as a ``None`` array of ``content_rng``)
    or a string or integer label (as a path part of ``rng_for``; the
    label 0 gives the same word as ``None``).  Row i's stream is that of
    ``content_rng(roots[i], x0[i], cond[i])`` for the columns ``x0,
    cond``, that of ``rng_for(roots[i], "anchor")`` for the column
    ``"anchor"`` and that of ``rng_for(roots[i], t, j)`` for the labels
    ``t, j``.  The same generator object is yielded for every row, reset
    to the next row's state on each step, so draw from it before
    advancing.
    """
    scalar_root = np.ndim(roots) == 0
    labels = [c is None or isinstance(c, (str, int, np.integer)) for c in columns]
    rows = next((len(c) for c, label in zip(columns, labels) if not label),
                None if scalar_root else len(roots))
    if rows is None:
        raise ValueError("block_rngs needs a vector of roots or a block column")
    if scalar_root:
        entropy = [[_encode(roots)] * rows]
    else:
        entropy = [[_encode(r) for r in roots]]
    for c, label in zip(columns, labels):
        if label:
            entropy.append([_encode(c) if c is not None else 0] * rows)
        else:
            entropy.append([_crc(row) for row in np.asarray(c)])
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    for state, inc in _pcg64_states(np.array(entropy, dtype=np.uint64).T):
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        yield rng


def _pcg64_states(entropy: np.ndarray) -> list[tuple[int, int]]:
    """PCG64 (state, inc) of ``default_rng(SeedSequence(list(row)))`` per row.

    ``entropy`` is (B, m) of values below 2^64.  ``SeedSequence`` splits
    each value into 32-bit words (one word below 2^32, ``[0]`` for 0), so
    rows whose word counts differ are hashed in separate groups.
    """
    lo = (entropy & np.uint64(_MASK32)).astype(np.uint32)
    hi = (entropy >> np.uint64(32)).astype(np.uint32)
    wide = hi > 0
    pattern = wide @ (1 << np.arange(wide.shape[1]))
    out: list = [None] * len(entropy)
    for code in np.unique(pattern).tolist():
        rows = np.flatnonzero(pattern == code)
        words = []
        for j in range(entropy.shape[1]):
            words.append(lo[rows, j])
            if code >> j & 1:
                words.append(hi[rows, j])
        seed = _generate_state(_mix_pool(np.stack(words))).tolist()
        for r, (s0, s1, s2, s3) in zip(rows.tolist(), seed):
            initstate = s0 << 64 | s1
            inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
            out[r] = (((inc + initstate) * _PCG_MULT + inc) & _MASK128, inc)
    return out


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """The first n + 1 values of SeedSequence's hash constant, as a uint32 column."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` of each row of ``values`` with the constants
    consts[k] (xor) and consts[k + 1] (multiply) of its row k."""
    values = values ^ consts[:-1]
    values *= consts[1:]
    values ^= values >> np.uint32(16)
    return values


def _mix_pool(words: np.ndarray) -> np.ndarray:
    """``SeedSequence.mix_entropy`` over a block.

    ``words`` is (m, B): word j of every row's entropy.  Returns the
    (4, B) pool.  Every update of one source word into the other pool
    words is done as one array operation.
    """
    m = len(words)
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * max(m, _POOL_SIZE))
    pool = np.zeros((_POOL_SIZE, words.shape[1]), dtype=np.uint32)
    pool[: min(m, _POOL_SIZE)] = words[:_POOL_SIZE]
    pool = _hashmix(pool, consts[: _POOL_SIZE + 1])
    k = _POOL_SIZE
    for i_src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != i_src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[i_src][None], consts[k : k + _POOL_SIZE]))
        k += _POOL_SIZE - 1
    for i_src in range(_POOL_SIZE, m):
        pool = _mix(pool, _hashmix(words[i_src][None], consts[k : k + _POOL_SIZE + 1]))
        k += _POOL_SIZE
    return pool


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x
    result -= np.uint32(_MIX_MULT_R) * y
    result ^= result >> np.uint32(16)
    return result


def _generate_state(pool: np.ndarray) -> np.ndarray:
    """``SeedSequence.generate_state(4, np.uint64)`` over a block: (B, 4) uint64."""
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _hash_consts(_INIT_B, _MULT_B, 8))
    return words[0::2].T.astype(np.uint64) | words[1::2].T.astype(np.uint64) << np.uint64(32)
