"""The keyed draw and the block paths of the training, unlearning and scoring inner loops.

``content_rng`` draws a whole block's uniforms in one pass, keyed by each
row's root, labels and float64 words.  Its rows must depend on nothing
else: row i of a block is the one-row call, permuted or duplicated rows
draw the same, and -0.0 keys as 0.0.  ``noise_batch``, ``elbo_block``,
``anchor_select`` and ``sample`` each make one draw per block, and the
values drawn have the laws they stand for.  ``forward_marginal``,
``retrack_target`` and ``anchor_select`` work on whole blocks and must
give, row for row and bit for bit, what a one-row call gives; the
retrack target is also checked against a reference written here: the
stable-argsort prefix with a softmax.  One ``NearestKernel`` reused over
blocks of changing size and over a different K on each call gives what
fresh calls give, and its results never alias its buffers.  On point sets
large enough for its k-d tree candidates, rows get the same reference
result, also where rounding inverts the tree's order of the candidates,
and only rows with ties past the candidates go through its full scan.
``derive_seeds`` gives, for a whole vector of last labels, the seeds that
``np.random.SeedSequence`` gives one at a time.
"""

import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import cKDTree

from groupattr import denoiser, diffusion, scoring, unlearning
from groupattr.data import DatasetSpec, generate_grouped_dataset
from groupattr.denoiser import noise_batch
from groupattr.diffusion import NearestKernel, build_schedule, forward_marginal, kernel_logits
from groupattr.scoring import ElboSpec
from groupattr import seeding
from groupattr.seeding import content_rng, derive_seed, derive_seeds, normals, query_seeds
from groupattr.unlearning import AnchorSelector, anchor_select, retrack_target

S = build_schedule(40)

# Roots 0, below 2^32 and at or above 2^32.
roots = st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**63 - 1))
# Finite values with -0.0 and 0.0 over-represented: their bytes differ.
values = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))
labels = st.one_of(st.none(), st.sampled_from(["anchor", "sample", ""]),
                   st.integers(0, 2**63 - 1))


@st.composite
def blocks(draw):
    """B rows: one root per row (or one for all) and 0-5 columns, each a
    value block, a zero block or a label."""
    b = draw(st.integers(1, 5))
    columns = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["values", "zeros", "label"]))
        if kind == "label":
            columns.append(draw(labels))
        else:
            width = draw(st.integers(1, 3))
            block = draw(arrays(np.float64, (b, width), elements=values))
            columns.append(block * 0.0 if kind == "zeros" else block)
    row_roots = draw(st.lists(roots, min_size=b, max_size=b))
    return row_roots, b, columns


def is_block(column):
    return isinstance(column, np.ndarray)


def rows_of(column, idx):
    return column[idx] if is_block(column) else column


@settings(max_examples=80, deadline=None)
@given(block=blocks(), n=st.integers(1, 6), shared_root=st.booleans())
def test_block_rngs_match_content_rng(block, n, shared_root):
    """Row i of a block draw is the one-row ``content_rng`` call."""
    row_roots, b, columns = block
    if shared_root and any(is_block(c) for c in columns):
        row_roots = [row_roots[0]] * b
        root_arg = row_roots[0]
    else:
        root_arg = np.array(row_roots, dtype=np.int64)
    got = content_rng(root_arg, *columns, n=n)
    assert got.shape == (b, n)
    assert np.all((got >= 0.0) & (got < 1.0))
    for i in range(b):
        one = content_rng(row_roots[i], *(rows_of(c, slice(i, i + 1)) for c in columns), n=n)
        assert one.tobytes() == got[i:i + 1].tobytes()


M64 = 2**64 - 1


def splitmix(z):
    z ^= z >> 30
    z = z * 0xBF58476D1CE4E5B9 & M64
    z ^= z >> 27
    z = z * 0x94D049BB133111EB & M64
    return z ^ z >> 31


def reference_uniforms(root, row_columns, n):
    """One row's uniforms, written out with Python integers: the key chains
    SplitMix64's finalizer over the root, each label's word and each float64
    word of the row; uniform k is the top 53 bits of mix(key + (k+1) golden)."""
    key = splitmix(root & (2**63 - 1))
    for c in row_columns:
        if isinstance(c, np.ndarray):
            words = [struct.unpack("<Q", struct.pack("<d", float(v) + 0.0))[0] for v in c]
        elif isinstance(c, str):
            words = [zlib.crc32(c.encode("utf-8"))]
        else:
            words = [0 if c is None else c]
        for w in words:
            key = splitmix(key ^ w)
    return [(splitmix((key + (k + 1) * 0x9E3779B97F4A7C15) & M64) >> 11) * 2.0**-53
            for k in range(n)]


@settings(max_examples=60, deadline=None)
@given(block=blocks(), n=st.integers(1, 5))
def test_draw_is_the_splitmix64_chain(block, n):
    row_roots, b, columns = block
    got = content_rng(np.array(row_roots, dtype=np.int64), *columns, n=n)
    for i in range(b):
        want = reference_uniforms(row_roots[i], [rows_of(c, i) for c in columns], n)
        assert got[i].tolist() == want


mixed_widths = st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**62 - 1)),
                        min_size=1, max_size=8)


@settings(max_examples=40, deadline=None)
@given(seeds=mixed_widths)
def test_block_rngs_match_rng_for_with_mixed_seed_widths(seeds):
    """A vector of roots on both sides of 2^32 draws, row for row, what
    each root draws alone."""
    got = content_rng(np.array(seeds, dtype=np.int64), "anchor", n=3)
    for i, seed in enumerate(seeds):
        assert got[i:i + 1].tobytes() == content_rng(seed, "anchor", n=3).tobytes()
        assert got[i].tolist() == reference_uniforms(seed, ["anchor"], 3)


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(roots, min_size=1, max_size=8),
       t=st.one_of(st.just(0), st.integers(1, 1000)), j=st.one_of(st.just(0), st.integers(1, 5)))
def test_block_rngs_with_integer_labels_match_rng_for(seeds, t, j):
    """The ELBO noise block: row i of ``content_rng(seeds, t, j)`` is the
    one-row call on ``seeds[i]``, and an integer label folds in as its own
    word, label 0 included."""
    got = content_rng(np.array(seeds, dtype=np.int64), t, j, n=4)
    assert got.shape == (len(seeds), 4)
    for i, seed in enumerate(seeds):
        assert got[i:i + 1].tobytes() == content_rng(seed, t, j, n=4).tobytes()
        assert got[i].tolist() == reference_uniforms(seed, [t, j], 4)


def test_block_of_mixed_seed_widths_covers_both_groups():
    seeds = np.array([3, 2**40 + 1, 2**32 - 1, 2**32, 0], dtype=np.int64)
    got = content_rng(seeds, "anchor", n=1)
    want = [reference_uniforms(int(s), ["anchor"], 1) for s in seeds]
    assert got.tolist() == want
    for i, s in enumerate(seeds):
        assert got[i:i + 1].tobytes() == content_rng(int(s), "anchor", n=1).tobytes()
    # Roots just below and at 2^32 key apart.
    assert len(set(got[:, 0].tolist())) == len(seeds)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_normals_are_box_muller(dim):
    u = content_rng(np.arange(50), "box-muller", n=dim + dim % 2)
    p = (dim + 1) // 2
    want = [[math.sqrt(-2.0 * math.log1p(-row[k % p]))
             * (math.cos if k < p else math.sin)(2.0 * math.pi * row[p + k % p])
             for k in range(dim)] for row in u.tolist()]
    np.testing.assert_allclose(normals(u, dim), want, rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(block=blocks(), data=st.data())
def test_permuting_rows_permutes_the_draws(block, data):
    row_roots, b, columns = block
    perm = np.array(data.draw(st.permutations(range(b))))
    roots_arr = np.array(row_roots, dtype=np.int64)
    got = content_rng(roots_arr[perm], *(rows_of(c, perm) for c in columns), n=3)
    assert got.tobytes() == content_rng(roots_arr, *columns, n=3)[perm].tobytes()


@settings(max_examples=40, deadline=None)
@given(block=blocks(), data=st.data())
def test_duplicate_rows_draw_identically(block, data):
    row_roots, b, columns = block
    idx = np.array(data.draw(st.lists(st.integers(0, b - 1), min_size=1, max_size=8)))
    roots_arr = np.array(row_roots, dtype=np.int64)
    got = content_rng(roots_arr[idx], *(rows_of(c, idx) for c in columns), n=3)
    assert got.tobytes() == content_rng(roots_arr, *columns, n=3)[idx].tobytes()


@settings(max_examples=40, deadline=None)
@given(root=roots, x=arrays(np.float64, (4, 3), elements=values))
def test_negative_zero_keys_as_zero(root, x):
    negative = np.where(x == 0.0, -0.0, x)
    positive = np.where(x == 0.0, 0.0, x)
    assert content_rng(root, negative, n=2).tobytes() == content_rng(root, positive, n=2).tobytes()


@settings(max_examples=20, deadline=None)
@given(root=roots, x=arrays(np.float64, (3, 2), elements=values))
def test_none_column_keys_as_label_zero(root, x):
    assert content_rng(root, x, None, n=4).tobytes() == content_rng(root, x, 0, n=4).tobytes()


@pytest.mark.parametrize("t_lo, t_hi", [(1, 40), (5, 9), (7, 7)])
def test_noise_batch_t_covers_its_range(t_lo, t_hi):
    x0 = np.arange(4000.0).reshape(2000, 2)
    ts = noise_batch(x0, None, S, 3, t_lo, t_hi)[0]
    assert set(ts.tolist()) == set(range(t_lo, t_hi + 1))


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_normals_have_unit_law(dim):
    """Mean 0 and variance 1 within 5 standard errors over 10^5 draws."""
    n_rows = 100_000 // dim
    z = normals(content_rng(np.arange(n_rows), "moments", n=dim + dim % 2), dim)
    assert z.shape == (n_rows, dim)
    z = z.ravel()
    assert abs(z.mean()) <= 5.0 / math.sqrt(z.size)
    assert abs(z.var() - 1.0) <= 5.0 * math.sqrt(2.0 / z.size)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), b=st.integers(1, 6), conditional=st.booleans(),
       data=st.data())
def test_noise_batch_matches_content_rng_rows(seed, b, conditional, data):
    """t, eps and the anchor seed are the uniforms of one keyed draw."""
    x0 = data.draw(arrays(np.float64, (b, 3), elements=values))
    cond = data.draw(arrays(np.float64, (b, 3), elements=values)) if conditional else None
    ts, xt, eps, anchors = noise_batch(x0, cond, S, seed, 5, 30, anchor_seeds=True)
    assert noise_batch(x0, cond, S, seed, 5, 30)[3] is None
    u = content_rng(seed, x0, cond, n=6)
    assert ts.tolist() == [5 + math.floor(v * 26) for v in u[:, 0]]
    assert eps.tobytes() == normals(u[:, 1:5], 3).tobytes()
    assert xt.tobytes() == forward_marginal(S, x0, ts, eps).tobytes()
    assert anchors.tolist() == [int(v * 2.0**62) for v in u[:, 5]]


@settings(max_examples=40, deadline=None)
@given(b=st.integers(1, 6), dim=st.integers(1, 4), data=st.data())
def test_forward_marginal_block_matches_rows(b, dim, data):
    x0 = data.draw(arrays(np.float64, (b, dim), elements=st.floats(-10, 10)))
    eps = data.draw(arrays(np.float64, (b, dim), elements=st.floats(-10, 10)))
    ts = np.array(data.draw(st.lists(st.integers(1, S.num_steps), min_size=b, max_size=b)))
    block = forward_marginal(S, x0, ts, eps)
    for i in range(b):
        assert block[i].tobytes() == forward_marginal(S, x0[i], int(ts[i]), eps[i]).tobytes()


@st.composite
def retrack_cases(draw):
    """Retain points with duplicates and mirror images, and x_t rows that
    sit on a kernel centre or at the origin, so exact ties are common."""
    n = draw(st.integers(1, 12))
    grid = st.integers(-4, 4).map(lambda v: v / 2.0)
    retain = draw(arrays(np.float64, (n, 2), elements=grid))
    dup = draw(st.lists(st.integers(0, n - 1), max_size=4))
    mirror = draw(st.lists(st.integers(0, n - 1), max_size=4))
    retain = np.vstack([retain, retain[dup], -retain[mirror]])
    n = len(retain)
    b = draw(st.integers(1, 6))
    ts = np.array(draw(st.lists(st.integers(1, S.num_steps), min_size=b, max_size=b)))
    xt = draw(arrays(np.float64, (b, 2), elements=grid))
    for i in draw(st.lists(st.integers(0, b - 1), max_size=b)):
        xt[i] = np.sqrt(S.alpha_bars[ts[i] - 1]) * retain[draw(st.integers(0, n - 1))]
    K = draw(st.one_of(st.just(n), st.integers(1, n)))
    return retain, xt, ts, K


def squared_distances(retain, x, t):
    """|x - sqrt(abar_t) x_i|^2 summed coordinate by coordinate, as
    ``kernel_logits`` sums it: after the division by -2 sigma^2, points one
    ulp apart in distance can share a logit."""
    scale = math.sqrt(S.alpha_bar(t))
    dist2 = np.zeros(len(retain))
    for j in range(retain.shape[1]):
        diff = x[j] - scale * retain[:, j]
        dist2 += diff * diff
    return dist2


def reference_target(retain, x, t, K):
    """The retrack target of one row, written out: the first K points of a
    stable sort by distance, a softmax of their logits, ``w @ (x - c) / sigma_t``."""
    dist2 = squared_distances(retain, x, t)
    keep = np.argsort(dist2, kind="stable")[:K]
    logits = dist2[keep] / (-2.0 * S.sigma(t) ** 2)
    w = np.exp(logits - logits.max())
    w /= w.sum()
    centers = math.sqrt(S.alpha_bar(t)) * retain[keep]
    return w @ (x - centers) / S.sigma(t)


# Rows 0 and 2 keep point 6 and then have four points at their K-th (K = 2)
# distance, rows 1 and 3 have no ties, and row 4 keeps two tied points with
# no point left over.
UNIT = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [2.0, 0.0], [3.0, 0.5],
                 [0.0, -0.25]])
PARTIAL_TIES = (UNIT, np.array([[0.0, 0.0], [9.0, 0.3], [0.0, 0.0], [-7.0, 2.1], [0.4, 0.4]]),
                np.array([5, 5, 30, 12, 5]), 2)


@settings(max_examples=60, deadline=None)
@given(case=retrack_cases())
@example(case=PARTIAL_TIES)
def test_retrack_target_block_matches_rows(case):
    retain, xt, ts, K = case
    block = retrack_target(retain, xt, ts, K, S)
    for i in range(len(xt)):
        row = retrack_target(retain, xt[i], int(ts[i]), K, S)
        assert block[i].tobytes() == row.tobytes()
        assert row.tobytes() == reference_target(retain, xt[i], int(ts[i]), K).tobytes()


# 60 points and K = 5, so that the k-d tree proposes the candidates.
TREE_CASE = (np.random.default_rng(5).normal(size=(60, 2)) * 2.0,
             np.random.default_rng(6).normal(size=(8, 2)) * 2.0, np.array([9]), 5)


@settings(max_examples=60, deadline=None)
@given(case=retrack_cases())
@example(case=PARTIAL_TIES)
@example(case=TREE_CASE)
def test_retrack_target_block_with_one_timestep_matches_rows(case):
    """An x_t block with one scalar t: every row is bit for bit its one-row
    target, and the block is the block at that t repeated per row."""
    retain, xt, ts, K = case
    t = int(ts[0])
    block = retrack_target(retain, xt, t, K, S)
    assert block.shape == xt.shape
    assert block.tobytes() == retrack_target(retain, xt, np.full(len(xt), t), K, S).tobytes()
    for i in range(len(xt)):
        assert block[i].tobytes() == retrack_target(retain, xt[i], t, K, S).tobytes()


# Points 4 and 11 are at one exact distance from centre 10, but point 11's
# float64 distance is one ulp smaller while their logits are equal.
TIE_RETAIN = np.array([[-2.0, -2.0], [2.0, -2.0], [-2.0, 2.0], [2.0, 2.0], [0.5, -1.5],
                       [0.0, -2.0], [-2.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 1.5],
                       [-1.0, 0.5], [1.5, 0.5]])


@settings(max_examples=60, deadline=None)
@given(case=retrack_cases())
@example(case=(TIE_RETAIN, np.sqrt(S.alpha_bars[4]) * TIE_RETAIN[10:11], np.array([5]), 12))
def test_truncation_is_the_stable_argsort_prefix(case):
    """The K kept points are the first K of a stable sort by distance."""
    retain, xt, ts, K = case
    block_logits, block_centers = NearestKernel(retain)(xt, ts, S, K)
    for i in range(len(xt)):
        logits, centers = kernel_logits(retain, xt[i], int(ts[i]), S)
        keep = np.argsort(squared_distances(retain, xt[i], int(ts[i])), kind="stable")[:K]
        row_logits, row_centers = NearestKernel(retain)(xt[i], int(ts[i]), S, K)
        for got_logits, got_centers in ((row_logits, row_centers),
                                        (block_logits[i], block_centers[i])):
            assert got_logits.tobytes() == logits[keep].tobytes()
            assert got_centers.tobytes() == centers[keep].tobytes()


def test_truncation_keeps_the_lowest_indices_of_exact_ties():
    # Four distinct points at one distance from x_t = 0, and one farther:
    # K = 2 keeps indices 0 and 1, in that order.
    retain = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [2.0, 0.0]])
    t = 7
    scale = np.sqrt(S.alpha_bars[t - 1])
    for xt, tt in ((np.zeros(2), t), (np.zeros((1, 2)), np.array([t]))):
        _, centers = NearestKernel(retain)(xt, tt, S, 2)
        assert centers.reshape(2, 2).tobytes() == (scale * retain[:2]).tobytes()


@pytest.mark.parametrize("K", [1, 5, None], ids=["K=1", "K=5", "K=n"])
def test_prepared_kernel_reuses_its_buffers_across_block_sizes(K):
    """One kernel through blocks of 64, 30, one row and 64 again gives, bit
    for bit, a fresh kernel's and one-row ``retrack_target`` results, and
    no result aliases its buffers: neither another call on a block of the
    same size nor mutating a result changes any other result."""
    rng = np.random.default_rng(11)
    base = rng.integers(-4, 5, size=(40, 2)) / 2.0
    retain = np.vstack([base, base[:8], -base[8:16]])  # duplicated and mirrored points
    K = len(retain) if K is None else K
    kernel = NearestKernel(retain)
    ties = 0
    for size in (64, 30, 1, 64):
        ts = rng.integers(1, S.num_steps + 1, size)
        xt = rng.integers(-4, 5, size=(size, 2)) / 2.0
        on = rng.integers(0, len(retain), size)[::3]
        xt[::3] = np.sqrt(S.alpha_bars[ts[::3] - 1])[:, None] * retain[on]
        if size == 1:
            xt, ts = xt[0], int(ts[0])
        logits, centers = kernel(xt, ts, S, K)
        fresh = NearestKernel(retain)(xt, ts, S, K)
        assert logits.tobytes() == fresh[0].tobytes()
        assert centers.tobytes() == fresh[1].tobytes()
        targets = retrack_target(kernel, xt, ts, K, S)
        for i, (x, t) in enumerate(zip(np.atleast_2d(xt), np.atleast_1d(ts))):
            row = retrack_target(retain, x, int(t), K, S)
            assert np.atleast_2d(targets)[i].tobytes() == row.tobytes()
            dist = np.sort(squared_distances(retain, x, int(t)))
            ties += K < len(retain) and dist[K - 1] == dist[K]
        results = (logits, centers, targets)
        saved = [r.tobytes() for r in results]
        kernel(-xt, ts, S, K)  # another block of this size
        retrack_target(kernel, -xt, ts, K, S)
        assert [r.tobytes() for r in results] == saved
        for r in results:
            r[...] = np.nan
        again = (*kernel(xt, ts, S, K), retrack_target(kernel, xt, ts, K, S))
        assert [r.tobytes() for r in again] == saved
    assert ties or K == len(retain)


def test_prepared_kernel_serves_another_K_on_each_call():
    """One kernel called with K = 1, n, 5, 1, 17 and n in turn gives, bit for
    bit, a fresh kernel's and one-row ``retrack_target`` results each time,
    and refuses a K outside [1, n] on any call."""
    rng = np.random.default_rng(12)
    base = rng.integers(-4, 5, size=(30, 2)) / 2.0
    retain = np.vstack([base, base[:6]])
    n = len(retain)
    kernel = NearestKernel(retain)
    ts = rng.integers(1, S.num_steps + 1, 20)
    xt = rng.integers(-4, 5, size=(20, 2)) / 2.0
    for K in (1, n, 5, 1, 17, n):
        logits, centers = kernel(xt, ts, S, K)
        assert logits.shape == (20, K) and centers.shape == (20, K, 2)
        fresh = NearestKernel(retain)(xt, ts, S, K)
        assert logits.tobytes() == fresh[0].tobytes()
        assert centers.tobytes() == fresh[1].tobytes()
        targets = retrack_target(kernel, xt, ts, K, S)
        for i in range(len(xt)):
            assert targets[i].tobytes() == retrack_target(retain, xt[i], int(ts[i]), K, S).tobytes()
    for K in (0, n + 1):
        with pytest.raises(ValueError, match="K must be in"):
            kernel(xt, ts, S, K)


def recorded_scans(monkeypatch) -> list:
    """The row blocks that ``NearestKernel`` sends through its full scan."""
    scanned = []
    scan = NearestKernel._scan

    def recording(self, rows, scale, K):
        scanned.append(rows.copy())
        return scan(self, rows, scale, K)

    monkeypatch.setattr(NearestKernel, "_scan", recording)
    return scanned


def assert_stable_argsort_prefix(retain, xt, ts, K, kernel):
    """Every row of the kernel's block result at ``ts`` (one t or per-row t),
    and of its retrack target at per-row t, is bit for bit the
    stable-argsort reference of that row."""
    per_row = np.broadcast_to(ts, len(xt))
    logits, centers = kernel(xt, ts, S, K)
    targets = retrack_target(kernel, xt, per_row, K, S)
    for i, t in enumerate(per_row.tolist()):
        row_logits, row_centers = kernel_logits(retain, xt[i], t, S)
        keep = np.argsort(squared_distances(retain, xt[i], t), kind="stable")[:K]
        assert logits[i].tobytes() == row_logits[keep].tobytes()
        assert centers[i].tobytes() == row_centers[keep].tobytes()
        assert targets[i].tobytes() == reference_target(retain, xt[i], t, K).tobytes()


# 400 points, so that K + diffusion._SPARE_CANDIDATES < n and the k-d tree
# proposes the candidates.
SPREAD = np.random.default_rng(21).normal(size=(400, 2)) * 2.0


@pytest.mark.parametrize("K", [1, 10, 40])
def test_tree_candidates_give_the_stable_argsort_prefix(K, monkeypatch):
    """Blocks of noised points at one t (t = 1, 9, 23 and T) and at per-row
    t (T among them) get the reference result from the tree's candidates
    alone.  At t = T, sqrt(abar_T) is about 1e-3, which puts x_t / sqrt(abar_T)
    far from the points."""
    scanned = recorded_scans(monkeypatch)
    rng = np.random.default_rng(K)
    kernel = NearestKernel(SPREAD)
    ts = np.append(rng.integers(1, S.num_steps + 1, 39), S.num_steps)
    x0 = SPREAD[rng.integers(0, len(SPREAD), 40)]
    xt = forward_marginal(S, x0, ts, rng.normal(size=x0.shape))
    assert_stable_argsort_prefix(SPREAD, xt, ts, K, kernel)
    for t in (1, 9, 23, S.num_steps):
        xt = forward_marginal(S, x0, t, rng.normal(size=x0.shape))
        assert_stable_argsort_prefix(SPREAD, xt, t, K, kernel)
    assert scanned == []


def test_candidates_whose_distances_invert_the_tree_order(monkeypatch):
    """Seen from its centre, a ring of K + 2 points at radius 1, far from
    every other point, is one near-tie: the tree proposes the ring in an
    order that the recomputed distances invert by rounding, on every row.
    Those rows are sorted by (distance, index) and get the reference
    result from the candidates alone."""
    K = 10
    centre = np.array([4.0, -1.0])
    angles = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, K + 2)
    far = SPREAD[np.hypot(*(SPREAD - centre).T) > 2.0]
    retain = np.vstack([far[:150], centre + np.stack([np.cos(angles), np.sin(angles)], 1),
                        far[150:]])
    ts = np.array([1, 3, 9, 17, 30])
    scales = np.sqrt(S.alpha_bars[ts - 1])
    xt = scales[:, None] * centre
    _, tree_order = cKDTree(retain).query(centre, K + diffusion._SPARE_CANDIDATES)
    for i, t in enumerate(ts.tolist()):
        assert np.any(np.diff(squared_distances(retain, xt[i], t)[tree_order]) < 0.0)
    scanned = recorded_scans(monkeypatch)
    assert_stable_argsort_prefix(retain, xt, ts, K, NearestKernel(retain))
    assert scanned == []


@pytest.mark.parametrize("per_row", [False, True], ids=["one t", "per-row t"])
def test_ties_past_the_candidates_fall_back_to_the_scan(per_row, monkeypatch):
    """A row with more than K + c points at its K-th distance (c the spare
    candidates) goes through the scan and keeps their lowest indices.  Here
    that is a row on a point with K + c + 3 copies, and the row x_t = 0,
    around which a ring of 8 symmetric points repeats to K + c + 3 points.
    The other rows are decided from the tree's candidates, among them a row
    on a point with only K + c - 2 copies.  With a K past the ring, the
    ring's ties sit inside the candidates, which must order them by index
    and need no scan."""
    K = 10
    copies = K + diffusion._SPARE_CANDIDATES + 3
    rng = np.random.default_rng(8)
    far = SPREAD[np.hypot(*SPREAD.T) > 3.0]  # nothing nearer to 0 than the ring
    dup, few = np.array([9.25, -9.5]), np.array([-9.5, 9.25])  # far from all other rows
    ring = np.array([[a, b] for a, b in ((1.5, 0.5), (0.5, 1.5)) for a in (a, -a) for b in (b, -b)])
    retain = np.vstack([far[:100], np.tile(dup, (copies, 1)), np.resize(ring, (copies, 2)),
                        far[100:], np.tile(few, (copies - 5, 1))])
    ts = rng.integers(1, S.num_steps // 2, 8) if per_row else 9
    x0 = far[rng.integers(0, len(far), 8)]
    xt = forward_marginal(S, x0, ts, rng.normal(size=x0.shape))
    scales = np.sqrt(S.alpha_bars[np.broadcast_to(ts, 8) - 1])
    xt[2], xt[5], xt[6] = scales[2] * dup, 0.0, scales[6] * few
    scanned = recorded_scans(monkeypatch)
    kernel = NearestKernel(retain)
    assert_stable_argsort_prefix(retain, xt, ts, K, kernel)
    # Once for the kernel call, once for the target's.
    assert [rows.tobytes() for rows in scanned] == [xt[[2, 5]].tobytes()] * 2
    assert_stable_argsort_prefix(retain, xt, ts, copies + 3, kernel)
    assert len(scanned) == 2


def test_anchor_select_block_matches_one_seed_calls():
    spec = DatasetSpec(n_groups=4, samples_per_group=5, conditional=True, descriptor_dim=4)
    sel = AnchorSelector.from_dataset(generate_grouped_dataset(spec, seed=3))
    seeds = np.array([0, 17, 2**31 + 5, 2**32, 2**45 + 9, 2**62 - 1], dtype=np.int64)
    styles, anchors = anchor_select(sel, 1, seeds)
    for i, seed in enumerate(seeds):
        style, anchor = anchor_select(sel, 1, int(seed))
        assert styles[i] == style
        assert anchors[i].tobytes() == anchor.tobytes()


@pytest.mark.parametrize("tau, eta_mix", [(2.0, 0.1), (0.5, 0.0), (5.0, 1.0)])
def test_anchor_styles_follow_selection_probs(tau, eta_mix):
    """Each style's frequency over 20,000 seeds is within 5 standard errors
    of its selection probability."""
    spec = DatasetSpec(n_groups=4, samples_per_group=5, conditional=True, descriptor_dim=4)
    sel = AnchorSelector.from_dataset(generate_grouped_dataset(spec, seed=3), tau, eta_mix)
    seeds = np.arange(20_000, dtype=np.int64) * 7919 + 2**33
    for k in range(4):
        idx, probs = sel.selection_probs(k)
        styles, anchors = anchor_select(sel, k, seeds)
        freq = (styles[:, None] == idx).mean(axis=0)
        assert np.all(np.abs(freq - probs) <= 5.0 * np.sqrt(probs * (1.0 - probs) / len(seeds)))
        assert anchors.tobytes() == sel.anchor_condition(k, styles).tobytes()


def _zero_denoiser(x, t, cond):
    return np.zeros_like(x)


SITES = {
    "noise_batch": (denoiser, lambda x0, seeds: noise_batch(x0, None, S, 5, 1, 40,
                                                            anchor_seeds=True)),
    "elbo_block": (scoring, lambda x0, seeds: scoring.elbo_block(
        [_zero_denoiser], x0, None, seeds, ElboSpec(stride=10, samples_per_t=2), S)),
    "anchor_select": (unlearning, lambda x0, seeds: anchor_select(
        AnchorSelector.from_dataset(generate_grouped_dataset(
            DatasetSpec(n_groups=3, samples_per_group=4, conditional=True), seed=1)), 0, seeds)),
    "sample": (diffusion, lambda x0, seeds: diffusion.sample(S, _zero_denoiser, seeds, steps=12,
                                                             dim=2)),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_each_site_draws_once_per_block(site, monkeypatch):
    """``content_rng`` is called once per block (once per ELBO grid point and
    sample), over every row at once."""
    module, run = SITES[site]
    rows = []
    real = module.content_rng

    def counting(roots, *columns, n):
        out = real(roots, *columns, n=n)
        rows.append(len(out))
        return out

    monkeypatch.setattr(module, "content_rng", counting)
    run(np.arange(14.0).reshape(7, 2), np.arange(7, dtype=np.int64) + 100)
    blocks_drawn = len(range(2, 41, 10)) * 2 if site == "elbo_block" else 1
    assert rows == [7] * blocks_drawn


def seed_sequence_seed(root, *path):
    """``derive_seed`` written against ``np.random.SeedSequence`` directly."""
    entropy = [seeding._encode(part) for part in (root, *path)]
    s0, s1 = np.random.SeedSequence(entropy).generate_state(2, dtype=np.uint32)
    return int(s0) << 31 | int(s1) >> 1


def entropy_words(root, *path):
    """How many 32-bit words ``SeedSequence`` makes of (root, *path)."""
    return sum(max(1, -(-seeding._encode(part).bit_length() // 32)) for part in (root, *path))


seed_labels = st.one_of(st.sampled_from(["query", "elbo", ""]), st.integers(0, 2**32 - 1),
                        st.integers(2**32, 2**64))
last_labels = st.lists(st.one_of(st.sampled_from([0, 1, 2**32 - 1]), st.integers(0, 2**32 - 1)),
                       min_size=1, max_size=6)


@settings(max_examples=120, deadline=None)
@given(st.one_of(roots, st.integers(-2**70, -1), st.integers(2**63, 2**70)),
       st.lists(seed_labels, max_size=4), last_labels)
def test_derive_seeds_is_seed_sequence_per_last_label(root, path, last):
    """Entropy shorter than, as long as and longer than the 4-word pool."""
    got = derive_seeds(root, *path, last=np.array(last, dtype=np.uint32))
    assert got == [seed_sequence_seed(root, *path, q) for q in last]
    assert all(type(seed) is int for seed in got)


@pytest.mark.parametrize("root", [0, 7, 2**32 - 1, 2**32, 2**63 - 1])
@pytest.mark.parametrize("path", [("query",), ("elbo", 3), ("a", 2**40, "b")])
def test_derive_seeds_named_roots_and_paths(root, path):
    last = np.array([0, 1, 5, 255, 2**31, 2**32 - 1], dtype=np.uint32)
    assert derive_seeds(root, *path, last=last) == \
        [seed_sequence_seed(root, *path, int(q)) for q in last] == \
        [derive_seed(root, *path, int(q)) for q in last]


def test_derive_seeds_cover_every_entropy_length_around_the_pool():
    cases = [(0, ()), (7, ("query",)), (2**32, ("query",)), (2**32, ("a", 1)),
             (2**63 - 1, ("a", 2**40)), (5, ("a", 2**40, "b"))]
    assert sorted({entropy_words(root, *path, 0) for root, path in cases}) == [2, 3, 4, 5, 6]
    for root, path in cases:
        last = np.arange(9, dtype=np.uint32)
        assert derive_seeds(root, *path, last=last) == \
            [seed_sequence_seed(root, *path, q) for q in range(9)]


@pytest.mark.parametrize("count", [0, 1, 2, 257])
def test_query_seeds_are_derive_seed_per_query(count):
    assert query_seeds(123, count) == [derive_seed(123, "query", q) for q in range(count)]
