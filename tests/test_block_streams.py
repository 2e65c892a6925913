"""Block paths of the training, unlearning and scoring inner loops, against their one-row forms.

``block_rngs`` seeds every row of a block in one vectorized pass (keyed by
row bytes, string labels or the integer labels of the ELBO noise), and
``noise_batch``, ``forward_marginal``, ``retrack_target`` and
``anchor_select`` work on whole blocks.  Each must give, row for row and
bit for bit, what the one-row definitions give: ``content_rng`` and
``rng_for`` for the streams, a one-row call for the arithmetic.  The
retrack target and the anchor draws are also checked against references
written here: the stable-argsort prefix with a softmax, and
``Generator.choice``.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from groupattr.denoiser import noise_batch
from groupattr.data import DatasetSpec, generate_grouped_dataset
from groupattr.diffusion import build_schedule, forward_marginal, kernel_logits
from groupattr.seeding import block_rngs, content_rng, rng_for
from groupattr.unlearning import AnchorSelector, anchor_select, retrack_target

S = build_schedule(40)

# Roots 0, below 2^32 and at or above 2^32 (one or two entropy words).
roots = st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**63 - 1))
# Finite values with -0.0 and 0.0 over-represented: their bytes differ.
values = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))


@st.composite
def blocks(draw):
    """A root and 0-5 columns of B rows: value blocks, zero blocks or None."""
    b = draw(st.integers(1, 5))
    columns = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["values", "zeros", "none"]))
        if kind == "none":
            columns.append(None)
        else:
            width = draw(st.integers(1, 3))
            block = draw(arrays(np.float64, (b, width), elements=values))
            columns.append(block * 0.0 if kind == "zeros" else block)
    return draw(roots), b, columns


def rows_of(column, i):
    return None if column is None else column[i]


@settings(max_examples=80, deadline=None)
@given(block=blocks(), vector_root=st.booleans())
def test_block_rngs_match_content_rng(block, vector_root):
    root, b, columns = block
    # Without a value column the block is sized by a vector of roots.
    if vector_root or all(c is None for c in columns):
        root_arg = np.full(b, root, dtype=np.uint64)
    else:
        root_arg = root
    seen = 0
    for i, rng in enumerate(block_rngs(root_arg, *columns)):
        ref = content_rng(root, *(rows_of(c, i) for c in columns))
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes()
        seen += 1
    assert seen == b


@settings(max_examples=40, deadline=None)
@given(seeds=st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**62 - 1)),
                      min_size=1, max_size=8))
def test_block_rngs_match_rng_for_with_mixed_seed_widths(seeds):
    for seed, rng in zip(seeds, block_rngs(np.array(seeds, dtype=np.int64), "anchor")):
        assert rng.bit_generator.state == rng_for(seed, "anchor").bit_generator.state


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(roots, min_size=1, max_size=8),
       t=st.one_of(st.just(0), st.integers(1, 1000)), j=st.one_of(st.just(0), st.integers(1, 5)))
def test_block_rngs_with_integer_labels_match_rng_for(seeds, t, j):
    """The ELBO noise block: row i of ``block_rngs(seeds, t, j)`` is
    ``rng_for(seeds[i], t, j)``, label 0 included."""
    for seed, rng in zip(seeds, block_rngs(seeds, t, j), strict=True):
        want = rng_for(seed, t, j).standard_normal(3)
        assert rng.standard_normal(3).tobytes() == want.tobytes()


def test_block_of_mixed_seed_widths_covers_both_groups():
    seeds = np.array([3, 2**40 + 1, 2**32 - 1, 2**32, 0], dtype=np.int64)
    got = [rng.integers(1 << 62) for rng in block_rngs(seeds, "anchor")]
    assert got == [rng_for(int(s), "anchor").integers(1 << 62) for s in seeds]


@settings(max_examples=40, deadline=None)
@given(b=st.integers(1, 6), dim=st.integers(1, 4), data=st.data())
def test_forward_marginal_block_matches_rows(b, dim, data):
    x0 = data.draw(arrays(np.float64, (b, dim), elements=st.floats(-10, 10)))
    eps = data.draw(arrays(np.float64, (b, dim), elements=st.floats(-10, 10)))
    ts = np.array(data.draw(st.lists(st.integers(1, S.num_steps), min_size=b, max_size=b)))
    block = forward_marginal(S, x0, ts, eps)
    for i in range(b):
        assert block[i].tobytes() == forward_marginal(S, x0[i], int(ts[i]), eps[i]).tobytes()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), b=st.integers(1, 6), conditional=st.booleans(),
       data=st.data())
def test_noise_batch_matches_content_rng_rows(seed, b, conditional, data):
    x0 = data.draw(arrays(np.float64, (b, 2), elements=values))
    cond = data.draw(arrays(np.float64, (b, 3), elements=values)) if conditional else None
    ts, xt, eps, anchors = noise_batch(x0, cond, S, seed, 5, 30, anchor_seeds=True)
    assert noise_batch(x0, cond, S, seed, 5, 30)[3] is None
    for i in range(b):
        rng = content_rng(seed, x0[i], rows_of(cond, i))
        t = int(rng.integers(5, 31))
        e = rng.standard_normal(2)
        assert ts[i] == t
        assert eps[i].tobytes() == e.tobytes()
        assert xt[i].tobytes() == forward_marginal(S, x0[i], t, e).tobytes()
        assert anchors[i] == rng.integers(1 << 62)


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
    block_logits, block_centers = kernel_logits(retain, xt, ts, S, K)
    for i in range(len(xt)):
        logits, centers = kernel_logits(retain, xt[i], int(ts[i]), S)
        keep = np.argsort(squared_distances(retain, xt[i], int(ts[i])), kind="stable")[:K]
        row_logits, row_centers = kernel_logits(retain, xt[i], int(ts[i]), S, K)
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
        _, centers = kernel_logits(retain, xt, tt, S, K=2)
        assert centers.reshape(2, 2).tobytes() == (scale * retain[:2]).tobytes()


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
def test_anchor_draws_are_generator_choice(tau, eta_mix):
    """Every seed's style is ``Generator.choice(p=probs)`` on its anchor stream."""
    spec = DatasetSpec(n_groups=4, samples_per_group=5, conditional=True, descriptor_dim=4)
    sel = AnchorSelector.from_dataset(generate_grouped_dataset(spec, seed=3), tau, eta_mix)
    rng = np.random.default_rng(11)
    seeds = np.concatenate([rng.integers(0, 2**32, 500), rng.integers(2**32, 2**62, 500)])
    for k in range(4):
        idx, probs = sel.selection_probs(k)
        ref = idx[[rng_for(int(seed), "anchor").choice(len(idx), p=probs) for seed in seeds]]
        styles, anchors = anchor_select(sel, k, seeds)
        assert styles.tolist() == ref.tolist()
        assert anchors.tobytes() == sel.anchor_condition(k, ref).tobytes()
        assert [anchor_select(sel, k, int(seed))[0] for seed in seeds[::50]] == ref[::50].tolist()
