"""Every training and unlearning objective on noised (x0, cond) blocks.

Each objective is drawn as the loops draw it: ``noise_batch`` noises the
block (with ``retrack_target`` or ``anchor_select`` where the objective
needs them), and the objective scores the noised rows.  Each row draws
its timestep and noise from a stream keyed by its own content, so a
B-row block must score as the mean of its B one-row blocks, and the
order of the rows must not matter.  A block row may differ from its
one-row block only by BLAS rounding.  An empty block of noised rows is
refused by every objective.
"""

from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupattr import DatasetSpec, generate_grouped_dataset, init_network, loss_and_grad
from groupattr.denoiser import noise_batch

from test_unlearning import BATCH_LOSSES, COND_ARCH, S, batch_loss


def _training_rows(x0, cond, d):
    ts, xts, eps, _ = noise_batch(x0, cond, S, 9, 1, S.num_steps)
    return xts, ts, cond, eps


OBJECTIVES = {
    "training": (_training_rows, lambda p, frozen, xts, ts, cond, eps: loss_and_grad(
        p, xts, ts, S.num_steps, cond, eps)),
    **BATCH_LOSSES,
}


@cache
def dataset():
    spec = DatasetSpec(n_groups=3, samples_per_group=12, radius=3.0, noise_std=0.3,
                       conditional=True, descriptor_dim=4)
    return generate_grouped_dataset(spec, seed=6)


@cache
def models():
    return init_network(COND_ARCH, seed=7), init_network(COND_ARCH, seed=6)


def random_block(seed, b):
    """b rows near the data with a group or null condition on each row."""
    d = dataset()
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=(b, 2)) * 3.0
    conds = np.vstack([*d.cond_vectors, np.zeros(d.cond_dim)])
    return x0, conds[rng.integers(0, len(conds), size=b)]


def run(name, x0, cond):
    p, frozen = models()
    return batch_loss(OBJECTIVES, name, p, frozen, x0, cond, dataset())


def rel_err(got, want):
    return np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("name", sorted(OBJECTIVES))
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 6), data=st.data())
def test_block_is_mean_of_rows_and_order_free(name, seed, b, data):
    x0, cond = random_block(seed, b)
    loss, grad = run(name, x0, cond)
    rows = [run(name, x0[i:i + 1], cond[i:i + 1]) for i in range(b)]
    assert rel_err(loss, np.mean([lr for lr, _ in rows])) <= 1e-12
    assert rel_err(grad, np.mean([gr for _, gr in rows], axis=0)) <= 1e-12

    perm = data.draw(st.permutations(range(b)))
    permuted, _ = run(name, x0[perm], cond[perm])
    assert rel_err(permuted, loss) <= 1e-12


@pytest.mark.parametrize("name", sorted(OBJECTIVES))
def test_empty_block_rejected(name):
    """No noised rows: each row argument of a one-row draw, cut to zero rows."""
    rows, loss = OBJECTIVES[name]
    empty = [a[:0] for a in rows(*random_block(0, 1), dataset())]
    p, frozen = models()
    with pytest.raises(ValueError, match="non-empty"):
        loss(p, frozen, *empty)
