"""Training and unlearning against per-step reference loops, bit for bit.

``train_full``, ``train_logo`` and ``unlearn`` noise many steps' rows in
one keyed draw, each row under its own step's root, and build retrack's
targets and cond_anchor's anchors once per draw block.  The reference
loops below are the per-step formulation: each step noises its own rows
with ``noise_batch`` under its step's seed (and builds its own targets
or anchors), then makes one call of each objective and one
``optimizer_step`` of its own ``AdamW``.  Because a row's draws depend
only on (root, row content), the two must give the same weights, losses
and noised batches to the last bit.
"""

import math

import numpy as np
import pytest

from groupattr import (
    Architecture,
    DatasetSpec,
    TrainSpec,
    UnlearnSpec,
    anchor_select,
    build_schedule,
    conditional_forget_loss,
    esd_forget_loss,
    generate_grouped_dataset,
    init_network,
    loss_and_grad,
    preservation_loss,
    retrack_forget_loss,
    retrack_target,
    unlearn,
)
from groupattr import denoiser, training, unlearning
from groupattr.denoiser import AdamW, noise_batch, optimizer_step
from groupattr.seeding import derive_seed, rng_for
from groupattr.training import train_full, train_logo
from groupattr.unlearning import _DRAW_BLOCK, AnchorSelector

S = build_schedule(40, "squared_cosine")


def dataset(conditional: bool, samples_per_group: int = 30):
    spec = DatasetSpec(n_groups=3, samples_per_group=samples_per_group, radius=3.0,
                       noise_std=0.3, conditional=conditional, descriptor_dim=4)
    return generate_grouped_dataset(spec, seed=11)


def arch(d, conditional: bool) -> Architecture:
    return Architecture(input_dim=2, hidden_dims=(16, 16), time_embed_dim=4,
                        cond_dim=d.cond_dim if conditional else 0)


def reference_train(d, a, cfg, seed, exclude, exposure, loss_fn):
    """The training loop with one ``noise_batch`` and one ``loss_fn`` call per batch."""
    run = AdamW(init_network(a, derive_seed(seed, "init")), cfg.lr, cfg.weight_decay)
    exposure_rng = rng_for(seed, "exposure")
    steps, epoch_losses = 0, []
    for epoch in range(cfg.epochs):
        if exposure:
            exclude = int(exposure_rng.integers(d.n_groups))
        xs, labels = d.labeled_samples(exclude=exclude)
        perm = rng_for(seed, "shuffle", epoch).permutation(len(xs))
        xs, labels = xs[perm], labels[perm]
        losses = []
        for b in range(math.ceil(len(xs) / cfg.batch_size)):
            rows = slice(b * cfg.batch_size, (b + 1) * cfg.batch_size)
            conds = d.dropout_conditions(labels[rows], a.cond_dim > 0, seed, epoch, b)
            ts, xts, eps, _ = noise_batch(xs[rows], conds, S, derive_seed(seed, "loss", epoch, b),
                                          1, S.num_steps)
            loss, grad = loss_fn(run.params, xts, ts, S.num_steps, conds, eps)
            optimizer_step(run, grad)
            steps += 1
            losses.append(loss)
        epoch_losses.append(float(np.mean(losses)))
    return run.result(), steps, epoch_losses


def recorder():
    """A ``loss_and_grad`` that records the noised batch of every call."""
    seen = []

    def recording(p, xt, ts, num_steps, cond, target, **kwargs):
        seen.append((xt.tobytes(), ts.tobytes(), None if cond is None else cond.tobytes(),
                     target.tobytes()))
        return loss_and_grad(p, xt, ts, num_steps, cond, target, **kwargs)
    return seen, recording


@pytest.mark.parametrize("phase", ["full", "logo"])
@pytest.mark.parametrize("data_cond, model_cond", [(True, True), (True, False),
                                                   (False, False)])
def test_training_matches_per_batch_loop(phase, data_cond, model_cond, monkeypatch):
    d = dataset(data_cond)
    a = arch(d, model_cond)
    # 60 rows per epoch in batches of 16: the last batch has 12 rows.
    cfg = TrainSpec(epochs=3, batch_size=16, lr=3e-3, exposure_matched=True)
    seen, recording = recorder()
    want_seen, want_recording = recorder()
    monkeypatch.setattr(training, "loss_and_grad", recording)
    if phase == "full":
        run = train_full(d, a, cfg, S, 5)
        want = reference_train(d, a, cfg, 5, None, True, want_recording)
    else:
        run = train_logo(d, 1, a, cfg, S, 5)
        want = reference_train(d, a, cfg, 5, 1, False, want_recording)
    params, steps, epoch_losses = want
    assert run.params.weights.tobytes() == params.weights.tobytes()
    assert run.steps == steps == 3 * 4
    assert run.epoch_losses == epoch_losses
    assert seen == want_seen
    assert [len(np.frombuffer(x)) // 2 for x, _, _, _ in seen[:4]] == [16, 16, 16, 12]


def reference_unlearn(p_full, d, k, cfg, seed):
    """The unlearning loop with one forget and one preservation loss call
    per step, each on rows the step noises itself."""
    if cfg.steps_or_epochs == 0:
        return p_full, [], []
    retain_x, retain_lab = d.labeled_samples(exclude=k)
    forget_x = d.groups[k]
    conditional = p_full.arch.cond_dim > 0
    sel = AnchorSelector.from_dataset(d, cfg.tau, cfg.eta_mix)
    run = AdamW(p_full, cfg.lr, weight_decay=0.0)
    params = run.params
    forget_losses, preserve_losses = [], []
    for step in range(cfg.steps_or_epochs):
        rb = rng_for(seed, "retain", step).choice(
            len(retain_x), size=min(cfg.batch_size, len(retain_x)), replace=False)
        fb = rng_for(seed, "forget", step).choice(
            len(forget_x), size=min(cfg.batch_size, len(forget_x)), replace=False)
        retain_cond = d.dropout_conditions(retain_lab[rb], conditional, seed, step)
        forget_cond = np.tile(d.cond_of(k), (len(fb), 1)) if conditional else None
        ts, xts, _, anchor_seeds = noise_batch(
            forget_x[fb], forget_cond, S, derive_seed(seed, "floss", step),
            *cfg.timestep_range, anchor_seeds=cfg.method == "cond_anchor")
        if cfg.method == "retrack":
            lf, gf = retrack_forget_loss(params, xts, ts,
                                         retrack_target(retain_x, xts, ts, cfg.K, S), cfg, S)
        elif cfg.method == "esd":
            lf, gf = esd_forget_loss(params, p_full, xts, ts, forget_cond, cfg, S)
        else:
            lf, gf = conditional_forget_loss(params, p_full, xts, ts, forget_cond,
                                             anchor_select(sel, k, anchor_seeds)[1], S)
        ts, xts, _, _ = noise_batch(retain_x[rb], retain_cond, S,
                                    derive_seed(seed, "ploss", step), 1, S.num_steps)
        lp, gp = preservation_loss(params, p_full, xts, ts, retain_cond, S)
        if cfg.method == "cond_anchor":
            grad = gf + cfg.lambda_pres * gp
        else:
            grad = cfg.lambda_forget * gf + gp
        optimizer_step(run, grad)
        forget_losses.append(lf)
        preserve_losses.append(lp)
    return run.result(), forget_losses, preserve_losses


@pytest.mark.parametrize("method, conditional", [("retrack", True), ("retrack", False),
                                                 ("esd", True), ("cond_anchor", True)])
@pytest.mark.parametrize("steps, batch_size", [
    (_DRAW_BLOCK + 5, 8),    # a partial last block
    (2 * _DRAW_BLOCK, 8),    # whole blocks only
    (3, 40),                 # batches larger than the 30-row forget group
    (0, 8),
])
def test_unlearning_matches_per_step_loop(method, conditional, steps, batch_size):
    d = dataset(True)
    p_full = init_network(arch(d, conditional), 3)
    cfg = UnlearnSpec(method=method, steps_or_epochs=steps, lr=1e-3, K=4, kl_cap=50.0,
                      timestep_range=(3, 35), batch_size=batch_size)
    run = unlearn(p_full, d, 2, cfg, S, 17)
    params, forget_losses, preserve_losses = reference_unlearn(p_full, d, 2, cfg, 17)
    assert run.params.weights.tobytes() == params.weights.tobytes()
    assert run.steps == steps
    assert run.forget_losses == forget_losses
    assert run.preserve_losses == preserve_losses


@pytest.mark.parametrize("which", ["train_full", "train_logo", "retrack", "esd"])
def test_returned_models_are_immutable_and_unaliased(which, monkeypatch):
    """A run updates its own buffers in place and hands out a fresh read-only
    copy: the model shares no memory with any run's buffers, and a second
    identical run, which reuses none of them, gives the same bytes."""
    runs = []

    class RecordingAdamW(denoiser.AdamW):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runs.append(self)

    monkeypatch.setattr(training, "AdamW", RecordingAdamW)
    monkeypatch.setattr(unlearning, "AdamW", RecordingAdamW)
    d = dataset(True)
    a = arch(d, True)
    cfg = TrainSpec(epochs=2, batch_size=16, lr=1e-3)
    p_full = init_network(a, 3)

    def once():
        if which == "train_full":
            return train_full(d, a, cfg, S, 5).params
        if which == "train_logo":
            return train_logo(d, 1, a, cfg, S, 5).params
        ucfg = UnlearnSpec(method=which, steps_or_epochs=_DRAW_BLOCK + 3, lr=1e-3, K=4,
                           timestep_range=(3, 35), batch_size=8)
        return unlearn(p_full, d, 2, ucfg, S, 17).params

    first = once()
    first_bytes = first.weights.tobytes()
    second = once()
    assert len(runs) == 2
    for model in (first, second):
        assert not model.weights.flags.writeable
        buffers = [run._w for run in runs] + [flat for run in runs for flat, _ in run.grads]
        assert not any(np.shares_memory(model.weights, b) for b in buffers)
        assert not np.shares_memory(model.weights, p_full.weights)
    assert second.weights.tobytes() == first.weights.tobytes() == first_bytes
    assert not p_full.weights.flags.writeable
