"""Training and unlearning against per-step reference loops, bit for bit.

``train_full``, ``train_logo`` and ``unlearn`` noise many steps' rows in
one keyed draw, each row under its own step's root.  The reference loops
below are the per-step formulation: one public loss call (which draws
its own noise) and one ``optimizer_step`` of their own ``AdamW`` per
step.  Because a row's draws depend only on (root, row content), the two
must give the same weights, losses and batches to the last bit.
"""

import math

import numpy as np
import pytest

from groupattr import (
    Architecture,
    DatasetSpec,
    TrainSpec,
    UnlearnSpec,
    build_schedule,
    conditional_forget_loss,
    esd_forget_loss,
    generate_grouped_dataset,
    init_network,
    loss_and_grad,
    preservation_loss,
    retrack_forget_loss,
    unlearn,
)
from groupattr import denoiser, training, unlearning
from groupattr.denoiser import AdamW, optimizer_step
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


def reference_train(d, a, cfg, seed, exclude, exposure, hook):
    """The training loop with one ``loss_and_grad`` call per batch."""
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
            hook(epoch, xs[rows], conds)
            loss, grad = loss_and_grad(run.params, xs[rows], conds, S,
                                       derive_seed(seed, "loss", epoch, b))
            optimizer_step(run, grad)
            steps += 1
            losses.append(loss)
        epoch_losses.append(float(np.mean(losses)))
    return run.result(), steps, epoch_losses


def recorder():
    seen = []

    def hook(epoch, xs, conds):
        seen.append((epoch, xs.tobytes(), None if conds is None else conds.tobytes()))
    return seen, hook


@pytest.mark.parametrize("phase", ["full", "logo"])
@pytest.mark.parametrize("data_cond, model_cond", [(True, True), (True, False),
                                                   (False, False)])
def test_training_matches_per_batch_loop(phase, data_cond, model_cond):
    d = dataset(data_cond)
    a = arch(d, model_cond)
    # 60 rows per epoch in batches of 16: the last batch has 12 rows.
    cfg = TrainSpec(epochs=3, batch_size=16, lr=3e-3, exposure_matched=True)
    seen, hook = recorder()
    want_seen, want_hook = recorder()
    if phase == "full":
        run = train_full(d, a, cfg, S, 5, batch_hook=hook)
        want = reference_train(d, a, cfg, 5, None, True, want_hook)
    else:
        run = train_logo(d, 1, a, cfg, S, 5, batch_hook=hook)
        want = reference_train(d, a, cfg, 5, 1, False, want_hook)
    params, steps, epoch_losses = want
    assert run.params.weights.tobytes() == params.weights.tobytes()
    assert run.steps == steps == 3 * 4
    assert run.epoch_losses == epoch_losses
    assert seen == want_seen
    assert [len(np.frombuffer(x)) // 2 for _, x, _ in seen[:4]] == [16, 16, 16, 12]


def reference_unlearn(p_full, d, k, cfg, seed):
    """The unlearning loop with one public forget and one preservation
    loss call per step."""
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
        fseed = derive_seed(seed, "floss", step)
        if cfg.method == "retrack":
            lf, gf = retrack_forget_loss(params, forget_x[fb], forget_cond, retain_x, cfg, S,
                                         fseed)
        elif cfg.method == "esd":
            lf, gf = esd_forget_loss(params, p_full, forget_x[fb], forget_cond, cfg, S, fseed)
        else:
            lf, gf = conditional_forget_loss(params, p_full, forget_x[fb], forget_cond, k, sel,
                                             cfg, S, fseed)
        lp, gp = preservation_loss(params, p_full, retain_x[rb], retain_cond, S,
                                   derive_seed(seed, "ploss", step))
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
