"""Each correctness check passes on a valid output and fails on a perturbed
one, and the tracer tells cache hits from misses.

Run from the root of the repository:

    python3 -m pytest -q perfbench/selftest.py

The studies here are seconds-scale.  Checks whose pass condition needs
well-trained models (group columns, retrack over chance, oracle versus
condition) are exercised on matrices written with a known answer.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from groupattr import harness as H  # noqa: E402


def tiny_config(**queries):
    return H.ExperimentConfig(
        dataset=H.DatasetSpec(n_groups=3, samples_per_group=30, dim=2, radius=5.0,
                              noise_std=0.3, conditional=True, descriptor_dim=4),
        schedule=H.ScheduleSpec(num_steps=20),
        arch=H.ArchSpec(hidden_dims=(16, 16), time_embed_dim=4),
        train=H.TrainSpec(epochs=3, batch_size=16),
        unlearn_methods=(
            H.UnlearnSpec(method="retrack", steps_or_epochs=3, lr=1e-4, kl_cap=100.0,
                          timestep_range=(1, 20), batch_size=8),
            H.UnlearnSpec(method="esd", steps_or_epochs=3, lr=3e-4, lambda_forget=0.3,
                          timestep_range=(1, 20), batch_size=8),
        ),
        queries=H.QuerySpec(count=9, clip_x0=8.0, **queries),
        elbo=H.ElboSpec(stride=5),
        master_seed=3,
    )


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    """A tiny LOGO + unlearning study, as the desk and requery workloads run it."""
    out = tmp_path_factory.mktemp("study")
    cfg = tiny_config()
    H.run_experiment(cfg, out)
    return cfg, out


@pytest.fixture
def run(study, tmp_path):
    """A private copy of the study that a test may perturb."""
    cfg, src = study
    dst = tmp_path / "run"
    shutil.copytree(src, dst)
    return cfg, dst


def write_matrix(run: Path, method: str, scores: np.ndarray) -> None:
    path = run / "matrices" / f"{method}.json"
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc["scores"] = np.asarray(scores).tolist()
    path.write_text(json.dumps(doc))


def edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def test_prototype_matches_cosine_and_catches_a_1e9_change(run):
    _, run = run
    assert checks.check_prototype(run) == []
    scores = checks.load_matrix(run, "prototype")
    scores[4, 1] += 1e-9
    write_matrix(run, "prototype", scores)
    assert checks.check_prototype(run)


def test_reported_top1_matches_recount_and_catches_one_query(run):
    _, run = run
    assert checks.check_reported_top1(run) == []
    edit_json(run / "reports" / "rank_esd_vs_logoa.json",
              lambda d: d.update(top1=d["top1"] + 1.0 / 9))
    assert checks.check_reported_top1(run)


def test_step_ratio_matches_config_and_catches_a_changed_budget(run):
    cfg, run = run
    expected = checks.expected_step_ratio(cfg, logo_trained=True)
    # 3 epochs x ceil(60 / 16) steps x 3 groups over 3 steps x 3 groups.
    assert expected == {"retrack": 4.0, "esd": 4.0}
    assert checks.check_step_ratio(run, expected) == []
    assert checks.check_step_ratio(run, checks.expected_step_ratio(cfg, logo_trained=False))
    edit_json(run / "reports" / "timing.json",
              lambda d: d["methods"]["retrack"].update(logo_step_ratio=4.5))
    assert checks.check_step_ratio(run, expected)


def test_group_columns_pass_on_distance_scores_and_fail_when_rolled(run):
    _, run = run
    means = np.stack([g.mean(axis=0) for g in checks.load_dataset(run)])
    x = checks.load_queries(run)
    closeness = -np.linalg.norm(x[:, None, :] - means[None, :, :], axis=2)
    write_matrix(run, "logoa", closeness)
    assert checks.check_group_columns(run, ["logoa"]) == []
    write_matrix(run, "logoa", np.roll(closeness, 1, axis=1))
    assert checks.check_group_columns(run, ["logoa"])


def test_retrack_over_chance_passes_on_gold_and_fails_when_rolled(run):
    _, run = run
    gold = checks.load_matrix(run, "logoa")
    write_matrix(run, "retrack", gold)
    assert checks.check_retrack_above_chance(run, "logoa") == []
    write_matrix(run, "retrack", np.roll(gold, 1, axis=1))
    assert checks.check_retrack_above_chance(run, "logoa")


def test_round_digests_catch_one_changed_matrix_byte(run):
    _, run = run
    reference = checks.digests(run)
    assert set(reference) >= {"matrices/logoa.json", "checkpoints/full.ckpt"}
    assert checks.check_same_files("digest", reference, checks.digests(run)) == []
    path = run / "matrices" / "esd.csv"
    raw = bytearray(path.read_bytes())
    raw[-2] = ord("0") if raw[-2] != ord("0") else ord("1")
    path.write_bytes(bytes(raw))
    assert checks.check_same_files("digest", reference, checks.digests(run))


def test_checkpoint_state_catches_a_same_bytes_rewrite(run):
    _, run = run
    before = checks.file_states(run)
    assert checks.check_same_files("ckpt", before, checks.file_states(run)) == []
    path = run / "checkpoints" / "unlearn_retrack_1.ckpt"
    data = path.read_bytes()
    os.utime(path, ns=(0, 0))
    path.write_bytes(data)
    assert checks.check_same_files("ckpt", before, checks.file_states(run))


@pytest.fixture(scope="module")
def unlearning_only(tmp_path_factory):
    """A tiny unlearning-only study with group-conditioned queries."""
    out = tmp_path_factory.mktemp("many")
    base = tiny_config(cond_mode="group")
    anchor = H.UnlearnSpec(method="cond_anchor", steps_or_epochs=3, lr=1e-4,
                           timestep_range=(1, 20), batch_size=8)
    cfg = replace(base, unlearn_methods=(base.unlearn_methods[0], anchor))
    p = H.Pipeline(cfg, out)
    for spec in cfg.unlearn_methods:
        for k in range(cfg.dataset.n_groups):
            p.ensure_unlearn(spec.method, k)
    for method in ("retrack", "cond_anchor", "prototype", "oracle"):
        p.ensure_matrix(method)
    p.ensure_timing()
    return cfg, out


def test_no_logo_passes_without_logo_and_fails_on_a_logo_key(unlearning_only, tmp_path):
    cfg, src = unlearning_only
    run = tmp_path / "run"
    shutil.copytree(src, run)
    assert checks.check_no_logo(run) == []
    assert checks.check_step_ratio(run, checks.expected_step_ratio(cfg, False)) == []
    (run / "keys" / "train_logo_0.json").write_text("{}")
    assert checks.check_no_logo(run)


def test_oracle_condition_passes_on_condition_scores_and_fails_when_rolled(
        unlearning_only, tmp_path):
    _, src = unlearning_only
    run = tmp_path / "run"
    shutil.copytree(src, run)
    q, n = checks.load_matrix(run, "oracle").shape
    onehot = np.eye(n)[np.arange(q) % n]
    write_matrix(run, "oracle", onehot)
    assert checks.check_oracle_follows_condition(run) == []
    write_matrix(run, "oracle", np.roll(onehot, 1, axis=1))
    assert checks.check_oracle_follows_condition(run)


def test_tracer_counts_phase_misses_then_hits(tmp_path):
    """A cold pass misses every cached phase once; a warm pass only hits."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    cfg = tiny_config()
    cold = H.Pipeline(cfg, tmp_path)
    cold.ensure_matrix("retrack")
    # dataset, full model, 3 unlearned groups, queries, the matrix
    assert tracer.phase_misses == 7
    assert tracer.calls("unlearning.unlearn") == 3
    assert tracer.calls("denoiser.optimizer_step", "unlearning.") == 9
    misses, hits = tracer.phase_misses, tracer.phase_hits
    H.Pipeline(cfg, tmp_path).ensure_matrix("retrack")
    assert tracer.phase_misses == misses and tracer.phase_hits > hits
    assert all(span["self_s"] <= span["end"] - span["start"] for span in tracer.spans)
    assert {s["name"] for s in tracer.spans if s["parent"] is None} == {"harness.ensure_matrix"}
