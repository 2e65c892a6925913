"""Correctness checks on a finished run directory.

Every check reads only the files the pipeline wrote (``dataset.npz``,
``queries.npz``, ``matrices/*.json``, ``reports/*.json``) and works out
its reference figure independently of the package, either by direct
computation or from a property the method must have.  A check returns a
list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Thresholds; the README gives the reason for each.
PROTOTYPE_TOL = 1e-12
TOP1_TOL = 1e-12
STEP_RATIO_TOL = 1e-12
RETRACK_OVER_CHANCE = 3.0  # retrack top-1 vs gold must reach 3/N
ORACLE_CONDITION_TOP1 = 0.95


def load_matrix(run: Path, method: str) -> np.ndarray:
    doc = json.loads((run / "matrices" / f"{method}.json").read_text())
    return np.asarray(doc["scores"], dtype=np.float64)


def load_dataset(run: Path) -> list[np.ndarray]:
    with np.load(run / "dataset.npz", allow_pickle=False) as z:
        n = len(z["group_names"])
        return [np.asarray(z[f"group_{k}"], dtype=np.float64) for k in range(n)]


def load_queries(run: Path) -> np.ndarray:
    with np.load(run / "queries.npz", allow_pickle=False) as z:
        return np.asarray(z["x0"], dtype=np.float64)


def top1(pred: np.ndarray, gold: np.ndarray) -> float:
    """Share of rows whose argmax agrees; ties go to the lower index."""
    return float(np.mean(np.argmax(pred, axis=1) == np.argmax(gold, axis=1)))


def nearest_group(run: Path) -> np.ndarray:
    means = np.stack([g.mean(axis=0) for g in load_dataset(run)])
    x = load_queries(run)
    d2 = ((x[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)


def check_prototype(run: Path) -> list[str]:
    """The prototype matrix is the cosine similarity to group means."""
    means = np.stack([g.mean(axis=0) for g in load_dataset(run)])
    x = load_queries(run)
    expected = (x @ means.T) / np.outer(np.linalg.norm(x, axis=1), np.linalg.norm(means, axis=1))
    got = load_matrix(run, "prototype")
    if got.shape != expected.shape:
        return [f"prototype: shape {got.shape} != {expected.shape}"]
    err = float(np.max(np.abs(got - expected))) if got.size else 0.0
    return [] if err <= PROTOTYPE_TOL else [f"prototype: max deviation {err:.3e} from cosine"]


def check_reported_top1(run: Path) -> list[str]:
    """Every rank report's top1 equals a recount from the matrix files."""
    failures = []
    paths = sorted((run / "reports").glob("rank_*_vs_*.json"))
    if not paths:
        return ["top1: no rank reports written"]
    for path in paths:
        doc = json.loads(path.read_text())
        recount = top1(load_matrix(run, doc["method"]), load_matrix(run, doc["gold"]))
        if abs(doc["top1"] - recount) > TOP1_TOL:
            failures.append(f"top1: {path.name} reports {doc['top1']!r}, recount {recount!r}")
    return failures


def expected_step_ratio(cfg, logo_trained: bool) -> dict[str, float]:
    """LOGO steps over unlearning steps, per unlearning method, from the config.

    A LOGO model runs ``epochs * ceil(retained samples / batch)`` steps;
    an unlearning run takes ``steps_or_epochs`` steps per group.
    """
    ds, tr = cfg.dataset, cfg.train
    retained = (ds.n_groups - 1) * ds.samples_per_group
    logo_steps = ds.n_groups * tr.epochs * math.ceil(retained / tr.batch_size) if logo_trained else 0
    return {u.method: logo_steps / (ds.n_groups * u.steps_or_epochs) for u in cfg.unlearn_methods}


def check_step_ratio(run: Path, expected: dict[str, float]) -> list[str]:
    methods = json.loads((run / "reports" / "timing.json").read_text())["methods"]
    failures = []
    for method, ratio in expected.items():
        got = methods.get(method, {}).get("logo_step_ratio")
        if got is None or abs(got - ratio) > STEP_RATIO_TOL:
            failures.append(f"logo_step_ratio: {method} reports {got!r}, config gives {ratio!r}")
    return failures


def check_group_columns(run: Path, methods: list[str]) -> list[str]:
    """Queries nearest to group k score highest, on average, in column k."""
    labels = nearest_group(run)
    failures = []
    for method in methods:
        scores = load_matrix(run, method)
        for k in np.unique(labels):
            best = int(np.argmax(scores[labels == k].mean(axis=0)))
            if best != k:
                failures.append(f"group columns: {method} queries nearest group {k} "
                                f"score highest in column {best}")
    return failures


def check_retrack_above_chance(run: Path, gold: str) -> list[str]:
    scores = load_matrix(run, "retrack")
    floor = RETRACK_OVER_CHANCE / scores.shape[1]
    agree = top1(scores, load_matrix(run, gold))
    return [] if agree >= floor else [f"retrack top1 vs {gold} {agree:.3f} < {floor:.3f}"]


def check_oracle_follows_condition(run: Path) -> list[str]:
    """Group-conditioned queries are attributed to their condition group."""
    scores = load_matrix(run, "oracle")
    n = scores.shape[1]
    agree = float(np.mean(np.argmax(scores, axis=1) == np.arange(len(scores)) % n))
    if agree < ORACLE_CONDITION_TOP1:
        return [f"oracle top1 vs condition group {agree:.3f} < {ORACLE_CONDITION_TOP1}"]
    return []


def check_no_logo(run: Path) -> list[str]:
    found = sorted(p.name for p in (run / "keys").glob("train_logo_*"))
    found += sorted(p.name for p in (run / "checkpoints").glob("logo_*"))
    return [f"LOGO artifacts written: {found}"] if found else []


def digests(run: Path) -> dict[str, str]:
    """sha256 of every matrix and checkpoint file of a run directory."""
    files = sorted((run / "matrices").glob("*")) + sorted((run / "checkpoints").glob("*.ckpt"))
    return {f"{p.parent.name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
            for p in files}


def file_states(run: Path) -> dict[str, tuple[str, int]]:
    """(sha256, mtime_ns) of every checkpoint file."""
    return {p.name: (hashlib.sha256(p.read_bytes()).hexdigest(), p.stat().st_mtime_ns)
            for p in sorted((run / "checkpoints").glob("*.ckpt"))}


def check_same_files(label: str, reference: dict, current: dict) -> list[str]:
    if reference == current:
        return []
    changed = sorted(k for k in reference.keys() | current.keys()
                     if reference.get(k) != current.get(k))
    return [f"{label}: {changed}"]
