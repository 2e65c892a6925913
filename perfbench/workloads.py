"""The workloads: their configurations, set-up, and one timed round each.

Every round makes the same fixed list of pipeline phase calls
(``Pipeline.ensure_*``), times each call from outside, and returns a
``Round`` record.  The package is always reached through
``sys.modules`` at call time, so the tracer's wrappers apply when they
are installed.
"""

from __future__ import annotations

import importlib
import math
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks

# Desk scale: default_experiment_config with the training, unlearning
# and query budgets cut to 1/10, 1/10 and 1/2.  LOGO steps over
# unlearning steps stay at the default's 7000/2000.  With 64 queries the
# LOGO group-column check failed on 1 of 20 seeds; 128 hold it.
DESK_EPOCHS = 20
DESK_UNLEARN_STEPS = 40
DESK_QUERIES = 128

# Re-query: the desk's architecture, T and ELBO grid with twice its
# query count (the default's 256), scored against checkpoints built in
# set-up.  The query path's cost does not depend on how long the models
# trained.
REQUERY_QUERIES = 2 * DESK_QUERIES
REQUERY_EPOCHS = 10
REQUERY_UNLEARN_STEPS = 20

# Many groups: ten groups, unlearning only, group-conditioned queries.
# At lr 3e-3 the full model's conditional samples follow their group
# after 80 epochs; at the default lr 1e-3 that takes about 200.
MANY_GROUPS = 10
MANY_SAMPLES_PER_GROUP = 100
MANY_EPOCHS = 80
MANY_LR = 3e-3
MANY_UNLEARN_STEPS = 30
MANY_QUERIES = 80

SETUP_REPEATS = 3

# Calibration: one block takes about CAL_REF_S on this host when it is quiet.
CAL_ITERS = 60
CAL_STEPS = 1000
CAL_REF_S = 0.020
_CAL_W = np.random.default_rng(0).standard_normal((128, 128)) / 11.3

QUERY_OUTPUTS = ("queries.npz", "keys/queries.json", "matrices/*", "keys/matrix_*",
                 "reports/*")


def harness():
    return sys.modules["groupattr.harness"]


def import_package() -> None:
    """(Re-)import every groupattr module from source."""
    for name in [m for m in sys.modules if m == "groupattr" or m.startswith("groupattr.")]:
        del sys.modules[name]
    importlib.import_module("groupattr")
    importlib.import_module("groupattr.cli")


def _budget(cfg, epochs: int, unlearn_steps: int, queries: int):
    return replace(
        cfg,
        train=replace(cfg.train, epochs=epochs),
        unlearn_methods=tuple(replace(u, steps_or_epochs=unlearn_steps)
                              for u in cfg.unlearn_methods),
        queries=replace(cfg.queries, count=queries),
    )


def desk_config(seed: int):
    return _budget(harness().default_experiment_config(seed),
                   DESK_EPOCHS, DESK_UNLEARN_STEPS, DESK_QUERIES)


def requery_config(seed: int):
    return _budget(harness().default_experiment_config(seed),
                   REQUERY_EPOCHS, REQUERY_UNLEARN_STEPS, REQUERY_QUERIES)


def many_groups_config(seed: int):
    H = harness()
    desk = H.default_experiment_config(seed)
    retrack = replace(desk.unlearn_methods[0], steps_or_epochs=MANY_UNLEARN_STEPS)
    cond_anchor = H.UnlearnSpec(method="cond_anchor", steps_or_epochs=MANY_UNLEARN_STEPS,
                                lr=1e-4, lambda_pres=2.0, timestep_range=(1, 100))
    return replace(
        desk,
        dataset=replace(desk.dataset, n_groups=MANY_GROUPS,
                        samples_per_group=MANY_SAMPLES_PER_GROUP),
        train=replace(desk.train, epochs=MANY_EPOCHS, lr=MANY_LR),
        unlearn_methods=(retrack, cond_anchor),
        queries=replace(desk.queries, count=MANY_QUERIES, cond_mode="group"),
    )


class Clock:
    """Wall time of a call, rescaled to a reference host speed.

    The host's speed drifts by tens of percent over seconds to minutes,
    which a raw wall time cannot tell apart from a change in the
    program.  A fixed calibration block that uses no groupattr code runs
    before and after every timed call; the call's wall time is scaled by
    ``CAL_REF_S`` over the mean of those two blocks.  Raw times are kept
    beside the scaled ones.
    """

    def __init__(self):
        self._last = calibration_block()

    def time(self, fn, *args):
        """(result, raw seconds, scaled seconds, exception or None)."""
        before = self._last
        tic = time.perf_counter()
        try:
            result, error = fn(*args), None
        except Exception as e:  # counted as a failed operation by the caller
            result, error = None, e
        raw = time.perf_counter() - tic
        self._last = calibration_block()
        return result, raw, raw * CAL_REF_S / (0.5 * (before + self._last)), error


def calibration_block() -> float:
    """Seconds taken by a fixed mix of generator set-ups, small numpy calls
    and interpreter-bound scalar steps, the three kinds of work the
    pipeline's hot loops do."""
    tic = time.perf_counter()
    acc = 0.0
    for i in range(CAL_ITERS):
        rng = np.random.default_rng(np.random.SeedSequence([i, 7]))
        acc += float(np.tanh(rng.standard_normal((64, 128)) @ _CAL_W).sum())
    x = np.zeros(2)
    for i in range(CAL_STEPS):
        acc += float(np.clip((x - 0.5 * x) / math.sqrt(1.0 + i), -1.0, 1.0)[0])
        x = np.asarray([acc, 1.0])
    return time.perf_counter() - tic


@dataclass
class Round:
    """Timed phase calls of one round: (name, raw seconds, scaled seconds)."""

    clock: Clock
    ops: list[tuple[str, float, float]] = field(default_factory=list)
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def op(self, name: str, fn, *args):
        result, raw, scaled, error = self.clock.time(fn, *args)
        self.ops.append((name, raw, scaled))
        if error is not None:
            self.failed += 1
            traceback.print_exception(error, file=sys.stderr)
        return result

    def seconds(self, prefix: str) -> list[float]:
        return [s for name, _, s in self.ops if name == prefix or name.startswith(prefix + ".")]

    @property
    def run_s(self) -> float:
        return sum(s for _, _, s in self.ops)

    @property
    def raw_s(self) -> float:
        return sum(r for _, r, _ in self.ops)


def build_models(p, cfg, rec: Round, logo: bool) -> None:
    n = cfg.dataset.n_groups
    rec.op("dataset", p.ensure_dataset)
    rec.op("train_full", p.ensure_train_full)
    if logo:
        for k in range(n):
            rec.op("train_logo", p.ensure_train_logo, k)
    for spec in cfg.unlearn_methods:
        for k in range(n):
            rec.op(f"unlearn.{spec.method}", p.ensure_unlearn, spec.method, k)


def query_phase(p, methods: list[str], rec: Round) -> None:
    rec.op("queries", p.ensure_queries)
    for method in methods:
        kind = "oracle" if method == "oracle" else "prototype" if method == "prototype" \
            else "network"
        rec.op(f"matrix.{kind}.{method}", p.ensure_matrix, method)


def write_rank_reports(p, methods: list[str], gold: str) -> None:
    """Rank reports against ``gold`` for the listed methods only.

    ``Pipeline.ensure_reports`` scores every method of ``method_names``,
    which includes LOGO, so a study without LOGO writes its own.
    """
    import json

    rank_report = sys.modules["groupattr.metrics"].rank_report
    gold_mat = p.ensure_matrix(gold)
    for method in methods:
        rep = rank_report(p.ensure_matrix(method), gold_mat)
        doc = {"method": method, "gold": gold, **rep.to_dict(), "provenance": p.provenance()}
        path = p.out / "reports" / f"rank_{method}_vs_{gold}.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=1))


class Workload:
    """Base: set-up, timed rounds, checks.  Subclasses fill in the plan."""

    name = ""
    min_rounds = 1

    def __init__(self, seed: int, out: Path, clock: Clock):
        self.seed = seed
        self.out = out
        self.clock = clock
        self.setup_times: list[float] = []
        self.setup_rounds: list[Round] = []
        self.cfg = None

    def setup(self) -> None:
        for _ in range(SETUP_REPEATS):
            self.setup_times.append(self.setup_once())

    def setup_once(self) -> float:
        """Import the package and build the config; returns scaled seconds."""
        _, _, scaled, error = self.clock.time(import_package)
        if error is not None:
            raise error
        self.cfg = self.config(self.seed)
        return scaled

    def run_dir(self, i: int) -> Path:
        return self.out / f"round{i}"

    def fresh_dir(self, i: int) -> Path:
        if i > 0:
            shutil.rmtree(self.run_dir(i - 1), ignore_errors=True)
        path = self.run_dir(i)
        shutil.rmtree(path, ignore_errors=True)
        return path

    def round(self, i: int) -> Round:
        raise NotImplementedError

    def check(self, i: int, rec: Round) -> list[str]:
        raise NotImplementedError

    def queries(self) -> int:
        return self.cfg.queries.count


class Desk(Workload):
    """Cold desk-scale study: full, LOGO, retrack and esd, all matrices."""

    name = "desk"
    config = staticmethod(desk_config)

    def round(self, i: int) -> Round:
        rec = Round(self.clock)
        p = rec.op("pipeline", harness().Pipeline, self.cfg, self.fresh_dir(i))
        build_models(p, self.cfg, rec, logo=True)
        query_phase(p, p.method_names(), rec)
        rec.op("reports", p.ensure_reports, "logoa")
        rec.op("timing", p.ensure_timing)
        return rec

    def check(self, i: int, rec: Round) -> list[str]:
        run = self.run_dir(i)
        return (checks.check_prototype(run) + checks.check_reported_top1(run)
                + checks.check_step_ratio(run, checks.expected_step_ratio(self.cfg, True))
                + checks.check_group_columns(run, ["logoa", "oracle"])
                + checks.check_retrack_above_chance(run, "logoa"))


class Requery(Desk):
    """Warm re-query: set-up trains once, rounds re-score from the cache."""

    name = "requery"
    config = staticmethod(requery_config)
    min_rounds = 2

    def setup_once(self) -> float:
        imported = super().setup_once()
        rec = Round(self.clock)
        run = self.out / f"cache{len(self.setup_rounds)}"
        shutil.rmtree(run, ignore_errors=True)
        build_models(rec.op("pipeline", harness().Pipeline, self.cfg, run), self.cfg, rec,
                     logo=True)
        if rec.failed:
            raise RuntimeError("building the cached study failed")
        self.setup_rounds.append(rec)
        for old in self.out.glob("cache*"):
            if old != run:
                shutil.rmtree(old, ignore_errors=True)
        self.cache = run
        self.cache_state = checks.file_states(run)
        return imported + rec.run_s

    def run_dir(self, i: int) -> Path:
        return self.cache

    def round(self, i: int) -> Round:
        for pattern in QUERY_OUTPUTS:
            for path in self.cache.glob(pattern):
                path.unlink()
        rec = Round(self.clock)
        p = rec.op("pipeline", harness().Pipeline, self.cfg, self.cache)
        query_phase(p, p.method_names(), rec)
        rec.op("reports", p.ensure_reports, "logoa")
        rec.op("timing", p.ensure_timing)
        return rec

    def check(self, i: int, rec: Round) -> list[str]:
        failures = super().check(i, rec)
        failures += checks.check_same_files("checkpoint rewritten", self.cache_state,
                                            checks.file_states(self.cache))
        return failures


class ManyGroups(Workload):
    """Ten groups, retrack and cond_anchor unlearning, oracle as gold."""

    name = "many-groups"
    config = staticmethod(many_groups_config)
    methods = ["retrack", "cond_anchor", "prototype", "oracle"]

    def round(self, i: int) -> Round:
        rec = Round(self.clock)
        p = rec.op("pipeline", harness().Pipeline, self.cfg, self.fresh_dir(i))
        build_models(p, self.cfg, rec, logo=False)
        query_phase(p, self.methods, rec)
        rec.op("reports", write_rank_reports, p, self.methods, "oracle")
        rec.op("timing", p.ensure_timing)
        return rec

    def check(self, i: int, rec: Round) -> list[str]:
        run = self.run_dir(i)
        return (checks.check_prototype(run) + checks.check_reported_top1(run)
                + checks.check_step_ratio(run, checks.expected_step_ratio(self.cfg, False))
                + checks.check_group_columns(run, ["oracle"])
                + checks.check_retrack_above_chance(run, "oracle")
                + checks.check_oracle_follows_condition(run)
                + checks.check_no_logo(run))


WORKLOADS = {w.name: w for w in (Desk, Requery, ManyGroups)}
