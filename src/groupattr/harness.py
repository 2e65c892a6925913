"""Experiment orchestration: data, training, unlearning, scoring, reports.

A run directory is populated phase by phase.  Every ``Pipeline.ensure_*``
phase runs through ``Pipeline._phase``: it serves the phase's artifact
when the phase's key record vouches for it, and otherwise builds every
file of the phase (a checkpoint also gets a run log) and writes a new
key record: the hash of the phase-relevant configuration chain, the
provenance, wall-clock seconds, step counts and the run's settings.  It
is the phase's only metadata: artifacts carry data only.

The key rule: a key record is deleted before its phase builds, written
only once every file of the phase is complete, and vouches only while
every one of those files exists, so a key never vouches for a missing
or torn artifact; an interrupted build is redone.  A record counts, for
serving and for the timing, only while it holds its phase's current key,
so records left by another config in the same directory are ignored.

Every artifact is written to a temp file beside it and swapped in with
``os.replace``, so an interrupted write leaves the previous artifact
whole.  Checkpoints, the dataset and the queries are read back from
their files after a build (a checkpoint's read-back applies the float32
projection); a matrix is served as built, since the ``repr`` its files
hold of each score reads back to the same float.  A ``Pipeline`` keeps
each artifact it served and serves it again while the key record still
vouches for it, so a checkpoint is read once.  It computes each phase
key, and the config hash, once: the config is frozen.  The key records
themselves are read on every call.  Every JSON file is the text of
``json.dumps(doc, sort_keys=True, indent=1)``.

Phases build their dependencies on demand, so a matrix trains or unlearns
exactly the models it scores and the outputs do not depend on the order
phases are requested in.  The query phase samples every query as one
block.  The ``Pipeline`` derives the ELBO noise seeds once, forms the
query set's ``ElboGrid`` (noise, x_t and true posterior at every grid
point) once, and scores the full network model on it once; every matrix
of the set shares them, and ``attribution_matrix`` scores its
counterfactuals on that grid.  Deleting only the query-phase outputs
re-scores against cached counterfactual checkpoints without retraining.

All model scoring goes through checkpoint files (float32), so fresh and
cache-resumed runs produce byte-identical numeric outputs.

Randomness derives from the master seed through labeled streams
(phase name, group index, query index); the per-row noise inside a
phase is a keyed draw on (phase seed, row content or labels), so it
does not depend on batch order.  See ``seeding``.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import itertools
import json
import os
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__ as _pkg_version
from .attribution import AttributionMatrix, attribution_matrix, prototype_baseline
from .checkpoint import load_checkpoint, save_checkpoint
from .data import DatasetSpec, GroupedDataset, generate_grouped_dataset
from .denoiser import Architecture, forward_batch
from .diffusion import SAMPLERS, Schedule, build_schedule, sample
from .metrics import _METRICS, RankReport, rank_report
from .scoring import ElboGrid, ElboSpec
from .seeding import derive_seed, query_seeds
from .training import KernelDenoiser, TrainSpec, train_full, train_logo
from .unlearning import UnlearnSpec, unlearn

ARTIFACT_VERSION = 1


class PhaseError(RuntimeError):
    """Pipeline failure tagged with the phase that raised it."""

    def __init__(self, phase: str, message: str):
        super().__init__(f"[{phase}] {message}")
        self.phase = phase


@contextmanager
def _tagged(phase: str):
    """Re-raise any untagged failure as a ``PhaseError`` of ``phase``."""
    try:
        yield
    except PhaseError:
        raise
    except Exception as e:
        raise PhaseError(phase, str(e)) from e


@contextmanager
def _replacing(path: Path):
    """Yield a temp path beside ``path`` that replaces ``path`` once the block completes.

    The temp file is written in full before ``os.replace`` swaps it in,
    so an interrupted write leaves the previous ``path`` as it was.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_json(path: Path, doc: dict) -> None:
    with _replacing(path) as tmp:
        tmp.write_text(json.dumps(doc, sort_keys=True, indent=1))


def _write_log(path: Path, header: str, *columns) -> None:
    """Write a run log: ``header``, then one row per step of the row index
    and the ``repr`` of each column's value."""
    with _replacing(path) as tmp, open(tmp, "w") as f:
        f.write(header + "\n")
        for i, row in enumerate(zip(*columns)):
            f.write(",".join(map(repr, (i, *row))) + "\n")


@dataclass(frozen=True)
class ScheduleSpec:
    num_steps: int = 100
    kind: str = "squared_cosine"

    def __post_init__(self):
        build_schedule(self.num_steps, self.kind)


@dataclass(frozen=True)
class ArchSpec:
    hidden_dims: tuple[int, ...] = (128, 128)
    time_embed_dim: int = 8
    activation: str = "silu"

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))
        self.architecture(1)

    def architecture(self, input_dim: int, cond_dim: int = 0) -> Architecture:
        return Architecture(input_dim, self.hidden_dims, self.time_embed_dim, cond_dim,
                            self.activation)


@dataclass(frozen=True)
class QuerySpec:
    count: int = 256
    method: str = "ddpm"
    steps: int | None = None
    cond_mode: str = "null"  # "null" or "group"
    clip_x0: float | None = None

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("query count must be >= 0")
        if self.cond_mode not in ("null", "group"):
            raise ValueError(f"unknown cond_mode {self.cond_mode!r}")
        if self.method not in SAMPLERS:
            raise ValueError(f"unknown sampling method {self.method!r}")
        if self.steps is not None and self.steps < 1:
            raise ValueError(f"query steps must be >= 1 or None (all T), got {self.steps}")
        if self.clip_x0 is not None and not self.clip_x0 > 0.0:
            raise ValueError(f"clip_x0 must be positive or None, got {self.clip_x0}")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    schedule: ScheduleSpec = field(default_factory=ScheduleSpec)
    arch: ArchSpec = field(default_factory=ArchSpec)
    train: TrainSpec = field(default_factory=TrainSpec)
    unlearn_methods: tuple[UnlearnSpec, ...] = ()
    queries: QuerySpec = field(default_factory=QuerySpec)
    elbo: ElboSpec = field(default_factory=ElboSpec)
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "unlearn_methods", tuple(self.unlearn_methods))
        names = [u.method for u in self.unlearn_methods]
        if len(set(names)) != len(names):
            raise ValueError("duplicate unlearning method in config")
        T = self.schedule.num_steps
        if T < 3:
            raise ValueError(f"the ELBO grid is t = 2..T - 1, so T must be >= 3, got T={T}")
        for u in self.unlearn_methods:
            if u.timestep_range is not None and u.timestep_range[1] > T:
                raise ValueError(f"{u.method}: timestep range {u.timestep_range} exceeds T={T}")
        if self.queries.steps is not None and self.queries.steps > T:
            raise ValueError(f"query steps {self.queries.steps} outside [1, T={T}]")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self, path: str | Path) -> None:
        _write_json(Path(path), self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return cls(
            dataset=DatasetSpec(**d["dataset"]),
            schedule=ScheduleSpec(**d["schedule"]),
            arch=ArchSpec(**d["arch"]),
            train=TrainSpec(**d["train"]),
            unlearn_methods=tuple(UnlearnSpec(**u) for u in d["unlearn_methods"]),
            queries=QuerySpec(**d["queries"]),
            elbo=ElboSpec(**d["elbo"]),
            master_seed=int(d["master_seed"]),
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def config_hash(self) -> str:
        return _hash_obj(self.to_dict())


def _hash_obj(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _memoized(key_method):
    """Compute a ``Pipeline``'s phase key (or a counterfactual's phase name
    and key) once per argument tuple: its config is frozen, so a key never
    changes."""

    @functools.wraps(key_method)
    def memoized(self, *args):
        memo = (key_method.__name__, *args)
        if memo not in self._keys:
            self._keys[memo] = key_method(self, *args)
        return self._keys[memo]

    return memoized


def default_experiment_config(master_seed: int = 0, **overrides) -> ExperimentConfig:
    """The desk-scale benchmark: 5 conditional Gaussian groups, trained
    full and leave-one-group-out models, retrack and esd unlearning."""
    cfg = ExperimentConfig(
        dataset=DatasetSpec(n_groups=5, samples_per_group=200, dim=2, radius=5.0,
                            noise_std=0.3, conditional=True),
        schedule=ScheduleSpec(num_steps=100, kind="squared_cosine"),
        arch=ArchSpec(hidden_dims=(128, 128), time_embed_dim=8, activation="silu"),
        train=TrainSpec(epochs=200, batch_size=128, lr=1e-3, exposure_matched=True),
        unlearn_methods=(
            # At desk scale the counterfactual ELBO gap concentrates at
            # low timesteps, so redirection covers the full range and the
            # trust-region cap is calibrated to the 2-D target magnitudes.
            UnlearnSpec(method="retrack", steps_or_epochs=400, lr=1e-4,
                        lambda_forget=0.03, K=10, kl_cap=100.0,
                        timestep_range=(1, 100)),
            UnlearnSpec(method="esd", steps_or_epochs=400, lr=3e-4,
                        lambda_forget=0.3, guidance_weight=5.0,
                        timestep_range=(1, 100)),
        ),
        queries=QuerySpec(count=256, method="ddpm", clip_x0=8.0),
        elbo=ElboSpec(stride=10, samples_per_t=1),
        master_seed=master_seed,
    )
    return replace(cfg, **overrides) if overrides else cfg


class Pipeline:
    """Phase-by-phase executor over one run directory."""

    def __init__(self, cfg: ExperimentConfig, out_dir: str | Path):
        self.cfg = cfg
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        for sub in ("checkpoints", "logs", "matrices", "reports", "keys"):
            (self.out / sub).mkdir(exist_ok=True)
        self._config_written = False  # config.json, by the first build in ``_phase``
        self._schedule: Schedule | None = None
        self._elbo_seeds: list[int] | None = None
        # (query set, its ElboGrid, seconds) and (full model, its ELBO row on
        # that grid, seconds): formed once, shared by every matrix of the set
        self._grid: tuple | None = None
        self._full_elbos: tuple | None = None
        # phase name -> (phase key, served artifact), valid while the key record matches
        self._loaded: dict[str, tuple[str, object]] = {}
        # (key method, its arguments) -> phase key, (phase name, phase key) or config hash
        self._keys: dict[tuple, str | tuple[str, str]] = {}

    # -- provenance ---------------------------------------------------

    def provenance(self) -> dict:
        return {
            "artifact_version": ARTIFACT_VERSION,
            "config_hash": self._config_hash(),
            "master_seed": self.cfg.master_seed,
            "package_version": _pkg_version,
        }

    def _key_path(self, name: str) -> Path:
        return self.out / "keys" / f"{name}.json"

    def _record(self, name: str, phase_key: str) -> dict | None:
        """Key record ``name``, or None unless it holds ``phase_key``."""
        path = self._key_path(name)
        rec = json.loads(path.read_text()) if path.exists() else {}
        return rec if rec.get("phase_key") == phase_key else None

    def _write_key(self, name: str, phase_key: str, **extra) -> None:
        _write_json(self._key_path(name), {"phase_key": phase_key, **self.provenance(), **extra})

    # -- phase keys -----------------------------------------------------

    @_memoized
    def _config_hash(self) -> str:
        return self.cfg.config_hash()

    @_memoized
    def _k_dataset(self) -> str:
        return _hash_obj(["dataset", dataclasses.asdict(self.cfg.dataset), self.cfg.master_seed])

    @_memoized
    def _k_full(self) -> str:
        return _hash_obj(["train_full", self._k_dataset(),
                          dataclasses.asdict(self.cfg.schedule),
                          dataclasses.asdict(self.cfg.arch),
                          dataclasses.asdict(self.cfg.train)])

    @_memoized
    def _cf_phase(self, method: str, k: int) -> tuple[str, str]:
        """The phase name and phase key of group ``k``'s counterfactual model
        under ``method``: ``train_logo_k`` for LOGO, ``unlearn_<method>_k``
        for an unlearning method."""
        if method == "logoa":
            return f"train_logo_{k}", _hash_obj(["train_logo", k, self._k_full()])
        spec = self._unlearn_spec(method)
        return f"unlearn_{method}_{k}", _hash_obj(["unlearn", method, k, self._k_full(),
                                                   spec.read_settings()])

    def _cf_phases(self, method: str) -> list[tuple[str, str]]:
        """``_cf_phase`` of every group; none for the prototype and the
        oracle, which build no model."""
        if method in ("prototype", "oracle"):
            return []
        return [self._cf_phase(method, k) for k in range(self.cfg.dataset.n_groups)]

    @_memoized
    def _k_queries(self) -> str:
        return _hash_obj(["queries", self._k_full(), dataclasses.asdict(self.cfg.queries)])

    @_memoized
    def _k_matrix(self, method: str) -> str:
        # a method that builds no model depends on the dataset directly
        deps = [key for _, key in self._cf_phases(method)] or [self._k_dataset()]
        return _hash_obj(["matrix", method, self._k_queries(),
                          dataclasses.asdict(self.cfg.elbo), *deps])

    # -- shared objects -------------------------------------------------

    def schedule(self) -> Schedule:
        if self._schedule is None:
            self._schedule = build_schedule(self.cfg.schedule.num_steps, self.cfg.schedule.kind)
        return self._schedule

    def _elbo_noise_seeds(self) -> list[int]:
        """Each query's ELBO noise seed, derived once and shared by every matrix."""
        if self._elbo_seeds is None:
            self._elbo_seeds = query_seeds(derive_seed(self.cfg.master_seed, "elbo"),
                                           self.cfg.queries.count)
        return self._elbo_seeds

    def _unlearn_spec(self, method: str) -> UnlearnSpec:
        for spec in self.cfg.unlearn_methods:
            if spec.method == method:
                return spec
        raise PhaseError("unlearn", f"method {method!r} not configured")

    def method_names(self, gold: str = "logoa") -> list[str]:
        """Attribution methods of a study scored against ``gold``.

        LOGO retraining is listed only when it is the gold, so a study
        with another gold never trains a leave-one-group-out model.
        """
        logo = ["logoa"] if gold == "logoa" else []
        return [*logo, *[u.method for u in self.cfg.unlearn_methods], "prototype", "oracle"]

    # -- phases -----------------------------------------------------------

    def _phase(self, name: str, key: str, files: tuple[Path, ...], tag: str, build, load):
        """Serve the phase's artifact, building it first unless key record
        ``name`` vouches for it.

        ``files`` are every file the phase writes; the record vouches only
        while all exist.  ``build`` writes them (each through a temp file
        and ``os.replace``) and returns the extra fields of its key record
        and the artifact to serve as built (a matrix), or None to read
        ``files[0]`` back with ``load`` (checkpoints, whose read-back
        applies the float32 projection, the dataset and the queries).  The
        old record is deleted before the build starts and the new one is
        written only after it returns, so an interrupted build leaves no
        key behind, and the previous artifact intact.  A served artifact is
        kept and served again while the key record still vouches for it; a
        rebuild replaces it.  ``key`` comes from the ``Pipeline``'s memo,
        but the record is read on every call.  The first build writes the
        config as ``config.json``, so a ``Pipeline`` that builds nothing
        leaves the file as it is.  Any failure is re-raised as
        ``PhaseError(tag)``.
        """
        with _tagged(tag):
            built = None
            if self._record(name, key) is not None and all(f.exists() for f in files):
                loaded_key, value = self._loaded.get(name, (None, None))
                if loaded_key == key:
                    return value
            else:
                if not self._config_written:
                    self.cfg.to_json(self.out / "config.json")
                    self._config_written = True
                self._key_path(name).unlink(missing_ok=True)
                record, built = build()
                self._write_key(name, key, **record)
            value = load(files[0]) if built is None else built
            self._loaded[name] = (key, value)
            return value

    def _run_files(self, name: str) -> tuple[Path, Path]:
        """The checkpoint and log of training or unlearning phase ``name``
        (``train_logo_k`` writes ``logo_k.ckpt``)."""
        return (self.out / "checkpoints" / f"{name.removeprefix('train_')}.ckpt",
                self.out / "logs" / f"{name}.csv")

    def _save_run(self, files: tuple[Path, Path], run, log: tuple, **fields) -> tuple[dict, None]:
        """Write a training or unlearning run's log (``log`` is its header and
        columns) and checkpoint; returns its key record fields, and None
        for the checkpoint, which is read back."""
        path, log_path = files
        _write_log(log_path, *log)
        with _replacing(path) as tmp:
            save_checkpoint(tmp, run.params)
        return {"wall_seconds": run.wall_seconds, "steps": run.steps, **fields}, None

    def ensure_dataset(self) -> GroupedDataset:
        path = self.out / "dataset.npz"

        def build():
            tic = time.perf_counter()
            d = generate_grouped_dataset(
                self.cfg.dataset, derive_seed(self.cfg.master_seed, "dataset")
            )
            with _replacing(path) as tmp:
                d.save(tmp)
            return {"wall_seconds": time.perf_counter() - tic}, None

        return self._phase("dataset", self._k_dataset(), (path,), "dataset", build,
                           GroupedDataset.load)

    def ensure_train_full(self):
        d = self.ensure_dataset()
        files = self._run_files("train_full")

        def build():
            run = train_full(d, self.cfg.arch.architecture(d.dim, d.cond_dim), self.cfg.train,
                             self.schedule(), derive_seed(self.cfg.master_seed, "train_full"))
            log = ("epoch,loss,wall_ms", run.epoch_losses, run.epoch_ms)
            return self._save_run(files, run, log, final_loss=(run.epoch_losses or [None])[-1])

        return self._phase("train_full", self._k_full(), files, "train_full", build,
                           load_checkpoint)

    def ensure_train_logo(self, k: int):
        d = self.ensure_dataset()
        name, key = self._cf_phase("logoa", k)
        files = self._run_files(name)

        def build():
            run = train_logo(d, k, self.cfg.arch.architecture(d.dim, d.cond_dim),
                             self.cfg.train, self.schedule(),
                             derive_seed(self.cfg.master_seed, "train_logo"))
            log = ("epoch,loss,wall_ms", run.epoch_losses, run.epoch_ms)
            return self._save_run(files, run, log, group=k)

        return self._phase(name, key, files, "train_logo", build, load_checkpoint)

    def ensure_unlearn(self, method: str, k: int):
        d = self.ensure_dataset()
        spec = self._unlearn_spec(method)
        name, key = self._cf_phase(method, k)
        files = self._run_files(name)

        def build():
            full = self.ensure_train_full()
            seed = derive_seed(self.cfg.master_seed, "unlearn", method, k)
            run = unlearn(full, d, k, spec, self.schedule(), seed)
            log = ("step,forget_loss,preserve_loss", run.forget_losses, run.preserve_losses)
            return self._save_run(files, run, log, group=k, seed=seed,
                                  unlearn_config=dataclasses.asdict(spec))

        return self._phase(name, key, files, "unlearn", build, load_checkpoint)

    def ensure_queries(self) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
        """Generated query samples, their conditions, diagnostic labels."""
        d = self.ensure_dataset()
        path = self.out / "queries.npz"

        def build():
            s = self.schedule()
            full = self.ensure_train_full()
            tic = time.perf_counter()
            qs = self.cfg.queries
            conds = self._query_conditions(d, qs.count)
            x_arr = sample(
                s, lambda xt, t, cond: forward_batch(full, xt, t, s.num_steps, cond),
                seeds=query_seeds(self.cfg.master_seed, qs.count),
                cond=conds, steps=qs.steps, method=qs.method, dim=d.dim,
                clip_x0=qs.clip_x0,
            )
            arrays = {"x0": x_arr, "labels": _nearest_group(x_arr, d)}
            if conds is not None:
                arrays["conds"] = conds
            with _replacing(path) as tmp, open(tmp, "wb") as f:
                np.savez(f, **arrays)  # a file object keeps np.savez from renaming the path
            return {"wall_seconds": time.perf_counter() - tic}, None

        return self._phase("queries", self._k_queries(), (path,), "queries", build,
                           _load_queries)

    def _query_conditions(self, d: GroupedDataset, count: int) -> np.ndarray | None:
        if d.cond_dim == 0:
            return None
        if self.cfg.queries.cond_mode == "group":
            return d.cond_vectors[np.arange(count) % d.n_groups]
        return np.zeros((count, d.cond_dim))

    def ensure_matrix(self, method: str) -> AttributionMatrix:
        if method not in self.method_names():
            raise PhaseError("attribute", f"method {method!r} not configured; the config's "
                                          f"methods are {', '.join(self.method_names())}")
        d = self.ensure_dataset()
        csv_path = self.out / "matrices" / f"{method}.csv"
        json_path = self.out / "matrices" / f"{method}.json"

        def build():
            queries = self.ensure_queries()
            # Models are built (or loaded) before the clock starts: the
            # recorded time is the query cost alone.
            if method == "prototype":
                tic = time.perf_counter()
                mat = prototype_baseline(queries[0], d)
                wall = time.perf_counter() - tic
            else:
                mat, wall = self._elbo_matrix(method, queries, *self._models_for(method, d),
                                              d.group_names)
            with _replacing(csv_path) as tmp:
                mat.to_csv(tmp)
            with _replacing(json_path) as tmp:
                mat.to_json(tmp)
            return {"wall_seconds": wall, "queries": len(queries[0])}, mat

        return self._phase(f"matrix_{method}", self._k_matrix(method), (json_path, csv_path),
                           "attribute", build, AttributionMatrix.from_json)

    def _elbo_matrix(self, method: str, queries: tuple, full, cfs: list,
                     names: list[str]) -> tuple[AttributionMatrix, float]:
        """The ELBO-difference matrix of ``method`` on a loaded query set,
        and the seconds it costs.

        The set's ``ElboGrid`` is formed once, and a network method's full
        model is scored on it once; every matrix of the set shares them.
        Each matrix is charged their seconds besides its own, so its
        recorded time does not depend on the order matrices are built in.
        """
        x0, cond, _ = queries
        seeds = self._elbo_noise_seeds()
        if self._grid is None or self._grid[0] is not queries:
            tic = time.perf_counter()
            grid = ElboGrid(x0, cond, seeds, self.cfg.elbo, self.schedule())
            self._grid = (queries, grid, time.perf_counter() - tic)
            self._full_elbos = None
        _, grid, shared = self._grid
        full_elbos = None
        if method != "oracle":  # the oracle's full kernel shares its blocks with its subsets
            if self._full_elbos is None or self._full_elbos[0] is not full:
                tic = time.perf_counter()
                self._full_elbos = (full, grid.elbos([full])[0], time.perf_counter() - tic)
            _, full_elbos, full_seconds = self._full_elbos
            shared += full_seconds
        tic = time.perf_counter()
        mat = attribution_matrix(x0, cond, full, cfs, self.cfg.elbo, self.schedule(), seeds,
                                 method=method, group_names=names, grid=grid,
                                 full_elbos=full_elbos)
        return mat, shared + time.perf_counter() - tic

    def _models_for(self, method: str, d: GroupedDataset):
        s = self.schedule()
        n = d.n_groups
        if method == "oracle":
            points, labels = d.labeled_samples()
            full = KernelDenoiser(points, s)
            return full, [full.restrict(np.flatnonzero(labels != k)) for k in range(n)]
        full = self.ensure_train_full()
        if method == "logoa":
            cfs = [self.ensure_train_logo(k) for k in range(n)]
        else:
            cfs = [self.ensure_unlearn(method, k) for k in range(n)]
        return full, cfs

    def ensure_reports(self, gold: str = "logoa") -> dict[str, RankReport]:
        with _tagged("evaluate"):
            if self.cfg.queries.count == 0:
                raise ValueError("no queries configured; nothing to evaluate")
            gold_mat = self.ensure_matrix(gold)
            reports = {}
            for method in self.method_names(gold):
                mat = self.ensure_matrix(method)
                rep = rank_report(mat, gold_mat)
                path = self.out / "reports" / f"rank_{method}_vs_{gold}.json"
                _write_json(path, {"method": method, "gold": gold, **rep.to_dict(),
                                   "provenance": self.provenance()})
                reports[method] = rep
            return reports

    def ensure_timing(self) -> "TimingReport":
        """Cost accounting from the key records of this config's phases.

        A phase counts only while its record holds the phase's current key,
        so records of another config in the same directory are ignored.  A
        network method's preprocessing is ``train_full`` plus the phases of
        its per-group counterfactual models; prototype and oracle have none.
        ``t_query_seconds`` is the matrix record's wall time over that
        record's own query count.  Speedups and step ratios are relative to
        LOGO.  When no LOGO model was trained (oracle gold), every
        ``logo_step_ratio`` reads 0.0.  It stays so because
        ``perfbench/checks.py::check_step_ratio`` expects 0.0 on
        ``many-groups``, where LOGO never runs.
        """
        with _tagged("report"):
            methods = self.method_names()
            cf = {m: self._cf_phases(m) for m in methods}
            phases = [("dataset", self._k_dataset()), ("train_full", self._k_full()),
                      ("queries", self._k_queries()),
                      *((f"matrix_{m}", self._k_matrix(m)) for m in methods),
                      *(phase for m in methods for phase in cf[m])]
            records = {name: rec for name, key in phases
                       if (rec := self._record(name, key)) is not None}
            if not records:
                raise ValueError(f"{self.out} has no timing records of this config")
            seconds = {name: float(rec.get("wall_seconds", 0.0)) for name, rec in records.items()}
            steps = {name: int(rec["steps"]) for name, rec in records.items() if "steps" in rec}
            logo_steps = sum(steps.get(name, 0) for name, _ in cf["logoa"])
            entries: dict[str, dict] = {}
            for method in methods:
                if (rec := records.get(f"matrix_{method}")) is None:
                    continue
                cf_steps = sum(steps.get(name, 0) for name, _ in cf[method])
                cf_seconds = sum(seconds.get(name, 0.0) for name, _ in cf[method])
                preproc = seconds.get("train_full", 0.0) + cf_seconds if cf[method] else 0.0
                query_seconds = seconds[f"matrix_{method}"]
                entries[method] = {
                    "preproc_seconds": preproc,
                    "query_seconds": query_seconds,
                    "t_query_seconds": query_seconds / rec["queries"] if rec["queries"] else 0.0,
                    "total_seconds": preproc + query_seconds,
                    "counterfactual_steps": cf_steps,
                }
                if method != "logoa" and cf_steps > 0:
                    entries[method]["logo_step_ratio"] = logo_steps / cf_steps

            if "logoa" in entries:
                logoa_total = entries["logoa"]["total_seconds"]
                for entry in entries.values():
                    if entry["total_seconds"] > 0:
                        entry["speedup_vs_logo"] = logoa_total / entry["total_seconds"]

            rep = TimingReport(seconds, steps, entries, self.cfg.queries.count)
            _write_json(self.out / "reports" / "timing.json",
                        {**rep.to_dict(), "provenance": self.provenance()})
            return rep

    def run_all(self, gold: str = "logoa") -> dict:
        """Every matrix of ``method_names(gold)``, its reports and the timing.

        Each matrix builds the models it scores, so no model is trained
        that no listed method needs.
        """
        methods = self.method_names(gold)
        for method in methods:
            self.ensure_matrix(method)
        reports = {}
        if self.cfg.queries.count > 0:
            reports = {m: r.to_dict() for m, r in self.ensure_reports(gold).items()}
        timing = self.ensure_timing()
        summary = {
            "provenance": self.provenance(),
            "methods": methods,
            "reports": {m: {k: v for k, v in r.items() if k != "per_query"}
                        for m, r in reports.items()},
            "timing": timing.to_dict(),
        }
        _write_json(self.out / "summary.json", summary)
        return summary


def _load_queries(path: Path) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    with np.load(path, allow_pickle=False) as z:
        return z["x0"], z["conds"] if "conds" in z else None, z["labels"]


def _nearest_group(xs: np.ndarray, d: GroupedDataset) -> np.ndarray:
    if len(xs) == 0:
        return np.zeros(0, dtype=np.int64)
    means = d.group_means()
    dists = np.linalg.norm(xs[:, None, :] - means[None, :, :], axis=2)
    return np.argmin(dists, axis=1)


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path, gold: str = "logoa") -> dict:
    """Execute the full pipeline into ``out_dir`` and return the summary."""
    return Pipeline(cfg, out_dir).run_all(gold)


@dataclass
class TimingReport:
    """Wall-clock decomposition: total = preproc + Q * t_query per method."""

    phase_seconds: dict
    phase_steps: dict
    methods: dict
    queries: int

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _cell_config(cfg: ExperimentConfig, cell: dict) -> ExperimentConfig:
    """``cfg`` with each dotted path of ``cell`` set to its value by nested
    ``replace``; the top-level fields go in one last ``replace``, so the
    cross-spec checks see the whole cell, in any order of its paths."""
    def put(spec, names: list[str], value):
        name, *rest = names
        if name not in getattr(spec, "__dataclass_fields__", ()):
            raise ValueError(f"unknown config path {path!r}")
        return replace(spec, **{name: put(getattr(spec, name), rest, value) if rest else value})
    fields = {}
    for path, value in cell.items():
        head, *rest = path.split(".")
        if head == "unlearn" and rest:  # unlearn.<field> (every method) or unlearn.<method>.<field>
            specs = fields.get("unlearn_methods", cfg.unlearn_methods)
            methods = [u.method for u in specs]
            chosen = methods if len(rest) == 1 else [rest.pop(0)]
            if not chosen or not set(chosen) <= set(methods):
                raise ValueError(f"unknown config path {path!r}; the methods are {methods}")
            value = tuple(put(u, rest, value) if u.method in chosen else u for u in specs)
            head, rest = "unlearn_methods", []
        if head not in cfg.__dataclass_fields__:
            raise ValueError(f"unknown config path {path!r}")
        fields[head] = put(fields.get(head, getattr(cfg, head)), rest, value) if rest else value
    return replace(cfg, **fields)


def study(cfg: ExperimentConfig, axes: dict[str, list], out_dir: str | Path,
          gold: str = "logoa") -> list[dict]:
    """Run the pipeline on every cell of the product of the ``axes`` values.

    ``axes`` maps dotted config paths to lists of values: ``unlearn.K`` sets
    K on every unlearning method, ``unlearn.esd.K`` on esd only.  Every
    cell's config is built, and so checked, before any cell runs.  A cell's
    directory ``<path>=<value>,...`` starts, unless it exists, as a copy of
    the last cell run on the same dataset and master seed.  Returns, and
    writes as ``study.csv``, one row per cell and method.
    """
    if not axes or not all(axes.values()):
        raise ValueError("a study needs at least one axis, each with at least one value")
    cells = [dict(zip(axes, values)) for values in itertools.product(*axes.values())]
    configs = [_cell_config(cfg, cell) for cell in cells]
    rows, last = [], {}  # last: (dataset, master_seed) -> the last cell directory run on them
    for cell, cell_cfg in zip(cells, configs):
        run_dir = Path(out_dir, ",".join(f"{path}={value}" for path, value in cell.items()))
        lineage = (cell_cfg.dataset, cell_cfg.master_seed)
        if lineage in last and not run_dir.exists():
            shutil.copytree(last[lineage], run_dir)
        last[lineage] = run_dir
        summary = run_experiment(cell_cfg, run_dir, gold=gold)
        rows += [{**cell, "method": method, **rep} for method, rep in summary["reports"].items()]
    with _replacing(Path(out_dir, "study.csv")) as tmp, open(tmp, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=[*axes, "method", *_METRICS])
        writer.writeheader()
        writer.writerows(rows)
    return rows
