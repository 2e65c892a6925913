"""Experiment orchestration: data, training, unlearning, scoring, reports.

A run directory is populated phase by phase.  Every ``Pipeline.ensure_*``
phase runs through ``Pipeline._phase``: it serves the phase's artifact
when the phase's key record vouches for it, and otherwise builds the
artifact (plus a JSON sidecar for checkpoints) and writes a new key
record: the hash of the phase-relevant configuration chain, the
provenance, wall-clock seconds and optimizer step counts.

The key rule: a key record is deleted before its phase builds and is
written only once every artifact of the phase is complete, so a key never
vouches for a missing or torn artifact; an interrupted build is redone.

Every artifact is written to a temp file beside it and swapped in with
``os.replace``, so an interrupted write leaves the previous artifact
whole.  A ``Pipeline`` keeps each artifact it loaded and serves it again
while the key record still vouches for it, so a checkpoint is read once.

Phases build their dependencies on demand, so a matrix trains or unlearns
exactly the models it scores and the outputs do not depend on the order
phases are requested in.  The query phase samples every query as one
block, and a matrix scores every query under every model in one block
(``attribution_matrix``).  Deleting only the query-phase outputs
re-scores against cached counterfactual checkpoints without retraining.

All model scoring goes through checkpoint files (float32), so fresh and
cache-resumed runs produce byte-identical numeric outputs.

Randomness derives from the master seed through labeled streams
(phase name, group index, query index); see ``seeding``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
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
from .diffusion import Schedule, build_schedule, sample
from .metrics import RankReport, rank_report
from .scoring import ElboConfig
from .seeding import derive_seed
from .training import KernelDenoiser, TrainConfig, train_full, train_logo
from .unlearning import UnlearnConfig, default_timestep_range, unlearn

ARTIFACT_VERSION = 1

SWEEP_AXES = ("epochs", "lambda", "K", "lr")

_AXIS_FIELD = {
    "epochs": "steps_or_epochs",
    "lambda": "lambda_forget",
    "K": "K",
    "lr": "lr",
}


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


@dataclass(frozen=True)
class ScheduleSpec:
    num_steps: int = 100
    kind: str = "squared_cosine"


@dataclass(frozen=True)
class ArchSpec:
    hidden_dims: tuple[int, ...] = (128, 128)
    time_embed_dim: int = 8
    activation: str = "silu"

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))


@dataclass(frozen=True)
class TrainSpec:
    epochs: int = 200
    batch_size: int = 128
    lr: float = 1e-3
    exposure_matched: bool = True
    weight_decay: float = 1e-4
    cond_dropout: float = 0.1
    logo_from_checkpoint: bool = False


@dataclass(frozen=True)
class UnlearnSpec:
    method: str
    steps_or_epochs: int
    lr: float
    lambda_forget: float = 0.03
    lambda_pres: float = 2.0
    K: int = 10
    kl_cap: float = 1.0
    guidance_weight: float = 5.0
    tau: float = 2.0
    eta_mix: float = 0.1
    timestep_range: tuple[int, int] | None = None
    batch_size: int = 64
    cond_dropout: float = 0.1

    def resolve(self, num_steps: int, seed: int) -> UnlearnConfig:
        rng_range = self.timestep_range or default_timestep_range(num_steps)
        return UnlearnConfig(**{**dataclasses.asdict(self), "seed": seed,
                                "timestep_range": tuple(rng_range)})


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


@dataclass(frozen=True)
class ElboSpec:
    stride: int = 10
    samples_per_t: int = 1


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

    def to_dict(self) -> dict:
        return _plain(dataclasses.asdict(self))

    def to_json(self, path: str | Path) -> None:
        _write_json(Path(path), self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return cls(
            dataset=DatasetSpec(**d["dataset"]),
            schedule=ScheduleSpec(**d["schedule"]),
            arch=ArchSpec(hidden_dims=tuple(d["arch"]["hidden_dims"]),
                          time_embed_dim=d["arch"]["time_embed_dim"],
                          activation=d["arch"]["activation"]),
            train=TrainSpec(**d["train"]),
            unlearn_methods=tuple(
                UnlearnSpec(**{**u, "timestep_range": tuple(u["timestep_range"]) if u.get("timestep_range") else None})
                for u in d["unlearn_methods"]
            ),
            queries=QuerySpec(**d["queries"]),
            elbo=ElboSpec(**d["elbo"]),
            master_seed=int(d["master_seed"]),
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def config_hash(self) -> str:
        return _hash_obj(self.to_dict())


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def _hash_obj(obj) -> str:
    blob = json.dumps(_plain(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


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
        cfg.to_json(self.out / "config.json")
        self._schedule: Schedule | None = None
        # phase name -> (phase key, loaded artifact), valid while the key record matches
        self._loaded: dict[str, tuple[str, object]] = {}

    # -- provenance ---------------------------------------------------

    def provenance(self) -> dict:
        return {
            "artifact_version": ARTIFACT_VERSION,
            "config_hash": self.cfg.config_hash(),
            "master_seed": self.cfg.master_seed,
            "package_version": _pkg_version,
        }

    def _key_path(self, name: str) -> Path:
        return self.out / "keys" / f"{name}.json"

    def _fresh(self, name: str, phase_key: str, artifact: Path) -> bool:
        path = self._key_path(name)
        return (path.exists() and json.loads(path.read_text()).get("phase_key") == phase_key
                and artifact.exists())

    def _write_key(self, name: str, phase_key: str, **extra) -> None:
        _write_json(self._key_path(name), {"phase_key": phase_key, **self.provenance(), **extra})

    # -- phase keys -----------------------------------------------------

    def _k_dataset(self) -> str:
        return _hash_obj(["dataset", dataclasses.asdict(self.cfg.dataset), self.cfg.master_seed])

    def _k_full(self) -> str:
        return _hash_obj(["train_full", self._k_dataset(),
                          dataclasses.asdict(self.cfg.schedule),
                          dataclasses.asdict(self.cfg.arch),
                          dataclasses.asdict(self.cfg.train)])

    def _k_logo(self, k: int) -> str:
        return _hash_obj(["train_logo", k, self._k_full(),
                          self.cfg.train.logo_from_checkpoint])

    def _k_unlearn(self, method: str, k: int) -> str:
        spec = self._unlearn_spec(method)
        return _hash_obj(["unlearn", method, k, self._k_full(), dataclasses.asdict(spec)])

    def _k_queries(self) -> str:
        return _hash_obj(["queries", self._k_full(), dataclasses.asdict(self.cfg.queries)])

    def _k_matrix(self, method: str) -> str:
        deps: list = ["matrix", method, self._k_queries(), dataclasses.asdict(self.cfg.elbo)]
        if method == "logoa":
            deps += [self._k_logo(k) for k in range(self.cfg.dataset.n_groups)]
        elif method in ("prototype", "oracle"):
            deps.append(self._k_dataset())
        else:
            deps += [self._k_unlearn(method, k) for k in range(self.cfg.dataset.n_groups)]
        return _hash_obj(deps)

    # -- shared objects -------------------------------------------------

    def schedule(self) -> Schedule:
        if self._schedule is None:
            self._schedule = build_schedule(self.cfg.schedule.num_steps, self.cfg.schedule.kind)
        return self._schedule

    def architecture(self, d: GroupedDataset) -> Architecture:
        a = self.cfg.arch
        return Architecture(
            input_dim=d.dim,
            hidden_dims=a.hidden_dims,
            time_embed_dim=a.time_embed_dim,
            cond_dim=d.cond_dim,
            activation=a.activation,
        )

    def _train_config(self, seed_label: str) -> TrainConfig:
        t = self.cfg.train
        return TrainConfig(
            epochs=t.epochs, batch_size=t.batch_size, lr=t.lr,
            seed=derive_seed(self.cfg.master_seed, seed_label),
            exposure_matched=t.exposure_matched,
            weight_decay=t.weight_decay, cond_dropout=t.cond_dropout,
        )

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

    def _phase(self, name: str, key: str, artifact: Path, tag: str, build, load):
        """Load ``artifact``, building it first unless key record ``name`` vouches for it.

        ``build`` writes every artifact of the phase (each through a temp
        file and ``os.replace``) and returns the extra fields of its key
        record.  The old record is deleted before the build starts and the
        new one is written only after it returns, so an interrupted build
        leaves no key behind, and the previous artifact intact.  A loaded
        artifact is kept and served again while the key record still
        vouches for it; a rebuild replaces it.  Any failure is re-raised
        as ``PhaseError(tag)``.
        """
        with _tagged(tag):
            if self._fresh(name, key, artifact):
                loaded_key, value = self._loaded.get(name, (None, None))
                if loaded_key == key:
                    return value
            else:
                self._key_path(name).unlink(missing_ok=True)
                record = build()
                self._write_key(name, key, **record)
            value = load(artifact)
            self._loaded[name] = (key, value)
            return value

    def _save_run(self, path: Path, run, **sidecar) -> dict:
        """Checkpoint a training or unlearning run with its JSON sidecar;
        returns the run's key record fields."""
        with _replacing(path) as tmp:
            save_checkpoint(tmp, run.params)
        record = {"wall_seconds": run.wall_seconds, "steps": run.steps}
        _write_json(path.with_suffix(".json"), {"provenance": self.provenance(), **record, **sidecar})
        return record

    def ensure_dataset(self) -> GroupedDataset:
        path = self.out / "dataset.npz"

        def build():
            tic = time.perf_counter()
            d = generate_grouped_dataset(
                self.cfg.dataset, derive_seed(self.cfg.master_seed, "dataset")
            )
            with _replacing(path) as tmp:
                d.save(tmp, provenance=self.provenance())
            return {"wall_seconds": time.perf_counter() - tic}

        return self._phase("dataset", self._k_dataset(), path, "dataset", build,
                           GroupedDataset.load)

    def ensure_train_full(self):
        d = self.ensure_dataset()
        path = self.out / "checkpoints" / "full.ckpt"

        def build():
            with _replacing(self.out / "logs" / "train_full.csv") as log:
                run = train_full(d, self.architecture(d), self._train_config("train_full"),
                                 self.schedule(), log_path=log)
            return self._save_run(
                path, run, final_loss=run.epoch_losses[-1] if run.epoch_losses else None)

        return self._phase("train_full", self._k_full(), path, "train_full", build,
                           load_checkpoint)

    def ensure_train_logo(self, k: int):
        d = self.ensure_dataset()
        path = self.out / "checkpoints" / f"logo_{k}.ckpt"

        def build():
            init = self.ensure_train_full() if self.cfg.train.logo_from_checkpoint else None
            with _replacing(self.out / "logs" / f"train_logo_{k}.csv") as log:
                run = train_logo(d, k, self.architecture(d), self._train_config("train_logo"),
                                 self.schedule(), init_params=init, log_path=log)
            return self._save_run(path, run, group=k)

        return self._phase(f"train_logo_{k}", self._k_logo(k), path, "train_logo", build,
                           load_checkpoint)

    def ensure_unlearn(self, method: str, k: int):
        d = self.ensure_dataset()
        spec = self._unlearn_spec(method)
        path = self.out / "checkpoints" / f"unlearn_{method}_{k}.ckpt"

        def build():
            full = self.ensure_train_full()
            ucfg = spec.resolve(
                self.schedule().num_steps,
                derive_seed(self.cfg.master_seed, "unlearn", method, k),
            )
            run = unlearn(full, d, k, ucfg, self.schedule())
            return self._save_run(path, run, group=k, unlearn_config=dataclasses.asdict(ucfg))

        return self._phase(f"unlearn_{method}_{k}", self._k_unlearn(method, k), path,
                           "unlearn", build, load_checkpoint)

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
                seeds=[derive_seed(self.cfg.master_seed, "query", q) for q in range(qs.count)],
                cond=conds, steps=qs.steps or s.num_steps, method=qs.method, dim=d.dim,
                clip_x0=qs.clip_x0,
            )
            arrays = {"x0": x_arr, "labels": _nearest_group(x_arr, d),
                      "provenance": np.array(json.dumps(self.provenance(), sort_keys=True))}
            if conds is not None:
                arrays["conds"] = conds
            with _replacing(path) as tmp, open(tmp, "wb") as f:
                np.savez(f, **arrays)  # a file object keeps np.savez from renaming the path
            return {"wall_seconds": time.perf_counter() - tic}

        return self._phase("queries", self._k_queries(), path, "queries", build, _load_queries)

    def _query_conditions(self, d: GroupedDataset, count: int) -> np.ndarray | None:
        if d.cond_dim == 0:
            return None
        if self.cfg.queries.cond_mode == "group":
            rows = [d.cond_vectors[q % d.n_groups] for q in range(count)]
        else:
            rows = [d.null_condition()] * count
        return np.array(rows, dtype=np.float64).reshape(count, d.cond_dim)

    def _query_tuples(self) -> list:
        x0, conds, _ = self.ensure_queries()
        return list(zip(x0, [None] * len(x0) if conds is None else conds))

    def ensure_matrix(self, method: str) -> AttributionMatrix:
        d = self.ensure_dataset()
        csv_path = self.out / "matrices" / f"{method}.csv"
        json_path = self.out / "matrices" / f"{method}.json"

        def build():
            queries = self._query_tuples()
            # Models are built (or loaded) before the clock starts: the
            # recorded time is the query cost alone.
            models = None if method == "prototype" else self._models_for(method, d)
            tic = time.perf_counter()
            if models is None:
                mat = prototype_baseline(queries, d)
            else:
                s = self.schedule()
                ecfg = ElboConfig(
                    stride=self.cfg.elbo.stride, t_min=2, t_max=s.num_steps,
                    noise_seed=derive_seed(self.cfg.master_seed, "elbo"),
                    samples_per_t=self.cfg.elbo.samples_per_t,
                )
                mat = attribution_matrix(queries, *models, ecfg, s, method=method,
                                         group_names=d.group_names)
            wall = time.perf_counter() - tic
            with _replacing(csv_path) as tmp:
                mat.to_csv(tmp, provenance=self.provenance())
            with _replacing(json_path) as tmp:
                mat.to_json(tmp, provenance=self.provenance())
            return {"wall_seconds": wall, "queries": len(queries)}

        return self._phase(f"matrix_{method}", self._k_matrix(method), json_path, "attribute",
                           build, AttributionMatrix.from_json)

    def _models_for(self, method: str, d: GroupedDataset):
        s = self.schedule()
        n = d.n_groups
        if method == "oracle":
            full = KernelDenoiser(d.all_samples(), s)
            cfs = [KernelDenoiser(d.all_samples(exclude=k), s) for k in range(n)]
            return full, cfs
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
        with _tagged("report"):
            rep = timing_report(self.out)
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


def timing_report(run_dir: str | Path) -> TimingReport:
    """Reconstruct cost accounting from recorded phase key files.

    Each attribution method's preprocessing covers full-model training
    plus its per-group counterfactual construction; query time is the
    recorded matrix-computation time.  Speedups and the step-count
    ratio are reported relative to the leave-one-group-out branch.
    """
    run_dir = Path(run_dir)
    keys_dir = run_dir / "keys"
    if not keys_dir.exists():
        raise ValueError(f"{run_dir} has no timing records")
    records = {}
    for path in sorted(keys_dir.glob("*.json")):
        records[path.stem] = json.loads(path.read_text())
    if not records:
        raise ValueError(f"{run_dir} has no timing records")

    def seconds(name: str) -> float:
        if name not in records:
            raise ValueError(f"missing timing record {name!r}")
        return float(records[name].get("wall_seconds", 0.0))

    def steps(name: str) -> int:
        return int(records[name].get("steps", 0))

    phase_seconds = {name: float(rec.get("wall_seconds", 0.0)) for name, rec in records.items()}
    phase_steps = {name: int(rec["steps"]) for name, rec in records.items() if "steps" in rec}

    cfg = ExperimentConfig.from_json(run_dir / "config.json")
    n = cfg.dataset.n_groups
    q_count = 0
    for rec in records.values():
        if "queries" in rec:
            q_count = int(rec["queries"])

    full_train = seconds("train_full") if "train_full" in records else 0.0
    logo_names = [f"train_logo_{k}" for k in range(n) if f"train_logo_{k}" in records]
    logo_steps_total = sum(steps(nm) for nm in logo_names)

    methods: dict[str, dict] = {}
    for name in records:
        if not name.startswith("matrix_"):
            continue
        method = name[len("matrix_"):]
        query_seconds = seconds(name)
        if method == "logoa":
            preproc = full_train + sum(seconds(nm) for nm in logo_names)
            cf_steps = logo_steps_total
        elif method in ("prototype", "oracle"):
            preproc = 0.0
            cf_steps = 0
        else:
            ul_names = [f"unlearn_{method}_{k}" for k in range(n)
                        if f"unlearn_{method}_{k}" in records]
            preproc = full_train + sum(seconds(nm) for nm in ul_names)
            cf_steps = sum(steps(nm) for nm in ul_names)
        t_query = query_seconds / q_count if q_count else 0.0
        entry = {
            "preproc_seconds": preproc,
            "query_seconds": query_seconds,
            "t_query_seconds": t_query,
            "total_seconds": preproc + query_seconds,
            "counterfactual_steps": cf_steps,
        }
        if method not in ("logoa", "prototype", "oracle") and cf_steps > 0:
            entry["logo_step_ratio"] = logo_steps_total / cf_steps
        methods[method] = entry

    if "logoa" in methods:
        logoa_total = methods["logoa"]["total_seconds"]
        for name, entry in methods.items():
            if entry["total_seconds"] > 0:
                entry["speedup_vs_logo"] = logoa_total / entry["total_seconds"]

    return TimingReport(phase_seconds, phase_steps, methods, q_count)


def sweep(
    cfg: ExperimentConfig,
    axis: str,
    values: list,
    out_dir: str | Path,
    gold: str = "logoa",
) -> list[dict]:
    """Run the pipeline once per value, varying one unlearning axis.

    ``axis`` is one of epochs / lambda / K / lr, applied to every
    configured unlearning method.  Returns one row per value with the
    aggregate agreement metrics of each method versus the gold matrix,
    and writes the comparison table as CSV.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")
    if not values:
        raise ValueError("sweep values must be non-empty")
    field_name = _AXIS_FIELD[axis]
    out_dir = Path(out_dir)
    rows = []
    for value in values:
        cast = int(value) if field_name in ("steps_or_epochs", "K") else float(value)
        specs = tuple(replace(u, **{field_name: cast}) for u in cfg.unlearn_methods)
        sub_cfg = replace(cfg, unlearn_methods=specs)
        run_dir = out_dir / f"{axis}_{value}"
        summary = run_experiment(sub_cfg, run_dir, gold=gold)
        row = {"axis": axis, "value": value}
        for method, rep in summary["reports"].items():
            for metric, metric_value in rep.items():
                row[f"{method}.{metric}"] = metric_value
        rows.append(row)

    table_path = out_dir / f"sweep_{axis}.csv"
    if rows:
        import csv as _csv

        cols = list(rows[0].keys())
        with open(table_path, "w", newline="") as f:
            writer = _csv.DictWriter(f, fieldnames=cols)
            writer.writeheader()
            writer.writerows(rows)
    return rows
