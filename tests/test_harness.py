"""Pipeline orchestration: caching, determinism, timing, and sweeps."""

import filecmp
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from groupattr import AttributionMatrix, attribution_matrix
from groupattr import harness
from groupattr.cli import main
from groupattr.harness import (
    ExperimentConfig,
    PhaseError,
    Pipeline,
    QuerySpec,
    UnlearnSpec,
    run_experiment,
    sweep,
)

from conftest import tiny_experiment_config


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = tiny_experiment_config()
        path = tmp_path / "config.json"
        cfg.to_json(path)
        back = ExperimentConfig.from_json(path)
        assert back == cfg
        assert back.config_hash() == cfg.config_hash()

    def test_hash_changes_with_config(self):
        a = tiny_experiment_config()
        b = tiny_experiment_config(master_seed=8)
        assert a.config_hash() != b.config_hash()

    def test_duplicate_methods_rejected(self):
        with pytest.raises(ValueError):
            tiny_experiment_config(unlearn_methods=(
                UnlearnSpec(method="retrack", steps_or_epochs=1, lr=1e-4),
                UnlearnSpec(method="retrack", steps_or_epochs=2, lr=1e-4),
            ))


class TestArtifacts:
    def test_expected_files_exist(self, tiny_run):
        cfg, out, _ = tiny_run
        assert (out / "config.json").exists()
        assert (out / "dataset.npz").exists()
        assert (out / "queries.npz").exists()
        assert (out / "summary.json").exists()
        for k in range(3):
            assert (out / "checkpoints" / f"logo_{k}.ckpt").exists()
            for m in ("retrack", "esd"):
                assert (out / "checkpoints" / f"unlearn_{m}_{k}.ckpt").exists()
        for m in ("logoa", "retrack", "esd", "prototype", "oracle"):
            assert (out / "matrices" / f"{m}.csv").exists()
            assert (out / "matrices" / f"{m}.json").exists()
            assert (out / "reports" / f"rank_{m}_vs_logoa.json").exists()
        assert (out / "reports" / "timing.json").exists()

    def test_every_json_file_is_indented_json_dumps(self, tiny_run):
        """Key records, matrices, rank reports, timing, summary and config:
        each JSON file the run writes is ``json.dumps(doc, sort_keys=True,
        indent=1)`` of the document it holds."""
        _, out, _ = tiny_run
        files = sorted(out.rglob("*.json"))
        assert {f.relative_to(out).parts[0] for f in files} == {
            "keys", "matrices", "reports", "summary.json", "config.json"}
        assert out / "reports" / "timing.json" in files
        for f in files:
            text = f.read_text()
            assert text == json.dumps(json.loads(text), sort_keys=True, indent=1), f

    def test_unlearn_sidecar_records_config_and_seconds(self, tiny_run):
        _, out, _ = tiny_run
        doc = json.loads((out / "keys" / "unlearn_retrack_0.json").read_text())
        assert doc["unlearn_config"]["method"] == "retrack"
        assert doc["wall_seconds"] >= 0.0
        assert doc["steps"] == 10
        assert "config_hash" in doc

    def test_unlearn_loss_curves_logged(self, tiny_run):
        from groupattr import GroupedDataset, build_schedule, load_checkpoint
        from groupattr.unlearning import UnlearnSpec, unlearn

        cfg, out, _ = tiny_run
        d = GroupedDataset.load(out / "dataset.npz")
        full = load_checkpoint(out / "checkpoints" / "full.ckpt")
        s = build_schedule(cfg.schedule.num_steps, cfg.schedule.kind)
        for m in ("retrack", "esd"):
            doc = json.loads((out / "keys" / f"unlearn_{m}_1.json").read_text())
            run = unlearn(full, d, 1, UnlearnSpec(**doc["unlearn_config"]), s, doc["seed"])
            lines = (out / "logs" / f"unlearn_{m}_1.csv").read_text().splitlines()
            assert lines[0] == "step,forget_loss,preserve_loss"
            rows = [line.split(",") for line in lines[1:]]
            assert len(rows) == doc["steps"] == run.steps
            assert [int(r[0]) for r in rows] == list(range(run.steps))
            assert [float(r[1]) for r in rows] == run.forget_losses
            assert [float(r[2]) for r in rows] == run.preserve_losses

    def test_gold_self_agreement(self, tiny_run):
        _, _, summary = tiny_run
        assert summary["reports"]["logoa"]["top1"] == 1.0
        assert summary["reports"]["logoa"]["spearman"] == pytest.approx(1.0)

    def test_query_labels_and_conds_stored(self, tiny_run):
        _, out, _ = tiny_run
        with np.load(out / "queries.npz") as z:
            assert z["x0"].shape == (6, 2)
            assert z["labels"].shape == (6,)
            assert z["conds"].shape[0] == 6


class TestDeterminismAndCaching:
    def test_fresh_rerun_byte_identical_matrices(self, tiny_run, tmp_path):
        cfg, out, _ = tiny_run
        other = tmp_path / "rerun"
        run_experiment(cfg, other)
        for m in ("logoa", "retrack", "esd", "prototype", "oracle"):
            a = (out / "matrices" / f"{m}.csv").read_bytes()
            b = (other / "matrices" / f"{m}.csv").read_bytes()
            assert a == b, f"matrix {m} differs between fresh runs"

    def test_query_phase_rerun_reuses_checkpoints(self, tmp_path):
        cfg = tiny_experiment_config()
        out = tmp_path / "run"
        run_experiment(cfg, out)
        ckpts = sorted((out / "checkpoints").glob("*.ckpt"))
        stamps = {p.name: p.stat().st_mtime_ns for p in ckpts}
        before = {m: (out / "matrices" / f"{m}.csv").read_bytes()
                  for m in ("logoa", "retrack")}

        # Drop only query-phase artifacts (queries, matrices, reports).
        (out / "queries.npz").unlink()
        (out / "keys" / "queries.json").unlink()
        for p in (out / "matrices").iterdir():
            p.unlink()
        for p in (out / "keys").glob("matrix_*.json"):
            p.unlink()

        run_experiment(cfg, out)
        for p in sorted((out / "checkpoints").glob("*.ckpt")):
            assert p.stat().st_mtime_ns == stamps[p.name], f"{p.name} was retrained"
        for m, payload in before.items():
            assert (out / "matrices" / f"{m}.csv").read_bytes() == payload

    def test_changed_unlearn_spec_retrains_only_unlearn(self, tmp_path):
        cfg = tiny_experiment_config()
        out = tmp_path / "run"
        run_experiment(cfg, out)
        full_stamp = (out / "checkpoints" / "full.ckpt").stat().st_mtime_ns
        ul_stamp = (out / "checkpoints" / "unlearn_retrack_0.ckpt").stat().st_mtime_ns

        bumped = replace(cfg, unlearn_methods=(
            replace(cfg.unlearn_methods[0], steps_or_epochs=12),
            cfg.unlearn_methods[1],
        ))
        run_experiment(bumped, out)
        assert (out / "checkpoints" / "full.ckpt").stat().st_mtime_ns == full_stamp
        assert (out / "checkpoints" / "unlearn_retrack_0.ckpt").stat().st_mtime_ns != ul_stamp

    def test_result_independent_of_phase_order(self, tiny_run, tmp_path):
        """Phases build what they need on demand, so driving them in another
        order (unlearning first, matrices in reverse) gives the same bytes."""
        cfg, out, _ = tiny_run
        other = tmp_path / "reordered"
        p = Pipeline(cfg, other)
        for spec in reversed(cfg.unlearn_methods):
            for k in reversed(range(cfg.dataset.n_groups)):
                p.ensure_unlearn(spec.method, k)
        p.ensure_train_full()
        for method in reversed(p.method_names()):
            p.ensure_matrix(method)
        for pattern in ("matrices/*", "checkpoints/*.ckpt"):
            names = sorted(f.name for f in out.glob(pattern))
            assert names == sorted(f.name for f in other.glob(pattern))
            for name in names:
                sub = pattern.split("/")[0]
                assert (out / sub / name).read_bytes() == (other / sub / name).read_bytes(), name

    def test_interrupted_checkpoint_write_is_rebuilt(self, tmp_path, monkeypatch):
        """A torn checkpoint left by an interrupted rebuild is never served:
        the key record is dropped before the build starts."""
        cfg = tiny_experiment_config()
        out = tmp_path / "torn"
        Pipeline(cfg, out).ensure_train_full()
        ckpt = out / "checkpoints" / "full.ckpt"
        original = ckpt.read_bytes()
        ckpt.unlink()
        assert (out / "keys" / "train_full.json").exists()

        def torn_save(path, params):
            path.write_bytes(original[: len(original) // 2])
            raise OSError("interrupted mid-write")

        monkeypatch.setattr(harness, "save_checkpoint", torn_save)
        with pytest.raises(PhaseError, match="interrupted"):
            Pipeline(cfg, out).ensure_train_full()
        monkeypatch.undo()
        Pipeline(cfg, out).ensure_train_full()
        assert ckpt.read_bytes() == original

    def test_key_vouches_only_while_every_file_exists(self, tiny_run, tmp_path):
        """A phase whose key record is intact but one of whose files is gone
        is rebuilt, and the rebuild writes the same bytes."""
        cfg, out, _ = tiny_run
        rerun = tmp_path / "rerun"
        shutil.copytree(out, rerun)
        gone = ["matrices/retrack.csv", "checkpoints/unlearn_retrack_0.ckpt",
                "logs/unlearn_retrack_0.csv"]
        for name in gone:
            (rerun / name).unlink()
        run_experiment(cfg, rerun)
        for name in gone:
            assert (rerun / name).exists(), name
        for pattern in ("matrices/*", "checkpoints/*.ckpt"):
            names = sorted(f.name for f in out.glob(pattern))
            assert names == sorted(f.name for f in rerun.glob(pattern))
            for f in out.glob(pattern):
                assert f.read_bytes() == (rerun / f.relative_to(out)).read_bytes(), f.name

    def test_unchanged_phase_keys_keep_their_bytes(self, tiny_run, tmp_path):
        """A run directory rerun with only retrack's K changed rebuilds only
        the retrack phases: every other artifact keeps its file, and every
        artifact is byte-identical to a fresh run of the changed config."""
        cfg, out, _ = tiny_run
        changed = replace(cfg, unlearn_methods=(replace(cfg.unlearn_methods[0], K=5),
                                                *cfg.unlearn_methods[1:]))
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        shutil.copytree(out, reused)
        kept = ["dataset.npz", "queries.npz", "checkpoints/full.ckpt",
                *(f"checkpoints/{c}_{k}.ckpt" for c in ("logo", "unlearn_esd") for k in range(3)),
                *(f"matrices/{m}.{ext}" for m in ("logoa", "esd", "prototype", "oracle")
                  for ext in ("csv", "json"))]
        stamps = {name: (reused / name).stat().st_mtime_ns for name in kept}
        run_experiment(changed, reused)
        run_experiment(changed, fresh)
        for name in kept:
            assert (reused / name).stat().st_mtime_ns == stamps[name], f"{name} was rebuilt"
        artifacts = sorted(f.relative_to(fresh) for pattern in
                           ("dataset.npz", "queries.npz", "checkpoints/*", "matrices/*")
                           for f in fresh.glob(pattern))
        assert set(kept) < {str(f) for f in artifacts}
        for f in artifacts:
            assert filecmp.cmp(reused / f, fresh / f, shallow=False), f

    def test_blas_thread_count_changes_no_byte(self, tmp_path):
        """One and two OpenBLAS threads give the same matrices, checkpoints
        and queries, the same forward/backward bytes on blocks large enough
        to reach a threaded BLAS path, and the same kernel-oracle ELBOs."""
        script = """
import hashlib, sys
import numpy as np
from conftest import tiny_experiment_config
from groupattr.denoiser import Architecture, backward_batch, forward_batch, init_network
from groupattr import KernelDenoiser, build_schedule, generate_grouped_dataset
from groupattr.harness import default_experiment_config, run_experiment
from groupattr.scoring import ElboGrid, ElboSpec
from groupattr.seeding import query_seeds

run_experiment(tiny_experiment_config(), sys.argv[1])
p = init_network(Architecture(input_dim=2, hidden_dims=(128, 128), time_embed_dim=8,
                              cond_dim=4), 0)
rng = np.random.default_rng(0)
h = hashlib.sha256()
for rows in (64, 256, 1024):
    xt, cond = rng.normal(size=(rows, 2)), rng.normal(size=(rows, 4))
    out, cache = forward_batch(p, xt, rng.integers(1, 101, size=rows), 100, cond,
                               want_cache=True)
    h.update(out.tobytes())
    h.update(backward_batch(p, cache, out - xt).tobytes())
# The kernel oracle at desk scale (256 queries, 1000 points), whose
# ``w @ centres`` runs on row blocks of 32 rows.
d = generate_grouped_dataset(default_experiment_config(0).dataset, 0)
points, labels = d.labeled_samples()
full = KernelDenoiser(points, build_schedule(100, "squared_cosine"))
cfs = [full.restrict(np.flatnonzero(labels != k)) for k in range(d.n_groups)]
x0 = rng.normal(size=(256, 2)) * 4.0
h.update(ElboGrid(x0, None, query_seeds(3, 256), ElboSpec(), full.schedule)
         .elbos([full, *cfs]).tobytes())
print(h.hexdigest())
"""
        paths = [str(Path(harness.__file__).parents[1]), str(Path(__file__).parent)]
        digests, runs = [], []
        for threads in ("1", "2"):
            run = tmp_path / f"threads{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(paths)}
            done = subprocess.run([sys.executable, "-c", script, str(run)], env=env,
                                  capture_output=True, text=True, check=True)
            digests.append(done.stdout.split()[-1])
            runs.append(run)
        assert digests[0] == digests[1]
        one, two = runs
        files = sorted(f.relative_to(one) for pattern in
                       ("matrices/*", "checkpoints/*.ckpt", "queries.npz")
                       for f in one.glob(pattern))
        assert len(files) == 21  # 10 matrix files, 10 checkpoints, the queries
        for f in files:
            assert filecmp.cmp(one / f, two / f, shallow=False), f

    def test_elbo_noise_seeds_derived_once(self, tmp_path, monkeypatch):
        """A run derives each query's ELBO noise seed once, under the run's
        "elbo" root, and every ELBO matrix scores with that one list."""
        from groupattr import attribution, seeding

        roots, used = [], []
        real_derive = seeding.derive_seed
        real_matrix = attribution.attribution_matrix

        def counting_derive(root, *path):
            roots.append((root, *path))
            return real_derive(root, *path)

        def recording_matrix(*args, **kwargs):
            used.append(list(args[6]))
            return real_matrix(*args, **kwargs)

        # ``query_seeds`` calls ``seeding.derive_seed`` once per query.
        monkeypatch.setattr(seeding, "derive_seed", counting_derive)
        monkeypatch.setattr(harness, "derive_seed", counting_derive)
        monkeypatch.setattr(harness, "attribution_matrix", recording_matrix)
        cfg = tiny_experiment_config()
        run_experiment(cfg, tmp_path / "seeds")
        elbo = real_derive(cfg.master_seed, "elbo")
        Q = cfg.queries.count
        assert roots.count((cfg.master_seed, "elbo")) == 1
        assert [r for r in roots if r[0] == elbo] == [(elbo, "query", q) for q in range(Q)]
        assert len(used) == 4  # logoa, retrack, esd and oracle
        assert all(u == seeding.query_seeds(elbo, Q) for u in used)

    def test_each_checkpoint_loaded_once(self, tmp_path, monkeypatch):
        """A loaded checkpoint is served again while its key record vouches
        for it, so a run reads each checkpoint it scores exactly once."""
        loaded = []
        real_load = harness.load_checkpoint

        def counting_load(path):
            loaded.append(path.name)
            return real_load(path)

        monkeypatch.setattr(harness, "load_checkpoint", counting_load)
        out = tmp_path / "memo"
        run_experiment(tiny_experiment_config(), out)
        assert sorted(loaded) == sorted(p.name for p in (out / "checkpoints").glob("*.ckpt"))

    def test_phase_keys_hashed_once_per_pipeline(self, tiny_run, tmp_path, monkeypatch):
        """A second ``Pipeline`` re-running the query round (queries, every
        matrix, reports, timing) over a finished run directory hashes each
        phase key it uses once, and the config once."""
        cfg, done, _ = tiny_run
        out = tmp_path / "requery"
        shutil.copytree(done, out)
        for pattern in ("queries.npz", "matrices/*", "reports/*", "keys/queries.json",
                        "keys/matrix_*.json"):
            for path in out.glob(pattern):
                path.unlink()
        hashed = []
        real_hash = harness._hash_obj

        def counting_hash(obj):
            hashed.append(json.dumps(obj, sort_keys=True))
            return real_hash(obj)

        monkeypatch.setattr(harness, "_hash_obj", counting_hash)
        p = Pipeline(cfg, out)
        p.ensure_queries()
        for method in p.method_names():
            p.ensure_matrix(method)
        p.ensure_reports()
        p.ensure_timing()
        phases = list((out / "keys").glob("*.json"))
        assert len(phases) == 17  # dataset, full, 3 LOGO, 2 x 3 unlearned, queries, 5 matrices
        assert len(hashed) == len(set(hashed)) == len(phases) + 1

    def test_matrices_served_as_built_equal_their_files(self, tmp_path, monkeypatch):
        """A cold run serves each matrix as it built it, with no read-back,
        and still scores through the harness module's ``attribution_matrix``,
        ``prototype_baseline`` and ``rank_report``.  Each served matrix
        equals the one a fresh ``Pipeline`` loads from the file: the same
        field types and the same score bytes."""
        calls = {name: 0 for name in ("attribution_matrix", "prototype_baseline",
                                      "rank_report", "from_json")}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("attribution_matrix", "prototype_baseline", "rank_report"):
            monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
        monkeypatch.setattr(AttributionMatrix, "from_json", classmethod(
            counting("from_json", AttributionMatrix.from_json.__func__)))
        cfg = tiny_experiment_config()
        out = tmp_path / "served"
        built = Pipeline(cfg, out)
        methods = built.method_names()
        built.run_all()
        assert calls == {"attribution_matrix": 4, "prototype_baseline": 1,
                         "rank_report": len(methods), "from_json": 0}
        loaded = Pipeline(cfg, out)
        for method in methods:
            a, b = built.ensure_matrix(method), loaded.ensure_matrix(method)
            for field in ("method", "query_ids", "group_names"):
                x, y = getattr(a, field), getattr(b, field)
                assert x == y and type(x) is type(y), field
                assert [type(v) for v in ([x] if isinstance(x, str) else x)] == \
                       [type(v) for v in ([y] if isinstance(y, str) else y)], field
            assert a.scores.dtype == b.scores.dtype and a.scores.shape == b.scores.shape
            assert a.scores.flags.c_contiguous and b.scores.flags.c_contiguous
            assert a.scores.tobytes() == b.scores.tobytes()
        assert calls["from_json"] == len(methods)

    def test_matrices_share_one_grid_and_one_full_model_row(self, tmp_path, monkeypatch):
        """A run scores its full network on each ELBO grid point once, for the
        logoa and unlearning matrices together.  Every matrix is the bits of
        a fresh ``attribution_matrix`` call, and each network matrix's key
        record is charged the full model's scoring time."""
        from groupattr import scoring

        cfg = tiny_experiment_config()
        out = tmp_path / "shared"
        p = Pipeline(cfg, out)
        full = p.ensure_train_full()
        delay, scored_at = 0.02, []
        real_forward = scoring.forward_batch

        def slow_on_full(model, xt, t, *args, **kwargs):
            if model is full:
                scored_at.append(t)
                time.sleep(delay)
            return real_forward(model, xt, t, *args, **kwargs)

        monkeypatch.setattr(scoring, "forward_batch", slow_on_full)
        p.run_all()
        monkeypatch.undo()
        grid = list(range(2, cfg.schedule.num_steps, cfg.elbo.stride))
        assert scored_at == grid
        d = p.ensure_dataset()
        x0, cond, _ = p.ensure_queries()
        for method in ("logoa", "retrack", "esd", "oracle"):
            fresh = attribution_matrix(x0, cond, *p._models_for(method, d), cfg.elbo,
                                       p.schedule(), p._elbo_noise_seeds(), method=method,
                                       group_names=d.group_names)
            assert p.ensure_matrix(method).scores.tobytes() == fresh.scores.tobytes()
            if method != "oracle":
                record = json.loads((out / "keys" / f"matrix_{method}.json").read_text())
                assert record["wall_seconds"] >= len(grid) * delay

    @pytest.mark.parametrize("case", ["checkpoint", "queries", "matrix"])
    def test_failed_rebuild_keeps_previous_artifact(self, tmp_path, monkeypatch, case):
        """Artifacts are written to a temp file and swapped in with
        os.replace: a write that fails part-way leaves the previous artifact
        byte-for-byte, no temp file, and no key record."""
        cfg = tiny_experiment_config()
        out = tmp_path / "atomic"
        Pipeline(cfg, out).ensure_matrix("prototype")
        changed, artifact, key, target, run = {
            "checkpoint": (replace(cfg, train=replace(cfg.train, epochs=cfg.train.epochs + 1)),
                           "checkpoints/full.ckpt", "train_full", (harness, "save_checkpoint"),
                           Pipeline.ensure_train_full),
            "queries": (replace(cfg, queries=replace(cfg.queries, count=cfg.queries.count + 1)),
                        "queries.npz", "queries", (harness.np, "savez"),
                        Pipeline.ensure_queries),
            "matrix": (replace(cfg, elbo=replace(cfg.elbo, stride=cfg.elbo.stride + 1)),
                       "matrices/prototype.json", "matrix_prototype",
                       (AttributionMatrix, "to_json"),
                       lambda p: p.ensure_matrix("prototype")),
        }[case]
        before = (out / artifact).read_bytes()

        def torn_write(*args, **kwargs):
            dest = next(a for a in args if isinstance(a, Path) or hasattr(a, "write"))
            if hasattr(dest, "write"):
                dest.write(b"torn")
            else:
                dest.write_bytes(b"torn")
            raise OSError("disk full mid-write")

        monkeypatch.setattr(*target, torn_write)
        with pytest.raises(PhaseError, match="disk full"):
            run(Pipeline(changed, out))
        assert (out / artifact).read_bytes() == before
        assert not (out / "keys" / f"{key}.json").exists()
        assert not list(out.rglob("*.tmp"))


class TestGoldWithoutLogo:
    def test_oracle_gold_trains_no_logo(self, tmp_path):
        out = tmp_path / "oracle_gold"
        summary = run_experiment(tiny_experiment_config(), out, gold="oracle")
        assert not list((out / "checkpoints").glob("logo_*"))
        assert not list((out / "keys").glob("train_logo_*"))
        methods = ["retrack", "esd", "prototype", "oracle"]
        assert summary["methods"] == methods
        for m in methods:
            assert (out / "reports" / f"rank_{m}_vs_oracle.json").exists()


class TestZeroStepUnlearn:
    def test_zero_step_unlearn_gives_zero_matrix(self, tmp_path):
        cfg = tiny_experiment_config(unlearn_methods=(
            UnlearnSpec(method="retrack", steps_or_epochs=0, lr=1e-4,
                        timestep_range=(1, 40)),
        ))
        out = tmp_path / "zero"
        run_experiment(cfg, out)
        mat = AttributionMatrix.from_json(out / "matrices" / "retrack.json")
        np.testing.assert_array_equal(mat.scores, 0.0)


class TestTiming:
    def test_accounting_identity(self, tiny_run):
        cfg, out, _ = tiny_run
        rep = Pipeline(cfg, out).ensure_timing()
        assert rep.queries == 6
        for m, entry in rep.methods.items():
            assert entry["total_seconds"] == entry["preproc_seconds"] + entry["query_seconds"]
            assert entry["t_query_seconds"] == entry["query_seconds"] / 6

    def test_step_ratio_exact(self, tiny_run):
        cfg, out, _ = tiny_run
        rep = Pipeline(cfg, out).ensure_timing()
        # LOGO: 6 epochs x ceil(80/16)=5 batches = 30 steps per group.
        logo_steps = 3 * 30
        assert rep.phase_steps["train_logo_0"] == 30
        for m in ("retrack", "esd"):
            assert rep.methods[m]["counterfactual_steps"] == 3 * 10
            assert rep.methods[m]["logo_step_ratio"] == logo_steps / 30

    def test_speedup_reported(self, tiny_run):
        cfg, out, _ = tiny_run
        rep = Pipeline(cfg, out).ensure_timing()
        assert rep.methods["retrack"]["speedup_vs_logo"] > 1.0
        assert rep.methods["logoa"]["speedup_vs_logo"] == 1.0

    def test_zero_queries_total_is_preproc(self, tmp_path):
        cfg = tiny_experiment_config(queries=QuerySpec(count=0))
        out = tmp_path / "noq"
        Pipeline(cfg, out).ensure_queries()
        p = Pipeline(cfg, out)
        p.ensure_matrix("logoa")
        rep = p.ensure_timing()
        entry = rep.methods["logoa"]
        assert entry["query_seconds"] >= 0.0
        assert entry["t_query_seconds"] == 0.0
        assert entry["total_seconds"] == entry["preproc_seconds"] + entry["query_seconds"]

    def test_missing_records_rejected(self, tmp_path):
        with pytest.raises(PhaseError, match=r"\[report\]"):
            Pipeline(tiny_experiment_config(), tmp_path / "nothing").ensure_timing()

    def test_query_count_comes_from_the_config(self, tiny_run, tmp_path):
        """A stale matrix record of an earlier config does not set Q: each
        method's query time is divided by its own matrix's query count."""
        cfg, out, _ = tiny_run
        rerun = tmp_path / "rerun"
        shutil.copytree(out, rerun)
        run_experiment(replace(cfg, unlearn_methods=cfg.unlearn_methods[1:],
                               queries=QuerySpec(count=4)), rerun)
        timing = json.loads((rerun / "reports" / "timing.json").read_text())
        assert timing["queries"] == 4
        assert sorted(timing["methods"]) == ["esd", "logoa", "oracle", "prototype"]
        for entry in timing["methods"].values():
            assert entry["t_query_seconds"] == entry["query_seconds"] / 4

    def test_phase_records_come_from_the_config(self, tiny_run, tmp_path):
        """A rerun with esd only keeps no phase record of retrack."""
        cfg, out, _ = tiny_run
        rerun = tmp_path / "rerun"
        shutil.copytree(out, rerun)
        run_experiment(replace(cfg, unlearn_methods=cfg.unlearn_methods[1:]), rerun)
        assert (rerun / "keys" / "matrix_retrack.json").exists()
        timing = json.loads((rerun / "reports" / "timing.json").read_text())
        n = cfg.dataset.n_groups
        want = {"dataset", "train_full", "queries",
                *(f"{prefix}_{k}" for prefix in ("train_logo", "unlearn_esd") for k in range(n)),
                *(f"matrix_{m}" for m in ("logoa", "esd", "prototype", "oracle"))}
        assert set(timing["phase_seconds"]) == want
        assert set(timing["phase_steps"]) == {p for p in want if p.startswith(("train", "unlearn"))}

    def test_rerun_with_fewer_methods_drops_stale_ones(self, tiny_run, tmp_path):
        """A rerun without esd reports the methods of its own config only."""
        cfg, out, _ = tiny_run
        rerun = tmp_path / "rerun"
        shutil.copytree(out, rerun)
        summary = run_experiment(replace(cfg, unlearn_methods=cfg.unlearn_methods[:1]), rerun)
        assert "esd" not in summary["methods"]
        timing = json.loads((rerun / "reports" / "timing.json").read_text())
        assert sorted(timing["methods"]) == sorted(summary["methods"])

    def test_records_of_another_config_are_not_counted(self, tiny_run, tmp_path, capsys):
        """Timing counts a record only while it holds its phase's current
        key: with esd's steps doubled and nothing rebuilt, no esd record
        counts, through the API or through the CLI's ``report``."""
        cfg, out, _ = tiny_run
        esd = cfg.unlearn_methods[1]
        changed = replace(cfg, unlearn_methods=(
            cfg.unlearn_methods[0], replace(esd, steps_or_epochs=2 * esd.steps_or_epochs)))
        stale = tmp_path / "stale"
        shutil.copytree(out, stale)
        rep = Pipeline(changed, stale).ensure_timing()
        assert "esd" not in rep.methods
        assert sorted(rep.methods) == ["logoa", "oracle", "prototype", "retrack"]
        assert not [name for name in rep.phase_seconds if name.startswith("unlearn_esd_")]

        config_path = tmp_path / "changed.json"
        changed.to_json(config_path)
        assert main(["report", "--config", str(config_path), "--out", str(stale)]) == 0
        printed = json.loads(capsys.readouterr().out)
        fresh = tmp_path / "fresh"
        run_experiment(changed, fresh)

        def phase_key(run, name):
            path = run / "keys" / f"{name}.json"
            return json.loads(path.read_text())["phase_key"] if path.exists() else None

        current = {path.stem for path in (fresh / "keys").glob("*.json")
                   if phase_key(stale, path.stem) == phase_key(fresh, path.stem)}
        assert set(printed["phase_seconds"]) == current
        assert sorted(printed["methods"]) == sorted(rep.methods)


class TestErrors:
    def test_unconfigured_method_is_phase_tagged(self, tiny_run):
        cfg, out, _ = tiny_run
        p = Pipeline(cfg, out)
        with pytest.raises(PhaseError, match=r"\[unlearn\]"):
            p.ensure_unlearn("cond_anchor", 0)

    def test_evaluate_without_queries_rejected(self, tmp_path):
        cfg = tiny_experiment_config(queries=QuerySpec(count=0))
        p = Pipeline(cfg, tmp_path / "noq2")
        with pytest.raises(PhaseError, match=r"\[evaluate\]"):
            p.ensure_reports()

    def test_partial_artifacts_retained_on_failure(self, tmp_path):
        cfg = tiny_experiment_config(unlearn_methods=(
            UnlearnSpec(method="cond_anchor", steps_or_epochs=1, lr=1e-9),
        ))
        # Force a failure inside the unlearn phase by removing conditions.
        bad = tiny_experiment_config(
            dataset=replace(cfg.dataset, conditional=False),
            unlearn_methods=cfg.unlearn_methods,
        )
        out = tmp_path / "fail"
        with pytest.raises(PhaseError):
            run_experiment(bad, out)
        assert (out / "dataset.npz").exists()
        assert (out / "checkpoints" / "full.ckpt").exists()


class TestSweep:
    def test_single_value_sweep_matches_run(self, tmp_path):
        cfg = tiny_experiment_config()
        rows = sweep(cfg, "epochs", [10], tmp_path / "sw")
        assert len(rows) == 1
        direct = run_experiment(cfg, tmp_path / "direct")
        assert rows[0]["retrack.top1"] == direct["reports"]["retrack"]["top1"]
        assert (tmp_path / "sw" / "sweep_epochs.csv").exists()

    def test_epochs_zero_row_all_zero_scores(self, tmp_path):
        cfg = tiny_experiment_config(unlearn_methods=(
            UnlearnSpec(method="retrack", steps_or_epochs=10, lr=1e-4,
                        timestep_range=(1, 40)),
        ))
        sweep(cfg, "epochs", [0], tmp_path / "sw0")
        mat = AttributionMatrix.from_json(
            tmp_path / "sw0" / "epochs_0" / "matrices" / "retrack.json"
        )
        np.testing.assert_array_equal(mat.scores, 0.0)

    def test_k_sweep_full_matches_kernel_identity(self, tmp_path):
        """K = |retain| reproduces the untruncated target path: the
        redirected targets equal the retain-set kernel denoiser."""
        from groupattr import build_schedule
        from groupattr.data import GroupedDataset
        from groupattr.training import empirical_denoiser
        from groupattr.unlearning import retrack_target

        cfg = tiny_experiment_config()
        out = tmp_path / "swk"
        rows = sweep(cfg, "K", [1, 80], out)
        assert [r["value"] for r in rows] == [1, 80]
        d = GroupedDataset.load(out / "K_80" / "dataset.npz")
        s = build_schedule(40, "squared_cosine")
        retain = d.labeled_samples(exclude=0)[0]
        rng = np.random.default_rng(0)
        for _ in range(20):
            xt = rng.normal(size=2) * 3
            t = int(rng.integers(2, 41))
            np.testing.assert_allclose(
                retrack_target(retain, xt, t, len(retain), s),
                empirical_denoiser(retain, xt, t, s),
                atol=1e-12,
            )

    def test_second_value_reuses_the_first_and_matches_a_fresh_run(self, tmp_path,
                                                                  monkeypatch):
        """A sweep value starts from the previous value's directory: the full
        and LOGO models are trained once for the whole sweep, and the second
        value's outputs are byte-identical to a fresh run of it."""
        calls = {"train_full": 0, "train_logo": 0}

        def counted(name):
            real = getattr(harness, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return call

        for name in calls:
            monkeypatch.setattr(harness, name, counted(name))
        cfg = tiny_experiment_config()
        sweep(cfg, "K", [5, 10], tmp_path / "sw")
        assert calls == {"train_full": 1, "train_logo": cfg.dataset.n_groups}
        second = tmp_path / "sw" / "K_10"
        fresh = tmp_path / "fresh"
        specs = tuple(replace(u, K=10) for u in cfg.unlearn_methods)
        run_experiment(replace(cfg, unlearn_methods=specs), fresh)
        # Training logs hold wall times, so they differ between runs.
        files = sorted(f.relative_to(fresh) for pattern in
                       ("dataset.npz", "queries.npz", "checkpoints/*", "matrices/*",
                        "logs/unlearn_*")
                       for f in fresh.glob(pattern))
        assert len(files) == 2 + 10 + 10 + 6
        for f in files:
            assert filecmp.cmp(second / f, fresh / f, shallow=False), f

    def test_k_sweep_unlearns_esd_once_per_group(self, tmp_path, monkeypatch):
        """esd reads no ``K``: a two-value ``K`` sweep unlearns it once per
        group and scores it once, and the second value's outputs are still
        byte-identical to a fresh run of it."""
        calls = {"retrack": 0, "esd": 0}
        real = harness.unlearn

        def counted(p_full, d, k, cfg, s, seed):
            calls[cfg.method] += 1
            return real(p_full, d, k, cfg, s, seed)

        monkeypatch.setattr(harness, "unlearn", counted)
        cfg = tiny_experiment_config()
        sweep(cfg, "K", [5, 10], tmp_path / "sw")
        n = cfg.dataset.n_groups
        assert calls == {"retrack": 2 * n, "esd": n}
        first, second = tmp_path / "sw" / "K_5", tmp_path / "sw" / "K_10"
        for name in ("keys/matrix_esd.json", "keys/unlearn_esd_0.json"):
            assert filecmp.cmp(first / name, second / name, shallow=False), name
        monkeypatch.setattr(harness, "unlearn", real)
        fresh = tmp_path / "fresh"
        run_experiment(replace(cfg, unlearn_methods=tuple(
            replace(u, K=10) for u in cfg.unlearn_methods)), fresh)
        files = sorted(f.relative_to(fresh) for pattern in
                       ("dataset.npz", "queries.npz", "checkpoints/*", "matrices/*",
                        "logs/unlearn_*")
                       for f in fresh.glob(pattern))
        assert len(files) == 2 + 10 + 10 + 6
        for f in files:
            assert filecmp.cmp(second / f, fresh / f, shallow=False), f

    def test_invalid_axis_and_empty_values(self, tmp_path):
        cfg = tiny_experiment_config()
        with pytest.raises(ValueError):
            sweep(cfg, "gamma", [1], tmp_path / "x")
        with pytest.raises(ValueError):
            sweep(cfg, "lr", [], tmp_path / "y")
