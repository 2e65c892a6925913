"""Pipeline orchestration: caching, determinism, timing, and sweeps."""

import filecmp
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from groupattr import AttributionMatrix
from groupattr import harness
from groupattr.harness import (
    ExperimentConfig,
    PhaseError,
    Pipeline,
    QuerySpec,
    UnlearnSpec,
    run_experiment,
    sweep,
    timing_report,
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
                assert (out / "checkpoints" / f"unlearn_{m}_{k}.json").exists()
        for m in ("logoa", "retrack", "esd", "prototype", "oracle"):
            assert (out / "matrices" / f"{m}.csv").exists()
            assert (out / "matrices" / f"{m}.json").exists()
            assert (out / "reports" / f"rank_{m}_vs_logoa.json").exists()
        assert (out / "reports" / "timing.json").exists()

    def test_unlearn_sidecar_records_config_and_seconds(self, tiny_run):
        _, out, _ = tiny_run
        doc = json.loads((out / "checkpoints" / "unlearn_retrack_0.json").read_text())
        assert doc["unlearn_config"]["method"] == "retrack"
        assert doc["wall_seconds"] >= 0.0
        assert doc["steps"] == 10
        assert "config_hash" in doc["provenance"]

    def test_unlearn_loss_curves_logged(self, tiny_run):
        from groupattr import GroupedDataset, build_schedule, load_checkpoint
        from groupattr.unlearning import UnlearnSpec, unlearn

        cfg, out, _ = tiny_run
        d = GroupedDataset.load(out / "dataset.npz")
        full = load_checkpoint(out / "checkpoints" / "full.ckpt")
        s = build_schedule(cfg.schedule.num_steps, cfg.schedule.kind)
        for m in ("retrack", "esd"):
            doc = json.loads((out / "checkpoints" / f"unlearn_{m}_1.json").read_text())
            run = unlearn(full, d, 1, UnlearnSpec(**doc["unlearn_config"]), s, doc["seed"])
            lines = (out / "logs" / f"unlearn_{m}_1.csv").read_text().splitlines()
            assert lines[0] == "step,forget_loss,preserve_loss"
            rows = [line.split(",") for line in lines[1:]]
            assert len(rows) == doc["steps"] == run.steps
            assert [int(r[0]) for r in rows] == list(range(run.steps))
            assert [float(r[1]) for r in rows] == run.forget_losses
            assert [float(r[2]) for r in rows] == run.preserve_losses

    def test_provenance_embedded_in_csv(self, tiny_run):
        cfg, out, _ = tiny_run
        first = (out / "matrices" / "logoa.csv").read_text().splitlines()[0]
        assert first.startswith("# ")
        prov = json.loads(first[2:])
        assert prov["config_hash"] == cfg.config_hash()
        assert prov["master_seed"] == cfg.master_seed

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
        gone = ["matrices/retrack.csv", "checkpoints/unlearn_retrack_0.json",
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

    def test_blas_thread_count_changes_no_byte(self, tmp_path):
        """One and two OpenBLAS threads give the same matrices, checkpoints
        and queries, and the same forward/backward bytes on blocks large
        enough to reach a threaded BLAS path."""
        script = """
import hashlib, sys
import numpy as np
from conftest import tiny_experiment_config
from groupattr.denoiser import Architecture, backward_batch, forward_batch, init_network
from groupattr.harness import run_experiment

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
        _, out, _ = tiny_run
        rep = timing_report(out)
        assert rep.queries == 6
        for m, entry in rep.methods.items():
            assert entry["total_seconds"] == entry["preproc_seconds"] + entry["query_seconds"]
            assert entry["t_query_seconds"] == entry["query_seconds"] / 6

    def test_step_ratio_exact(self, tiny_run):
        cfg, out, _ = tiny_run
        rep = timing_report(out)
        # LOGO: 6 epochs x ceil(80/16)=5 batches = 30 steps per group.
        logo_steps = 3 * 30
        assert rep.phase_steps["train_logo_0"] == 30
        for m in ("retrack", "esd"):
            assert rep.methods[m]["counterfactual_steps"] == 3 * 10
            assert rep.methods[m]["logo_step_ratio"] == logo_steps / 30

    def test_speedup_reported(self, tiny_run):
        _, out, _ = tiny_run
        rep = timing_report(out)
        assert rep.methods["retrack"]["speedup_vs_logo"] > 1.0
        assert rep.methods["logoa"]["speedup_vs_logo"] == 1.0

    def test_zero_queries_total_is_preproc(self, tmp_path):
        cfg = tiny_experiment_config(queries=QuerySpec(count=0))
        out = tmp_path / "noq"
        Pipeline(cfg, out).ensure_queries()
        p = Pipeline(cfg, out)
        p.ensure_matrix("logoa")
        rep = timing_report(out)
        entry = rep.methods["logoa"]
        assert entry["query_seconds"] >= 0.0
        assert entry["t_query_seconds"] == 0.0
        assert entry["total_seconds"] == entry["preproc_seconds"] + entry["query_seconds"]

    def test_missing_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            timing_report(tmp_path / "nothing")

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

    def test_rerun_with_fewer_methods_drops_stale_ones(self, tiny_run, tmp_path):
        """A rerun without esd reports the methods of its own config only."""
        cfg, out, _ = tiny_run
        rerun = tmp_path / "rerun"
        shutil.copytree(out, rerun)
        summary = run_experiment(replace(cfg, unlearn_methods=cfg.unlearn_methods[:1]), rerun)
        assert "esd" not in summary["methods"]
        timing = json.loads((rerun / "reports" / "timing.json").read_text())
        assert sorted(timing["methods"]) == sorted(summary["methods"])


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
        retain = d.all_samples(exclude=0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            xt = rng.normal(size=2) * 3
            t = int(rng.integers(2, 41))
            np.testing.assert_allclose(
                retrack_target(retain, xt, t, len(retain), s),
                empirical_denoiser(retain, xt, t, s),
                atol=1e-12,
            )

    def test_invalid_axis_and_empty_values(self, tmp_path):
        cfg = tiny_experiment_config()
        with pytest.raises(ValueError):
            sweep(cfg, "gamma", [1], tmp_path / "x")
        with pytest.raises(ValueError):
            sweep(cfg, "lr", [], tmp_path / "y")
