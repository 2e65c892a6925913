"""Command-line interface: subcommands, exit codes, phase-tagged errors."""

import json

import numpy as np
import pytest

from groupattr.cli import main
from groupattr.harness import ExperimentConfig

from conftest import tiny_experiment_config


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "config.json"
    tiny_experiment_config().to_json(path)
    return path


class TestSubcommands:
    def test_gen_data(self, config_path, tmp_path, capsys):
        rc = main(["gen-data", "--config", str(config_path), "--out", str(tmp_path)])
        assert rc == 0
        assert "3 groups" in capsys.readouterr().out
        assert (tmp_path / "dataset.npz").exists()

    def test_phase_chain_through_cli(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(["train-full", "--config", str(config_path), "--out", out]) == 0
        assert main(["train-logo", "--group", "1", "--config", str(config_path),
                     "--out", out]) == 0
        assert main(["unlearn", "--group", "1", "--method", "retrack",
                     "--config", str(config_path), "--out", out]) == 0
        assert main(["attribute", "--method", "prototype",
                     "--config", str(config_path), "--out", out]) == 0
        capsys.readouterr()
        # evaluate materializes all remaining phases on demand.
        assert main(["evaluate", "--gold", "logoa", "--config", str(config_path),
                     "--out", out]) == 0
        assert "logoa" in capsys.readouterr().out
        assert main(["report", "--config", str(config_path), "--out", out]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert "methods" in rep

    def test_cond_anchor_method_name_mapping(self, tmp_path):
        from groupattr.harness import UnlearnSpec

        cfg = tiny_experiment_config(unlearn_methods=(
            UnlearnSpec(method="cond_anchor", steps_or_epochs=2, lr=1e-4,
                        timestep_range=(1, 40)),
        ))
        cfg_path = tmp_path / "cfg.json"
        cfg.to_json(cfg_path)
        rc = main(["unlearn", "--group", "0", "--method", "cond-anchor",
                   "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert rc == 0
        assert (tmp_path / "run" / "checkpoints" / "unlearn_cond_anchor_0.ckpt").exists()

    def test_unlearn_method_choices(self, config_path, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["unlearn", "--group", "0", "--method", "cond_anchor",
                  "--config", str(config_path), "--out", str(tmp_path)])
        assert "(choose from 'cond-anchor', 'esd', 'retrack')" in capsys.readouterr().err

    def test_seed_override_changes_outputs(self, config_path, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["gen-data", "--config", str(config_path), "--out", a]) == 0
        assert main(["gen-data", "--config", str(config_path), "--seed", "99",
                     "--out", b]) == 0
        with np.load(f"{a}/dataset.npz") as za, np.load(f"{b}/dataset.npz") as zb:
            assert not np.array_equal(za["group_0"], zb["group_0"])

    def test_run_subcommand(self, config_path, tmp_path, capsys):
        rc = main(["run", "--config", str(config_path), "--out", str(tmp_path / "all")])
        assert rc == 0
        reports = json.loads(capsys.readouterr().out)
        assert reports["logoa"]["top1"] == 1.0


def _edited_config(tmp_path, section, key, value):
    """The tiny config's JSON with ``key`` of ``section`` (its first
    unlearning method for ``unlearn_methods``) set to ``value``."""
    doc = tiny_experiment_config().to_dict()
    part = doc[section][0] if section == "unlearn_methods" else doc[section]
    part[key] = value
    if (section, key) == ("schedule", "num_steps"):
        # The unlearning ranges are sized for T = 40; with the default
        # range T is the only bad value.
        for u in doc["unlearn_methods"]:
            u["timestep_range"] = None
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


class TestFailures:
    def test_unconfigured_attribute_method_fails_with_phase_tag(
        self, config_path, tmp_path, capsys
    ):
        rc = main(["attribute", "--method", "cond_anchor",
                   "--config", str(config_path), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("[attribute]")
        assert "cond_anchor" in err

    def test_bad_group_index_fails(self, config_path, tmp_path, capsys):
        rc = main(["train-logo", "--group", "9", "--config", str(config_path),
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "[train_logo]" in capsys.readouterr().err

    def test_missing_timing_records_fails(self, config_path, tmp_path, capsys):
        rc = main(["report", "--config", str(config_path),
                   "--out", str(tmp_path / "empty")])
        assert rc == 1
        assert "[report]" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("unlearn_methods", "method", "bogus"),
        ("train", "epochs", -1),
        ("unlearn_methods", "timestep_range", [1, 500]),
        ("queries", "steps", 500),
        ("queries", "method", "euler"),
        ("arch", "activation", "tanh"),
        ("schedule", "kind", "cosine"),
        ("elbo", "stride", 0),
        ("schedule", "num_steps", 1),
        ("queries", "steps", 0),
        ("queries", "clip_x0", -1.0),
        ("unlearn_methods", "batch_size", 0),
        ("train", "weight_decay", -1.0),
        ("dataset", "noise_std", -1.0),
        ("dataset", "descriptor_dim", -1),
        ("queries", "count", -1),
        ("queries", "cond_mode", "style"),
        ("unlearn_methods", "lr", 0.0),
        ("unlearn_methods", "steps_or_epochs", -1),
        ("unlearn_methods", "lambda_forget", -0.1),
        ("unlearn_methods", "kl_cap", -1.0),
        ("unlearn_methods", "eta_mix", 1.5),
        ("unlearn_methods", "tau", 0.0),
        ("unlearn_methods", "timestep_range", [5, 2]),
        ("train", "batch_size", 0),
        ("train", "lr", 0.0),
        ("dataset", "samples_per_group", 0),
        ("dataset", "dim", 0),
    ])
    def test_bad_config_fails_before_any_phase(self, tmp_path, capsys, section, key, value):
        """Every stage's settings are checked when the config is built, so a
        bad one fails before the run directory is made."""
        cfg_path = _edited_config(tmp_path, section, key, value)
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("[")
        assert not out.exists()

    def test_timestep_range_past_T_is_refused_at_load(self, tmp_path):
        # The tiny config has T = 40.
        cfg_path = _edited_config(tmp_path, "unlearn_methods", "timestep_range", [1, 500])
        with pytest.raises(ValueError, match=r"retrack: timestep range \(1, 500\) exceeds T=40"):
            ExperimentConfig.from_json(cfg_path)

    @pytest.mark.parametrize("section, key", [
        ("train", "cond_dropout"),
        ("unlearn_methods", "cond_dropout"),
        ("train", "logo_from_checkpoint"),
    ])
    def test_removed_config_keys_are_refused(self, tmp_path, section, key):
        cfg_path = _edited_config(tmp_path, section, key, 0.1 if key == "cond_dropout" else False)
        with pytest.raises(TypeError, match=key):
            ExperimentConfig.from_json(cfg_path)

    def test_study_requires_known_axis(self, config_path, tmp_path, capsys):
        out = tmp_path / "st"
        rc = main(["study", "--axis", "bogus", "1", "--config", str(config_path),
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("[harness] unknown config path 'bogus'")
        assert not out.exists()


class TestStudyCommand:
    def test_study_lambda(self, config_path, tmp_path, capsys):
        """Values are JSON (0.03 is a float), or else text (ddpm)."""
        rc = main(["study", "--axis", "unlearn.lambda_forget", "0.03",
                   "--axis", "queries.method", "ddpm",
                   "--config", str(config_path), "--out", str(tmp_path / "st")])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        cells = {(r["unlearn.lambda_forget"], r["queries.method"]) for r in rows}
        assert cells == {(0.03, "ddpm")}
        assert (tmp_path / "st" / "study.csv").exists()
        assert (tmp_path / "st" / "unlearn.lambda_forget=0.03,queries.method=ddpm").is_dir()
