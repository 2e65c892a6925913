"""The package names the benchmark's tracer wraps must exist, and the
run records its checks read must pass them.

``perfbench/tracer.py`` replaces functions and ``Pipeline`` methods by
name when ``--trace 1`` installs it, so a rename in the package breaks
traced runs.  The tracer module imports only the standard library and
is loaded here by path, read-only.  Some wrappers also read an
argument by position, so those positions are checked by signature.
``perfbench/checks.py`` is loaded the same way to check ``timing.json``.
The tracer counts a function's calls only where the package calls it
through the module-level name it replaces.
"""

import collections
import dataclasses
import importlib
import importlib.util
import inspect
import math
from pathlib import Path

import pytest

from groupattr import training, unlearning
from groupattr.data import DatasetSpec, generate_grouped_dataset
from groupattr.denoiser import Architecture, init_network
from groupattr.diffusion import build_schedule
from groupattr.harness import Pipeline, run_experiment
from groupattr.metrics import rank_report

from conftest import tiny_experiment_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


@pytest.fixture(scope="module")
def checks():
    return _load("checks")


def test_traced_functions_resolve(tracer):
    for table in (tracer.PHASE_FUNCTIONS, tracer.HOT_FUNCTIONS):
        for module, names in table.items():
            mod = importlib.import_module(f"groupattr.{module}")
            for name in names:
                assert callable(getattr(mod, name, None)), f"groupattr.{module}.{name}"


def test_harness_phases_are_pipeline_methods(tracer):
    for phase, producers in tracer.HARNESS_PHASES.items():
        assert callable(getattr(Pipeline, phase, None)), f"Pipeline.{phase}"
        for producer in (producers,) if isinstance(producers, str) else producers or ():
            module, name = producer.split(".")
            assert callable(getattr(importlib.import_module(f"groupattr.{module}"), name, None))


def test_workload_entry_points_exist():
    for name in ("method_names", "provenance"):
        assert callable(getattr(Pipeline, name, None)), f"Pipeline.{name}"


# Arguments the tracer's ``_EXTRAS`` read by position: (traced name, index, parameter).
EXTRA_ARGS = [
    ("denoiser.forward_batch", 1, "xt"),
    ("unlearning.unlearn", 3, "cfg"),
    ("checkpoint.load_checkpoint", 0, "path"),
    ("checkpoint.save_checkpoint", 0, "path"),
]


def test_every_extra_is_checked(tracer):
    assert set(tracer._EXTRAS) == {traced for traced, _, _ in EXTRA_ARGS}


@pytest.mark.parametrize("traced, index, name", EXTRA_ARGS)
def test_extras_read_the_named_positional_argument(tracer, traced, index, name):
    module, fn = traced.split(".")
    params = list(inspect.signature(
        getattr(importlib.import_module(f"groupattr.{module}"), fn)).parameters.values())
    assert params[index].name == name
    assert params[index].kind in (inspect.Parameter.POSITIONAL_ONLY,
                                  inspect.Parameter.POSITIONAL_OR_KEYWORD)


def test_rank_reports_pass_pred_and_gold_by_position():
    """``workloads.write_rank_reports`` calls ``metrics.rank_report(pred, gold)``."""
    params = list(inspect.signature(rank_report).parameters.values())[:2]
    assert [p.name for p in params] == ["pred", "gold"]
    for p in params:
        assert p.kind in (inspect.Parameter.POSITIONAL_ONLY,
                          inspect.Parameter.POSITIONAL_OR_KEYWORD)


# Configuration names ``perfbench`` reaches through ``groupattr.harness``, and
# the keyword fields it passes to each.
BENCH_CONFIG_FIELDS = {
    "ScheduleSpec": (),
    "ArchSpec": (),
    "QuerySpec": (),
    "ElboSpec": (),
    "TrainSpec": ("epochs", "batch_size", "lr"),
    "UnlearnSpec": ("method", "steps_or_epochs", "lr", "lambda_forget", "lambda_pres",
                    "kl_cap", "timestep_range", "batch_size"),
}


@pytest.mark.parametrize("name, keywords", sorted(BENCH_CONFIG_FIELDS.items()))
def test_bench_config_names_and_fields(name, keywords):
    harness = importlib.import_module("groupattr.harness")
    spec = getattr(harness, name, None)
    assert dataclasses.is_dataclass(spec), f"groupattr.harness.{name}"
    assert set(keywords) <= {f.name for f in dataclasses.fields(spec)}


def test_bench_default_config_entry_point():
    harness = importlib.import_module("groupattr.harness")
    assert callable(getattr(harness, "default_experiment_config", None))


def test_timing_step_ratio_passes_the_bench_check(checks, tiny_run, tmp_path):
    """``timing.json`` carries the LOGO-to-unlearning step ratio the
    benchmark checks: the config's ratio with LOGO as the gold, and 0.0
    when no LOGO model was trained."""
    cfg, out, _ = tiny_run
    assert checks.check_step_ratio(out, checks.expected_step_ratio(cfg, True)) == []
    oracle_gold = tmp_path / "oracle_gold"
    run_experiment(cfg, oracle_gold, gold="oracle")
    assert checks.check_step_ratio(oracle_gold, checks.expected_step_ratio(cfg, False)) == []


@pytest.mark.parametrize("method, traced", [("retrack", "retrack_target"),
                                            ("cond_anchor", "anchor_select")])
def test_unlearn_calls_the_traced_functions_by_module_name(method, traced, monkeypatch):
    """An ``unlearn`` of S steps calls ``unlearning.retrack_target`` (retrack)
    and ``unlearning.anchor_select`` (cond_anchor) once per draw block,
    ceil(S / ``_DRAW_BLOCK``) times, each through the name the tracer
    replaces."""
    calls = []
    real = getattr(unlearning, traced)

    def counting(*args, **kwargs):
        calls.append(traced)
        return real(*args, **kwargs)

    monkeypatch.setattr(unlearning, traced, counting)
    d = generate_grouped_dataset(DatasetSpec(n_groups=3, samples_per_group=12, conditional=True,
                                             descriptor_dim=4), seed=6)
    p = init_network(Architecture(input_dim=2, hidden_dims=(6,), time_embed_dim=4, cond_dim=7),
                     seed=1)
    steps = 2 * unlearning._DRAW_BLOCK + 3
    cfg = unlearning.UnlearnSpec(method=method, steps_or_epochs=steps, lr=1e-3, K=4,
                                 batch_size=4)
    unlearning.unlearn(p, d, 0, cfg, build_schedule(40), 3)
    assert len(calls) == math.ceil(steps / unlearning._DRAW_BLOCK)


@pytest.mark.parametrize("which", ["train_full", "train_logo", "retrack", "esd", "cond_anchor"])
def test_steps_call_optimizer_step_by_module_name(which, monkeypatch):
    """Every training and unlearning step calls ``training.optimizer_step``
    or ``unlearning.optimizer_step``, the names the tracer replaces, so a
    run of S steps makes S calls there: ``training.steps`` and
    ``unlearning.steps`` count them."""
    calls = []
    for module in (training, unlearning):
        def counting(run, grad, real=module.optimizer_step, name=module.__name__):
            calls.append(name)
            return real(run, grad)

        monkeypatch.setattr(module, "optimizer_step", counting)
    d = generate_grouped_dataset(DatasetSpec(n_groups=3, samples_per_group=12, conditional=True,
                                             descriptor_dim=4), seed=6)
    arch = Architecture(input_dim=2, hidden_dims=(6,), time_embed_dim=4, cond_dim=7)
    s = build_schedule(40)
    train = training.TrainSpec(epochs=2, batch_size=8)
    if which == "train_full":
        run, module = training.train_full(d, arch, train, s, 3), training
    elif which == "train_logo":
        run, module = training.train_logo(d, 1, arch, train, s, 3), training
    else:
        cfg = unlearning.UnlearnSpec(method=which, steps_or_epochs=unlearning._DRAW_BLOCK + 3,
                                     lr=1e-3, K=4, batch_size=4)
        run = unlearning.unlearn(init_network(arch, seed=1), d, 0, cfg, s, 3)
        module = unlearning
    assert run.steps > 0
    assert calls == [module.__name__] * run.steps


# The objective each unlearning method's forget term calls.
FORGET_LOSSES = {"retrack": "retrack_forget_loss", "esd": "esd_forget_loss",
                 "cond_anchor": "conditional_forget_loss"}


@pytest.mark.parametrize("which", ["train_full", "train_logo", "retrack", "esd", "cond_anchor"])
def test_steps_call_their_objectives_by_module_name(which, monkeypatch):
    """Every training step calls ``training.loss_and_grad``, and every
    unlearning step calls its forget loss and ``unlearning.preservation_loss``,
    each of which calls ``unlearning.loss_and_grad``: the names the tracer
    replaces, so their per-layer seconds are charged to them."""
    calls = []
    names = {training: ["loss_and_grad"],
             unlearning: ["loss_and_grad", "preservation_loss", *FORGET_LOSSES.values()]}
    for module, fns in names.items():
        for fn in fns:
            def counting(*args, real=getattr(module, fn), name=f"{module.__name__}.{fn}",
                         **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, fn, counting)
    d = generate_grouped_dataset(DatasetSpec(n_groups=3, samples_per_group=12, conditional=True,
                                             descriptor_dim=4), seed=6)
    arch = Architecture(input_dim=2, hidden_dims=(6,), time_embed_dim=4, cond_dim=7)
    s = build_schedule(40)
    train = training.TrainSpec(epochs=2, batch_size=8)
    if which == "train_full":
        run = training.train_full(d, arch, train, s, 3)
    elif which == "train_logo":
        run = training.train_logo(d, 1, arch, train, s, 3)
    else:
        cfg = unlearning.UnlearnSpec(method=which, steps_or_epochs=unlearning._DRAW_BLOCK + 3,
                                     lr=1e-3, K=4, batch_size=4)
        run = unlearning.unlearn(init_network(arch, seed=1), d, 0, cfg, s, 3)
    assert run.steps > 0
    if which.startswith("train"):
        want = {"groupattr.training.loss_and_grad": run.steps}
    else:
        want = {f"groupattr.unlearning.{FORGET_LOSSES[which]}": run.steps,
                "groupattr.unlearning.preservation_loss": run.steps,
                "groupattr.unlearning.loss_and_grad": 2 * run.steps}
    assert collections.Counter(calls) == want
