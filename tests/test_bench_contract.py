"""The package names the benchmark's tracer wraps must exist.

``perfbench/tracer.py`` replaces functions and ``Pipeline`` methods by
name when ``--trace 1`` installs it, so a rename in the package breaks
traced runs.  The tracer module imports only the standard library and
is loaded here by path, read-only.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from groupattr.harness import Pipeline

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
