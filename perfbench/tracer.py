"""Tracing from outside the package: wrappers around its public functions.

Every traced function is replaced, in each ``groupattr`` module that
bound it by name, with a wrapper that times the call and charges its
duration to the calling (traced) function.  Hot functions keep only an
aggregate per (function, parent) pair; phase-level functions also keep
one span per call, with start, end, self time and the id of the span
that caused it.  Everything is held in memory and written as one JSON
document by ``Tracer.write``.

Self time is a call's duration minus the time covered by the traced
calls made inside it.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

# Functions called a few times per run: one span each.
PHASE_FUNCTIONS = {
    "data": ["generate_grouped_dataset"],
    "training": ["train_full", "train_logo"],
    "unlearning": ["unlearn"],
    "attribution": ["attribution_matrix", "prototype_baseline"],
    "metrics": ["rank_report"],
    "checkpoint": ["load_checkpoint", "save_checkpoint"],
}

# Functions called up to millions of times per run: aggregates only.
HOT_FUNCTIONS = {
    "seeding": ["content_rng", "rng_for", "derive_seed"],
    "diffusion": ["forward_marginal", "sample"],
    "denoiser": ["forward_batch", "backward_batch", "loss_and_grad",
                 "optimizer_step", "predict_eps"],
    "training": ["empirical_denoiser"],
    "unlearning": ["preservation_loss", "retrack_target", "retrack_forget_loss",
                   "esd_forget_loss", "conditional_forget_loss", "anchor_select"],
    "scoring": ["elbo_estimate"],
}

# Pipeline phases, and the producer call that marks a phase as a cache miss.
HARNESS_PHASES = {
    "ensure_dataset": "data.generate_grouped_dataset",
    "ensure_train_full": "training.train_full",
    "ensure_train_logo": "training.train_logo",
    "ensure_unlearn": "unlearning.unlearn",
    "ensure_queries": "diffusion.sample",
    "ensure_matrix": ("attribution.attribution_matrix", "attribution.prototype_baseline"),
    "ensure_reports": None,
    "ensure_timing": None,
}


class _Frame:
    __slots__ = ("name", "span_id", "child", "miss")

    def __init__(self, name: str, span_id: int | None):
        self.name = name
        self.span_id = span_id
        self.child = 0.0
        self.miss = False


class Tracer:
    """In-memory spans and per-parent aggregates for one process."""

    def __init__(self):
        self._stack = [_Frame("root", None)]
        self.spans: list[dict] = []
        # (name, parent name) -> [calls, inclusive seconds, self seconds]
        self.agg: dict[tuple[str, str], list] = {}
        self.counters: dict[str, float] = {}
        self.phase_hits = 0
        self.phase_misses = 0
        self._t0 = time.perf_counter()

    # -- instrumentation -------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function of the imported ``groupattr`` package."""
        for module, names in PHASE_FUNCTIONS.items():
            for name in names:
                self._patch(module, name, span=True)
        for module, names in HOT_FUNCTIONS.items():
            for name in names:
                self._patch(module, name, span=False)
        pipeline = sys.modules["groupattr.harness"].Pipeline
        for name in HARNESS_PHASES:
            setattr(pipeline, name, self._wrap(f"harness.{name}", getattr(pipeline, name),
                                               span=True))

    def _patch(self, module: str, name: str, span: bool) -> None:
        original = getattr(sys.modules[f"groupattr.{module}"], name)
        wrapper = self._wrap(f"{module}.{name}", original, span)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "groupattr" or mod_name.startswith("groupattr."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, name: str, fn, span: bool):
        extra = _EXTRAS.get(name)
        producer_of = _PRODUCERS.get(name)
        is_phase = name.startswith("harness.") and HARNESS_PHASES[name[8:]] is not None
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = len(self.spans) if span else None
            if span:
                self.spans.append(None)  # reserve the id so children can refer to it
            frame = _Frame(name, span_id)
            stack.append(frame)
            if producer_of is not None:
                self._mark_miss(producer_of)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                parent.child += dur
                self_s = dur - frame.child
                key = (name, parent.name)
                rec = self.agg.get(key)
                if rec is None:
                    self.agg[key] = [1, dur, self_s]
                else:
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += self_s
                if is_phase:
                    if frame.miss:
                        self.phase_misses += 1
                    else:
                        self.phase_hits += 1
                if span:
                    self.spans[span_id] = {
                        "id": span_id, "name": name, "parent": parent.span_id,
                        "start": start - self._t0, "end": end - self._t0,
                        "self_s": self_s, **({"miss": frame.miss} if is_phase else {}),
                    }
            if extra is not None:
                extra(self, name, args, kwargs, dur)
            return result

        return wrapper

    def _mark_miss(self, phases: tuple[str, ...]) -> None:
        # The nearest enclosing pipeline phase is the one that built the artifact.
        for frame in reversed(self._stack[:-1]):
            if frame.name.startswith("harness."):
                if frame.name in phases:
                    frame.miss = True
                return

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    # -- results -----------------------------------------------------------

    def calls(self, name: str, parent_prefix: str | None = None) -> int:
        return sum(rec[0] for (n, p), rec in self.agg.items()
                   if n == name and (parent_prefix is None or p.startswith(parent_prefix)))

    def seconds(self, name: str) -> float:
        return sum(rec[1] for (n, _), rec in self.agg.items() if n == name)

    def self_seconds(self, name: str) -> float:
        return sum(rec[2] for (n, _), rec in self.agg.items() if n == name)

    def write(self, path: Path, summary: dict) -> None:
        doc = {
            "summary": summary,
            "aggregates": [
                {"name": n, "parent": p, "calls": rec[0], "s": rec[1], "self_s": rec[2]}
                for (n, p), rec in sorted(self.agg.items())
            ],
            "counters": self.counters,
            "spans": self.spans,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc))
        os.replace(tmp, path)


def _forward_rows(tracer, name, args, kwargs, dur):
    xt = args[1] if len(args) > 1 else kwargs["xt"]
    tracer.count("denoiser.forward_batch.rows", len(xt))


def _checkpoint_bytes(tracer, name, args, kwargs, dur):
    path = args[0] if args else kwargs["path"]
    tracer.count(f"{name}.bytes", os.path.getsize(path))


def _unlearn_method(tracer, name, args, kwargs, dur):
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    tracer.count(f"unlearning.unlearn.{cfg.method}.s", dur)


_EXTRAS = {
    "denoiser.forward_batch": _forward_rows,
    "checkpoint.load_checkpoint": _checkpoint_bytes,
    "checkpoint.save_checkpoint": _checkpoint_bytes,
    "unlearning.unlearn": _unlearn_method,
}


def _producers() -> dict[str, tuple[str, ...]]:
    out: dict[str, list[str]] = {}
    for phase, built_by in HARNESS_PHASES.items():
        if built_by is None:
            continue
        for b in (built_by,) if isinstance(built_by, str) else built_by:
            out.setdefault(b, []).append(f"harness.{phase}")
    return {k: tuple(v) for k, v in out.items()}


_PRODUCERS = _producers()
