"""Benchmark of the groupattr attribution pipeline.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload desk --seed 0 --seconds 35 --trace 0

Workloads: ``desk``, ``requery``, ``many-groups`` (see README.md).  The
run sets up the workload three times, then runs whole timed rounds while
the next one is expected to end within ``--seconds``, checks every
round's outputs, and prints one JSON object as its last line of standard
output.  With ``--trace 0`` it holds the end-to-end metrics, in seconds
scaled to a reference host speed (``workloads.Clock``); with
``--trace 1`` the package's public functions are wrapped first, it holds
the per-layer metrics, and the full trace is written under
``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else float("nan")


def end_to_end(w, rounds) -> dict[str, tuple[float, str]]:
    q = w.queries()
    # On requery the models are built in set-up; elsewhere in the timed rounds.
    build = w.setup_rounds or rounds
    return {
        "setup_s": (median(w.setup_times), "s"),
        "run_s": (median([r.run_s for r in rounds]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "cf_group_s": (median([mean(r.seconds("train_logo") + r.seconds("unlearn"))
                               for r in build]), "s"),
        "unlearn_group_s.retrack": (median([mean(r.seconds("unlearn.retrack"))
                                            for r in build]), "s"),
        "query_ms": (median([1e3 * (r.seconds("queries")[0] + sum(r.seconds("matrix"))) / q
                             for r in rounds]), "ms"),
    }


def phase_breakdown(w, rounds) -> dict[str, float]:
    """Per-phase medians kept in the run record beside the printed metrics.

    A few calls of about a second per round are too noisy on a shared
    host to gate on, and some phases exist on one workload only.
    """
    q = w.queries()
    build = w.setup_rounds or rounds
    out = {
        "train_full_s": median([r.seconds("train_full")[0] for r in build]),
        "logo_group_s": median([mean(r.seconds("train_logo")) for r in build]),
        "sample_ms": median([1e3 * r.seconds("queries")[0] / q for r in rounds]),
        "score_ms.network": median([1e3 * mean(r.seconds("matrix.network")) / q
                                    for r in rounds]),
        "reports_s": median([r.seconds("reports")[0] for r in rounds]),
        "raw_run_s": median([r.raw_s for r in rounds]),
    }
    for spec in w.cfg.unlearn_methods:
        out[f"unlearn_group_s.{spec.method}"] = median(
            [mean(r.seconds(f"unlearn.{spec.method}")) for r in build])
    for name, _, _ in rounds[0].ops:
        if name.startswith("matrix."):
            out[f"score_ms.{name.split('.')[-1]}"] = median(
                [1e3 * r.seconds(name)[0] / q for r in rounds])
    return {k: v for k, v in out.items() if not math.isnan(v)}


def per_layer(t, rounds) -> dict[str, tuple[float, str]]:
    from tracer import HARNESS_PHASES

    n = len(rounds)
    fwd_calls = t.calls("denoiser.forward_batch")
    rows = t.counters.get("denoiser.forward_batch.rows", 0.0)
    m = {
        "seeding.content_rng.calls": (t.calls("seeding.content_rng"), "count"),
        "seeding.content_rng.s": (t.seconds("seeding.content_rng"), "s"),
        "seeding.rng_for.calls": (t.calls("seeding.rng_for"), "count"),
        "seeding.rng_for.s": (t.seconds("seeding.rng_for"), "s"),
        "seeding.derive_seed.calls": (t.calls("seeding.derive_seed"), "count"),
        "denoiser.forward_batch.calls": (fwd_calls, "count"),
        "denoiser.forward_batch.rows": (rows, "count"),
        "denoiser.forward_batch.s": (t.seconds("denoiser.forward_batch"), "s"),
        "denoiser.predict_eps.calls": (t.calls("denoiser.predict_eps"), "count"),
        "denoiser.backward_batch.calls": (t.calls("denoiser.backward_batch"), "count"),
        "denoiser.backward_batch.s": (t.seconds("denoiser.backward_batch"), "s"),
        "denoiser.loss_and_grad.self_s": (t.self_seconds("denoiser.loss_and_grad"), "s"),
        "denoiser.optimizer_step.calls": (t.calls("denoiser.optimizer_step"), "count"),
        "denoiser.optimizer_step.s": (t.seconds("denoiser.optimizer_step"), "s"),
        "diffusion.forward_marginal.calls": (t.calls("diffusion.forward_marginal"), "count"),
        "diffusion.forward_marginal.s": (t.seconds("diffusion.forward_marginal"), "s"),
        "diffusion.sample.calls": (t.calls("diffusion.sample"), "count"),
        "diffusion.sample.self_s": (t.self_seconds("diffusion.sample"), "s"),
        "training.steps": (t.calls("denoiser.optimizer_step", "training."), "count"),
        "training.train_full.s": (t.seconds("training.train_full"), "s"),
        "training.train_logo.s": (t.seconds("training.train_logo"), "s"),
        "training.empirical_denoiser.calls": (t.calls("training.empirical_denoiser"), "count"),
        "training.empirical_denoiser.s": (t.seconds("training.empirical_denoiser"), "s"),
        "unlearning.steps": (t.calls("denoiser.optimizer_step", "unlearning."), "count"),
        "unlearning.unlearn.s": (t.seconds("unlearning.unlearn"), "s"),
        "unlearning.unlearn.retrack.s": (t.counters.get("unlearning.unlearn.retrack.s", 0.0), "s"),
        "unlearning.unlearn.esd.s": (t.counters.get("unlearning.unlearn.esd.s", 0.0), "s"),
        "unlearning.unlearn.cond_anchor.s": (
            t.counters.get("unlearning.unlearn.cond_anchor.s", 0.0), "s"),
        "unlearning.preservation_loss.self_s": (
            t.self_seconds("unlearning.preservation_loss"), "s"),
        "unlearning.retrack_target.calls": (t.calls("unlearning.retrack_target"), "count"),
        "unlearning.retrack_target.s": (t.seconds("unlearning.retrack_target"), "s"),
        "unlearning.retrack_forget_loss.self_s": (
            t.self_seconds("unlearning.retrack_forget_loss"), "s"),
        "unlearning.esd_forget_loss.self_s": (t.self_seconds("unlearning.esd_forget_loss"), "s"),
        "unlearning.conditional_forget_loss.self_s": (
            t.self_seconds("unlearning.conditional_forget_loss"), "s"),
        "unlearning.anchor_select.calls": (t.calls("unlearning.anchor_select"), "count"),
        "scoring.elbo_estimate.calls": (t.calls("scoring.elbo_estimate"), "count"),
        "scoring.elbo_estimate.self_s": (t.self_seconds("scoring.elbo_estimate"), "s"),
        "attribution.attribution_matrix.s": (t.seconds("attribution.attribution_matrix"), "s"),
        "attribution.prototype_baseline.s": (t.seconds("attribution.prototype_baseline"), "s"),
        "metrics.rank_report.s": (t.seconds("metrics.rank_report"), "s"),
        "checkpoint.load_checkpoint.calls": (t.calls("checkpoint.load_checkpoint"), "count"),
        "checkpoint.load_checkpoint.bytes": (
            t.counters.get("checkpoint.load_checkpoint.bytes", 0.0), "B"),
        "checkpoint.load_checkpoint.s": (t.seconds("checkpoint.load_checkpoint"), "s"),
        "checkpoint.save_checkpoint.calls": (t.calls("checkpoint.save_checkpoint"), "count"),
        "checkpoint.save_checkpoint.bytes": (
            t.counters.get("checkpoint.save_checkpoint.bytes", 0.0), "B"),
        "data.generate_grouped_dataset.s": (t.seconds("data.generate_grouped_dataset"), "s"),
        "harness.phase_hits": (t.phase_hits, "count"),
        "harness.phase_misses": (t.phase_misses, "count"),
        "harness.self_s": (sum(t.self_seconds(f"harness.{p}") for p in HARNESS_PHASES), "s"),
    }
    # Totals over the run become per-round figures, so runs of any length compare.
    m = {k: (v / n, unit) for k, (v, unit) in m.items()}
    m["denoiser.forward_batch.rows_per_call"] = (rows / fwd_calls if fwd_calls else 0.0,
                                                 "rows/call")
    m["trace.run_s"] = (median([r.run_s for r in rounds]), "s")
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "groupattr" / "__init__.py").is_file():
        print(f"groupattr sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import numpy  # noqa: F401  (loaded before set-up so no repeat pays for it)
    import scipy.stats  # noqa: F401

    import checks
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out = OUT / args.workload / f"seed{args.seed}"
    for old in list(out.glob("round*")) + list(out.glob("cache*")):
        shutil.rmtree(old, ignore_errors=True)
    clock = workloads.Clock()
    w = workloads.WORKLOADS[args.workload](args.seed, out, clock)
    w.setup()

    tracer = Tracer()
    if args.trace:
        tracer.install()

    rounds, walls, failures, reference = [], [], [], None
    deadline = time.perf_counter() + args.seconds
    # Whole rounds only: start one while it is expected to end by the deadline.
    while len(rounds) < w.min_rounds or (
            time.perf_counter() + median(walls) <= deadline):
        i = len(rounds)
        tic = time.perf_counter()
        rec = w.round(i)
        walls.append(time.perf_counter() - tic)
        if rec.failed == 0:
            rec.failures = w.check(i, rec)
            digests = checks.digests(w.run_dir(i))
            if reference is None:
                reference = digests
            rec.failures += checks.check_same_files(
                f"round {i} outputs differ from round 0", reference, digests)
        failures += [f"round {i}: {f}" for f in rec.failures]
        rounds.append(rec)
        print(f"{args.workload} seed {args.seed} round {i}: {rec.run_s:.3f} s scaled, "
              f"{rec.raw_s:.3f} s raw, {len(rec.ops)} ops, {rec.failed} failed, "
              f"{len(rec.failures)} check failures", file=sys.stderr)

    metrics = per_layer(tracer, rounds) if args.trace else end_to_end(w, rounds)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "setup_times": w.setup_times,
        "round_walls": walls,
        "round_run_s": [r.run_s for r in rounds],
        "round_raw_s": [r.raw_s for r in rounds],
        "phase_breakdown": phase_breakdown(w, rounds),
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "check_failures": failures,
        "digests": reference,
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / f"record-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        tracer.write(out / "trace.json", record)
    for f in failures:
        print(f"CHECK FAILED: {f}", file=sys.stderr)

    result = {
        "correct": not failures,
        "attempted": sum(len(r.ops) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
