"""Command-line entry points for the experiment pipeline.

Subcommands mirror the pipeline phases; each one materializes its
prerequisites on demand and reuses cached artifacts when the
configuration matches.  Exit code 0 on success, 1 with a phase-tagged
message on failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (
    SWEEP_AXES,
    ExperimentConfig,
    PhaseError,
    Pipeline,
    default_experiment_config,
    sweep,
)
from .unlearning import UNLEARN_METHODS

_CLI_METHOD = {m.replace("_", "-"): m for m in UNLEARN_METHODS}


def _load_config(args) -> ExperimentConfig:
    if args.config:
        cfg = ExperimentConfig.from_json(args.config)
    else:
        cfg = default_experiment_config()
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    return cfg


def _pipeline(args) -> Pipeline:
    return Pipeline(_load_config(args), args.out)


def cmd_gen_data(args) -> None:
    p = _pipeline(args)
    d = p.ensure_dataset()
    print(f"dataset: {d.n_groups} groups x {len(d.groups[0])} samples, dim={d.dim}")


def cmd_train_full(args) -> None:
    p = _pipeline(args)
    params = p.ensure_train_full()
    print(f"full model trained ({params.param_count} parameters)")


def cmd_train_logo(args) -> None:
    p = _pipeline(args)
    p.ensure_train_logo(args.group)
    print(f"leave-one-group-out model trained for group {args.group}")


def cmd_unlearn(args) -> None:
    p = _pipeline(args)
    method = _CLI_METHOD[args.method]
    p.ensure_unlearn(method, args.group)
    print(f"unlearned group {args.group} with method {args.method}")


def cmd_attribute(args) -> None:
    p = _pipeline(args)
    mat = p.ensure_matrix(args.method)
    print(f"attribution matrix {args.method}: {mat.scores.shape[0]} queries x "
          f"{mat.scores.shape[1]} groups")


def cmd_evaluate(args) -> None:
    p = _pipeline(args)
    reports = p.ensure_reports(gold=args.gold)
    for method, rep in reports.items():
        print(f"{method:12s} top1={rep.top1:.3f} mrr={rep.mrr:.3f} "
              f"ndcg3={rep.ndcg3:.3f} top3={rep.top3:.3f} "
              f"rbo={rep.rbo:.3f} spearman={rep.spearman:.3f}")


def cmd_sweep(args) -> None:
    cfg = _load_config(args)
    values = [v for v in args.values.split(",") if v]
    rows = sweep(cfg, args.axis, values, args.out, gold=args.gold)
    print(json.dumps(rows, indent=1, sort_keys=True))


def cmd_report(args) -> None:
    p = _pipeline(args)
    rep = p.ensure_timing()
    print(json.dumps(rep.to_dict(), indent=1, sort_keys=True))


def cmd_run(args) -> None:
    p = _pipeline(args)
    summary = p.run_all(gold=args.gold)
    print(json.dumps(summary["reports"], indent=1, sort_keys=True))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupattr",
        description="Counterfactual group attribution benchmark for toy diffusion models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.add_argument("--config", type=Path, default=None, help="experiment config JSON")
        sp.add_argument("--seed", type=int, default=None, help="master seed override")
        sp.add_argument("--out", type=Path, required=True, help="run directory")
        sp.set_defaults(fn=fn)
        return sp

    add("gen-data", cmd_gen_data, help="generate the grouped dataset")
    add("train-full", cmd_train_full, help="train the all-group model")
    sp = add("train-logo", cmd_train_logo, help="train one leave-one-group-out model")
    sp.add_argument("--group", type=int, required=True)
    sp = add("unlearn", cmd_unlearn, help="unlearn one group from the full model")
    sp.add_argument("--group", type=int, required=True)
    sp.add_argument("--method", choices=sorted(_CLI_METHOD), required=True)
    sp = add("attribute", cmd_attribute, help="compute one attribution matrix")
    sp.add_argument("--method", required=True)
    sp = add("evaluate", cmd_evaluate, help="rank reports against the gold matrix")
    sp.add_argument("--gold", default="logoa")
    sp = add("sweep", cmd_sweep, help="run the pipeline over one unlearning axis")
    sp.add_argument("--axis", choices=SWEEP_AXES, required=True)
    sp.add_argument("--values", required=True, help="comma-separated values")
    sp.add_argument("--gold", default="logoa")
    sp = add("report", cmd_report, help="print the timing decomposition")
    sp = add("run", cmd_run, help="run the full pipeline")
    sp.add_argument("--gold", default="logoa")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except PhaseError as e:
        print(str(e), file=sys.stderr)
        return 1
    except Exception as e:  # anything untagged counts as a harness failure
        print(f"[harness] {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
