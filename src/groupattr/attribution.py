"""Attribution matrices: per-query, per-group counterfactual influence scores.

``attribution_matrix`` scores each query against every counterfactual
model by the paired ELBO difference; ``prototype_baseline`` scores by
cosine similarity to per-group mean embeddings.  Matrices serialize to
CSV (one row per query) and JSON (with method metadata).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .data import GroupedDataset
from .diffusion import Schedule
from .scoring import ElboConfig, check_input_dims, elbo_block
from .seeding import derive_seed

Query = tuple[np.ndarray, "np.ndarray | None"]


@dataclass(frozen=True)
class AttributionMatrix:
    """Q x N score matrix with a method tag."""

    method: str
    scores: np.ndarray
    query_ids: list[str]
    group_names: list[str]

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.ndim != 2:
            raise ValueError("scores must be a 2-D matrix")
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores contain non-finite entries")
        if scores.shape != (len(self.query_ids), len(self.group_names)):
            raise ValueError(
                f"scores shape {scores.shape} inconsistent with "
                f"{len(self.query_ids)} queries x {len(self.group_names)} groups"
            )
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)

    def to_csv(self, path: str | Path, provenance: dict | None = None) -> None:
        with open(path, "w", newline="") as f:
            if provenance:
                f.write("# " + json.dumps(provenance, sort_keys=True) + "\n")
            writer = csv.writer(f)
            writer.writerow(["query_id", *self.group_names])
            for qid, row in zip(self.query_ids, self.scores):
                writer.writerow([qid, *[repr(float(v)) for v in row]])

    @classmethod
    def from_csv(cls, path: str | Path, method: str = "") -> "AttributionMatrix":
        text = Path(path).read_text()
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        rows = list(csv.reader(io.StringIO("\n".join(lines))))
        header = rows[0]
        query_ids = [r[0] for r in rows[1:]]
        scores = np.array(
            [[float(v) for v in r[1:]] for r in rows[1:]], dtype=np.float64
        ).reshape(len(query_ids), len(header) - 1)
        return cls(method, scores, query_ids, header[1:])

    def to_json(self, path: str | Path, provenance: dict | None = None) -> None:
        doc = {
            "method": self.method,
            "group_names": self.group_names,
            "query_ids": self.query_ids,
            "scores": self.scores.tolist(),
        }
        if provenance:
            doc["provenance"] = provenance
        Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1))

    @classmethod
    def from_json(cls, path: str | Path) -> "AttributionMatrix":
        doc = json.loads(Path(path).read_text())
        names = list(doc["group_names"])
        qids = list(doc["query_ids"])
        scores = np.array(doc["scores"], dtype=np.float64).reshape(len(qids), len(names))
        return cls(doc["method"], scores, qids, names)


def attribution_matrix(
    queries: Sequence[Query],
    model_full,
    counterfactuals: Sequence,
    cfg: ElboConfig,
    s: Schedule,
    method: str = "elbo_diff",
    group_names: Sequence[str] | None = None,
    query_ids: Sequence[str] | None = None,
) -> AttributionMatrix:
    """scores[q][k] = ELBO(full) - ELBO(counterfactual k) for query q.

    Every query gets its own noise stream derived from (cfg.noise_seed,
    q); within a query all models share that stream, so identical
    models produce exactly zero columns.  All queries and models are
    scored in one ``elbo_block`` call.
    """
    n = len(counterfactuals)
    check_input_dims([model_full, *counterfactuals])

    x0 = np.array([x for x, _ in queries], dtype=np.float64)
    conds = [c for _, c in queries]
    cond = None if all(c is None for c in conds) else np.stack(conds)
    seeds = [derive_seed(cfg.noise_seed, "query", q) for q in range(len(queries))]
    elbos = elbo_block([model_full, *counterfactuals], x0, cond, seeds, cfg, s)
    scores = elbos[0] - elbos[1:]
    qids = list(query_ids) if query_ids is not None else [f"q{q}" for q in range(len(queries))]
    names = list(group_names) if group_names is not None else [f"group{k}" for k in range(n)]
    return AttributionMatrix(method, scores.T, qids, names)


def prototype_baseline(
    queries: Sequence[Query],
    d: GroupedDataset,
    embed: Callable[[np.ndarray], np.ndarray] | None = None,
) -> AttributionMatrix:
    """Cosine similarity between embedded queries and group prototypes.

    The prototype of a group is the mean of its embedded samples; the
    default embedding is the identity on sample space.
    """
    if embed is None:
        embed = lambda x: np.asarray(x, dtype=np.float64)
    prototypes = np.stack([
        np.mean([embed(x) for x in g], axis=0) for g in d.groups
    ])
    proto_norms = np.linalg.norm(prototypes, axis=1)
    if np.any(proto_norms == 0.0):
        raise FloatingPointError("zero-norm group prototype embedding")

    scores = np.zeros((len(queries), d.n_groups))
    for q, (x0, _) in enumerate(queries):
        e = embed(x0)
        norm = np.linalg.norm(e)
        if norm == 0.0:
            raise FloatingPointError(f"zero-norm embedding for query {q}")
        scores[q] = prototypes @ e / (proto_norms * norm)
    qids = [f"q{q}" for q in range(len(queries))]
    return AttributionMatrix("prototype", scores, qids, list(d.group_names))
