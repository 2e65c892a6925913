"""Attribution matrices: per-query, per-group counterfactual influence scores.

``attribution_matrix`` scores a query block, x0 (Q, dim) and cond
(Q, cond_dim) or None, against every counterfactual model by the paired
ELBO difference, on a ``scoring.ElboGrid`` that it forms or that a
pipeline shares between matrices; ``prototype_baseline`` scores the rows
of x0 by cosine similarity to the per-group sample means.  Matrices
serialize to CSV (one row per query) and JSON (method tag, names,
scores), as data only.  Both files write each score as its ``repr``
(``csv.writer`` and ``json.dumps`` each do), which reads back to the
same float; the JSON file is ``json.dumps(doc, sort_keys=True,
indent=1)``, the layout of every JSON file the package writes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import GroupedDataset
from .diffusion import Schedule
from .scoring import ElboGrid, ElboSpec, check_input_dims

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
        scores = np.ascontiguousarray(scores)  # the layout of a matrix read from its file
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["query_id", *self.group_names])
            writer.writerows([qid, *row] for qid, row in zip(self.query_ids, self.scores.tolist()))

    def to_json(self, path: str | Path) -> None:
        """Write ``json.dumps(doc, sort_keys=True, indent=1)`` of the method,
        group names, query ids and scores."""
        doc = {"method": self.method, "group_names": self.group_names,
               "query_ids": self.query_ids, "scores": self.scores.tolist()}
        Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1))

    @classmethod
    def from_json(cls, path: str | Path) -> "AttributionMatrix":
        doc = json.loads(Path(path).read_text())
        names = list(doc["group_names"])
        qids = list(doc["query_ids"])
        scores = np.array(doc["scores"], dtype=np.float64).reshape(len(qids), len(names))
        return cls(doc["method"], scores, qids, names)


def attribution_matrix(
    x0: np.ndarray,
    cond: np.ndarray | None,
    model_full,
    counterfactuals: Sequence,
    spec: ElboSpec,
    s: Schedule,
    noise_seeds: Sequence[int],
    method: str = "elbo_diff",
    group_names: Sequence[str] | None = None,
    grid: ElboGrid | None = None,
    full_elbos: np.ndarray | None = None,
) -> AttributionMatrix:
    """scores[q][k] = ELBO(full) - ELBO(counterfactual k) for query row q.

    ``x0`` is the (Q, dim) query block and ``cond`` its (Q, cond_dim)
    condition block or None.  Query q's noise is keyed by its own seed
    ``noise_seeds[q]``; a pipeline derives them once per run
    (``seeding.query_seeds`` of its "elbo" root) and passes the same list
    to every matrix.  Within a query all models share that noise, so
    identical models produce exactly zero columns.  All queries and
    models are scored on one ``ElboGrid``, on which the kernel oracle's
    denoisers share their kernel blocks.

    A pipeline scoring several matrices on one query set passes that
    set's ``grid``, the ``ElboGrid`` of (x0, cond, noise_seeds, spec, s),
    and may pass ``full_elbos``, the row ``grid.elbos([model_full])[0]``;
    then only the counterfactuals are scored.  A model's ELBO row does not
    depend on the models scored with it, so the matrix has the same bits.
    """
    n = len(counterfactuals)
    check_input_dims([model_full, *counterfactuals])

    x0 = np.asarray(x0, dtype=np.float64)
    if grid is None:
        grid = ElboGrid(x0, cond, noise_seeds, spec, s)
    if full_elbos is None:
        elbos = grid.elbos([model_full, *counterfactuals])
        full_elbos, elbos = elbos[0], elbos[1:]
    else:
        elbos = grid.elbos(counterfactuals)
    scores = full_elbos - elbos
    qids = [f"q{q}" for q in range(len(x0))]
    names = list(group_names) if group_names is not None else [f"group{k}" for k in range(n)]
    return AttributionMatrix(method, scores.T, qids, names)


def prototype_baseline(x0: np.ndarray, d: GroupedDataset) -> AttributionMatrix:
    """Cosine similarity between query rows and group prototypes.

    ``x0`` is the (Q, dim) query block.  The prototype of a group is the
    mean of its samples, in sample space.
    """
    prototypes = d.group_means()
    proto_norms = np.linalg.norm(prototypes, axis=1)
    if np.any(proto_norms == 0.0):
        raise FloatingPointError("zero-norm group prototype")

    scores = np.zeros((len(x0), d.n_groups))
    for q, x in enumerate(x0):
        norm = np.linalg.norm(x)
        if norm == 0.0:
            raise FloatingPointError(f"zero-norm query {q}")
        scores[q] = prototypes @ x / (proto_norms * norm)
    qids = [f"q{q}" for q in range(len(x0))]
    return AttributionMatrix("prototype", scores, qids, list(d.group_names))
