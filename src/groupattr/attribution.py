"""Attribution matrices: per-query, per-group counterfactual influence scores.

``attribution_matrix`` scores a query block, x0 (Q, dim) and cond
(Q, cond_dim) or None, against every counterfactual model by the paired
ELBO difference, on a ``scoring.ElboGrid`` that it forms or that a
pipeline shares between matrices; ``prototype_baseline`` scores the rows
of x0 by cosine similarity to per-group mean embeddings.  Matrices
serialize to CSV (one row per query) and JSON (method tag, names,
scores), as data only; each matrix ``repr``s its scores once, and both
files are built from those strings.

``json_text`` is the package's one writer of JSON documents: it gives
the text of ``json.dumps(doc, sort_keys=True, indent=1)`` byte for byte,
for matrices, run records and reports alike, without the encoder's
per-value recursion over flat lists and flat dicts.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cached_property
from operator import add, itemgetter
from pathlib import Path
from typing import Callable, Sequence

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
            writer.writerows([qid, *row] for qid, row in zip(self.query_ids, self._score_texts))

    def to_json(self, path: str | Path) -> None:
        """Write the text of ``json.dumps(doc, sort_keys=True, indent=1)`` of
        the method, group names, query ids and scores."""
        doc = {"method": self.method, "group_names": self.group_names,
               "query_ids": self.query_ids, "scores": self._score_texts}
        Path(path).write_text(json_text(doc))

    @cached_property
    def _score_texts(self) -> list["EncodedList"]:
        """Each row's scores as their ``repr``, the text both the CSV writer
        and the JSON encoder give a finite float."""
        return [EncodedList(map(repr, row)) for row in self.scores.tolist()]

    @classmethod
    def from_json(cls, path: str | Path) -> "AttributionMatrix":
        doc = json.loads(Path(path).read_text())
        names = list(doc["group_names"])
        qids = list(doc["query_ids"])
        scores = np.array(doc["scores"], dtype=np.float64).reshape(len(qids), len(names))
        return cls(doc["method"], scores, qids, names)


class EncodedList(list):
    """A JSON list whose items are JSON texts already: ``json_text`` lays it
    out as a list and writes its items as they are."""


def json_text(doc) -> str:
    """The text of ``json.dumps(doc, sort_keys=True, indent=1)``.

    An indented ``json.dumps`` runs the encoder's pure-Python path, one
    generator per value.  Here the values of a list, or one key's values
    across a list of dicts that share their string keys (a report's
    ``per_query``), are written together, and each list or dict is laid
    out with one join; only nested lists and dicts recurse.  Scalars are
    written as the encoder writes them: strings ASCII-escaped, ``int`` and
    ``float`` (subclasses too) through ``int.__repr__`` and
    ``float.__repr__``, non-finite floats as ``NaN`` and ``Infinity``.
    Dict items are sorted by key.  What ``json.dumps`` refuses raises
    ``TypeError`` here too.
    """
    return _texts([doc], 0)[0]


_ESCAPE = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _scalar_text(v) -> str | None:
    """The JSON text of a scalar, or None for a list, tuple or dict."""
    if isinstance(v, str):
        return _ESCAPE(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        text = float.__repr__(v)
        return _NON_FINITE.get(text, text)
    if isinstance(v, (list, tuple, dict)):
        return None
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _texts(values: list, depth: int) -> list[str]:
    """The texts of ``values``, each nested ``depth`` levels deep."""
    kinds = set(map(type, values))
    if kinds == {float}:
        reprs = list(map(float.__repr__, values))
        return list(map(_NON_FINITE.get, reprs, reprs))
    if kinds == {str}:
        return list(map(_ESCAPE, values))
    if kinds == {dict} and len(set(map(tuple, values))) == 1 and all(
            isinstance(k, str) for k in values[0]):
        return _dict_texts(values, depth)
    texts = list(map(_scalar_text, values))
    if None in texts:
        texts = [_container_text(v, depth) if t is None else t for t, v in zip(texts, values)]
    return texts


def _container_text(v, depth: int) -> str:
    """The text of a list, tuple or dict nested ``depth`` levels deep."""
    if isinstance(v, dict):
        return _dict_texts([v], depth)[0]
    items = v if isinstance(v, EncodedList) else _texts(v, depth + 1)
    if not items:
        return "[]"
    pad = "\n" + " " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * depth + "]"


def _dict_texts(dicts: list[dict], depth: int) -> list[str]:
    """The texts of dicts with the key order of the first, each nested
    ``depth`` levels deep; each key's values are written together."""
    keys = [k for k, _ in sorted(dicts[0].items())]
    if not keys:
        return ["{}"] * len(dicts)
    pad = "\n" + " " * (depth + 1)
    # A key that is not a string is quoted after it is written as a scalar.
    heads = [f",{pad}{_ESCAPE(k if isinstance(k, str) else _scalar_text(k))}: " for k in keys]
    heads[0] = "{" + heads[0][1:]
    tail = "\n" + " " * depth + "}"
    columns = [_texts(list(map(itemgetter(k), dicts)), depth + 1) for k in keys]
    return ["".join(map(add, heads, row)) + tail for row in zip(*columns)]


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


def prototype_baseline(
    x0: np.ndarray,
    d: GroupedDataset,
    embed: Callable[[np.ndarray], np.ndarray] | None = None,
) -> AttributionMatrix:
    """Cosine similarity between embedded query rows and group prototypes.

    ``x0`` is the (Q, dim) query block.  The prototype of a group is the
    mean of its embedded samples; the default embedding is the identity
    on sample space.
    """
    if embed is None:
        embed = lambda x: np.asarray(x, dtype=np.float64)
    prototypes = np.stack([
        np.mean([embed(x) for x in g], axis=0) for g in d.groups
    ])
    proto_norms = np.linalg.norm(prototypes, axis=1)
    if np.any(proto_norms == 0.0):
        raise FloatingPointError("zero-norm group prototype embedding")

    scores = np.zeros((len(x0), d.n_groups))
    for q, x in enumerate(x0):
        e = embed(x)
        norm = np.linalg.norm(e)
        if norm == 0.0:
            raise FloatingPointError(f"zero-norm embedding for query {q}")
        scores[q] = prototypes @ e / (proto_norms * norm)
    qids = [f"q{q}" for q in range(len(x0))]
    return AttributionMatrix("prototype", scores, qids, list(d.group_names))
