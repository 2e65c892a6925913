"""Ranking-agreement metrics against a gold attribution matrix.

All rankings are descending by score with ties broken toward the lower
group index, applied identically to predicted and gold scores.  The six
metrics emphasize the head of the ranking (Top-1, MRR, NDCG@3, Top-3
overlap, rank-biased overlap) plus Spearman correlation as an
equal-weight full-ranking measure.

Every metric is computed for all queries at once, as one value per row
of a (Q, N) pred/gold pair, and a report's aggregate of a metric is the
mean of that column.

NDCG@3 uses rank-based relevance rel_i = N - gold_rank(i) + 1 with gain
(2^rel - 1) and log2(r + 1) discount.  RBO uses the truncated form
(1 - p) * sum_{d=1..N} p^(d-1) * |A_d n B_d| / d with no extrapolation,
whose self-agreement maximum is 1 - p^N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.stats import rankdata

from .attribution import AttributionMatrix

DEFAULT_RBO_P = 0.9
_METRICS = ("top1", "mrr", "ndcg3", "top3", "rbo", "spearman")


def rank(scores: np.ndarray) -> np.ndarray:
    """Indices sorted by descending score along the last axis; ties keep the
    lower index first."""
    scores = np.asarray(scores, dtype=np.float64)
    if np.any(np.isnan(scores)):
        raise FloatingPointError("scores contain NaN")
    return np.argsort(-scores, axis=-1, kind="stable")


def _metric_columns(pred: np.ndarray, gold: np.ndarray, p: float) -> dict[str, np.ndarray]:
    """The six metrics for every row of a (Q, N) pred/gold pair, as (Q,) arrays."""
    if pred.shape != gold.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {gold.shape}")
    q, n = pred.shape
    qi = np.arange(q)
    rows = qi[:, None]
    pred_order, gold_order = rank(pred), rank(gold)
    # 1-based rank of each group index, scattered from the orderings.
    pred_pos = np.empty((q, n), dtype=np.int64)
    gold_pos = np.empty((q, n), dtype=np.int64)
    pred_pos[rows, pred_order] = np.arange(1, n + 1)
    gold_pos[rows, gold_order] = np.arange(1, n + 1)

    rel = n - gold_pos + 1
    dcg = idcg = 0.0
    for r in range(min(3, n)):
        dcg += (2.0 ** rel[qi, pred_order[:, r]] - 1.0) / math.log2(r + 2)
        idcg += (2.0 ** rel[qi, gold_order[:, r]] - 1.0) / math.log2(r + 2)

    # A group is in both top-d sets exactly when its later position is <= d.
    later = np.maximum(pred_pos, gold_pos)
    total = np.zeros(q)
    for d in range(1, n + 1):
        total += p ** (d - 1) * np.count_nonzero(later <= d, axis=1) / d

    rp, rg = rankdata(pred, axis=1), rankdata(gold, axis=1)
    sp, sg = rp.std(axis=1), rg.std(axis=1)
    cov = np.mean((rp - rp.mean(axis=1, keepdims=True))
                  * (rg - rg.mean(axis=1, keepdims=True)), axis=1)
    constant = (sp == 0.0) | (sg == 0.0)
    spearman = np.divide(cov, sp * sg, out=np.zeros(q), where=~constant)

    return {
        "top1": (pred_order[:, 0] == gold_order[:, 0]).astype(np.float64),
        "mrr": 1.0 / pred_pos[qi, gold_order[:, 0]],
        "ndcg3": dcg / idcg,
        "top3": np.count_nonzero(gold_pos[rows, pred_order[:, :3]] <= 3, axis=1) / 3.0,
        "rbo": (1.0 - p) * total,
        "spearman": spearman,
    }


@dataclass
class RankReport:
    """Aggregate and per-query ranking agreement versus a gold matrix."""

    top1: float
    mrr: float
    ndcg3: float
    top3: float
    rbo: float
    spearman: float
    per_query: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        # Shallow: ``asdict`` would deep-copy every per-query dict.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "RankReport":
        return cls(**{key: d[key] for key in _METRICS}, per_query=list(d.get("per_query", [])))


def rank_report(
    pred: AttributionMatrix,
    gold: AttributionMatrix,
    rbo_p: float = DEFAULT_RBO_P,
) -> RankReport:
    """Agreement of ``pred`` with ``gold``, which must name the same groups
    and queries in the same order: columns and rows are compared by
    position."""
    for what, a, b in (("group names", pred.group_names, gold.group_names),
                       ("query ids", pred.query_ids, gold.query_ids)):
        if list(a) != list(b):
            raise ValueError(f"{what} differ between {pred.method} and {gold.method}")
    cols = _metric_columns(pred.scores, gold.scores, rbo_p)
    per_query = [
        {"query_id": qid, **{key: float(cols[key][i]) for key in _METRICS}}
        for i, qid in enumerate(pred.query_ids)
    ]
    return RankReport(per_query=per_query, **{key: float(np.mean(cols[key])) for key in _METRICS})
