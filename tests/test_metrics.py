"""Ranking metrics against independent naive reference implementations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from groupattr import AttributionMatrix, rank, rank_report

FIELDS = ("top1", "mrr", "ndcg3", "top3", "rbo", "spearman")

# ---------------------------------------------------------------------
# Naive references, written independently of the library implementations
# (plain python loops, no shared helpers).
# ---------------------------------------------------------------------


def ref_order(scores):
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def ref_top1(ps, gs):
    return 1.0 if ref_order(ps)[0] == ref_order(gs)[0] else 0.0


def ref_mrr(ps, gs):
    gold_top = ref_order(gs)[0]
    return 1.0 / (ref_order(ps).index(gold_top) + 1)


def ref_ndcg3(ps, gs):
    n = len(ps)
    gold = ref_order(gs)
    rel = {}
    for position, group in enumerate(gold):
        rel[group] = n - (position + 1) + 1
    pred = ref_order(ps)
    depth = min(3, n)
    dcg = 0.0
    idcg = 0.0
    for r in range(1, depth + 1):
        dcg += (2 ** rel[pred[r - 1]] - 1) / math.log2(r + 1)
        idcg += (2 ** rel[gold[r - 1]] - 1) / math.log2(r + 1)
    return dcg / idcg


def ref_top3(ps, gs):
    return len(set(ref_order(ps)[:3]) & set(ref_order(gs)[:3])) / 3.0


def ref_rbo(ps, gs, p):
    a, b = ref_order(ps), ref_order(gs)
    n = len(a)
    total = 0.0
    for d in range(1, n + 1):
        overlap = len(set(a[:d]) & set(b[:d]))
        total += p ** (d - 1) * overlap / d
    return (1 - p) * total


def ref_spearman(ps, gs):
    def avg_ranks(v):
        order = sorted(range(len(v)), key=lambda i: v[i])
        ranks = [0.0] * len(v)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and v[order[j + 1]] == v[order[i]]:
                j += 1
            mean_rank = (i + j) / 2 + 1
            for k in range(i, j + 1):
                ranks[order[k]] = mean_rank
            i = j + 1
        return ranks

    ra, rb = avg_ranks(list(ps)), avg_ranks(list(gs))
    n = len(ra)
    ma, mb = sum(ra) / n, sum(rb) / n
    num = sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    da = math.sqrt(sum((x - ma) ** 2 for x in ra))
    db = math.sqrt(sum((y - mb) ** 2 for y in rb))
    if da == 0 or db == 0:
        return 0.0
    return num / (da * db)


def matrix(scores, method="m"):
    scores = np.asarray(scores, dtype=np.float64)
    qids = [f"q{i}" for i in range(scores.shape[0])]
    names = [f"group{j}" for j in range(scores.shape[1])]
    return AttributionMatrix(method, scores, qids, names)


def report(ps, gs, p=0.9):
    """Rank report of a pred/gold pair; a 1-D pair is one query row."""
    return rank_report(matrix(np.atleast_2d(ps)), matrix(np.atleast_2d(gs)), p)


class TestRank:
    def test_basic_order(self):
        np.testing.assert_array_equal(rank(np.array([0.1, 0.9, 0.5])), [1, 2, 0])

    def test_all_equal_identity(self):
        np.testing.assert_array_equal(rank(np.zeros(4)), [0, 1, 2, 3])

    def test_tie_lower_index_first(self):
        scores = np.array([0.2, 0.9, 0.1, 0.9])
        np.testing.assert_array_equal(rank(scores), [1, 3, 0, 2])

    def test_nan_rejected(self):
        with pytest.raises(FloatingPointError):
            rank(np.array([0.1, np.nan]))


class TestWorkedExamples:
    def test_ndcg_worked_value(self):
        # N=3, gold order (A,B,C), pred (B,A,C).
        gold = np.array([[3.0, 2.0, 1.0]])
        pred = np.array([[2.0, 3.0, 1.0]])
        val = report(pred, gold).ndcg3
        assert val == pytest.approx(0.8428, abs=1e-3)
        dcg = 3 + 7 / math.log2(3) + 0.5
        idcg = 7 + 3 / math.log2(3) + 0.5
        assert val == pytest.approx(dcg / idcg, rel=1e-12)

    def test_rbo_identical_n10(self):
        scores = np.arange(10, 0, -1, dtype=float)[None, :]
        val = report(scores, scores, p=0.9).rbo
        assert val == pytest.approx(1 - 0.9**10, abs=1e-6)
        assert val == pytest.approx(0.6513, abs=1e-4)

    def test_rbo_identical_n2(self):
        scores = np.array([[2.0, 1.0]])
        assert report(scores, scores, p=0.9).rbo == pytest.approx(0.19, abs=1e-12)

    def test_rbo_disjoint_until_last_depth(self):
        # Reversed rankings of N=2 share nothing at depth 1.
        pred = np.array([[2.0, 1.0]])
        gold = np.array([[1.0, 2.0]])
        assert report(pred, gold, p=0.9).rbo == pytest.approx(0.1 * 0.9, rel=1e-12)

    def test_mrr_reciprocal_positions(self):
        gold = np.array([[4.0, 3.0, 2.0, 1.0]])
        pred_rank2 = np.array([[3.0, 4.0, 2.0, 1.0]])
        pred_rank4 = np.array([[0.5, 2.0, 3.0, 1.0]])
        assert report(gold, gold).mrr == 1.0
        assert report(pred_rank2, gold).mrr == 0.5
        assert report(pred_rank4, gold).mrr == 0.25

    def test_top1_basics(self):
        gold = np.array([[1.0, 0.0], [1.0, 0.0]])
        pred = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert report(gold, gold).top1 == 1.0
        assert report(pred, gold).top1 == 0.5
        reversed_ = np.array([[0.0, 1.0], [0.0, 1.0]])
        assert report(reversed_, gold).top1 == 0.0

    def test_top3_cases(self):
        gold = np.arange(6, 0, -1, dtype=float)[None, :]
        same_set = np.array([[5.0, 6.0, 4.0, 1.0, 2.0, 3.0]])
        assert report(same_set, gold).top3 == 1.0
        disjoint = np.array([[1.0, 2.0, 3.0, 6.0, 5.0, 4.0]])
        assert report(disjoint, gold).top3 == 0.0
        one_shared = np.array([[6.0, 1.0, 2.0, 3.0, 4.0, 5.0]])
        assert report(one_shared, gold).top3 == pytest.approx(1 / 3)

    def test_spearman_extremes(self):
        a = np.array([[0.1, 0.4, 0.2, 0.9]])
        assert report(a, a).spearman == pytest.approx(1.0)
        assert report(-a, a).spearman == pytest.approx(-1.0)

    def test_spearman_constant_input_is_zero(self):
        const = np.zeros((1, 4))
        var = np.array([[0.1, 0.2, 0.3, 0.4]])
        assert report(const, var).spearman == 0.0


class TestBruteForceEquivalence:
    def test_random_pairs_match_references(self):
        rng = np.random.default_rng(123)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            ps = rng.normal(size=n)
            gs = rng.normal(size=n)
            rep = report(ps, gs, 0.9)
            assert rep.top1 == ref_top1(ps, gs)
            assert rep.mrr == pytest.approx(ref_mrr(ps, gs), abs=1e-12)
            assert rep.ndcg3 == pytest.approx(ref_ndcg3(ps, gs), abs=1e-9)
            assert rep.top3 == pytest.approx(ref_top3(ps, gs), abs=1e-12)
            assert rep.rbo == pytest.approx(ref_rbo(ps, gs, 0.9), abs=1e-9)
            assert rep.spearman == pytest.approx(ref_spearman(ps, gs), abs=1e-9)

    def test_with_ties(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            ps = rng.integers(0, 3, size=n).astype(float)
            gs = rng.integers(0, 3, size=n).astype(float)
            rep = report(ps, gs, 0.9)
            assert rep.top1 == ref_top1(ps, gs)
            assert rep.mrr == pytest.approx(ref_mrr(ps, gs), abs=1e-12)
            assert rep.ndcg3 == pytest.approx(ref_ndcg3(ps, gs), abs=1e-9)
            assert rep.top3 == pytest.approx(ref_top3(ps, gs), abs=1e-12)
            assert rep.rbo == pytest.approx(ref_rbo(ps, gs, 0.9), abs=1e-9)
            assert rep.spearman == pytest.approx(ref_spearman(ps, gs), abs=1e-9)


class TestInvariances:
    def test_strictly_increasing_transform_invariance(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=(20, 6))
        gold = rng.normal(size=(20, 6))
        transformed = np.exp(2.0 * scores) + 1.0
        for name in FIELDS:
            assert getattr(report(scores, gold), name) == pytest.approx(
                getattr(report(transformed, gold), name), abs=1e-12
            )

    def test_self_agreement_maxima(self):
        rng = np.random.default_rng(6)
        scores = rng.normal(size=(10, 7))
        m = matrix(scores)
        rep = rank_report(m, m)
        assert rep.top1 == 1.0
        assert rep.mrr == 1.0
        assert rep.ndcg3 == pytest.approx(1.0, rel=1e-12)
        assert rep.top3 == 1.0
        assert rep.rbo == pytest.approx(1 - 0.9**7, rel=1e-12)
        assert rep.spearman == pytest.approx(1.0, rel=1e-12)

    def test_report_ranges_on_random_inputs(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            pred = matrix(rng.normal(size=(5, 6)))
            gold = matrix(rng.normal(size=(5, 6)))
            rep = rank_report(pred, gold)
            for val in (rep.top1, rep.mrr, rep.ndcg3, rep.top3, rep.rbo):
                assert 0.0 <= val <= 1.0
            assert -1.0 <= rep.spearman <= 1.0
            assert len(rep.per_query) == 5

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rank_report(matrix(np.zeros((2, 3))), matrix(np.zeros((2, 4))))

    def test_gold_with_other_columns_or_rows_rejected(self, tmp_path):
        """A same-shape gold whose group names are permuted, or whose query
        ids differ, is not scored by position; one read back from its JSON
        file neither."""
        scores = np.random.default_rng(9).normal(size=(3, 4))
        pred = matrix(scores)
        names, qids = pred.group_names, pred.query_ids
        for gold in (
            AttributionMatrix("gold", scores[:, ::-1], qids, names[::-1]),
            AttributionMatrix("gold", scores, qids, [*names[:3], "group9"]),
            AttributionMatrix("gold", scores, ["q0", "q2", "q1"], names),
            AttributionMatrix("gold", scores, ["a", "b", "c"], names),
        ):
            gold.to_json(tmp_path / "gold.json")
            for g in (gold, AttributionMatrix.from_json(tmp_path / "gold.json")):
                with pytest.raises(ValueError):
                    rank_report(pred, g)
                with pytest.raises(ValueError):
                    rank_report(g, pred)
        AttributionMatrix("gold", scores, list(qids), list(names)).to_json(tmp_path / "g.json")
        assert rank_report(pred, AttributionMatrix.from_json(tmp_path / "g.json")).top1 == 1.0


class TestRankReport:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        rep = rank_report(matrix(rng.normal(size=(4, 5))), matrix(rng.normal(size=(4, 5))))
        from groupattr.metrics import RankReport

        back = RankReport.from_dict(rep.to_dict())
        assert back.top1 == rep.top1
        assert back.per_query == rep.per_query

    def test_to_dict_serializes_as_asdict(self):
        """``to_dict`` is shallow, but its JSON is that of ``asdict``, and it
        round-trips through ``from_dict``."""
        import json
        from dataclasses import asdict

        from groupattr.metrics import RankReport

        rng = np.random.default_rng(5)
        rep = rank_report(matrix(rng.normal(size=(6, 4))), matrix(rng.normal(size=(6, 4))))
        d = rep.to_dict()
        assert json.dumps(d) == json.dumps(asdict(rep))
        assert RankReport.from_dict(d) == rep


@st.composite
def report_pairs(draw):
    """(Q, N) pred/gold pairs with N from 2 (below NDCG's and Top-3's depth of
    3) to 12, integer ties, constant rows, an RBO p in (0, 1), and a
    permutation of the query rows."""
    q = draw(st.integers(1, 8))
    n = draw(st.integers(2, 12))
    cells = st.one_of(st.integers(-2, 2).map(float), st.floats(-1e6, 1e6))
    pair = []
    for _ in range(2):
        scores = draw(arrays(np.float64, (q, n), elements=cells))
        for i in draw(st.lists(st.integers(0, q - 1), max_size=q)):
            scores[i] = scores[i, 0]
        pair.append(scores)
    p = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    return pair[0], pair[1], p, draw(st.permutations(range(q)))


class TestBlockAgainstRows:
    @settings(max_examples=150, deadline=None)
    @given(case=report_pairs())
    def test_block_report_matches_one_row_reports(self, case):
        pred, gold, p, perm = case
        block = rank_report(matrix(pred), matrix(gold), p)
        for i, entry in enumerate(block.per_query):
            row = rank_report(matrix(pred[i : i + 1]), matrix(gold[i : i + 1]), p)
            assert entry == {**row.per_query[0], "query_id": f"q{i}"}
        for name in FIELDS:
            assert getattr(block, name) == float(np.mean([e[name] for e in block.per_query]))
        qids = [f"q{i}" for i in perm]
        names = [f"group{j}" for j in range(pred.shape[1])]
        permuted = rank_report(AttributionMatrix("m", pred[perm], qids, names),
                               AttributionMatrix("m", gold[perm], qids, names), p)
        assert permuted.per_query == [block.per_query[i] for i in perm]
