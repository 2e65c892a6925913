"""Attribution matrices: ELBO-difference scoring and the similarity baseline."""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupattr import (
    AttributionMatrix,
    DatasetSpec,
    ElboSpec,
    attribution_matrix,
    build_schedule,
    generate_grouped_dataset,
    init_network,
    prototype_baseline,
)
from groupattr.data import GroupedDataset
from groupattr.denoiser import Architecture
from groupattr.harness import _write_json
from groupattr.seeding import query_seeds
from groupattr.training import KernelDenoiser

S = build_schedule(50, "squared_cosine")
SPEC = ElboSpec(stride=10)
SEED = 3


class TestAttributionMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            AttributionMatrix("m", np.array([[np.inf, 0.0]]), ["q0"], ["a", "b"])
        with pytest.raises(ValueError):
            AttributionMatrix("m", np.zeros((2, 2)), ["q0"], ["a", "b"])

    def test_csv_round_trip(self, tmp_path):
        scores = np.array([[0.125, -3.5], [1e-17, 2.25]])
        mat = AttributionMatrix("m", scores, ["q0", "q1"], ["a", "b"])
        path = tmp_path / "m.csv"
        mat.to_csv(path)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["query_id", "a", "b"]
        np.testing.assert_array_equal(np.array([[float(v) for v in r[1:]] for r in rows[1:]]),
                                      scores)
        assert [r[0] for r in rows[1:]] == ["q0", "q1"]

    def test_json_round_trip(self, tmp_path):
        scores = np.array([[0.5, -0.25]])
        mat = AttributionMatrix("probe", scores, ["q0"], ["a", "b"])
        path = tmp_path / "m.json"
        mat.to_json(path)
        back = AttributionMatrix.from_json(path)
        assert back.method == "probe"
        np.testing.assert_array_equal(back.scores, scores)

    def test_csv_bytes_deterministic(self, tmp_path):
        scores = np.random.default_rng(0).normal(size=(3, 2))
        mat = AttributionMatrix("m", scores, ["q0", "q1", "q2"], ["a", "b"])
        mat.to_csv(tmp_path / "a.csv")
        mat.to_csv(tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def reference_csv(mat: AttributionMatrix, path) -> None:
    """The csv writer as it was: ``repr(float(v))`` of each numpy score."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["query_id", *mat.group_names])
        for qid, row in zip(mat.query_ids, mat.scores):
            writer.writerow([qid, *[repr(float(v)) for v in row]])


WRITER_CASES = {
    "no queries": AttributionMatrix("m", np.zeros((0, 2)), [], ["a", "b"]),
    "no groups": AttributionMatrix("m", np.zeros((3, 0)), ["q0", "q1", "q2"], []),
    "quotes and non-ascii": AttributionMatrix(
        'me"th\u00f6d', np.array([[1.0, 2.5]]), ['q "0"'], ['g,"1"\\', "\u4e2d\u00e9\U0001f600"]),
    "extremes": AttributionMatrix(
        "m", np.array([[-0.0, 1e-300, 1e300], [5e-324, -1.5, 0.1]]), ["q0", "q1"],
        ["a", "b", "c"]),
    "desk size": AttributionMatrix(
        "logoa", np.random.default_rng(0).normal(size=(256, 5)) * 10.0 ** np.arange(-2, 3),
        [f"q{q}" for q in range(256)], [f"group{k}" for k in range(5)]),
}


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_writers_match_the_reference_bytes(case, tmp_path):
    """``to_json`` writes the bytes of ``json.dumps(doc, sort_keys=True,
    indent=1)`` and ``to_csv`` those of the ``repr(float(v))`` writer."""
    mat = WRITER_CASES[case]
    doc = {"method": mat.method, "group_names": mat.group_names,
           "query_ids": mat.query_ids, "scores": mat.scores.tolist()}
    mat.to_json(tmp_path / "m.json")
    assert (tmp_path / "m.json").read_bytes() == json.dumps(doc, sort_keys=True,
                                                             indent=1).encode()
    mat.to_csv(tmp_path / "m.csv")
    reference_csv(mat, tmp_path / "ref.csv")
    assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def reference_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=1)


def written_json(doc, path) -> str:
    """The text the run directory's JSON writer leaves at ``path`` for ``doc``."""
    _write_json(path, doc)
    return path.read_text()


TEXT = st.text(st.characters(codec="utf-8"), max_size=6) | st.sampled_from(
    ['"', "\\", "\x00\x1f\n\t", "\u00e9\u4e2d\U0001f600", ""])
SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | TEXT
           | st.floats(width=64).map(np.float64))
JSON_DOCS = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=5) | st.tuples(inner, inner)
                   | st.dictionaries(TEXT, inner, max_size=5)
                   | st.lists(st.fixed_dictionaries({"query_id": TEXT, "top1": inner,
                                                     "mrr": SCALARS}), max_size=4)),
    max_leaves=30)


@pytest.fixture(scope="module")
def json_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("json")


@settings(max_examples=400, deadline=None)
@given(doc=JSON_DOCS)
def test_json_text_is_the_indented_json_dumps(doc, json_dir):
    """Every JSON file of a run directory is the text of ``json.dumps(doc,
    sort_keys=True, indent=1)``: no trailing newline, ASCII escapes,
    ``NaN`` and ``Infinity`` kept."""
    assert written_json(doc, json_dir / "doc.json") == reference_json(doc)


REPORT_ROWS = [{"query_id": f"q{q}", **{m: float(v) for m, v in zip(
    ("top1", "mrr", "ndcg3", "top3", "rbo", "spearman"),
    np.random.default_rng(q).random(6))}} for q in range(256)]
JSON_CASES = {
    "numpy floats": [np.float64(0.1), np.float64(-0.0), {"x": np.float64(1e300)}],
    "non-finite": [float("nan"), float("inf"), -float("inf"), {"v": [float("nan")]}],
    "extremes": [-0.0, 5e-324, 1e300, -1e-300, 0.1],
    "tuples and bools": {"a": (1, True, 0, False), "b": [(True, 1.0), ()], "c": (None,)},
    "empty at every depth": {"": {}, "a": [], "b": [[], [{}], {"c": {"d": []}}], "e": [{}, {}]},
    "quotes, escapes, non-ascii": {'k"\\\x01': ['"', "\\", "\x00\x7f", "\u00e9\U0001f600"],
                                   "\u4e2d": {"\n": "\t"}},
    "non-string keys": [{1: "a", 2.5: [1], -0.0: True, 10**20: None}, {True: 1, False: 2},
                        {None: 0}, {float("inf"): 1}],
    "rows with other keys": [{"a": 1, "b": 2}, {"b": 3, "a": [4]}, {"a": 5}],
    "rank report": {"method": "retrack", "gold": "logoa", "per_query": REPORT_ROWS,
                    "top1": 0.5, "provenance": {"artifact_version": 1, "master_seed": 0}},
    "matrix": {"method": "logoa", "group_names": [f"group{k}" for k in range(5)],
               "query_ids": [f"q{q}" for q in range(256)],
               "scores": (np.random.default_rng(1).normal(size=(256, 5))
                          * 10.0 ** np.arange(-2, 3)).tolist()},
    "top-level scalar": 1.5,
}


@pytest.mark.parametrize("case", sorted(JSON_CASES))
def test_json_text_matches_json_dumps_on_named_cases(case, tmp_path):
    assert written_json(JSON_CASES[case], tmp_path / "doc.json") == \
        reference_json(JSON_CASES[case])


def test_json_text_refuses_what_json_dumps_refuses(tmp_path):
    """What ``json.dumps`` refuses raises ``TypeError`` and leaves the file
    as it was, with no temp file beside it."""
    path = tmp_path / "doc.json"
    _write_json(path, {"kept": 1})
    for doc in ({"a": object()}, [np.int64(1)], {(1, 2): 3}):
        with pytest.raises(TypeError):
            reference_json(doc)
        with pytest.raises(TypeError):
            _write_json(path, doc)
        assert path.read_text() == reference_json({"kept": 1})
        assert sorted(tmp_path.iterdir()) == [path]


class TestAttributionMatrixOp:
    def test_identical_counterfactuals_zero_matrix(self):
        p = init_network(Architecture(2, (8,), 4), seed=1)
        x0 = np.array([[0.1, 0.2], [-0.5, 0.3]])
        mat = attribution_matrix(x0, None, p, [p, p, p], SPEC, S, query_seeds(SEED, 2))
        np.testing.assert_array_equal(mat.scores, 0.0)

    def test_separated_groups_oracle(self):
        """Exact kernel denoisers attribute a group sample to its group."""
        spec = DatasetSpec(n_groups=2, samples_per_group=60, radius=5.0, noise_std=0.3)
        d = generate_grouped_dataset(spec, seed=17)
        full = KernelDenoiser(d.labeled_samples()[0], S)
        cfs = [KernelDenoiser(d.labeled_samples(exclude=k)[0], S) for k in range(2)]
        mat = attribution_matrix(d.groups[0][5:6], None, full, cfs, SPEC, S,
                                 query_seeds(SEED, 1),
                                 group_names=d.group_names)
        assert mat.scores[0, 0] > 0.0
        assert mat.scores[0, 0] > 10 * abs(mat.scores[0, 1])

    def test_column_permutation(self):
        models = [init_network(Architecture(2, (8,), 4), seed=s) for s in range(4)]
        x0 = np.array([[0.4, -0.1]])
        a = attribution_matrix(x0, None, models[0], models[1:], SPEC, S, query_seeds(SEED, 1))
        b = attribution_matrix(x0, None, models[0], models[1:][::-1], SPEC, S,
                               query_seeds(SEED, 1))
        np.testing.assert_array_equal(b.scores[:, ::-1], a.scores)

    def test_arch_mismatch_rejected(self):
        a = init_network(Architecture(2, (8,), 4), seed=0)
        b = init_network(Architecture(3, (8,), 4), seed=0)
        with pytest.raises(ValueError):
            attribution_matrix(np.zeros((1, 2)), None, a, [b], SPEC, S, query_seeds(SEED, 1))


class TestPrototypeBaseline:
    def make_dataset(self, groups):
        arrs = [np.asarray(g, dtype=np.float64) for g in groups]
        names = [f"group{i}" for i in range(len(arrs))]
        return GroupedDataset(arrs, arrs[0].shape[1], None, names)

    def test_self_prototype_scores_one(self):
        d = self.make_dataset([[[1.0, 0.0]], [[0.0, 1.0]]])
        mat = prototype_baseline(np.array([[1.0, 0.0]]), d)
        assert mat.scores[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_orthogonal_query_scores_zero(self):
        d = self.make_dataset([[[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]]])
        mat = prototype_baseline(np.array([[0.0, 0.0, 2.0]]), d)
        np.testing.assert_allclose(mat.scores, 0.0, atol=1e-12)

    def test_worked_angles(self):
        """Prototypes at 0 and 90 degrees, query at 30 degrees."""
        d = self.make_dataset([[[1.0, 0.0]], [[0.0, 1.0]]])
        query = np.array([math.cos(math.pi / 6), math.sin(math.pi / 6)])
        mat = prototype_baseline(query[None], d)
        assert mat.scores[0, 0] == pytest.approx(math.cos(math.pi / 6), rel=1e-12)
        assert mat.scores[0, 1] == pytest.approx(0.5, rel=1e-12)

    def test_zero_norm_embedding_rejected(self):
        d = self.make_dataset([[[1.0, 0.0]], [[0.0, 1.0]]])
        with pytest.raises(FloatingPointError):
            prototype_baseline(np.zeros((1, 2)), d)
