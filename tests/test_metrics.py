import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eval_oracle import oracle_evaluate, oracle_hist_scores
from near2 import index as index_module
from near2.cli import main
from near2.data import RelevanceRecord, SynthSpec, gen_synthetic, split_judgments, write_records
from near2.encoder import EncoderModel, encode, save_model, tokenize
from near2.errors import DataError, ZeroVectorError
from near2.metrics import (
    DEFAULT_CORPUS_CAP,
    DeltaReport,
    MetricsReport,
    capped_corpus,
    delta_report,
    format_delta,
    histogram_csv,
    judged_queries,
    judged_scores,
    mrr_at_k,
    ndcg_at_k,
    normalize_scores,
    precision_recall_at_k,
    score_histogram,
    sequential_evaluate,
)
from near2.nested import DimSet, cosine_prefix


class TestPrecisionRecall:
    def test_all_relevant(self):
        assert precision_recall_at_k(["a", "b", "c"], {"a", "b", "c"}, 3) == (1.0, 1.0)

    def test_partial(self):
        p, r = precision_recall_at_k(["x", "a", "y", "z", "w"], {"a", "b", "c", "d"}, 5)
        assert (p, r) == (0.2, 0.25)

    def test_none_retrieved(self):
        assert precision_recall_at_k(["x", "y"], {"a"}, 2) == (0.0, 0.0)

    def test_divisor_is_k_with_short_ranking(self):
        p, _ = precision_recall_at_k(["a"], {"a"}, 5)
        assert p == 0.2

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            precision_recall_at_k(["a"], set(), 1)


class TestNdcg:
    def test_single_relevant_rank_1(self):
        assert ndcg_at_k(["a", "x", "y", "z", "w"], {"a"}, 5) == 1.0

    def test_single_relevant_rank_2(self):
        value = ndcg_at_k(["x", "a", "y", "z", "w"], {"a"}, 5)
        assert value == pytest.approx(1.0 / math.log2(3), rel=1e-12)
        assert value == pytest.approx(0.6309, abs=1e-4)

    def test_two_relevant_ranks_1_and_3(self):
        value = ndcg_at_k(["a", "x", "b"], {"a", "b"}, 3)
        expected = (1.0 + 1.0 / 2.0) / (1.0 + 1.0 / math.log2(3))
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(0.9197, abs=1e-4)

    def test_monotone_under_upward_swap(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(3, 12))
            ranked = [f"d{i}" for i in range(n)]
            relevant = set(rng.choice(ranked, size=max(1, n // 3), replace=False))
            k = int(rng.integers(1, n + 1))
            base = ndcg_at_k(ranked, relevant, k)
            pos = [i for i, d in enumerate(ranked) if d in relevant and i > 0]
            if not pos:
                continue
            i = int(rng.choice(pos))
            swapped = ranked.copy()
            swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
            assert ndcg_at_k(swapped, relevant, k) >= base - 1e-15

    def test_graded_gains(self):
        grades = {"a": 5, "b": 3}
        perfect = ndcg_at_k(["a", "b"], {"a"}, 2, grades=grades)
        flipped = ndcg_at_k(["b", "a"], {"a"}, 2, grades=grades)
        assert perfect == 1.0
        assert flipped < 1.0


class TestMrr:
    def test_rank_1(self):
        assert mrr_at_k(["a", "b"], {"a"}, 10) == 1.0

    def test_rank_2(self):
        assert mrr_at_k(["x", "a"], {"a"}, 10) == 0.5

    def test_not_in_top_k(self):
        assert mrr_at_k(["x", "y", "a"], {"a"}, 2) == 0.0


def brute_force_metrics(ranked, relevant, k):
    """Independent straight-line implementations for oracle comparison."""
    top = ranked[:k]
    hits = len([d for d in top if d in relevant])
    precision = hits / k
    recall = hits / len(relevant)
    dcg = 0.0
    for i, d in enumerate(top):
        if d in relevant:
            dcg += 1.0 / math.log2(i + 2)
    idcg = sum(1.0 / math.log2(i + 2) for i in range(min(k, len(relevant))))
    ndcg = dcg / idcg if idcg else 0.0
    rr = 0.0
    for i, d in enumerate(top):
        if d in relevant:
            rr = 1.0 / (i + 1)
            break
    return precision, recall, ndcg, rr


def test_metric_oracle_equivalence_random():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 21))
        docs = [f"d{i}" for i in range(n)]
        ranked = list(rng.permutation(docs))
        relevant = set(rng.choice(docs, size=int(rng.integers(1, n + 1)), replace=False))
        k = int(rng.integers(1, 21))
        p, r = precision_recall_at_k(ranked, relevant, k)
        nd = ndcg_at_k(ranked, relevant, k)
        rr = mrr_at_k(ranked, relevant, k)
        bp, br, bn, brr = brute_force_metrics(ranked, relevant, k)
        assert abs(p - bp) <= 1e-12
        assert abs(r - br) <= 1e-12
        assert abs(nd - bn) <= 1e-12
        assert abs(rr - brr) <= 1e-12


def make_records(rows):
    return [
        RelevanceRecord(qid=q, query=qt, title_id=t, title=tt, grade=g)
        for q, qt, t, tt, g in rows
    ]


class TestSequentialEvaluate:
    def tiny_model(self):
        return EncoderModel.create(bucket_count=256, feature_dim=16, dims=DimSet((16, 8)), seed=0)

    def test_self_retrieval_is_perfect(self):
        records = make_records(
            [
                ("q1", "red plant", "t1", "red plant", 5),
                ("q2", "blue pot", "t2", "blue pot", 5),
            ]
        )
        report = sequential_evaluate(self.tiny_model(), records, (16, 8), ks=(1,))
        for m in (16, 8):
            cell = report.cell(m, 1)
            assert cell.precision == cell.recall == cell.ndcg == cell.mrr == 1.0

    def test_grid_shape(self):
        records = make_records(
            [
                ("q1", "alpha beta", "t1", "alpha beta gamma", 5),
                ("q1", "alpha beta", "t2", "unrelated words", 1),
            ]
        )
        report = sequential_evaluate(self.tiny_model(), records, (16, 8), ks=(3, 5, 10))
        assert set(report.cells) == {(m, k) for m in (16, 8) for k in (3, 5, 10)}

    def test_matches_brute_force_evaluator(self):
        rng = np.random.default_rng(11)
        model = self.tiny_model()
        words = ["ant", "bird", "cat", "dog", "eel", "fox", "goat", "hen"]
        records = []
        for qi in range(5):
            q_words = " ".join(rng.choice(words, size=2, replace=False))
            for ti in range(4):
                t_words = " ".join(rng.choice(words, size=3, replace=True))
                grade = int(rng.integers(1, 6))
                records.append(
                    RelevanceRecord(
                        qid=f"q{qi}", query=q_words,
                        title_id=f"t{qi}_{ti}", title=t_words, grade=grade,
                    )
                )
            # guarantee a relevant title per query
            records.append(
                RelevanceRecord(
                    qid=f"q{qi}", query=q_words,
                    title_id=f"t{qi}_pos", title=q_words + " extra", grade=5,
                )
            )
        report = sequential_evaluate(model, records, (16, 8), ks=(3, 5))

        # independent evaluator: full per-query sort over cosine similarities
        split = split_judgments(records)
        corpus = split.corpus
        embs = {tid: encode(model, title) for tid, title in corpus}
        for m in (16, 8):
            sums = {k: [0.0, 0.0, 0.0, 0.0] for k in (3, 5)}
            for judgment in split.judged:
                qe = encode(model, judgment.query)
                scored = []
                for row, (tid, _) in enumerate(corpus):
                    if embs[tid].degenerate:
                        continue
                    c = cosine_prefix(embs[tid], qe, m)
                    scored.append((tid, c, row))
                scored.sort(key=lambda x: (-x[1], x[2]))
                ranked = [tid for tid, _, _ in scored]
                for k in (3, 5):
                    bp, br, bn, brr = brute_force_metrics(ranked, judgment.relevant, k)
                    acc = sums[k]
                    acc[0] += bp
                    acc[1] += br
                    acc[2] += bn
                    acc[3] += brr
            for k in (3, 5):
                cell = report.cell(m, k)
                q = len(split.judged)
                assert cell.precision == pytest.approx(sums[k][0] / q, abs=1e-12)
                assert cell.recall == pytest.approx(sums[k][1] / q, abs=1e-12)
                assert cell.ndcg == pytest.approx(sums[k][2] / q, abs=1e-12)
                assert cell.mrr == pytest.approx(sums[k][3] / q, abs=1e-12)

    def test_no_judged_queries_rejected(self):
        records = make_records([("q1", "a b", "t1", "c d", 3)])
        with pytest.raises(DataError, match="no judged queries"):
            sequential_evaluate(self.tiny_model(), records, (16,))

    def test_report_json_roundtrip(self):
        records = make_records(
            [
                ("q1", "alpha beta", "t1", "alpha beta gamma", 5),
                ("q1", "alpha beta", "t2", "noise title", 1),
            ]
        )
        report = sequential_evaluate(self.tiny_model(), records, (16, 8), ks=(3,))
        restored = MetricsReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert restored.cells == report.cells
        assert restored.query_count == report.query_count

    def test_determinism(self):
        records = make_records(
            [
                ("q1", "alpha beta", "t1", "alpha beta gamma", 5),
                ("q1", "alpha beta", "t2", "noise title", 1),
                ("q2", "delta", "t3", "delta epsilon", 4),
            ]
        )
        a = sequential_evaluate(self.tiny_model(), records, (16, 8))
        b = sequential_evaluate(self.tiny_model(), records, (16, 8))
        assert a.to_json() == b.to_json()


class TestCappedCorpus:
    def test_keeps_relevant_titles(self):
        records = []
        for i in range(50):
            records.append(
                RelevanceRecord("q1", "query words", f"t{i}", f"title {i}", 5 if i < 3 else 1)
            )
        split = split_judgments(records)
        corpus = capped_corpus(split, corpus_cap=10, seed=0)
        assert len(corpus) == 10
        kept = {tid for tid, _ in corpus}
        assert {"t0", "t1", "t2"} <= kept

    def test_deterministic(self):
        records = [
            RelevanceRecord("q1", "q", f"t{i}", f"title {i}", 5 if i == 0 else 2)
            for i in range(40)
        ]
        split = split_judgments(records)
        assert capped_corpus(split, 12, seed=7) == capped_corpus(split, 12, seed=7)


class TestDeltaReport:
    def fake_report(self, value):
        dims, ks = (8, 4), (3,)
        cells = {
            (m, k): __import__("near2.metrics", fromlist=["MetricsCell"]).MetricsCell(
                precision=value, recall=value, ndcg=value, mrr=value
            )
            for m in dims
            for k in ks
        }
        return MetricsReport(dims=dims, ks=ks, query_count=1, corpus_size=1, cells=cells)

    def test_equal_reports_are_zero(self):
        d = delta_report(self.fake_report(0.5), self.fake_report(0.5))
        assert format_delta(d.deltas[(8, 3)]["ndcg"]) == "+0.00%"

    def test_ten_percent(self):
        d = delta_report(self.fake_report(0.55), self.fake_report(0.5))
        assert d.deltas[(8, 3)]["ndcg"] == pytest.approx(0.1, rel=1e-9)
        assert format_delta(d.deltas[(8, 3)]["ndcg"]) == "+10.00%"

    def test_zero_baseline_is_na(self):
        d = delta_report(self.fake_report(0.5), self.fake_report(0.0))
        assert d.deltas[(8, 3)]["ndcg"] is None
        assert format_delta(None) == "n/a"
        assert "n/a" in d.to_csv()

    def test_grid_mismatch(self):
        a = self.fake_report(0.5)
        b = MetricsReport(dims=(8,), ks=(3,), query_count=1, corpus_size=1,
                          cells={(8, 3): a.cells[(8, 3)]})
        with pytest.raises(DataError, match="grids"):
            delta_report(a, b)


class TestNormalizeScores:
    def test_subtraction_rule(self):
        out = normalize_scores([0.9, 0.5, 0.1])
        np.testing.assert_allclose(out, [0.8, 0.4, 0.0])

    def test_single_score(self):
        assert normalize_scores([0.37]).tolist() == [0.0]

    def test_shift_invariance_exact_for_representable_shifts(self):
        scores = np.array([-0.75, 0.25, 0.5, 0.875])
        shifted = normalize_scores(scores + 0.125)
        assert np.array_equal(shifted, normalize_scores(scores))

    def test_shift_invariance_close_for_general_shifts(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(-1, 1, size=50)
        np.testing.assert_allclose(
            normalize_scores(scores + 0.123456), normalize_scores(scores), atol=1e-12
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_scores([])


class TestScoreHistogram:
    def test_single_hot_bin(self):
        rows = score_histogram([0.95, 0.95, 0.95], 4)
        assert [count for _, _, count in rows] == [0, 0, 0, 3]
        assert rows[3][0] == 0.5 and rows[3][1] == 1.0

    def test_empty_scores(self):
        rows = score_histogram([], 5)
        assert sum(count for _, _, count in rows) == 0
        assert len(rows) == 5

    def test_counts_conserved(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(-1, 1, size=377)
        rows = score_histogram(scores, 11)
        assert sum(count for _, _, count in rows) == 377

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            score_histogram([1.5], 4)

    def test_csv_shape(self):
        csv = histogram_csv(score_histogram([0.0, 0.5], 2))
        lines = csv.strip().split("\n")
        assert lines[0] == "bin_low,bin_high,count"
        assert len(lines) == 3


# --- panel scoring against the one-query-at-a-time oracle ----------------------

ORACLE_WORDS = ("ant", "bee", "cat", "dog", "eel", "fox", "gnu", "hen")
ORACLE_DIMS = DimSet((6, 4, 2))


def oracle_model(column0, column1, head, tail) -> EncoderModel:
    """Two features per bucket; the 2-prefix reads feature 0 alone, so a text
    whose buckets all hold 0 there has a zero 2-prefix and a nonzero rest.
    Small integer parameters make exact score ties common."""
    table = np.stack([column0, column1], axis=1).astype(np.float64)
    projection = np.zeros((2, ORACLE_DIMS.full))
    projection[0] = head
    projection[1, 2:] = tail
    return EncoderModel(64, 2, ORACLE_DIMS, 0, table, projection)


@st.composite
def judged_sets(draw):
    """(model, records): queries of 1-2 words or none (degenerate), each with
    titles of 1-3 words, none (degenerate rows) or an earlier title's text
    (duplicates, so exact ties)."""
    values = st.sampled_from([0.0, 0.0, 1.0, 2.0])
    model = oracle_model(
        draw(st.lists(values, min_size=64, max_size=64), label="feature 0"),
        draw(st.lists(st.sampled_from([-1.0, 1.0, 2.0]), min_size=64, max_size=64), label="feature 1"),
        draw(st.lists(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0]), min_size=6, max_size=6),
             label="head"),
        draw(st.lists(st.sampled_from([-2.0, -1.0, 1.0, 2.0]), min_size=4, max_size=4), label="tail"),
    )
    words = st.lists(st.sampled_from(ORACLE_WORDS), min_size=1, max_size=3).map(" ".join)
    records, titles = [], []
    for qi in range(draw(st.integers(1, 12), label="queries")):
        query = draw(st.one_of(words, st.just("!!!")), label="query")
        for ti in range(draw(st.integers(1, 4), label="titles")):
            choices = [words, st.just("---")] + ([st.sampled_from(titles)] if titles else [])
            title = draw(st.one_of(*choices), label="title")
            titles.append(title)
            grade = draw(st.integers(1, 5), label="grade")
            records.append(RelevanceRecord(f"q{qi}", query, f"t{qi}_{ti}", title, grade))
    return model, records


def outcome(fn, *args, **kwargs):
    """A call's result, or its error's type and message."""
    try:
        return fn(*args, **kwargs)
    except (DataError, ZeroVectorError) as e:
        return type(e), str(e)


def report_outcome(fn, *args, **kwargs):
    out = outcome(fn, *args, **kwargs)
    return out.to_json() if isinstance(out, MetricsReport) else out


def scores_outcome(fn, *args, **kwargs):
    out = outcome(fn, *args, **kwargs)
    return (out.dtype, out.tobytes()) if isinstance(out, np.ndarray) else out


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    case=judged_sets(),
    panel=st.sampled_from([1, 2, 3, 32]),
    ks=st.sets(st.sampled_from([1, 3, 10, 50]), min_size=1),
    m=st.sampled_from(list(ORACLE_DIMS)),
    corpus_cap=st.sampled_from([DEFAULT_CORPUS_CAP, 6]),
    graded=st.booleans(),
)
def test_panel_scoring_equals_the_one_query_oracle(monkeypatch, case, panel, ks, m, corpus_cap,
                                                   graded):
    # k up to 50 exceeds every generated corpus, so some rankings run out
    model, records = case
    monkeypatch.setattr(index_module, "PANEL_QUERIES", panel)
    args = (model, records, ORACLE_DIMS, ks, corpus_cap, 3, graded)
    assert report_outcome(sequential_evaluate, *args) == report_outcome(oracle_evaluate, *args)
    hist_args = (model, records, m, corpus_cap, 3)
    assert scores_outcome(judged_scores, *hist_args) == scores_outcome(oracle_hist_scores, *hist_args)


def word_bucket(word: str) -> int:
    (bucket,) = tokenize(word, 64).ids
    return int(bucket)


def test_panel_scoring_equals_the_oracle_on_every_edge_at_once(monkeypatch):
    """One set holding every case the generator above may or may not reach:
    a degenerate row, duplicate titles, a query with a zero 2-prefix, and k
    above the number of searchable rows, over several panels."""
    column0 = np.ones(64)
    column0[word_bucket("eel")] = 0.0  # "eel" alone has a zero 2-prefix
    model = oracle_model(column0, np.ones(64), [1, 2, 0, 1, 2, 1], [1, -1, 2, 1])
    texts = ["ant bee", "eel", "cat dog", "fox", "gnu hen", "ant"]
    records = []
    for qi, query in enumerate(texts * 3):
        records += [
            RelevanceRecord(f"q{qi}", query, f"t{qi}_0", query, 5),
            RelevanceRecord(f"q{qi}", query, f"t{qi}_1", "---", 2),
            RelevanceRecord(f"q{qi}", query, f"t{qi}_2", texts[(qi + 1) % len(texts)], 4),
        ]
    index, usable, _ = judged_queries(model, records, DEFAULT_CORPUS_CAP, 0)
    searchable = np.count_nonzero(~index.degenerate)
    assert index.degenerate.any() and searchable < 50
    assert len({text for text in index.titles}) < index.count
    assert any(not np.any(emb.values[:2]) for _, emb in usable)
    monkeypatch.setattr(index_module, "PANEL_QUERIES", 4)
    args = (model, records, ORACLE_DIMS, (1, 5, 50))
    assert sequential_evaluate(*args).to_json() == oracle_evaluate(*args).to_json()
    with pytest.raises(ZeroVectorError, match="^query has a zero-norm 2-prefix$"):
        judged_scores(model, records, 2, DEFAULT_CORPUS_CAP, 0)
    with pytest.raises(ZeroVectorError, match="^query has a zero-norm 2-prefix$"):
        oracle_hist_scores(model, records, 2)
    for m in (6, 4):
        assert judged_scores(model, records, m, DEFAULT_CORPUS_CAP, 0).tobytes() == (
            oracle_hist_scores(model, records, m).tobytes())


def test_eval_report_and_hist_csv_are_pinned(tmp_path):
    # sha256 of a seeded eval report and hist CSV body (the header line names
    # temporary paths), recorded when every query was scored on its own; 60
    # judged queries span two panels of PANEL_QUERIES = 32
    _, _, test = gen_synthetic(SynthSpec(seed=3, query_count=600, titles_per_query=4))
    write_records(test, tmp_path / "test.jsonl")
    model = EncoderModel.create(bucket_count=1024, feature_dim=16, dims=DimSet((96, 64, 32, 8)),
                                seed=5)
    save_model(model, tmp_path / "m.bin")
    common = ["--model", str(tmp_path / "m.bin"), "--test", str(tmp_path / "test.jsonl")]
    assert main(["eval", *common, "--report", str(tmp_path / "r.json")]) == 0
    report = json.loads((tmp_path / "r.json").read_text())["report"]
    assert report["query_count"] == 60
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == "26200595d1f56deca9d32fbc1f53a0879abf545cab1a92355c08e31bb5dec9de"
    assert main(["hist", *common, "--dim", "32", "--bins", "400",
                 "--out", str(tmp_path / "h.csv")]) == 0
    body = (tmp_path / "h.csv").read_text().split("\n", 1)[1]
    digest = hashlib.sha256(body.encode()).hexdigest()
    assert digest == "040d0e5fa571394ade7abbe05acdff00d4202cbf2bc44d6a8e4dd157173365fa"
