"""Tests of the benchmark itself: smoke-sized runs, planted faults, refusal without sources."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _assert_metrics(metrics: dict, declared: list[dict]) -> None:
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert m["better"] in ("higher", "lower")
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert math.isfinite(metrics[m["name"]]["value"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload, tmp_path):
    result, details = run.run_workload(workload, seed=3, seconds=0.2, trace=False,
                                       scale="smoke", work=tmp_path)
    assert result["correct"] and result["failed"] == 0, details["failures"]
    assert result["attempted"] >= 1
    _assert_metrics(result["metrics"], SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run_reports_every_layer_metric(tmp_path):
    result, details = run.run_workload("eval", seed=3, seconds=0.2, trace=True,
                                       scale="smoke", work=tmp_path)
    assert result["correct"], details["failures"]
    _assert_metrics(result["metrics"], SPEC["per_layer"])
    # the eval workload never trains
    assert "trainer.adamw_step_ms" in details["not_observed"]
    assert result["metrics"]["kernels.scan_calls"]["value"] > 0


def test_same_seed_twice_keeps_determinism_digests(tmp_path):
    for _ in range(2):
        result, details = run.run_workload("eval", seed=5, seconds=0.2, trace=False,
                                           scale="smoke", work=tmp_path)
        assert result["failed"] == 0, details["failures"]


def _tiny_retrieval(tally):
    n2 = run._import_near2()
    train, valid, test = n2.data.gen_synthetic(n2.data.SynthSpec(seed=4, query_count=40))
    split = n2.data.split_judgments(train + valid + test)
    model = n2.encoder.EncoderModel.create(bucket_count=512, feature_dim=16, seed=4)
    idx = n2.index.build_index(model, split.corpus)
    return run.Retrieval(n2, tally, model, idx, "unused", "unused", split.judged, seed=4)


def test_planted_wrong_hit_is_counted_failed():
    tally = run.Tally()
    r = _tiny_retrieval(tally)
    r.cover()
    r.verify(full_funnel_checks=1)
    assert tally.failed == 0, tally.messages

    # The last hit is replaced by the row ranked 11th, with its true score and
    # rank 10: order, ranks and scores still hold, only the reference differs.
    search = r.n2.index.search_exact
    for query in r.queries:
        eleven = search(r.idx, r.n2.encoder.encode(r.model, query), 768, 11)
        if len(eleven) == 11 and eleven[9].score - eleven[10].score > 1e-9:
            break
    else:
        pytest.fail("no query whose 10th and 11th hits differ in score")
    planted = eleven[:9] + [eleven[10].__class__(row=eleven[10].row, doc_id=eleven[10].doc_id,
                                                 score=eleven[10].score, rank=10)]
    assert run.hits_match(planted[:9], r.idx.ids, *_ref_top(r, query, 9))
    r.first_hits[("m768", query)] = planted
    r.verify(full_funnel_checks=0)
    assert tally.failed == 1
    assert "float64 reference" in tally.messages[0]


def _ref_top(r, query, k):
    emb = r.n2.encoder.encode(r.model, query)
    ref = run.Reference(r.n2, r.idx, np.array([emb.values]), 768)
    return ref.scores[0], ref.top(0, k)


def test_hits_match_rejects_wrong_score_and_accepts_exact():
    tally = run.Tally()
    r = _tiny_retrieval(tally)
    emb = r.n2.encoder.encode(r.model, r.queries[0])
    hits = r.n2.index.search_exact(r.idx, emb, 64, 10)
    ref = run.Reference(r.n2, r.idx, np.array([emb.values]), 64)
    assert run.hits_match(hits, r.idx.ids, ref.scores[0], ref.top(0, 10))
    bumped = [hits[0].__class__(row=h.row, doc_id=h.doc_id, score=h.score + 1e-9, rank=h.rank)
              for h in hits]
    assert not run.hits_match(bumped, r.idx.ids, ref.scores[0], ref.top(0, 10))


def test_missing_wrapped_function_is_not_observed(monkeypatch):
    monkeypatch.setattr(tracing, "WRAPS", tracing.WRAPS + [
        ("near2.index", "no_such_function", "index.no_such_function", None)])
    with tracing.Tracer() as tracer:
        pass
    assert tracer.missing == ["near2.index.no_such_function"]
    metrics, not_observed = tracing.layer_metrics([], 1.0, 1.0)
    assert set(metrics) == {name for name, *_ in tracing.LAYER_METRICS}
    assert "kernels.scan_ms.m64" in not_observed
    assert metrics["kernels.scan_ms.m64"]["value"] == 0.0


def test_refuses_without_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
