"""The evaluation loops as they stood before panel scoring, kept as an oracle
for `near2.metrics.sequential_evaluate` and `judged_scores` (`near2 hist`).

Both score every judged query on its own with one `all_scores` call per
query and dimension, a full exact scan of the corpus; evaluation ranks the
scan's top k as `search_exact` does, but without its float32 candidate
pass. The histogram loop skips a query whose prefix has zero norm,
where it once refused the whole set. The library scores the same queries
in panels and must agree with these loops exactly, bit for bit;
`test_metrics.py` checks that.
"""

from __future__ import annotations

import numpy as np

from near2.errors import ZeroVectorError
from near2.index import _top_hits, all_scores
from near2.metrics import (
    DEFAULT_CORPUS_CAP,
    DEFAULT_KS,
    MetricsCell,
    MetricsReport,
    judged_queries,
    mrr_at_k,
    ndcg_at_k,
    precision_recall_at_k,
)
from near2.nested import DimSet


def oracle_evaluate(
    model, records, dims, ks=DEFAULT_KS, corpus_cap=DEFAULT_CORPUS_CAP, seed=0, graded=False
) -> MetricsReport:
    dims = dims if isinstance(dims, DimSet) else DimSet(tuple(dims))
    for m in dims:
        model.dims.require(m)
    ks = tuple(sorted({int(k) for k in ks}))
    index, usable, skipped = judged_queries(model, records, corpus_cap, seed)

    k_max = max(ks)
    cells = {}
    for m in dims:
        sums = {k: [0.0, 0.0, 0.0, 0.0] for k in ks}
        for judgment, emb in usable:
            try:
                hits = _top_hits(index, *all_scores(index, emb, m), k_max)
            except ZeroVectorError:
                # zero-norm prefix at this m only; treat as no retrieval
                hits = []
            ranked = [hit.doc_id for hit in hits]
            grades = judgment.grades if graded else None
            for k in ks:
                p, r = precision_recall_at_k(ranked, judgment.relevant, k)
                n = ndcg_at_k(ranked, judgment.relevant, k, grades)
                rr = mrr_at_k(ranked, judgment.relevant, k)
                acc = sums[k]
                acc[0] += p
                acc[1] += r
                acc[2] += n
                acc[3] += rr
        for k in ks:
            acc = sums[k]
            q = len(usable)
            cells[(m, k)] = MetricsCell(acc[0] / q, acc[1] / q, acc[2] / q, acc[3] / q)

    return MetricsReport(
        dims=tuple(dims),
        ks=ks,
        query_count=len(usable),
        corpus_size=index.count,
        cells=cells,
        skipped_queries=skipped,
    )


def oracle_hist_scores(model, records, m, corpus_cap=DEFAULT_CORPUS_CAP, seed=0):
    """(scores, skipped): a query whose m-prefix has zero norm is skipped, as
    evaluation counts it as retrieving nothing; ZeroVectorError if all are."""
    index, usable, _ = judged_queries(model, records, corpus_cap, seed)
    scores = []
    for _, emb in usable:
        try:
            scores.append(all_scores(index, emb, m)[1])
        except ZeroVectorError:
            pass
    if not scores:
        raise ZeroVectorError(f"every judged query has a zero-norm {m}-prefix")
    return np.concatenate(scores), len(usable) - len(scores)
