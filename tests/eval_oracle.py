"""Full-scan oracles for the library's search paths, and the evaluation
loops as they stood before panel scoring, for `near2.metrics.sequential_evaluate`
and `judged_scores` (`near2 hist`).

`all_scores` is the one-query full exact scan of every row, and `top_hits`
ranks its scores with one full lexsort into hits; together they give what
`near2.index.top_k` and the searches built on it must return, without its
float32 candidate pass. The loops score every judged query on its own with
one `all_scores` call per query and dimension. The histogram loop skips a
query whose prefix has zero norm, where it once refused the whole set. The
library scores the same queries in panels and must agree with these loops
exactly, bit for bit; `test_metrics.py` checks that. `index_of` builds an
index from a (count, D) matrix.
"""

from __future__ import annotations

import numpy as np

from near2.errors import ZeroVectorError
from near2.index import PrefixIndex, SearchHit, _scores, _unit_prefix
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


def index_of(ids, titles, matrix, dims) -> PrefixIndex:
    """An index over a copy of the rows of a (count, D) matrix, cut into bands."""
    matrix = np.asarray(matrix, dtype=np.float32)
    edges = dims.edges
    bands = [np.array(matrix[:, lo:hi], order="C") for lo, hi in zip(edges, edges[1:])]
    return PrefixIndex(ids, titles, bands, dims)


def all_scores(index, query, m):
    """(rows, prefix-m cosines) of every searchable row: a full exact scan of
    every row for one query; ZeroVectorError if the query has no unit m-prefix."""
    m = index.dims.require(m)
    query.dims.require(m)
    rows, scores = _scores(index, _unit_prefix(query, m)[None], m)
    return rows, scores[:, 0]


def top_hits(index, rows, scores, k):
    """The top k of (rows, scores) as hits, by one full (-score, row) sort."""
    order = np.lexsort((rows, -scores))[:k]
    return [
        SearchHit(row=int(rows[o]), doc_id=index.ids[int(rows[o])], score=float(scores[o]), rank=r)
        for r, o in enumerate(order, start=1)
    ]


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
                hits = top_hits(index, *all_scores(index, emb, m), k_max)
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
