"""Retrieval quality metrics, the per-dimension sequential evaluator, delta
reporting, and similarity-score analysis tools.

All metrics use binary relevance (grade > 3) by default; graded NDCG gains
(2^grade - 1) are available behind an explicit flag. Aggregation follows a
fixed query order so reports are byte-reproducible.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import numpy as np

from .data import JudgmentsSplit, QueryJudgment, RelevanceRecord, split_judgments
from .encoder import EncoderModel, FeatureBag, encode_bag, feature_bags
from .encoder import encode  # unused here; bench/tracing.py wraps near2.metrics.encode
from .errors import DataError, ZeroVectorError
from .index import PrefixIndex, _scores, build_index, query_panels, top_k
from .index import search_exact  # unused here; bench/tracing.py wraps near2.metrics.search_exact
from .nested import DimSet, NestedEmbedding

DEFAULT_KS = (3, 5, 10)
DEFAULT_CORPUS_CAP = 200_000


def precision_recall_at_k(ranked_ids, relevant, k: int) -> tuple[float, float]:
    """(precision@k, recall@k) with binary relevance.

    The precision divisor is k even when fewer items were returned.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not relevant:
        raise ValueError("relevant set must be non-empty")
    hits = sum(1 for doc_id in ranked_ids[:k] if doc_id in relevant)
    return hits / k, hits / len(relevant)


def ndcg_at_k(ranked_ids, relevant, k: int, grades: dict | None = None) -> float:
    """NDCG@k; binary gains by default, 2^grade - 1 when a grade map is given."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not relevant:
        raise ValueError("relevant set must be non-empty")
    if grades is None:
        gains = [1.0 if doc_id in relevant else 0.0 for doc_id in ranked_ids[:k]]
        ideal = [1.0] * min(k, len(relevant))
    else:
        gains = [float(2 ** grades.get(doc_id, 0) - 1) for doc_id in ranked_ids[:k]]
        ideal = sorted((float(2**g - 1) for g in grades.values()), reverse=True)[:k]
    dcg = sum(g / math.log2(i + 1) for i, g in enumerate(gains, start=1))
    idcg = sum(g / math.log2(i + 1) for i, g in enumerate(ideal, start=1))
    return dcg / idcg if idcg > 0 else 0.0


def mrr_at_k(ranked_ids, relevant, k: int) -> float:
    """Reciprocal rank of the first relevant item within the top k, else 0."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not relevant:
        raise ValueError("relevant set must be non-empty")
    for rank, doc_id in enumerate(ranked_ids[:k], start=1):
        if doc_id in relevant:
            return 1.0 / rank
    return 0.0


@dataclass(frozen=True)
class MetricsCell:
    precision: float
    recall: float
    ndcg: float
    mrr: float


@dataclass
class MetricsReport:
    """Mean metrics over judged queries on a (dimension, cutoff) grid."""

    dims: tuple[int, ...]
    ks: tuple[int, ...]
    query_count: int
    corpus_size: int
    cells: dict[tuple[int, int], MetricsCell]
    skipped_queries: int = 0

    def cell(self, m: int, k: int) -> MetricsCell:
        return self.cells[(int(m), int(k))]

    def to_dict(self) -> dict:
        grid = {
            str(m): {
                str(k): vars(self.cells[(m, k)]) for k in self.ks
            }
            for m in self.dims
        }
        return {
            "dims": list(self.dims),
            "ks": list(self.ks),
            "query_count": self.query_count,
            "corpus_size": self.corpus_size,
            "skipped_queries": self.skipped_queries,
            "metrics": grid,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, obj: dict) -> "MetricsReport":
        dims = tuple(int(m) for m in obj["dims"])
        ks = tuple(int(k) for k in obj["ks"])
        grid = obj["metrics"]
        cells = {
            (m, k): MetricsCell(**{name: float(v) for name, v in grid[str(m)][str(k)].items()})
            for m in dims for k in ks
        }
        return cls(
            dims=dims,
            ks=ks,
            query_count=int(obj["query_count"]),
            corpus_size=int(obj["corpus_size"]),
            cells=cells,
            skipped_queries=int(obj.get("skipped_queries", 0)),
        )


def capped_corpus(
    split: JudgmentsSplit, corpus_cap: int, seed: int
) -> list[tuple[str, str]]:
    """Seed-deterministic corpus subsample that always keeps judged-relevant titles."""
    corpus = split.corpus
    if len(corpus) <= corpus_cap:
        return corpus
    keep = set()
    for judgment in split.judged:
        keep.update(judgment.relevant)
    if len(keep) > corpus_cap:
        raise DataError(
            f"corpus cap {corpus_cap} cannot hold the {len(keep)} judged-relevant titles"
        )
    fillers = [entry for entry in corpus if entry[0] not in keep]
    rng = random.Random(seed)
    chosen = set(rng.sample(range(len(fillers)), corpus_cap - len(keep)))
    picked = {fillers[i][0] for i in chosen} | keep
    return [entry for entry in corpus if entry[0] in picked]


def _judged_split(
    records: list[RelevanceRecord], bucket_count: int
) -> tuple[JudgmentsSplit, dict[str, FeatureBag]]:
    """The records' judged split and each distinct judged query's feature
    bag, from one `feature_bags` call. `DataError` if no query is judged or
    every judged query has no features (and so embeds degenerately); neither
    depends on the model's parameters, so `train` checks a validation set
    with this before its first step."""
    split = split_judgments(records)
    if not split.judged:
        raise DataError("no judged queries: every query lacks a grade > 3 title")
    bags = feature_bags((j.query for j in split.judged), bucket_count)
    if not any(len(bag) for bag in bags.values()):
        raise DataError("every judged query embeds degenerately")
    return split, bags


def judged_queries(
    model: EncoderModel, records: list[RelevanceRecord], corpus_cap: int, seed: int
) -> tuple[PrefixIndex, list[tuple[QueryJudgment, NestedEmbedding]], int]:
    """The set-up every evaluation over a test set shares.

    Splits the records into judged queries and a corpus (`_judged_split`),
    indexes the capped corpus and embeds each distinct judged query once;
    each embedding is `encode`'s of its text. Returns the index, the
    (judgment, embedding) pairs in judged order, and how many judged queries
    were skipped because their text embeds degenerately.
    """
    split, bags = _judged_split(records, model.bucket_count)
    index = build_index(model, capped_corpus(split, corpus_cap, seed))
    embeddings = {q: encode_bag(model, bag) for q, bag in bags.items()}
    usable = [(j, embeddings[j.query]) for j in split.judged if not embeddings[j.query].degenerate]
    return index, usable, len(split.judged) - len(usable)


def sequential_evaluate(
    model: EncoderModel,
    records: list[RelevanceRecord],
    dims,
    ks=DEFAULT_KS,
    corpus_cap: int = DEFAULT_CORPUS_CAP,
    seed: int = 0,
    graded: bool = False,
) -> MetricsReport:
    """Embed the corpus once, then score every judged query at every dimension.

    For each prefix dimension m the evaluator ranks the top k of every query
    exactly as `search_exact` would, and averages precision/recall/NDCG/MRR
    at each cutoff. The queries go through `top_k` in the panels
    `query_panels` yields, each ranked in two vectorised steps: one float32
    bound pass over the bands picks every query's candidate rows, and one
    call of the exact scorer scores just those (query, row) pairs, with the
    bits a one-query search gives; one sort then ranks the whole panel. So
    the report is a full scan's.
    A query whose m-prefix has zero norm retrieves nothing at that m.
    Queries whose text embeds degenerately are skipped and counted. Every
    dimension is checked against the model's before anything is embedded.
    The cutoffs are sorted and de-duplicated, so the report's grid holds
    each one once.
    """
    dims = dims if isinstance(dims, DimSet) else DimSet(tuple(dims))
    for m in dims:
        model.dims.require(m)
    ks = tuple(sorted({int(k) for k in ks}))
    index, usable, skipped = judged_queries(model, records, corpus_cap, seed)

    k_max = max(ks)
    queries = [emb for _, emb in usable]
    cells: dict[tuple[int, int], MetricsCell] = {}
    for m in dims:
        sums = {k: [0.0, 0.0, 0.0, 0.0] for k in ks}
        # a query no panel holds has a zero-norm prefix at this m only: no retrieval
        ranked_ids = [[] for _ in usable]
        for positions, units in query_panels(index, queries, m):
            for j, (rows, _, _) in zip(positions, top_k(index, units, m, k_max)):
                ranked_ids[j] = index.ids.take(rows)
        for (judgment, _), ranked in zip(usable, ranked_ids):
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


def judged_scores(
    model: EncoderModel, records: list[RelevanceRecord], m: int, corpus_cap: int, seed: int
) -> tuple[np.ndarray, int]:
    """Every prefix-m cosine of every usable judged query against every
    searchable corpus row, query by query in judged order: the scores
    `near2 hist` bins, from one full exact scan (`_scores`) of every row
    per panel that `query_panels` yields.

    Returns the scores and how many usable judged queries were skipped
    because their m-prefix has zero norm, the queries `sequential_evaluate`
    counts as retrieving nothing at m. ZeroVectorError if that is all of them.
    """
    index, usable, _ = judged_queries(model, records, corpus_cap, seed)
    scores, scored = [], 0
    for positions, units in query_panels(index, [emb for _, emb in usable], m):
        scores.append(_scores(index, units, m)[1].T.ravel())  # query by query
        scored += len(positions)
    if not scores:
        raise ZeroVectorError(f"every judged query has a zero-norm {m}-prefix")
    return np.concatenate(scores), len(usable) - scored


@dataclass
class DeltaReport:
    """Per-cell relative change of a candidate report against a baseline.

    Values are fractions ((candidate - baseline) / baseline); a zero baseline
    yields None, rendered as "n/a", never infinity.
    """

    dims: tuple[int, ...]
    ks: tuple[int, ...]
    deltas: dict[tuple[int, int], dict[str, float | None]]

    def to_csv(self) -> str:
        lines = ["dim,k,metric,delta"]
        for m in self.dims:
            for k in self.ks:
                for metric in ("precision", "recall", "ndcg", "mrr"):
                    lines.append(f"{m},{k},{metric},{format_delta(self.deltas[(m, k)][metric])}")
        return "\n".join(lines) + "\n"


def format_delta(delta: float | None) -> str:
    """The paper-style signed-percentage rendering, e.g. +10.00% or n/a."""
    if delta is None:
        return "n/a"
    return f"{delta * 100:+.2f}%"


def delta_report(candidate: MetricsReport, baseline: MetricsReport) -> DeltaReport:
    """Relative metric change per (dimension, cutoff) cell; grids must match."""
    if candidate.dims != baseline.dims or candidate.ks != baseline.ks:
        raise DataError("candidate and baseline reports cover different (m, k) grids")
    deltas = {}
    for m in candidate.dims:
        for k in candidate.ks:
            c, b = candidate.cell(m, k), baseline.cell(m, k)
            deltas[(m, k)] = {
                name: (None if getattr(b, name) == 0.0
                       else (getattr(c, name) - getattr(b, name)) / getattr(b, name))
                for name in ("precision", "recall", "ndcg", "mrr")
            }
    return DeltaReport(dims=candidate.dims, ks=candidate.ks, deltas=deltas)


def normalize_scores(scores) -> np.ndarray:
    """Shift scores so the smallest becomes 0 (min-normalization).

    Call it with every similarity computed for the query, not just the
    displayed top-k, then read off the entries you display.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("normalize_scores needs at least one score")
    return scores - scores.min()


def score_histogram(scores, bin_count: int) -> list[tuple[float, float, int]]:
    """Equal-width histogram of similarity scores over [-1, 1].

    Returns (bin_low, bin_high, count) rows; counts always sum to the number
    of input scores. Scores outside [-1, 1] are an error.
    """
    if bin_count < 1:
        raise ValueError(f"bin_count must be >= 1, got {bin_count}")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size and (scores.min() < -1.0 or scores.max() > 1.0):
        raise ValueError("scores must lie in [-1, 1]")
    counts, edges = np.histogram(scores, bins=bin_count, range=(-1.0, 1.0))
    return [
        (float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(bin_count)
    ]


def histogram_csv(rows: list[tuple[float, float, int]]) -> str:
    lines = ["bin_low,bin_high,count"]
    lines.extend(f"{lo!r},{hi!r},{count}" for lo, hi, count in rows)
    return "\n".join(lines) + "\n"
