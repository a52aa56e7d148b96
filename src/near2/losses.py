"""Ranking and contrastive losses over nested embeddings, with analytic gradients.

Every loss reads one `LossBatch`: the step's embedding matrix, one raw row
per distinct text, and row indices into it for each role (queries, their
positives and negatives, pair lefts and rights), laid out once as the row
pairs whose cosines the losses read. A loss gives the derivative of its value
with respect to each pair's cosine; `_cosine_gradient` turns that into one
gradient of the matrix's shape, where a row used in several places sums the
gradients of all its uses. Only this module maps roles to rows.

Three layers:

* single-dimension task losses: a margin hinge pushing query-positive cosine
  above query-negative cosine (`mnrl_hinge`), and an online contrastive loss
  over the hardest labeled pairs in a batch (`ocl`);
* `mrl_compose`, the plain sum of a task loss across every nested prefix
  dimension of a `DimSet`;
* `multitask_step_loss`, the one loss of every training step: the composed
  hinge loss on queries plus the weighted composed contrastive loss on pairs.

All gradients are with respect to the raw (unnormalized) embedding entries.
A loss at prefix dimension m has identically zero gradient beyond position m.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence

import numpy as np

from .errors import NumericalError, ZeroVectorError
from .nested import DimSet, EPS_ZERO


def _row_indices(rows, n: int, name: str) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.intp).reshape(-1)
    if rows.size and (rows.min() < 0 or rows.max() >= n):
        raise ValueError(f"{name} row index out of range for {n} embedding rows")
    return rows


class _Pairs:
    """Row pairs (a[t], b[t]) as indices into `rows`, the distinct batch rows
    they read, and both endpoints of every pair sorted by row: row i's
    endpoints start at `starts[i]`, each with its `pair` and its `partners` row."""

    def __init__(self, a: np.ndarray, b: np.ndarray):
        ends = np.concatenate([a, b])
        self.rows, ends, counts = np.unique(ends, return_inverse=True, return_counts=True)
        self.a, self.b = ends[: len(a)], ends[len(a) :]
        order = np.argsort(ends, kind="stable")
        self.starts = np.cumsum(counts) - counts
        self.partners = np.concatenate([self.b, self.a])[order]
        self.pair = np.tile(np.arange(len(a)), 2)[order]


def _hinge_layout(queries, positives, negatives) -> tuple[_Pairs, tuple[np.ndarray, np.ndarray]]:
    """The hinge's pairs, every (query, positive) occurrence and then every
    (query, negative) one, and for each term (query i, positive j, negative k),
    in that order, the index of its positive pair and of its negative pair."""
    n_pos = np.array([len(g) for g in positives], dtype=np.intp)
    n_neg = np.array([len(g) for g in negatives], dtype=np.intp)
    a = np.repeat(np.tile(queries, 2), np.concatenate([n_pos, n_neg]))
    pairs = _Pairs(a, np.concatenate([np.zeros(0, dtype=np.intp), *positives, *negatives]))
    blocks = np.repeat(n_neg, n_pos)  # terms per positive pair
    offset = np.arange(blocks.sum()) - np.repeat(np.cumsum(blocks) - blocks, blocks)
    first_neg = np.repeat(n_pos.sum() + np.cumsum(n_neg) - n_neg, n_pos)
    return pairs, (np.repeat(np.arange(blocks.size), blocks), np.repeat(first_neg, blocks) + offset)


@dataclass
class LossBatch:
    """A step's (n, D) embedding matrix and the rows each role reads.

    `queries` holds one row per query; `positives[i]` and `negatives[i]` hold
    query i's rows, at least one of each. `lefts`, `rights` and `labels` are
    parallel; label 1 marks a matching pair. Either part may be empty.
    Construction lays out the m-independent pairs the losses read:
    `hinge_pairs`, `hinge_terms` (`_hinge_layout`) and `label_pairs`.
    Non-finite embeddings raise `NumericalError`.
    """

    embeddings: np.ndarray
    dims: DimSet
    queries: np.ndarray = ()
    positives: list[np.ndarray] = ()
    negatives: list[np.ndarray] = ()
    lefts: np.ndarray = ()
    rights: np.ndarray = ()
    labels: np.ndarray = ()

    def __post_init__(self):
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        d = self.dims.full
        if self.embeddings.ndim != 2 or self.embeddings.shape[1] != d:
            raise ValueError(f"embeddings must be an (n, {d}) array")
        if not np.all(np.isfinite(self.embeddings)):
            raise NumericalError("embeddings must be finite")
        n = self.embeddings.shape[0]
        self.queries = _row_indices(self.queries, n, "queries")
        if len(self.positives) != len(self.queries) or len(self.negatives) != len(self.queries):
            raise ValueError("positives/negatives must align with queries")
        self.positives = [_row_indices(g, n, f"positives[{i}]") for i, g in enumerate(self.positives)]
        self.negatives = [_row_indices(g, n, f"negatives[{i}]") for i, g in enumerate(self.negatives)]
        for name, groups in (("positives", self.positives), ("negatives", self.negatives)):
            for i, g in enumerate(groups):
                if not g.size:
                    raise ValueError(f"query {i} has empty {name}")
        self.lefts = _row_indices(self.lefts, n, "lefts")
        self.rights = _row_indices(self.rights, n, "rights")
        self.labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        if not len(self.lefts) == len(self.rights) == len(self.labels):
            raise ValueError("lefts, rights and labels must have equal length")
        if not np.isin(self.labels, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        self.hinge_pairs, self.hinge_terms = _hinge_layout(self.queries, self.positives, self.negatives)
        self.label_pairs = _Pairs(self.lefts, self.rights)

    @classmethod
    def from_texts(
        cls,
        embed: Callable[[Hashable], np.ndarray],
        dims: DimSet,
        queries: Sequence[Hashable] = (),
        positives: Sequence[Sequence[Hashable]] = (),
        negatives: Sequence[Sequence[Hashable]] = (),
        lefts: Sequence[Hashable] = (),
        rights: Sequence[Hashable] = (),
        labels: Sequence[int] = (),
    ) -> tuple["LossBatch", list]:
        """The batch with one row per distinct text, and those texts in row order.

        Rows follow first occurrence over queries, positives, negatives,
        lefts, rights; `embed(text)` gives a row's raw (D,) embedding.
        """
        slot: dict = {}

        def rows(texts):
            return [slot.setdefault(text, len(slot)) for text in texts]

        q = rows(queries)
        pos = [rows(g) for g in positives]
        neg = [rows(g) for g in negatives]
        left, right = rows(lefts), rows(rights)
        texts = list(slot)
        embeddings = np.stack([embed(text) for text in texts])
        return cls(embeddings, dims, q, pos, neg, left, right, labels), texts


@dataclass
class LossOutput:
    """A loss value, its per-prefix-dimension breakdown, and its gradient.

    `gradient` has the shape of the batch's embedding matrix: row r is the
    derivative with respect to embedding row r, summed over every role and
    occurrence that reads it. Rows no term reads are zero.
    """

    value: float
    per_dim: dict[int, float]
    gradient: np.ndarray
    warnings: tuple[str, ...] = field(default=())


def _pair_cosines(batch: LossBatch, pairs: _Pairs, m: int):
    """Unit m-prefixes and norms of `pairs.rows`, and each pair's cosine, a
    per-pair dot whose bits depend only on its two rows.

    A norm that overflows float64 raises `NumericalError`: the unit prefix
    would be all zeros, and every cosine and gradient silently zero with it.
    """
    prefix = batch.embeddings[pairs.rows, :m]
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(prefix, axis=1)
    if not np.all(np.isfinite(norms)):
        raise NumericalError(f"{m}-prefix norm overflows float64 in batch")
    if np.any(norms <= EPS_ZERO):
        raise ZeroVectorError(f"zero-norm {m}-prefix in batch")
    unit = prefix / norms[:, None]
    return unit, norms, np.einsum("ij,ij->i", unit[pairs.a], unit[pairs.b])


def _cosine_gradient(batch: LossBatch, pairs: _Pairs, unit, norms, cos, weights, m: int):
    """Gradient of sum_t weights[t] * cos(pair t) with respect to the raw rows,
    in columns [0, m): row r gets (sum w * u_partner - d_r * u_r) / |x_r| over
    its pair endpoints, d_r summing w * cos over the same endpoints."""
    w = weights[pairs.pair]
    toward = np.add.reduceat(w[:, None] * unit[pairs.partners], pairs.starts)
    d = np.add.reduceat(w * cos[pairs.pair], pairs.starts)
    gradient = np.zeros_like(batch.embeddings)
    gradient[pairs.rows, :m] = (toward - d[:, None] * unit) / norms[:, None]
    return gradient


def mnrl_hinge(batch: LossBatch, margin: float, m: int) -> LossOutput:
    """Margin hinge over all query (positive, negative) combinations at prefix m.

    Per query: sum over i in 1..P, j in 1..N of
    max(0, margin - cos(q, p_i) + cos(q, n_j)); the total is averaged over
    queries. Zero exactly when every positive beats every negative by at
    least the margin.
    """
    if not 0.0 <= margin <= 2.0:
        raise ValueError(f"margin must be in [0, 2], got {margin}")
    m = batch.dims.require(m)
    nq = len(batch.queries)
    if nq == 0:
        raise ValueError("hinge loss needs at least one query")

    pairs, (tp, tn) = batch.hinge_pairs, batch.hinge_terms
    unit, norms, cos = _pair_cosines(batch, pairs, m)
    hinge = margin - cos[tp] + cos[tn]
    active = hinge > 0.0
    value = float(hinge[active].sum()) / nq
    # d loss / d cos: -1 on each active term's positive pair, +1 on its negative pair
    n = len(cos)
    weights = (np.bincount(tn[active], minlength=n) - np.bincount(tp[active], minlength=n)) / nq
    gradient = _cosine_gradient(batch, pairs, unit, norms, cos, weights, m)
    return LossOutput(value=value, per_dim={m: value}, gradient=gradient)


def ocl(batch: LossBatch, margin_c: float, m: int) -> LossOutput:
    """Online contrastive loss over the hardest pairs at prefix m.

    With cosine distance d = 1 - cos: mean of d^2 over selected (hard)
    positives plus mean of max(0, margin_c - d)^2 over selected negatives.
    An empty selected set contributes 0.
    """
    if not 0.0 < margin_c < 2.0:
        raise ValueError(f"margin_c must be in (0, 2), got {margin_c}")
    if len(batch.labels) == 0:
        raise ValueError("online contrastive loss needs at least one pair")
    m = batch.dims.require(m)

    unit, norms, cos = _pair_cosines(batch, batch.label_pairs, m)
    dist = 1.0 - cos
    # hard pairs: positives farther than the closest negative, negatives closer
    # than the farthest positive; with one class absent, all of the other
    pos, neg = batch.labels == 1, batch.labels == 0
    sel_pos, sel_neg = pos, neg
    if pos.any() and neg.any():
        sel_pos, sel_neg = pos & (dist > dist[neg].min()), neg & (dist < dist[pos].max())

    value = 0.0
    ddist = np.zeros(len(dist))  # d loss / d dist
    if sel_pos.any():
        dp = dist[sel_pos]
        value += float(np.mean(dp * dp))
        ddist[sel_pos] = 2.0 * dp / dp.size
    if sel_neg.any():
        slack = np.maximum(0.0, margin_c - dist[sel_neg])
        value += float(np.mean(slack * slack))
        ddist[sel_neg] = -2.0 * slack / slack.size
    gradient = _cosine_gradient(batch, batch.label_pairs, unit, norms, cos, -ddist, m)
    return LossOutput(value=value, per_dim={m: value}, gradient=gradient)


TaskLoss = Callable[[LossBatch, int], LossOutput]


def mrl_compose(task: TaskLoss, batch: LossBatch, dims: DimSet) -> LossOutput:
    """Sum of a single-dimension task loss over every nested dimension in `dims`.

    Evaluation and summation run in fixed descending-M order so results are
    bit-reproducible. Gradient entry t accumulates a contribution from every
    m >= t, since each per-dimension gradient lives in its own prefix span.
    """
    value = 0.0
    per_dim: dict[int, float] = {}
    gradient = None
    for m in dims:
        try:
            out = task(batch, m)
        except Exception as e:
            e.args = (f"{e} while composing nested dimension m={m}",)
            raise
        value += out.value
        per_dim[m] = out.value
        if gradient is None:
            gradient = out.gradient
        else:
            gradient += out.gradient
    return LossOutput(value=value, per_dim=per_dim, gradient=gradient)


def multitask_step_loss(
    batch: LossBatch,
    dims: DimSet,
    margin: float,
    margin_c: float,
    lambda_ocl: float,
) -> LossOutput:
    """The composed hinge loss if the batch has queries, plus lambda_ocl times
    the composed contrastive loss if it has pairs and lambda_ocl > 0; either
    alone equals its `mrl_compose` (the hinge bit for bit, the contrastive one
    at lambda_ocl = 1). At lambda_ocl = 0 the pairs are never read.

    A batch without pairs contributes 0 to the contrastive term, with a
    warning flag when lambda_ocl > 0 instead of failing, so ranking-only steps
    remain valid.
    """
    if not len(batch.queries) and not len(batch.labels):
        raise ValueError("a step loss needs queries or pairs")
    if len(batch.queries):
        out = mrl_compose(lambda b, m: mnrl_hinge(b, margin, m), batch, dims)
    else:
        out = LossOutput(0.0, dict.fromkeys(dims, 0.0), np.zeros_like(batch.embeddings))
    if len(batch.labels) and lambda_ocl > 0:
        contrastive = mrl_compose(lambda b, m: ocl(b, margin_c, m), batch, dims)
        out.gradient += lambda_ocl * contrastive.gradient
        for m in dims:
            out.per_dim[m] += lambda_ocl * contrastive.per_dim[m]
    value = 0.0
    for m in dims:
        value += out.per_dim[m]
    empty = not len(batch.labels) and lambda_ocl > 0
    warnings = ("empty pair batch: contrastive term treated as 0",) if empty else ()
    return LossOutput(value=value, per_dim=out.per_dim, gradient=out.gradient, warnings=warnings)
