"""Ranking and contrastive losses over nested embeddings, computed from pooled rows.

An embedding is linear in its text's pooled row: x = p @ P, with p the (H,)
pooled row and P the (H, D) projection. Every loss reads one `LossBatch`: the
step's pooled rows, one per distinct text, the projection, and row indices
into the pooled rows for each role (queries, their positives and negatives,
pair lefts and rights), laid out once as the row pairs whose cosines the
losses read. Only this module maps roles to rows.

Nothing is widened to D columns. G_m = P[:, :m] @ P[:, :m]^T is the running
sum of the (H, H) Grams of the column bands the nested dims cut
(`DimSet.edges`), built once per batch. The m-prefix dot of rows a and b is
p_a G_m p_b^T, and a row's squared m-prefix norm is the same form with itself.
A loss gives the derivative of its value with respect to each pair's cosine;
`_cosine_coefficients` turns that into h^m, one (H,) row per pooled row, with
d value / d x[:m] = h^m @ P[:, :m]. For row r,

    h_r = sum_t w_t p_partner / (|x_r| |x_partner|) - d_r p_r / |x_r|^2

over its pair endpoints t, where d_r sums w_t cos_t over the same endpoints.
The exact chain rule then gives both gradients from the h^m:

    d value / d pooled         = sum_m h^m G_m
    d value / d P[:, lo:hi]    = (sum over m >= hi of pooled^T h^m) P[:, lo:hi]

for each band [lo, hi). A row used in several places sums the gradients of
all its uses.

Three layers:

* single-dimension task losses: a margin hinge pushing query-positive cosine
  above query-negative cosine (`mnrl_hinge`), and an online contrastive loss
  over the hardest labeled pairs in a batch (`ocl`);
* `mrl_compose`, the plain sum of a task loss across every nested prefix
  dimension of a `DimSet`;
* `multitask_step_loss`, the one loss of every training step: the composed
  hinge loss on queries plus the weighted composed contrastive loss on pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Hashable, Sequence

import numpy as np

from .errors import NumericalError, ZeroVectorError
from .nested import DimSet, EPS_ZERO


def _row_indices(rows, n: int, name: str) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.intp).reshape(-1)
    if rows.size and (rows.min() < 0 or rows.max() >= n):
        raise ValueError(f"{name} row index out of range for {n} pooled rows")
    return rows


def _prefix_grams(projection: np.ndarray, dims: DimSet) -> dict[int, np.ndarray]:
    """G_m for every m in `dims`: the Grams of the bands up to m, summed in
    ascending band order. A Gram that is not finite raises `NumericalError`."""
    grams: dict[int, np.ndarray] = {}
    total = None
    edges = dims.edges
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in zip(edges, edges[1:]):
            band = projection[:, lo:hi]
            gram = band @ band.T
            total = gram if total is None else total + gram
            grams[hi] = total
    # a non-finite band Gram leaves every later running sum non-finite
    if not np.isfinite(total).all():
        raise NumericalError("projection Gram overflows float64")
    return grams


def _form_slack(grams: dict[int, np.ndarray], bands: int) -> dict[int, float]:
    """c_m for every G_m: the quadratic form of a pooled row p under the
    computed G_m is within c_m |p|^2 of the exact |p P[:, :m]|^2.

    With H pooled columns and u = 2^-53: evaluating p G_m p^T (a row times
    G_m, then a dot) errs by at most about 2 H u |p| |G_m| |p|^T <= 2 H u
    |p|^2 ||G_m||_F; G_m itself, m columns summed band by band and then
    `bands` band Grams summed, errs entrywise by at most (m + bands) u
    |P_m| |P_m|^T, which moves the form by at most (m + bands) u |p|^2
    trace(G_m). A form at or below c_m |p|^2 is rounding noise.
    """
    slack = {}
    for m, gram in grams.items():
        h = gram.shape[0]
        slack[m] = 2.0**-53 * (2 * h * np.linalg.norm(gram) + (m + bands) * np.trace(gram))
    return slack


class _Pairs:
    """Row pairs as indices into `rows`, the distinct batch rows they read,
    and those rows' pooled values: pair t joins rows `low[t]` <= `high[t]`,
    in that order whichever role came first, so that a pair's cosine does
    not depend on its orientation. Both endpoints of every pair are sorted
    by row: row i's endpoints start at `starts[i]`, each with its `pair` and
    its `partners` row."""

    def __init__(self, a: np.ndarray, b: np.ndarray, pooled: np.ndarray):
        ends = np.concatenate([a, b])
        self.rows, ends, counts = np.unique(ends, return_inverse=True, return_counts=True)
        a, b = ends[: len(a)], ends[len(a) :]
        self.low, self.high = np.minimum(a, b), np.maximum(a, b)
        order = np.argsort(ends, kind="stable")
        self.starts = np.cumsum(counts) - counts
        self.partners = np.concatenate([b, a])[order]
        self.pair = np.tile(np.arange(len(a)), 2)[order]
        self.pooled = pooled[self.rows]


def _hinge_layout(queries, positives, negatives, pooled) -> tuple[_Pairs, tuple[np.ndarray, np.ndarray]]:
    """The hinge's pairs, every (query, positive) occurrence and then every
    (query, negative) one, and for each term (query i, positive j, negative k),
    in that order, the index of its positive pair and of its negative pair."""
    n_pos = np.array([len(g) for g in positives], dtype=np.intp)
    n_neg = np.array([len(g) for g in negatives], dtype=np.intp)
    a = np.repeat(np.tile(queries, 2), np.concatenate([n_pos, n_neg]))
    pairs = _Pairs(a, np.concatenate([np.zeros(0, dtype=np.intp), *positives, *negatives]), pooled)
    blocks = np.repeat(n_neg, n_pos)  # terms per positive pair
    offset = np.arange(blocks.sum()) - np.repeat(np.cumsum(blocks) - blocks, blocks)
    first_neg = np.repeat(n_pos.sum() + np.cumsum(n_neg) - n_neg, n_pos)
    return pairs, (np.repeat(np.arange(blocks.size), blocks), np.repeat(first_neg, blocks) + offset)


@dataclass
class LossBatch:
    """A step's (n, H) pooled rows, the (H, D) projection, and the rows each
    role reads.

    `queries` holds one row per query; `positives[i]` and `negatives[i]` hold
    query i's rows, at least one of each. `lefts`, `rights` and `labels` are
    parallel; label 1 marks a matching pair. Either part may be empty.
    Construction builds the prefix Grams (`grams[m]` is G_m for every m in
    `dims`) and their rounding slack (`form_slack`, see `_form_slack`), and
    lays out the m-independent pairs the losses read:
    `hinge_pairs`, `hinge_terms` (`_hinge_layout`) and `label_pairs`.
    Non-finite pooled rows, or a projection whose Grams are not finite, raise
    `NumericalError`. The projection is read, not copied: the gradients of a
    `LossOutput` must be formed before it changes.
    """

    pooled: np.ndarray
    projection: np.ndarray
    dims: DimSet
    queries: np.ndarray = ()
    positives: list[np.ndarray] = ()
    negatives: list[np.ndarray] = ()
    lefts: np.ndarray = ()
    rights: np.ndarray = ()
    labels: np.ndarray = ()

    def __post_init__(self):
        self.pooled = np.asarray(self.pooled, dtype=np.float64)
        self.projection = np.asarray(self.projection, dtype=np.float64)
        if self.pooled.ndim != 2:
            raise ValueError("pooled rows must be an (n, H) array")
        h, d = self.pooled.shape[1], self.dims.full
        if self.projection.shape != (h, d):
            raise ValueError(f"projection must be an ({h}, {d}) array")
        if not np.isfinite(self.pooled).all():
            raise NumericalError("pooled rows must be finite")
        self.grams = _prefix_grams(self.projection, self.dims)
        self.form_slack = _form_slack(self.grams, len(self.dims))
        n = self.pooled.shape[0]
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
        self.hinge_pairs, self.hinge_terms = _hinge_layout(
            self.queries, self.positives, self.negatives, self.pooled
        )
        self.label_pairs = _Pairs(self.lefts, self.rights, self.pooled)

    @classmethod
    def from_texts(
        cls,
        pool: Callable[[Hashable], np.ndarray],
        projection: np.ndarray,
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
        lefts, rights; `pool(text)` gives a row's (H,) pooled row.
        """
        slot: dict = {}

        def rows(texts):
            return [slot.setdefault(text, len(slot)) for text in texts]

        q = rows(queries)
        pos = [rows(g) for g in positives]
        neg = [rows(g) for g in negatives]
        left, right = rows(lefts), rows(rights)
        texts = list(slot)
        pooled = np.stack([pool(text) for text in texts])
        return cls(pooled, projection, dims, q, pos, neg, left, right, labels), texts


@dataclass
class LossOutput:
    """A loss value, its per-prefix-dimension breakdown, and its gradients.

    `coefficients[m]` is h^m: one (H,) row per pooled row of `batch`, with
    d value / d x[:m] = h^m @ P[:, :m] for every embedding x. The
    gradients with respect to the batch's pooled rows, (n, H), and its
    projection, (H, D), are formed from them once, when first read; a row
    no term reads has a zero gradient, and so do projection columns beyond
    the largest m.
    """

    value: float
    per_dim: dict[int, float]
    coefficients: dict[int, np.ndarray]
    batch: LossBatch = field(repr=False)
    warnings: tuple[str, ...] = field(default=())

    @cached_property
    def pooled_gradient(self) -> np.ndarray:
        """sum_m h^m G_m, in the coefficients' (descending m) order."""
        grad = np.zeros_like(self.batch.pooled)
        for m, h in self.coefficients.items():
            grad += h @ self.batch.grams[m]
        return grad

    @cached_property
    def projection_gradient(self) -> np.ndarray:
        """Band [lo, hi) gets S @ P[:, lo:hi], where S sums pooled^T h^m over
        every m >= hi, accumulated from the widest band down."""
        batch = self.batch
        grad = np.empty_like(batch.projection)
        edges = batch.dims.edges
        s = None
        for lo, hi in reversed(list(zip(edges, edges[1:]))):
            if hi in self.coefficients:
                term = batch.pooled.T @ self.coefficients[hi]
                s = term if s is None else s + term
            grad[:, lo:hi] = 0.0 if s is None else s @ batch.projection[:, lo:hi]
        return grad


def _add_coefficients(into: dict[int, np.ndarray], coefficients: dict[int, np.ndarray], weight=None):
    """Add (weight times) each h^m into `into`, keyed by m."""
    for m, h in coefficients.items():
        if weight is not None:
            h = weight * h
        into[m] = into[m] + h if m in into else h


def _pair_cosines(batch: LossBatch, pairs: _Pairs, m: int):
    """The m-prefix norms of `pairs.rows` and each pair's cosine, from the
    quadratic forms of G_m; a pair's cosine is a per-pair dot of its two rows.

    A squared norm that is not finite raises `NumericalError`: the norms
    overflow float64, and the cosines and gradients would be silently zero.
    One at or below EPS_ZERO^2, or at or below its own rounding bound
    `form_slack[m] |p|^2` (so made of rounding noise, as for a row near the
    null space of P[:, :m]), raises `ZeroVectorError`, so no cosine divides
    by zero or takes the root of a negative.
    """
    p = pairs.pooled
    with np.errstate(over="ignore", invalid="ignore"):
        pg = p @ batch.grams[m]
        sq = np.einsum("ij,ij->i", pg, p)
        noise = batch.form_slack[m] * np.einsum("ij,ij->i", p, p)
    if not np.isfinite(sq).all():
        raise NumericalError(f"{m}-prefix norm overflows float64 in batch")
    if (sq <= np.maximum(noise, EPS_ZERO * EPS_ZERO)).any():
        raise ZeroVectorError(f"zero-norm {m}-prefix in batch")
    norms = np.sqrt(sq)
    dots = np.einsum("ij,ij->i", pg[pairs.low], p[pairs.high])
    return norms, dots / (norms[pairs.low] * norms[pairs.high])


def _cosine_coefficients(batch: LossBatch, pairs: _Pairs, norms, cos, weights) -> np.ndarray:
    """h of sum_t weights[t] * cos(pair t) at the prefix `norms` and `cos`
    belong to: row r gets (sum w * p_partner / |x_partner| - d_r * p_r / |x_r|) / |x_r|
    over its pair endpoints, d_r summing w * cos over the same endpoints."""
    w = weights[pairs.pair]
    scale = w / norms[pairs.partners]
    toward = np.add.reduceat(scale[:, None] * pairs.pooled[pairs.partners], pairs.starts)
    d = np.add.reduceat(w * cos[pairs.pair], pairs.starts)
    h = np.zeros_like(batch.pooled)
    h[pairs.rows] = (toward - (d / norms)[:, None] * pairs.pooled) / norms[:, None]
    return h


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
    norms, cos = _pair_cosines(batch, pairs, m)
    hinge = margin - cos[tp] + cos[tn]
    active = hinge > 0.0
    value = float(hinge[active].sum()) / nq
    # d loss / d cos: -1 on each active term's positive pair, +1 on its negative pair
    n = len(cos)
    weights = (np.bincount(tn[active], minlength=n) - np.bincount(tp[active], minlength=n)) / nq
    h = _cosine_coefficients(batch, pairs, norms, cos, weights)
    return LossOutput(value=value, per_dim={m: value}, coefficients={m: h}, batch=batch)


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

    norms, cos = _pair_cosines(batch, batch.label_pairs, m)
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
    h = _cosine_coefficients(batch, batch.label_pairs, norms, cos, -ddist)
    return LossOutput(value=value, per_dim={m: value}, coefficients={m: h}, batch=batch)


TaskLoss = Callable[[LossBatch, int], LossOutput]


def mrl_compose(task: TaskLoss, batch: LossBatch, dims: DimSet) -> LossOutput:
    """Sum of a single-dimension task loss over every nested dimension in `dims`.

    Evaluation and summation run in fixed descending-M order so results are
    bit-reproducible. The composite keeps each dimension's h^m, so its
    gradients are formed once, for all dimensions together.
    """
    value = 0.0
    per_dim: dict[int, float] = {}
    coefficients: dict[int, np.ndarray] = {}
    for m in dims:
        try:
            out = task(batch, m)
        except Exception as e:
            e.args = (f"{e} while composing nested dimension m={m}",)
            raise
        value += out.value
        per_dim[m] = out.value
        _add_coefficients(coefficients, out.coefficients)
    return LossOutput(value=value, per_dim=per_dim, coefficients=coefficients, batch=batch)


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
    at lambda_ocl = 1). At lambda_ocl = 0 the pairs are never read. Both
    gradients are formed here, from the summed h^m, before returning.

    A batch without pairs contributes 0 to the contrastive term, with a
    warning flag when lambda_ocl > 0 instead of failing, so ranking-only steps
    remain valid.
    """
    if not len(batch.queries) and not len(batch.labels):
        raise ValueError("a step loss needs queries or pairs")
    if len(batch.queries):
        out = mrl_compose(lambda b, m: mnrl_hinge(b, margin, m), batch, dims)
    else:
        out = LossOutput(0.0, dict.fromkeys(dims, 0.0), {}, batch)
    if len(batch.labels) and lambda_ocl > 0:
        contrastive = mrl_compose(lambda b, m: ocl(b, margin_c, m), batch, dims)
        _add_coefficients(out.coefficients, contrastive.coefficients, lambda_ocl)
        for m in dims:
            out.per_dim[m] += lambda_ocl * contrastive.per_dim[m]
    value = 0.0
    for m in dims:
        value += out.per_dim[m]
    empty = not len(batch.labels) and lambda_ocl > 0
    warnings = ("empty pair batch: contrastive term treated as 0",) if empty else ()
    out = LossOutput(value, out.per_dim, out.coefficients, batch, warnings)
    # form both gradients now, so all of a step's loss math runs inside this call
    out.pooled_gradient, out.projection_gradient
    return out
