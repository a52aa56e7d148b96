"""Ranking and contrastive losses over nested embeddings, with analytic gradients.

Every loss reads one `LossBatch`: the step's embedding matrix, one raw row
per distinct text, and row indices into it for each role (queries, their
positives and negatives, pair lefts and rights). It returns one gradient of
that matrix's shape; a row used in several places (a query that is also a
pair left, a title that is one query's positive and another's negative)
sums the gradients of all its uses. Only this module maps roles to rows.

Three layers:

* single-dimension task losses: a margin hinge pushing query-positive cosine
  above query-negative cosine (`mnrl_hinge`), and an online contrastive loss
  over the hardest labeled pairs in a batch (`ocl`);
* `mrl_compose`, the plain sum of a task loss across every nested prefix
  dimension of a `DimSet`;
* `multitask_step_loss`, the per-step combination of both composed losses.

All gradients are with respect to the raw (unnormalized) embedding entries.
A loss at prefix dimension m has identically zero gradient beyond position m.
`grad_check` verifies any of them against central finite differences, skipping
probes that `breakpoint_gap` finds too close to a hinge or selection kink.
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


@dataclass
class LossBatch:
    """A step's (n, D) embedding matrix and the rows each role reads.

    `queries` holds one row per query; `positives[i]` and `negatives[i]` hold
    query i's rows, at least one of each. `lefts`, `rights` and `labels` are
    parallel; label 1 marks a matching pair. Either part may be empty.
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


def _unit_rows(batch: LossBatch, rows: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-normalized m-prefixes of the given rows and their norms; errors on
    degenerate rows."""
    prefix = batch.embeddings[rows, :m]
    norms = np.linalg.norm(prefix, axis=1)
    if np.any(norms <= EPS_ZERO):
        raise ZeroVectorError(f"zero-norm {m}-prefix in batch")
    return prefix / norms[:, None], norms


def _query_similarities(batch: LossBatch, m: int):
    """Per query, in batch order: the unit m-prefix and norm of the query, the
    unit m-prefixes and norms of its positives and of its negatives, and the
    positives' and negatives' cosines against the query."""
    for q, pos, neg in zip(batch.queries, batch.positives, batch.negatives):
        qh, qnorm = _unit_rows(batch, [q], m)
        ph, pnorms = _unit_rows(batch, pos, m)
        nh, nnorms = _unit_rows(batch, neg, m)
        qh = qh[0]
        yield qh, qnorm, ph, pnorms, nh, nnorms, ph @ qh, nh @ qh


def _pair_cosines(batch: LossBatch, m: int):
    """Unit m-prefixes and norms of the pair lefts and rights, and each pair's cosine."""
    lh, lnorms = _unit_rows(batch, batch.lefts, m)
    rh, rnorms = _unit_rows(batch, batch.rights, m)
    return lh, lnorms, rh, rnorms, np.einsum("ij,ij->i", lh, rh)


def _scatter(batch: LossBatch, m: int, rows: list[np.ndarray], values: list[np.ndarray]) -> np.ndarray:
    """A gradient of the embedding matrix's shape holding `values` added onto
    `rows` in columns [0, m); repeated rows add up."""
    grad = np.zeros_like(batch.embeddings)
    if rows:
        np.add.at(grad, (np.concatenate(rows), slice(None, m)), np.concatenate(values))
    return grad


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

    total = 0.0
    rows, grads = [], []
    sims = _query_similarities(batch, m)
    for q, pos, neg, (qh, qnorm, ph, pnorms, nh, nnorms, sp, sn) in zip(
        batch.queries, batch.positives, batch.negatives, sims
    ):
        hinge = margin - sp[:, None] + sn[None, :]
        active = hinge > 0.0
        if not active.any():
            continue
        total += float(hinge[active].sum())

        # d loss / d similarity, before the final 1/Q
        wp = -active.sum(axis=1).astype(np.float64)
        wn = active.sum(axis=0).astype(np.float64)

        rows += [[q], pos, neg]
        grads += [
            (wp @ ph - float(wp @ sp) * qh + wn @ nh - float(wn @ sn) * qh)[None, :] / qnorm[:, None],
            (wp[:, None] * (qh[None, :] - sp[:, None] * ph)) / pnorms[:, None],
            (wn[:, None] * (qh[None, :] - sn[:, None] * nh)) / nnorms[:, None],
        ]

    value = total / nq
    gradient = _scatter(batch, m, rows, grads)
    gradient /= nq
    return LossOutput(value=value, per_dim={m: value}, gradient=gradient)


def _ocl_selection(d_pos: np.ndarray, d_neg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hard-pair masks: positives farther than the closest negative, negatives
    closer than the farthest positive. With one class absent, the whole present
    class is selected (plain contrastive fallback)."""
    if d_pos.size and d_neg.size:
        sel_pos = d_pos > d_neg.min()
        sel_neg = d_neg < d_pos.max()
    else:
        sel_pos = np.ones_like(d_pos, dtype=bool)
        sel_neg = np.ones_like(d_neg, dtype=bool)
    return sel_pos, sel_neg


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

    lh, lnorms, rh, rnorms, cos = _pair_cosines(batch, m)
    dist = 1.0 - cos

    pos = batch.labels == 1
    neg = ~pos
    sel_pos, sel_neg = _ocl_selection(dist[pos], dist[neg])

    value = 0.0
    # d loss / d dist, assembled over the full batch
    ddist = np.zeros(len(batch.labels))
    if sel_pos.any():
        dp = dist[pos][sel_pos]
        value += float(np.mean(dp * dp))
        contrib = np.zeros(int(pos.sum()))
        contrib[sel_pos] = 2.0 * dp / sel_pos.sum()
        ddist[pos] = contrib
    if sel_neg.any():
        dn = dist[neg][sel_neg]
        slack = np.maximum(0.0, margin_c - dn)
        value += float(np.mean(slack * slack))
        contrib = np.zeros(int(neg.sum()))
        contrib[sel_neg] = -2.0 * slack / sel_neg.sum()
        ddist[neg] = contrib

    dcos = -ddist
    grad_l = (dcos[:, None] * (rh - cos[:, None] * lh)) / lnorms[:, None]
    grad_r = (dcos[:, None] * (lh - cos[:, None] * rh)) / rnorms[:, None]
    gradient = _scatter(batch, m, [batch.lefts, batch.rights], [grad_l, grad_r])
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
            e.args = e.args + (f"while composing nested dimension m={m}",)
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
    """Composed hinge loss plus lambda_ocl times the composed contrastive loss.

    A batch without pairs contributes 0 to the contrastive term, with a
    warning flag instead of failing, so ranking-only steps remain valid.
    """
    mnrl_out = mrl_compose(lambda b, m: mnrl_hinge(b, margin, m), batch, dims)
    gradient = mnrl_out.gradient
    per_dim = dict(mnrl_out.per_dim)
    warnings: tuple[str, ...] = ()
    if len(batch.labels) == 0:
        if lambda_ocl > 0:
            warnings = ("empty pair batch: contrastive term treated as 0",)
    else:
        ocl_out = mrl_compose(lambda b, m: ocl(b, margin_c, m), batch, dims)
        gradient += lambda_ocl * ocl_out.gradient
        for m in dims:
            per_dim[m] += lambda_ocl * ocl_out.per_dim[m]
    value = 0.0
    for m in dims:
        value += per_dim[m]
    return LossOutput(value=value, per_dim=per_dim, gradient=gradient, warnings=warnings)


def breakpoint_gap(batch: LossBatch, dims: DimSet, margin: float, margin_c: float) -> float:
    """Distance from the nearest kink of the batch's losses at any m in `dims`.

    The hinge kinks are |margin - cos(q,p) + cos(q,n)| when the batch has
    queries; with pairs, the contrastive kinks are |margin_c - d| for negative
    distances d and, with both labels present, the distances from the hard-pair
    selection thresholds. Finite-difference probes closer to a kink than this
    are unreliable; `grad_check` uses it to skip them.
    """
    gaps = [np.inf]
    for m in dims:
        m = batch.dims.require(m)
        for *_, sp, sn in _query_similarities(batch, m):
            gaps.append(np.abs(margin - sp[:, None] + sn[None, :]).min())
        if len(batch.labels):
            dist = 1.0 - _pair_cosines(batch, m)[-1]
            pos = batch.labels == 1
            d_pos, d_neg = dist[pos], dist[~pos]
            if d_neg.size:
                gaps.append(np.abs(margin_c - d_neg).min())
            if d_pos.size and d_neg.size:
                gaps.append(np.abs(d_pos - d_neg.min()).min())
                gaps.append(np.abs(d_neg - d_pos.max()).min())
    return float(min(gaps))


def grad_check(
    loss: Callable[[np.ndarray], tuple[float, np.ndarray]],
    params: np.ndarray,
    step: float,
    gap: Callable[[np.ndarray], float] | None = None,
    gap_threshold: float = 1e-7,
) -> float:
    """Max relative error between analytic gradients and central differences.

    `loss(theta)` must return (value, gradient). Per coordinate the relative
    error is |analytic - numeric| / max(1e-8, |analytic| + |numeric|). When a
    `gap` callable is given, coordinates whose probe points land within
    `gap_threshold` of a hinge or selection breakpoint are skipped, since the
    finite difference straddles a kink there.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    params = np.asarray(params, dtype=np.float64)
    _, analytic = loss(params)
    analytic = np.asarray(analytic, dtype=np.float64)
    if analytic.shape != params.shape:
        raise ValueError("analytic gradient shape must match params")

    worst = 0.0
    for i in range(params.size):
        probes = []
        skip = False
        for sign in (1.0, -1.0):
            theta = params.copy()
            theta[i] += sign * step
            if gap is not None and gap(theta) < gap_threshold:
                skip = True
                break
            v, _ = loss(theta)
            if not np.isfinite(v):
                raise NumericalError(f"non-finite loss at probe for coordinate {i}")
            probes.append(v)
        if skip:
            continue
        numeric = (probes[0] - probes[1]) / (2.0 * step)
        err = abs(analytic[i] - numeric) / max(1e-8, abs(analytic[i]) + abs(numeric))
        worst = max(worst, err)
    return worst
