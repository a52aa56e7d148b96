"""Earlier formulations of the step losses, kept as oracles for
`near2.losses`, plus the test-only gradient helpers `grad_check` and
`breakpoint_gap`.

Both oracles work in the embedding space, on an x-space batch: a `LossBatch`
whose projection is the identity, so its pooled rows are the embeddings
themselves (`x_space` makes one from any batch), and both return the
gradient with respect to those embeddings.

* `mnrl_hinge`, `ocl`, `mrl_compose` and `multitask_step_loss` are the
  per-dimension losses as they stood before the pair-cosine formulation:
  they loop over queries, derive each role's cosine gradient on its own and
  scatter with `np.add.at`.
* `pair_hinge`, `pair_ocl` and `pair_step_loss` are the pair-cosine losses
  as they stood before the pooled-space one: unit m-prefixes of the
  embeddings and one gradient formula over sorted pair endpoints.
  `pooled_step_loss` runs `pair_step_loss` on `x_space(batch)` and maps its
  gradient back to the batch's pooled rows and projection by the chain rule
  through x = pooled @ projection, as the encoder's backward once did.

All must agree with the library to float64 rounding; `test_losses.py` and
`test_trainer.py` check that on random batches and whole training runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from near2 import losses
from near2.errors import NumericalError, ZeroVectorError
from near2.losses import LossBatch
from near2.nested import DimSet, EPS_ZERO


@dataclass
class XOutput:
    """An oracle loss value, its per-dimension values and its (n, D) gradient
    with respect to the embeddings of an x-space batch."""

    value: float
    per_dim: dict[int, float]
    gradient: np.ndarray
    warnings: tuple[str, ...] = field(default=())


def x_space(batch: LossBatch) -> LossBatch:
    """The batch's roles over its embeddings x = pooled @ projection, held as
    the pooled rows of an identity projection."""
    d = batch.dims.full
    return LossBatch(
        batch.pooled @ batch.projection, np.eye(d), batch.dims, batch.queries,
        batch.positives, batch.negatives, batch.lefts, batch.rights, batch.labels,
    )


def _unit_rows(batch: LossBatch, rows: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-normalized m-prefixes of the given rows and their norms; errors on
    degenerate rows."""
    prefix = batch.pooled[rows, :m]
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
    grad = np.zeros_like(batch.pooled)
    if rows:
        np.add.at(grad, (np.concatenate(rows), slice(None, m)), np.concatenate(values))
    return grad


def mnrl_hinge(batch: LossBatch, margin: float, m: int) -> XOutput:
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
    return XOutput(value=value, per_dim={m: value}, gradient=gradient)


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


def ocl(batch: LossBatch, margin_c: float, m: int) -> XOutput:
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
    return XOutput(value=value, per_dim={m: value}, gradient=gradient)


TaskLoss = Callable[[LossBatch, int], XOutput]


def mrl_compose(task: TaskLoss, batch: LossBatch, dims: DimSet) -> XOutput:
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
    return XOutput(value=value, per_dim=per_dim, gradient=gradient)


def multitask_step_loss(
    batch: LossBatch,
    dims: DimSet,
    margin: float,
    margin_c: float,
    lambda_ocl: float,
) -> XOutput:
    """The composed hinge loss if the batch has queries, plus lambda_ocl times
    the composed contrastive loss if it has pairs; either alone equals its
    `mrl_compose` bit for bit (the contrastive one at lambda_ocl = 1).

    A batch without pairs contributes 0 to the contrastive term, with a
    warning flag when lambda_ocl > 0 instead of failing, so ranking-only steps
    remain valid.
    """
    parts = []  # (weight, composed loss)
    if len(batch.queries):
        parts.append((1.0, mrl_compose(lambda b, m: mnrl_hinge(b, margin, m), batch, dims)))
    if len(batch.labels):
        parts.append((lambda_ocl, mrl_compose(lambda b, m: ocl(b, margin_c, m), batch, dims)))
    if not parts:
        raise ValueError("a step loss needs queries or pairs")
    empty = not len(batch.labels) and lambda_ocl > 0
    warnings = ("empty pair batch: contrastive term treated as 0",) if empty else ()
    (weight, first), *rest = parts
    gradient = first.gradient
    gradient *= weight
    per_dim = {m: weight * first.per_dim[m] for m in dims}
    for weight, out in rest:
        gradient += weight * out.gradient
        for m in dims:
            per_dim[m] += weight * out.per_dim[m]
    value = 0.0
    for m in dims:
        value += per_dim[m]
    return XOutput(value=value, per_dim=per_dim, gradient=gradient, warnings=warnings)


def _pair_unit_cosines(batch: LossBatch, pairs, m: int):
    """Unit m-prefixes and norms of `pairs.rows`, and each pair's cosine."""
    prefix = batch.pooled[pairs.rows, :m]
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(prefix, axis=1)
    if not np.all(np.isfinite(norms)):
        raise NumericalError(f"{m}-prefix norm overflows float64 in batch")
    if np.any(norms <= EPS_ZERO):
        raise ZeroVectorError(f"zero-norm {m}-prefix in batch")
    unit = prefix / norms[:, None]
    return unit, norms, np.einsum("ij,ij->i", unit[pairs.low], unit[pairs.high])


def _pair_gradient(batch: LossBatch, pairs, unit, norms, cos, weights, m: int):
    """Gradient of sum_t weights[t] * cos(pair t) with respect to the
    embeddings, in columns [0, m): row r gets (sum w * u_partner - d_r * u_r) / |x_r|
    over its pair endpoints, d_r summing w * cos over the same endpoints."""
    w = weights[pairs.pair]
    toward = np.add.reduceat(w[:, None] * unit[pairs.partners], pairs.starts)
    d = np.add.reduceat(w * cos[pairs.pair], pairs.starts)
    gradient = np.zeros_like(batch.pooled)
    gradient[pairs.rows, :m] = (toward - d[:, None] * unit) / norms[:, None]
    return gradient


def pair_hinge(batch: LossBatch, margin: float, m: int) -> XOutput:
    """`mnrl_hinge` over the batch's hinge pairs, in the embedding space."""
    m = batch.dims.require(m)
    nq = len(batch.queries)
    pairs, (tp, tn) = batch.hinge_pairs, batch.hinge_terms
    unit, norms, cos = _pair_unit_cosines(batch, pairs, m)
    hinge = margin - cos[tp] + cos[tn]
    active = hinge > 0.0
    value = float(hinge[active].sum()) / nq
    n = len(cos)
    weights = (np.bincount(tn[active], minlength=n) - np.bincount(tp[active], minlength=n)) / nq
    gradient = _pair_gradient(batch, pairs, unit, norms, cos, weights, m)
    return XOutput(value=value, per_dim={m: value}, gradient=gradient)


def pair_ocl(batch: LossBatch, margin_c: float, m: int) -> XOutput:
    """`ocl` over the batch's labelled pairs, in the embedding space."""
    m = batch.dims.require(m)
    unit, norms, cos = _pair_unit_cosines(batch, batch.label_pairs, m)
    dist = 1.0 - cos
    pos, neg = batch.labels == 1, batch.labels == 0
    sel_pos, sel_neg = pos, neg
    if pos.any() and neg.any():
        sel_pos, sel_neg = pos & (dist > dist[neg].min()), neg & (dist < dist[pos].max())
    value = 0.0
    ddist = np.zeros(len(dist))
    if sel_pos.any():
        dp = dist[sel_pos]
        value += float(np.mean(dp * dp))
        ddist[sel_pos] = 2.0 * dp / dp.size
    if sel_neg.any():
        slack = np.maximum(0.0, margin_c - dist[sel_neg])
        value += float(np.mean(slack * slack))
        ddist[sel_neg] = -2.0 * slack / slack.size
    gradient = _pair_gradient(batch, batch.label_pairs, unit, norms, cos, -ddist, m)
    return XOutput(value=value, per_dim={m: value}, gradient=gradient)


def pair_step_loss(
    batch: LossBatch, dims: DimSet, margin: float, margin_c: float, lambda_ocl: float
) -> XOutput:
    """`multitask_step_loss` from `pair_hinge` and `pair_ocl`: the pairs are
    read only when lambda_ocl > 0, and the composed gradients are summed."""
    if not len(batch.queries) and not len(batch.labels):
        raise ValueError("a step loss needs queries or pairs")
    if len(batch.queries):
        out = mrl_compose(lambda b, m: pair_hinge(b, margin, m), batch, dims)
    else:
        out = XOutput(0.0, dict.fromkeys(dims, 0.0), np.zeros_like(batch.pooled))
    if len(batch.labels) and lambda_ocl > 0:
        contrastive = mrl_compose(lambda b, m: pair_ocl(b, margin_c, m), batch, dims)
        out.gradient += lambda_ocl * contrastive.gradient
        for m in dims:
            out.per_dim[m] += lambda_ocl * contrastive.per_dim[m]
    value = 0.0
    for m in dims:
        value += out.per_dim[m]
    empty = not len(batch.labels) and lambda_ocl > 0
    warnings = ("empty pair batch: contrastive term treated as 0",) if empty else ()
    return XOutput(value=value, per_dim=out.per_dim, gradient=out.gradient, warnings=warnings)


@dataclass
class PooledOutput:
    """An oracle loss with its gradients with respect to a batch's pooled rows
    and projection, the fields a training step reads from a `LossOutput`."""

    value: float
    per_dim: dict[int, float]
    pooled_gradient: np.ndarray
    projection_gradient: np.ndarray
    warnings: tuple[str, ...] = field(default=())


def chain(batch: LossBatch, out: XOutput) -> PooledOutput:
    """An x-space output of `x_space(batch)` with its gradient taken back
    through x = pooled @ projection."""
    return PooledOutput(
        value=out.value,
        per_dim=out.per_dim,
        pooled_gradient=out.gradient @ batch.projection.T,
        projection_gradient=batch.pooled.T @ out.gradient,
        warnings=out.warnings,
    )


def pooled_step_loss(
    batch: LossBatch, dims: DimSet, margin: float, margin_c: float, lambda_ocl: float
) -> PooledOutput:
    """`pair_step_loss` of the batch's embeddings, with the pooled-row and
    projection gradients the library's `multitask_step_loss` returns."""
    return chain(batch, pair_step_loss(x_space(batch), dims, margin, margin_c, lambda_ocl))


def breakpoint_gap(batch: LossBatch, dims: DimSet, margin: float, margin_c: float) -> float:
    """Distance from the nearest kink of the batch's losses at any m in `dims`.

    The hinge kinks are |margin - cos(q,p) + cos(q,n)| when the batch has
    queries; with pairs, the contrastive kinks are |margin_c - d| for negative
    distances d and, with both labels present, the distances from the hard-pair
    selection thresholds. Finite-difference probes closer to a kink than this
    are unreliable; `grad_check` uses it to skip them. It reads the library's
    own pair cosines.
    """
    gaps = [np.inf]
    tp, tn = batch.hinge_terms
    for m in dims:
        m = batch.dims.require(m)
        if len(batch.queries):
            cos = losses._pair_cosines(batch, batch.hinge_pairs, m)[-1]
            gaps.append(np.abs(margin - cos[tp] + cos[tn]).min())
        if len(batch.labels):
            dist = 1.0 - losses._pair_cosines(batch, batch.label_pairs, m)[-1]
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
