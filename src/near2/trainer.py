"""Training loop: batching, AdamW, multi-phase schedules, ablation harness.

A schedule is an ordered list of phases; each phase trains `epochs` epochs
with its own loss (hinge ranking, online contrastive, or both) either at the
full dimension only or composed across every nested dimension. The flagship
schedule fine-tunes with both losses at the full dimension first, then
continues with the nested composite. Optimizer state is reset at each phase
boundary.

`SCHEDULE_PHASES` alone says what each phase trains: the hinge over each
query's positives and negatives (`Phase.ranking`), the online contrastive
loss over labelled pairs (`Phase.pairs`), or both. Every step makes one
`multitask_step_loss` call on the `StepBatch` roles its phase trains, with
contrastive weight 1 for a pairs-only phase and `lambda_ocl` for one that
trains both; only records some phase's loss reads must have features.

Within a phase of T steps the learning rate warms up linearly over the first
w = ceil(T/10) steps and then decays linearly (`warmup_linear`), and each
update scales both gradients together to a global L2 norm of at most 1.0.
Each step pools every distinct text once, tokenized once per run, into one
row of the step's `LossBatch`, and never projects it: the losses read the
pooled rows and the projection, and return the gradients with respect to
both (see `near2.losses`). A text without features, a zero row, has no
cosine, so it is refused before the first step.

Training reads only the feature-table rows of its texts' bags. `train` takes
their sorted union once per run, the slab rows, and gathers them into a
compact `EncoderModel` of that many buckets that shares the projection; each
bag is remapped once to its rows there. Every step pools, back-propagates
and updates that compact model with the plain dense `backward` and
`adamw_step`, so no buffer the size of the table is made. Every other table
row has no gradient and no moments, and then a whole-table step only decays
it (decoupled weight decay, Loshchilov & Hutter, arXiv 1711.05101): every
other term is 0 / (sqrt(0) + eps) = 0, and p - 0.0 == p. So `train` keeps
each step's decay factor and, before anything reads the whole table (each
validation, and the end of the run), replays them in order over it
(`_decay`) and writes the slab rows back. A decay replayed a block at a time
is the same elementwise multiply-subtract as one whole-table pass per step,
so every parameter bit is that of whole-table steps.

`adamw_step` takes only the learning rate; the betas, epsilon, weight decay
and clip norm are module constants. The clip norm, `global_norm`, sums each
gradient row's squares with numpy's pairwise sum and adds the row sums
exactly with `math.fsum`. It uses no BLAS, whose dot product splits its sum
across threads, and it depends neither on zero rows nor on the order of the
rows, so the compact model's gradient gives the whole table's norm. Every
bit of a run is determined by (data, config, seed), whatever the BLAS thread
count: a run under one OpenBLAS thread and under two records the same step
rows and saves the same model bytes.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace

import numpy as np

from .data import RelevanceRecord, RELEVANT_ABOVE, _query_strings
from .encoder import (
    DEFAULT_BUCKETS,
    DEFAULT_DIMS,
    DEFAULT_FEATURE_DIM,
    MAX_BUCKETS,
    EncoderModel,
    FeatureBag,
    backward,
    encode,  # unused here; bench/tracing.py wraps near2.trainer.encode
    feature_bags,
    pool,
)
from .errors import DataError, NumericalError
from .losses import (
    LossBatch,
    mrl_compose,  # unused here; bench/tracing.py wraps near2.trainer.mrl_compose
    multitask_step_loss,
)
from .metrics import (DEFAULT_CORPUS_CAP, DEFAULT_KS, MetricsReport, _judged_split, delta_report,
                      format_delta, sequential_evaluate)
from .nested import DimSet

# Per-query negative cap; bounds the P*N hinge term count per step.
MAX_NEGATIVES_PER_QUERY = 8

# Global L2 norm both gradients are clipped to before every AdamW update.
MAX_GRAD_NORM = 1.0
# AdamW's moment decay rates, denominator epsilon and decoupled weight decay.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
WEIGHT_DECAY = 0.01

# Entries per block of adamw_step's passes: a block of the parameter, its
# gradient, both moments and the two scratch buffers (6 x 128 KiB of
# float64) stay within a 2 MiB L2 cache. On a 2^15 x 128 table with a
# 3,487-row slab, a step took 14.1 ms against 15.5 ms with 8K-entry blocks,
# and 32K or 64K entries ran no faster.
ADAMW_BLOCK = 16 * 1024


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 2
    batch_size: int = 32
    learning_rate: float = 5e-5
    margin: float = 0.75
    margin_c: float = 0.5
    lambda_ocl: float = 1.0
    dims: DimSet = DEFAULT_DIMS
    seed: int = 0
    schedule: str = "mnrl+ocl"
    bucket_count: int = DEFAULT_BUCKETS
    feature_dim: int = DEFAULT_FEATURE_DIM
    corpus_cap: int = DEFAULT_CORPUS_CAP

    def __post_init__(self):
        if self.schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}, got {self.schedule!r}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        # the ranges the losses and the tokenizer accept, so a bad value fails before step 1
        if not 0.0 <= self.margin <= 2.0:
            raise ValueError(f"margin must be in [0, 2], got {self.margin}")
        if not 0.0 < self.margin_c < 2.0:
            raise ValueError(f"margin_c must be in (0, 2), got {self.margin_c}")
        if self.lambda_ocl < 0:
            raise ValueError(f"lambda_ocl must be >= 0, got {self.lambda_ocl}")
        if not 1 <= self.bucket_count <= MAX_BUCKETS:
            raise ValueError(f"bucket_count must be in [1, {MAX_BUCKETS}], got {self.bucket_count}")
        if self.feature_dim < 1:
            raise ValueError(f"feature_dim must be >= 1, got {self.feature_dim}")
        if self.corpus_cap < 1:
            raise ValueError(f"corpus_cap must be >= 1, got {self.corpus_cap}")


def initial_model(config: TrainConfig) -> EncoderModel:
    """The untrained model a run with `config` starts from."""
    return EncoderModel.create(bucket_count=config.bucket_count, feature_dim=config.feature_dim,
                               dims=config.dims, seed=config.seed)


@dataclass
class StepBatch:
    """One step's texts under the role names `LossBatch.from_texts` takes."""

    queries: list[str] = field(default_factory=list)
    positives: list[list[str]] = field(default_factory=list)
    negatives: list[list[str]] = field(default_factory=list)
    lefts: list[str] = field(default_factory=list)
    rights: list[str] = field(default_factory=list)
    labels: list[int] = field(default_factory=list)

    def add_pairs(self, query: str, pairs: list[tuple[str, int]]) -> None:
        for title, label in pairs:
            self.lefts.append(query)
            self.rights.append(title)
            self.labels.append(label)


@dataclass(frozen=True)
class Phase:
    """One stage of a schedule: which losses it trains, and whether nested.

    `ranking` trains the hinge over each query's positives and negatives,
    `pairs` the online contrastive loss over labelled pairs.
    """

    name: str  # recorded in every history row
    ranking: bool
    pairs: bool
    nested: bool


# The ordered phases of each named schedule. The first three fine-tune with
# an IR loss at the full dimension, then continue with the nested composite
# of the same loss; "mrl-first" trains the nested ranking composite first and
# then both plain losses, the order the ablation study found to underperform.
SCHEDULE_PHASES = {
    "mnrl": (Phase("mnrl", True, False, False), Phase("near2", True, False, True)),
    "ocl": (Phase("ocl", False, True, False), Phase("near2", False, True, True)),
    "mnrl+ocl": (Phase("mnrl+ocl", True, True, False), Phase("near2", True, True, True)),
    "mrl-first": (Phase("mrl", True, False, True), Phase("mnrl+ocl", True, True, False)),
}
SCHEDULES = tuple(SCHEDULE_PHASES)


# --- batching -------------------------------------------------------------------


def build_batches(
    records: list[RelevanceRecord], batch_size: int, seed: int
) -> list[StepBatch]:
    """Group records into per-step text batches, seed-deterministically.

    Positives are titles with grade > 3, negatives grade < 3; grade-3 rows
    never enter a triplet. Queries lacking either side are excluded from the
    ranking batches, but their centrality-labeled rows still feed the pair
    batches (spread round-robin). Negatives are capped per query per step. A
    qid with two query strings is a `DataError`, as in `split_judgments`.
    """
    query_of = _query_strings(records)
    by_query = {qid: {"pos": [], "neg": [], "pairs": []} for qid in query_of}
    for r in records:
        q = by_query[r.qid]
        if r.grade > RELEVANT_ABOVE:
            q["pos"].append(r.title)
        elif r.grade < RELEVANT_ABOVE:
            q["neg"].append(r.title)
        if r.central is not None:
            q["pairs"].append((r.title, int(r.central)))

    rng = random.Random(seed)
    usable = [qid for qid, q in by_query.items() if q["pos"] and q["neg"]]
    if not usable:
        raise DataError("zero usable queries: none has both a positive and a negative")
    rng.shuffle(usable)

    batches: list[StepBatch] = []
    for start in range(0, len(usable), batch_size):
        batch = StepBatch()
        for qid in usable[start : start + batch_size]:
            q = by_query[qid]
            negs = q["neg"]
            if len(negs) > MAX_NEGATIVES_PER_QUERY:
                negs = rng.sample(negs, MAX_NEGATIVES_PER_QUERY)
            batch.queries.append(query_of[qid])
            batch.positives.append(list(q["pos"]))
            batch.negatives.append(list(negs))
            batch.add_pairs(query_of[qid], q["pairs"])
        batches.append(batch)

    # queries unusable for ranking still train OCL through their labeled pairs
    usable_set = set(usable)
    orphans = [qid for qid in by_query if qid not in usable_set and by_query[qid]["pairs"]]
    for i, qid in enumerate(orphans):
        batches[i % len(batches)].add_pairs(query_of[qid], by_query[qid]["pairs"])
    return batches


# --- AdamW ----------------------------------------------------------------------


@dataclass
class OptimizerState:
    """AdamW's step count and per-parameter moments, each shaped like its
    parameter. Training keeps them for its compact model of the slab rows
    (see the module docstring), so they are as small as those rows."""

    step: int
    first_moment: dict[str, np.ndarray]
    second_moment: dict[str, np.ndarray]

    @classmethod
    def zeros(cls, params: dict[str, np.ndarray]) -> "OptimizerState":
        return cls(
            step=0,
            first_moment={k: np.zeros(v.shape, v.dtype) for k, v in params.items()},
            second_moment={k: np.zeros(v.shape, v.dtype) for k, v in params.items()},
        )


def _row_view(a: np.ndarray) -> np.ndarray:
    """`a` as a 2-D view, one row per first-axis slice, even with no rows."""
    return a.reshape(len(a), math.prod(a.shape[1:]), copy=False)


def global_norm(grads: dict[str, np.ndarray]) -> float:
    """The L2 norm of every gradient entry together, free of BLAS and of order.

    Each gradient row (first-axis slice) is squared and summed with
    `np.add.reduce`, numpy's pairwise sum, and `math.fsum` adds the row sums
    of every gradient exactly before the one rounding. So the norm does not
    depend on BLAS threads, on zero rows, or on the order of the rows: the
    gradient of a compact model of some table rows and the whole-table
    gradient it stands for give the same bits. Finite entries whose squares
    overflow give an infinite norm, as does an intermediate overflow of the
    exact sum.
    """
    row_sums: list[float] = []
    with np.errstate(over="ignore"):
        for g in grads.values():
            rows = _row_view(g)
            # squared a block of rows at a time into one buffer: a fresh
            # gradient-sized array per step cost more than the squaring
            per_block = max(1, ADAMW_BLOCK // max(rows.shape[1], 1))
            squares = np.empty((min(per_block, len(rows)), rows.shape[1]))
            for start in range(0, len(rows), per_block):
                block = rows[start : start + per_block]
                np.multiply(block, block, out=squares[: len(block)])
                row_sums.extend(np.add.reduce(squares[: len(block)], axis=1).tolist())
    try:
        return math.sqrt(math.fsum(row_sums))
    except OverflowError:
        return math.inf


def _decay(rows2d: np.ndarray, decays, scratch: np.ndarray) -> None:
    """Decoupled weight decay of a 2-D array in place: p -= p * d for each
    factor d of `decays` in order, a block of len(`scratch`) rows at a time,
    where `scratch` is a buffer of such a block. The bits are those of one
    whole-array pass per factor, whatever the block."""
    for start in range(0, len(rows2d), len(scratch)):
        p = rows2d[start : start + len(scratch)]
        for d in decays:
            p -= np.multiply(p, d, out=scratch[: len(p)])


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    learning_rate: float,
) -> tuple[float, float]:
    """One clipped AdamW update at `learning_rate`, in place, with bias correction.

    The betas, epsilon and weight decay are `ADAM_BETA1`, `ADAM_BETA2`,
    `ADAM_EPS` and `WEIGHT_DECAY`. Returns the global L2 norm of the gradients
    before clipping (`global_norm`) and the clip factor applied:
    `MAX_GRAD_NORM / norm` when the norm is finite and above `MAX_GRAD_NORM`,
    else 1.0. Clipping scales `grads` in place. Each gradient and moment is
    shaped like its parameter.

    A finite norm proves every gradient entry finite, so entries are counted
    only when it is not: non-finite entries abort the step before anything is
    touched, while finite entries whose squares overflow the norm step
    unclipped. Then each parameter gets two passes over blocks of about
    `ADAMW_BLOCK` entries: decoupled weight decay of every entry from its
    pre-step value (`_decay`), then the clip scaling, both moment updates and
    the bias-corrected step. These are the same elementwise operations in the
    same order as a whole-array update, so the bits do not depend on the
    block size. Parameters, gradients and moments must be contiguous.
    """
    for name, param in params.items():
        if grads[name].shape != param.shape:
            raise ValueError(
                f"gradient of {name!r} must have shape {param.shape}, got {grads[name].shape}"
            )
    norm = global_norm(grads)
    if not math.isfinite(norm):
        for name, g in grads.items():
            bad = np.count_nonzero(~np.isfinite(g))
            if bad:
                raise NumericalError(f"{bad} non-finite gradient entries in {name!r}; step aborted")
    clip = MAX_GRAD_NORM / norm if math.isfinite(norm) and norm > MAX_GRAD_NORM else 1.0
    state.step += 1
    t = state.step
    lr, b1, b2, eps = learning_rate, ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    m_correction, v_correction = 1.0 - b1**t, 1.0 - b2**t
    for name, param in params.items():
        p_rows, g_rows, m_rows, v_rows = (
            _row_view(a)
            for a in (param, grads[name], state.first_moment[name], state.second_moment[name])
        )
        width = p_rows.shape[1]
        per_block = max(1, ADAMW_BLOCK // width)
        tmp_block, den_block = np.empty((2, per_block, width))
        _decay(p_rows, (lr * WEIGHT_DECAY,), tmp_block)
        for start in range(0, len(p_rows), per_block):
            block = slice(start, start + per_block)
            p, g, m, v = p_rows[block], g_rows[block], m_rows[block], v_rows[block]
            tmp, den = tmp_block[: len(p)], den_block[: len(p)]
            if clip != 1.0:
                g *= clip
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=tmp)
            v *= b2
            np.multiply(g, g, out=tmp)
            tmp *= 1.0 - b2
            v += tmp
            # p -= lr * m_hat / (sqrt(v_hat) + eps)
            np.divide(m, m_correction, out=tmp)
            tmp *= lr
            np.divide(v, v_correction, out=den)
            np.sqrt(den, out=den)
            den += eps
            tmp /= den
            p -= tmp
    return norm, clip


def warmup_linear(step: int, total: int) -> float:
    """Learning-rate factor at 1-based step `step` of a `total`-step phase.

    step/w for the first w = ceil(total/10) steps, then
    (total - step + 1)/(total - w + 1): peak 1 at step w, never 0.
    """
    warmup = -(-total // 10)
    if step <= warmup:
        return step / warmup
    return (total - step + 1) / (total - warmup + 1)


# --- history --------------------------------------------------------------------


@dataclass
class TrainHistory:
    steps: list[dict] = field(default_factory=list)
    validation: list[dict] = field(default_factory=list)

    def record_step(self, phase, epoch, step, loss, per_dim, warnings, lr, grad_norm, clip):
        self.steps.append(
            {
                "kind": "step",
                "phase": phase,
                "epoch": epoch,
                "step": step,
                "loss": loss,
                "lr": lr,
                "grad_norm": grad_norm,
                "clip": clip,
                "per_dim": {str(m): v for m, v in per_dim.items()},
                "warnings": list(warnings),
            }
        )

    def record_validation(self, phase, epoch, report: MetricsReport):
        for m in report.dims:
            for k in report.ks:
                cell = report.cell(m, k)
                self.validation.append(
                    {
                        "kind": "validation",
                        "phase": phase,
                        "epoch": epoch,
                        "m": m,
                        "k": k,
                        "precision": cell.precision,
                        "recall": cell.recall,
                        "ndcg": cell.ndcg,
                        "mrr": cell.mrr,
                    }
                )

    def epoch_mean_loss(self, phase: str, epoch: int) -> float:
        losses = [s["loss"] for s in self.steps if s["phase"] == phase and s["epoch"] == epoch]
        if not losses:
            raise ValueError(f"no steps recorded for phase {phase!r} epoch {epoch}")
        return sum(losses) / len(losses)

    def to_jsonl(self) -> str:
        rows = self.steps + self.validation
        return "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)


# --- training loop ---------------------------------------------------------------


def _epoch_seed(seed: int, phase_index: int, epoch: int) -> int:
    # distinct, deterministic shuffle stream per (phase, epoch)
    return seed + 1_000_003 * (phase_index + 1) + epoch


def _pair_weight(phase: Phase, config: TrainConfig) -> float:
    # a phase without pairs has weight 0, which raises no empty-pair warning
    return (config.lambda_ocl if phase.ranking else 1.0) if phase.pairs else 0.0


def _check_features(
    records: list[RelevanceRecord], bags, reads_ranking: bool, reads_pairs: bool
) -> None:
    """Raise `DataError` naming and counting the records a loss reads whose
    query or title has an empty feature bag (a zero row has no cosine): if
    `reads_ranking`, those graded off 3 of a query with both sides, and if
    `reads_pairs`, the labelled ones."""
    ranked = {r.qid for r in records if r.grade > RELEVANT_ABOVE} if reads_ranking else set()
    ranked &= {r.qid for r in records if r.grade < RELEVANT_ABOVE}
    bad = [
        r for r in records
        if (r.qid in ranked and r.grade != RELEVANT_ABOVE or reads_pairs and r.central is not None)
        and not (len(bags[r.query]) and len(bags[r.title]))
    ]
    if bad:
        r = bad[0]
        raise DataError(
            f"{len(bad)} training record(s) a loss reads have a query or title without features, "
            f"the first qid {r.qid!r} title id {r.title_id!r} ({r.query!r} / {r.title!r})"
        )


def _step_loss(model, bags, batch: StepBatch, phase: Phase, dims: DimSet, config: TrainConfig):
    """Loss output, and the step's distinct texts, one per pooled row of the
    loss gradient. Each text is pooled once and its gradient row sums all its
    occurrences (exact, since backward is linear in that row)."""
    if not phase.ranking and not batch.labels:  # nothing to train on
        return None, []
    roles = {}
    if phase.ranking:
        roles.update(queries=batch.queries, positives=batch.positives, negatives=batch.negatives)
    if phase.pairs:
        roles.update(lefts=batch.lefts, rights=batch.rights, labels=batch.labels)
    # from_texts pools each distinct text once, in row order; a pooled row
    # that overflows warns nothing, as LossBatch refuses non-finite rows
    with np.errstate(over="ignore", invalid="ignore"):
        loss_batch, texts = LossBatch.from_texts(
            lambda text: pool(model, bags[text]), model.projection, model.dims, **roles
        )
    weight = _pair_weight(phase, config)
    out = multitask_step_loss(loss_batch, dims, config.margin, config.margin_c, weight)
    if not np.isfinite(out.value):
        raise NumericalError(f"non-finite loss value {out.value!r}")
    return out, texts


def train(
    model: EncoderModel,
    records: list[RelevanceRecord],
    config: TrainConfig,
    valid_records: list[RelevanceRecord] | None = None,
) -> tuple[EncoderModel, TrainHistory]:
    """Run the configured schedule; returns the trained model and its history.

    The sequential evaluator runs after every epoch when validation records
    are provided. With epochs=0 the model is returned untouched. Before the
    first step, `DataError` refuses a qid with two query strings (as
    `split_judgments` does), a record a loss reads whose query or title has
    no features, and validation records that hold no judged query or only
    featureless ones, which every epoch's evaluation would refuse. A float64
    model is trained in place; a loaded model, whose feature table is
    float32, is first copied into a float64 model and left as it was.

    Steps train a compact model of the slab rows, the sorted union of the
    run's bag ids, that shares the projection (see the module docstring). The
    whole table is synced from it before each validation and at the end. No
    buffer the size of the feature table is allocated.

    A step that meets non-finite values (a diverging run's pooled rows or
    projection Grams, its loss or its gradients) or a prefix norm that
    overflows raises `NumericalError` naming the phase, epoch and step; so
    does a run that ends with parameters beyond float32's range, which a
    saved model could not hold. A float64 model trained in place is then left
    part-way: a mid-run error leaves its projection partly trained and its
    table as of the last sync, not synced with the steps since.
    """
    _query_strings(records)  # before _check_features, which would refuse a featureless one
    if valid_records and config.epochs:
        # a validation set no epoch could evaluate is refused before step 1
        _judged_split(valid_records, model.bucket_count)
    if model.feature_table.dtype != np.float64:
        model = replace(
            model,
            feature_table=model.feature_table.astype(np.float64),
            projection=model.projection.copy(),
        )
    history = TrainHistory()
    bags = feature_bags((s for r in records for s in (r.query, r.title)), model.bucket_count)
    phases = SCHEDULE_PHASES[config.schedule]
    _check_features(records, bags, any(p.ranking for p in phases),
                    any(_pair_weight(p, config) > 0 for p in phases))
    rows = np.unique(np.concatenate([np.zeros(0, np.int64), *(bag.ids for bag in bags.values())]))
    if not len(rows):  # a model needs a bucket, and a row no bag reaches only decays
        rows = np.zeros(1, np.int64)
    # the compact model shares the projection, so only the table needs syncing
    slab = replace(model, bucket_count=len(rows), feature_table=model.feature_table[rows])
    bags = {text: FeatureBag(np.searchsorted(rows, b.ids), b.counts) for text, b in bags.items()}
    grad_table = np.zeros_like(slab.feature_table)  # all zeros between steps
    decays: list[float] = []  # each step's decay factor since the last sync
    global_step = 0
    for phase_index, phase in enumerate(phases):
        state = None  # the last phase's moments go before this phase's are made
        state = OptimizerState.zeros(slab.parameters())
        dims = config.dims if phase.nested else DimSet((config.dims.full,))
        epochs = [
            build_batches(records, config.batch_size, _epoch_seed(config.seed, phase_index, epoch))
            for epoch in range(1, config.epochs + 1)
        ]
        total = sum(len(batches) for batches in epochs)
        phase_step = 0
        for epoch, batches in enumerate(epochs, start=1):
            for batch in batches:
                phase_step += 1
                try:
                    out, texts = _step_loss(slab, bags, batch, phase, dims, config)
                    if out is None:
                        continue
                    step_bags = [bags[text] for text in texts]
                    grads = {
                        "feature_table": backward(slab, step_bags, out.pooled_gradient, grad_table),
                        "projection": out.projection_gradient,
                    }
                    lr = config.learning_rate * warmup_linear(phase_step, total)
                    grad_norm, clip = adamw_step(slab.parameters(), grads, state, lr)
                except NumericalError as e:
                    raise NumericalError(
                        f"phase {phase.name!r}, epoch {epoch}, step {phase_step} of {total}: {e}"
                    ) from None
                grad_table.fill(0.0)
                decays.append(lr * WEIGHT_DECAY)
                global_step += 1
                history.record_step(
                    phase.name, epoch, global_step, out.value,
                    out.per_dim, out.warnings, lr, grad_norm, clip,
                )
            if valid_records:
                _sync(model.feature_table, slab.feature_table, rows, decays)
                report = sequential_evaluate(
                    model, valid_records, config.dims,
                    ks=DEFAULT_KS, corpus_cap=config.corpus_cap, seed=config.seed,
                )
                history.record_validation(phase.name, epoch, report)
    _sync(model.feature_table, slab.feature_table, rows, decays)
    _check_float32(model)
    return model, history


def _sync(table: np.ndarray, slab: np.ndarray, rows: np.ndarray, decays: list[float]) -> None:
    """Bring `table` up to date with `slab`, its rows `rows` as trained by the
    steps since the last sync, whose decay factors `decays` holds: every row
    decays by each factor in order, as whole-table steps would decay it, then
    the slab rows are written back. Clears `decays`."""
    if decays:
        width = table.shape[1]
        _decay(table, decays, np.empty((max(1, ADAMW_BLOCK // width), width)))
        table[rows] = slab
        decays.clear()


def _check_float32(model: EncoderModel) -> None:
    """NumericalError unless every parameter stays finite in the float32 a
    saved model holds; a run can diverge to values finite only in float64."""
    for name, param in model.parameters().items():
        # rounding to float32 is monotonic, so only the extremes can overflow first
        low, high = float(param.min()), float(param.max())
        with np.errstate(over="ignore"):
            cast = np.array([low, high]).astype(np.float32)
        if not np.all(np.isfinite(cast)):
            raise NumericalError(
                f"trained {name!r} reaches {max(-low, high):.3g}, beyond float32's range; "
                "no model is saved"
            )


# --- ablation --------------------------------------------------------------------


@dataclass
class AblationReport:
    """Per-schedule metrics and their deltas against the untrained baseline."""

    schedules: tuple[str, ...]
    dims: tuple[int, ...]
    baseline: MetricsReport
    reports: dict[str, MetricsReport]
    deltas: dict[str, dict]  # schedule -> {m: {"ndcg@5": frac|None, "mrr@10": frac|None}}

    def to_dict(self) -> dict:
        return {
            "schedules": list(self.schedules),
            "dims": list(self.dims),
            "baseline": self.baseline.to_dict(),
            "reports": {s: r.to_dict() for s, r in self.reports.items()},
            "deltas": {
                s: {str(m): cells for m, cells in per_dim.items()}
                for s, per_dim in self.deltas.items()
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def to_csv(self) -> str:
        header = ["schedule"]
        for m in self.dims:
            header.extend([f"ndcg@5_dim{m}", f"mrr@10_dim{m}"])
        lines = [",".join(header)]
        for s in self.schedules:
            row = [s]
            for m in self.dims:
                row.append(format_delta(self.deltas[s][m]["ndcg@5"]))
                row.append(format_delta(self.deltas[s][m]["mrr@10"]))
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def run_ablation(
    train_records: list[RelevanceRecord],
    eval_records: list[RelevanceRecord],
    config: TrainConfig,
    schedules: tuple[str, ...] = SCHEDULES,
) -> AblationReport:
    """Train one model per schedule from one shared initialization seed.

    Every model is evaluated with the sequential evaluator; deltas follow the
    percentage-increase-over-baseline convention against the untrained model.
    """
    for s in schedules:
        if s not in SCHEDULES:
            raise ValueError(f"unknown schedule {s!r}")

    ks = tuple(sorted(set(DEFAULT_KS) | {5, 10}))
    baseline_report = sequential_evaluate(
        initial_model(config), eval_records, config.dims, ks=ks,
        corpus_cap=config.corpus_cap, seed=config.seed,
    )
    reports: dict[str, MetricsReport] = {}
    deltas: dict[str, dict] = {}
    for schedule in schedules:
        model, _ = train(initial_model(config), train_records, replace(config, schedule=schedule))
        report = sequential_evaluate(
            model, eval_records, config.dims, ks=ks,
            corpus_cap=config.corpus_cap, seed=config.seed,
        )
        reports[schedule] = report
        d = delta_report(report, baseline_report)
        deltas[schedule] = {
            m: {
                "ndcg@5": d.deltas[(m, 5)]["ndcg"],
                "mrr@10": d.deltas[(m, 10)]["mrr"],
            }
            for m in config.dims
        }
    return AblationReport(
        schedules=tuple(schedules),
        dims=tuple(config.dims),
        baseline=baseline_report,
        reports=reports,
        deltas=deltas,
    )
