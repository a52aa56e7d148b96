"""Training loop: batching, AdamW, multi-phase schedules, ablation harness.

A schedule is an ordered list of phases; each phase trains `epochs` epochs
with its own loss (hinge ranking, online contrastive, or both) either at the
full dimension only or composed across every nested dimension. The flagship
schedule fine-tunes with both losses at the full dimension first, then
continues with the nested composite. Optimizer state is reset at each phase
boundary, and every bit of the run is determined by (data, config, seed).

Every step makes one `multitask_step_loss` call on the `StepBatch` roles its
phase's task reads (`TASK_ROLES`): "mnrl" passes no pairs, "ocl" no queries
and contrastive weight 1, "multitask" both and weight `lambda_ocl`.

Within a phase of T steps the learning rate warms up linearly over the first
w = ceil(T/10) steps and then decays linearly (`warmup_linear`), and each
update scales both gradients together to a global L2 norm of at most 1.0.
Each step is one forward pass: every distinct text is tokenized once per run
and pooled and embedded once per step into one raw row of the step's
`LossBatch`. The loss returns one gradient row per distinct text, which
`backward` takes as its upstream together with those texts' feature bags and
pooled rows; how queries, titles and pairs map to rows is left to
`near2.losses`. The feature-table gradient accumulates into one buffer per
`train` call, re-zeroed at the step's rows after each update.

`adamw_step` takes only the learning rate; the betas, epsilon, weight decay
and clip norm are module constants. It is one fused pass per parameter over
blocks of `ADAMW_BLOCK` entries: the clip scaling, weight decay, both moment
updates and the bias-corrected step run block by block through two
block-sized scratch buffers, with the same elementwise operations in the same
order as the plain whole-array update, so every bit matches it while each
array is read and written about once.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace

import numpy as np

from .data import RelevanceRecord, RELEVANT_ABOVE
from .encoder import (
    DEFAULT_BUCKETS,
    DEFAULT_DIMS,
    DEFAULT_FEATURE_DIM,
    MAX_BUCKETS,
    EncoderModel,
    backward,
    embed_bag,
    encode,  # unused here; bench/tracing.py wraps near2.trainer.encode
    feature_bags,
)
from .errors import DataError, NumericalError
from .losses import (
    LossBatch,
    mrl_compose,  # unused here; bench/tracing.py wraps near2.trainer.mrl_compose
    multitask_step_loss,
)
from .metrics import DEFAULT_CORPUS_CAP, DEFAULT_KS, MetricsReport, delta_report, sequential_evaluate
from .nested import DimSet

SCHEDULES = ("mnrl", "ocl", "mnrl+ocl", "mrl-first")

# Per-query negative cap; bounds the P*N hinge term count per step.
MAX_NEGATIVES_PER_QUERY = 8

# Global L2 norm both gradients are clipped to before every AdamW update.
MAX_GRAD_NORM = 1.0
# AdamW's moment decay rates, denominator epsilon and decoupled weight decay.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
WEIGHT_DECAY = 0.01

# Entries per block of adamw_step's fused pass: a block of the parameter, its
# gradient, both moments and the two scratch buffers (6 x 256 KiB of float64)
# stay within a 2 MiB L2 cache.
ADAMW_BLOCK = 32 * 1024


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


# The StepBatch roles each task's loss reads.
TASK_ROLES = {
    "mnrl": ("queries", "positives", "negatives"),
    "ocl": ("lefts", "rights", "labels"),
    "multitask": ("queries", "positives", "negatives", "lefts", "rights", "labels"),
}


@dataclass(frozen=True)
class Phase:
    """One stage of a schedule: which loss, and whether it is nested."""

    name: str
    task: str  # a TASK_ROLES key
    nested: bool


def schedule_phases(schedule: str) -> tuple[Phase, ...]:
    """The ordered phases of each named schedule.

    The first three fine-tune with an IR loss at the full dimension, then
    continue with the nested composite of the same loss; "mrl-first" trains
    the nested ranking composite first and then both plain losses, the order
    the ablation study found to underperform.
    """
    if schedule == "mnrl":
        return (Phase("mnrl", "mnrl", False), Phase("near2", "mnrl", True))
    if schedule == "ocl":
        return (Phase("ocl", "ocl", False), Phase("near2", "ocl", True))
    if schedule == "mnrl+ocl":
        return (Phase("mnrl+ocl", "multitask", False), Phase("near2", "multitask", True))
    if schedule == "mrl-first":
        return (Phase("mrl", "mnrl", True), Phase("mnrl+ocl", "multitask", False))
    raise ValueError(f"unknown schedule {schedule!r}")


# --- batching -------------------------------------------------------------------


def build_batches(
    records: list[RelevanceRecord], batch_size: int, seed: int
) -> list[StepBatch]:
    """Group records into per-step text batches, seed-deterministically.

    Positives are titles with grade > 3, negatives grade < 3; grade-3 rows
    never enter a triplet. Queries lacking either side are excluded from the
    ranking batches, but their centrality-labeled rows still feed the pair
    batches (spread round-robin). Negatives are capped per query per step.
    """
    by_query: dict[str, dict] = {}
    for r in records:
        q = by_query.setdefault(r.qid, {"query": r.query, "pos": [], "neg": [], "pairs": []})
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
            batch.queries.append(q["query"])
            batch.positives.append(list(q["pos"]))
            batch.negatives.append(list(negs))
            batch.add_pairs(q["query"], q["pairs"])
        batches.append(batch)

    # queries unusable for ranking still train OCL through their labeled pairs
    usable_set = set(usable)
    orphans = [qid for qid in by_query if qid not in usable_set and by_query[qid]["pairs"]]
    for i, qid in enumerate(orphans):
        batches[i % len(batches)].add_pairs(by_query[qid]["query"], by_query[qid]["pairs"])
    return batches


# --- AdamW ----------------------------------------------------------------------


@dataclass
class OptimizerState:
    step: int
    first_moment: dict[str, np.ndarray]
    second_moment: dict[str, np.ndarray]

    @classmethod
    def zeros(cls, params: dict[str, np.ndarray]) -> "OptimizerState":
        return cls(
            step=0,
            first_moment={k: np.zeros_like(v) for k, v in params.items()},
            second_moment={k: np.zeros_like(v) for k, v in params.items()},
        )


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    learning_rate: float,
) -> tuple[float, float]:
    """One clipped AdamW update at `learning_rate`, in place, with bias correction.

    The betas, epsilon and weight decay are `ADAM_BETA1`, `ADAM_BETA2`,
    `ADAM_EPS` and `WEIGHT_DECAY`. Returns the global L2 norm of the gradients
    before clipping and the clip factor applied: `MAX_GRAD_NORM / norm` when
    the norm is finite and above `MAX_GRAD_NORM`, else 1.0. Clipping scales
    `grads` in place.

    A finite norm proves every gradient entry finite, so entries are counted
    only when it is not: non-finite entries abort the step before anything is
    touched, while finite entries whose squares overflow the norm step
    unclipped. Then each parameter is updated in one pass over blocks of
    `ADAMW_BLOCK` entries, doing in each block, in this order: the clip
    scaling, decoupled weight decay from the pre-step value, both moment
    updates and the bias-corrected step. These are the same elementwise
    operations in the same order as a whole-array update, so the bits do not
    depend on the block size. Parameters, gradients and moments must be
    contiguous.
    """
    norm = math.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))
    if not math.isfinite(norm):
        for name, g in grads.items():
            bad = np.count_nonzero(~np.isfinite(g))
            if bad:
                raise NumericalError(f"{bad} non-finite gradient entries in {name!r}; step aborted")
    clip = MAX_GRAD_NORM / norm if math.isfinite(norm) and norm > MAX_GRAD_NORM else 1.0
    state.step += 1
    t = state.step
    lr, b1, b2, eps = learning_rate, ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    decay = lr * WEIGHT_DECAY
    m_correction, v_correction = 1.0 - b1**t, 1.0 - b2**t
    scratch = np.empty(ADAMW_BLOCK), np.empty(ADAMW_BLOCK)
    for name, param in params.items():
        flat = [
            a.reshape(-1, copy=False)
            for a in (param, grads[name], state.first_moment[name], state.second_moment[name])
        ]
        for start in range(0, flat[0].size, ADAMW_BLOCK):
            p, g, m, v = (a[start : start + ADAMW_BLOCK] for a in flat)
            tmp, den = (buf[: p.size] for buf in scratch)
            if clip != 1.0:
                g *= clip
            p -= np.multiply(p, decay, out=tmp)
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


def _step_loss(model, bags, batch: StepBatch, phase: Phase, dims: DimSet, config: TrainConfig):
    """Loss output, and the step's distinct feature bags and their pooled rows,
    one per row of the loss gradient. Each text is pooled and embedded once and
    its gradient row sums all its occurrences (exact, since backward is linear
    in upstream)."""
    if phase.task == "ocl" and not batch.labels:  # nothing to train on
        return None, [], None
    roles = {name: getattr(batch, name) for name in TASK_ROLES[phase.task]}
    pooled = []

    def embed(text):
        row, values = embed_bag(model, bags[text])
        pooled.append(row)
        return values

    # from_texts embeds each distinct text once, in row order
    loss_batch, texts = LossBatch.from_texts(embed, model.dims, **roles)
    # "mnrl" has no pairs, and its weight 0 raises no empty-pair warning
    weight = {"mnrl": 0.0, "ocl": 1.0}.get(phase.task, config.lambda_ocl)
    out = multitask_step_loss(loss_batch, dims, config.margin, config.margin_c, weight)
    if not np.isfinite(out.value):
        raise NumericalError(f"non-finite loss value {out.value!r}")
    return out, [bags[text] for text in texts], np.array(pooled)


def train(
    model: EncoderModel,
    records: list[RelevanceRecord],
    config: TrainConfig,
    valid_records: list[RelevanceRecord] | None = None,
) -> tuple[EncoderModel, TrainHistory]:
    """Run the configured schedule; returns the trained model and its history.

    The sequential evaluator runs after every epoch when validation records
    are provided. With epochs=0 the model is returned untouched. A float64
    model is trained in place; a loaded model, whose feature table is
    float32, is first copied into a float64 model and left as it was.
    """
    if model.feature_table.dtype != np.float64:
        model = replace(
            model,
            feature_table=model.feature_table.astype(np.float64),
            projection=model.projection.copy(),
        )
    history = TrainHistory()
    bags = feature_bags((s for r in records for s in (r.query, r.title)), model.bucket_count)
    grad_table = np.zeros_like(model.feature_table)  # all zeros between steps
    global_step = 0
    for phase_index, phase in enumerate(schedule_phases(config.schedule)):
        state = OptimizerState.zeros(model.parameters())
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
                out, step_bags, pooled = _step_loss(model, bags, batch, phase, dims, config)
                if out is None:
                    continue
                grads = backward(model, step_bags, out.gradient, pooled, grad_table)
                lr = config.learning_rate * warmup_linear(phase_step, total)
                grad_norm, clip = adamw_step(model.parameters(), grads, state, lr)
                grad_table[np.concatenate([bag.ids for bag in step_bags])] = 0.0
                global_step += 1
                history.record_step(
                    phase.name, epoch, global_step, out.value,
                    out.per_dim, out.warnings, lr, grad_norm, clip,
                )
            if valid_records:
                report = sequential_evaluate(
                    model, valid_records, config.dims,
                    ks=DEFAULT_KS, corpus_cap=config.corpus_cap, seed=config.seed,
                )
                history.record_validation(phase.name, epoch, report)
    return model, history


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
        from .metrics import format_delta

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

    def fresh_model() -> EncoderModel:
        return EncoderModel.create(
            bucket_count=config.bucket_count,
            feature_dim=config.feature_dim,
            dims=config.dims,
            seed=config.seed,
        )

    ks = tuple(sorted(set(DEFAULT_KS) | {5, 10}))
    baseline_report = sequential_evaluate(
        fresh_model(), eval_records, config.dims, ks=ks,
        corpus_cap=config.corpus_cap, seed=config.seed,
    )
    reports: dict[str, MetricsReport] = {}
    deltas: dict[str, dict] = {}
    for schedule in schedules:
        model, _ = train(fresh_model(), train_records, replace(config, schedule=schedule))
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
