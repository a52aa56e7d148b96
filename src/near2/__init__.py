"""Nested (Matryoshka) embedding training and prefix-truncated retrieval.

Train a small text encoder so every prefix of its embedding is independently
usable for cosine retrieval, then index, search, rank and evaluate at any
nested dimension.
"""

__version__ = "0.1.0"

from .nested import DimSet, NestedEmbedding, cosine_prefix, l2_normalize, truncate
from .losses import (
    LossBatch,
    LossOutput,
    MrlConfig,
    grad_check,
    mnrl_hinge,
    mrl_compose,
    multitask_step_loss,
    ocl,
)
from .encoder import EncoderModel, encode, load_model, save_model, tokenize
from .index import (
    PrefixIndex,
    SearchHit,
    build_index,
    load_index,
    memory_footprint,
    save_index,
    search_exact,
    search_funnel,
)
from .metrics import (
    MetricsReport,
    delta_report,
    mrr_at_k,
    ndcg_at_k,
    normalize_scores,
    precision_recall_at_k,
    score_histogram,
    sequential_evaluate,
)
from .data import RelevanceRecord, SynthSpec, gen_synthetic, parse_records, split_judgments
from .trainer import TrainConfig, adamw_step, build_batches, run_ablation, train

__all__ = [
    "DimSet",
    "NestedEmbedding",
    "cosine_prefix",
    "l2_normalize",
    "truncate",
    "LossBatch",
    "LossOutput",
    "MrlConfig",
    "grad_check",
    "mnrl_hinge",
    "mrl_compose",
    "multitask_step_loss",
    "ocl",
    "EncoderModel",
    "encode",
    "load_model",
    "save_model",
    "tokenize",
    "PrefixIndex",
    "SearchHit",
    "build_index",
    "load_index",
    "memory_footprint",
    "save_index",
    "search_exact",
    "search_funnel",
    "MetricsReport",
    "delta_report",
    "mrr_at_k",
    "ndcg_at_k",
    "normalize_scores",
    "precision_recall_at_k",
    "score_histogram",
    "sequential_evaluate",
    "RelevanceRecord",
    "SynthSpec",
    "gen_synthetic",
    "parse_records",
    "split_judgments",
    "TrainConfig",
    "adamw_step",
    "build_batches",
    "run_ablation",
    "train",
]
