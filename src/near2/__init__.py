"""Nested (Matryoshka) embedding training and prefix-truncated retrieval.

Train a small text encoder so every prefix of its embedding is independently
usable for cosine retrieval, then index, search, rank and evaluate at any
nested dimension.

Importing the package loads no submodule. A public name, or a submodule by
its own name, is imported on first use (PEP 562), so `import near2.index`
loads only what the index needs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it, listed module by module
_EXPORTS = {
    name: module
    for module, names in {
        "nested": ("DimSet", "NestedEmbedding", "cosine_prefix", "l2_normalize", "truncate"),
        "losses": ("LossBatch", "LossOutput", "mnrl_hinge", "mrl_compose",
                   "multitask_step_loss", "ocl"),
        "encoder": ("EncoderModel", "encode", "load_model", "save_model", "tokenize"),
        "index": ("PrefixIndex", "SearchHit", "build_index", "load_index", "memory_footprint",
                  "save_index", "search_exact", "search_funnel"),
        "metrics": ("MetricsReport", "delta_report", "mrr_at_k", "ndcg_at_k", "normalize_scores",
                    "precision_recall_at_k", "score_histogram", "sequential_evaluate"),
        "data": ("RelevanceRecord", "SynthSpec", "gen_synthetic", "parse_records",
                 "split_judgments"),
        "trainer": ("TrainConfig", "adamw_step", "build_batches", "run_ablation", "train"),
    }.items()
    for name in names
}
__all__ = list(_EXPORTS)


def __getattr__(name):
    """A public name from its submodule, or a submodule by its name, imported
    on first use; a public name is then bound here, as a submodule is by its
    import."""
    try:
        module = importlib.import_module(f"{__name__}.{_EXPORTS.get(name, name)}")
    except ModuleNotFoundError as e:
        if e.name != f"{__name__}.{name}":
            raise
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    if name not in _EXPORTS:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
