"""Command-line entry point: train / index / search / eval / ablate / synth / hist.

Flag values override config-file values, which override built-in defaults;
the fully resolved configuration is echoed into every report for provenance.
Diagnostics go to stderr, machine-readable output to files or stdout.
Exit codes: 0 success, 1 usage error, 2 data/format error or unreadable file,
3 numerical failure.

`search` prints score_norm, the score minus the lowest similarity the search
computed: over the whole corpus for exact search, and over the shortlist
re-ranked at HIGH for `--funnel LOW:HIGH`.

Index files are written in format version 2 (column bands and a norm table,
see `near2.index`). A version-1 index from an older release is refused with
exit 2; re-run `near2 index` on the same titles to rebuild it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .data import (
    SynthSpec,
    distinct_titles,
    gen_synthetic,
    load_records,
    split_judgments,
    write_records,
)
from .encoder import EncoderModel, encode, load_model, save_model
from .errors import DataError, InvalidDimensionError, NumericalError, ZeroVectorError
from .index import (
    build_index,
    load_index,
    save_index,
    search_exact_with_min,
    search_funnel,
)
from .metrics import (
    DEFAULT_CORPUS_CAP,
    MetricsReport,
    delta_report,
    histogram_csv,
    normalize_scores,
    score_histogram,
    sequential_evaluate,
)
from .nested import DimSet
from .trainer import SCHEDULES, TrainConfig, run_ablation, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract says 1
        raise UsageError(message)


def _parse_dims(value) -> DimSet:
    if isinstance(value, (list, tuple)):
        return DimSet(tuple(int(v) for v in value))
    try:
        return DimSet(tuple(int(v) for v in str(value).split(",") if v.strip()))
    except ValueError as e:
        raise UsageError(f"bad --dims value {value!r}: {e}") from None


def _parse_ks(value) -> tuple[int, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(int(v) for v in value)
    try:
        return tuple(int(v) for v in str(value).split(",") if v.strip())
    except ValueError:
        raise UsageError(f"bad --ks value {value!r}") from None


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise DataError(f"cannot read config file {path}: {e}") from None
    if not isinstance(obj, dict):
        raise DataError(f"config file {path} must hold a JSON object")
    return obj


class Resolver:
    """flags > config file > defaults, remembering every resolved value."""

    def __init__(self, args, file_config: dict):
        self.args = vars(args)
        self.file = file_config
        self.resolved: dict = {}

    def get(self, key: str, default=None):
        value = self.args.get(key)
        if value is None:
            value = self.file.get(key, default)
        self.resolved[key] = value
        return value


def _records_or_die(path, what: str):
    try:
        records, issues = load_records(path)
    except OSError as e:
        raise DataError(f"cannot read {what} file {path}: {e}") from None
    for issue in issues[:10]:
        print(f"near2: {what} line {issue.line_no}: {issue.message}", file=sys.stderr)
    if len(issues) > 10:
        print(f"near2: ... and {len(issues) - 10} more issues", file=sys.stderr)
    return records


def _train_config(res: Resolver) -> TrainConfig:
    dims = _parse_dims(res.get("dims", "768,512,256,128,64"))
    res.resolved["dims"] = dims
    return TrainConfig(
        epochs=int(res.get("epochs", 2)),
        batch_size=int(res.get("batch", 32)),
        learning_rate=float(res.get("lr", 5e-5)),
        margin=float(res.get("margin", 0.75)),
        margin_c=float(res.get("margin_c", 0.5)),
        lambda_ocl=float(res.get("lambda_ocl", 1.0)),
        dims=dims,
        seed=int(res.get("seed", 0)),
        schedule=str(res.get("schedule", "mnrl+ocl")),
        bucket_count=int(res.get("buckets", 2**15)),
        feature_dim=int(res.get("feature_dim", 128)),
        corpus_cap=int(res.get("corpus_cap", DEFAULT_CORPUS_CAP)),
    )


def _provenance(command: str, res: Resolver) -> dict:
    resolved = {
        k: (list(v.dims) if isinstance(v, DimSet) else v) for k, v in sorted(res.resolved.items())
    }
    return {"command": command, "version": __version__, "config": resolved}


def _write_json_report(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def _write_csv_report(path, header: dict, body: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# near2 " + json.dumps(header, sort_keys=True) + "\n")
        fh.write(body)


# --- subcommands ------------------------------------------------------------------


def _cmd_synth(args) -> int:
    res = Resolver(args, _load_config_file(args.config))
    try:
        spec = SynthSpec(
            seed=int(res.get("seed", 0)),
            query_count=int(res.get("queries", 100)),
            titles_per_query=int(res.get("titles_per_query", 10)),
            category_count=int(res.get("categories", 10)),
            alphanum_fraction=float(res.get("alphanum_fraction", 0.2)),
            shared_substring_fraction=float(res.get("shared_substring_fraction", 0.3)),
        )
    except ValueError as e:  # SynthSpec checks its own ranges
        raise UsageError(str(e)) from None
    out_dir = Path(res.get("out", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    train_recs, valid_recs, test_recs = gen_synthetic(spec)
    for name, recs in (("train", train_recs), ("valid", valid_recs), ("test", test_recs)):
        write_records(recs, out_dir / f"{name}.jsonl")
        print(f"near2: wrote {len(recs)} records to {out_dir / f'{name}.jsonl'}", file=sys.stderr)
    return EXIT_OK


def _cmd_train(args) -> int:
    res = Resolver(args, _load_config_file(args.config))
    config = _train_config(res)
    data_path = res.get("data")
    if data_path is None:
        raise UsageError("train requires --data")
    out_path = res.get("out")
    if out_path is None:
        raise UsageError("train requires --out")
    records = _records_or_die(data_path, "train")
    valid_path = res.get("valid")
    valid_records = _records_or_die(valid_path, "valid") if valid_path else None

    model = EncoderModel.create(
        bucket_count=config.bucket_count,
        feature_dim=config.feature_dim,
        dims=config.dims,
        seed=config.seed,
    )
    model, history = train(model, records, config, valid_records)
    save_model(model, out_path)
    print(f"near2: model written to {out_path}", file=sys.stderr)

    history_path = res.get("history")
    if history_path:
        with open(history_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "header", **_provenance("train", res)}, sort_keys=True) + "\n")
            fh.write(history.to_jsonl())
        print(f"near2: history written to {history_path}", file=sys.stderr)
    if history.steps:
        print(f"near2: {len(history.steps)} optimization steps, "
              f"final loss {history.steps[-1]['loss']:.6f}", file=sys.stderr)
    return EXIT_OK


def _cmd_index(args) -> int:
    res = Resolver(args, _load_config_file(args.config))
    model_path, titles_path, out_path = res.get("model"), res.get("titles"), res.get("out")
    if not (model_path and titles_path and out_path):
        raise UsageError("index requires --model, --titles and --out")
    model = load_model(model_path)
    records = _records_or_die(titles_path, "titles")
    index = build_index(model, distinct_titles(records))
    save_index(index, out_path)
    print(f"near2: indexed {index.count} titles to {out_path}", file=sys.stderr)
    return EXIT_OK


def _cmd_search(args) -> int:
    res = Resolver(args, _load_config_file(args.config))
    index_path, model_path = res.get("index"), res.get("model")
    query_text = res.get("query")
    if not (index_path and model_path and query_text is not None):
        raise UsageError("search requires --index, --model and --query")
    dim = int(res.get("dim", 0) or 0)
    k = int(res.get("k", 10))
    if k < 1:
        raise UsageError(f"--k must be >= 1, got {k}")
    funnel = res.get("funnel")
    if funnel:
        try:
            low_s, high_s = str(funnel).split(":")
            m_low, m_high = int(low_s), int(high_s)
        except ValueError:
            raise UsageError(f"--funnel must look like LOW:HIGH, got {funnel!r}") from None
        if m_low > m_high:
            raise UsageError(f"--funnel LOW ({m_low}) must not exceed HIGH ({m_high})")
        shortlist = res.get("shortlist")
        s = int(shortlist) if shortlist is not None else 4 * k
        res.resolved["shortlist"] = s
        if s < k:
            raise UsageError(f"--shortlist ({s}) must be >= --k ({k})")

    index = load_index(index_path)
    model = load_model(model_path)
    if dim == 0:
        dim = index.dims.full
        res.resolved["dim"] = dim
    query = encode(model, query_text)

    try:
        if funnel:
            # ranking the whole shortlist at m_high costs no extra scan; its
            # first k hits are exactly search_funnel(..., k), and its last
            # score is the lowest m_high similarity the funnel computed
            ranked = search_funnel(index, query, m_low, m_high, s, s)
            hits = ranked[:k]
            min_score = ranked[-1].score if ranked else float("nan")
        else:
            hits, min_score = search_exact_with_min(index, query, dim, k)
    except InvalidDimensionError as e:
        raise UsageError(str(e)) from None

    print("rank\tdoc_id\ttitle\tscore\tscore_norm")
    for hit in hits:
        norm = float(normalize_scores([hit.score, min_score])[0])
        print(f"{hit.rank}\t{hit.doc_id}\t{index.titles[hit.row]}\t{hit.score!r}\t{norm!r}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    res = Resolver(args, _load_config_file(args.config))
    model_path, test_path, report_path = res.get("model"), res.get("test"), res.get("report")
    if not (model_path and test_path and report_path):
        raise UsageError("eval requires --model, --test and --report")
    dims = _parse_dims(res.get("dims", "768,512,256,128,64"))
    res.resolved["dims"] = dims
    ks = _parse_ks(res.get("ks", "3,5,10"))
    res.resolved["ks"] = list(ks)
    corpus_cap = int(res.get("corpus_cap", DEFAULT_CORPUS_CAP))
    seed = int(res.get("seed", 0))
    graded = bool(res.get("graded", False))

    model = load_model(model_path)
    records = _records_or_die(test_path, "test")
    report = sequential_evaluate(
        model, records, dims, ks=ks, corpus_cap=corpus_cap, seed=seed, graded=graded
    )
    _write_json_report(report_path, {**_provenance("eval", res), "report": report.to_dict()})
    print(f"near2: metrics report written to {report_path}", file=sys.stderr)

    baseline_path = res.get("baseline")
    if baseline_path:
        try:
            with open(baseline_path, "r", encoding="utf-8") as fh:
                baseline = MetricsReport.from_dict(json.load(fh)["report"])
        except (OSError, KeyError, json.JSONDecodeError) as e:
            raise DataError(f"cannot read baseline report {baseline_path}: {e}") from None
        delta = delta_report(report, baseline)
        delta_path = res.get("delta_out") or str(report_path) + ".delta.csv"
        res.resolved["delta_out"] = delta_path
        _write_csv_report(delta_path, _provenance("eval", res), delta.to_csv())
        print(f"near2: delta table written to {delta_path}", file=sys.stderr)
    return EXIT_OK


def _cmd_ablate(args) -> int:
    res = Resolver(args, _load_config_file(args.config))
    data_path, report_path = res.get("data"), res.get("report")
    if not (data_path and report_path):
        raise UsageError("ablate requires --data and --report")
    schedules = res.get("schedules", ",".join(SCHEDULES))
    if isinstance(schedules, str):
        schedules = tuple(s.strip() for s in schedules.split(",") if s.strip())
    for s in schedules:
        if s not in SCHEDULES:
            raise UsageError(f"unknown schedule {s!r}; valid: {', '.join(SCHEDULES)}")
    config = _train_config(res)

    data = Path(data_path)
    if data.is_dir():
        train_records = _records_or_die(data / "train.jsonl", "train")
        test_records = _records_or_die(data / "test.jsonl", "test")
    else:
        train_records = _records_or_die(data, "data")
        test_records = train_records

    report = run_ablation(train_records, test_records, config, schedules)
    _write_json_report(report_path, {**_provenance("ablate", res), "ablation": report.to_dict()})
    csv_path = res.get("csv") or str(report_path) + ".csv"
    res.resolved["csv"] = csv_path
    _write_csv_report(csv_path, _provenance("ablate", res), report.to_csv())
    print(f"near2: ablation report written to {report_path} and {csv_path}", file=sys.stderr)
    return EXIT_OK


def _cmd_hist(args) -> int:
    res = Resolver(args, _load_config_file(args.config))
    model_path, test_path, out_path = res.get("model"), res.get("test"), res.get("out")
    if not (model_path and test_path and out_path):
        raise UsageError("hist requires --model, --test and --out")
    bins = int(res.get("bins", 40))
    corpus_cap = int(res.get("corpus_cap", DEFAULT_CORPUS_CAP))
    seed = int(res.get("seed", 0))

    model = load_model(model_path)
    records = _records_or_die(test_path, "test")
    dim = int(res.get("dim", 0) or 0) or model.dims.full
    res.resolved["dim"] = dim

    from .metrics import capped_corpus
    from .index import all_scores

    split = split_judgments(records)
    if not split.judged:
        raise DataError("no judged queries in the test records")
    index = build_index(model, capped_corpus(split, corpus_cap, seed))
    collected = []
    for judgment in split.judged:
        emb = encode(model, judgment.query)
        if emb.degenerate:
            continue
        try:
            collected.append(all_scores(index, emb, dim)[1])
        except InvalidDimensionError as e:
            raise UsageError(str(e)) from None
    if not collected:
        raise DataError("no query produced any similarity scores")
    import numpy as np

    rows = score_histogram(np.concatenate(collected), bins)
    _write_csv_report(out_path, _provenance("hist", res), histogram_csv(rows))
    print(f"near2: histogram written to {out_path}", file=sys.stderr)
    return EXIT_OK


# --- parser -----------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="near2", description=__doc__)
    parser.add_argument("--version", action="version", version=f"near2 {__version__}")
    sub = parser.add_subparsers(dest="cmd", metavar="COMMAND")

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file with default flag values")
        p.set_defaults(fn=fn)
        return p

    p = add("synth", _cmd_synth, "generate a seeded synthetic relevance dataset")
    p.add_argument("--seed", type=int)
    p.add_argument("--queries", type=int)
    p.add_argument("--titles-per-query", dest="titles_per_query", type=int)
    p.add_argument("--categories", type=int)
    p.add_argument("--alphanum-fraction", dest="alphanum_fraction", type=float)
    p.add_argument("--shared-substring-fraction", dest="shared_substring_fraction", type=float)
    p.add_argument("--out", help="output directory for train/valid/test.jsonl")

    p = add("train", _cmd_train, "train the nested encoder on relevance records")
    p.add_argument("--data")
    p.add_argument("--valid")
    p.add_argument("--dims")
    p.add_argument("--batch", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--margin", type=float)
    p.add_argument("--margin-c", dest="margin_c", type=float)
    p.add_argument("--lambda-ocl", dest="lambda_ocl", type=float)
    p.add_argument("--schedule", choices=SCHEDULES)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--history")
    p.add_argument("--buckets", type=int)
    p.add_argument("--feature-dim", dest="feature_dim", type=int)
    p.add_argument("--corpus-cap", dest="corpus_cap", type=int)

    p = add("index", _cmd_index, "embed titles into a prefix-searchable index")
    p.add_argument("--model")
    p.add_argument("--titles")
    p.add_argument("--out")

    p = add("search", _cmd_search, "top-k cosine search at any nested dimension")
    p.add_argument("--index")
    p.add_argument("--model")
    p.add_argument("--query")
    p.add_argument("--dim", type=int)
    p.add_argument("--k", type=int)
    p.add_argument(
        "--funnel", metavar="LOW:HIGH",
        help="coarse-to-fine two-stage search; score_norm is anchored to the lowest "
             "HIGH-dimension score in the shortlist",
    )
    p.add_argument("--shortlist", type=int)

    p = add("eval", _cmd_eval, "run the sequential evaluator over a test set")
    p.add_argument("--model")
    p.add_argument("--test")
    p.add_argument("--dims")
    p.add_argument("--ks")
    p.add_argument("--corpus-cap", dest="corpus_cap", type=int)
    p.add_argument("--report")
    p.add_argument("--baseline")
    p.add_argument("--delta-out", dest="delta_out")
    p.add_argument("--seed", type=int)
    p.add_argument("--graded", action="store_const", const=True)

    p = add("ablate", _cmd_ablate, "train and compare all ablation schedules")
    p.add_argument("--data", help="dataset directory from synth, or a single records file")
    p.add_argument("--schedules")
    p.add_argument("--seed", type=int)
    p.add_argument("--report")
    p.add_argument("--csv")
    p.add_argument("--dims")
    p.add_argument("--batch", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--buckets", type=int)
    p.add_argument("--feature-dim", dest="feature_dim", type=int)
    p.add_argument("--corpus-cap", dest="corpus_cap", type=int)

    p = add("hist", _cmd_hist, "similarity-score histogram over a test set")
    p.add_argument("--model")
    p.add_argument("--test")
    p.add_argument("--bins", type=int)
    p.add_argument("--out")
    p.add_argument("--dim", type=int)
    p.add_argument("--corpus-cap", dest="corpus_cap", type=int)
    p.add_argument("--seed", type=int)

    return parser


def run(argv) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "fn", None) is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        return args.fn(args)
    except UsageError as e:
        print(f"near2: usage error: {e}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except (DataError, ZeroVectorError, OSError) as e:  # FormatError is a DataError
        print(f"near2: data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as e:
        print(f"near2: numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


def main(argv=None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except SystemExit as e:  # argparse --help/--version path
        return int(e.code or 0)


if __name__ == "__main__":
    sys.exit(main())
