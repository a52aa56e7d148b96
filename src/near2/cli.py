"""Command-line entry point: train / index / search / eval / ablate / synth / hist.

Flag values override config-file values, which override built-in defaults;
the fully resolved configuration is echoed into every report for provenance.
A config file (`--config FILE`) holds one JSON object whose keys are flag
names with `_` for `-` (`feature_dim` for `--feature-dim`). Each value is
parsed and checked exactly like its flag; a JSON list may stand for a
comma-separated value. Keys a subcommand does not take are ignored, so one
file can serve several subcommands.

Diagnostics go to stderr, machine-readable output to files or stdout.
Exit codes: 0 success, 1 usage error (a bad flag or config-file value, or a
dimension outside the model's nested set), 2 data/format error, unreadable
file or text that is not UTF-8, or a size that does not fit in memory, 3
numerical failure.

A corrupt file exits 2 with one `near2: data error:` line and no traceback,
from the command that reads the corrupt bytes, before it writes anything.
Model and index files are memory-mapped and checked in part at load; the
rest is checked when read. A non-finite model feature-table row fails the
commands whose texts gather it (`search`'s query; `index`'s titles; the
judged queries and corpus of `eval` and `hist`), naming the model file and
the row, while a query that gathers only sound rows gets the hits the
sound model gives. A search reads the index bands under its dim once, in a
float32 bound pass that only picks which rows to score, then scores those
rows exactly (`--funnel LOW:HIGH`: the bands under LOW, then the
shortlist's rows under HIGH); every printed score is exact. A non-finite
index vector fails the search whose pass reads it, as a full scan would.
The index's stored norm table is trusted, not checked against its bands:
an index file with altered norms loads and searches without an error, and
the rows it affects silently drop out of the results or rank wrongly.
Checking it would read every band under the search's dim, which a search
at a small dim exists to avoid.

`search` prints score_norm, the score minus the lowest similarity the search
computed: over the whole corpus for exact search, and over the shortlist
re-ranked at HIGH for `--funnel LOW:HIGH`.

Index files are written in format version 4 (column bands, a norm table and
a doc table of offsets into UTF-8 blobs, see `near2.index`). A version-1, -2
or -3 index from an older release is refused with exit 2; re-run
`near2 index` on the same titles to rebuild it. `search` refuses, with exit
2, a model whose nested dims differ from the index's.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from .data import SynthSpec, distinct_titles, gen_synthetic, load_records, write_records
from .encoder import encode, load_model, save_model
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
    DEFAULT_KS,
    MetricsReport,
    delta_report,
    histogram_csv,
    judged_scores,
    normalize_scores,
    score_histogram,
    sequential_evaluate,
)
from .nested import DimSet
from .trainer import SCHEDULES, TrainConfig, initial_model, run_ablation, train

# `near2 --help`; the module docstring holds the rest of the contract
_DESCRIPTION = """\
Train a nested (Matryoshka) text encoder, index titles, and search, evaluate
or ablate at any nested dimension. `near2 COMMAND --help` lists a command's
flags. A flag overrides its key in the `--config FILE` JSON object, which
overrides the built-in default. Exit codes: 0 success, 1 usage error, 2 data,
format or file error (or out of memory), 3 numerical failure."""

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract says 1
        raise UsageError(message)


# --- option values ----------------------------------------------------------------
# Each parser takes a flag's string or a config file's JSON value and raises
# ValueError with the reason it is bad.


def _int(value) -> int:
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError("expected an integer")


def _count(value) -> int:
    n = _int(value)
    if n < 1:
        raise ValueError("must be >= 1")
    return n


def _float(value) -> float:
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            x = float(value)
        except ValueError:
            x = math.nan
        if math.isfinite(x):
            return x
    raise ValueError("expected a finite number")


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError("expected true or false")
    return value


def _schedule(value) -> str:
    if value not in SCHEDULES:
        raise ValueError(f"valid schedules: {', '.join(SCHEDULES)}")
    return value


def _list_of(parse: Callable) -> Callable:
    def parse_list(value) -> tuple:
        if isinstance(value, str):
            value = [v for v in value.split(",") if v.strip()]
        items = tuple(parse(v) for v in (value if isinstance(value, list) else [value]))
        if not items:
            raise ValueError("expected at least one value")
        return items

    return parse_list


def _dims(value) -> DimSet:
    return DimSet(_list_of(_int)(value))


def _funnel(value) -> tuple[int, int]:
    try:
        low, high = (int(v) for v in str(value).split(":"))
    except ValueError:
        raise ValueError("must look like LOW:HIGH") from None
    if low > high:
        raise ValueError(f"LOW ({low}) must not exceed HIGH ({high})")
    return low, high


# --- option tables ----------------------------------------------------------------

REQUIRED = object()


class Option(NamedTuple):
    parse: Callable
    default: object = None  # None: unset unless given; REQUIRED: must be given
    help: str | None = None


# option -> (TrainConfig field, parser); each default is the field's default
_TRAINING = {
    "dims": ("dims", _dims),
    "batch": ("batch_size", _int),
    "epochs": ("epochs", _int),
    "lr": ("learning_rate", _float),
    "margin": ("margin", _float),
    "margin_c": ("margin_c", _float),
    "lambda_ocl": ("lambda_ocl", _float),
    "schedule": ("schedule", _schedule),
    "seed": ("seed", _int),
    "buckets": ("bucket_count", _int),
    "feature_dim": ("feature_dim", _int),
    "corpus_cap": ("corpus_cap", _int),
}

# option -> (SynthSpec field, parser); each default is the field's default
_SYNTH = {
    "seed": ("seed", _int),
    "queries": ("query_count", _int),
    "titles_per_query": ("titles_per_query", _int),
    "categories": ("category_count", _int),
    "alphanum_fraction": ("alphanum_fraction", _float),
    "shared_substring_fraction": ("shared_substring_fraction", _float),
}


def _field_options(cls, fields: dict, skip=()) -> dict[str, Option]:
    return {
        name: Option(parse, getattr(cls, field))
        for name, (field, parse) in fields.items() if name not in skip
    }


def _build(cls, fields: dict, values: dict):
    """cls from the options' resolved values; its own range checks are usage errors."""
    try:
        return cls(**{field: values[name] for name, (field, _) in fields.items() if name in values})
    except ValueError as e:
        raise UsageError(str(e)) from None


def _resolve(command: str, options: dict[str, Option], flags: dict, file_config: dict) -> dict:
    """Each option's value: its flag, else its config-file key, else its default."""
    values = {}
    for name, option in options.items():
        flag = "--" + name.replace("_", "-")
        raw, source = flags[name], flag
        if raw is None and file_config.get(name) is not None:
            raw, source = file_config[name], f"config key {name!r}"
        if raw is None:
            if option.default is REQUIRED:
                raise UsageError(f"{command} requires {flag}")
            values[name] = option.default
            continue
        try:
            values[name] = option.parse(raw)
        except ValueError as e:
            raise UsageError(f"bad {source} value {raw!r}: {e}") from None
    return values


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        # a JSON \ud800 escape decodes to text that no file name or report can hold
        json.dumps(obj, ensure_ascii=False).encode("utf-8")
    # ValueError: bad JSON, or text that does not decode or encode as UTF-8
    except (OSError, ValueError, RecursionError) as e:
        raise DataError(f"cannot read config file {path}: {e}") from None
    if not isinstance(obj, dict):
        raise DataError(f"config file {path} must hold a JSON object")
    return obj


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


def _provenance(command: str, values: dict) -> dict:
    config = {k: (list(v) if isinstance(v, DimSet) else v) for k, v in values.items()}
    return {"command": command, "version": __version__, "config": config}


def _write_json_report(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def _write_csv_report(path, header: dict, body: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# near2 " + json.dumps(header, sort_keys=True) + "\n")
        fh.write(body)


# --- subcommands ------------------------------------------------------------------


def _cmd_synth(values: dict) -> int:
    spec = _build(SynthSpec, _SYNTH, values)
    out_dir = Path(values["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    train_recs, valid_recs, test_recs = gen_synthetic(spec)
    for name, recs in (("train", train_recs), ("valid", valid_recs), ("test", test_recs)):
        write_records(recs, out_dir / f"{name}.jsonl")
        print(f"near2: wrote {len(recs)} records to {out_dir / f'{name}.jsonl'}", file=sys.stderr)
    return EXIT_OK


def _cmd_train(values: dict) -> int:
    config = _build(TrainConfig, _TRAINING, values)
    records = _records_or_die(values["data"], "train")
    valid_records = _records_or_die(values["valid"], "valid") if values["valid"] else None

    model, history = train(initial_model(config), records, config, valid_records)
    out_path = values["out"]
    save_model(model, out_path)
    print(f"near2: model written to {out_path}", file=sys.stderr)

    history_path = values["history"]
    if history_path:
        with open(history_path, "w", encoding="utf-8") as fh:
            header = {"kind": "header", **_provenance("train", values)}
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            fh.write(history.to_jsonl())
        print(f"near2: history written to {history_path}", file=sys.stderr)
    if history.steps:
        print(f"near2: {len(history.steps)} optimization steps, "
              f"final loss {history.steps[-1]['loss']:.6f}", file=sys.stderr)
    return EXIT_OK


def _cmd_index(values: dict) -> int:
    model = load_model(values["model"])
    records = _records_or_die(values["titles"], "titles")
    index = build_index(model, distinct_titles(records))
    save_index(index, values["out"])
    print(f"near2: indexed {index.count} titles to {values['out']}", file=sys.stderr)
    return EXIT_OK


def _cmd_search(values: dict) -> int:
    k, funnel = values["k"], values["funnel"]
    if funnel:
        shortlist = values["shortlist"] or 4 * k
        if shortlist < k:
            raise UsageError(f"--shortlist ({shortlist}) must be >= --k ({k})")

    index = load_index(values["index"])
    dim = index.dims.full if values["dim"] is None else values["dim"]
    for m in funnel or (dim,):
        index.dims.require(m)
    model = load_model(values["model"])
    if model.dims != index.dims:
        raise DataError(
            f"model dims {list(model.dims)} differ from the index's {list(index.dims)}; "
            "search with the model the index was built with"
        )
    query = encode(model, values["query"])
    # unmaps the model's table: the pages its rows sit in count as resident
    # while mapped, and would stack on the index pages the scan maps
    del model
    if funnel:
        # ranking the whole shortlist at HIGH costs no extra scan; its first
        # k hits are exactly search_funnel(..., k), and its last score is the
        # lowest HIGH similarity the funnel computed
        ranked = search_funnel(index, query, *funnel, shortlist, shortlist)
        hits = ranked[:k]
        min_score = ranked[-1].score if ranked else float("nan")
    else:
        hits, min_score = search_exact_with_min(index, query, dim, k)

    print("rank\tdoc_id\ttitle\tscore\tscore_norm")
    for hit in hits:
        norm = float(normalize_scores([hit.score, min_score])[0])
        print(f"{hit.rank}\t{hit.doc_id}\t{index.titles[hit.row]}\t{hit.score!r}\t{norm!r}")
    return EXIT_OK


def _read_baseline(path) -> MetricsReport:
    """The metrics report of a `near2 eval` report file; DataError naming the
    file if it cannot be read or is not one."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return MetricsReport.from_dict(json.load(fh)["report"])
    except (OSError, ValueError, KeyError, TypeError, AttributeError, RecursionError) as e:
        raise DataError(f"cannot read baseline report {path}: {e}") from None


def _cmd_eval(values: dict) -> int:
    report_path, baseline_path = values["report"], values["baseline"]
    baseline = _read_baseline(baseline_path) if baseline_path else None
    model = load_model(values["model"])
    if values["dims"] is None:
        values["dims"] = model.dims
    records = _records_or_die(values["test"], "test")
    report = sequential_evaluate(
        model, records, values["dims"], ks=values["ks"], corpus_cap=values["corpus_cap"],
        seed=values["seed"], graded=values["graded"],
    )
    if baseline is not None:
        try:
            delta = delta_report(report, baseline)
        except DataError as e:
            raise DataError(f"baseline report {baseline_path}: {e}") from None
        values["delta_out"] = values["delta_out"] or str(report_path) + ".delta.csv"
    _write_json_report(report_path, {**_provenance("eval", values), "report": report.to_dict()})
    print(f"near2: metrics report written to {report_path}", file=sys.stderr)

    if baseline is not None:
        _write_csv_report(values["delta_out"], _provenance("eval", values), delta.to_csv())
        print(f"near2: delta table written to {values['delta_out']}", file=sys.stderr)
    return EXIT_OK


def _cmd_ablate(values: dict) -> int:
    config = _build(TrainConfig, _TRAINING, values)
    data = Path(values["data"])
    if data.is_dir():
        train_records = _records_or_die(data / "train.jsonl", "train")
        test_records = _records_or_die(data / "test.jsonl", "test")
    else:
        train_records = _records_or_die(data, "data")
        test_records = train_records

    report = run_ablation(train_records, test_records, config, values["schedules"])
    report_path = values["report"]
    csv_path = values["csv"] = values["csv"] or str(report_path) + ".csv"
    _write_json_report(report_path, {**_provenance("ablate", values), "ablation": report.to_dict()})
    _write_csv_report(csv_path, _provenance("ablate", values), report.to_csv())
    print(f"near2: ablation report written to {report_path} and {csv_path}", file=sys.stderr)
    return EXIT_OK


def _cmd_hist(values: dict) -> int:
    model = load_model(values["model"])
    records = _records_or_die(values["test"], "test")
    dim = values["dim"]
    dim = values["dim"] = model.dims.full if dim is None else model.dims.require(dim)
    scores, skipped = judged_scores(model, records, dim, values["corpus_cap"], values["seed"])
    if skipped:
        print(f"near2: skipped {skipped} judged queries with a zero-norm {dim}-prefix",
              file=sys.stderr)
    rows = score_histogram(scores, values["bins"])
    _write_csv_report(values["out"], _provenance("hist", values), histogram_csv(rows))
    print(f"near2: histogram written to {values['out']}", file=sys.stderr)
    return EXIT_OK


# --- parser -----------------------------------------------------------------------

# command -> (handler, help, options); each option is a flag and a config key
COMMANDS: dict[str, tuple[Callable, str, dict[str, Option]]] = {
    "synth": (_cmd_synth, "generate a seeded synthetic relevance dataset", {
        **_field_options(SynthSpec, _SYNTH),
        "out": Option(str, ".", "output directory for train/valid/test.jsonl"),
    }),
    "train": (_cmd_train, "train the nested encoder on relevance records", {
        "data": Option(str, REQUIRED),
        "valid": Option(str),
        **_field_options(TrainConfig, _TRAINING),
        "out": Option(str, REQUIRED),
        "history": Option(str),
    }),
    "index": (_cmd_index, "embed titles into a prefix-searchable index", {
        "model": Option(str, REQUIRED),
        "titles": Option(str, REQUIRED),
        "out": Option(str, REQUIRED),
    }),
    "search": (_cmd_search, "top-k cosine search at any nested dimension", {
        "index": Option(str, REQUIRED),
        "model": Option(str, REQUIRED),
        "query": Option(str, REQUIRED),
        "dim": Option(_int, None, "prefix dimension; default the full dimension"),
        "k": Option(_count, 10),
        "funnel": Option(_funnel, None,
                         "LOW:HIGH coarse-to-fine two-stage search; score_norm is anchored "
                         "to the lowest HIGH-dimension score in the shortlist"),
        "shortlist": Option(_count, None, "funnel shortlist size; default 4 * k"),
    }),
    "eval": (_cmd_eval, "run the sequential evaluator over a test set", {
        "model": Option(str, REQUIRED),
        "test": Option(str, REQUIRED),
        "dims": Option(_dims, None, "nested dimensions to evaluate; default the model's own"),
        "ks": Option(_list_of(_count), DEFAULT_KS),
        "corpus_cap": Option(_count, DEFAULT_CORPUS_CAP),
        "report": Option(str, REQUIRED),
        "baseline": Option(str),
        "delta_out": Option(str),
        "seed": Option(_int, 0),
        "graded": Option(_bool, False),
    }),
    "ablate": (_cmd_ablate, "train and compare all ablation schedules", {
        "data": Option(str, REQUIRED, "dataset directory from synth, or a single records file"),
        "schedules": Option(_list_of(_schedule), SCHEDULES),
        "report": Option(str, REQUIRED),
        "csv": Option(str),
        **_field_options(TrainConfig, _TRAINING, skip=("schedule",)),
    }),
    "hist": (_cmd_hist, "similarity-score histogram over a test set", {
        "model": Option(str, REQUIRED),
        "test": Option(str, REQUIRED),
        "bins": Option(_count, 40),
        "out": Option(str, REQUIRED),
        "dim": Option(_int, None, "prefix dimension; default the full dimension"),
        "corpus_cap": Option(_count, DEFAULT_CORPUS_CAP),
        "seed": Option(_int, 0),
    }),
}


def build_parser(only: str | None = None) -> _Parser:
    """The parser for every command, or with `only` the one subparser it names.

    Both print the same usage line, since the commands are named only in
    the full parser's help.
    """
    parser = _Parser(prog="near2", description=_DESCRIPTION)
    parser.add_argument("--version", action="version", version=f"near2 {__version__}")
    sub = parser.add_subparsers(dest="cmd", metavar="COMMAND")
    for command, (_, help_text, options) in COMMANDS.items():
        if only is not None and command != only:
            continue
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file with default flag values")
        for name, option in options.items():
            flag = "--" + name.replace("_", "-")
            if option.parse is _bool:
                p.add_argument(flag, dest=name, action="store_const", const=True, help=option.help)
            else:
                p.add_argument(flag, dest=name, help=option.help)
    return parser


def run(argv) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    # a leading command name is the only way a command is chosen, so the other
    # subparsers cannot be used; anything else gets the full parser's messages
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        flags = vars(parser.parse_args(argv))
        command = flags.pop("cmd")
        if command is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        handler, _, options = COMMANDS[command]
        return handler(_resolve(command, options, flags, _load_config_file(flags["config"])))
    except (UsageError, InvalidDimensionError) as e:
        print(f"near2: usage error: {e}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except (DataError, ZeroVectorError, OSError) as e:  # FormatError is a DataError
        print(f"near2: data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as e:
        print(f"near2: numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as e:  # sizes within range can still exceed the machine
        print(f"near2: out of memory: {str(e) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_DATA


def main(argv=None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except SystemExit as e:  # argparse --help/--version path
        return int(e.code or 0)


if __name__ == "__main__":
    sys.exit(main())
