import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from format_oracle import (index_sections, index_sections_of, model_sections, section_named,
                           zero_row_index_file)
import near2
from near2 import cli, metrics, trainer
from near2.cli import build_parser, main
from near2.data import RelevanceRecord, distinct_titles, load_records, write_records
from near2.encoder import EncoderModel, encode, load_model, save_model, tokenize, tokenize_many
from near2.index import load_index, search_funnel
from near2.nested import DimSet

TINY = [
    "--dims", "16,8,4", "--buckets", "128", "--feature-dim", "8",
    "--epochs", "1", "--batch", "4", "--lr", "0.02",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> train -> index once; many tests read from it."""
    root = tmp_path_factory.mktemp("cliws")
    data = root / "data"
    assert main([
        "synth", "--seed", "42", "--queries", "20", "--titles-per-query", "6",
        "--categories", "4", "--out", str(data),
    ]) == 0
    model = root / "model.bin"
    assert main([
        "train", "--data", str(data / "train.jsonl"), "--seed", "7",
        "--out", str(model), "--history", str(root / "history.jsonl"), *TINY,
    ]) == 0
    index = root / "corpus.idx"
    assert main([
        "index", "--model", str(model), "--titles", str(data / "test.jsonl"),
        "--out", str(index),
    ]) == 0
    return {"root": root, "data": data, "model": model, "index": index}


def test_synth_then_train_happy_path(workspace):
    assert workspace["model"].exists()
    assert (workspace["data"] / "train.jsonl").exists()
    assert (workspace["root"] / "history.jsonl").exists()


def test_unknown_flag_exits_one(capsys):
    assert main(["train", "--bogus-flag", "1"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_no_command_exits_one(capsys):
    assert main([]) == 1


def test_search_columns_and_normalized_scores(workspace, capsys):
    code = main([
        "search", "--index", str(workspace["index"]), "--model", str(workspace["model"]),
        "--query", "plants", "--dim", "8", "--k", "5",
    ])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split("\t") == ["rank", "doc_id", "title", "score", "score_norm"]
    rows = [line.split("\t") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
    norms = [float(r[4]) for r in rows]
    scores = [float(r[3]) for r in rows]
    assert all(n >= 0 for n in norms)
    assert scores == sorted(scores, reverse=True)
    # min-normalization preserves gaps between the displayed scores
    assert norms[0] - norms[-1] == pytest.approx(scores[0] - scores[-1], abs=1e-12)


def test_search_invalid_dim_exits_one_naming_valid_dims(workspace, capsys):
    code = main([
        "search", "--index", str(workspace["index"]), "--model", str(workspace["model"]),
        "--query", "plants", "--dim", "100", "--k", "3",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "100" in err and "16" in err and "8" in err and "4" in err


def test_search_funnel(workspace, capsys):
    code = main([
        "search", "--index", str(workspace["index"]), "--model", str(workspace["model"]),
        "--query", "plants", "--funnel", "4:16", "--shortlist", "10", "--k", "3",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) >= 2


def test_search_funnel_rows_are_api_hits_normalized_to_shortlist_min(workspace, capsys):
    code = main([
        "search", "--index", str(workspace["index"]), "--model", str(workspace["model"]),
        "--query", "plants", "--funnel", "4:16", "--shortlist", "10", "--k", "3",
    ])
    assert code == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.strip().split("\n")[1:]]
    index = load_index(workspace["index"])
    query = encode(load_model(workspace["model"]), "plants")
    hits = search_funnel(index, query, 4, 16, 10, 3)
    shortlist_min = min(h.score for h in search_funnel(index, query, 4, 16, 10, 10))
    assert [(r[1], float(r[3])) for r in rows] == [(h.doc_id, h.score) for h in hits]
    assert [float(r[4]) for r in rows] == [h.score - shortlist_min for h in hits]


def test_tab_or_line_break_in_a_title_is_reported_and_search_keeps_five_fields(
    workspace, tmp_path, capsys
):
    record = {"qid": "q", "query": "red plant", "grade": 4}
    lines = [
        {**record, "title_id": "t1", "title": "red plant pot"},
        {**record, "title_id": "t2", "title": "red\tplant pot\nsecond line"},
        {**record, "title_id": "t\t3", "title": "red plant saucer"},
        {**record, "title_id": "t4", "title": "red plant stand"},
    ]
    titles = tmp_path / "titles.jsonl"
    titles.write_text("".join(json.dumps(line) + "\n" for line in lines))
    index = tmp_path / "corpus.idx"
    assert main(["index", "--model", str(workspace["model"]), "--titles", str(titles),
                 "--out", str(index)]) == 0
    err = capsys.readouterr().err
    assert "titles line 2: tab or line break in title" in err
    assert "titles line 3: tab or line break in title_id" in err
    assert list(load_index(index).ids) == ["t1", "t4"]
    for flags in (["--dim", "8"], ["--funnel", "4:16"]):
        assert main(["search", "--index", str(index), "--model", str(workspace["model"]),
                     "--query", "red plant", "--k", "5", *flags]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 3
        assert all(len(line.split("\t")) == 5 for line in out.splitlines())


def _cli(*argv, env=None):
    """Run the CLI in a fresh interpreter, as a user would, with `env` added
    to the environment."""
    env = {**os.environ, **(env or {}), "PYTHONPATH": str(Path(near2.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "near2.cli", *argv], capture_output=True, text=True, env=env
    )


def test_train_is_bit_reproducible_across_blas_thread_counts(workspace, tmp_path):
    # a 4096 x 32 table: its gradient has 131,072 entries, far above the
    # 10,000 from which OpenBLAS splits a dot product across threads
    runs = []
    for threads in ("1", "2"):
        model, history = tmp_path / f"model-{threads}.bin", tmp_path / f"history-{threads}.jsonl"
        proc = _cli("train", "--data", str(workspace["data"] / "train.jsonl"), "--seed", "7",
                    "--out", str(model), "--history", str(history), *TINY,
                    "--buckets", "4096", "--feature-dim", "32",
                    env={"OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        # the header records the output paths, so compare the step rows
        steps = [(row["loss"], row["grad_norm"], row["clip"])
                 for row in map(json.loads, history.read_text().splitlines())
                 if row["kind"] == "step"]
        runs.append((steps, model.read_bytes()))
    assert len(runs[0][0]) > 2 and any(clip < 1.0 for _, _, clip in runs[0][0])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("argv", [
    ["search", "--k", "0"],
    ["search", "--funnel", "4:16", "--shortlist", "2", "--k", "3"],
    ["search", "--funnel", "16:4"],
    ["synth", "--queries", "0"],
], ids=["k0", "shortlist-below-k", "funnel-low-above-high", "synth-queries0"])
def test_bad_arguments_exit_one_without_traceback(workspace, tmp_path, argv):
    if argv[0] == "search":
        argv = [*argv, "--index", str(workspace["index"]), "--model", str(workspace["model"]),
                "--query", "plants"]
    else:
        argv = [*argv, "--out", str(tmp_path / "synth")]
    proc = _cli(*argv)
    assert proc.returncode == 1
    assert "usage" in proc.stderr.lower()
    assert "Traceback" not in proc.stderr


def _base_args(command, workspace, tmp_path):
    """Flags a run of `command` needs; every output path starts with "out"."""
    tiny = dict(zip(TINY[::2], TINY[1::2]))
    test = workspace["data"] / "test.jsonl"
    return {
        "train": {"--data": workspace["data"] / "train.jsonl", "--out": tmp_path / "out.bin", **tiny},
        "ablate": {"--data": workspace["data"], "--report": tmp_path / "out.json", **tiny},
        "eval": {"--model": workspace["model"], "--test": test, "--report": tmp_path / "out.json"},
        "hist": {"--model": workspace["model"], "--test": test, "--out": tmp_path / "out.csv"},
        "search": {"--index": workspace["index"], "--model": workspace["model"], "--query": "plants"},
    }[command]


BAD_VALUES = [
    ("train", "lr", -1), ("train", "margin", 5), ("train", "margin_c", 0),
    ("train", "buckets", 0), ("train", "feature_dim", 0), ("train", "batch", 0),
    ("train", "epochs", -1), ("ablate", "lr", -1), ("eval", "ks", 0),
    ("eval", "dims", "16,8,5"), ("hist", "bins", 0), ("train", "lr", "fast"),
    ("train", "schedule", "bogus"), ("eval", "corpus_cap", "lots"), ("search", "k", "ten"),
    ("hist", "bins", "ten"), ("train", "lambda_ocl", -1), ("ablate", "lambda_ocl", -1),
    ("search", "dim", 0), ("hist", "dim", 0), ("train", "buckets", 2**32),
]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, name, value", BAD_VALUES,
                         ids=[f"{c}-{n}={v}" for c, n, v in BAD_VALUES])
def test_bad_value_exits_one_before_writing(workspace, tmp_path, capsys, command, name, value,
                                            source):
    flag = "--" + name.replace("_", "-")
    args = {k: v for k, v in _base_args(command, workspace, tmp_path).items() if k != flag}
    if source == "flag":
        args[flag] = value
    else:
        config = tmp_path / "near2.json"
        config.write_text(json.dumps({name: value}))
        args["--config"] = config
    code = main([command, *(str(x) for item in args.items() for x in item)])
    captured = capsys.readouterr()
    assert code == 1
    assert "usage" in captured.err.lower()
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not list(tmp_path.glob("out*"))


def test_bad_value_message_names_option_and_source(workspace, tmp_path, capsys):
    argv = ["search", *(str(x) for item in _base_args("search", workspace, tmp_path).items()
                        for x in item)]
    assert main([*argv, "--k", "ten"]) == 1
    assert "bad --k value 'ten': expected an integer" in capsys.readouterr().err
    config = tmp_path / "near2.json"
    config.write_text(json.dumps({"k": 0, "not_an_option": [1]}))  # unknown keys are ignored
    assert main([*argv, "--config", str(config)]) == 1
    assert "bad config key 'k' value 0: must be >= 1" in capsys.readouterr().err


def test_empty_list_value_exits_one(workspace, tmp_path, capsys):
    args = _base_args("eval", workspace, tmp_path)
    assert main(["eval", *(str(x) for item in args.items() for x in item), "--ks", ""]) == 1
    assert "bad --ks value '': expected at least one value" in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


FLAGS = {
    "synth": "seed queries titles-per-query categories alphanum-fraction "
             "shared-substring-fraction out",
    "train": "data valid dims batch epochs lr margin margin-c lambda-ocl schedule seed out "
             "history buckets feature-dim corpus-cap",
    "index": "model titles out",
    "search": "index model query dim k funnel shortlist",
    "eval": "model test dims ks corpus-cap report baseline delta-out seed graded",
    "ablate": "data schedules seed report csv dims batch epochs lr margin margin-c lambda-ocl "
              "buckets feature-dim corpus-cap",
    "hist": "model test bins out dim corpus-cap seed",
}


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_subcommand_flag_set(command):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {s for action in sub.choices[command]._actions for s in action.option_strings}
    assert flags == {"-h", "--help", "--config", *("--" + f for f in FLAGS[command].split())}


def test_run_builds_only_the_named_subparser(workspace, monkeypatch, capsys):
    built = []

    def recording_build_parser(only=None):
        built.append(only)
        return build_parser(only)

    monkeypatch.setattr(cli, "build_parser", recording_build_parser)
    assert main(["search", "--index", str(workspace["index"]), "--model",
                 str(workspace["model"]), "--query", "plants"]) == 0
    assert main(["bogus"]) == 1
    assert "invalid choice: 'bogus' (choose from 'synth', 'train'" in capsys.readouterr().err
    assert built == ["search", None]


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_one_command_parser_has_the_full_parsers_usage_and_flags(command):
    def subparser(parser):
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return sub.choices[command]

    full, one = build_parser(), build_parser(command)
    assert one.format_usage() == full.format_usage()
    assert subparser(one).format_help() == subparser(full).format_help()


def test_top_level_help_lists_every_command(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert all(command in out for command in FLAGS)


def _non_finite_model(workspace, tmp_path):
    model = load_model(workspace["model"])
    model.projection[0, 0] = float("nan")
    save_model(model, tmp_path / "nan.bin")
    return tmp_path / "nan.bin"


def _non_utf8_index(workspace, tmp_path):
    index = load_index(workspace["index"])
    data = bytearray(workspace["index"].read_bytes())
    data[section_named(index_sections(index.count, index.dims), "id").offset] = 0xFF  # first id byte
    (tmp_path / "bad-id.idx").write_bytes(bytes(data))
    return tmp_path / "bad-id.idx"


@pytest.mark.parametrize("command, flag, bad_file", [
    ("search", "--index", lambda ws, tmp: tmp),
    ("search", "--model", lambda ws, tmp: tmp),
    ("train", "--data", lambda ws, tmp: tmp),
    ("train", "--out", lambda ws, tmp: tmp),
    ("eval", "--report", lambda ws, tmp: tmp),
    ("search", "--model", _non_finite_model),
    ("search", "--index", _non_utf8_index),
], ids=["index-dir", "model-dir", "train-data-dir", "train-out-dir", "eval-report-dir",
        "non-finite-model", "non-utf8-index"])
def test_bad_files_exit_two_without_traceback(workspace, tmp_path, command, flag, bad_file):
    args = {
        "search": {"--index": workspace["index"], "--model": workspace["model"], "--query": "plants"},
        "train": {"--data": workspace["data"] / "train.jsonl", "--out": tmp_path / "m.bin",
                  **dict(zip(TINY[::2], TINY[1::2]))},
        "eval": {"--model": workspace["model"], "--test": workspace["data"] / "test.jsonl",
                 "--dims": "16", "--report": tmp_path / "r.json"},
    }[command]
    args[flag] = bad_file(workspace, tmp_path)
    proc = _cli(command, *(str(x) for item in args.items() for x in item))
    assert proc.returncode == 2
    assert "data error" in proc.stderr
    assert "Traceback" not in proc.stderr


def _zero_bucket_model(workspace, tmp_path):
    """The workspace model's file with a header declaring 0 buckets and no table rows."""
    model = load_model(workspace["model"])
    data = workspace["model"].read_bytes()
    _, table_at, table_length = section_named(model_sections(model), "feature table")
    path = tmp_path / "zero-buckets.bin"
    path.write_bytes(
        data[:12] + (0).to_bytes(4, "little") + data[16:table_at] + data[table_at + table_length :]
    )
    return path


@pytest.mark.parametrize("command", ["index", "eval", "search"])
def test_zero_bucket_model_exits_two_without_traceback(workspace, tmp_path, command):
    model = _zero_bucket_model(workspace, tmp_path)
    test = workspace["data"] / "test.jsonl"
    argv = {
        "index": ["--titles", test, "--out", tmp_path / "out.idx"],
        "eval": ["--test", test, "--report", tmp_path / "out.json"],
        "search": ["--index", workspace["index"], "--query", "plants"],
    }[command]
    proc = _cli(command, "--model", str(model), *(str(x) for x in argv))
    assert proc.returncode == 2
    assert "data error" in proc.stderr and "bucket_count must be in [1," in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("command", ["train", "ablate", "eval", "hist"])
def test_corpus_cap_below_one_exits_one_before_any_work(workspace, tmp_path, capsys, monkeypatch,
                                                        command, cap):
    calls = []
    monkeypatch.setattr(trainer, "adamw_step", lambda *a: calls.append("adamw_step"))
    monkeypatch.setattr(metrics, "build_index", lambda *a: calls.append("build_index"))
    args = _base_args(command, workspace, tmp_path)
    if command == "train":
        args["--valid"] = workspace["data"] / "valid.jsonl"
    args["--corpus-cap"] = cap
    code = main([command, *(str(x) for item in args.items() for x in item)])
    err = capsys.readouterr().err
    assert code == 1
    assert "corpus_cap must be >= 1" in err or "bad --corpus-cap value" in err
    assert "Traceback" not in err
    assert calls == []
    assert not list(tmp_path.glob("out*"))


def test_model_with_bad_dims_exits_two_without_traceback(workspace, tmp_path):
    path = tmp_path / "bad-dims.bin"
    save_model(load_model(workspace["model"]), path)
    data = bytearray(path.read_bytes())
    data[8 + 16 + 2 : 8 + 16 + 2 + 4] = (4).to_bytes(4, "little")  # dims 4, 8, 4
    path.write_bytes(bytes(data))
    proc = _cli("search", "--index", str(workspace["index"]), "--model", str(path),
                "--query", "plants")
    assert proc.returncode == 2
    assert "bad dimension list" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("dims", [(32, 16), (16, 12, 4)], ids=["other-full-dim", "other-cuts"])
def test_model_with_other_dims_than_the_index_exits_two(workspace, tmp_path, dims):
    path = tmp_path / "other-dims.bin"
    save_model(EncoderModel.create(bucket_count=128, feature_dim=8, dims=DimSet(dims)), path)
    proc = _cli("search", "--index", str(workspace["index"]), "--model", str(path),
                "--query", "plants", "--dim", "16")
    assert proc.returncode == 2
    assert f"model dims {list(dims)} differ from the index's [16, 8, 4]" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


# `half(what)` is the offset halfway through the named section of the file
@pytest.mark.parametrize("flag, edit, message", [
    ("--model", lambda data, half: b"", "model file truncated while reading magic"),
    ("--model", lambda data, half: data[: half("seed")], "model file truncated while reading seed"),
    ("--model", lambda data, half: data[: half("feature table")],
     "model file truncated while reading feature table"),
    ("--model", lambda data, half: data[: half("projection")],
     "model file truncated while reading projection"),
    ("--model", lambda data, half: data + b"x", "trailing bytes after model parameters"),
    ("--index", lambda data, half: b"", "index file truncated while reading magic"),
    ("--index", lambda data, half: data[: half("header")],
     "index file truncated while reading header"),
    ("--index", lambda data, half: data[: half("dims")], "index file truncated while reading dims"),
    ("--index", lambda data, half: data[: half("norm table")],
     "index file truncated while reading norm table"),
    ("--index", lambda data, half: data[: half("vector bands")],
     "index file truncated while reading vector bands"),
    ("--index", lambda data, half: data[: half("doc table offsets")],
     "index file truncated while reading doc table offsets"),
    ("--index", lambda data, half: data + b"\x00", "trailing bytes after doc table"),
], ids=["model-empty", "model-cut-in-seed", "model-cut-in-table", "model-cut-in-projection",
        "model-trailing-byte", "index-empty", "index-cut-in-header", "index-cut-in-dims",
        "index-cut-in-norms", "index-cut-in-band", "index-cut-in-offsets", "index-trailing-byte"])
def test_cut_or_extended_file_exits_two_naming_the_field(workspace, tmp_path, capsys,
                                                         flag, edit, message):
    files = {"--model": workspace["model"], "--index": workspace["index"]}
    sections = (model_sections(load_model(files[flag])) if flag == "--model"
                else index_sections_of(load_index(files[flag])))

    def half(what):
        _, offset, length = section_named(sections, what)
        return offset + length // 2

    path = tmp_path / "bad"
    path.write_bytes(edit(files[flag].read_bytes(), half))
    files[flag] = path
    code = main(["search", "--query", "plants", *(str(x) for item in files.items() for x in item)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"near2: data error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("flags", [["--dim", "4"], ["--funnel", "4:16"]], ids=["dim", "funnel"])
def test_zero_row_index_exits_two_with_one_line(workspace, tmp_path, flags):
    path = tmp_path / "empty.idx"
    path.write_bytes(zero_row_index_file(DimSet((16, 8, 4))))
    proc = _cli("search", "--index", str(path), "--model", str(workspace["model"]),
                "--query", "plants", *flags)
    assert proc.returncode == 2
    assert proc.stderr == "near2: data error: index file holds no rows\n"
    assert proc.stdout == ""


def test_version_1_index_exits_two_naming_near2_index(workspace, tmp_path):
    data = bytearray(workspace["index"].read_bytes())
    data[8:12] = (1).to_bytes(4, "little")  # the version field
    path = tmp_path / "v1.idx"
    path.write_bytes(bytes(data))
    proc = _cli("search", "--index", str(path), "--model", str(workspace["model"]),
                "--query", "plants")
    assert proc.returncode == 2
    assert "version 1" in proc.stderr and "near2 index" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_version_3_index_exits_two_naming_near2_index(workspace, tmp_path):
    data = bytearray(workspace["index"].read_bytes())
    data[8:12] = (3).to_bytes(4, "little")  # the version field
    path = tmp_path / "v3.idx"
    path.write_bytes(bytes(data))
    proc = _cli("search", "--index", str(path), "--model", str(workspace["model"]),
                "--query", "plants")
    assert proc.returncode == 2
    assert proc.stderr == (
        "near2: data error: unsupported index version 3; "
        "re-run `near2 index` to rebuild it in the current format\n"
    )
    assert proc.stdout == ""


@pytest.mark.parametrize("section", [0, 1, 2, 3], ids=["norms", "band0", "band1", "band2"])
def test_nan_in_index_section_exits_two_without_traceback(workspace, tmp_path, section):
    index = load_index(workspace["index"])
    vectors = [s for s in index_sections(index.count, index.dims)
               if s.what in ("norm table", "vector bands")]
    offset = vectors[section].offset
    data = bytearray(workspace["index"].read_bytes())
    # two float32 NaNs, which read as float64 are one NaN
    data[offset : offset + 8] = b"\x00\x00\xc0\x7f\x00\x00\xf8\x7f"
    path = tmp_path / "nan.idx"
    path.write_bytes(bytes(data))
    proc = _cli("search", "--index", str(path), "--model", str(workspace["model"]),
                "--query", "plants")
    assert proc.returncode == 2
    assert "data error" in proc.stderr
    assert "Traceback" not in proc.stderr


def _corrupt_table_rows(workspace, tmp_path):
    """A copy of the workspace model's file whose table row `nan` (which
    "plants" gathers) is all NaN and row `inf` (which "garden" gathers) all
    +-inf, patched at their byte offsets; the query "zz" gathers neither."""
    model = load_model(workspace["model"])
    bag = {word: set(tokenize(word, model.bucket_count).ids.tolist())
           for word in ("plants", "garden", "zz")}
    nan_row = min(bag["plants"] - bag["garden"] - bag["zz"])
    inf_row = min(bag["garden"] - bag["plants"] - bag["zz"])
    table_at = section_named(model_sections(model), "feature table").offset
    data = bytearray(workspace["model"].read_bytes())
    for row, values in ((nan_row, [np.nan]), (inf_row, [np.inf, -np.inf])):
        at = table_at + 4 * model.feature_dim * row
        data[at : at + 4 * model.feature_dim] = np.resize(
            np.array(values, "<f4"), model.feature_dim).tobytes()
    path = tmp_path / "corrupt-rows.bin"
    path.write_bytes(bytes(data))
    return path, nan_row, inf_row


@pytest.mark.parametrize("query, bad_row", [("plants", "nan"), ("garden", "inf")])
def test_search_gathering_a_corrupt_table_row_exits_two_naming_the_model(workspace, tmp_path,
                                                                          query, bad_row):
    path, nan_row, inf_row = _corrupt_table_rows(workspace, tmp_path)
    row = {"nan": nan_row, "inf": inf_row}[bad_row]
    proc = _cli("search", "--index", str(workspace["index"]), "--model", str(path),
                "--query", query)
    assert proc.returncode == 2
    assert proc.stderr == (
        f"near2: data error: model file {path} has non-finite feature table row {row}\n")
    assert proc.stdout == ""


@pytest.mark.parametrize("flags", [["--dim", "8"], ["--funnel", "4:16"]], ids=["exact", "funnel"])
def test_search_missing_the_corrupt_table_rows_prints_the_clean_models_hits(workspace, tmp_path,
                                                                            capsys, flags):
    path, _, _ = _corrupt_table_rows(workspace, tmp_path)
    out = {}
    for model in (workspace["model"], path):
        assert main(["search", "--index", str(workspace["index"]), "--model", str(model),
                     "--query", "zz", *flags]) == 0
        out[model] = capsys.readouterr()
    assert out[path].err == ""
    assert out[path].out == out[workspace["model"]].out
    assert out[path].out.count("\n") > 1


@pytest.mark.parametrize("flags", [["--dim", "8"], ["--funnel", "4:16"]], ids=["exact", "funnel"])
def test_search_releases_the_model_before_the_scan(workspace, monkeypatch, flags):
    """So the mapped table's pages are not resident while the scan maps the index's."""
    models, alive_at_scan = [], []

    def load(path):
        model = load_model(path)
        models.append(weakref.ref(model))
        return model

    def scan(search):
        def run(*args):
            alive_at_scan.append(models[0]() is not None)
            return search(*args)
        return run

    monkeypatch.setattr(cli, "load_model", load)
    monkeypatch.setattr(cli, "search_exact_with_min", scan(cli.search_exact_with_min))
    monkeypatch.setattr(cli, "search_funnel", scan(cli.search_funnel))
    assert main(["search", "--index", str(workspace["index"]), "--model", str(workspace["model"]),
                 "--query", "plants", *flags]) == 0
    assert alive_at_scan == [False]


@pytest.mark.parametrize("command", ["index", "eval", "hist"])
def test_titles_gathering_a_corrupt_table_row_exit_two_writing_nothing(workspace, tmp_path,
                                                                       command):
    path, nan_row, inf_row = _corrupt_table_rows(workspace, tmp_path)
    test = workspace["data"] / "test.jsonl"
    titles = [title for _, title in distinct_titles(load_records(test)[0])]
    gathered = {int(i) for bag in tokenize_many(titles, 128) for i in bag.ids}
    assert {nan_row, inf_row} <= gathered
    argv = {
        "index": ["--titles", test, "--out", tmp_path / "out.idx"],
        "eval": ["--test", test, "--report", tmp_path / "out.json"],
        "hist": ["--test", test, "--out", tmp_path / "out.csv"],
    }[command]
    proc = _cli(command, "--model", str(path), *(str(x) for x in argv))
    assert proc.returncode == 2
    assert re.fullmatch(
        f"near2: data error: model file {re.escape(str(path))} has non-finite feature table "
        f"row ({nan_row}|{inf_row})\n", proc.stderr
    ), proc.stderr
    assert not list(tmp_path.glob("out*"))


def test_eval_report_embeds_config(workspace):
    report_path = workspace["root"] / "report.json"
    code = main([
        "eval", "--model", str(workspace["model"]), "--test",
        str(workspace["data"] / "test.jsonl"), "--dims", "16,8",
        "--ks", "3,5", "--report", str(report_path),
    ])
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["command"] == "eval"
    assert payload["config"]["dims"] == [16, 8]
    assert payload["config"]["ks"] == [3, 5]
    assert "report" in payload and "metrics" in payload["report"]


def test_eval_defaults_to_the_models_dims(workspace, tmp_path):
    args = ["eval", "--model", str(workspace["model"]), "--test",
            str(workspace["data"] / "test.jsonl"), "--ks", "3"]
    default, explicit = tmp_path / "default.json", tmp_path / "explicit.json"
    assert main([*args, "--report", str(default)]) == 0
    assert main([*args, "--dims", "16,8,4", "--report", str(explicit)]) == 0
    payloads = [json.loads(path.read_text()) for path in (default, explicit)]
    assert payloads[0]["config"]["dims"] == [16, 8, 4]
    for payload in payloads:
        del payload["config"]["report"]
    assert payloads[0] == payloads[1]


def test_eval_checks_dims_before_building_the_index(workspace, tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(metrics, "build_index", lambda *a: calls.append(a))
    code = main(["eval", "--model", str(workspace["model"]), "--test",
                 str(workspace["data"] / "test.jsonl"), "--dims", "16,5",
                 "--report", str(tmp_path / "out.json")])
    assert code == 1
    assert "dimension 5 is not in the nested set [16, 8, 4]" in capsys.readouterr().err
    assert calls == []


def test_eval_repeat_is_byte_identical(workspace):
    path = workspace["root"] / "rep_repeat.json"
    args = [
        "eval", "--model", str(workspace["model"]), "--test",
        str(workspace["data"] / "test.jsonl"), "--dims", "16,8",
        "--ks", "3", "--report", str(path),
    ]
    assert main(args) == 0
    first = path.read_bytes()
    assert main(args) == 0
    assert path.read_bytes() == first


def test_eval_delta_against_baseline(workspace):
    base = workspace["root"] / "base.json"
    cand = workspace["root"] / "cand.json"
    args = [
        "eval", "--model", str(workspace["model"]), "--test",
        str(workspace["data"] / "test.jsonl"), "--dims", "16", "--ks", "3",
    ]
    assert main(args + ["--report", str(base)]) == 0
    delta_path = workspace["root"] / "delta.csv"
    assert main(args + ["--report", str(cand), "--baseline", str(base),
                        "--delta-out", str(delta_path)]) == 0
    text = delta_path.read_text()
    assert text.startswith("# near2 ")
    assert "+0.00%" in text  # identical model vs itself


def test_eval_duplicate_ks_count_once(workspace, tmp_path):
    args = ["eval", "--model", str(workspace["model"]), "--test",
            str(workspace["data"] / "test.jsonl"), "--dims", "16,8"]
    dup, plain = tmp_path / "dup.json", tmp_path / "plain.json"
    assert main(args + ["--ks", "5,5,3", "--report", str(dup)]) == 0
    assert main(args + ["--ks", "3,5", "--report", str(plain)]) == 0
    report = json.loads(dup.read_text())["report"]
    assert report["ks"] == [3, 5]
    assert report == json.loads(plain.read_text())["report"]
    # and it serves as the baseline of a run without the duplicate
    assert main(args + ["--ks", "3,5", "--report", str(tmp_path / "cand.json"),
                        "--baseline", str(dup)]) == 0


def _break_report(report, fault):
    if fault == "report-list":
        return []
    if fault == "cell-without-ndcg":
        del report["metrics"]["16"]["3"]["ndcg"]
    elif fault == "dims-not-integers":
        report["dims"] = ["x"]
    elif fault == "cell-value-not-a-number":
        report["metrics"]["16"]["3"]["ndcg"] = "high"
    elif fault == "other-grid":
        report["ks"], report["metrics"]["16"] = [5], {"5": report["metrics"]["16"]["3"]}
    return report


@pytest.mark.parametrize("fault", [
    "report-list", "cell-without-ndcg", "dims-not-integers", "cell-value-not-a-number",
    "other-grid",
])
def test_malformed_baseline_exits_two_before_writing(workspace, tmp_path, capsys, fault):
    args = [
        "eval", "--model", str(workspace["model"]), "--test",
        str(workspace["data"] / "test.jsonl"), "--dims", "16", "--ks", "3",
    ]
    good = tmp_path / "good.json"
    assert main(args + ["--report", str(good)]) == 0
    document = json.loads(good.read_text())
    document["report"] = _break_report(document["report"], fault)
    base = tmp_path / "base.json"
    base.write_text(json.dumps(document))
    capsys.readouterr()
    code = main(args + ["--report", str(tmp_path / "out.json"), "--baseline", str(base)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("near2: data error: ")
    assert str(base) in captured.err and captured.err.count("\n") == 1
    assert captured.out == ""
    assert sorted(path.name for path in tmp_path.iterdir()) == ["base.json", "good.json"]


def test_featureless_training_title_exits_two_naming_the_record(workspace, tmp_path, capsys):
    lines = (workspace["data"] / "train.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    record = next(r for r in records if r["grade"] > 3)
    record["title"] = "!!! ---"
    data = tmp_path / "train.jsonl"
    data.write_text("".join(json.dumps(r) + "\n" for r in records))
    code = main(["train", "--data", str(data), "--out", str(tmp_path / "m.bin"), *TINY])
    err = capsys.readouterr().err
    assert code == 2
    assert err == (
        "near2: data error: 1 training record(s) a loss reads have a query or title without "
        f"features, the first qid {record['qid']!r} title id {record['title_id']!r} "
        f"({record['query']!r} / '!!! ---')\n"
    )
    assert not (tmp_path / "m.bin").exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_diverging_training_exits_three_naming_the_step(workspace, tmp_path, capsys, command):
    argv = {
        "train": ["--data", workspace["data"] / "train.jsonl", "--out", tmp_path / "m.bin"],
        "ablate": ["--data", workspace["data"], "--report", tmp_path / "r.json"],
    }[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the error line is all stderr gets
        code = main([command, *(str(x) for x in argv), *TINY, "--lr", "1e300"])
    err = capsys.readouterr().err
    assert code == 3
    assert re.fullmatch(
        r"near2: numerical failure: phase '[^']+', epoch 1, step \d+ of \d+: "
        r"projection Gram overflows float64\n", err
    ), err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flags, message", [
    # parameters finite in float64 but not as the saved model's float32
    ([*TINY, "--lr", "1e10"],
     r"trained 'feature_table' reaches \S+, beyond float32's range; no model is saved"),
    # at the CLI defaults, prefix norms overflow float64 before any entry does
    (["--epochs", "1", "--lr", "1e100"],
     r"phase '[^']+', epoch 1, step \d+ of \d+: (\d+)-prefix norm overflows float64 in batch "
     r"while composing nested dimension m=\1"),
])
def test_training_beyond_float_range_exits_three_writing_nothing(workspace, tmp_path, capsys,
                                                                  flags, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the error line is all stderr gets
        code = main(["train", "--data", str(workspace["data"] / "train.jsonl"),
                     "--out", str(tmp_path / "m.bin"), *flags])
    err = capsys.readouterr().err
    assert code == 3
    assert re.fullmatch(f"near2: numerical failure: {message}\n", err), err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["index", "eval", "hist"])
def test_model_overflowing_float32_exits_three_writing_nothing(workspace, tmp_path, capsys,
                                                               command):
    # finite float32 parameters whose embeddings (about 8 x 9e76) are finite
    # in float64 but not as the index's float32
    model = load_model(workspace["model"])
    huge = tmp_path / "huge.bin"
    save_model(replace(model, feature_table=np.full_like(model.feature_table, 3e38),
                       projection=np.full_like(model.projection, 3e38)), huge)
    test = workspace["data"] / "test.jsonl"
    argv = {
        "index": ["--titles", test, "--out", tmp_path / "out.idx"],
        "eval": ["--test", test, "--report", tmp_path / "out.json"],
        "hist": ["--test", test, "--out", tmp_path / "out.csv"],
    }[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([command, "--model", str(huge), *(str(x) for x in argv)])
    err = capsys.readouterr().err
    assert code == 3
    assert re.fullmatch(
        r"near2: numerical failure: (\d+) of \1 index rows are not finite as float32\n", err
    ), err
    assert not list(tmp_path.glob("out*"))


def test_missing_data_file_exits_two(workspace):
    assert main([
        "eval", "--model", str(workspace["model"]), "--test", "/nonexistent.jsonl",
        "--dims", "16", "--report", str(workspace["root"] / "x.json"),
    ]) == 2


def test_corrupt_model_exits_two(workspace, tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"garbage")
    assert main([
        "search", "--index", str(workspace["index"]), "--model", str(bad),
        "--query", "x", "--dim", "8",
    ]) == 2


def test_hist_csv(workspace):
    out = workspace["root"] / "hist.csv"
    code = main([
        "hist", "--model", str(workspace["model"]), "--test",
        str(workspace["data"] / "test.jsonl"), "--bins", "10", "--out", str(out),
        "--dim", "8",
    ])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("# near2 ")
    assert lines[1] == "bin_low,bin_high,count"
    assert len(lines) == 12
    total = sum(int(line.rsplit(",", 1)[1]) for line in lines[2:])
    assert total > 0


def _zero_prefix_hist_set(tmp_path, queries):
    """A model under which "eel" alone has a zero 2-prefix, saved, and a judged
    set of the given queries, each with two relevant titles."""
    table = np.ones((64, 2))
    table[tokenize("eel", 64).ids, 0] = 0.0
    projection = np.zeros((2, 6))
    projection[0] = [1, 2, 0, 1, 2, 1]
    projection[1, 2:] = [1, -1, 2, 1]
    save_model(EncoderModel(64, 2, DimSet((6, 4, 2)), 0, table, projection), tmp_path / "m.bin")
    records = [RelevanceRecord(f"q{qi}", query, f"t{qi}_{ti}", title, 5)
               for qi, query in enumerate(queries)
               for ti, title in enumerate((query, "ant cat"))]
    write_records(records, tmp_path / "test.jsonl")
    return ["--model", str(tmp_path / "m.bin"), "--test", str(tmp_path / "test.jsonl")]


@pytest.mark.parametrize("dim, skipped", [("6", 0), ("2", 2)])
def test_hist_skips_queries_with_a_zero_prefix_as_eval_does(tmp_path, capsys, dim, skipped):
    common = _zero_prefix_hist_set(tmp_path, ["ant bee", "eel", "cat", "eel"])
    assert main(["hist", *common, "--dim", dim, "--out", str(tmp_path / "h.csv")]) == 0
    err = capsys.readouterr().err.splitlines()
    skip_lines = [line for line in err if "skipped" in line]
    assert skip_lines == ([f"near2: skipped {skipped} judged queries with a zero-norm {dim}-prefix"]
                          if skipped else [])
    counts = [int(line.rsplit(",", 1)[1])
              for line in (tmp_path / "h.csv").read_text().splitlines()[2:]]
    assert sum(counts) > 0
    assert main(["eval", *common, "--dims", dim, "--report", str(tmp_path / "r.json")]) == 0


def test_hist_with_only_zero_prefix_queries_exits_two(tmp_path, capsys):
    common = _zero_prefix_hist_set(tmp_path, ["eel", "eel"])
    code = main(["hist", *common, "--dim", "2", "--out", str(tmp_path / "out.csv")])
    assert code == 2
    assert capsys.readouterr().err == (
        "near2: data error: every judged query has a zero-norm 2-prefix\n")
    assert not list(tmp_path.glob("out*"))


def test_ablate_produces_four_row_table(workspace):
    report = workspace["root"] / "ablation.json"
    code = main([
        "ablate", "--data", str(workspace["data"]), "--seed", "3",
        "--report", str(report), *TINY,
    ])
    assert code == 0
    payload = json.loads(report.read_text())
    assert sorted(payload["ablation"]["schedules"]) == sorted(
        ["mnrl", "ocl", "mnrl+ocl", "mrl-first"]
    )
    csv_lines = (workspace["root"] / "ablation.json.csv").read_text().strip().split("\n")
    assert len(csv_lines) == 6  # header comment + column header + 4 schedules


def test_config_file_defaults_and_flag_precedence(workspace, tmp_path):
    config = tmp_path / "near2.json"
    config.write_text(json.dumps({"dims": "16,8", "ks": "3", "seed": 5}))
    report = tmp_path / "rep.json"
    assert main([
        "eval", "--config", str(config), "--model", str(workspace["model"]),
        "--test", str(workspace["data"] / "test.jsonl"), "--report", str(report),
        "--ks", "5",
    ]) == 0
    payload = json.loads(report.read_text())
    assert payload["config"]["dims"] == [16, 8]  # from config file
    assert payload["config"]["ks"] == [5]  # flag wins
    assert payload["config"]["seed"] == 5


def test_synth_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["synth", "--seed", "11", "--queries", "10", "--out", str(out)]) == 0
    assert (a / "train.jsonl").read_bytes() == (b / "train.jsonl").read_bytes()
    assert (a / "test.jsonl").read_bytes() == (b / "test.jsonl").read_bytes()


def test_version_flag():
    assert main(["--version"]) == 0


# --- text that is not UTF-8, and other input the exit contract must survive ------


def _records_with_bad_text(workspace, path):
    """workspace's test records, one title given a raw 0xFF byte and one
    query an encoded surrogate (bytes ED A0 80; in JSONL a \\ud800 escape),
    as JSONL or TSV by `path`'s suffix; (path, the two bad line numbers)."""
    records = load_records(workspace["data"] / "test.jsonl")[0]
    write_records(records, path, "tsv" if path.suffix == ".tsv" else "jsonl")
    lines = path.read_bytes().splitlines()
    lines[1] = lines[1].replace(records[1].title.encode(), b"\xff" + records[1].title.encode())
    surrogate = b"\\ud800" if path.suffix == ".jsonl" else b"\xed\xa0\x80"
    lines[2] = lines[2].replace(records[2].query.encode(), surrogate + records[2].query.encode())
    path.write_bytes(b"\n".join(lines) + b"\n")
    return path, (2, 3)


@pytest.mark.parametrize("suffix", [".jsonl", ".tsv"])
@pytest.mark.parametrize("command", ["train --data", "train --valid", "index", "eval", "hist"])
def test_records_that_are_not_utf8_are_issues_naming_line_and_field(
    workspace, tmp_path, capsys, command, suffix
):
    bad, (title_line, query_line) = _records_with_bad_text(workspace, tmp_path / f"r{suffix}")
    model, out = str(workspace["model"]), str(tmp_path / "out")
    argv, what = {
        "train --data": (["train", "--data", bad, *TINY, "--epochs", "0", "--out", out], "train"),
        "train --valid": (["train", "--data", workspace["data"] / "train.jsonl", "--valid", bad,
                           *TINY, "--epochs", "0", "--out", out], "valid"),
        "index": (["index", "--model", model, "--titles", bad, "--out", out], "titles"),
        "eval": (["eval", "--model", model, "--test", bad, "--report", out], "test"),
        "hist": (["hist", "--model", model, "--test", bad, "--out", out], "test"),
    }[command]
    assert main([str(a) for a in argv]) == 0
    err = capsys.readouterr().err
    assert f"near2: {what} line {title_line}: title is not valid UTF-8\n" in err
    assert f"near2: {what} line {query_line}: query is not valid UTF-8\n" in err


@pytest.mark.parametrize("content, command", [
    (b"\xff\xfe", "search"),
    (b'{"out": "x\\ud800"}', "synth"),
    (b"[" * 100_000 + b"]" * 100_000, "search"),
], ids=["undecodable", "surrogate-escape", "nested-too-deeply"])
def test_config_file_that_cannot_be_read_exits_two_naming_it(
    workspace, tmp_path, capsys, content, command
):
    config = tmp_path / "near2.json"
    config.write_bytes(content)
    argv = ["synth"] if command == "synth" else [
        "search", "--index", str(workspace["index"]), "--model", str(workspace["model"]),
        "--query", "plants",
    ]
    assert main(argv + ["--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"near2: data error: cannot read config file {config}: ")
    assert err.count("\n") == 1
    assert sorted(path.name for path in tmp_path.iterdir()) == ["near2.json"]


def test_baseline_nested_too_deeply_exits_two_before_writing(workspace, tmp_path, capsys):
    base = tmp_path / "base.json"
    base.write_bytes(b"[" * 100_000 + b"]" * 100_000)
    assert main([
        "eval", "--model", str(workspace["model"]), "--test", str(workspace["data"] / "test.jsonl"),
        "--report", str(tmp_path / "out.json"), "--baseline", str(base),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"near2: data error: cannot read baseline report {base}: ")
    assert err.count("\n") == 1
    assert sorted(path.name for path in tmp_path.iterdir()) == ["base.json"]


def test_out_of_memory_exits_two_with_one_line(workspace, tmp_path, capsys, monkeypatch):
    def allocation_fails(config):
        raise MemoryError("Unable to allocate 3.73 TiB for an array")

    monkeypatch.setattr(cli, "initial_model", allocation_fails)
    assert main([
        "train", "--data", str(workspace["data"] / "train.jsonl"),
        "--buckets", "4000000000", "--out", str(tmp_path / "m.bin"),
    ]) == 2
    captured = capsys.readouterr()
    assert captured.err == "near2: out of memory: Unable to allocate 3.73 TiB for an array\n"
    assert list(tmp_path.iterdir()) == []


TINY_MODEL = ["--buckets", "64", "--feature-dim", "4", "--dims", "8,4"]


@pytest.fixture(scope="module")
def small_workspace(tmp_path_factory):
    """A six-record set as JSONL and TSV, a tiny untrained model, its index
    and a search config, each as clean bytes to corrupt."""
    root = tmp_path_factory.mktemp("corrupt")
    records = [
        RelevanceRecord(f"q{q}", query, f"t{q}{i}", title, grade)
        for q, query in enumerate(["red plant", "desk lamp"])
        for i, (title, grade) in enumerate(
            [(f"big {query}", 5), (f"small {query} pot", 4), ("blue chair", 1)]
        )
    ]
    for suffix in ("jsonl", "tsv"):
        write_records(records, root / f"clean.{suffix}", suffix)
    model, index = root / "model.bin", root / "corpus.idx"
    assert main(["train", "--data", str(root / "clean.jsonl"), "--epochs", "0", *TINY_MODEL,
                 "--out", str(model)]) == 0
    assert main(["index", "--model", str(model), "--titles", str(root / "clean.jsonl"),
                 "--out", str(index)]) == 0
    (root / "clean.json").write_text(json.dumps({"query": "red plant", "k": 3, "dim": 4}))
    return root


def _splice(clean: bytes, splices) -> bytes:
    data = bytearray(clean)
    for at, insert in splices:
        at %= len(data) + 1
        data[at:at] = insert
    return bytes(data)


def _exit_contract_holds(argv):
    """main(argv) exits 0, 1 or 2, and each stderr line is a near2 or usage line."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])  # an escaping exception fails the test
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert all(line.startswith(("near2:", "usage:")) for line in err.getvalue().splitlines())


CORRUPTION = st.one_of(
    st.lists(st.integers(0x80, 0xFF), min_size=1, max_size=3).map(bytes),
    st.sampled_from([b"\\ud800", b"\x00", b"\r"]),
)


@settings(max_examples=50, deadline=None)
@given(
    suffix=st.sampled_from(["jsonl", "tsv"]),
    splices=st.lists(st.tuples(st.integers(0, 2**16), CORRUPTION), min_size=1, max_size=4),
)
def test_corrupt_text_keeps_the_exit_contract(small_workspace, suffix, splices):
    # bytes >= 0x80, \ud800 escapes, NUL and CR spliced into a records file
    # and a config file: every command exits 0, 1 or 2 with near2: lines only
    root = small_workspace
    records = root / f"corrupt.{suffix}"
    records.write_bytes(_splice((root / f"clean.{suffix}").read_bytes(), splices))
    config = root / "corrupt.json"
    config.write_bytes(_splice((root / "clean.json").read_bytes(), splices))
    model = root / "model.bin"
    for argv in (
        ["index", "--model", model, "--titles", records, "--out", root / "out.idx"],
        ["eval", "--model", model, "--test", records, "--report", root / "report.json"],
        ["hist", "--model", model, "--test", records, "--out", root / "hist.csv"],
        ["train", "--data", records, "--epochs", "0", *TINY_MODEL, "--out", root / "out.bin"],
        ["search", "--config", config, "--index", root / "corpus.idx", "--model", model],
    ):
        _exit_contract_holds(argv)
