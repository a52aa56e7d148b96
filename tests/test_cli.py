import argparse
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import near2
from near2 import cli, metrics, trainer
from near2.cli import build_parser, main
from near2.encoder import EncoderModel, encode, load_model, save_model
from near2.index import _sections, load_index, search_funnel
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


def _cli(*argv):
    """Run the CLI in a fresh interpreter, as a user would."""
    env = {**os.environ, "PYTHONPATH": str(Path(near2.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "near2.cli", *argv], capture_output=True, text=True, env=env
    )


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
    data[_sections(index.count, index.dims)[0][-2][0]] = 0xFF  # the ids blob's first byte
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
    table_at = 8 + 16 + 2 + 4 * len(model.dims) + 8
    table_end = table_at + 4 * model.bucket_count * model.feature_dim
    path = tmp_path / "zero-buckets.bin"
    path.write_bytes(data[:12] + (0).to_bytes(4, "little") + data[16:table_at] + data[table_end:])
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


@pytest.mark.parametrize("section", [0, 1, 2, 3], ids=["norms", "band0", "band1", "band2"])
def test_nan_in_index_section_exits_two_without_traceback(workspace, tmp_path, section):
    index = load_index(workspace["index"])
    offset, _ = _sections(index.count, index.dims)[0][section]
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
        r"embeddings must be finite\n", err
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
