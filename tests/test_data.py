import hashlib
import json

import pytest

from near2 import data

from near2.data import (
    RelevanceRecord,
    SynthSpec,
    distinct_titles,
    gen_synthetic,
    load_records,
    parse_records,
    split_judgments,
    synth_category_of,
    write_records,
)
from near2.encoder import fnv1a64
from near2.errors import DataError


class TestParse:
    def test_single_valid_jsonl(self):
        line = '{"qid": "q1", "query": "plants", "title_id": "t1", "title": "Aloe Vera", "grade": 5}'
        records, issues = parse_records([line])
        assert issues == []
        assert records == [RelevanceRecord("q1", "plants", "t1", "Aloe Vera", 5)]

    def test_central_field(self):
        line = '{"qid": "q1", "query": "a", "title_id": "t", "title": "b", "grade": 2, "central": 0}'
        records, _ = parse_records([line])
        assert records[0].central == 0

    def test_grade_out_of_range_becomes_issue(self):
        line = '{"qid": "q1", "query": "a", "title_id": "t", "title": "b", "grade": 7}'
        good = '{"qid": "q2", "query": "a", "title_id": "t", "title": "b", "grade": 2}'
        records, issues = parse_records([line, good])
        assert len(records) == 1
        assert issues[0].line_no == 1
        assert "grade out of range" in issues[0].message

    def test_malformed_lines_never_crash(self):
        lines = [
            "not json at all",
            '{"qid": 1}',
            '[1, 2, 3]',
            '{"qid": "q", "query": "x", "title_id": "t", "title": "y", "grade": "five"}',
            '{"qid": "q", "query": "x", "title_id": "t", "title": "y", "grade": 4}',
            "",
            # a tab or line break would split a TSV record or a search output line
            '{"qid": "q", "query": "x", "title_id": "t", "title": "red\\tpot\\nline 2", "grade": 4}',
            '{"qid": "q", "query": "x", "title_id": "t\\t2", "title": "y", "grade": 4}',
            '{"qid": "q\\r", "query": "x", "title_id": "t", "title": "y", "grade": 4}',
            '{"qid": "q", "query": "x\\ny", "title_id": "t", "title": "y", "grade": 4}',
        ]
        records, issues = parse_records(lines)
        assert len(records) == 1
        assert len(issues) == 8
        assert [i.line_no for i in issues] == [1, 2, 3, 4, 7, 8, 9, 10]
        assert [i.message for i in issues[4:]] == [
            f"tab or line break in {field}" for field in ("title", "title_id", "qid", "query")
        ]
        tsv_records, tsv_issues = parse_records(
            ["q\tx\tt\ty\t4", "q\tx\tt\r2\ty\t4"], format="tsv"
        )
        assert len(tsv_records) == 1
        assert [i.message for i in tsv_issues] == ["tab or line break in title_id"]

    @pytest.mark.parametrize("format", ["jsonl", "tsv"])
    def test_text_that_is_not_utf8_is_an_issue_naming_line_and_field(self, tmp_path, format):
        # a raw 0xFF byte; an encoded surrogate (bytes ED A0 80), the TSV form
        # of JSON's \ud800 escape; and, in JSONL, the escape itself
        good = RelevanceRecord("q1", "red plant", "t1", "big red plant", 5)
        bad = [
            RelevanceRecord("q1", "red plant", "t2", "big \udcff plant", 4),
            RelevanceRecord("q1", "red \udced\udca0\udc80 plant", "t3", "red pot", 4),
        ]
        lines = [
            (good.to_json() if format == "jsonl" else good.to_tsv()).encode()
        ] + [
            (r.to_json() if format == "jsonl" else r.to_tsv()).encode("utf-8", "surrogateescape")
            for r in bad
        ]
        if format == "jsonl":
            lines.append(b'{"qid": "q", "query": "x", "title_id": "t\\ud800", "title": "y", '
                         b'"grade": 4}')
            lines.append(b"[" * 100_000 + b"]" * 100_000)
        path = tmp_path / f"records.{format}"
        path.write_bytes(b"\n".join(lines) + b"\n")
        records, issues = load_records(path)
        assert records == [good]
        want = [(2, "title is not valid UTF-8"), (3, "query is not valid UTF-8")]
        if format == "jsonl":
            want += [(4, "title_id is not valid UTF-8"), (5, "JSON nested too deeply")]
        assert [(i.line_no, i.message) for i in issues] == want

    def test_all_lines_bad_is_error(self):
        with pytest.raises(DataError, match="no valid records"):
            parse_records(["garbage", "more garbage"])

    def test_tsv_equals_jsonl(self, tmp_path):
        records = [
            RelevanceRecord("q1", "red plant", "t1", "big red plant", 5, 1),
            RelevanceRecord("q1", "red plant", "t2", "blue chair", 1, 0),
            RelevanceRecord("q2", "lamp", "t3", "desk lamp", 4),
        ]
        jp, tp = tmp_path / "r.jsonl", tmp_path / "r.tsv"
        write_records(records, jp, "jsonl")
        write_records(records, tp, "tsv")
        from_jsonl, _ = load_records(jp)
        from_tsv, _ = load_records(tp)
        assert from_jsonl == from_tsv == records

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse_records([], format="csv")


class TestSynthetic:
    def test_deterministic_bytes(self):
        spec = SynthSpec(seed=42, query_count=30, titles_per_query=8)
        a = gen_synthetic(spec)
        b = gen_synthetic(spec)
        dump = lambda triple: json.dumps([[r.to_json() for r in part] for part in triple])
        assert dump(a) == dump(b)

    def test_bytes_are_pinned(self):
        # title ids are FNV-1a hashes of the titles; a change here changes
        # every synthetic dataset, and so every benchmark input
        triple = gen_synthetic(SynthSpec(seed=42, query_count=30, titles_per_query=8))
        dump = json.dumps([[r.to_json() for r in part] for part in triple])
        digest = hashlib.sha256(dump.encode("utf-8")).hexdigest()
        assert digest == "da2ee014ef48c29c38f1b45992c8e768c5fe08be2f1b95e64470bb856f69fb51"

    @pytest.mark.parametrize("chunk", [1, 3, 7, 4096])
    def test_title_hashes_do_not_depend_on_the_chunking(self, monkeypatch, chunk):
        titles = ["", "a", "Épée rack", "plant pot 12", "ü", "blue  hose", "", "x" * 300] * 3
        monkeypatch.setattr(data, "TITLE_HASH_CHUNK", chunk)
        assert data._title_hashes(titles) == [fnv1a64(t.encode("utf-8")) for t in titles]
        assert data._title_hashes([]) == []

    def test_alphanum_zero_means_no_digits(self):
        train, valid, test = gen_synthetic(SynthSpec(seed=1, query_count=40, alphanum_fraction=0.0))
        for r in train + valid + test:
            assert not any(ch.isdigit() for ch in r.query)

    def test_alphanum_queries_have_near_miss_negatives(self):
        train, valid, test = gen_synthetic(SynthSpec(seed=2, query_count=40, alphanum_fraction=1.0))
        records = train + valid + test
        by_query = {}
        for r in records:
            by_query.setdefault(r.qid, []).append(r)
        for qid, rows in by_query.items():
            code = [t for t in rows[0].query.split() if any(c.isdigit() for c in t)][0]
            near = [
                r for r in rows
                if r.grade < 3 and any(
                    t != code and t[:-2] == code[:-2] for t in r.title.split()
                )
            ]
            assert near, f"query {qid} lacks a near-miss negative"

    def test_positives_share_query_tokens(self):
        train, valid, test = gen_synthetic(SynthSpec(seed=3, query_count=50))
        for r in train + valid + test:
            if r.grade >= 5:
                q_tokens = set(r.query.split())
                shared = q_tokens & set(r.title.split())
                assert len(shared) >= min(2, len(q_tokens))

    def test_centrality_iff_same_category(self):
        train, valid, test = gen_synthetic(SynthSpec(seed=4, query_count=50))
        for r in train + valid + test:
            same = synth_category_of(r.qid) == synth_category_of(r.title_id)
            assert (r.central == 1) == same

    def test_grade_three_rows_generated(self):
        train, valid, test = gen_synthetic(SynthSpec(seed=5, query_count=30))
        assert any(r.grade == 3 for r in train + valid + test)

    def test_shared_substring_negatives(self):
        train, valid, test = gen_synthetic(
            SynthSpec(seed=6, query_count=40, shared_substring_fraction=1.0, alphanum_fraction=0.0)
        )
        records = train + valid + test
        embedded = [r for r in records if r.grade < 3 and r.query in r.title]
        assert len(embedded) > len(records) / 10

    def test_split_sizes(self):
        train, valid, test = gen_synthetic(SynthSpec(seed=7, query_count=100))
        q = lambda rs: {r.qid for r in rs}
        assert len(q(valid)) == 10 and len(q(test)) == 10 and len(q(train)) == 80
        assert not (q(train) & q(valid)) and not (q(train) & q(test)) and not (q(valid) & q(test))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(query_count=0)
        with pytest.raises(ValueError):
            SynthSpec(alphanum_fraction=1.5)


class TestSplitJudgments:
    def test_basic_relevance(self):
        records = [
            RelevanceRecord("q1", "q", "t1", "good title", 5),
            RelevanceRecord("q1", "q", "t2", "bad title", 1),
        ]
        split = split_judgments(records)
        assert len(split.judged) == 1
        assert split.judged[0].relevant == frozenset({"t1"})
        assert len(split.corpus) == 2

    def test_grade_three_only_query_excluded_but_titles_kept(self):
        records = [
            RelevanceRecord("q1", "q", "t1", "meh one", 3),
            RelevanceRecord("q1", "q", "t2", "meh two", 3),
        ]
        split = split_judgments(records)
        assert split.judged == []
        assert split.excluded_qids == ["q1"]
        assert len(split.corpus) == 2

    def test_duplicate_titles_one_corpus_entry(self):
        records = [
            RelevanceRecord("q1", "qa", "t1", "shared title", 5),
            RelevanceRecord("q2", "qb", "t1", "shared title", 4),
        ]
        split = split_judgments(records)
        assert len(split.corpus) == 1

    def test_conflicting_title_text_rejected(self):
        records = [
            RelevanceRecord("q1", "qa", "t1", "one", 5),
            RelevanceRecord("q2", "qb", "t1", "two", 4),
        ]
        with pytest.raises(DataError, match="two different titles"):
            split_judgments(records)

    def test_distinct_titles_keep_unjudged_records_in_first_seen_order(self):
        records = [
            RelevanceRecord("q1", "qa", "t2", "two", 1),
            RelevanceRecord("q2", "qb", "t1", "one", 2),
            RelevanceRecord("q3", "qc", "t2", "two", 3),
        ]
        assert distinct_titles(records) == [("t2", "two"), ("t1", "one")]
        assert split_judgments(records).corpus == distinct_titles(records)

    def test_grade_three_never_relevant(self):
        records = [
            RelevanceRecord("q1", "q", "t1", "good", 5),
            RelevanceRecord("q1", "q", "t2", "meh", 3),
        ]
        split = split_judgments(records)
        assert "t2" not in split.judged[0].relevant
