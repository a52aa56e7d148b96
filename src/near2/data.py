"""Relevance-record parsing, judgment splitting, and the synthetic dataset
generator.

Records are (qid, query, title_id, title, grade 1-5, optional binary
centrality) rows, canonically stored as JSONL. The generator fabricates
seed-deterministic query/title data with the pathologies that make product
search hard: short queries, query strings recurring inside negative titles,
and alphanumeric model numbers with near-miss variants.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .encoder import fnv1a64_many
from .errors import DataError

GRADE_MIN, GRADE_MAX = 1, 5
RELEVANT_ABOVE = 3  # grade > 3 is a positive, < 3 a negative, == 3 excluded


@dataclass(frozen=True)
class RelevanceRecord:
    """One human-style judgment row: graded relevance plus optional centrality."""

    qid: str
    query: str
    title_id: str
    title: str
    grade: int
    central: Optional[int] = None

    def to_json(self) -> str:
        obj = {
            "qid": self.qid,
            "query": self.query,
            "title_id": self.title_id,
            "title": self.title,
            "grade": self.grade,
        }
        if self.central is not None:
            obj["central"] = self.central
        return json.dumps(obj, ensure_ascii=False, sort_keys=True)

    def to_tsv(self) -> str:
        cells = [self.qid, self.query, self.title_id, self.title, str(self.grade)]
        if self.central is not None:
            cells.append(str(self.central))
        return "\t".join(cells)


@dataclass(frozen=True)
class ParseIssue:
    line_no: int
    message: str


def _validate_fields(qid, query, title_id, title, grade, central):
    for name, value in (("qid", qid), ("query", query), ("title_id", title_id), ("title", title)):
        if not value:
            raise ValueError(f"empty {name}")
        # the TSV files and `near2 search` output hold one record per line
        if "\t" in value or "\n" in value or "\r" in value:
            raise ValueError(f"tab or line break in {name}")
        # undecodable file bytes (read as surrogate escapes) or a JSON
        # \ud800 escape: the index and every report store fields as UTF-8
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"{name} is not valid UTF-8") from None
    if not isinstance(grade, int) or isinstance(grade, bool) or not GRADE_MIN <= grade <= GRADE_MAX:
        raise ValueError(f"grade out of range: {grade!r}")
    if central is not None and central not in (0, 1):
        raise ValueError(f"central must be 0 or 1: {central!r}")


def _parse_jsonl_line(line: str) -> RelevanceRecord:
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("line is not a JSON object")
    qid = str(obj.get("qid", ""))
    query = str(obj.get("query", ""))
    title_id = str(obj.get("title_id", ""))
    title = str(obj.get("title", ""))
    grade = obj.get("grade")
    central = obj.get("central")
    _validate_fields(qid, query, title_id, title, grade, central)
    return RelevanceRecord(qid, query, title_id, title, grade, central)


def _parse_tsv_line(line: str) -> RelevanceRecord:
    cells = line.split("\t")
    if len(cells) not in (5, 6):
        raise ValueError(f"expected 5 or 6 tab-separated fields, got {len(cells)}")
    try:
        grade = int(cells[4])
    except ValueError:
        raise ValueError(f"grade is not an integer: {cells[4]!r}") from None
    central = None
    if len(cells) == 6 and cells[5] != "":
        try:
            central = int(cells[5])
        except ValueError:
            raise ValueError(f"central is not an integer: {cells[5]!r}") from None
    _validate_fields(cells[0], cells[1], cells[2], cells[3], grade, central)
    return RelevanceRecord(cells[0], cells[1], cells[2], cells[3], grade, central)


def parse_records(
    lines: Iterable[str], format: str = "jsonl"
) -> tuple[list[RelevanceRecord], list[ParseIssue]]:
    """Parse a record stream; malformed lines become issues, never crashes.
    A field that does not encode as UTF-8 makes its line malformed.

    Raises DataError only when no line at all parses.
    """
    if format not in ("jsonl", "tsv"):
        raise ValueError(f"unknown format {format!r}")
    parse = _parse_jsonl_line if format == "jsonl" else _parse_tsv_line
    records: list[RelevanceRecord] = []
    issues: list[ParseIssue] = []
    saw_content = False
    for line_no, line in enumerate(lines, start=1):
        line = line.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        saw_content = True
        try:
            records.append(parse(line))
        except ValueError as e:
            issues.append(ParseIssue(line_no, str(e)))
        except RecursionError:  # JSON nested too deeply to decode
            issues.append(ParseIssue(line_no, "JSON nested too deeply"))
    if saw_content and not records:
        detail = f"; first issue: line {issues[0].line_no}: {issues[0].message}" if issues else ""
        raise DataError(f"no valid records in stream{detail}")
    return records, issues


def load_records(path) -> tuple[list[RelevanceRecord], list[ParseIssue]]:
    """parse_records over a file, TSV if its name ends in ".tsv", else JSONL.

    Bytes that are not UTF-8 are read as surrogate escapes, so a line that
    holds them becomes an issue naming its field, not a decoding crash.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return parse_records(fh, "tsv" if str(path).endswith(".tsv") else "jsonl")


def write_records(records: list[RelevanceRecord], path, format: str = "jsonl") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(r.to_json() if format == "jsonl" else r.to_tsv())
            fh.write("\n")


# --- judgments ------------------------------------------------------------------


@dataclass(frozen=True)
class QueryJudgment:
    """Per-query binary relevance (grade > 3) plus the full graded map."""

    qid: str
    query: str
    relevant: frozenset
    grades: dict


@dataclass
class JudgmentsSplit:
    judged: list[QueryJudgment]
    corpus: list[tuple[str, str]]  # distinct (title_id, title) in first-seen order
    excluded_qids: list[str]


def distinct_titles(records: list[RelevanceRecord]) -> list[tuple[str, str]]:
    """The title corpus: distinct (title_id, title) pairs in first-seen order.

    Every record's title counts, whatever its grade. A title_id that appears
    with two different titles is a DataError.
    """
    title_by_id: dict[str, str] = {}
    for r in records:
        known = title_by_id.setdefault(r.title_id, r.title)
        if known != r.title:
            raise DataError(f"title_id {r.title_id!r} maps to two different titles")
    return list(title_by_id.items())


def _query_strings(records: list[RelevanceRecord]) -> dict[str, str]:
    """Each qid's query string, in first-seen order. A qid that appears with
    two different query strings is a DataError."""
    query_by_qid: dict[str, str] = {}
    for r in records:
        if query_by_qid.setdefault(r.qid, r.query) != r.query:
            raise DataError(f"qid {r.qid!r} maps to two different query strings")
    return query_by_qid


def split_judgments(records: list[RelevanceRecord]) -> JudgmentsSplit:
    """Derive evaluation judgments and the title corpus from records.

    Grade-3 titles stay in the corpus but are never relevant; queries without
    any grade > 3 title are excluded (and reported) since recall would be
    undefined for them.
    """
    corpus = distinct_titles(records)
    queries = _query_strings(records)
    per_query = {qid: {"relevant": set(), "grades": {}} for qid in queries}
    for r in records:
        q = per_query[r.qid]
        q["grades"][r.title_id] = r.grade
        if r.grade > RELEVANT_ABOVE:
            q["relevant"].add(r.title_id)

    judged, excluded = [], []
    for qid in sorted(per_query):
        q = per_query[qid]
        if q["relevant"]:
            judged.append(
                QueryJudgment(
                    qid=qid,
                    query=queries[qid],
                    relevant=frozenset(q["relevant"]),
                    grades=dict(q["grades"]),
                )
            )
        else:
            excluded.append(qid)
    return JudgmentsSplit(judged=judged, corpus=corpus, excluded_qids=excluded)


# --- synthetic data -------------------------------------------------------------


@dataclass(frozen=True)
class SynthSpec:
    """Knobs for the synthetic relevance dataset."""

    seed: int = 0
    query_count: int = 100
    titles_per_query: int = 10
    category_count: int = 10
    alphanum_fraction: float = 0.2
    shared_substring_fraction: float = 0.3

    def __post_init__(self):
        for name in ("query_count", "titles_per_query", "category_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("alphanum_fraction", "shared_substring_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")


_POOL_SIZE = 24


def _category_pools(rng: random.Random, category_count: int) -> list[list[str]]:
    pools: list[list[str]] = []
    seen: set[str] = set()
    for _ in range(category_count):
        pool: list[str] = []
        while len(pool) < _POOL_SIZE:
            word = "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(4, 7)))
            if word not in seen:
                seen.add(word)
                pool.append(word)
        pools.append(pool)
    return pools


def _model_code(rng: random.Random) -> str:
    return (
        rng.choice(string.ascii_lowercase)
        + "".join(rng.choice(string.digits) for _ in range(4))
        + "".join(rng.choice(string.ascii_lowercase) for _ in range(2))
    )


# Titles per `_title_hashes` pass: each pass's temporaries (the joined bytes,
# the spans and the hash arrays) stay near 1 MB, where one pass over an
# eval-sized set raised the process's peak RSS by about 1.3 MB.
TITLE_HASH_CHUNK = 4096


def _title_hashes(titles: list[str]) -> list[int]:
    """`fnv1a64` of every title's UTF-8 bytes, hashed `TITLE_HASH_CHUNK`
    titles at a time; a title's hash does not depend on the chunking."""
    hashes: list[int] = []
    for first in range(0, len(titles), TITLE_HASH_CHUNK):
        chunk = [title.encode("utf-8") for title in titles[first : first + TITLE_HASH_CHUNK]]
        lengths = np.fromiter(map(len, chunk), dtype=np.int64, count=len(chunk))
        ends = np.cumsum(lengths)
        data = np.frombuffer(b"".join(chunk), dtype=np.uint8)
        hashes.extend(fnv1a64_many(data, ends - lengths, ends).tolist())
    return hashes


def gen_synthetic(
    spec: SynthSpec,
) -> tuple[list[RelevanceRecord], list[RelevanceRecord], list[RelevanceRecord]]:
    """Deterministic (train, valid, test) record lists, split 80/10/10 by query.

    Per query: positive titles (grade 4-5) contain every query token plus
    same-category filler; grade-3 titles are weakly related same-category
    rows that exercise the exclusion rule; negatives (grade 1-2) come from
    other categories, a fraction of them embedding the literal query string
    and, for alphanumeric queries, a near-miss model code differing in the
    final two characters. Centrality is 1 exactly for same-category titles.
    """
    rng = random.Random(spec.seed)
    pools = _category_pools(rng, spec.category_count)

    # the qid, query, title, title category, grade and central of every
    # record, one list per field; the title ids are hashed in chunks at the
    # end. A tuple per record would do, but freeing ~29k of them leaves the
    # records' memory fragmented: 3.4 MB more resident after an eval-sized set.
    columns: tuple[list, ...] = ([], [], [], [], [], [])
    qids: list[str] = []
    for qi in range(spec.query_count):
        cat = rng.randrange(spec.category_count)
        qid = f"q{qi:05d}c{cat:02d}"
        qids.append(qid)
        is_alnum = rng.random() < spec.alphanum_fraction
        if is_alnum:
            code = _model_code(rng)
            q_tokens = [rng.choice(pools[cat]), code]
        else:
            code = None
            q_tokens = rng.sample(pools[cat], rng.randint(1, 3))
        query = " ".join(q_tokens)

        t = spec.titles_per_query
        n_pos = max(1, round(0.35 * t))
        n_g3 = 1 if t >= 3 else 0
        n_neg = max(1, t - n_pos - n_g3)

        def emit(title_tokens, category, grade):
            central = 1 if category == cat else 0
            row = (qid, query, " ".join(title_tokens), category, grade, central)
            for column, value in zip(columns, row):
                column.append(value)

        for p in range(n_pos):
            extras = rng.sample([w for w in pools[cat] if w not in q_tokens], rng.randint(2, 4))
            tokens = list(q_tokens) + extras
            rng.shuffle(tokens)
            emit(tokens, cat, 5 if p == 0 else rng.choice((4, 5)))

        for _ in range(n_g3):
            # weakly related: at most one query token, same category
            tokens = rng.sample([w for w in pools[cat] if w not in q_tokens], 3)
            if len(q_tokens) > 1 and rng.random() < 0.5:
                tokens[0] = q_tokens[0]
            emit(tokens, cat, 3)

        for n in range(n_neg):
            other = rng.randrange(spec.category_count - 1)
            if other >= cat:
                other += 1
            tokens = rng.sample(pools[other], rng.randint(3, 5))
            embed_query = rng.random() < spec.shared_substring_fraction
            if embed_query:
                tokens.insert(rng.randrange(len(tokens) + 1), query)
            elif code is not None:
                # near-miss model number: same code except a 2-character suffix
                near = code[:-2] + "".join(rng.choice(string.ascii_lowercase) for _ in range(2))
                while near == code:
                    near = code[:-2] + "".join(
                        rng.choice(string.ascii_lowercase) for _ in range(2)
                    )
                tokens.insert(rng.randrange(len(tokens) + 1), near)
            emit(tokens, other, rng.choice((1, 2)))

    records = [
        RelevanceRecord(qid, query, f"c{category:02d}-{title_hash:016x}", title, grade, central)
        for qid, query, title, category, grade, central, title_hash
        in zip(*columns, _title_hashes(columns[2]))
    ]
    order = list(range(spec.query_count))
    rng.shuffle(order)
    n_valid = max(1, spec.query_count // 10) if spec.query_count >= 3 else 0
    n_test = n_valid
    test_q = {qids[i] for i in order[:n_test]}
    valid_q = {qids[i] for i in order[n_test : n_test + n_valid]}

    train = [r for r in records if r.qid not in test_q and r.qid not in valid_q]
    valid = [r for r in records if r.qid in valid_q]
    test = [r for r in records if r.qid in test_q]
    return train, valid, test
