"""Persistent prefix-readable embedding index and exact top-k cosine search.

One unnormalized float32 matrix serves every nested dimension: searching at a
prefix m reads only the first m columns and normalizes on the fly (norms are
cached per dimension). Smaller prefixes therefore cost proportionally less
memory, which is the whole efficiency story; there is no approximate search.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._binio import Reader, pack_header
from .encoder import EncoderModel, encode
from .errors import DataError, FormatError, ZeroVectorError
from .nested import DimSet, NestedEmbedding, EPS_ZERO, l2_normalize, truncate

INDEX_MAGIC = b"NEAR2IDX"
INDEX_VERSION = 1


@dataclass(frozen=True)
class SearchHit:
    """One retrieved row: 1-based rank, ties broken by ascending row index."""

    row: int
    doc_id: str
    score: float
    rank: int


class PrefixIndex:
    """Immutable corpus of (id, title, embedding row), searchable at any m in M."""

    def __init__(
        self,
        ids: list[str],
        titles: list[str],
        matrix: np.ndarray,
        dims: DimSet,
        degenerate: np.ndarray,
    ):
        matrix = np.ascontiguousarray(matrix, dtype=np.float32)
        degenerate = np.asarray(degenerate, dtype=bool)
        if matrix.ndim != 2 or matrix.shape[1] != dims.full:
            raise ValueError(f"matrix must be (count, {dims.full})")
        count = matrix.shape[0]
        if len(ids) != count or len(titles) != count or degenerate.shape != (count,):
            raise ValueError("ids, titles, degenerate flags and matrix rows must align")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("index rows must be finite")
        matrix.setflags(write=False)
        degenerate.setflags(write=False)
        self.ids = list(ids)
        self.titles = list(titles)
        self.matrix = matrix
        self.dims = dims
        self.degenerate = degenerate
        # per-dimension float64 prefix norms over all rows; compute-once and
        # idempotent, so concurrent population is harmless
        self._norm_cache: dict[int, np.ndarray] = {}

    @property
    def count(self) -> int:
        return self.matrix.shape[0]

    def prefix_norms(self, m: int) -> np.ndarray:
        m = self.dims.require(m)
        norms = self._norm_cache.get(m)
        if norms is None:
            norms = np.sqrt(_kernels.prefix_sq_norms(self.matrix, m))
            norms.setflags(write=False)
            self._norm_cache[m] = norms
        return norms

    def usable_rows(self, m: int) -> np.ndarray:
        """Ascending indices of rows searchable at m (non-degenerate, nonzero prefix)."""
        mask = ~self.degenerate & (self.prefix_norms(m) > EPS_ZERO)
        return np.flatnonzero(mask)


def build_index(model: EncoderModel, titles: list[tuple[str, str]]) -> PrefixIndex:
    """Embed titles in input order. Degenerate (empty-text) rows are stored but
    flagged and never returned by a search."""
    if not titles:
        raise DataError("cannot build an index from zero titles")
    seen: set[str] = set()
    for doc_id, _ in titles:
        if doc_id in seen:
            raise DataError(f"duplicate document id: {doc_id!r}")
        seen.add(doc_id)
    matrix = np.empty((len(titles), model.full_dim), dtype=np.float32)
    degenerate = np.zeros(len(titles), dtype=bool)
    for row, (_, text) in enumerate(titles):
        emb = encode(model, text)
        matrix[row] = emb.values.astype(np.float32)
        degenerate[row] = emb.degenerate
    return PrefixIndex(
        ids=[doc_id for doc_id, _ in titles],
        titles=[text for _, text in titles],
        matrix=matrix,
        dims=model.dims,
        degenerate=degenerate,
    )


def _query_unit_prefix(query: NestedEmbedding, m: int) -> np.ndarray:
    if query.degenerate:
        raise ZeroVectorError("cannot search with a degenerate (empty-text) query")
    try:
        return l2_normalize(truncate(query, m))
    except ZeroVectorError:
        raise ZeroVectorError(f"query has a zero-norm {m}-prefix") from None


def _top_hits(index: PrefixIndex, rows: np.ndarray, scores: np.ndarray, k: int) -> list[SearchHit]:
    if k < scores.size:
        # only rows scoring at least the k-th best can rank; sorting just
        # those keeps the full sort's order, lower-row tie-break included
        kth = np.partition(scores, scores.size - k)[scores.size - k]
        keep = np.flatnonzero(scores >= kth)
        rows, scores = rows[keep], scores[keep]
    order = np.lexsort((rows, -scores))[:k]
    return [
        SearchHit(row=int(rows[o]), doc_id=index.ids[rows[o]], score=float(scores[o]), rank=r)
        for r, o in enumerate(order, start=1)
    ]


def _scores_for_rows(index: PrefixIndex, rows: np.ndarray, qhat: np.ndarray, m: int) -> np.ndarray:
    dots = _kernels.prefix_dot_products(index.matrix, qhat, m, rows)
    return np.clip(dots / index.prefix_norms(m)[rows], -1.0, 1.0)


def search_exact(index: PrefixIndex, query: NestedEmbedding, m: int, k: int) -> list[SearchHit]:
    """Exact top-k by prefix cosine over all searchable rows.

    Deterministic: ties break toward the lower row index; asking for more
    hits than there are searchable rows returns them all.
    """
    hits, _ = search_exact_with_min(index, query, m, k)
    return hits


def search_exact_with_min(
    index: PrefixIndex, query: NestedEmbedding, m: int, k: int
) -> tuple[list[SearchHit], float]:
    """search_exact plus the minimum similarity over the scanned corpus.

    The corpus minimum anchors min-normalized score reporting without paying
    for a second scan. It is NaN when no row is searchable.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rows, scores = all_scores(index, query, m)
    if rows.size == 0:
        return [], float("nan")
    return _top_hits(index, rows, scores, k), float(scores.min())


def all_scores(index: PrefixIndex, query: NestedEmbedding, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(row indices, cosine scores) of every searchable row at prefix m.

    The one full scan behind search_exact, search_exact_with_min, score
    histograms and min-normalization.
    """
    m = index.dims.require(m)
    query.dims.require(m)
    qhat = _query_unit_prefix(query, m)
    rows = index.usable_rows(m)
    return rows, _scores_for_rows(index, rows, qhat, m)


def search_funnel(
    index: PrefixIndex,
    query: NestedEmbedding,
    m_low: int,
    m_high: int,
    shortlist_size: int,
    k: int,
) -> list[SearchHit]:
    """Two-stage coarse-to-fine search: shortlist at m_low, re-rank at m_high.

    Stage 1 takes the top `shortlist_size` rows by cosine at m_low; stage 2
    re-scores only those rows at m_high and returns the top k with m_high
    scores. With a shortlist covering the whole corpus this is exactly
    search_exact at m_high. Rows whose m_low prefix is degenerate are
    unreachable, an inherent property of funnel search.
    """
    m_low = index.dims.require(m_low)
    m_high = index.dims.require(m_high)
    query.dims.require(m_low)
    query.dims.require(m_high)
    if m_low > m_high:
        raise ValueError(f"m_low ({m_low}) must not exceed m_high ({m_high})")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if shortlist_size < k:
        raise ValueError(f"shortlist size {shortlist_size} must be >= k ({k})")

    stage1 = search_exact(index, query, m_low, shortlist_size)
    if not stage1:
        return []
    survivors = np.sort(np.array([hit.row for hit in stage1], dtype=np.int64))

    qhat = _query_unit_prefix(query, m_high)
    scores = _scores_for_rows(index, survivors, qhat, m_high)
    return _top_hits(index, survivors, scores, k)


@dataclass(frozen=True)
class MemoryFootprint:
    """Bytes needed to serve prefix-m queries (vectors) plus the doc table."""

    vector_bytes: int
    doc_table_bytes: int


def memory_footprint(index: PrefixIndex, m: int) -> MemoryFootprint:
    """count * m * 4 vector bytes for prefix m, and the doc table's serialized size."""
    m = index.dims.require(m)
    doc_bytes = sum(
        2 + len(i.encode("utf-8")) + 4 + len(t.encode("utf-8"))
        for i, t in zip(index.ids, index.titles)
    )
    return MemoryFootprint(vector_bytes=index.count * m * 4, doc_table_bytes=doc_bytes)


# --- persistence ----------------------------------------------------------------
#
# Layout (little-endian): magic "NEAR2IDX", version u32 = 1, D u32, count u64,
# dims_count u16 then dims u32 each (descending), degenerate-row bitmap of
# ceil(count/8) bytes (row r -> byte r>>3, bit r&7, LSB first, padding bits 0),
# vector block of count*D float32, then per row: id length u16 + UTF-8 id +
# title length u32 + UTF-8 title.


def save_index(index: PrefixIndex, path) -> None:
    header_fields = (index.dims.full, index.count)
    with open(path, "wb") as fh:
        fh.write(pack_header(INDEX_MAGIC, INDEX_VERSION, "IQ", header_fields, index.dims))
        fh.write(np.packbits(index.degenerate, bitorder="little").tobytes())
        fh.write(index.matrix.astype("<f4", copy=False).tobytes(order="C"))
        for doc_id, title in zip(index.ids, index.titles):
            id_bytes = doc_id.encode("utf-8")
            title_bytes = title.encode("utf-8")
            fh.write(struct.pack("<H", len(id_bytes)))
            fh.write(id_bytes)
            fh.write(struct.pack("<I", len(title_bytes)))
            fh.write(title_bytes)


def load_index(path) -> PrefixIndex:
    """Read an index back; any structural defect raises before an index exists."""
    with open(path, "rb") as fh:
        reader = Reader(fh, "index")
        full_dim, count = reader.header(INDEX_MAGIC, INDEX_VERSION, "IQ", path)
        dims = reader.dims(full_dim)

        bitmap = np.frombuffer(reader.exact((count + 7) // 8, "degenerate bitmap"), dtype=np.uint8)
        flags = np.unpackbits(bitmap, bitorder="little")
        if flags[count:].any():
            raise FormatError("nonzero padding bits in degenerate bitmap")
        degenerate = flags[:count].astype(bool)

        matrix = np.frombuffer(
            reader.exact(4 * count * full_dim, "vector block"), dtype="<f4"
        ).reshape(count, full_dim)
        if not np.all(np.isfinite(matrix)):
            raise FormatError("non-finite vector entries")

        ids, titles = _parse_doc_table(fh.read(), count)
    return PrefixIndex(ids=ids, titles=titles, matrix=matrix, dims=dims, degenerate=degenerate)


_ID_LENGTH, _TITLE_LENGTH = struct.Struct("<H"), struct.Struct("<I")


def _parse_doc_table(buf: bytes, count: int) -> tuple[list[str], list[str]]:
    """The `count` (id, title) rows of a doc table that must fill `buf` exactly."""
    ids, titles, pos, end = [], [], 0, len(buf)
    try:
        for row in range(count):
            what = "id length"
            (n,) = _ID_LENGTH.unpack_from(buf, pos)
            what, pos = "id", pos + 2 + n
            if pos > end:
                raise _truncated(what, row)
            ids.append(buf[pos - n : pos].decode("utf-8"))
            what = "title length"
            (n,) = _TITLE_LENGTH.unpack_from(buf, pos)
            what, pos = "title", pos + 4 + n
            if pos > end:
                raise _truncated(what, row)
            titles.append(buf[pos - n : pos].decode("utf-8"))
    except struct.error:  # a length field cut short
        raise _truncated(what, row) from None
    except UnicodeDecodeError:
        raise FormatError(f"{what} of row {row} is not valid UTF-8") from None
    if pos != end:
        raise FormatError("trailing bytes after doc table")
    return ids, titles


def _truncated(what: str, row: int) -> FormatError:
    return FormatError(f"index file truncated while reading {what} of row {row}")


def index_file_size(index: PrefixIndex) -> int:
    """Exact serialized byte count implied by the format."""
    doc = memory_footprint(index, index.dims.full).doc_table_bytes
    return 8 + 16 + 2 + 4 * len(index.dims) + (index.count + 7) // 8 + 4 * index.count * index.dims.full + doc
