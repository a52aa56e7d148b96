"""Persistent prefix-readable embedding index and exact top-k cosine search.

One unnormalized float32 matrix serves every nested dimension. It is held as
contiguous column bands cut at the nested dims (for dims 768..64:
[0:64), [64:128), [128:256), [256:512), [512:768)), next to a table of every
row's prefix norm at every dim. Searching at a prefix m reads only the bands
under m and that table's column for m, so a smaller prefix costs
proportionally less memory traffic, which is the whole efficiency story;
there is no approximate search.

A loaded index memory-maps its bands, so a search reads from disk only the
bands (and, for a funnel's re-rank, the shortlist rows) it scores. Loading
validates the norm table but not the vectors: a non-finite vector entry is
caught when a scan reads it, as a non-finite dot product, and raises
`FormatError`.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._binio import Reader, pack_header
from .encoder import EncoderModel, encode
from .errors import DataError, FormatError, ZeroVectorError
from .nested import DimSet, NestedEmbedding, EPS_ZERO, l2_normalize, truncate

INDEX_MAGIC = b"NEAR2IDX"
INDEX_VERSION = 2


@dataclass(frozen=True)
class SearchHit:
    """One retrieved row: 1-based rank, ties broken by ascending row index."""

    row: int
    doc_id: str
    score: float
    rank: int


def _band_edges(dims: DimSet) -> list[int]:
    """Column edges of the bands: 0, then every dim in ascending order."""
    return [0, *sorted(dims)]


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
        """Copy the rows of a (count, D) matrix into column bands."""
        matrix = np.asarray(matrix, dtype=np.float32)
        if matrix.ndim != 2 or matrix.shape[1] != dims.full:
            raise ValueError(f"matrix must be (count, {dims.full})")
        edges = _band_edges(dims)
        bands = [np.array(matrix[:, lo:hi], order="C") for lo, hi in zip(edges, edges[1:])]
        self._assign(ids, titles, bands, dims, degenerate)

    @classmethod
    def _from_bands(cls, ids, titles, bands, dims, degenerate, norms=None) -> "PrefixIndex":
        index = cls.__new__(cls)
        index._assign(ids, titles, bands, dims, degenerate, norms)
        return index

    def _assign(self, ids, titles, bands, dims, degenerate, norms=None) -> None:
        """Without `norms`, the norm table is computed from the bands."""
        degenerate = np.asarray(degenerate, dtype=bool)
        count = bands[0].shape[0]
        if len(ids) != count or len(titles) != count or degenerate.shape != (count,):
            raise ValueError("ids, titles, degenerate flags and matrix rows must align")
        self.bands = _kernels.Bands(bands)
        if norms is None:
            norms = np.stack(
                [np.sqrt(_kernels.prefix_sq_norms(self.bands, m)) for m in dims], axis=1
            )
            # a row's norm at D is finite exactly when all its entries are
            if not np.all(np.isfinite(norms)):
                raise ValueError("index rows must be finite")
        for array in (*bands, norms, degenerate):
            array.setflags(write=False)
        self.ids = list(ids)
        self.titles = list(titles)
        self.dims = dims
        self.degenerate = degenerate
        # count x |M| float64; column j holds every row's prefix norm at dims[j]
        self._norms = norms

    @property
    def count(self) -> int:
        return self.bands.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """The (count, D) float32 rows, assembled from the bands on each call."""
        matrix = np.hstack(self.bands.arrays)
        matrix.setflags(write=False)
        return matrix

    def prefix_norms(self, m: int) -> np.ndarray:
        m = self.dims.require(m)
        return self._norms[:, self.dims.dims.index(m)]

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
    edges = _band_edges(model.dims)
    bands = [np.empty((len(titles), hi - lo), dtype=np.float32) for lo, hi in zip(edges, edges[1:])]
    degenerate = np.zeros(len(titles), dtype=bool)
    for row, (_, text) in enumerate(titles):
        emb = encode(model, text)
        for band, lo, hi in zip(bands, edges, edges[1:]):
            band[row] = emb.values[lo:hi]
        degenerate[row] = emb.degenerate
    return PrefixIndex._from_bands(
        ids=[doc_id for doc_id, _ in titles],
        titles=[text for _, text in titles],
        bands=bands,
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


def _dot_products(index: PrefixIndex, qhat: np.ndarray, m: int, rows=None) -> np.ndarray:
    """Prefix-m dots of `rows`, or of every row when None.

    The loader does not check vectors, so this is where corrupt vector bytes
    are caught: exactly those the scan read.
    """
    dots = _kernels.prefix_dot_products(index.bands, qhat, m, rows)
    if not np.all(np.isfinite(dots)):
        raise FormatError(f"non-finite vector entries within the first {m} columns of the index")
    return dots


def _cosines(index: PrefixIndex, rows: np.ndarray, dots: np.ndarray, m: int) -> np.ndarray:
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
    histograms and min-normalization. Every row is scanned; unsearchable
    rows are dropped from the result afterwards.
    """
    m = index.dims.require(m)
    query.dims.require(m)
    qhat = _query_unit_prefix(query, m)
    rows = index.usable_rows(m)
    return rows, _cosines(index, rows, _dot_products(index, qhat, m)[rows], m)


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

    # prefix norms never shrink as m grows, so every survivor is usable at m_high
    qhat = _query_unit_prefix(query, m_high)
    scores = _cosines(index, survivors, _dot_products(index, qhat, m_high, survivors), m_high)
    return _top_hits(index, survivors, scores, k)


@dataclass(frozen=True)
class MemoryFootprint:
    """Bytes needed to serve prefix-m queries (vectors) plus the doc table."""

    vector_bytes: int
    doc_table_bytes: int


def memory_footprint(index: PrefixIndex, m: int) -> MemoryFootprint:
    """count * m * 4 vector bytes for prefix m, and the doc table's serialized size.

    The vector bytes are exactly the bands a prefix-m scan reads, since the
    bands are cut at the dims; the norm table adds count * 8 bytes per m.
    """
    m = index.dims.require(m)
    doc_bytes = sum(
        2 + len(i.encode("utf-8")) + 4 + len(t.encode("utf-8"))
        for i, t in zip(index.ids, index.titles)
    )
    return MemoryFootprint(vector_bytes=index.count * m * 4, doc_table_bytes=doc_bytes)


# --- persistence ----------------------------------------------------------------
#
# Layout (little-endian), version 2: magic "NEAR2IDX", version u32 = 2, D u32,
# count u64, dims_count u16 then dims u32 each (descending), degenerate-row
# bitmap of ceil(count/8) bytes (row r -> byte r>>3, bit r&7, LSB first,
# padding bits 0); then the norm table, count x dims_count float64 row-major
# (row r, column j = the norm of row r's first dims[j] entries); then one
# count x width float32 row-major band per dim in ascending order, band i
# holding columns [M_(i-1), M_i) with M_0 = 0 and M_i the i-th smallest dim;
# then per row: id length u16 + UTF-8 id + title length u32 + UTF-8 title.
# Zero bytes pad the bitmap, the norm table and every band to a multiple of
# 64 bytes from the start of the file, so each band can be memory-mapped as
# an aligned array. Version 1 (one row-major count x D block, no norm table)
# is not read.

_ALIGN = 64


def _sections(count: int, dims: DimSet) -> tuple[list[tuple[int, int]], int]:
    """(offset, length) of the norm table and of each band, and the doc table offset."""
    edges = _band_edges(dims)
    lengths = [8 * count * len(dims)] + [4 * count * (hi - lo) for lo, hi in zip(edges, edges[1:])]
    sections, pos = [], 8 + 16 + 2 + 4 * len(dims) + (count + 7) // 8
    for length in lengths:
        pos += -pos % _ALIGN
        sections.append((pos, length))
        pos += length
    return sections, pos + -pos % _ALIGN


def save_index(index: PrefixIndex, path) -> None:
    """Write the index beside `path`, then rename it over `path`.

    A process that has the old file mapped keeps reading the old file's bytes;
    overwriting it in place would change, or truncate, pages under the map.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            _write_index(index, fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _write_index(index: PrefixIndex, fh) -> None:
    header_fields = (index.dims.full, index.count)
    fh.write(pack_header(INDEX_MAGIC, INDEX_VERSION, "IQ", header_fields, index.dims))
    fh.write(np.packbits(index.degenerate, bitorder="little").tobytes())
    sections, doc_table = _sections(index.count, index.dims)
    arrays = [index._norms.astype("<f8", copy=False)]
    arrays += [band.astype("<f4", copy=False) for band in index.bands.arrays]
    for (offset, _), array in zip(sections, arrays):
        fh.write(bytes(offset - fh.tell()))
        fh.write(np.ascontiguousarray(array))
    fh.write(bytes(doc_table - fh.tell()))
    for doc_id, title in zip(index.ids, index.titles):
        id_bytes = doc_id.encode("utf-8")
        title_bytes = title.encode("utf-8")
        fh.write(struct.pack("<H", len(id_bytes)))
        fh.write(id_bytes)
        fh.write(struct.pack("<I", len(title_bytes)))
        fh.write(title_bytes)


def load_index(path) -> PrefixIndex:
    """Read an index back; any structural defect raises before an index exists.

    The bands stay memory-mapped; non-finite vector entries are found by the
    scan that reads them (see `_dot_products`).
    """
    with open(path, "rb") as fh:
        reader = Reader(fh, "index")
        full_dim, count = reader.header(
            INDEX_MAGIC, INDEX_VERSION, "IQ", path,
            stale="re-run `near2 index` to rebuild it in the current format",
        )
        dims = reader.dims(full_dim)

        bitmap = np.frombuffer(reader.exact((count + 7) // 8, "degenerate bitmap"), dtype=np.uint8)
        flags = np.unpackbits(bitmap, bitorder="little")
        if flags[count:].any():
            raise FormatError("nonzero padding bits in degenerate bitmap")
        degenerate = flags[:count].astype(bool)

        bitmap_end = fh.tell()
        sections, doc_table = _sections(count, dims)
        if reader.size < doc_table:
            raise FormatError("index file truncated while reading norm table and vector bands")
        # the map outlives `fh`: the arrays below hold it open
        buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)

    gaps = zip([bitmap_end] + [offset + length for offset, length in sections],
               [offset for offset, _ in sections] + [doc_table])
    for start, stop in gaps:
        if buf[start:stop].strip(b"\0"):
            raise FormatError("nonzero padding bytes between index sections")

    (norm_at, _), *band_sections = sections
    norms = np.frombuffer(buf, "<f8", count * len(dims), norm_at).reshape(count, len(dims))
    # computed tables are finite, non-negative and never shrink as m grows,
    # which keeps every funnel survivor usable at its re-rank dim
    if not (
        np.all(np.isfinite(norms)) and np.all(norms >= 0) and np.all(norms[:, :-1] >= norms[:, 1:])
    ):
        raise FormatError("invalid prefix norm table")
    edges = _band_edges(dims)
    bands = [
        np.frombuffer(buf, "<f4", count * (hi - lo), offset).reshape(count, hi - lo)
        for (offset, _), lo, hi in zip(band_sections, edges, edges[1:])
    ]
    ids, titles = _parse_doc_table(buf[doc_table:], count)
    return PrefixIndex._from_bands(ids, titles, bands, dims, degenerate, norms)


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
    """Exact serialized byte count implied by the format: header and bitmap,
    the norm table and the bands, each padded to 64 bytes, then the doc table."""
    doc = memory_footprint(index, index.dims.full).doc_table_bytes
    return _sections(index.count, index.dims)[1] + doc
