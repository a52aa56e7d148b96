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
`FormatError`. The doc table is mapped too: ids and titles are each one
UTF-8 blob cut by offsets (`TextColumn`), checked whole at load and decoded
a row at a time, only for the hits a search returns.
"""

from __future__ import annotations

import contextlib
import mmap
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._binio import Reader, pack_header, write_atomically
from .encoder import CHUNK_TEXTS, EncoderModel, embed_bag, tokenize_many
from .encoder import encode  # unused here; bench/tracing.py wraps near2.index.encode
from .errors import DataError, FormatError, NumericalError, ZeroVectorError
from .nested import DimSet, NestedEmbedding, EPS_ZERO, l2_normalize, truncate

# Queries `query_scores` scores per pass. A panel's scores take 8 bytes per
# row and query, so panels stay small: evaluating 240 queries over 2.4k rows
# peaked at 60.5 MiB with panels of 32 (57.9 MiB one query at a time, 73.7
# MiB with one panel of 240), and panels of 16-64 ran about as fast.
PANEL_QUERIES = 32

INDEX_MAGIC = b"NEAR2IDX"
INDEX_VERSION = 3


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


class TextColumn(Sequence):
    """Row-indexable strings held as one UTF-8 blob and count + 1 offsets.

    Row r is blob[offsets[r]:offsets[r + 1]], decoded only when it is read.
    Built indexes hold the blob as bytes, loaded ones as a view of the map.
    """

    def __init__(self, offsets: np.ndarray, blob):
        self.offsets = offsets  # (count + 1,) uint64, ascending from 0 to len(blob)
        self.blob = blob

    @classmethod
    def of(cls, strings) -> "TextColumn":
        if isinstance(strings, TextColumn):
            return strings
        encoded = [s.encode("utf-8") for s in strings]
        offsets = np.zeros(len(encoded) + 1, dtype="<u8")
        np.cumsum(np.array([len(b) for b in encoded], dtype="<u8"), out=offsets[1:])
        return cls(offsets, b"".join(encoded))

    def __len__(self) -> int:
        return self.offsets.shape[0] - 1

    def __getitem__(self, row) -> str:
        row = range(len(self))[row]
        return str(self.blob[int(self.offsets[row]) : int(self.offsets[row + 1])], "utf-8")

    def take(self, rows: np.ndarray) -> list[str]:
        """The strings of an array of rows, in its order."""
        blob = self.blob
        starts, ends = self.offsets[rows].tolist(), self.offsets[rows + 1].tolist()
        return [str(blob[a:b], "utf-8") for a, b in zip(starts, ends)]

    @property
    def nbytes(self) -> int:
        """Serialized bytes: the offsets and the blob."""
        return self.offsets.nbytes + len(self.blob)


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
        """Without `norms`, the norm table is computed from the bands, and a
        row with a non-finite entry raises `NumericalError`."""
        degenerate = np.asarray(degenerate, dtype=bool)
        count = bands[0].shape[0]
        ids, titles = TextColumn.of(ids), TextColumn.of(titles)
        if len(ids) != count or len(titles) != count or degenerate.shape != (count,):
            raise ValueError("ids, titles, degenerate flags and matrix rows must align")
        self.bands = _kernels.Bands(bands)
        if norms is None:
            norms = np.stack(
                [np.sqrt(_kernels.prefix_sq_norms(self.bands, m)) for m in dims], axis=1
            )
            # a row's norm at D is finite exactly when all its entries are
            finite = np.isfinite(norms)
            if not finite.all():
                bad = count - np.count_nonzero(finite.all(axis=1))
                raise NumericalError(f"{bad} of {count} index rows are not finite as float32")
        for array in (*bands, norms, degenerate):
            array.setflags(write=False)
        self.ids = ids
        self.titles = titles
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


def build_index(model: EncoderModel, titles: list[tuple[str, str]]) -> PrefixIndex:
    """Embed titles in input order. Degenerate (empty-text) rows are stored but
    flagged and never returned by a search.

    Titles are tokenized `CHUNK_TEXTS` at a time, so memory stays flat in the
    corpus, and embedded one bag at a time by `embed_bag`, so every row equals
    `encode` of its title, bit for bit; a non-finite row raises ValueError as
    `encode` does. A finite row that overflows the index's float32 raises
    `NumericalError` from the norm table's check.
    """
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
    # overflow warns nothing: a row that is not finite in float64 is refused
    # here, one that overflows the float32 bands by the norm table's check
    with np.errstate(over="ignore"):
        for first in range(0, len(titles), CHUNK_TEXTS):
            chunk = [text for _, text in titles[first : first + CHUNK_TEXTS]]
            for row, bag in enumerate(tokenize_many(chunk, model.bucket_count), start=first):
                values = embed_bag(model, bag)[1]
                if not np.all(np.isfinite(values)):
                    raise ValueError("embedding values must be finite")
                for band, lo, hi in zip(bands, edges, edges[1:]):
                    band[row] = values[lo:hi]
                degenerate[row] = len(bag) == 0
    return PrefixIndex._from_bands(
        ids=[doc_id for doc_id, _ in titles],
        titles=[text for _, text in titles],
        bands=bands,
        dims=model.dims,
        degenerate=degenerate,
    )


def _top_hits(index: PrefixIndex, rows: np.ndarray, scores: np.ndarray, k: int) -> list[SearchHit]:
    if k < scores.size:
        # only rows scoring at least the k-th best can rank; sorting just
        # those keeps the full sort's order, lower-row tie-break included
        kth = np.partition(scores, scores.size - k)[scores.size - k]
        keep = np.flatnonzero(scores >= kth)
        rows, scores = rows[keep], scores[keep]
    order = np.lexsort((rows, -scores))[:k]
    rows, scores = rows[order], scores[order]
    return [
        SearchHit(row=row, doc_id=doc_id, score=score, rank=r)
        for r, (row, doc_id, score) in enumerate(
            zip(rows.tolist(), index.ids.take(rows), scores.tolist()), start=1
        )
    ]


def _unit_prefix(query: NestedEmbedding, m: int) -> np.ndarray:
    """The query's unit m-prefix; ZeroVectorError if it has none."""
    if query.degenerate:
        raise ZeroVectorError("cannot search with a degenerate (empty-text) query")
    try:
        return l2_normalize(truncate(query, m))
    except ZeroVectorError:
        raise ZeroVectorError(f"query has a zero-norm {m}-prefix") from None


def _scores(
    index: PrefixIndex, units: np.ndarray, m: int, rows: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(rows, prefix-m cosines) of the given searchable rows, or of every
    searchable row when `rows` is None, against a (q, m) panel of unit
    query prefixes; cosine [i, j] is row rows[i]'s with query j.

    The one scoring path, for a panel of one query (search, funnel) or of
    many (evaluation, histograms), with the same bits either way. A full
    scan reads every row and then drops the unsearchable ones (degenerate,
    or with a zero m-prefix). The loader does not check vectors, so this is
    where corrupt vector bytes are caught: exactly those the scan read.
    """
    dots = _kernels.prefix_dot_products(index.bands, units, m, rows)
    if not np.all(np.isfinite(dots)):
        raise FormatError(f"non-finite vector entries within the first {m} columns of the index")
    norms = index.prefix_norms(m)
    if rows is None:
        rows = np.flatnonzero(~index.degenerate & (norms > EPS_ZERO))
        dots = np.take(dots, rows, axis=0)  # about twice as fast as dots[rows]
    # the kernel's result is fresh, so the cosines can overwrite it
    np.divide(dots, np.take(norms, rows)[:, None], out=dots)
    return rows, np.clip(dots, -1.0, 1.0, out=dots)


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

    The one-query full scan behind search_exact, search_exact_with_min and
    min-normalization; `query_scores` gives the same arrays for many
    queries at a time. Every row is scanned; unsearchable rows are dropped
    from the result afterwards.
    """
    m = index.dims.require(m)
    query.dims.require(m)
    rows, scores = _scores(index, _unit_prefix(query, m)[None], m)
    return rows, scores[:, 0]


def query_scores(index: PrefixIndex, queries: Sequence[NestedEmbedding], m: int):
    """Yield all_scores(index, query, m) for each query in order, or None for
    a query that all_scores refuses: a degenerate one, or one whose m-prefix
    has zero norm.

    Scores `PANEL_QUERIES` queries per pass over the bands, bit for bit as
    all_scores scores each alone, so evaluation and histograms read the
    corpus once per panel instead of once per query.
    """
    m = index.dims.require(m)
    for first in range(0, len(queries), PANEL_QUERIES):
        panel = queries[first : first + PANEL_QUERIES]
        units = {}
        for j, query in enumerate(panel):
            query.dims.require(m)
            with contextlib.suppress(ZeroVectorError):
                units[j] = _unit_prefix(query, m)
        if units:
            rows, scores = _scores(index, np.stack(list(units.values())), m)
        columns = {j: column for column, j in enumerate(units)}
        for j in range(len(panel)):
            yield (rows, scores[:, columns[j]]) if j in columns else None


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
    rows, scores = _scores(index, _unit_prefix(query, m_high)[None], m_high, survivors)
    return _top_hits(index, rows, scores[:, 0], k)


@dataclass(frozen=True)
class MemoryFootprint:
    """Bytes needed to serve prefix-m queries (vectors) plus the doc table."""

    vector_bytes: int
    doc_table_bytes: int


def memory_footprint(index: PrefixIndex, m: int) -> MemoryFootprint:
    """count * m * 4 vector bytes for prefix m, and the doc table's size.

    The vector bytes are exactly the bands a prefix-m scan reads, since the
    bands are cut at the dims; the norm table adds count * 8 bytes per m.
    The doc table is both columns' offsets and UTF-8 blobs, without padding.
    """
    m = index.dims.require(m)
    doc_bytes = index.ids.nbytes + index.titles.nbytes
    return MemoryFootprint(vector_bytes=index.count * m * 4, doc_table_bytes=doc_bytes)


# --- persistence ----------------------------------------------------------------
#
# Layout (little-endian), version 3: magic "NEAR2IDX", version u32 = 3, D u32,
# count u64, dims_count u16 then dims u32 each (descending), degenerate-row
# bitmap of ceil(count/8) bytes (row r -> byte r>>3, bit r&7, LSB first,
# padding bits 0); then the norm table, count x dims_count float64 row-major
# (row r, column j = the norm of row r's first dims[j] entries); then one
# count x width float32 row-major band per dim in ascending order, band i
# holding columns [M_(i-1), M_i) with M_0 = 0 and M_i the i-th smallest dim;
# then the doc table: 2 x (count + 1) u64 offsets, the ids' then the titles',
# each ascending from 0 to its blob's length; the ids' UTF-8 blob; and the
# titles' UTF-8 blob, which ends the file. Row r's id is the ids blob's bytes
# [id_offsets[r], id_offsets[r + 1]), and likewise its title. Zero bytes pad
# every section but the last to a multiple of 64 bytes from the start of the
# file, so each can be memory-mapped as an aligned array. Versions 1 (one
# row-major count x D block, no norm table) and 2 (a length-prefixed id and
# title per row) are not read.

_ALIGN = 64


def _sections(
    count: int, dims: DimSet, id_bytes: int = 0, title_bytes: int = 0
) -> tuple[list[tuple[int, int]], int]:
    """(offset, length) of each section after the bitmap, and the file size.

    The sections in file order: the norm table, one band per dim, the doc
    table's offsets, the ids blob and the titles blob, which ends the file.
    """
    edges = _band_edges(dims)
    lengths = [8 * count * len(dims)] + [4 * count * (hi - lo) for lo, hi in zip(edges, edges[1:])]
    lengths += [16 * (count + 1), id_bytes, title_bytes]
    sections, pos = [], 8 + 16 + 2 + 4 * len(dims) + (count + 7) // 8
    for length in lengths:
        pos += -pos % _ALIGN
        sections.append((pos, length))
        pos += length
    return sections, pos


def save_index(index: PrefixIndex, path) -> None:
    """Write the index beside `path`, then rename it over `path`.

    A process that has the old file mapped keeps reading the old file's bytes.
    """
    write_atomically(path, lambda fh: _write_index(index, fh))


def _write_index(index: PrefixIndex, fh) -> None:
    header_fields = (index.dims.full, index.count)
    fh.write(pack_header(INDEX_MAGIC, INDEX_VERSION, "IQ", header_fields, index.dims))
    fh.write(np.packbits(index.degenerate, bitorder="little").tobytes())
    ids, titles = index.ids, index.titles
    sections, _ = _sections(index.count, index.dims, len(ids.blob), len(titles.blob))
    arrays = [index._norms.astype("<f8", copy=False)]
    arrays += [band.astype("<f4", copy=False) for band in index.bands.arrays]
    arrays += [np.concatenate([ids.offsets, titles.offsets]).astype("<u8", copy=False)]
    arrays += [np.frombuffer(ids.blob, np.uint8), np.frombuffer(titles.blob, np.uint8)]
    for (offset, _), array in zip(sections, arrays):
        fh.write(bytes(offset - fh.tell()))
        fh.write(np.ascontiguousarray(array))


def load_index(path) -> PrefixIndex:
    """Read an index back; any structural defect raises before an index exists.

    The bands and the doc table stay memory-mapped; non-finite vector entries
    are found by the scan that reads them (see `_scores`). Every id and
    title is checked to be valid UTF-8 here, but decoded only when read.
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
        offsets_at, offsets_length = _sections(count, dims)[0][-3]
        if reader.size < offsets_at + offsets_length:
            raise FormatError(
                "index file truncated while reading norm table, vector bands and doc table offsets"
            )
        # the map outlives `fh`: the arrays below hold it open
        buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)

    offsets = np.frombuffer(buf, "<u8", 2 * (count + 1), offsets_at).reshape(2, count + 1)
    if not (np.all(offsets[:, 0] == 0) and np.all(offsets[:, 1:] >= offsets[:, :-1])):
        raise FormatError("doc table offsets must ascend from 0")
    id_offsets, title_offsets = offsets
    sections, size = _sections(count, dims, int(id_offsets[-1]), int(title_offsets[-1]))
    for what, column_offsets, (at, length) in (
        ("id", id_offsets, sections[-2]), ("title", title_offsets, sections[-1])
    ):
        if length and len(buf) < at + length:
            # the first row whose bytes run past the end of the file
            row = np.searchsorted(column_offsets[1:], max(len(buf) - at, 0), side="right")
            raise FormatError(f"index file truncated while reading {what} of row {row}")
    if len(buf) != size:
        raise FormatError(
            "index file truncated while reading doc table" if len(buf) < size
            else "trailing bytes after doc table"
        )

    gaps = zip([bitmap_end] + [offset + length for offset, length in sections],
               [offset for offset, _ in sections])
    for start, stop in gaps:
        if buf[start:stop].strip(b"\0"):
            raise FormatError("nonzero padding bytes between index sections")

    (norm_at, _), *band_sections = sections[:-3]
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
    ids = _text_column(buf, id_offsets, sections[-2], "id")
    titles = _text_column(buf, title_offsets, sections[-1], "title")
    return PrefixIndex._from_bands(ids, titles, bands, dims, degenerate, norms)


def _text_column(buf, offsets: np.ndarray, section: tuple[int, int], what: str) -> TextColumn:
    """The column over a mapped blob whose every row is valid UTF-8.

    The whole blob decodes, and no offset but the end falls on a UTF-8
    continuation byte, so every row's slice starts and ends on a character
    boundary and decodes too.
    """
    at, length = section
    blob = memoryview(buf)[at : at + length]
    try:
        str(blob, "utf-8")
    except UnicodeDecodeError as e:
        row = np.searchsorted(offsets[1:], e.start, side="right")
        raise FormatError(f"{what} of row {row} is not valid UTF-8") from None
    inner = offsets[offsets < length]  # ascending, so a prefix of `offsets`
    cut = np.flatnonzero(np.frombuffer(blob, np.uint8)[inner] & 0xC0 == 0x80)
    if cut.size:
        # offsets[cut[0]] splits a character, and the row before it ends there
        raise FormatError(f"{what} of row {cut[0] - 1} is not valid UTF-8")
    return TextColumn(offsets, blob)


def index_file_size(index: PrefixIndex) -> int:
    """Exact serialized byte count implied by the format: header and bitmap,
    then every section, each but the last padded to 64 bytes."""
    return _sections(index.count, index.dims, len(index.ids.blob), len(index.titles.blob))[1]
