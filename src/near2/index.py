"""Persistent prefix-readable embedding index and exact top-k cosine search.

One unnormalized float32 matrix serves every nested dimension. It is held as
contiguous column bands cut at the nested dims (for dims 768..64:
[0:64), [64:128), [128:256), [256:512), [512:768)), next to a table of every
row's prefix norm at every dim. Searching at a prefix m reads only the bands
under m and that table's column for m, so a smaller prefix costs
proportionally less memory traffic, which is the whole efficiency story.
That column alone decides which rows a prefix-m search may return: those
whose m-prefix norm exceeds EPS_ZERO. An empty-text (degenerate) row is
stored as zeros, so its norm is 0 at every m and it is never returned.

Results are exact. Every ranking goes through `top_k`: for a (q, m) panel
of unit query prefixes it runs one float32 BLAS bound pass over the bands
under m, whose approximate cosines are certified to lie within a small eps
of the exact ones; only the (query, row) pairs whose row could reach that
query's top k (or, for the corpus minimum, the bottom) given that eps are
then scored, all in one call of the exact float64 scorer `_scores`, pair by
pair, and one sort ranks every query of the panel. A panel of one query
(every search, exact or funnel) is the one exception, decided in `top_k`
alone: it scores its candidates as rows, with no pairs, which keeps a search
from paying the pair kernel's per-band query gather. So hits, ranks, score
bits and minimum are a full scan's. Search, the funnel and evaluation rank
through `top_k`; histograms, which need every score, run `_scores` over
every row for each panel `query_panels` yields.

A loaded index memory-maps its bands, so a search reads from disk only the
bands (and, for a funnel's re-rank, the shortlist rows) it scores. Loading
validates the norm table's shape (finite, non-negative, non-increasing as m
falls) but not the vectors: a non-finite vector entry is caught when a scan
reads it, as a non-finite dot product, and raises `FormatError`. Nor is the
norm table checked against the bands, so it is trusted: a file with altered
norms loads, and the rows they affect silently drop out of searches (a norm
of 0) or rank wrongly. Checking it would read every band under each m,
which a search at a small m exists to avoid. The doc table is mapped too:
ids and titles are each one UTF-8 blob cut by offsets (`TextColumn`),
checked whole at load and decoded a row at a time, only for the hits a
search returns.
"""

from __future__ import annotations

import contextlib
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._binio import Reader, map_file, pack_header, write_atomically
from .encoder import CHUNK_TEXTS, EncoderModel, embed_bag, tokenize_many
from .encoder import encode  # unused here; bench/tracing.py wraps near2.index.encode
from .errors import DataError, FormatError, NumericalError, ZeroVectorError
from .nested import DimSet, NestedEmbedding, EPS_ZERO, l2_normalize, truncate

# Queries per panel from `query_panels`, for `top_k`'s bound pass and the
# histograms' full scan. Either pass holds float64 arrays of one entry per
# row and query, so panels stay small: a full scan of 240 queries over 2.4k
# rows peaked at 60.5 MiB with panels of 32 (57.9 MiB one query at a time,
# 73.7 MiB with one panel of 240), and panels of 16-64 ran about as fast.
PANEL_QUERIES = 32

INDEX_MAGIC = b"NEAR2IDX"
INDEX_VERSION = 4


@dataclass(frozen=True)
class SearchHit:
    """One retrieved row: 1-based rank, ties broken by ascending row index."""

    row: int
    doc_id: str
    score: float
    rank: int


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

    def __getitem__(self, row) -> str | list[str]:
        if isinstance(row, slice):
            return self.take(np.arange(len(self))[row])
        row = range(len(self))[row]
        return str(self.blob[int(self.offsets[row]) : int(self.offsets[row + 1])], "utf-8")

    def take(self, rows) -> list[str]:
        """The strings of a sequence of rows, in its order; each row is read
        as `self[row]` reads it: a negative row counts from the end, and one
        out of range raises IndexError."""
        rows, blob, offsets = np.asarray(rows, dtype=np.intp), self.blob, self.offsets
        starts, ends = offsets[:-1][rows].tolist(), offsets[1:][rows].tolist()
        return [str(blob[a:b], "utf-8") for a, b in zip(starts, ends)]

    @property
    def nbytes(self) -> int:
        """Serialized bytes: the offsets and the blob."""
        return self.offsets.nbytes + len(self.blob)


class PrefixIndex:
    """Immutable corpus of (id, title, embedding row), searchable at any m in M."""

    def __init__(
        self,
        ids: Sequence[str],
        titles: Sequence[str],
        bands: Sequence[np.ndarray],
        dims: DimSet,
        norms: np.ndarray | None = None,
    ):
        """An index over the (count, D) float32 rows cut into column bands at
        `dims.edges`, held as given. Without `norms`, the norm table is
        computed from the bands, and a row with a non-finite entry raises
        `NumericalError`."""
        edges, count = dims.edges, bands[0].shape[0]
        if len(bands) != len(edges) - 1 or any(
            band.dtype != np.float32 or band.shape != (count, hi - lo)
            for band, lo, hi in zip(bands, edges, edges[1:])
        ):
            raise ValueError(f"bands must be float32 arrays of {count} rows cut at columns {edges}")
        ids, titles = TextColumn.of(ids), TextColumn.of(titles)
        if len(ids) != count or len(titles) != count:
            raise ValueError("ids, titles and band rows must align")
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
        for array in (*bands, norms):
            array.setflags(write=False)
        self.ids = ids
        self.titles = titles
        self.dims = dims
        # count x |M| float64; column j holds every row's prefix norm at dims[j]
        self._norms = norms
        self._searchable_at: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def count(self) -> int:
        return self.bands.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """The (count, D) float32 rows, assembled from the bands on each call."""
        matrix = np.hstack(self.bands.arrays)
        matrix.setflags(write=False)
        return matrix

    @property
    def degenerate(self) -> np.ndarray:
        """Whether each row is all zeros, as an empty text embeds; computed
        from the norm table on each call. Searches never read it: such a row
        has norm 0 at every m, which alone keeps it out of every search."""
        return self._norms[:, 0] == 0.0

    def prefix_norms(self, m: int) -> np.ndarray:
        m = self.dims.require(m)
        return self._norms[:, self.dims.dims.index(m)]

    def _searchable(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """(mask, ascending rows) of the rows a prefix-m search may return:
        those with an m-prefix norm above EPS_ZERO."""
        if m not in self._searchable_at:
            mask = self.prefix_norms(m) > EPS_ZERO
            self._searchable_at[m] = mask, np.flatnonzero(mask)
        return self._searchable_at[m]


def build_index(model: EncoderModel, titles: list[tuple[str, str]]) -> PrefixIndex:
    """Embed titles in input order. Degenerate (empty-text) rows are stored as
    zero rows, never searchable: their prefix norm is 0 at every m.

    Titles are tokenized `CHUNK_TEXTS` at a time, so memory stays flat in the
    corpus, and embedded one bag at a time by `embed_bag`, so every row equals
    `encode` of its title, bit for bit, and `embed_bag` refuses a non-finite
    row as it does for `encode`: `FormatError` naming the model file when a
    title gathers a corrupt row of a loaded model's table. A finite row that
    overflows the index's float32 raises `NumericalError` from the norm
    table's check.
    """
    if not titles:
        raise DataError("cannot build an index from zero titles")
    seen: set[str] = set()
    for doc_id, _ in titles:
        if doc_id in seen:
            raise DataError(f"duplicate document id: {doc_id!r}")
        seen.add(doc_id)
    edges = model.dims.edges
    bands = [np.empty((len(titles), hi - lo), dtype=np.float32) for lo, hi in zip(edges, edges[1:])]
    # overflow and inf - inf warn nothing: a row that is not finite in float64
    # is refused by `embed_bag`, one that overflows the float32 bands by the
    # norm table's check
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, len(titles), CHUNK_TEXTS):
            chunk = [text for _, text in titles[first : first + CHUNK_TEXTS]]
            for row, bag in enumerate(tokenize_many(chunk, model.bucket_count), start=first):
                values = embed_bag(model, bag)
                for band, lo, hi in zip(bands, edges, edges[1:]):
                    band[row] = values[lo:hi]
    return PrefixIndex(
        ids=[doc_id for doc_id, _ in titles],
        titles=[text for _, text in titles],
        bands=bands,
        dims=model.dims,
    )


def _unit_prefix(query: NestedEmbedding, m: int) -> np.ndarray:
    """The query's unit m-prefix; ZeroVectorError if it has none."""
    if query.degenerate:
        raise ZeroVectorError("cannot search with a degenerate (empty-text) query")
    try:
        return l2_normalize(truncate(query, m))
    except ZeroVectorError:
        raise ZeroVectorError(f"query has a zero-norm {m}-prefix") from None


def _scores(
    index: PrefixIndex,
    units: np.ndarray,
    m: int,
    rows: np.ndarray | None = None,
    queries: np.ndarray | None = None,
) -> tuple[np.ndarray, ...]:
    """(rows, prefix-m cosines) of the searchable rows among `rows`, or among
    every row when `rows` is None, against a (q, m) panel of unit query
    prefixes; cosine [i, j] is row rows[i]'s with query j. Given `queries`
    too, rows and queries are (row, query) pairs, and the result is
    (rows, queries, cosines) of the pairs whose row is searchable, cosine i
    being pair i's.

    The one exact scoring path, for a panel of one query (search, funnel),
    of many (histograms) or for the pairs of a panel's candidates
    (evaluation), with the same bits for a (row, query) every way. Every
    row asked for is read, and the unsearchable ones (with a zero m-prefix,
    degenerate rows among them) are dropped afterwards. The loader does not
    check vectors, so this is where corrupt vector bytes are caught:
    exactly those the scan read.
    """
    with np.errstate(invalid="ignore"):  # inf - inf across bands: caught below
        dots = _kernels.prefix_dot_products(index.bands, units, m, rows, queries)
    if not np.all(np.isfinite(dots)):
        raise FormatError(f"non-finite vector entries within the first {m} columns of the index")
    mask, searchable = index._searchable(m)
    if rows is None:
        rows = keep = searchable
    else:
        keep = np.flatnonzero(mask[rows])
        rows = rows[keep]
    dots = np.take(dots, keep, axis=0)  # about twice as fast as dots[keep]
    norms = np.take(index.prefix_norms(m), rows)
    np.divide(dots, norms if queries is not None else norms[:, None], out=dots)
    np.clip(dots, -1.0, 1.0, out=dots)
    return (rows, dots) if queries is None else (rows, queries[keep], dots)


def _candidates(
    index: PrefixIndex, units: np.ndarray, m: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """(queries, rows): the (query, row) pairs of a (q, m) panel of unit
    prefixes that `_scores` must score for each query's exact top k and
    minimum, in query-major order with ascending rows within a query, for a
    panel of any size (`top_k` decides how a panel of one is scored). A
    query's rows are every searchable row whose exact cosine reaches the
    k-th best, ties included; a row of the lowest exact cosine; and every
    row, searchable or not, that may hold a non-finite entry, so that
    scoring the candidates raises `FormatError` exactly when a full scan
    would.

    One float32 bound pass (`_kernels.float32_prefix_dots`), read as its
    query-major (q, count) transpose, gives every row an approximate cosine
    c~ within eps of its exact one c (`_kernels.float32_cosine_slack`, for
    the norms above EPS_ZERO that searchable rows have); each query's k-th
    largest and smallest c~ are taken along its own contiguous row. The
    candidates are the searchable rows with c~ >= (k-th largest c~) - 2 eps
    or c~ <= (smallest c~) + 2 eps; a row of the exact top k has
    c~ >= c - eps >= (k-th largest c) - eps >= (k-th largest c~) - 2 eps,
    and likewise for the minimum. A row whose bound-pass dot is not finite
    (a non-finite entry, or a float32 overflow) is always a candidate and
    takes no part in the k-th largest or the smallest c~; when k reaches
    the number of searchable rows, the k-th largest c~ is the smallest or
    -inf, so every searchable row is a candidate. The exact score of a pair
    does not depend on the other pairs, so the top k, its bits and the
    minimum are those of a full scan.
    """
    approx = _kernels.float32_prefix_dots(index.bands, units, m).T
    # unsearchable rows may divide by a zero norm; they are masked out
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = approx / index.prefix_norms(m)
    valid = np.isfinite(cos) & index._searchable(m)[0]
    everywhere = valid.all()
    top = cos if everywhere else np.where(valid, cos, -np.inf)
    at = max(cos.shape[1] - k, 0)
    kth = np.partition(top, at, axis=1)[:, at]
    eps = _kernels.float32_cosine_slack(index.bands, m, EPS_ZERO)
    low = (cos if everywhere else np.where(valid, cos, np.inf)).min(axis=1)
    near = (top >= (kth - 2.0 * eps)[:, None]) | (cos <= (low + 2.0 * eps)[:, None])
    picked = (near & valid) | ~np.isfinite(approx)
    # np.nonzero's pairs and order, about 10x faster on a (32, 2,400) panel
    return np.divmod(np.flatnonzero(picked), picked.shape[1])


def top_k(
    index: PrefixIndex, units: np.ndarray, m: int, k: int, rows: np.ndarray | None = None
) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """For each query of a (q, m) panel of unit prefixes, (rows, scores,
    minimum): the query's exact top k by prefix-m cosine in rank order, ties
    broken toward the lower row, and its lowest exact cosine, NaN when no
    row is searchable.

    The one search path. One float32 bound pass over the whole panel picks
    the (query, row) pairs to score (`_candidates`), and one `_scores` call
    scores only those, so rows, score bits and minimum are a full scan's,
    and `FormatError` is raised exactly when a full scan raises it. Given
    `rows`, in any order, the panel must be of one query: only those rows
    are scored, with no bound pass, and its top k and minimum are among
    them.

    This is the one place that decides how a panel is scored. A panel of
    one is scored as rows, not pairs, and sorted on (-score, row). A larger
    panel is scored as pairs, and one stable sort keyed on (query, -score),
    over pairs whose rows ascend within each query, ranks every query at
    once with ties broken toward the lower row; each query's minimum is
    taken over its own segment of the scores.
    """
    if rows is None:
        queries, rows = _candidates(index, units, m, k)
    if len(units) == 1:
        found, scores = _scores(index, units, m, rows)
        scores = scores[:, 0]
        # about k + 1 candidates (or a funnel's shortlist): sorting all is cheap
        order, starts = np.lexsort((found, -scores)), [0, len(found)]
    else:
        found, queries, scores = _scores(index, units, m, rows, queries)
        # complex numbers sort by real part, then imaginary part: one stable
        # sort on (query, -score), which keeps the ascending rows of a query
        # in order where scores tie (at 76,800 pairs, about 40% faster than a
        # three-key np.lexsort)
        key = np.empty(len(scores), np.complex128)
        key.real, key.imag = queries, -scores
        order = np.argsort(key, kind="stable")
        starts = np.searchsorted(queries, np.arange(len(units) + 1)).tolist()
    ranked = []
    for a, b in zip(starts, starts[1:]):
        best = order[a : min(a + k, b)]
        low = float(scores[a:b].min()) if b > a else float("nan")
        ranked.append((found[best], scores[best], low))
    return ranked


def _hits(index: PrefixIndex, rows: np.ndarray, scores: np.ndarray) -> list[SearchHit]:
    """The hits of rows and scores in rank order, ids decoded."""
    return [
        SearchHit(row=row, doc_id=doc_id, score=score, rank=r)
        for r, (row, doc_id, score) in enumerate(
            zip(rows.tolist(), index.ids.take(rows), scores.tolist()), start=1
        )
    ]


def search_exact(index: PrefixIndex, query: NestedEmbedding, m: int, k: int) -> list[SearchHit]:
    """Exact top-k by prefix cosine over all searchable rows.

    Deterministic: ties break toward the lower row index; asking for more
    hits than there are searchable rows returns them all. The hits are
    `top_k`'s for a panel of this one query, so they and their score bits
    are a full scan's.
    """
    hits, _ = search_exact_with_min(index, query, m, k)
    return hits


def search_exact_with_min(
    index: PrefixIndex, query: NestedEmbedding, m: int, k: int
) -> tuple[list[SearchHit], float]:
    """search_exact plus the minimum similarity over the scanned corpus.

    The corpus minimum anchors min-normalized score reporting without paying
    for a second scan: the candidates include the rows that may hold the
    lowest cosine, so the minimum is a full scan's exact one. It is NaN when
    no row is searchable.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    m = index.dims.require(m)
    query.dims.require(m)
    ((rows, scores, low),) = top_k(index, _unit_prefix(query, m)[None], m, k)
    return _hits(index, rows, scores), low


def query_panels(index: PrefixIndex, queries: Sequence[NestedEmbedding], m: int):
    """Yield (positions, units) for each `PANEL_QUERIES` queries in order:
    the positions in `queries` of those with a usable m-prefix and the
    (q, m) panel of their unit prefixes. A degenerate query, or one whose
    m-prefix has zero norm, is left out; a panel with none is not yielded.
    """
    m = index.dims.require(m)
    for first in range(0, len(queries), PANEL_QUERIES):
        positions, units = [], []
        for j in range(first, min(first + PANEL_QUERIES, len(queries))):
            queries[j].dims.require(m)
            with contextlib.suppress(ZeroVectorError):
                units.append(_unit_prefix(queries[j], m))
                positions.append(j)
        if units:
            yield positions, np.stack(units)


def search_funnel(
    index: PrefixIndex,
    query: NestedEmbedding,
    m_low: int,
    m_high: int,
    shortlist_size: int,
    k: int,
) -> list[SearchHit]:
    """Two-stage coarse-to-fine search: shortlist at m_low, re-rank at m_high.

    Stage 1 takes the rows of the top `shortlist_size` by cosine at m_low
    from `top_k`, whose float32 bound pass reads every band under m_low and
    whose exact scorer scores only its candidates; stage 2 re-scores only
    the shortlist at m_high, exactly, through `top_k` given those rows, and
    returns the top k with m_high scores. With a shortlist covering the
    whole corpus this is exactly search_exact at m_high. Rows whose m_low
    prefix is degenerate are unreachable, an inherent property of funnel
    search.
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

    ((shortlist, _, _),) = top_k(index, _unit_prefix(query, m_low)[None], m_low, shortlist_size)
    # prefix norms never shrink as m grows, so every survivor is usable at m_high
    unit = _unit_prefix(query, m_high)[None]
    ((rows, scores, _),) = top_k(index, unit, m_high, k, shortlist)
    return _hits(index, rows, scores)


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
# Layout (little-endian), version 4: magic "NEAR2IDX", version u32 = 4, D u32,
# count u64 (at least 1), dims_count u16 then dims u32 each (descending); then
# the norm table, count x dims_count float64 row-major (row r, column j = the
# norm of row r's first dims[j] entries), whose zeros mark the degenerate rows;
# then one count x width float32 row-major band per dim in ascending order,
# band i holding columns [M_(i-1), M_i) with M_0 = 0 and M_i the i-th smallest
# dim; then the doc table: 2 x (count + 1) u64 offsets, the ids' then the
# titles', each ascending from 0 to its blob's length; the ids' UTF-8 blob; and
# the titles' UTF-8 blob, which ends the file. Row r's id is the ids blob's
# bytes [id_offsets[r], id_offsets[r + 1]), and likewise its title. Zero bytes
# before each section after the dims pad it to start at a multiple of 64 bytes
# from the start of the file, so each can be memory-mapped as an aligned
# array. `_write_index` writes, and `load_index` reads, the sections in this
# order, each padding worked out from the position reached. Versions 1 (one
# row-major count x D block, no norm table), 2 (a length-prefixed id and
# title per row) and 3 (a degenerate-row bitmap after the dims, which
# repeated the zero norms) are not read.

_ALIGN = 64


def save_index(index: PrefixIndex, path) -> None:
    """Write the index beside `path`, then rename it over `path`.

    A process that has the old file mapped keeps reading the old file's bytes.
    """
    write_atomically(path, lambda fh: _write_index(index, fh))


def _write_index(index: PrefixIndex, fh) -> None:
    header_fields = (index.dims.full, index.count)
    fh.write(pack_header(INDEX_MAGIC, INDEX_VERSION, "IQ", header_fields, index.dims))
    ids, titles = index.ids, index.titles
    arrays = [index._norms.astype("<f8", copy=False)]
    arrays += [band.astype("<f4", copy=False) for band in index.bands.arrays]
    arrays += [np.concatenate([ids.offsets, titles.offsets]).astype("<u8", copy=False)]
    arrays += [np.frombuffer(ids.blob, np.uint8), np.frombuffer(titles.blob, np.uint8)]
    for array in arrays:
        fh.write(bytes(-fh.tell() % _ALIGN))
        fh.write(np.ascontiguousarray(array))


def load_index(path) -> PrefixIndex:
    """Read an index back; any structural defect raises before an index exists.

    The file is mapped, and one `Reader` parses it in file order: the header
    and dims, then each section after its zero padding, taken as a view of
    the map. A file that ends early raises naming the section it ends in;
    one that holds no rows, or bytes after the titles blob, raises too.
    The bands and the doc table stay mapped; non-finite vector entries are
    found by the scan that reads them (see `_scores`). Every id and title is
    checked to be valid UTF-8 here, but decoded only when read. The norm
    table is checked to be finite, non-negative and non-increasing as m
    falls, but not against the bands, which would read them all: altered
    norms load, and the rows they affect silently drop out of searches or
    rank wrongly.
    """
    reader = Reader(map_file(path), "index")
    full_dim, count = reader.header(
        INDEX_MAGIC, INDEX_VERSION, "IQ", path,
        stale="re-run `near2 index` to rebuild it in the current format",
    )
    dims = reader.dims(full_dim)
    if count == 0:
        raise FormatError("index file holds no rows")
    reader.pad(_ALIGN)
    norms = reader.array("<f8", (count, len(dims)), "norm table")
    # computed tables are finite, non-negative and never shrink as m grows,
    # which keeps every funnel survivor usable at its re-rank dim
    if not (
        np.all(np.isfinite(norms)) and np.all(norms >= 0) and np.all(norms[:, :-1] >= norms[:, 1:])
    ):
        raise FormatError("invalid prefix norm table")
    edges, bands = dims.edges, []
    for lo, hi in zip(edges, edges[1:]):
        reader.pad(_ALIGN)
        bands.append(reader.array("<f4", (count, hi - lo), "vector bands"))
    reader.pad(_ALIGN)
    offsets = reader.array("<u8", (2, count + 1), "doc table offsets")
    if not (np.all(offsets[:, 0] == 0) and np.all(offsets[:, 1:] >= offsets[:, :-1])):
        raise FormatError("doc table offsets must ascend from 0")
    ids = _text_column(reader, offsets[0], "id")
    titles = _text_column(reader, offsets[1], "title")
    reader.end("doc table")
    return PrefixIndex(ids, titles, bands, dims, norms)


def _text_column(reader: Reader, offsets: np.ndarray, what: str) -> TextColumn:
    """The column over the next mapped blob, after its padding, whose every
    row is valid UTF-8.

    A blob the file cuts short raises naming the first row whose bytes run
    past the end. The whole blob decodes, and no offset but the end falls on
    a UTF-8 continuation byte, so every row's slice starts and ends on a
    character boundary and decodes too.
    """
    reader.pad(_ALIGN)
    length, left = int(offsets[-1]), len(reader.buf) - reader.pos
    if length and length > left:
        row = np.searchsorted(offsets[1:], max(left, 0), side="right")
        raise FormatError(f"index file truncated while reading {what} of row {row}")
    at = reader.take(length, "doc table")  # raises only for an empty blob past the end
    blob = memoryview(reader.buf)[at : at + length]
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
