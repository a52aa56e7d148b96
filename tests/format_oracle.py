"""The index and model file layouts, stated apart from the library's writer
and reader, which walk the sections with one cursor and never compute an
offset. Tests locate, size and cut sections with these tables: each
`Section` names what the loader reads there, as its truncation message
says it ("index file truncated while reading norm table"; the ids and
titles blobs add "of row N").

An index file is its header fields, then the norm table, one band per dim
(ascending), the doc table offsets, the ids blob and the titles blob, each
of these after the zero bytes that pad it to a multiple of 64 from the start
of the file. A model file is its header fields, the seed, the feature table
and the projection, with no padding.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

ALIGN = 64


class Section(NamedTuple):
    what: str
    offset: int
    length: int

    @property
    def end(self) -> int:
        return self.offset + self.length


def _header(fields: int, dims_count: int) -> list[tuple[str, int]]:
    """Magic, the u32 version plus `fields` bytes of fixed fields, the dims."""
    return [("magic", 8), ("header", 4 + fields), ("dims count", 2), ("dims", 4 * dims_count)]


def _lay_out(header, body, align: int) -> list[Section]:
    sections, pos = [], 0
    for what, length in header:
        sections.append(Section(what, pos, length))
        pos += length
    for what, length in body:
        pos += -pos % align
        sections.append(Section(what, pos, length))
        pos += length
    return sections


def index_sections(count: int, dims, id_bytes: int = 0, title_bytes: int = 0) -> list[Section]:
    """Every section of an index file in file order, the header's included.
    Only the blob lengths move the blobs' ends; every offset is exact
    without them."""
    edges = dims.edges
    body = [("norm table", 8 * count * len(dims))]
    body += [("vector bands", 4 * count * (hi - lo)) for lo, hi in zip(edges, edges[1:])]
    body += [("doc table offsets", 16 * (count + 1)), ("id", id_bytes), ("title", title_bytes)]
    return _lay_out(_header(12, len(dims)), body, ALIGN)


def zero_row_index_file(dims) -> bytes:
    """A version 4 index file of no rows, well formed in every other way:
    its doc table offsets are the two zeros each column starts with."""
    header = b"NEAR2IDX" + struct.pack(f"<IIQH{len(dims)}I", 4, dims.full, 0, len(dims), *dims)
    return header + bytes(index_sections(0, dims)[-1].end - len(header))


def index_sections_of(index) -> list[Section]:
    return index_sections(index.count, index.dims, len(index.ids.blob), len(index.titles.blob))


def index_file_size(index) -> int:
    """Exact serialized byte count implied by the format."""
    return index_sections_of(index)[-1].end


def model_sections(model) -> list[Section]:
    """Every section of a model file in file order, the header's included."""
    h, d = model.feature_dim, model.full_dim
    body = [("seed", 8), ("feature table", 4 * model.bucket_count * h), ("projection", 4 * h * d)]
    return _lay_out(_header(12, len(model.dims)), body, 1)


def model_file_size(model) -> int:
    """Exact serialized byte count implied by the format."""
    return model_sections(model)[-1].end


def section_named(sections: list[Section], what: str) -> Section:
    """The first section named `what`."""
    return next(s for s in sections if s.what == what)
