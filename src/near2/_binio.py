"""The header shared by the binary model and index files, and how both are read.

Both start (little-endian) with an 8-byte magic, a u32 format version, a few
format-specific fixed fields, then dims_count u16 and the dims as u32 each in
strictly descending order. Both files are read the same way: `map_file` maps
the whole file read-only, and one `Reader` cursor parses that buffer once,
in file order, turning every short read or layout defect into a `FormatError`
that names the kind of file and what it was reading. `pad` steps over the
zero bytes that align the index file's sections. Arrays it returns are
read-only views of the map, so nothing is copied unless a caller converts
it. `write_atomically` is how both files are written.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import struct

import numpy as np

from .errors import FormatError
from .nested import DimSet


def pack_header(magic: bytes, version: int, fields: str, values, dims: DimSet) -> bytes:
    """Magic, version, the `fields` struct values, then the dims list."""
    return (
        magic
        + struct.pack("<I" + fields, version, *values)
        + struct.pack(f"<H{len(dims)}I", len(dims), *dims)
    )


def write_atomically(path, write) -> None:
    """Call `write(fh)` on a new file beside `path`, then rename it over `path`.

    A failed write leaves the old file as it was and no temporary file; a
    process that has the old file mapped keeps reading the old file's bytes,
    which overwriting it in place would change, or truncate, under the map.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def map_file(path):
    """The whole file at `path`, mapped read-only; `b""` for an empty file,
    which cannot be mapped. The map outlives the file handle: views of it
    hold it open."""
    with open(path, "rb") as fh:
        try:
            return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:  # an empty file
            return b""


class Reader:
    """A bounds-checked cursor over `buf`, the bytes of a `kind` file."""

    def __init__(self, buf, kind: str):
        self.buf = buf
        self.kind = kind
        self.pos = 0

    def take(self, n: int, what: str) -> int:
        """Step over the next `n` bytes, which `buf` must hold; returns the
        offset they start at."""
        at = self.pos
        if n > len(self.buf) - at:
            raise FormatError(f"{self.kind} file truncated while reading {what}")
        self.pos += n
        return at

    def array(self, dtype: str, shape: tuple, what: str) -> np.ndarray:
        """The next bytes as a read-only array of `shape`."""
        count = math.prod(shape)
        at = self.take(np.dtype(dtype).itemsize * count, what)
        return np.frombuffer(self.buf, dtype, count, at).reshape(shape)

    def pad(self, align: int) -> None:
        """Step over the zero bytes up to the next multiple of `align` from
        the start of the file. A file that ends inside them is reported by
        the next read."""
        n = -self.pos % align
        if self.buf[self.pos : self.pos + n].strip(b"\0"):
            raise FormatError("nonzero padding bytes between index sections")
        self.pos += n

    def unpack(self, fmt: str, what: str) -> tuple:
        fmt = "<" + fmt
        return struct.unpack_from(fmt, self.buf, self.take(struct.calcsize(fmt), what))

    def header(self, magic: bytes, version: int, fields: str, path, stale: str = "") -> tuple:
        """Check magic and version; returns the `fields` values that follow.

        `stale`, when given, is appended to the error for an older version.
        """
        if self.unpack(f"{len(magic)}s", "magic")[0] != magic:
            article = "an" if self.kind[0] in "aeiou" else "a"
            raise FormatError(f"not {article} {self.kind} file: {path}")
        found, *values = self.unpack("I" + fields, "header")
        if found != version:
            hint = f"; {stale}" if stale and found < version else ""
            raise FormatError(f"unsupported {self.kind} version {found}{hint}")
        return tuple(values)

    def dims(self, full_dim: int) -> DimSet:
        """The dims list, which must be valid and end at `full_dim`."""
        (count,) = self.unpack("H", "dims count")
        try:
            dims = DimSet(self.unpack(f"{count}I", "dims"))
        except ValueError as e:
            raise FormatError(f"bad dimension list: {e}") from None
        if dims.full != full_dim:
            raise FormatError("dimension list does not match full dimension")
        return dims

    def end(self, what: str) -> None:
        if self.pos != len(self.buf):
            raise FormatError(f"trailing bytes after {what}")
