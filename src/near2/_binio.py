"""The header shared by the binary model and index files.

Both start (little-endian) with an 8-byte magic, a u32 format version, a few
format-specific fixed fields, then dims_count u16 and the dims as u32 each in
strictly descending order. `Reader` turns every short read or layout defect
into a `FormatError` that names the kind of file. `write_atomically` is how
both files are written.
"""

from __future__ import annotations

import contextlib
import math
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


class Reader:
    def __init__(self, fh, kind: str):
        self.fh = fh
        self.kind = kind
        self.size = os.fstat(fh.fileno()).st_size

    def exact(self, n: int, what: str) -> bytes:
        # checked against the file size first, so a corrupt length field
        # cannot ask for a huge read buffer
        data = self.fh.read(n) if n <= self.size - self.fh.tell() else b""
        if len(data) != n:
            raise FormatError(f"{self.kind} file truncated while reading {what}")
        return data

    def array(self, dtype: str, shape: tuple, what: str) -> np.ndarray:
        """The next bytes read straight into a new array of `shape`."""
        n = np.dtype(dtype).itemsize * math.prod(shape)
        # checked against the file size before allocating, as in `exact`
        if n > self.size - self.fh.tell():
            raise FormatError(f"{self.kind} file truncated while reading {what}")
        array = np.empty(shape, dtype)
        if self.fh.readinto(array.reshape(-1).view("u1")) != n:
            raise FormatError(f"{self.kind} file truncated while reading {what}")
        return array

    def skip(self, n: int, what: str) -> int:
        """Step over the next `n` bytes, which the file must hold; returns
        the offset they start at."""
        at = self.fh.tell()
        if n > self.size - at:
            raise FormatError(f"{self.kind} file truncated while reading {what}")
        self.fh.seek(n, os.SEEK_CUR)
        return at

    def unpack(self, fmt: str, what: str) -> tuple:
        fmt = "<" + fmt
        return struct.unpack(fmt, self.exact(struct.calcsize(fmt), what))

    def header(self, magic: bytes, version: int, fields: str, path, stale: str = "") -> tuple:
        """Check magic and version; returns the `fields` values that follow.

        `stale`, when given, is appended to the error for an older version.
        """
        if self.exact(len(magic), "magic") != magic:
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
        if self.fh.read(1):
            raise FormatError(f"trailing bytes after {what}")
