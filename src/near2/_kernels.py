"""Corpus-scan kernels: prefix dot products and prefix squared norms.

Contract: float32 corpus rows, float64 accumulation, and a row's result
depends only on that row's data, the prefix length m and the band cuts --
never on which other rows take part in a call or in what order they are
passed. Search, funnel re-ranking, evaluation and histograms all score
through here, so a row scored in a shortlist gets exactly the bits it gets
in a full scan.

A corpus is a plain (count, D) array or `Bands`, the same rows stored as
contiguous column bands. A prefix-m result is the sum, in band order, of one
float64 result per band that the prefix covers, so a scan reads only the
bands under its m. Within a band each row is reduced by `einsum` over its own
entries, in an order fixed by the band width alone; `dtype=float64` widens
the float32 entries as they are read. BLAS `@` (gemv) is not used: it groups
rows and splits the reduction differently depending on how many rows it is
given and where they sit, so a row's bits would depend on its neighbours.
"""

import numpy as np

# Rows gathered per block when a selection is given. Blocking bounds the
# copy of the gathered prefixes; it cannot change a result because every
# row is reduced on its own.
_BLOCK = 1024


class Bands:
    """A (count, D) float32 matrix held as column bands, in column order.

    Each band is a (count, width) array; band i holds the columns that follow
    those of bands 0..i-1.
    """

    def __init__(self, arrays):
        self.arrays = tuple(arrays)
        self.shape = (self.arrays[0].shape[0], sum(a.shape[1] for a in self.arrays))


def _prefix_parts(matrix, m):
    """(band, first column, width used) of each band under the first m columns."""
    parts, start = [], 0
    for band in matrix.arrays if isinstance(matrix, Bands) else (matrix,):
        if start >= m:
            break
        width = min(band.shape[1], m - start)
        parts.append((band, start, width))
        start += width
    return parts


def _band_sum(parts, reduce_band):
    out = None
    for part in parts:
        result = reduce_band(*part)
        out = result if out is None else np.add(out, result, out=out)
    return out


def prefix_dot_products(matrix, query, m, row_indices=None):
    """float64 dot of each (selected) row's first m entries with `query`.

    `matrix` is a (count, D) float32 array or `Bands`, `query` a float64
    vector of length m, `row_indices` an optional int64 selection evaluated
    in the given order.
    """
    query = np.ascontiguousarray(query, dtype=np.float64)
    parts = _prefix_parts(matrix, m)

    def dots(rows):
        return _band_sum(parts, lambda band, start, width: np.einsum(
            "ij,j->i", band[rows, :width], query[start : start + width], dtype=np.float64))

    if row_indices is None:
        return dots(slice(None))
    row_indices = np.asarray(row_indices, dtype=np.intp)
    out = np.empty(row_indices.shape[0])
    for start in range(0, row_indices.shape[0], _BLOCK):
        block = row_indices[start : start + _BLOCK]
        out[start : start + block.shape[0]] = dots(block)
    return out


def prefix_sq_norms(matrix, m):
    """float64 squared L2 norm of each row's first m entries, summed band by band."""
    def sq_norms(band, start, width):
        prefix = band[:, :width]
        return np.einsum("ij,ij->i", prefix, prefix, dtype=np.float64)

    return _band_sum(_prefix_parts(matrix, m), sq_norms)
