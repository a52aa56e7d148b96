"""Corpus-scan kernels: prefix dot products and prefix squared norms.

Contract: float32 corpus rows, float64 accumulation, and a (row, query)
result depends only on that row's data, that query, the prefix length m and
the band cuts -- never on which other rows take part in a call, in what
order they are passed, or which other queries share the call. Search,
funnel re-ranking, evaluation and histograms all score through here, so a
row scored in a shortlist or in a panel of queries gets exactly the bits it
gets alone in a full scan.

A corpus is a plain (count, D) array or `Bands`, the same rows stored as
contiguous column bands. A prefix-m result is the sum, in band order, of one
float64 result per band that the prefix covers, so a scan reads only the
bands under its m. Within a band each (row, query) pair is reduced by
`einsum` over the row's own entries, in an order fixed by the band width
alone.

Queries come one at a time or as a panel, a (q, m) block that one pass over
the rows scores together; evaluation and histograms score their judged
queries in panels. One query is reduced by `einsum("ij,j->i")` with
`dtype=float64`, which widens the float32 entries as it reads them. A panel
casts each block of `_BLOCK` rows to float64 once, and `einsum("ij,qj->iq")`
reduces every query of the panel against that copy. Both run the same
contiguous sum over a row's entries, and a float32 entry widens exactly, so
a (row, query) score has the same bits in a panel of any size as alone;
the panel saves the widening of each entry for every query but the first.

BLAS (`@`, `dot`, `matmul`) is not used. It groups rows and splits the
reduction by the shape of the call: with OpenBLAS 0.3.31 on one thread, a
(row, query) product of a 256-column float64 block changed its bits with the
number of rows in the call (1, 3, 4, 7, 256 and 4096 rows each differed from
1000) and between a one-query gemv and a gemm, and no BLAS product had the
bits of the einsum sums. A row's bits would then depend on its neighbours.
"""

import numpy as np

# Rows per block when rows are gathered by a selection or cast for a panel.
# Blocking bounds those copies (a 256-column band's float64 block is 512 KiB);
# it cannot change a result because every (row, query) pair is reduced on
# its own.
_BLOCK = 256


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
    """float64 dot of each (selected) row's first m entries with each query.

    `matrix` is a (count, D) float32 array or `Bands`; `query` is a float64
    vector of length m, giving one dot per row, or a (q, m) panel, giving a
    (rows, q) array whose column j holds query j's dots. `row_indices` is an
    optional int64 selection evaluated in the given order.
    """
    query = np.ascontiguousarray(query, dtype=np.float64)
    panel = query.reshape(-1, m)
    parts = _prefix_parts(matrix, m)
    cast = panel.shape[0] > 1

    def dots(rows):
        def band_dots(band, start, width):
            block, queries = band[rows, :width], panel[:, start : start + width]
            if cast:
                return np.einsum("ij,qj->iq", block.astype(np.float64), queries)
            return np.einsum("ij,j->i", block, queries[0], dtype=np.float64)[:, None]

        return _band_sum(parts, band_dots)

    if row_indices is None and not cast:
        # one query over every row reads band views and copies nothing
        out = dots(slice(None))
    else:
        if row_indices is not None:
            row_indices = np.asarray(row_indices, dtype=np.intp)
        count = matrix.shape[0] if row_indices is None else row_indices.shape[0]
        out = np.empty((count, panel.shape[0]))
        for start in range(0, count, _BLOCK):
            stop = min(start + _BLOCK, count)
            rows = slice(start, stop) if row_indices is None else row_indices[start:stop]
            out[start:stop] = dots(rows)
    return out if query.ndim == 2 else out[:, 0]


def prefix_sq_norms(matrix, m):
    """float64 squared L2 norm of each row's first m entries, summed band by band."""
    def sq_norms(band, start, width):
        prefix = band[:, :width]
        return np.einsum("ij,ij->i", prefix, prefix, dtype=np.float64)

    return _band_sum(_prefix_parts(matrix, m), sq_norms)
