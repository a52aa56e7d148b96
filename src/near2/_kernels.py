"""Corpus-scan kernels: exact prefix dot products and prefix squared norms,
and a float32 bound pass that only chooses rows.

Contract of the exact kernels: float32 corpus rows, float64 accumulation,
and a (row, query) result depends only on that row's data, that query, the
prefix length m and the band cuts -- never on which other rows take part in
a call, in what order they are passed, or which other queries share the
call. Search, funnel re-ranking, evaluation and histograms all score
through here, so a row scored in a shortlist or in a panel of queries gets
exactly the bits it gets alone in a full scan.

A corpus is a plain (count, D) array or `Bands`, the same rows stored as
contiguous column bands. A prefix-m result is the sum, in band order, of one
float64 result per band that the prefix covers, so a scan reads only the
bands under its m. Within a band each (row, query) pair is reduced by
`einsum` over the row's own entries, in an order fixed by the band width
alone.

Every query is scored as a panel, a (q, m) block that one pass over the
rows scores together; a single query is a panel of one. Histograms score
their judged queries in panels of many. Each block of `_BLOCK` rows is cast
to float64 once, and `einsum("ij,qj->iq")` reduces every query of the panel
against that copy, a contiguous sum over a row's entries whose order does
not depend on q. A float32 entry widens exactly, so a (row, query) score has
the same bits in a panel of any size, and the panel saves the widening of
each entry for every query but the first.

A panel of more than one query (evaluation) scores only chosen (row, query)
pairs, each query's own candidates, in one call: the pair mode of
`prefix_dot_products`. A panel of one (every search) scores its candidate
rows in row mode instead; `index.top_k` alone makes that choice. Each
block of `_BLOCK` pairs gathers its rows, cast to float64, and its queries,
and `einsum("ij,ij->i")` reduces each pair over the row's own entries, band
by band in band order, the same contiguous sum as above; so a pair has the
bits of its (row, query) entry in a whole panel's scan.

BLAS (`@`, `dot`, `matmul`) never produces a score. It groups rows and
splits the reduction by the shape of the call: with OpenBLAS 0.3.31 on one
thread, a (row, query) product of a 256-column float64 block changed its
bits with the number of rows in the call (1, 3, 4, 7, 256 and 4096 rows each
differed from 1000) and between a one-query gemv and a gemm, and no BLAS
product had the bits of the einsum sums. A row's bits would then depend on
its neighbours. BLAS appears only in `float32_prefix_dots`, a bound pass
whose results carry a certified error bound (`float32_cosine_slack`) and
serve only to choose which rows the exact kernel scores. It multiplies the
whole panel by each band at once into a query-major (q, count) array, so
that a caller picks each query's candidates along one contiguous row; the
bound holds in any orientation of the call.
"""

import numpy as np

# Rows (or pairs) per block when rows are gathered by a selection or cast for
# a panel, and pairs' queries gathered. Blocking bounds those copies (a
# 256-column band's float64 block is 512 KiB);
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


def prefix_dot_products(matrix, query, m, row_indices=None, query_indices=None):
    """float64 dot of each (selected) row's first m entries with each query.

    `matrix` is a (count, D) float32 array or `Bands`; `query` is a float64
    vector of length m, giving one dot per row, or a (q, m) panel, giving a
    (rows, q) array whose column j holds query j's dots. `row_indices` is an
    optional int64 selection evaluated in the given order. Given
    `query_indices` as well, of the same length, the two are pairs into the
    rows and the panel, and the result is one dot per pair: row
    row_indices[i] with query query_indices[i], the same bits as entry
    [row_indices[i], query_indices[i]] of the whole (count, q) array.
    """
    query = np.ascontiguousarray(query, dtype=np.float64)
    panel = query.reshape(-1, m)
    count = matrix.shape[0] if row_indices is None else len(row_indices)
    out = np.empty(count if query_indices is not None else (count, panel.shape[0]))
    # band by band, each adding its block results into `out` in band order
    for band, start, width in _prefix_parts(matrix, m):
        columns = panel[:, start : start + width]
        if query_indices is not None:
            # contiguous, so that a block's queries gather as whole rows
            columns = np.ascontiguousarray(columns)
        for lo in range(0, count, _BLOCK):
            hi = min(lo + _BLOCK, count)
            rows = slice(lo, hi) if row_indices is None else row_indices[lo:hi]
            block = band[rows, :width].astype(np.float64)
            if query_indices is None:
                dots = np.einsum("ij,qj->iq", block, columns)
            else:
                dots = np.einsum("ij,ij->i", block, np.take(columns, query_indices[lo:hi], axis=0))
            if start == 0:
                out[lo:hi] = dots
            else:
                out[lo:hi] += dots
    return out if query.ndim == 2 or query_indices is not None else out[:, 0]


def prefix_sq_norms(matrix, m):
    """float64 squared L2 norm of each row's first m entries, summed band by
    band in band order (0.0 plus the first band's sums is exact)."""
    out = np.zeros(matrix.shape[0])
    for band, _, width in _prefix_parts(matrix, m):
        prefix = band[:, :width]
        out += np.einsum("ij,ij->i", prefix, prefix, dtype=np.float64)
    return out


def float32_prefix_dots(matrix, query, m):
    """Approximate `prefix_dot_products` over every row, for choosing rows only.

    Same arguments and result shape as `prefix_dot_products` without a row
    selection. The query is rounded to float32 and each band under m is
    multiplied in float32 by BLAS, one gemm of the panel (a panel of one for
    a vector) with the band; the per-band results are added in float64 into
    a query-major (q, count) array, and a panel's (count, q) result is its
    transpose, a view. So `.T` of the result gives each query's row of
    approximate dots contiguously. The bits depend on the shape of the call,
    so a result is never a score: it is within `float32_cosine_slack` of the
    exact one, and no more is promised.
    """
    panel = np.asarray(query, dtype=np.float32).reshape(-1, m)
    out = np.zeros((panel.shape[0], matrix.shape[0]))
    # a non-finite or overflowing row gives a non-finite dot, which callers
    # look for; it warns nothing
    with np.errstate(over="ignore", invalid="ignore"):
        for band, start, width in _prefix_parts(matrix, m):
            out += panel[:, start : start + width] @ band[:, :width].T
    return out.T if np.ndim(query) == 2 else out[0]


def float32_cosine_slack(matrix, m, min_norm):
    """An eps with |c~ - c| <= eps for every row whose prefix-m norm N exceeds
    `min_norm`, c~ = float32_prefix_dots(...) / N and c the exact cosine
    clip(prefix_dot_products(...) / N, -1, 1), for any unit float64 query
    (norm within 2^-40 of 1) and m <= 2^20.

    Let x be the row's first m entries (float32, so exact), u the query, w
    the widest band part read, u32 = 2^-24 and gamma_w = w u32 / (1 - w u32).
    Let t = x.u / N in exact arithmetic.

    * Rounding the query to float32, q, moves each entry by at most
      u32 |u_j| + 2^-150.
    * A float32 inner product of w terms, in any summation order, with or
      without fused multiply-adds, is within gamma_w sum |x_j q_j| of the
      exact one (Higham, Accuracy and Stability of Numerical Algorithms,
      Thm 3.1), plus at most 2^-150 (1 + gamma_w) per product that
      underflows (additions that underflow are exact).
    * Cauchy-Schwarz gives sum |x_j u_j| <= |x| |u|, and the stored N is
      the float64 norm of x, so |x| / N <= 1 + 2^-33 (m 2^-53 <= 2^-33).

    So |c~ - t| <= gamma_w + 2 u32 + 2^-30 + m 2^-149 / N, the 2^-30
    covering the float64 addition of the bands and the division, the
    query's underflow and the slack in |u| and |x| / N. On the exact side,
    the float64 dot and the division put the unclipped cosine within 2^-31
    of t, and as |t| <= 1 + 2^-32 the clip to [-1, 1] adds at most 2^-32,
    so |c - t| <= 2^-30. Hence

        |c~ - c| <= gamma_w + 2^-22 + m 2^-149 / N.

    The absolute term is taken as m 2^-125 / N instead, which also covers
    processors that flush subnormal values to zero (an error of up to
    2^-126 per product); for N above 1e-12 and m = 768 it is below 1e-22.

    Nothing here depends on how the products are summed or grouped: not
    the summation order, not how BLAS blocks the rows, the queries or the
    reduction, and not whether the call is oriented band x panel or
    panel x band. Only the widest band part read, w, enters the bound.
    """
    width = max(width for _, _, width in _prefix_parts(matrix, m))
    unit = width * 2.0**-24
    return unit / (1.0 - unit) + 2.0**-22 + m * 2.0**-125 / min_norm
