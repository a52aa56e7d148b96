"""Corpus-scan kernels: prefix dot products and prefix squared norms.

Contract: float32 corpus rows, float64 accumulation, and a row's result
depends only on that row's data and the prefix length m -- never on which
other rows take part in a call or in what order they are passed. Search,
funnel re-ranking, evaluation and histograms all score through here, so a
row scored in a shortlist gets exactly the bits it gets in a full scan.

Each row is reduced by `einsum` over its own m entries, in an order fixed by
m alone; `dtype=float64` widens the float32 entries as they are read. BLAS
`@` (gemv) is not used: it groups rows and splits the reduction differently
depending on how many rows it is given and where they sit, so a row's bits
would depend on its neighbours.
"""

import numpy as np

# Rows gathered per block when a selection is given. Blocking bounds the
# copy of the gathered prefixes; it cannot change a result because every
# row is reduced on its own.
_BLOCK = 1024


def prefix_dot_products(matrix, query, m, row_indices=None):
    """float64 dot of each (selected) row's first m entries with `query`.

    `matrix` is (count, D) float32, `query` a float64 vector of length m,
    `row_indices` an optional int64 selection evaluated in the given order.
    """
    query = np.ascontiguousarray(query, dtype=np.float64)
    if row_indices is None:
        return np.einsum("ij,j->i", matrix[:, :m], query, dtype=np.float64)
    row_indices = np.asarray(row_indices, dtype=np.intp)
    out = np.empty(row_indices.shape[0])
    for start in range(0, row_indices.shape[0], _BLOCK):
        block = matrix[row_indices[start : start + _BLOCK], :m]
        out[start : start + block.shape[0]] = np.einsum("ij,j->i", block, query, dtype=np.float64)
    return out


def prefix_sq_norms(matrix, m):
    """float64 squared L2 norm of each row's first m entries."""
    prefix = matrix[:, :m]
    return np.einsum("ij,ij->i", prefix, prefix, dtype=np.float64)
