"""Scan kernels: per-row oracles, and the row-independence contract -- a row's
result never depends on which other rows are scanned or in what order."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from near2 import _kernels
from near2._kernels import prefix_dot_products, prefix_sq_norms


def random_case(seed, count=200, d=32):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(count, d)).astype(np.float32)
    query = rng.normal(size=d)
    return matrix, query


def test_dots_match_per_row_oracle():
    matrix, query = random_case(0)
    for m in (32, 17, 5, 1):
        out = prefix_dot_products(matrix, query[:m], m)
        expected = np.array(
            [np.dot(row[:m].astype(np.float64), query[:m]) for row in matrix]
        )
        np.testing.assert_allclose(out, expected, rtol=1e-13, atol=1e-13)


def test_sq_norms_match_per_row_oracle():
    matrix, _ = random_case(1)
    for m in (32, 9, 2):
        out = prefix_sq_norms(matrix, m)
        expected = np.array([np.dot(r[:m].astype(np.float64), r[:m].astype(np.float64)) for r in matrix])
        np.testing.assert_allclose(out, expected, rtol=1e-13, atol=1e-13)


def test_row_subsets_select_in_order():
    matrix, query = random_case(2)
    idx = np.array([5, 3, 100, 7], dtype=np.int64)
    out = prefix_dot_products(matrix, query[:16], 16, idx)
    full = prefix_dot_products(matrix, query[:16], 16)
    assert out.shape == (4,)
    assert np.array_equal(out, full[idx])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([768, 33, 16]),
    data=st.data(),
)
def test_rows_are_scored_independently(seed, d, data):
    rng = np.random.default_rng(seed)
    count = _kernels._BLOCK + int(rng.integers(1, 300))  # always more than one block
    matrix = rng.normal(size=(count, d)).astype(np.float32)
    m = data.draw(st.integers(1, d), label="m")
    size = data.draw(st.integers(1, count), label="rows")
    rows = rng.permutation(count)[:size]
    # the query is read through an offset view, so it is not 16-byte aligned
    buf = rng.normal(size=m + 1)
    query = buf[1:]

    full = prefix_dot_products(matrix, query, m)
    assert np.array_equal(prefix_dot_products(matrix, query, m, rows), full[rows])
    norms = prefix_sq_norms(matrix, m)
    assert np.array_equal(prefix_sq_norms(matrix[rows], m), norms[rows])
