"""Scan kernels: per-row oracles, and the row-independence contract -- a row's
result never depends on which other rows are scanned or in what order."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from near2 import _kernels
from near2._kernels import Bands, prefix_dot_products, prefix_sq_norms
from near2.index import PrefixIndex, load_index, save_index
from near2.nested import DimSet


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


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([768, 33, 16]),
    data=st.data(),
)
def test_band_rows_are_scored_independently(tmp_path, seed, d, data):
    """The banded sibling of the test above: random cuts, m one of the dims,
    and the same bits from in-memory bands and from memory-mapped ones."""
    rng = np.random.default_rng(seed)
    cuts = data.draw(st.sets(st.integers(1, d - 1), max_size=6), label="cuts")
    dims = DimSet((d, *sorted(cuts, reverse=True)))
    m = data.draw(st.sampled_from(list(dims)), label="m")
    count = _kernels._BLOCK + int(rng.integers(1, 300))  # always more than one block
    size = data.draw(st.integers(1, count), label="rows")
    rows = rng.permutation(count)[:size]
    matrix = rng.normal(size=(count, d)).astype(np.float32)
    index = PrefixIndex([f"d{i}" for i in range(count)], ["t"] * count, matrix, dims,
                        np.zeros(count, bool))
    save_index(index, tmp_path / "bands.idx")
    loaded = load_index(tmp_path / "bands.idx")
    query = rng.normal(size=m + 1)[1:]  # not 16-byte aligned

    full = prefix_dot_products(index.bands, query, m)
    for bands in (index.bands, loaded.bands):
        assert np.array_equal(prefix_dot_products(bands, query, m), full)
        assert np.array_equal(prefix_dot_products(bands, query, m, rows), full[rows])
    norms = prefix_sq_norms(index.bands, m)
    assert np.array_equal(prefix_sq_norms(loaded.bands, m), norms)
    subset = Bands([band[rows] for band in index.bands.arrays])
    assert np.array_equal(prefix_sq_norms(subset, m), norms[rows])
