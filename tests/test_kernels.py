"""Scan kernels: per-row oracles, the row-independence contract -- a row's
result never depends on which other rows are scanned or in what order --
the panel contract: a (row, query) score depends only on the row, the
query and m, never on the other queries scored with it -- and the float32
bound pass, which must stay within its certified slack of the exact score."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eval_oracle import index_of
from near2 import _kernels
from near2._kernels import (
    Bands,
    float32_cosine_slack,
    float32_prefix_dots,
    prefix_dot_products,
    prefix_sq_norms,
)
from near2.index import load_index, save_index
from near2.nested import EPS_ZERO, DimSet


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
    index = index_of([f"d{i}" for i in range(count)], ["t"] * count, matrix, dims)
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


def single_query_dots(matrix, query, m, row_indices=None):
    """The kernel as it scored one query before panels, kept as the reference
    the panel kernel must match bit for bit."""
    query = np.ascontiguousarray(query, dtype=np.float64)
    parts = _kernels._prefix_parts(matrix, m)

    def dots(rows):
        out = np.zeros(matrix.shape[0])[rows]
        for band, start, width in parts:
            out += np.einsum(
                "ij,j->i", band[rows, :width], query[start : start + width], dtype=np.float64)
        return out

    if row_indices is None:
        return dots(slice(None))
    row_indices = np.asarray(row_indices, dtype=np.intp)
    out = np.empty(row_indices.shape[0])
    for start in range(0, row_indices.shape[0], _kernels._BLOCK):
        block = row_indices[start : start + _kernels._BLOCK]
        out[start : start + block.shape[0]] = dots(block)
    return out


def test_panel_shapes():
    matrix, _ = random_case(3)
    panel = np.random.default_rng(3).normal(size=(5, 16))
    assert prefix_dot_products(matrix, panel, 16).shape == (200, 5)
    assert prefix_dot_products(matrix, panel, 16, [4, 2]).shape == (2, 5)
    assert prefix_dot_products(matrix, panel[:1], 16).shape == (200, 1)
    assert prefix_dot_products(matrix, panel[0], 16).shape == (200,)
    assert prefix_dot_products(matrix, panel, 16, [4, 2, 4], [0, 3, 1]).shape == (3,)
    assert prefix_dot_products(matrix, panel, 16, np.array([7]), np.array([4])).shape == (1,)
    none = np.zeros(0, np.int64)
    assert prefix_dot_products(matrix, panel, 16, none, none).shape == (0,)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([768, 33, 16]),
    data=st.data(),
)
def test_panel_scores_depend_only_on_row_query_and_m(tmp_path, seed, d, data):
    """Every (row, query) score of a panel equals the single-query reference
    for that row and query: whatever the panel size, the query's position,
    the other queries, the row selection, and for plain, banded and
    memory-mapped banded rows."""
    rng = np.random.default_rng(seed)
    cuts = data.draw(st.sets(st.integers(1, d - 1), max_size=6), label="cuts")
    dims = DimSet((d, *sorted(cuts, reverse=True)))
    m = data.draw(st.sampled_from(list(dims)), label="m")
    count = data.draw(st.integers(1, 2 * _kernels._BLOCK + 10), label="count")
    rows = rng.permutation(count)[: data.draw(st.integers(1, count), label="rows")]
    matrix = rng.normal(size=(count, d)).astype(np.float32)
    index = index_of([f"d{i}" for i in range(count)], ["t"] * count, matrix, dims)
    save_index(index, tmp_path / "bands.idx")
    loaded = load_index(tmp_path / "bands.idx")
    size = data.draw(st.integers(1, 40), label="panel")
    # the panel is read through an offset view, so it is not 16-byte aligned
    panel = rng.normal(size=size * m + 1)[1:].reshape(size, m)
    j = data.draw(st.integers(0, size - 1), label="query")
    others = rng.normal(size=(data.draw(st.integers(0, 40), label="others"), m))
    at = data.draw(st.integers(0, others.shape[0]), label="position")
    moved = np.insert(others, at, panel[j], axis=0)

    for corpora in ((matrix,), (index.bands, loaded.bands)):
        reference = np.stack([single_query_dots(corpora[0], q, m) for q in panel], axis=1)
        for corpus in corpora:
            assert_same_bits(prefix_dot_products(corpus, panel, m), reference)
            assert_same_bits(prefix_dot_products(corpus, panel, m, rows), reference[rows])
            alone = prefix_dot_products(corpus, panel[j], m)
            assert_same_bits(alone, reference[:, j])
            assert_same_bits(prefix_dot_products(corpus, panel[j : j + 1], m)[:, 0], alone)
            assert_same_bits(prefix_dot_products(corpus, moved, m, rows)[:, at], reference[rows, j])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.one_of(st.sampled_from([1, 7, 9, 63, 65, 129, 255, 256]), st.integers(1, 256)),
    data=st.data(),
)
def test_pairs_score_like_their_entries_of_the_whole_panel(seed, d, data):
    """Pair mode: each (row, query) pair gets the bits of entry [row, query]
    of the whole panel's scan, for a plain matrix and for bands, with m at
    or inside a band, pairs unsorted and repeated, none at all, or more
    than one block of them."""
    rng = np.random.default_rng(seed)
    cuts = data.draw(st.sets(st.integers(1, d - 1), max_size=5), label="cuts") if d > 1 else set()
    edges = [0, *sorted(cuts), d]
    m = data.draw(st.integers(1, d), label="m")
    count = data.draw(st.integers(1, 300), label="count")
    size = data.draw(st.integers(1, 40), label="panel")
    n = data.draw(st.one_of(
        st.sampled_from([0, 1, _kernels._BLOCK, _kernels._BLOCK + 1]),
        st.integers(0, 3 * _kernels._BLOCK)), label="pairs")
    rows = rng.integers(0, count, size=n)
    queries = rng.integers(0, size, size=n)
    matrix = rng.normal(size=(count, d)).astype(np.float32)
    bands = Bands([np.array(matrix[:, lo:hi]) for lo, hi in zip(edges, edges[1:])])
    # the panel is read through an offset view, so it is not 16-byte aligned
    panel = rng.normal(size=size * m + 1)[1:].reshape(size, m)

    for corpus in (matrix, bands):
        whole = prefix_dot_products(corpus, panel, m)
        assert_same_bits(prefix_dot_products(corpus, panel, m, rows, queries), whole[rows, queries])

def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    assert np.ascontiguousarray(actual).tobytes() == np.ascontiguousarray(expected).tobytes()


# --- the float32 bound pass ------------------------------------------------------


def adversarial_rows(rng, kind, count, d, unit):
    """float32 rows of one kind, built against the unit query `unit`."""
    if kind == "cancelling":
        # huge entries whose dot with the query nearly cancels, plus a small
        # component along it
        v = rng.normal(size=(count, d)) * 1e30
        v -= np.outer(v @ unit, unit)
        return (v + rng.normal(size=(count, 1)) * unit).astype(np.float32)
    if kind == "near-max":
        # a few entries near the float32 maximum, whose float32 sum may
        # overflow even though the float64 one does not
        rows = rng.normal(size=(count, d)).astype(np.float32)
        cols = rng.integers(0, d, size=(count, 3))
        rows[np.arange(count)[:, None], cols] = rng.choice([-1, 1], size=(count, 3)) * 3.3e38
        return rows
    if kind == "subnormal":
        # one entry keeps the norm just above EPS_ZERO; the rest are subnormal
        # float32 values, whose products with the query underflow
        rows = (rng.normal(size=(count, d)) * 1e-39).astype(np.float32)
        rows[np.arange(count), rng.integers(0, d, size=count)] = np.float32(2e-12)
        return rows
    return (rng.normal(size=(count, d)) * 10.0 ** rng.integers(-20, 20, size=(count, 1))).astype(
        np.float32)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([768, 300, 33, 16]),
    kind=st.sampled_from(["cancelling", "near-max", "subnormal", "scaled"]),
    data=st.data(),
)
def test_float32_bound_pass_is_within_its_slack(seed, d, kind, data):
    """|c~ - c| <= eps for every row with a norm above EPS_ZERO and a finite
    bound-pass dot, for one query and for a panel, with per-row norms and
    with the EPS_ZERO floor the index uses; a row with a non-finite entry
    under m gets a non-finite dot for every query, even one that is 0 there."""
    rng = np.random.default_rng(seed)
    cuts = data.draw(st.sets(st.integers(1, d - 1), max_size=5), label="cuts")
    dims = DimSet((d, *sorted(cuts, reverse=True)))
    m = data.draw(st.sampled_from(list(dims)), label="m")
    size = data.draw(st.integers(1, 40), label="panel")
    units = rng.normal(size=(size, m)) * 10.0 ** rng.integers(-12, 1, size=(size, m))
    units[:, rng.integers(0, m, size=m // 4)] = 0.0
    units[0] = rng.normal(size=m)
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    count = data.draw(st.integers(1, 300), label="count")
    full = np.zeros(d)
    full[:m] = units[0]
    matrix = adversarial_rows(rng, kind, count, d, full)
    edges = dims.edges
    bands = Bands([np.array(matrix[:, lo:hi]) for lo, hi in zip(edges, edges[1:])])
    norms = np.sqrt(prefix_sq_norms(bands, m))
    usable = norms > EPS_ZERO
    panel = float32_prefix_dots(bands, units, m)
    assert panel.shape == (count, size) and panel.dtype == np.float64
    for j, unit in enumerate(units):
        exact = np.clip(prefix_dot_products(bands, unit, m) / np.where(usable, norms, 1.0), -1, 1)
        for approx in (panel[:, j], float32_prefix_dots(bands, unit, m)):
            assert approx.shape == (count,)
            ok = usable & np.isfinite(approx)
            error = np.abs(approx[ok] / norms[ok] - exact[ok])
            assert (error <= float32_cosine_slack(bands, m, norms[ok])).all()
            assert (error <= float32_cosine_slack(bands, m, EPS_ZERO)).all()
            if kind != "near-max":
                assert ok[usable].all()

    bad = int(rng.integers(0, count))
    column = int(rng.integers(0, m))
    units[:, column] = 0.0
    matrix[bad, column] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]), label="entry")
    bands = Bands([np.array(matrix[:, lo:hi]) for lo, hi in zip(edges, edges[1:])])
    assert not np.isfinite(float32_prefix_dots(bands, units, m)[bad]).any()
    assert not np.isfinite(float32_prefix_dots(bands, units[0], m)[bad])


def test_float32_slack_reads_the_widest_band_part():
    # the 768 bands are 64, 64, 128, 256 and 256 wide; m = 64 reads one band
    # of 64, a plain matrix one of m
    dims = DimSet((768, 512, 256, 128, 64))
    bands = Bands([np.zeros((2, hi - lo), np.float32) for lo, hi in zip(dims.edges, dims.edges[1:])])
    gamma = lambda w: w * 2.0**-24 / (1 - w * 2.0**-24)  # noqa: E731
    for m, width in ((64, 64), (128, 64), (256, 128), (768, 256)):
        assert float32_cosine_slack(bands, m, 1.0) == gamma(width) + 2.0**-22 + m * 2.0**-125
    assert float32_cosine_slack(np.zeros((2, 40), np.float32), 33, 1.0) == (
        gamma(33) + 2.0**-22 + 33 * 2.0**-125)
