import hashlib
import re
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eval_oracle import all_scores, index_of, top_hits
from format_oracle import (index_file_size, index_sections, index_sections_of, section_named,
                           zero_row_index_file)
from near2 import index as index_module
from near2.data import SynthSpec, distinct_titles, gen_synthetic
from near2.encoder import CHUNK_TEXTS, EncoderModel, encode, load_model, save_model, tokenize
from near2.errors import DataError, FormatError, InvalidDimensionError, ZeroVectorError
from near2.index import (
    PrefixIndex,
    build_index,
    load_index,
    memory_footprint,
    query_panels,
    save_index,
    search_exact,
    search_exact_with_min,
    search_funnel,
    top_k,
)
from near2.nested import DimSet, NestedEmbedding, cosine_prefix


def tiny_model(seed=0):
    return EncoderModel.create(bucket_count=64, feature_dim=8, dims=DimSet((16, 8, 4)), seed=seed)


def random_index(rng, count, dims, degenerate_rows=()):
    d = dims.full
    matrix = rng.normal(size=(count, d)).astype(np.float32)
    matrix[list(degenerate_rows)] = 0.0
    return index_of(
        ids=[f"doc{i}" for i in range(count)],
        titles=[f"title {i}" for i in range(count)],
        matrix=matrix,
        dims=dims,
    )


def query_from(vec, dims):
    return NestedEmbedding(np.asarray(vec, dtype=np.float64), dims)


def brute_force_hits(index, query, m, k):
    """Independent full-sort oracle: per-row cosine, stable (-score, row) sort."""
    rows = [
        r
        for r in range(index.count)
        if not index.degenerate[r]
        and np.linalg.norm(index.matrix[r, :m].astype(np.float64)) > 1e-12
    ]
    scored = []
    for r in rows:
        c = cosine_prefix(query_from(index.matrix[r], index.dims), query, m)
        scored.append((r, c))
    scored.sort(key=lambda rc: (-rc[1], rc[0]))
    return scored[:k]


class TestBuild:
    def test_single_title(self):
        index = build_index(tiny_model(), [("d1", "hello world")])
        assert index.count == 1

    def test_duplicate_id_named(self):
        with pytest.raises(DataError, match="dup1"):
            build_index(tiny_model(), [("dup1", "a"), ("dup1", "b")])

    def test_rows_match_reencoding_bitwise(self):
        model = tiny_model(seed=5)
        titles = [("a", "red plant pot"), ("b", "blue monitor s2716dg")]
        index = build_index(model, titles)
        for row, (_, text) in enumerate(titles):
            expected = encode(model, text).values.astype(np.float32)
            assert np.array_equal(index.matrix[row], expected)

    def test_empty_title_flagged_degenerate(self):
        index = build_index(tiny_model(), [("a", "plant"), ("b", "???")])
        assert not index.degenerate[0]
        assert index.degenerate[1]

    def test_zero_titles(self):
        with pytest.raises(DataError):
            build_index(tiny_model(), [])


def build_index_oracle(model, titles):
    """The per-title `encode` loop that `build_index` ran before it worked in
    chunks, and each title's `encode` degenerate flag."""
    edges = [0, *sorted(model.dims)]
    bands = [np.empty((len(titles), hi - lo), dtype=np.float32) for lo, hi in zip(edges, edges[1:])]
    degenerate = []
    for row, (_, text) in enumerate(titles):
        emb = encode(model, text)
        for band, lo, hi in zip(bands, edges, edges[1:]):
            band[row] = emb.values[lo:hi]
        degenerate.append(emb.degenerate)
    index = PrefixIndex(
        ids=[doc_id for doc_id, _ in titles],
        titles=[text for _, text in titles],
        bands=bands,
        dims=model.dims,
    )
    return index, degenerate


def oracle_titles():
    """More titles than one build chunk, with degenerate rows on both sides of its edge."""
    train, valid, test = gen_synthetic(SynthSpec(seed=3, query_count=140, titles_per_query=8))
    texts = [text for _, text in distinct_titles(train + valid + test)][: CHUNK_TEXTS + 40]
    texts[5:5] = ["???", "Ünïcödé 漢字 😀x", "İstanbul_ẞ ٣٤٥"]
    texts[CHUNK_TEXTS] = ""
    assert len(texts) > CHUNK_TEXTS + 1
    return [(f"d{i}", text) for i, text in enumerate(texts)]


@pytest.fixture(scope="module")
def oracle_models(tmp_path_factory):
    created = EncoderModel.create(
        bucket_count=512, feature_dim=16, dims=DimSet((32, 16, 8)), seed=11
    )
    path = tmp_path_factory.mktemp("oracle") / "model.bin"
    save_model(created, path)
    return {"created": created, "loaded": load_model(path)}


@pytest.mark.parametrize("kind", ["created", "loaded"])
def test_build_matches_per_title_encode_bitwise(oracle_models, kind):
    model = oracle_models[kind]
    assert model.feature_table.dtype == (np.float64 if kind == "created" else np.float32)
    titles = oracle_titles()
    index, (expected, degenerate) = build_index(model, titles), build_index_oracle(model, titles)
    for band, want in zip(index.bands.arrays, expected.bands.arrays):
        assert band.dtype == want.dtype and band.tobytes() == want.tobytes()
    assert index._norms.tobytes() == expected._norms.tobytes()
    assert index.degenerate.tolist() == degenerate
    assert index.degenerate[[5, CHUNK_TEXTS]].all() and index.degenerate.sum() == 2
    assert list(index.ids) == list(expected.ids) and list(index.titles) == list(expected.titles)


_TITLE_TEXT = st.one_of(
    st.sampled_from(["", " ", "???", "!!! ---", "...", "plant", "red pot", "Ünïcödé 漢字"]),
    st.text(alphabet=st.sampled_from("ab -.!é"), max_size=6),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(texts=st.lists(_TITLE_TEXT, min_size=1, max_size=20))
def test_degenerate_rows_are_the_featureless_titles_and_never_found(tmp_path, texts):
    """`degenerate` marks exactly the titles whose `tokenize` bag is empty,
    on a built and on a loaded index, and no search returns those rows."""
    model = tiny_model(seed=1)
    index = build_index(model, [(f"d{i}", text) for i, text in enumerate(texts)])
    save_index(index, tmp_path / "corpus.idx")
    featureless = [len(tokenize(text, model.bucket_count)) == 0 for text in texts]
    query = encode(model, "red plant pot")
    for built in (index, load_index(tmp_path / "corpus.idx")):
        assert built.degenerate.tolist() == featureless
        for m in built.dims:
            hits = search_exact(built, query, m, built.count)
            assert sorted(h.row for h in hits) == [r for r, gone in enumerate(featureless)
                                                   if not gone]
            funneled = search_funnel(built, query, 4, m, built.count, built.count)
            assert not any(featureless[h.row] for h in funneled)
            for _, units in query_panels(built, [query, query], m):
                for rows, _, _ in top_k(built, units, m, built.count):
                    assert not any(featureless[r] for r in rows.tolist())


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul")
def test_overflowing_projection_raises_like_encode():
    model = tiny_model()
    model = replace(
        model,
        feature_table=np.full_like(model.feature_table, 1e200),
        projection=np.full_like(model.projection, 1e200),
    )
    with pytest.raises(ValueError) as expected:
        encode(model, "plant")
    with pytest.raises(ValueError) as got:
        build_index(model, [("a", "???"), ("b", "plant")])
    assert str(got.value) == str(expected.value) == "embedding values must be finite"


@pytest.mark.parametrize("fault, bands", [
    ("width", [np.zeros((5, 4), np.float32), np.zeros((5, 3), np.float32)]),
    ("rows", [np.zeros((5, 4), np.float32), np.zeros((4, 4), np.float32)]),
    ("dtype", [np.zeros((5, 4), np.float64), np.zeros((5, 4), np.float64)]),
    ("missing band", [np.zeros((5, 8), np.float32)]),
])
def test_bands_not_cut_at_the_dims_raise_value_error(fault, bands):
    ids, dims = [f"d{i}" for i in range(5)], DimSet((8, 4))
    PrefixIndex(ids, ids, [np.zeros((5, 4), np.float32)] * 2, dims)
    with pytest.raises(ValueError, match="bands must be float32 arrays of 5 rows cut at"):
        PrefixIndex(ids, ids, bands, dims)


class TestSearchExact:
    def test_self_retrieval(self):
        dims = DimSet((4, 2))
        matrix = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=np.float32)
        index = index_of(["q", "o"], ["q", "o"], matrix, dims)
        hits = search_exact(index, query_from([1, 0, 0, 0], dims), 4, 1)
        assert hits[0].row == 0
        assert hits[0].score == pytest.approx(1.0)
        assert hits[0].rank == 1

    def test_k_covers_whole_corpus(self):
        rng = np.random.default_rng(0)
        dims = DimSet((8, 4))
        index = random_index(rng, 10, dims)
        hits = search_exact(index, query_from(rng.normal(size=8), dims), 8, 10)
        assert len(hits) == 10
        assert [h.rank for h in hits] == list(range(1, 11))
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)

    def test_k_larger_than_corpus_returns_all(self):
        rng = np.random.default_rng(1)
        dims = DimSet((8, 4))
        index = random_index(rng, 5, dims)
        hits = search_exact(index, query_from(rng.normal(size=8), dims), 8, 50)
        assert len(hits) == 5

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(50):
            d = int(rng.integers(4, 17))
            dims = DimSet((d, max(1, d // 2)))
            count = int(rng.integers(2, 60))
            index = random_index(rng, count, dims)
            query = query_from(rng.normal(size=d), dims)
            m = int(rng.choice(list(dims)))
            k = int(rng.integers(1, count + 1))
            hits = search_exact(index, query, m, k)
            oracle = brute_force_hits(index, query, m, k)
            assert [h.row for h in hits] == [r for r, _ in oracle]
            for h, (_, score) in zip(hits, oracle):
                assert h.score == pytest.approx(score, abs=1e-12)

    def test_ties_break_by_row_index(self):
        dims = DimSet((4,))
        row = np.array([0.5, -1.25, 2.0, 0.25], dtype=np.float32)
        matrix = np.stack([2.0 * row, row, 4.0 * row])  # exact cosine ties
        index = index_of(["a", "b", "c"], ["a", "b", "c"], matrix, dims)
        hits = search_exact(index, query_from(row, dims), 4, 3)
        assert [h.row for h in hits] == [0, 1, 2]
        assert hits[0].score == hits[1].score == hits[2].score

    def test_degenerate_rows_never_returned(self):
        rng = np.random.default_rng(3)
        dims = DimSet((8,))
        index = random_index(rng, 6, dims, degenerate_rows=(2, 4))
        hits = search_exact(index, query_from(rng.normal(size=8), dims), 8, 6)
        assert {h.row for h in hits} == {0, 1, 3, 5}

    def test_invalid_dimension(self):
        rng = np.random.default_rng(4)
        dims = DimSet((8, 4))
        index = random_index(rng, 3, dims)
        with pytest.raises(InvalidDimensionError):
            search_exact(index, query_from(rng.normal(size=8), dims), 5, 1)

    def test_degenerate_query_rejected(self):
        rng = np.random.default_rng(5)
        dims = DimSet((8,))
        index = random_index(rng, 3, dims)
        degenerate = NestedEmbedding(np.zeros(8), dims, degenerate=True)
        with pytest.raises(ZeroVectorError):
            search_exact(index, degenerate, 8, 1)

    def test_k_validated(self):
        rng = np.random.default_rng(6)
        dims = DimSet((8,))
        index = random_index(rng, 3, dims)
        with pytest.raises(ValueError):
            search_exact(index, query_from(rng.normal(size=8), dims), 8, 0)

    def test_min_score_is_corpus_minimum(self):
        rng = np.random.default_rng(7)
        dims = DimSet((8,))
        index = random_index(rng, 20, dims)
        query = query_from(rng.normal(size=8), dims)
        _, min_score = search_exact_with_min(index, query, 8, 3)
        _, scores = all_scores(index, query, 8)
        assert min_score == scores.min()


class TestSearchFunnel:
    def test_full_shortlist_bitwise_equals_exact(self):
        rng = np.random.default_rng(8)
        dims = DimSet((16, 4))
        index = random_index(rng, 40, dims, degenerate_rows=(7,))
        query = query_from(rng.normal(size=16), dims)
        exact = search_exact(index, query, 16, 10)
        funneled = search_funnel(index, query, 4, 16, shortlist_size=index.count, k=10)
        assert [(h.row, h.rank) for h in funneled] == [(h.row, h.rank) for h in exact]
        assert all(a.score == b.score for a, b in zip(funneled, exact))

    def test_equal_dims_equals_exact(self):
        rng = np.random.default_rng(9)
        dims = DimSet((16, 4))
        index = random_index(rng, 30, dims)
        query = query_from(rng.normal(size=16), dims)
        exact = search_exact(index, query, 4, 5)
        funneled = search_funnel(index, query, 4, 4, shortlist_size=9, k=5)
        assert [(h.row, h.score) for h in funneled] == [(h.row, h.score) for h in exact]
        # full-width rows: a shortlist row must keep the bits of its full-scan score
        dims = DimSet((768, 64))
        for seed in range(10):
            rng = np.random.default_rng(seed)
            index = random_index(rng, 300, dims)
            query = query_from(rng.normal(size=768), dims)
            exact = search_exact(index, query, 768, 5)
            funneled = search_funnel(index, query, 768, 768, shortlist_size=10, k=5)
            assert [(h.row, h.score) for h in funneled] == [(h.row, h.score) for h in exact]

    def test_recall_monotone_in_shortlist(self):
        rng = np.random.default_rng(3)
        dims = DimSet((64, 8))
        index = random_index(rng, 100, dims)
        query = query_from(rng.normal(size=64), dims)
        exact_top = {h.row for h in search_exact(index, query, 64, 10)}
        last_recall = -1.0
        for s in (10, 20, 40, 70, 100):
            funneled = search_funnel(index, query, 8, 64, shortlist_size=s, k=10)
            recall = len({h.row for h in funneled} & exact_top) / len(exact_top)
            assert recall >= last_recall
            last_recall = recall
        assert last_recall == 1.0

    def test_scores_are_high_dim_scores(self):
        rng = np.random.default_rng(10)
        dims = DimSet((16, 4))
        index = random_index(rng, 25, dims)
        query = query_from(rng.normal(size=16), dims)
        funneled = search_funnel(index, query, 4, 16, shortlist_size=20, k=5)
        for h in funneled:
            expected = cosine_prefix(query_from(index.matrix[h.row], dims), query, 16)
            assert h.score == pytest.approx(expected, abs=1e-12)

    def test_validation(self):
        rng = np.random.default_rng(11)
        dims = DimSet((16, 4))
        index = random_index(rng, 10, dims)
        query = query_from(rng.normal(size=16), dims)
        with pytest.raises(ValueError, match="must not exceed"):
            search_funnel(index, query, 16, 4, 10, 5)
        with pytest.raises(ValueError, match="shortlist"):
            search_funnel(index, query, 4, 16, 3, 5)


class TestMemoryFootprint:
    def test_twelve_to_one_ratio(self):
        dims = DimSet((768, 512, 256, 128, 64))
        matrix = np.zeros((10, 768), dtype=np.float32)
        index = index_of(
            [f"d{i}" for i in range(10)], ["t"] * 10, matrix, dims
        )
        full = memory_footprint(index, 768).vector_bytes
        small = memory_footprint(index, 64).vector_bytes
        assert full == 12 * small
        assert memory_footprint(index, 768).vector_bytes == full  # m = D is 1:1

    def test_vector_byte_arithmetic(self):
        dims = DimSet((128, 64))
        matrix = np.zeros((1000, 128), dtype=np.float32)
        index = index_of(
            [f"d{i}" for i in range(1000)], ["t"] * 1000, matrix, dims
        )
        assert memory_footprint(index, 128).vector_bytes == 512_000

    def test_invalid_dimension(self):
        dims = DimSet((8,))
        index = index_of(["a"], ["t"], np.zeros((1, 8), np.float32), dims)
        with pytest.raises(InvalidDimensionError):
            memory_footprint(index, 7)


_ONE_BAND = section_named(index_sections(5, DimSet((8,))), "vector bands")


class TestPersistence:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        dims = DimSet((8, 4))
        index = random_index(rng, 9, dims, degenerate_rows=(3,))
        path = tmp_path / "corpus.idx"
        save_index(index, path)
        loaded = load_index(path)
        assert list(loaded.ids) == list(index.ids)
        assert list(loaded.titles) == list(index.titles)
        assert np.array_equal(loaded.matrix, index.matrix)
        assert loaded.degenerate.tolist() == index.degenerate.tolist() == [r == 3 for r in range(9)]
        assert list(loaded.dims) == list(index.dims)

    def test_unicode_doc_table(self, tmp_path):
        dims = DimSet((4,))
        index = index_of(
            ["id-ü"], ["Pflanze für Zuhause — groß"], np.ones((1, 4), np.float32), dims,
        )
        path = tmp_path / "u.idx"
        save_index(index, path)
        loaded = load_index(path)
        assert list(loaded.ids) == list(index.ids)
        assert list(loaded.titles) == list(index.titles)

    def test_file_size_matches_format_arithmetic(self, tmp_path):
        rng = np.random.default_rng(13)
        dims = DimSet((8, 4))
        index = random_index(rng, 17, dims)
        path = tmp_path / "corpus.idx"
        save_index(index, path)
        assert path.stat().st_size == index_file_size(index)
        # the bands [0:4) and [4:8) are exactly count * D * 4 bytes of the file;
        # the norm table holds count * |M| float64, the doc table two
        # (count + 1) u64 offset runs and the two UTF-8 blobs, and every
        # section but the titles blob is zero-padded to a multiple of 64 bytes
        header = 8 + 16 + 2 + 4 * len(dims)
        norms = index.count * len(dims) * 8
        band = index.count * 4 * 4
        offsets = 2 * (index.count + 1) * 8
        ids = sum(len(f"doc{i}") for i in range(index.count))
        titles = sum(len(f"title {i}") for i in range(index.count))
        assert memory_footprint(index, 8).doc_table_bytes == offsets + ids + titles

        def pad(n):
            return n + -n % 64

        vectors = pad(pad(pad(pad(header) + norms) + band) + band)
        assert path.stat().st_size == pad(pad(vectors + offsets) + ids) + titles

    @pytest.mark.parametrize("dims", [(8, 4, 6), (8, 4, 0), (8, 8, 4)])
    def test_bad_dims_list_is_format_error(self, tmp_path, dims):
        rng = np.random.default_rng(17)
        path = tmp_path / "corpus.idx"
        save_index(random_index(rng, 5, DimSet((8, 4, 2))), path)
        data = bytearray(path.read_bytes())
        data[8 + 16 + 2 : 8 + 16 + 2 + 12] = struct.pack("<3I", *dims)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="bad dimension list"):
            load_index(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"WRONGMAG" + bytes(64))
        with pytest.raises(FormatError, match="not an index file"):
            load_index(path)

    def test_loaded_index_is_immutable_under_search(self, tmp_path):
        rng = np.random.default_rng(15)
        dims = DimSet((8, 4))
        index = random_index(rng, 12, dims)
        path = tmp_path / "corpus.idx"
        save_index(index, path)
        loaded = load_index(path)
        checksum = hashlib.sha256(loaded.matrix.tobytes()).hexdigest()
        query = query_from(rng.normal(size=8), dims)
        search_exact(loaded, query, 8, 5)
        search_funnel(loaded, query, 4, 8, 12, 5)
        all_scores(loaded, query, 4)
        assert hashlib.sha256(loaded.matrix.tobytes()).hexdigest() == checksum
        with pytest.raises(ValueError):
            loaded.matrix[0, 0] = 1.0


    def test_save_over_a_loaded_index_leaves_it_intact(self, tmp_path):
        rng = np.random.default_rng(22)
        dims = DimSet((16, 4))
        path = tmp_path / "corpus.idx"
        save_index(random_index(rng, 50, dims), path)
        loaded = load_index(path)
        query = query_from(rng.normal(size=16), dims)
        before = [(h.row, h.score) for m in dims for h in search_exact(loaded, query, m, 10)]
        save_index(random_index(rng, 50, dims), path)  # same shape, other rows
        assert [(h.row, h.score) for m in dims for h in search_exact(loaded, query, m, 10)] == before
        with pytest.raises(IsADirectoryError):
            save_index(loaded, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.idx"]  # no temp file left

    def test_version_1_file_names_the_rebuild(self, tmp_path):
        path = tmp_path / "corpus.idx"
        save_index(random_index(np.random.default_rng(24), 5, DimSet((8,))), path)
        data = bytearray(path.read_bytes())
        data[8:12] = struct.pack("<I", 1)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=r"version 1; re-run `near2 index`"):
            load_index(path)

    def test_version_2_file_names_the_rebuild(self, tmp_path):
        path = tmp_path / "corpus.idx"
        save_index(random_index(np.random.default_rng(24), 5, DimSet((8,))), path)
        data = bytearray(path.read_bytes())
        data[8:12] = struct.pack("<I", 2)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=r"version 2; re-run `near2 index`"):
            load_index(path)

    def test_version_3_file_names_the_rebuild(self, tmp_path):
        # version 3 held a degenerate-row bitmap right after the dims; with no
        # degenerate row, its one zero byte lies in the header's padding, so
        # this index's version-3 file differs from version 4 only in the version
        path = tmp_path / "corpus.idx"
        save_index(random_index(np.random.default_rng(24), 5, DimSet((8,))), path)
        data = bytearray(path.read_bytes())
        data[8:12] = struct.pack("<I", 3)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=r"version 3; re-run `near2 index`"):
            load_index(path)

    def test_saved_file_keeps_its_format_bytes(self, tmp_path):
        # dyadic entries, so every norm is exact; the file must equal the
        # format written out by hand, and its digest is pinned
        matrix = (np.arange(48, dtype=np.float32).reshape(6, 8) - 20.0) / 8.0
        matrix[2] = 0.0  # a degenerate row: zero norms, and no other mark
        ids, titles = [f"d{i}" for i in range(6)], ["", "é", "日本", "x", "pot", "red"]
        index = index_of(ids, titles, matrix, DimSet((8, 4)))
        save_index(index, tmp_path / "corpus.idx")
        written = (tmp_path / "corpus.idx").read_bytes()

        def pad(chunk):
            return chunk + bytes(-len(chunk) % 64)

        norms = np.sqrt(np.stack(
            [(matrix.astype(np.float64)[:, :m] ** 2).sum(axis=1) for m in (8, 4)], axis=1))
        blobs = ["".join(ids).encode(), "".join(titles).encode()]
        offsets = [np.cumsum([0] + [len(t.encode()) for t in column]) for column in (ids, titles)]
        expected = b"".join([
            pad(b"NEAR2IDX" + struct.pack("<IIQH2I", 4, 8, 6, 2, 8, 4)),
            pad(norms.astype("<f8").tobytes()),
            pad(matrix[:, :4].astype("<f4").tobytes()),
            pad(matrix[:, 4:].astype("<f4").tobytes()),
            pad(np.concatenate(offsets).astype("<u8").tobytes()),
            pad(blobs[0]),
            blobs[1],
        ])
        assert written == expected
        digest = "98a5d69757745027109d53122fdce208ba6687fbe90e584d2d1fa5e7ecb5368e"
        assert hashlib.sha256(written).hexdigest() == digest
        loaded = load_index(tmp_path / "corpus.idx")
        assert loaded.degenerate.tolist() == [False, False, True, False, False, False]
        save_index(loaded, tmp_path / "again.idx")
        assert (tmp_path / "again.idx").read_bytes() == written

    def test_non_utf8_id_is_format_error(self, tmp_path):
        path = tmp_path / "corpus.idx"
        index = random_index(np.random.default_rng(18), 5, DimSet((8,)))
        save_index(index, path)
        data = bytearray(path.read_bytes())
        # the first byte of the first id, at the start of the ids blob
        data[section_named(index_sections(index.count, index.dims), "id").offset] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="not valid UTF-8"):
            load_index(path)

    @pytest.mark.parametrize("cut, message", [
        (1, "truncated while reading title of row 4"),
        (len(b"title 4") + 2, "truncated while reading title of row 3"),
    ])
    def test_truncated_doc_table_names_the_row(self, tmp_path, cut, message):
        path = tmp_path / "corpus.idx"
        save_index(random_index(np.random.default_rng(19), 5, DimSet((8,))), path)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(FormatError, match=message):
            load_index(path)

    # a one-dim index of 5 rows, cut halfway through its one 5 x 8 band
    @pytest.mark.parametrize("edit, message", [
        (lambda data: b"", "index file truncated while reading magic"),
        (lambda data: data[:15], "index file truncated while reading header"),
        (lambda data: data[:28], "index file truncated while reading dims"),
        (lambda data: data[: _ONE_BAND.offset + _ONE_BAND.length // 2],
         "index file truncated while reading vector bands"),
        (lambda data: data + b"\x00", "trailing bytes after doc table"),
    ], ids=["empty", "cut-in-header", "cut-in-dims", "cut-in-band", "trailing-byte"])
    def test_cut_or_extended_file_is_format_error(self, tmp_path, edit, message):
        path = tmp_path / "corpus.idx"
        save_index(random_index(np.random.default_rng(20), 5, DimSet((8,))), path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            load_index(path)

    def test_zero_row_file_is_format_error(self, tmp_path):
        path = tmp_path / "empty.idx"
        path.write_bytes(zero_row_index_file(DimSet((8, 4))))
        with pytest.raises(FormatError, match="^index file holds no rows$"):
            load_index(path)

    def test_every_cut_raises_format_error_naming_its_section(self, tmp_path):
        ids = ["é-0", "日本-1", "", "😀-3", "ü-4"]
        titles = ["title é", "", "日本語", "a😀 b", "end"]
        matrix = np.random.default_rng(26).normal(size=(5, 8))
        index = index_of(ids, titles, matrix, DimSet((8, 4)))
        save_index(index, tmp_path / "corpus.idx")
        data = (tmp_path / "corpus.idx").read_bytes()
        sections = index_sections_of(index)
        assert len(data) == sections[-1].end
        row_ends = {what: np.cumsum([len(s.encode("utf-8")) for s in column])
                    for what, column in (("id", ids), ("title", titles))}
        for size in range(len(data)):
            # the first section the cut leaves short; a cut in the padding
            # before a section leaves that section short
            what, offset, _ = next(s for s in sections if s.end > size)
            if what in row_ends:
                # the first row whose bytes run past the end of the file
                row = np.count_nonzero(row_ends[what] <= max(size - offset, 0))
                what = f"{what} of row {row}"
            path = tmp_path / f"cut-{size}.idx"
            path.write_bytes(data[:size])
            with pytest.raises(FormatError, match=f"^index file truncated while reading {what}$"):
                load_index(path)
        (tmp_path / "extended.idx").write_bytes(data + b"\x00")
        with pytest.raises(FormatError, match="^trailing bytes after doc table$"):
            load_index(tmp_path / "extended.idx")


def _pristine(kind, path):
    if kind == "model":
        save_model(tiny_model(seed=3), path)
    else:
        index = random_index(np.random.default_rng(21), 6, DimSet((8, 4)), degenerate_rows=(2,))
        save_index(index, path)
    return path.read_bytes()


def _text_gathering_every_row(bucket_count: int) -> str:
    words, gathered = [], set()
    while len(gathered) < bucket_count:
        words.append(f"w{len(words)}")
        gathered.update(tokenize(words[-1], bucket_count).ids.tolist())
    return " ".join(words)


EVERY_ROW_TEXT = _text_gathering_every_row(tiny_model().bucket_count)


@pytest.mark.parametrize("kind", ["model", "index"])
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flips=st.lists(
    st.tuples(st.one_of(st.integers(0, 63), st.integers(0, 2**20)), st.integers(1, 255)),
    min_size=1, max_size=3,
))
def test_byte_flips_load_or_raise_format_error(tmp_path, kind, flips):
    """A flipped file fails to load with FormatError, or loads; a loaded
    model then encodes a text that gathers every table row to finite values
    or raises FormatError, since its table rows are checked only when
    gathered."""
    path = tmp_path / f"flipped.{kind}"
    data = bytearray(_pristine(kind, path))
    for pos, mask in flips:
        data[pos % len(data)] ^= mask
    path.write_bytes(bytes(data))
    try:
        loaded = (load_model if kind == "model" else load_index)(path)
        if kind == "model":
            assert np.all(np.isfinite(encode(loaded, EVERY_ROW_TEXT).values))
    except FormatError:
        pass


# strings of one- to four-byte characters, empty ones included, so that
# multi-byte characters sit next to many row boundaries
_DOC_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from("aé日😀"), st.characters(blacklist_categories=("Cs",))),
    max_size=6,
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.tuples(_DOC_TEXT, _DOC_TEXT), min_size=1, max_size=12), data=st.data())
def test_doc_table_round_trips_any_unicode(tmp_path, rows, data):
    ids, titles = [i for i, _ in rows], [t for _, t in rows]
    index = index_of(ids, titles, np.ones((len(rows), 4), np.float32), DimSet((4, 2)))
    save_index(index, tmp_path / "corpus.idx")
    loaded = load_index(tmp_path / "corpus.idx")
    backwards = np.arange(len(rows))[::-1]
    cut = data.draw(st.slices(len(rows)), label="slice")  # negative steps included
    for built in (index, loaded):
        assert [built.ids[r] for r in range(len(rows))] == ids
        assert [built.titles[r] for r in range(len(rows))] == titles
        assert built.ids.take(backwards) == ids[::-1]
        assert built.ids[cut] == ids[cut] and built.titles[cut] == titles[cut]
    assert (tmp_path / "corpus.idx").stat().st_size == index_file_size(loaded)
    assert memory_footprint(loaded, 4).doc_table_bytes == (
        16 * (len(rows) + 1) + sum(len(s.encode("utf-8")) for s in ids + titles)
    )



@settings(max_examples=100, deadline=None)
@given(
    strings=st.lists(_DOC_TEXT, min_size=1, max_size=8),
    data=st.data(),
)
def test_text_column_take_reads_each_row_as_indexing_does(strings, data):
    """`take` of any rows, negative ones included, as an array or a list,
    gives `column[row]` for each; a row out of range raises IndexError as
    `column[row]` does."""
    column = index_module.TextColumn.of(strings)
    n = len(strings)
    rows = data.draw(st.lists(st.integers(-n, n - 1), max_size=10), label="rows")
    want = [column[r] for r in rows]
    assert want == [strings[r] for r in rows]
    assert column.take(np.array(rows, dtype=np.int64)) == want
    assert column.take(rows) == want
    bad = data.draw(st.sampled_from([n, n + 3, -n - 1, -n - 5]), label="out of range")
    with pytest.raises(IndexError):
        column[bad]
    for form in (np.array([0, bad], dtype=np.int64), [bad, 0]):
        with pytest.raises(IndexError):
            column.take(form)


def test_text_column_take_counts_negative_rows_from_the_end():
    column = index_module.TextColumn.of(["a", "bb", "ccc"])
    assert column.take(np.array([-1])) == ["ccc"] == [column[-1]]
    assert column.take([-3, 2, -2]) == ["a", "ccc", "bb"]
    assert column.take([]) == []

def _doc_table_index():
    # multi-byte characters on both sides of nearly every row boundary
    ids = ["é日", "日é", "😀", "éé", "", "日本", "é", "ü"]
    titles = ["über é", "", "日本語", "a😀", "é", "😀😀", "ü", "end é"]
    return index_of(ids, titles, np.ones((8, 4), np.float32), DimSet((4,)))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    section=st.sampled_from([-3, -2, -1]),  # the offsets, the ids blob, the titles blob
    # small masks on an offset's low byte move it by a few bytes, often into
    # the middle of a character while the offsets still ascend
    flips=st.lists(st.tuples(
        st.one_of(st.integers(0, 17).map(lambda entry: 8 * entry), st.integers(0, 2**20)),
        st.one_of(st.integers(1, 3), st.integers(1, 255)),
    ), min_size=1, max_size=3),
)
def test_doc_table_byte_flips_load_or_raise_format_error(tmp_path, section, flips):
    index = _doc_table_index()
    path = tmp_path / "flipped.idx"
    save_index(index, path)
    data = bytearray(path.read_bytes())
    _, offset, length = index_sections_of(index)[section]
    for pos, mask in flips:
        data[offset + pos % length] ^= mask
    path.write_bytes(bytes(data))
    try:
        loaded = load_index(path)
    except FormatError:
        return
    for column in (loaded.ids, loaded.titles):
        # every row decodes, and the rows cut the blob into consecutive pieces
        rows = [column[r] for r in range(loaded.count)]
        assert "".join(rows) == bytes(column.blob).decode("utf-8")


def _finite_or_format_error(search):
    try:
        hits = search()
    except FormatError:
        return
    assert all(np.isfinite(h.score) for h in hits)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    section=st.integers(0, 3),  # the norm table, then the bands [0:2), [2:4), [4:8)
    # half the flips hit the top byte of a float (4p + 3 is also the top byte
    # of a float64), where an XOR such as 0x40 turns 0x3f into an inf or NaN
    flips=st.lists(st.tuples(
        st.one_of(st.integers(0, 2**18).map(lambda p: 4 * p + 3), st.integers(0, 2**20)),
        st.one_of(st.sampled_from([0x40, 0x7F, 0x80]), st.integers(1, 255)),
    ), min_size=1, max_size=3),
)
def test_section_byte_flips_search_finite_or_raise_format_error(tmp_path, section, flips):
    dims = DimSet((8, 4, 2))
    path = tmp_path / "flipped.idx"
    index = random_index(np.random.default_rng(23), 6, dims, degenerate_rows=(2,))
    save_index(index, path)
    data = bytearray(path.read_bytes())
    vectors = [s for s in index_sections(index.count, dims) if s.what in ("norm table", "vector bands")]
    _, offset, length = vectors[section]
    for pos, mask in flips:
        data[offset + pos % length] ^= mask
    path.write_bytes(bytes(data))
    try:
        loaded = load_index(path)
    except FormatError:
        return
    query = query_from(np.random.default_rng(25).normal(size=8), dims)
    for m in dims:
        _finite_or_format_error(lambda: search_exact(loaded, query, m, loaded.count))
        for m_high in (d for d in dims if d >= m):
            _finite_or_format_error(lambda: search_funnel(loaded, query, m, m_high, 4, 3))


@settings(max_examples=300, deadline=None)
@given(
    levels=st.lists(st.integers(-3, 3), min_size=1, max_size=80),
    k=st.integers(1, 90),
    seed=st.integers(0, 2**16),
)
def test_top_k_ranks_like_a_full_lexsort(levels, k, seed):
    # rows that are copies of seven vectors tie exactly, in heavy runs; `top_k`
    # given them in any order ranks them as one full (-score, row) sort does
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(100, 4)).astype(np.float32)
    rows = np.random.default_rng(seed).permutation(100)[: len(levels)]
    matrix[rows] = matrix[np.array(levels) + 3]
    index = index_of([f"d{i}" for i in range(100)], ["t"] * 100, matrix, DimSet((4,)))
    query = query_from(rng.normal(size=4), index.dims)
    every_row, every_score = all_scores(index, query, 4)
    scores = every_score[np.searchsorted(every_row, rows)]
    order = np.lexsort((rows, -scores))[:k]
    unit = index_module._unit_prefix(query, 4)[None]
    ((got_rows, got_scores, low),) = top_k(index, unit, 4, k, rows)
    assert got_rows.tolist() == rows[order].tolist()
    assert got_scores.tobytes() == scores[order].tobytes()
    assert low == scores.min()


def test_top_k_ranks_a_panel_query_by_query_through_ties():
    # rows that are copies of four vectors tie exactly; a panel ranks each
    # query as a panel of that query alone does, and a panel of one given
    # rows (unsorted, one repeated, one unsearchable) ranks them as a full
    # scan's (-score, row) sort does, ties toward the lower row
    rng = np.random.default_rng(5)
    matrix = rng.normal(size=(4, 8)).astype(np.float32)[rng.integers(0, 4, size=60)]
    matrix[9] = 0.0
    index = index_of([f"d{i}" for i in range(60)], ["t"] * 60, matrix, DimSet((8, 4)))
    units = rng.normal(size=(5, 8))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    given_rows = np.array([40, 9, 3, 57, 3, 12, 0, 33, 21])
    kept = given_rows[given_rows != 9]
    for k in (1, 3, 10, 70):
        panel = top_k(index, units, 8, k)
        for unit, (got_rows, got_scores, low) in zip(units, panel):
            ((want_rows, want_scores, want_low),) = top_k(index, unit[None], 8, k)
            assert got_rows.tolist() == want_rows.tolist()
            assert got_scores.tobytes() == want_scores.tobytes()
            assert low.hex() == want_low.hex()

            every_row, every_score = index_module._scores(index, unit[None], 8)
            scores = every_score[np.searchsorted(every_row, kept), 0]
            order = np.lexsort((kept, -scores))[:k]
            ((got_rows, got_scores, low),) = top_k(index, unit[None], 8, k, given_rows)
            assert got_rows.tolist() == kept[order].tolist()
            assert got_scores.tobytes() == scores[order].tobytes()
            assert low.hex() == scores.min().hex()


class TestPrefixIndexEquivalence:
    def test_truncated_index_equals_full_index_at_m(self):
        rng = np.random.default_rng(16)
        dims = DimSet((32, 16, 8, 4))
        full = random_index(rng, 30, dims)
        query_values = rng.normal(size=32)
        for m in dims:
            prefix_dims = DimSet(tuple(d for d in dims if d <= m))
            truncated = index_of(
                ids=full.ids,
                titles=full.titles,
                matrix=full.matrix[:, :m].copy(),
                dims=prefix_dims,
            )
            q_full = query_from(query_values, dims)
            q_trunc = query_from(query_values[:m], prefix_dims)
            hits_full = search_exact(full, q_full, m, 10)
            hits_trunc = search_exact(truncated, q_trunc, m, 10)
            assert [(h.row, h.rank) for h in hits_full] == [(h.row, h.rank) for h in hits_trunc]
            assert all(a.score == b.score for a, b in zip(hits_full, hits_trunc))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([48, 17]),
    data=st.data(),
)
def test_loaded_index_scores_bitwise_like_built(tmp_path, seed, d, data):
    rng = np.random.default_rng(seed)
    cuts = data.draw(st.sets(st.integers(1, d - 1), max_size=4), label="cuts")
    dims = DimSet((d, *sorted(cuts, reverse=True)))
    count = data.draw(st.integers(10, 120), label="count")
    index = random_index(rng, count, dims, degenerate_rows=rng.permutation(count)[: count // 10])
    save_index(index, tmp_path / "corpus.idx")
    loaded = load_index(tmp_path / "corpus.idx")
    query = query_from(rng.normal(size=d), dims)
    for m in dims:
        rows, scores = all_scores(index, query, m)
        loaded_rows, loaded_scores = all_scores(loaded, query, m)
        assert np.array_equal(loaded_rows, rows)
        assert np.array_equal(loaded_scores, scores)
        for m_low in (low for low in dims if low <= m):
            exact = search_exact(loaded, query, m, 10)
            funneled = search_funnel(loaded, query, m_low, m, shortlist_size=count, k=10)
            assert [(h.row, h.score) for h in funneled] == [(h.row, h.score) for h in exact]


# --- the candidate pass against the full exact scan ------------------------------


@st.composite
def candidate_cases(draw):
    """(index, queries, k) whose rows stress the float32 candidate pass:
    duplicate rows, rows one float32 ulp apart, degenerate rows, rows with a
    zero prefix, rows at wildly different scales, rows whose float32 dots
    overflow, and NaN/inf entries in searchable and degenerate rows; queries
    equal to a row or its negative, most often one with a duplicate or a
    neighbour one ulp away (so exact and near ties at the top and at the
    minimum), with zero entries or a zero prefix."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    d = draw(st.sampled_from([768, 40, 12]), label="d")
    cuts = draw(st.sets(st.integers(1, d - 1), max_size=4), label="cuts")
    dims = DimSet((d, *sorted(cuts, reverse=True)))
    count = draw(st.integers(1, 300), label="count")
    matrix = rng.normal(size=(count, d)) * 10.0 ** rng.integers(-5, 5, size=(count, 1))
    matrix = matrix.astype(np.float32)
    pick = lambda label: rng.integers(0, count, size=draw(st.integers(0, 6), label=label))  # noqa: E731
    tied = []
    for r in pick("duplicates"):
        matrix[r] = matrix[rng.integers(0, count)]
        tied.append(r)
    for r in pick("ulp apart"):
        matrix[r] = matrix[rng.integers(0, count)]
        c = rng.integers(0, d)
        matrix[r, c] = np.nextafter(matrix[r, c], np.float32(np.inf))
        tied.append(r)
    for r in pick("zero prefix"):
        matrix[r, : rng.integers(1, d)] = 0.0
    for r in pick("overflowing"):
        matrix[r, rng.integers(0, d, size=3)] = 3.3e38
    matrix[pick("degenerate")] = 0.0
    clean = index_of([f"d{i}" for i in range(count)], ["t"] * count, matrix, dims)
    for r in pick("corrupt")[:2]:
        matrix[r, rng.integers(0, d)] = draw(st.sampled_from([np.nan, np.inf, -np.inf]), label="entry")
    edges = dims.edges
    bands = [np.array(matrix[:, lo:hi]) for lo, hi in zip(edges, edges[1:])]
    index = PrefixIndex(clean.ids, clean.titles, bands, dims, clean._norms)

    queries = []
    for _ in range(draw(st.integers(1, 40), label="panel")):
        values = rng.normal(size=d)
        shape = draw(st.sampled_from(["random", "row", "negated row", "zeros", "zero prefix"]),
                     label="query")
        if shape.endswith("row"):
            row = rng.choice(tied) if tied and rng.random() < 0.8 else rng.integers(0, count)
            values = matrix[row].astype(np.float64) * (-1.0 if shape == "negated row" else 1.0)
        elif shape == "zeros":
            values[rng.integers(0, d, size=d // 2)] = 0.0
        elif shape == "zero prefix":
            values[: rng.integers(1, d)] = 0.0
        if np.isfinite(values).all() and values.any():
            queries.append(query_from(values, dims))
    queries = queries or [query_from(rng.normal(size=d), dims)]
    k = draw(st.sampled_from([1, 2, 10, count, count + 5]), label="k")
    return index, queries, k


def scan_outcome(fn):
    """A search's hits (rows, ids, ranks and score bits), or its error."""
    try:
        result = fn()
    except (FormatError, ZeroVectorError) as e:
        return type(e), str(e)
    if isinstance(result, tuple):  # hits and a minimum
        return scan_outcome(lambda: result[0]), float(result[1]).hex()
    return [(h.row, h.doc_id, h.rank, float(h.score).hex()) for h in result]


def full_scan_search(index, query, m, k):
    """search_exact_with_min by a full exact scan of every row."""
    rows, scores = all_scores(index, query, m)
    return top_hits(index, rows, scores, k), float(scores.min()) if rows.size else float("nan")


def full_scan_funnel(index, query, m_low, m_high, shortlist, k):
    stage1, _ = full_scan_search(index, query, m_low, shortlist)
    if not stage1:
        return []
    survivors = np.sort(np.array([hit.row for hit in stage1], dtype=np.int64))
    unit = index_module._unit_prefix(query, m_high)[None]
    rows, scores = index_module._scores(index, unit, m_high, survivors)
    return top_hits(index, rows, scores[:, 0], k)


def panel_top_k(index, queries, m, k):
    """Each query's (rows, score bits, minimum) from `top_k` over the panels
    evaluation ranks, or None for a query without a usable m-prefix."""
    out = [None] * len(queries)
    for positions, units in query_panels(index, queries, m):
        for j, (rows, scores, low) in zip(positions, top_k(index, units, m, k)):
            out[j] = rows.tolist(), [s.hex() for s in scores.tolist()], low.hex()
    return out


def full_scan_panel(index, queries, m, k):
    out = []
    for query in queries:
        try:
            index_module._unit_prefix(query, m)
        except ZeroVectorError:
            out.append(None)
            continue
        hits, low = full_scan_search(index, query, m, k)
        out.append(([h.row for h in hits], [h.score.hex() for h in hits], low.hex()))
    return out


def panel_outcome(fn):
    try:
        return fn()
    except (FormatError, ZeroVectorError) as e:
        return type(e), str(e)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(case=candidate_cases(), data=st.data())
def test_candidate_searches_equal_the_full_exact_scan(monkeypatch, case, data):
    """search_exact, search_exact_with_min (hits and minimum), search_funnel
    and `top_k` over the panels evaluation ranks with (each query's rows,
    score bits and minimum) give a full exact scan's results bit for bit,
    and raise FormatError exactly when it does."""
    index, queries, k = case
    panel = data.draw(st.integers(1, 40), label="panel size")
    monkeypatch.setattr(index_module, "PANEL_QUERIES", panel)
    for m in index.dims:
        for query in queries[:4]:
            want = scan_outcome(lambda: full_scan_search(index, query, m, k))
            assert scan_outcome(lambda: search_exact_with_min(index, query, m, k)) == want
            hits = want[0] if isinstance(want[0], list) else want
            assert scan_outcome(lambda: search_exact(index, query, m, k)) == hits
            for m_high in (d for d in index.dims if d >= m):
                shortlist = max(k, 3)
                assert scan_outcome(lambda: search_funnel(index, query, m, m_high, shortlist, k)) == (
                    scan_outcome(lambda: full_scan_funnel(index, query, m, m_high, shortlist, k)))
        assert panel_outcome(lambda: panel_top_k(index, queries, m, k)) == (
            panel_outcome(lambda: full_scan_panel(index, queries, m, k)))


def panel_scan(index, queries, m):
    """Each query's (rows, score bits) from the histograms' scan, `_scores`
    of every row per panel, or None for a query without a usable m-prefix."""
    out = [None] * len(queries)
    for positions, units in query_panels(index, queries, m):
        rows, scores = index_module._scores(index, units, m)
        for column, j in enumerate(positions):
            out[j] = rows.tolist(), scores[:, column].tobytes()
    return out


def one_query_scans(index, queries, m):
    out = []
    for query in queries:
        try:
            rows, scores = all_scores(index, query, m)
        except ZeroVectorError:
            out.append(None)
            continue
        out.append((rows.tolist(), scores.tobytes()))
    return out


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(case=candidate_cases(), data=st.data())
def test_panel_scan_is_all_scores_query_by_query(monkeypatch, case, data):
    """The histograms' panel scan gives each query with a usable prefix the
    rows and score bits of its own full scan, leaves out degenerate queries
    and zero prefixes, and raises FormatError exactly when the scans do."""
    index, queries, _ = case
    at = data.draw(st.integers(0, len(queries)), label="degenerate query at")
    degenerate = NestedEmbedding(np.zeros(index.dims.full), index.dims, degenerate=True)
    queries = [*queries[:at], degenerate, *queries[at:]]
    panel = data.draw(st.integers(1, 40), label="panel size")
    monkeypatch.setattr(index_module, "PANEL_QUERIES", panel)
    for m in index.dims:
        assert panel_outcome(lambda: panel_scan(index, queries, m)) == (
            panel_outcome(lambda: one_query_scans(index, queries, m)))


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_near_duplicate_cluster_that_float32_misorders_keeps_exact_hits(side):
    """400 rows a few float32 ulps from one another, whose exact cosines
    spread over about 1e-8, at the top of the ranking (side 1) or at its
    bottom (side -1) among 200 other rows: the float32 pass orders the
    cluster differently, and the search still returns the full scan's hits
    and minimum."""
    rng = np.random.default_rng(0)
    dims = DimSet((64, 16))
    query = query_from(rng.normal(size=64), dims)
    unit = index_module._unit_prefix(query, 64)
    base = (side * unit + 0.3 * rng.normal(size=64) / 8).astype(np.float32)
    cluster = np.repeat(base[None], 400, axis=0)
    for row in cluster:
        c = rng.integers(0, 64, size=3)
        row[c] = np.nextafter(row[c], rng.choice([-np.inf, np.inf], size=3).astype(np.float32))
    matrix = np.concatenate([rng.normal(size=(200, 64)).astype(np.float32), cluster])
    count = matrix.shape[0]
    index = index_of([f"d{i}" for i in range(count)], ["t"] * count, matrix, dims)
    approx = index_module._kernels.float32_prefix_dots(index.bands, unit, 64)[200:]
    exact = all_scores(index, query, 64)[1][200:]
    extreme = np.argmax if side > 0 else np.argmin
    assert extreme(approx * side) != extreme(exact * side)
    for k in (1, 3, 10):
        want = scan_outcome(lambda: full_scan_search(index, query, 64, k))
        assert scan_outcome(lambda: search_exact_with_min(index, query, 64, k)) == want
        assert scan_outcome(lambda: search_exact(index, query, 64, k)) == want[0]


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("degenerate_row", [False, True])
def test_corrupt_entry_where_the_query_is_zero_still_raises(entry, degenerate_row):
    # inf * 0 is NaN in the float32 pass as in the exact scan, so the row is
    # a candidate and its exact dot raises, searchable or not
    dims = DimSet((8, 4))
    clean = random_index(np.random.default_rng(31), 50, dims, degenerate_rows=(7,))
    bands = [np.array(band) for band in clean.bands.arrays]
    bands[0][7 if degenerate_row else 20, 1] = entry
    index = PrefixIndex(clean.ids, clean.titles, bands, dims, clean._norms)
    values = np.random.default_rng(32).normal(size=8)
    values[1] = 0.0
    query = query_from(values, dims)
    for m in dims:
        with pytest.raises(FormatError, match=f"first {m} columns"):
            search_exact_with_min(index, query, m, 3)
        with pytest.raises(FormatError):
            panel_top_k(index, [query, query], m, 3)
    with pytest.raises(FormatError, match="first 4 columns"):
        search_funnel(index, query, 4, 8, 5, 3)
