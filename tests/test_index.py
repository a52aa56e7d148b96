import hashlib
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from near2 import index as index_module
from near2.data import SynthSpec, distinct_titles, gen_synthetic
from near2.encoder import CHUNK_TEXTS, EncoderModel, encode, load_model, save_model
from near2.errors import DataError, FormatError, InvalidDimensionError, ZeroVectorError
from near2.index import (
    PrefixIndex,
    _sections,
    _top_hits,
    all_scores,
    build_index,
    index_file_size,
    load_index,
    memory_footprint,
    query_scores,
    save_index,
    search_exact,
    search_exact_with_min,
    search_funnel,
)
from near2.nested import DimSet, NestedEmbedding, cosine_prefix


def tiny_model(seed=0):
    return EncoderModel.create(bucket_count=64, feature_dim=8, dims=DimSet((16, 8, 4)), seed=seed)


def random_index(rng, count, dims, degenerate_rows=()):
    d = dims.full
    matrix = rng.normal(size=(count, d)).astype(np.float32)
    degenerate = np.zeros(count, dtype=bool)
    for r in degenerate_rows:
        matrix[r] = 0.0
        degenerate[r] = True
    return PrefixIndex(
        ids=[f"doc{i}" for i in range(count)],
        titles=[f"title {i}" for i in range(count)],
        matrix=matrix,
        dims=dims,
        degenerate=degenerate,
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
    """The per-title `encode` loop that `build_index` ran before it worked in chunks."""
    edges = [0, *sorted(model.dims)]
    bands = [np.empty((len(titles), hi - lo), dtype=np.float32) for lo, hi in zip(edges, edges[1:])]
    degenerate = np.zeros(len(titles), dtype=bool)
    for row, (_, text) in enumerate(titles):
        emb = encode(model, text)
        for band, lo, hi in zip(bands, edges, edges[1:]):
            band[row] = emb.values[lo:hi]
        degenerate[row] = emb.degenerate
    return PrefixIndex._from_bands(
        ids=[doc_id for doc_id, _ in titles],
        titles=[text for _, text in titles],
        bands=bands,
        dims=model.dims,
        degenerate=degenerate,
    )


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
    index, expected = build_index(model, titles), build_index_oracle(model, titles)
    for band, want in zip(index.bands.arrays, expected.bands.arrays):
        assert band.dtype == want.dtype and band.tobytes() == want.tobytes()
    assert index._norms.tobytes() == expected._norms.tobytes()
    assert index.degenerate.tolist() == expected.degenerate.tolist()
    assert index.degenerate[[5, CHUNK_TEXTS]].all() and index.degenerate.sum() == 2
    assert list(index.ids) == list(expected.ids) and list(index.titles) == list(expected.titles)


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


class TestSearchExact:
    def test_self_retrieval(self):
        dims = DimSet((4, 2))
        matrix = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=np.float32)
        index = PrefixIndex(["q", "o"], ["q", "o"], matrix, dims, np.zeros(2, bool))
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
        index = PrefixIndex(["a", "b", "c"], ["a", "b", "c"], matrix, dims, np.zeros(3, bool))
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
        index = PrefixIndex(
            [f"d{i}" for i in range(10)], ["t"] * 10, matrix, dims, np.zeros(10, bool)
        )
        full = memory_footprint(index, 768).vector_bytes
        small = memory_footprint(index, 64).vector_bytes
        assert full == 12 * small
        assert memory_footprint(index, 768).vector_bytes == full  # m = D is 1:1

    def test_vector_byte_arithmetic(self):
        dims = DimSet((128, 64))
        matrix = np.zeros((1000, 128), dtype=np.float32)
        index = PrefixIndex(
            [f"d{i}" for i in range(1000)], ["t"] * 1000, matrix, dims, np.zeros(1000, bool)
        )
        assert memory_footprint(index, 128).vector_bytes == 512_000

    def test_invalid_dimension(self):
        dims = DimSet((8,))
        index = PrefixIndex(["a"], ["t"], np.zeros((1, 8), np.float32), dims, np.zeros(1, bool))
        with pytest.raises(InvalidDimensionError):
            memory_footprint(index, 7)


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
        assert np.array_equal(loaded.degenerate, index.degenerate)
        assert list(loaded.dims) == list(index.dims)

    def test_unicode_doc_table(self, tmp_path):
        dims = DimSet((4,))
        index = PrefixIndex(
            ["id-ü"], ["Pflanze für Zuhause — groß"], np.ones((1, 4), np.float32), dims,
            np.zeros(1, bool),
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
        header = 8 + 16 + 2 + 4 * len(dims) + (index.count + 7) // 8
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

    def test_truncated_matrix_is_format_error(self, tmp_path):
        rng = np.random.default_rng(14)
        index = random_index(rng, 9, DimSet((8,)))
        path = tmp_path / "corpus.idx"
        save_index(index, path)
        data = path.read_bytes()
        # header and bitmap (36 bytes) padded to 64, the 9 x 1 norm table padded
        # to 192, then half of the one 9 x 8 band
        path.write_bytes(data[: 192 + 9 * 8 * 2])  # mid-band
        with pytest.raises(FormatError, match="truncated"):
            load_index(path)

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

    def test_non_utf8_id_is_format_error(self, tmp_path):
        path = tmp_path / "corpus.idx"
        index = random_index(np.random.default_rng(18), 5, DimSet((8,)))
        save_index(index, path)
        data = bytearray(path.read_bytes())
        ids_at, _ = _sections(index.count, index.dims)[0][-2]
        data[ids_at] = 0xFF  # first byte of the first id, at the start of the ids blob
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

    def test_trailing_bytes_after_doc_table(self, tmp_path):
        path = tmp_path / "corpus.idx"
        save_index(random_index(np.random.default_rng(20), 5, DimSet((8,))), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing bytes"):
            load_index(path)


def _pristine(kind, path):
    if kind == "model":
        save_model(tiny_model(seed=3), path)
    else:
        index = random_index(np.random.default_rng(21), 6, DimSet((8, 4)), degenerate_rows=(2,))
        save_index(index, path)
    return path.read_bytes()


@pytest.mark.parametrize("kind", ["model", "index"])
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flips=st.lists(
    st.tuples(st.one_of(st.integers(0, 63), st.integers(0, 2**20)), st.integers(1, 255)),
    min_size=1, max_size=3,
))
def test_byte_flips_load_or_raise_format_error(tmp_path, kind, flips):
    path = tmp_path / f"flipped.{kind}"
    data = bytearray(_pristine(kind, path))
    for pos, mask in flips:
        data[pos % len(data)] ^= mask
    path.write_bytes(bytes(data))
    try:
        (load_model if kind == "model" else load_index)(path)
    except FormatError:
        pass


# strings of one- to four-byte characters, empty ones included, so that
# multi-byte characters sit next to many row boundaries
_DOC_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from("aé日😀"), st.characters(blacklist_categories=("Cs",))),
    max_size=6,
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.tuples(_DOC_TEXT, _DOC_TEXT), min_size=1, max_size=12))
def test_doc_table_round_trips_any_unicode(tmp_path, rows):
    ids, titles = [i for i, _ in rows], [t for _, t in rows]
    index = PrefixIndex(ids, titles, np.ones((len(rows), 4), np.float32), DimSet((4, 2)),
                        np.zeros(len(rows), bool))
    save_index(index, tmp_path / "corpus.idx")
    loaded = load_index(tmp_path / "corpus.idx")
    backwards = np.arange(len(rows))[::-1]
    for built in (index, loaded):
        assert [built.ids[r] for r in range(len(rows))] == ids
        assert [built.titles[r] for r in range(len(rows))] == titles
        assert built.ids.take(backwards) == ids[::-1]
    assert (tmp_path / "corpus.idx").stat().st_size == index_file_size(loaded)
    assert memory_footprint(loaded, 4).doc_table_bytes == (
        16 * (len(rows) + 1) + sum(len(s.encode("utf-8")) for s in ids + titles)
    )


def _doc_table_index():
    # multi-byte characters on both sides of nearly every row boundary
    ids = ["é日", "日é", "😀", "éé", "", "日本", "é", "ü"]
    titles = ["über é", "", "日本語", "a😀", "é", "😀😀", "ü", "end é"]
    return PrefixIndex(ids, titles, np.ones((8, 4), np.float32), DimSet((4,)), np.zeros(8, bool))


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
    blobs = len(index.ids.blob), len(index.titles.blob)
    offset, length = _sections(index.count, index.dims, *blobs)[0][section]
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
    offset, length = _sections(index.count, dims)[0][section]
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
    scores=st.lists(st.integers(-3, 3), min_size=1, max_size=80),
    k=st.integers(1, 90),
    seed=st.integers(0, 2**16),
)
def test_top_hits_match_full_lexsort(scores, k, seed):
    index = random_index(np.random.default_rng(0), 100, DimSet((4,)))
    rows = np.random.default_rng(seed).permutation(100)[: len(scores)]
    scores = np.array(scores, dtype=np.float64) / 4  # heavy ties
    order = np.lexsort((rows, -scores))[:k]
    hits = _top_hits(index, rows, scores, k)
    assert [(h.row, h.score, h.rank) for h in hits] == [
        (int(rows[o]), float(scores[o]), r) for r, o in enumerate(order, start=1)
    ]


class TestPrefixIndexEquivalence:
    def test_truncated_index_equals_full_index_at_m(self):
        rng = np.random.default_rng(16)
        dims = DimSet((32, 16, 8, 4))
        full = random_index(rng, 30, dims)
        query_values = rng.normal(size=32)
        for m in dims:
            truncated = PrefixIndex(
                ids=full.ids,
                titles=full.titles,
                matrix=full.matrix[:, :m].copy(),
                dims=full.dims.truncated(m),
                degenerate=full.degenerate,
            )
            q_full = query_from(query_values, dims)
            q_trunc = query_from(query_values[:m], full.dims.truncated(m))
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


def test_query_scores_are_all_scores_query_by_query(monkeypatch):
    # panels of 3 over 8 queries: a full, a mixed and a short last panel
    rng = np.random.default_rng(23)
    dims = DimSet((16, 8, 4))
    index = random_index(rng, 300, dims, degenerate_rows=(0, 7))
    queries = [query_from(rng.normal(size=16), dims) for _ in range(8)]
    queries[2] = query_from(np.r_[np.zeros(4), rng.normal(size=12)], dims)  # zero 4-prefix
    queries[4] = NestedEmbedding(np.zeros(16), dims, degenerate=True)
    monkeypatch.setattr(index_module, "PANEL_QUERIES", 3)
    for m in dims:
        scored = list(query_scores(index, queries, m))
        assert len(scored) == len(queries)
        for query, got in zip(queries, scored):
            if query.degenerate or not np.any(query.values[:m]):
                assert got is None
                continue
            rows, scores = all_scores(index, query, m)
            assert np.array_equal(got[0], rows)
            assert got[1].tobytes() == scores.tobytes()
