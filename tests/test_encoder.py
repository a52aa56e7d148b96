import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from near2 import encoder
from near2.encoder import (
    MAX_BUCKETS,
    EncoderModel,
    backward,
    embed_bag,
    encode,
    fnv1a64,
    fnv1a64_many,
    load_model,
    model_file_size,
    save_model,
    tokenize,
    tokenize_many,
    xorshift_uniform,
)
from near2.errors import FormatError
from near2.losses import LossBatch, breakpoint_gap, grad_check, mnrl_hinge, mrl_compose
from near2.nested import DimSet


def tiny_model(seed=0, buckets=64, feature_dim=8, dims=(16, 8, 4)):
    return EncoderModel.create(
        bucket_count=buckets, feature_dim=feature_dim, dims=DimSet(dims), seed=seed
    )


class TestFnv:
    def test_known_vectors(self):
        # standard FNV-1a 64-bit reference values
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8


    @given(st.lists(st.binary(max_size=40), max_size=12))
    def test_batch_equals_scalar(self, blobs):
        lengths = np.array([len(b) for b in blobs], dtype=np.int64)
        ends = np.cumsum(lengths)
        data = np.frombuffer(b"".join(blobs), dtype=np.uint8)
        hashes = fnv1a64_many(data, ends - lengths, ends)
        assert hashes.dtype == np.uint64
        assert hashes.tolist() == [fnv1a64(b) for b in blobs]


class TestTokenize:
    def test_empty_text(self):
        assert len(tokenize("", 64)) == 0

    def test_case_and_whitespace_normalization(self):
        a = tokenize("iPhone 13", 2**15)
        b = tokenize("IPHONE  13", 2**15)
        assert a.ids.tolist() == b.ids.tolist()
        assert a.counts.tolist() == b.counts.tolist()

    def test_alphanumeric_near_miss_differs(self):
        a = tokenize("S2716DG", 2**15)
        b = tokenize("S2716DP", 2**15)
        assert dict(zip(a.ids.tolist(), a.counts.tolist())) != dict(
            zip(b.ids.tolist(), b.counts.tolist())
        )

    def test_ngram_counts_by_hand(self):
        # "abcd" emits: token "abcd", 3-grams "abc","bcd", 4-gram "abcd"
        big = 2**61  # effectively no modular collisions
        bag = tokenize("abcd", big)
        counts = dict(zip(bag.ids.tolist(), bag.counts.tolist()))
        assert counts[fnv1a64(b"abcd") % big] == 2
        assert counts[fnv1a64(b"abc") % big] == 1
        assert counts[fnv1a64(b"bcd") % big] == 1
        assert len(counts) == 3

    def test_ids_strictly_increasing(self):
        bag = tokenize("the quick brown fox jumps", 128)
        assert np.all(np.diff(bag.ids) > 0)
        assert np.all(bag.counts >= 1)

    def test_punctuation_is_separator(self):
        assert tokenize("plants!", 2**15).ids.tolist() == tokenize("plants", 2**15).ids.tolist()


def same_bag(a, b) -> bool:
    return (
        a.ids.dtype == b.ids.dtype == np.int64
        and a.counts.dtype == b.counts.dtype == np.int64
        and a.ids.tolist() == b.ids.tolist()
        and a.counts.tolist() == b.counts.tolist()
    )


BUCKET_COUNTS = (1, 7, 64, 2**15, MAX_BUCKETS)

# each one a way a batch tokenizer can drift from the one-text loop
HAND_TEXTS = [
    "",
    "?!. ,;",
    "foo_bar __ baz_",
    "İstanbul ẞ STRASSE",  # lowercase changes the length
    "😀 a😀b 😀😀😀x 𝔘𝔫𝔦𝔠𝔬𝔡𝔢",  # astral plane
    "٣٤٥ model١٢ ๑๒๓ ²³",  # non-Latin digits
    "abc\ud800def gh",  # a lone surrogate between tokens
    "x" * 300 + " é" * 2 + "ü" * 257,  # tokens longer than 256 code points
    "Ünïcödé ÀÉÎ 漢字かなカナ",
]


class TestTokenizeMany:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(max_size=30), max_size=12), st.sampled_from(BUCKET_COUNTS))
    def test_equals_tokenize(self, texts, bucket_count):
        bags = tokenize_many(texts, bucket_count)
        assert len(bags) == len(texts)
        for text, bag in zip(texts, bags):
            assert same_bag(bag, tokenize(text, bucket_count))

    @pytest.mark.parametrize("bucket_count", BUCKET_COUNTS)
    @pytest.mark.parametrize("text", HAND_TEXTS)
    def test_hand_cases(self, text, bucket_count):
        (bag,) = tokenize_many([text], bucket_count)
        assert same_bag(bag, tokenize(text, bucket_count))

    def test_hand_cases_in_one_batch(self):
        for bag, text in zip(tokenize_many(HAND_TEXTS, 2**15), HAND_TEXTS):
            assert same_bag(bag, tokenize(text, 2**15))

    def test_empty_list(self):
        assert tokenize_many([], 64) == []

    @pytest.mark.parametrize("bucket_count", [0, -1, MAX_BUCKETS + 1])
    def test_bucket_count_out_of_range(self, bucket_count):
        with pytest.raises(ValueError, match="bucket_count"):
            tokenize_many(["a"], bucket_count)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.text(max_size=20), min_size=1, max_size=12),
        st.integers(min_value=1, max_value=13),
    )
    def test_bag_independent_of_neighbours_and_chunking(self, texts, chunk):
        alone = [tokenize_many([text], 2**15)[0] for text in texts]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(encoder, "CHUNK_TEXTS", chunk)
            chunked = tokenize_many(texts, 2**15)
        for a, b in zip(alone, chunked):
            assert same_bag(a, b)

    def test_default_chunk_boundary(self):
        texts = [f"item{i} x{i % 7}y" for i in range(encoder.CHUNK_TEXTS + 5)]
        bags = tokenize_many(texts, 2**15)
        for i in (0, encoder.CHUNK_TEXTS - 1, encoder.CHUNK_TEXTS, len(texts) - 1):
            assert same_bag(bags[i], tokenize(texts[i], 2**15))


class TestXorshift:
    def test_deterministic_and_in_range(self):
        a = xorshift_uniform(42, 1000)
        b = xorshift_uniform(42, 1000)
        assert np.array_equal(a, b)
        assert a.min() >= 0.0 and a.max() < 1.0

    def test_seeds_differ(self):
        assert not np.array_equal(xorshift_uniform(1, 256), xorshift_uniform(2, 256))

    def test_prefix_stability(self):
        assert np.array_equal(xorshift_uniform(7, 10), xorshift_uniform(7, 1000)[:10])

    def test_roughly_uniform(self):
        u = xorshift_uniform(3, 50_000)
        assert abs(u.mean() - 0.5) < 0.01
        assert abs(np.mean(u < 0.25) - 0.25) < 0.01


class TestEncode:
    def test_empty_text_degenerate_zero(self):
        model = tiny_model()
        e = encode(model, "")
        assert e.degenerate
        assert np.all(e.values == 0.0)

    def test_deterministic(self):
        model = tiny_model(seed=42)
        a = encode(model, "plants")
        b = encode(model, "plants")
        assert np.array_equal(a.values, b.values)
        model2 = tiny_model(seed=42)
        c = encode(model2, "plants")
        assert np.array_equal(a.values, c.values)

    def test_duplicate_tokens_mean_pooling(self):
        model = tiny_model()
        assert np.array_equal(encode(model, "dog dog").values, encode(model, "dog").values)

    def test_init_bounds(self):
        model = tiny_model(feature_dim=16)
        bound = 1.0 / np.sqrt(16)
        for p in (model.feature_table, model.projection):
            assert np.all(np.abs(p) < bound)

    def test_init_bits_are_pinned(self):
        # sha256 of the little-endian float64 feature table, then projection;
        # a change here changes every model trained from a seed
        model = tiny_model(seed=0)
        digest = hashlib.sha256()
        for p in (model.feature_table, model.projection):
            digest.update(np.ascontiguousarray(p, dtype="<f8").tobytes())
        assert digest.hexdigest() == "2b6fdaea15d5b1199777b44c6e3a4044f68c1495d115ba3c1e4c412d60fa20eb"

    def test_embed_bag_gives_the_raw_rows_encode_wraps(self):
        model = tiny_model()
        for text in ("some plant pots", ""):
            bag = tokenize(text, model.bucket_count)
            pooled, values = embed_bag(model, bag)
            assert pooled.shape == (model.feature_dim,) and values.shape == (model.full_dim,)
            embedding = encode(model, text)
            assert values.tobytes() == embedding.values.tobytes()
            assert embedding.degenerate == (len(bag) == 0)

    def test_linearity_in_touched_rows(self):
        model = tiny_model()
        bag = tokenize("linear check", model.bucket_count)
        base = encode(model, "linear check").values
        model.feature_table[bag.ids] *= 2.0
        assert np.array_equal(encode(model, "linear check").values, 2.0 * base)


def pooled_rows(model, bags):
    """The pooled rows embed_bag gives the bags, one per bag."""
    return np.array([embed_bag(model, bag)[0] for bag in bags]).reshape(len(bags), model.feature_dim)


def fresh_backward(model, bags, upstream):
    """backward over the bags' pooled rows into a fresh zero table."""
    return backward(model, bags, upstream, pooled_rows(model, bags), np.zeros_like(model.feature_table))


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        model = tiny_model()
        grads = fresh_backward(model, [tokenize("some text", model.bucket_count)], np.zeros((1, model.full_dim)))
        assert np.all(grads["feature_table"] == 0.0)
        assert np.all(grads["projection"] == 0.0)

    def test_scalar_chain_rule(self):
        model = EncoderModel.create(bucket_count=1, feature_dim=1, dims=DimSet((1,)), seed=3)
        up = np.array([2.5])
        grads = fresh_backward(model, [tokenize("a", model.bucket_count)], up[None, :])
        pooled = model.feature_table[0, 0]  # single bucket, count-weighted mean = row
        assert grads["projection"][0, 0] == pytest.approx(pooled * 2.5, rel=1e-12)
        assert grads["feature_table"][0, 0] == pytest.approx(model.projection[0, 0] * 2.5, rel=1e-12)

    def test_untouched_rows_zero(self):
        model = tiny_model()
        text = "alpha beta"
        touched = set(tokenize(text, model.bucket_count).ids.tolist())
        grads = fresh_backward(model, [tokenize(text, model.bucket_count)], np.ones((1, model.full_dim)))
        for row in range(model.bucket_count):
            if row not in touched:
                assert np.all(grads["feature_table"][row] == 0.0)

    def test_shape_mismatch(self):
        model = tiny_model()
        a, b = (tokenize(t, model.bucket_count) for t in ("a", "b"))
        one, two = pooled_rows(model, [a]), pooled_rows(model, [a, b])
        table = np.zeros_like(model.feature_table)
        with pytest.raises(ValueError):
            backward(model, [a], np.zeros((1, 3)), one, table)
        with pytest.raises(ValueError):
            backward(model, [a, b], np.zeros((1, model.full_dim)), two, table)
        with pytest.raises(ValueError):
            backward(model, [a, b], np.zeros((2, model.full_dim)), one, table)
        with pytest.raises(ValueError):
            backward(model, [a], np.zeros((1, model.full_dim)), one, np.zeros((2, 2)))

    def test_pooled_rows_and_reused_buffer_match_fresh_call(self):
        model = tiny_model(seed=2)
        rng = np.random.default_rng(3)
        buffer = np.zeros_like(model.feature_table)
        steps = (["red flower pot", "", "blue hose"], ["garden hose", "red pot", "blue hose"])
        for texts in steps:
            bags = [tokenize(t, model.bucket_count) for t in texts]
            pooled = pooled_rows(model, bags)
            upstream = rng.normal(size=(len(bags), model.full_dim))
            fresh = backward(model, bags, upstream, pooled, np.zeros_like(model.feature_table))
            reused = backward(model, bags, upstream, pooled, buffer)
            assert reused["feature_table"] is buffer
            for name, grad in fresh.items():
                assert np.array_equal(reused[name], grad)
            # what train does after each update, and the next step's parameters
            buffer[np.concatenate([bag.ids for bag in bags])] = 0.0
            assert not buffer.any()
            model.feature_table += 0.01 * rng.normal(size=model.feature_table.shape)

    def test_matches_per_occurrence_reference(self):
        model = tiny_model(seed=5)
        texts = ["red flower pot", "blue hose", "red flower pot", "", "pot"]
        upstream = np.random.default_rng(0).normal(size=(len(texts), model.full_dim))

        # reference: every occurrence on its own, re-tokenized and re-pooled
        ref_table = np.zeros_like(model.feature_table)
        ref_proj = np.zeros_like(model.projection)
        for text, up in zip(texts, upstream):
            bag = tokenize(text, model.bucket_count)
            if len(bag) == 0:
                continue
            w = bag.counts / bag.total
            ref_proj += np.outer(w @ model.feature_table[bag.ids], up)
            np.add.at(ref_table, bag.ids, w[:, None] * (model.projection @ up)[None, :])

        per_occurrence = fresh_backward(model, [tokenize(t, model.bucket_count) for t in texts], upstream)
        distinct = list(dict.fromkeys(texts))
        summed = np.zeros((len(distinct), model.full_dim))
        np.add.at(summed, [distinct.index(t) for t in texts], upstream)
        per_text = fresh_backward(model, [tokenize(t, model.bucket_count) for t in distinct], summed)
        for grads in (per_occurrence, per_text):
            np.testing.assert_allclose(grads["feature_table"], ref_table, rtol=1e-12, atol=0)
            np.testing.assert_allclose(grads["projection"], ref_proj, rtol=1e-12, atol=0)

    def test_grad_check_through_encoder(self):
        model = tiny_model(seed=1, buckets=32, feature_dim=4, dims=(8, 4))
        texts = ["red flower pot", "blue flower", "green garden hose", "red pot"]
        dims = model.dims
        shapes = {k: v.shape for k, v in model.parameters().items()}

        def set_params(theta):
            b, h = shapes["feature_table"]
            model.feature_table[:] = theta[: b * h].reshape(b, h)
            model.projection[:] = theta[b * h :].reshape(shapes["projection"])

        def batch_of(texts):
            return LossBatch.from_texts(
                lambda t: encode(model, t).values, dims,
                queries=[texts[0]], positives=[[texts[1]]], negatives=[[texts[2], texts[3]]],
            )

        def loss(theta):
            set_params(theta)
            batch, distinct = batch_of(texts)
            out = mrl_compose(lambda b, m: mnrl_hinge(b, 0.75, m), batch, dims)
            bags = [tokenize(t, model.bucket_count) for t in distinct]
            grads = fresh_backward(model, bags, out.gradient)
            flat = np.concatenate([grads["feature_table"].ravel(), grads["projection"].ravel()])
            return out.value, flat

        def gap(theta):
            set_params(theta)
            return breakpoint_gap(batch_of(texts)[0], dims, 0.75, 0.5)

        theta0 = np.concatenate(
            [model.feature_table.ravel().copy(), model.projection.ravel().copy()]
        )
        err = grad_check(loss, theta0.copy(), step=1e-5, gap=gap)
        set_params(theta0)
        assert err <= 1e-4


class TestPersistence:
    def test_roundtrip_after_f32_rounding(self, tmp_path):
        model = tiny_model(seed=9)
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.bucket_count == model.bucket_count
        assert loaded.feature_dim == model.feature_dim
        assert list(loaded.dims) == list(model.dims)
        assert loaded.seed == model.seed
        assert np.array_equal(loaded.feature_table, model.feature_table.astype(np.float32))
        assert np.array_equal(loaded.projection, model.projection.astype(np.float32))

    def test_failed_save_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(tiny_model(seed=1), path)
        before = path.read_bytes()
        broken = tiny_model(seed=2)
        broken.projection = None  # fails after the header and the table are written
        with pytest.raises(AttributeError):
            save_model(broken, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]  # no temp file left

    def test_file_size_matches_format_arithmetic(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.bin"
        save_model(model, path)
        assert path.stat().st_size == model_file_size(model)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(FormatError, match="not a model file"):
            load_model(path)

    def test_truncation(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.bin"
        save_model(model, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(FormatError, match="truncated"):
            load_model(path)

    @pytest.mark.parametrize("dims", [(16, 4, 8), (16, 8, 0), (16, 16, 4)])
    def test_bad_dims_list_is_format_error(self, tmp_path, dims):
        path = tmp_path / "model.bin"
        save_model(tiny_model(), path)
        data = bytearray(path.read_bytes())
        data[8 + 16 + 2 : 8 + 16 + 2 + 12] = struct.pack("<3I", *dims)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="bad dimension list"):
            load_model(path)

    def test_non_finite_parameter_is_format_error(self, tmp_path):
        model = tiny_model()
        model.projection[0, 0] = np.nan
        path = tmp_path / "model.bin"
        save_model(model, path)
        with pytest.raises(FormatError, match="finite"):
            load_model(path)

    @pytest.mark.parametrize("buckets, feature_dim, message", [
        (0, 8, r"bucket_count must be in \[1, 4294967295\], got 0"),
        (64, 0, "feature_dim must be >= 1, got 0"),
    ], ids=["zero-buckets", "zero-feature-dim"])
    def test_empty_parameter_shape_is_format_error(self, tmp_path, buckets, feature_dim, message):
        # a header that agrees with its (empty) parameter sections, so only the sizes are bad
        model = tiny_model()
        b, h, d = buckets, feature_dim, model.full_dim
        path = tmp_path / "model.bin"
        path.write_bytes(
            encoder.pack_header(encoder.MODEL_MAGIC, encoder.MODEL_VERSION, "III", (b, h, d), model.dims)
            + struct.pack("<Q", 0) + bytes(4 * (b * h + h * d))
        )
        with pytest.raises(FormatError, match=message):
            load_model(path)
        with pytest.raises(ValueError, match=message):
            EncoderModel(b, h, model.dims, 0, np.zeros((b, h)), np.zeros((h, d)))

    def test_trailing_garbage(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.bin"
        save_model(model, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FormatError, match="trailing"):
            load_model(path)


@pytest.fixture(scope="module")
def loaded_and_widened(tmp_path_factory):
    """A saved model loaded back, and the same model with its table widened to float64."""
    path = tmp_path_factory.mktemp("model") / "model.bin"
    save_model(tiny_model(seed=5, buckets=4096, feature_dim=16), path)
    widened = load_model(path)
    widened.feature_table = widened.feature_table.astype(np.float64)
    return load_model(path), widened


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet=st.one_of(
    st.sampled_from("aé日 -x9Ü"), st.characters(blacklist_categories=("Cs",))
), max_size=40))
def test_loaded_model_encodes_bitwise_like_its_float64_copy(loaded_and_widened, text):
    loaded, widened = loaded_and_widened
    assert loaded.feature_table.dtype == np.float32
    got, want = encode(loaded, text), encode(widened, text)
    assert got.degenerate == want.degenerate
    assert got.values.dtype == np.float64
    assert got.values.tobytes() == want.values.tobytes()
