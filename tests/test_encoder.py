import hashlib
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from format_oracle import model_file_size, model_sections
from loss_oracle import breakpoint_gap, grad_check
from near2 import encoder
from near2.data import SynthSpec, gen_synthetic
from near2.encoder import (
    MAX_BUCKETS,
    EncoderModel,
    FeatureBag,
    backward,
    embed_bag,
    encode,
    fnv1a64,
    fnv1a64_many,
    load_model,
    pool,
    save_model,
    tokenize,
    tokenize_many,
    xorshift_uniform,
)
from near2.errors import FormatError
from near2.index import build_index
from near2.losses import LossBatch, mnrl_hinge, mrl_compose
from near2.nested import DimSet
from near2.trainer import TrainConfig, train


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

    @pytest.mark.parametrize("offset", [-257, -1, 0, 1, 255, 256, 257])
    def test_runs_of_states_match_one_whole_array_draw(self, offset):
        # counts around one and two runs of raw states
        run = encoder._XS_STEPS * encoder._XS_LANES
        for count in (run + offset, 2 * run + offset):
            assert xorshift_uniform(11, count).tobytes() == whole_array_uniform(11, count).tobytes()


def whole_array_uniform(seed, count):
    """The generator as it drew every state into one uint64 array and then
    converted a float64 copy: the reference the blocked draw must match."""
    states = encoder._splitmix64(np.uint64(seed) + np.arange(encoder._XS_LANES, dtype=np.uint64))
    states[states == 0] = np.uint64(0x9E3779B97F4A7C15)
    blocks = -(-count // encoder._XS_LANES)
    out = np.empty(blocks * encoder._XS_LANES, dtype=np.uint64)
    for b in range(blocks):
        states ^= states << np.uint64(13)
        states ^= states >> np.uint64(7)
        states ^= states << np.uint64(17)
        out[b * encoder._XS_LANES : (b + 1) * encoder._XS_LANES] = states
    draws = (out >> np.uint64(11))[:count].astype(np.float64)
    return draws * 2.0**-53


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
            pooled, values = pool(model, bag), embed_bag(model, bag)
            assert pooled.shape == (model.feature_dim,) and values.shape == (model.full_dim,)
            assert values.tobytes() == (pooled @ model.projection).tobytes()
            embedding = encode(model, text)
            assert values.tobytes() == embedding.values.tobytes()
            assert embedding.degenerate == (len(bag) == 0)

    def test_linearity_in_touched_rows(self):
        model = tiny_model()
        bag = tokenize("linear check", model.bucket_count)
        base = encode(model, "linear check").values
        model.feature_table[bag.ids] *= 2.0
        assert np.array_equal(encode(model, "linear check").values, 2.0 * base)


def fresh_backward(model, bags, grad_pooled):
    """backward of a pooled-row gradient into a fresh zero table."""
    return backward(model, bags, grad_pooled, np.zeros_like(model.feature_table))


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        model = tiny_model()
        grad = fresh_backward(model, [tokenize("some text", model.bucket_count)], np.zeros((1, model.feature_dim)))
        assert np.all(grad == 0.0)

    def test_scalar_chain_rule(self):
        model = EncoderModel.create(bucket_count=1, feature_dim=1, dims=DimSet((1,)), seed=3)
        # one bucket, hit twice: the pooled row is the table row, weight 2/2
        grad = fresh_backward(model, [tokenize("aaaa", model.bucket_count)], np.array([[2.5]]))
        assert grad[0, 0] == 2.5

    def test_untouched_rows_zero(self):
        model = tiny_model()
        text = "alpha beta"
        touched = set(tokenize(text, model.bucket_count).ids.tolist())
        grad = fresh_backward(model, [tokenize(text, model.bucket_count)], np.ones((1, model.feature_dim)))
        for row in range(model.bucket_count):
            if row not in touched:
                assert np.all(grad[row] == 0.0)
            else:
                assert np.all(grad[row] > 0.0)

    def test_shape_mismatch(self):
        model = tiny_model()
        a, b = (tokenize(t, model.bucket_count) for t in ("a", "b"))
        table = np.zeros_like(model.feature_table)
        with pytest.raises(ValueError):
            backward(model, [a], np.zeros((1, model.full_dim)), table)
        with pytest.raises(ValueError):
            backward(model, [a, b], np.zeros((1, model.feature_dim)), table)
        with pytest.raises(ValueError):
            backward(model, [a], np.zeros((1, model.feature_dim)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match=r"grad_table must have shape \(64, 8\)"):
            backward(model, [a, b], np.zeros((2, model.feature_dim)), table[:-1])

    def test_compact_model_rows_equal_the_table_rows(self):
        # a model of the union of the steps' rows, its bags remapped to them
        # and one gradient reused and re-zeroed after each step as train
        # does, gets the whole-table gradient's rows bit for bit
        model = tiny_model(seed=2)
        rng = np.random.default_rng(3)
        steps = (["red flower pot", "", "blue hose"], ["garden hose", "red pot", "blue hose"])
        bags = {t: tokenize(t, model.bucket_count) for texts in steps for t in texts}
        rows = np.unique(np.concatenate([bag.ids for bag in bags.values()]))
        assert 0 < len(rows) < model.bucket_count
        compact = EncoderModel(len(rows), model.feature_dim, model.dims, model.seed,
                               model.feature_table[rows], model.projection)
        remapped = {t: FeatureBag(np.searchsorted(rows, b.ids), b.counts) for t, b in bags.items()}
        grad = np.zeros_like(compact.feature_table)
        for texts in steps:
            step_bags = [bags[t] for t in texts]
            grad_pooled = rng.normal(size=(len(step_bags), model.feature_dim))
            fresh = fresh_backward(model, step_bags, grad_pooled)
            reused = backward(compact, [remapped[t] for t in texts], grad_pooled, grad)
            assert reused is grad
            assert np.array_equal(reused, fresh[rows])
            assert not np.delete(fresh, rows, axis=0).any()
            grad.fill(0.0)

    def test_matches_per_occurrence_reference(self):
        model = tiny_model(seed=5)
        texts = ["red flower pot", "blue hose", "red flower pot", "", "pot"]
        grad_pooled = np.random.default_rng(0).normal(size=(len(texts), model.feature_dim))

        # reference: every occurrence on its own, re-tokenized
        ref_table = np.zeros_like(model.feature_table)
        for text, up in zip(texts, grad_pooled):
            bag = tokenize(text, model.bucket_count)
            w = bag.counts / max(bag.total, 1)
            np.add.at(ref_table, bag.ids, w[:, None] * up[None, :])

        per_occurrence = fresh_backward(model, [tokenize(t, model.bucket_count) for t in texts], grad_pooled)
        distinct = list(dict.fromkeys(texts))
        summed = np.zeros((len(distinct), model.feature_dim))
        np.add.at(summed, [distinct.index(t) for t in texts], grad_pooled)
        per_text = fresh_backward(model, [tokenize(t, model.bucket_count) for t in distinct], summed)
        for grad in (per_occurrence, per_text):
            np.testing.assert_allclose(grad, ref_table, rtol=1e-12, atol=0)

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
                lambda t: pool(model, tokenize(t, model.bucket_count)), model.projection, dims,
                queries=[texts[0]], positives=[[texts[1]]], negatives=[[texts[2], texts[3]]],
            )

        def loss(theta):
            set_params(theta)
            batch, distinct = batch_of(texts)
            out = mrl_compose(lambda b, m: mnrl_hinge(b, 0.75, m), batch, dims)
            bags = [tokenize(t, model.bucket_count) for t in distinct]
            grad_table = fresh_backward(model, bags, out.pooled_gradient)
            flat = np.concatenate([grad_table.ravel(), out.projection_gradient.ravel()])
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


PROBE_TEXTS = ["red plant pot", "garden tools", "ab", "blue desk lamp"]


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

    def test_saved_file_keeps_its_format_bytes(self, tmp_path):
        # more table rows than one write block; the digest was taken from the
        # whole-table writer the blocked one replaced, and the file must also
        # equal the format written out by hand
        model = EncoderModel.create(bucket_count=9000, feature_dim=4, dims=DimSet((8, 4)), seed=3)
        assert model.bucket_count > encoder._SAVE_ROWS
        save_model(model, tmp_path / "a.bin")
        expected = b"".join([
            b"NEAR2MDL", struct.pack("<IIIIH", 1, 9000, 4, 8, 2), struct.pack("<IIQ", 8, 4, 3),
            model.feature_table.astype("<f4").tobytes(), model.projection.astype("<f4").tobytes(),
        ])
        written = (tmp_path / "a.bin").read_bytes()
        assert written == expected
        digest = "d68da08e8e4d0a70228eb4adb00d498cae27885454a1d24e1cfa17a8d35e9b34"
        assert hashlib.sha256(written).hexdigest() == digest
        # a loaded model's mapped float32 table is written back unchanged
        save_model(load_model(tmp_path / "a.bin"), tmp_path / "b.bin")
        assert (tmp_path / "b.bin").read_bytes() == written

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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_table_row_loads_and_fails_only_when_gathered(self, tmp_path, value):
        model = tiny_model()
        row = int(tokenize("corrupt", model.bucket_count).ids[0])
        clean = next(t for t in ("ab", "cd", "ef", "gh")
                     if row not in tokenize(t, model.bucket_count).ids)
        save_model(model, tmp_path / "clean.bin")
        model.feature_table[row, 3] = value
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert not loaded.feature_table.flags.writeable
        want = encode(load_model(tmp_path / "clean.bin"), clean).values
        assert encode(loaded, clean).values.tobytes() == want.tobytes()
        message = f"^model file {re.escape(str(path))} has non-finite feature table row {row}$"
        with pytest.raises(FormatError, match=message):
            encode(loaded, "corrupt")
        with pytest.raises(FormatError, match=message):
            build_index(loaded, [("a", clean), ("b", "corrupt")])
        # an in-memory model's table has no file to name
        with pytest.raises(ValueError, match="^embedding values must be finite$"):
            encode(model, "corrupt")

    def test_loaded_model_keeps_its_bytes_when_its_file_is_replaced(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(tiny_model(seed=1), path)
        loaded = load_model(path)
        want = [encode(loaded, text).values.tobytes() for text in PROBE_TEXTS]
        save_model(tiny_model(seed=2), path)  # renamed over the mapped file
        assert [encode(loaded, text).values.tobytes() for text in PROBE_TEXTS] == want
        assert loaded.feature_table.tobytes() == (
            tiny_model(seed=1).feature_table.astype(np.float32).tobytes())
        assert [encode(load_model(path), text).values.tobytes() for text in PROBE_TEXTS] != want

    def test_training_a_loaded_model_leaves_it_and_its_file_as_they_were(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(tiny_model(seed=4), path)
        before = path.read_bytes()
        loaded = load_model(path)
        want = [encode(loaded, text).values.tobytes() for text in PROBE_TEXTS]
        records, _, _ = gen_synthetic(
            SynthSpec(seed=1, query_count=12, titles_per_query=6, category_count=4))
        config = TrainConfig(epochs=1, batch_size=4, learning_rate=0.02, dims=loaded.dims,
                             bucket_count=loaded.bucket_count, feature_dim=loaded.feature_dim)
        trained, history = train(loaded, records, config)
        assert history.steps
        assert not np.array_equal(trained.feature_table, loaded.feature_table)
        assert path.read_bytes() == before
        assert [encode(loaded, text).values.tobytes() for text in PROBE_TEXTS] == want

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

    # tiny_model's file: a 38-byte header, the seed, a 64 x 8 table, an 8 x 16 projection
    @pytest.mark.parametrize("edit, message", [
        (lambda data: b"", "model file truncated while reading magic"),
        (lambda data: data[: 38 + 4], "model file truncated while reading seed"),
        (lambda data: data[: 46 + 4 * 64 * 8 // 2], "model file truncated while reading feature table"),
        (lambda data: data[:-3], "model file truncated while reading projection"),
        (lambda data: data + b"x", "trailing bytes after model parameters"),
    ], ids=["empty", "cut-in-seed", "cut-in-table", "cut-in-projection", "trailing-byte"])
    def test_cut_or_extended_file_is_format_error(self, tmp_path, edit, message):
        path = tmp_path / "model.bin"
        save_model(tiny_model(), path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            load_model(path)

    def test_every_cut_raises_format_error_naming_its_section(self, tmp_path):
        model = EncoderModel.create(bucket_count=8, feature_dim=4, dims=DimSet((4, 2)), seed=3)
        save_model(model, tmp_path / "model.bin")
        data = (tmp_path / "model.bin").read_bytes()
        sections = model_sections(model)
        assert len(data) == sections[-1].end
        for size in range(len(data)):
            what = next(s.what for s in sections if s.end > size)
            path = tmp_path / f"cut-{size}.bin"
            path.write_bytes(data[:size])
            with pytest.raises(FormatError, match=f"^model file truncated while reading {what}$"):
                load_model(path)
        (tmp_path / "extended.bin").write_bytes(data + b"\x00")
        with pytest.raises(FormatError, match="^trailing bytes after model parameters$"):
            load_model(tmp_path / "extended.bin")



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
