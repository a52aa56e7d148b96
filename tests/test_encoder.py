import hashlib
import struct

import numpy as np
import pytest

from near2.encoder import (
    EncoderModel,
    backward,
    encode,
    fnv1a64,
    load_model,
    model_file_size,
    save_model,
    tokenize,
    xorshift_uniform,
)
from near2.errors import FormatError
from near2.losses import LossBatch, MrlConfig, grad_check, mnrl_breakpoint_gap, mnrl_hinge, mrl_compose
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

    def test_linearity_in_touched_rows(self):
        model = tiny_model()
        bag = tokenize("linear check", model.bucket_count)
        base = encode(model, "linear check").values
        model.feature_table[bag.ids] *= 2.0
        assert np.array_equal(encode(model, "linear check").values, 2.0 * base)


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        model = tiny_model()
        grads = backward(model, [tokenize("some text", model.bucket_count)], np.zeros((1, model.full_dim)))
        assert np.all(grads["feature_table"] == 0.0)
        assert np.all(grads["projection"] == 0.0)

    def test_scalar_chain_rule(self):
        model = EncoderModel.create(bucket_count=1, feature_dim=1, dims=DimSet((1,)), seed=3)
        up = np.array([2.5])
        grads = backward(model, [tokenize("a", model.bucket_count)], up[None, :])
        pooled = model.feature_table[0, 0]  # single bucket, count-weighted mean = row
        assert grads["projection"][0, 0] == pytest.approx(pooled * 2.5, rel=1e-12)
        assert grads["feature_table"][0, 0] == pytest.approx(model.projection[0, 0] * 2.5, rel=1e-12)

    def test_untouched_rows_zero(self):
        model = tiny_model()
        text = "alpha beta"
        touched = set(tokenize(text, model.bucket_count).ids.tolist())
        grads = backward(model, [tokenize(text, model.bucket_count)], np.ones((1, model.full_dim)))
        for row in range(model.bucket_count):
            if row not in touched:
                assert np.all(grads["feature_table"][row] == 0.0)

    def test_shape_mismatch(self):
        model = tiny_model()
        a, b = (tokenize(t, model.bucket_count) for t in ("a", "b"))
        with pytest.raises(ValueError):
            backward(model, [a], np.zeros((1, 3)))
        with pytest.raises(ValueError):
            backward(model, [a, b], np.zeros((1, model.full_dim)))

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

        per_occurrence = backward(model, [tokenize(t, model.bucket_count) for t in texts], upstream)
        distinct = list(dict.fromkeys(texts))
        summed = np.zeros((len(distinct), model.full_dim))
        np.add.at(summed, [distinct.index(t) for t in texts], upstream)
        per_text = backward(model, [tokenize(t, model.bucket_count) for t in distinct], summed)
        for grads in (per_occurrence, per_text):
            np.testing.assert_allclose(grads["feature_table"], ref_table, rtol=1e-12, atol=0)
            np.testing.assert_allclose(grads["projection"], ref_proj, rtol=1e-12, atol=0)

    def test_grad_check_through_encoder(self):
        model = tiny_model(seed=1, buckets=32, feature_dim=4, dims=(8, 4))
        texts = ["red flower pot", "blue flower", "green garden hose", "red pot"]
        dims = model.dims
        cfg = MrlConfig.uniform(dims)
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
            out = mrl_compose(lambda b, m: mnrl_hinge(b, 0.75, m), batch, cfg)
            bags = [tokenize(t, model.bucket_count) for t in distinct]
            grads = backward(model, bags, out.gradient)
            flat = np.concatenate([grads["feature_table"].ravel(), grads["projection"].ravel()])
            return out.value, flat

        def gap(theta):
            set_params(theta)
            return min(mnrl_breakpoint_gap(batch_of(texts)[0], 0.75, m) for m in dims)

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

    def test_trailing_garbage(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.bin"
        save_model(model, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FormatError, match="trailing"):
            load_model(path)
