import hashlib
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from near2 import encoder, trainer
from near2.data import RelevanceRecord, SynthSpec, gen_synthetic
from near2.encoder import EncoderModel
from near2.errors import DataError, NumericalError
from near2.nested import DimSet
from near2.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ADAMW_BLOCK,
    MAX_GRAD_NORM,
    SCHEDULES,
    WEIGHT_DECAY,
    OptimizerState,
    TrainConfig,
    adamw_step,
    build_batches,
    run_ablation,
    schedule_phases,
    train,
    warmup_linear,
)


def records_one_query(grades, qid="q1"):
    return [
        RelevanceRecord(qid, "red plant", f"t{i}", f"title {i} red", g, central=1)
        for i, g in enumerate(grades)
    ]


def tiny_config(**kw):
    defaults = dict(
        epochs=1,
        batch_size=4,
        learning_rate=1e-3,
        dims=DimSet((16, 8, 4)),
        seed=0,
        schedule="mnrl+ocl",
        bucket_count=128,
        feature_dim=8,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def tiny_model(config):
    return EncoderModel.create(
        bucket_count=config.bucket_count,
        feature_dim=config.feature_dim,
        dims=config.dims,
        seed=config.seed,
    )


def small_dataset(seed=0, queries=12):
    spec = SynthSpec(seed=seed, query_count=queries, titles_per_query=6, category_count=4)
    train_recs, valid_recs, test_recs = gen_synthetic(spec)
    return train_recs, valid_recs, test_recs


class TestBuildBatches:
    def test_grade_rules(self):
        batches = build_batches(records_one_query([5, 3, 1]), batch_size=4, seed=0)
        assert len(batches) == 1
        assert batches[0].positives[0] == ["title 0 red"]
        assert batches[0].negatives[0] == ["title 2 red"]

    def test_all_grade_three_is_error(self):
        with pytest.raises(DataError, match="zero usable queries"):
            build_batches(records_one_query([3, 3, 3]), batch_size=4, seed=0)

    def test_missing_negative_excluded_from_triplets(self):
        records = records_one_query([5, 4]) + records_one_query([5, 1], qid="q2")
        batches = build_batches(records, batch_size=4, seed=0)
        assert [q for b in batches for q in b.queries] == ["red plant"]
        # the excluded query's centrality pairs still appear somewhere
        pair_rights = [r for b in batches for r in b.rights]
        assert "title 0 red" in pair_rights and "title 1 red" in pair_rights

    def test_deterministic(self):
        train_recs, _, _ = small_dataset()
        a = build_batches(train_recs, 4, seed=9)
        b = build_batches(train_recs, 4, seed=9)
        assert [bt.queries for bt in a] == [bt.queries for bt in b]
        assert [bt.labels for bt in a] == [bt.labels for bt in b]

    def test_negative_cap(self):
        records = records_one_query([5] + [1] * 20)
        batches = build_batches(records, 4, seed=0)
        assert len(batches[0].negatives[0]) == 8

    def test_no_grade_three_in_any_triplet(self):
        train_recs, _, _ = small_dataset(seed=3, queries=20)
        grade3_titles = {r.title for r in train_recs if r.grade == 3}
        batches = build_batches(train_recs, 4, seed=1)
        for b in batches:
            for group in b.positives + b.negatives:
                assert not (set(group) & grade3_titles)


def reference_clipped_adamw(params, grads, state, lr):
    """Global-norm clipping then AdamW, one whole-array operation at a time."""
    norm = math.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))
    if math.isfinite(norm) and norm > MAX_GRAD_NORM:
        for g in grads.values():
            g *= MAX_GRAD_NORM / norm
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for name, p in params.items():
        g = grads[name]
        tmp = np.empty_like(p)
        p -= np.multiply(p, lr * WEIGHT_DECAY, out=tmp)
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=tmp)
        v *= b2
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - b2
        v += tmp
        step = np.divide(m, 1.0 - b1**t)
        step *= lr
        np.divide(v, 1.0 - b2**t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        step /= tmp
        p -= step
    return norm


def assert_same_bits(params, state, ref_params, ref_state):
    assert state.step == ref_state.step
    for name in params:
        assert np.array_equal(params[name], ref_params[name])
        assert np.array_equal(state.first_moment[name], ref_state.first_moment[name])
        assert np.array_equal(state.second_moment[name], ref_state.second_moment[name])


class TestAdamW:
    def test_zero_grad_only_decays(self):
        params = {"w": np.array([1.0, -2.0])}
        state = OptimizerState.zeros(params)
        adamw_step(params, {"w": np.zeros(2)}, state, 0.1)
        assert params["w"].tolist() == [p - p * (0.1 * WEIGHT_DECAY) for p in (1.0, -2.0)]

    def test_first_step_moves_by_lr(self):
        params = {"w": np.array([0.0])}
        state = OptimizerState.zeros(params)
        adamw_step(params, {"w": np.array([1.0])}, state, 0.1)
        # a zero parameter does not decay; the bias-corrected first step is lr * 1/(1 + eps)
        assert params["w"][0] == pytest.approx(-0.1, rel=1e-7)

    def test_decoupled_decay(self):
        params = {"w": np.array([1.0])}
        state = OptimizerState.zeros(params)
        adamw_step(params, {"w": np.array([0.0])}, state, 0.1)
        assert WEIGHT_DECAY == 0.01
        assert params["w"][0] == pytest.approx(0.999, rel=1e-15)

    def test_nonfinite_gradient_aborts_before_mutation(self):
        params = {"w": np.array([1.0]), "v": np.array([2.0])}
        state = OptimizerState.zeros(params)
        with pytest.raises(NumericalError, match="non-finite"):
            adamw_step(params, {"w": np.array([np.nan]), "v": np.array([0.0])}, state, 0.1)
        assert params["w"][0] == 1.0 and params["v"][0] == 2.0
        assert state.step == 0

    def test_matches_straight_line_reference(self):
        rng = np.random.default_rng(0)
        shapes = {"a": (4, 3), "b": (5,)}
        params = {k: rng.normal(size=s) for k, s in shapes.items()}
        reference = {k: v.copy() for k, v in params.items()}
        state = OptimizerState.zeros(params)
        lr = 0.01

        m = {k: np.zeros_like(v) for k, v in reference.items()}
        v2 = {k: np.zeros_like(v) for k, v in reference.items()}
        for t in range(1, 6):
            grads = {k: rng.normal(size=s) for k, s in shapes.items()}
            norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
            clipped = {k: g * min(1.0, MAX_GRAD_NORM / norm) for k, g in grads.items()}
            adamw_step(params, grads, state, lr)
            for k in reference:
                p, g = reference[k], clipped[k]
                p -= lr * WEIGHT_DECAY * p
                m[k] = ADAM_BETA1 * m[k] + (1 - ADAM_BETA1) * g
                v2[k] = ADAM_BETA2 * v2[k] + (1 - ADAM_BETA2) * g * g
                m_hat = m[k] / (1 - ADAM_BETA1**t)
                v_hat = v2[k] / (1 - ADAM_BETA2**t)
                p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            for k in reference:
                np.testing.assert_allclose(params[k], reference[k], rtol=0, atol=1e-12)

    def test_blocked_pass_matches_whole_array_reference(self):
        rng = np.random.default_rng(11)
        # below, equal to, and not a multiple of the block, over several blocks
        shapes = {"small": (ADAMW_BLOCK // 3,), "one": (ADAMW_BLOCK,), "many": (5, ADAMW_BLOCK // 2 + 7)}
        params = {k: rng.normal(size=s) for k, s in shapes.items()}
        ref_params = {k: v.copy() for k, v in params.items()}
        state, ref_state = OptimizerState.zeros(params), OptimizerState.zeros(params)
        clips = []
        for scale in (1e-4, 1.0, 3.0):
            grads = {k: scale * rng.normal(size=s) for k, s in shapes.items()}
            ref_grads = {k: v.copy() for k, v in grads.items()}
            norm, clip = adamw_step(params, grads, state, 0.01)
            assert norm == reference_clipped_adamw(ref_params, ref_grads, ref_state, 0.01)
            assert clip == min(1.0, MAX_GRAD_NORM / norm)
            clips.append(clip)
            for k in grads:
                assert np.array_equal(grads[k], ref_grads[k])
            assert_same_bits(params, state, ref_params, ref_state)
        # an unclipped step, then clipped ones
        assert clips[0] == 1.0 and clips[-1] < 1.0

    def test_finite_entries_overflowing_the_norm_step_unclipped(self):
        shapes = {"w": (ADAMW_BLOCK + 3,), "b": (4,)}
        params = {k: np.linspace(-1.0, 1.0, num=s[0]) for k, s in shapes.items()}
        ref_params = {k: v.copy() for k, v in params.items()}
        state, ref_state = OptimizerState.zeros(params), OptimizerState.zeros(params)
        grads = {"w": np.full(shapes["w"], 1e200), "b": np.array([1e200, -3.0, 0.0, 2.0])}
        ref_grads = {k: v.copy() for k, v in grads.items()}
        with np.errstate(over="ignore"):
            norm, clip = adamw_step(params, grads, state, 0.1)
            assert reference_clipped_adamw(ref_params, ref_grads, ref_state, 0.1) == norm
        assert norm == math.inf and clip == 1.0
        assert grads["b"].tolist() == [1e200, -3.0, 0.0, 2.0]
        assert_same_bits(params, state, ref_params, ref_state)
        assert all(np.isfinite(p).all() for p in params.values())


class TestWarmupAndClip:
    def test_warmup_linear_factors(self):
        # 16 steps: w = 2 warmup steps, then a linear decay that never reaches 0
        assert [warmup_linear(s, 16) for s in (1, 2, 3, 16)] == [0.5, 1.0, 14 / 15, 1 / 15]
        assert warmup_linear(1, 1) == 1.0
        factors = [warmup_linear(s, 25) for s in range(1, 26)]
        assert max(factors) == 1.0 == factors[2] and min(factors) > 0

    def test_clip_scales_in_place_to_max_norm(self):
        params = {"a": np.array([0.5, -1.0]), "b": np.array([[2.0]])}
        prescaled = {k: v.copy() for k, v in params.items()}
        assert MAX_GRAD_NORM == 1.0
        grads = {"a": np.array([3.0, 0.0]), "b": np.array([[4.0]])}
        assert adamw_step(params, grads, OptimizerState.zeros(params), 0.1) == (5.0, 0.2)
        np.testing.assert_allclose(grads["a"], [0.6, 0.0], rtol=1e-15)
        np.testing.assert_allclose(grads["b"], [[0.8]], rtol=1e-15)
        # the clipped update is the unclipped update of pre-scaled gradients,
        # whose norm is exactly 1.0, so they are not clipped again
        scaled = {"a": np.array([3.0, 0.0]) * (1.0 / 5.0), "b": np.array([[4.0]]) * (1.0 / 5.0)}
        assert adamw_step(prescaled, scaled, OptimizerState.zeros(prescaled), 0.1)[1] == 1.0
        for k in params:
            assert np.array_equal(params[k], prescaled[k])
        small = {"a": np.array([0.3, 0.4])}
        params = {"a": np.zeros(2)}
        norm, clip = adamw_step(params, small, OptimizerState.zeros(params), 0.1)
        assert norm == pytest.approx(0.5) and clip == 1.0
        assert small["a"].tolist() == [0.3, 0.4]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_still_reaches_numerical_error(self, bad):
        params = {"w": np.array([1.0, 2.0])}
        grads = {"w": np.array([bad, 5.0])}
        state = OptimizerState.zeros(params)
        with pytest.raises(NumericalError, match="1 non-finite"):
            adamw_step(params, grads, state, 0.1)
        assert grads["w"][1] == 5.0
        assert params["w"].tolist() == [1.0, 2.0] and state.step == 0

    def test_history_records_scheduled_lr_and_pre_clip_norm(self):
        config = tiny_config(epochs=2, learning_rate=0.05, schedule="mnrl")
        train_recs, _, _ = small_dataset(seed=1, queries=16)
        _, history = train(tiny_model(config), train_recs, config)
        for phase in ("mnrl", "near2"):
            rows = [s for s in history.steps if s["phase"] == phase]
            total = len(rows)
            assert [r["lr"] for r in rows] == [
                0.05 * warmup_linear(s, total) for s in range(1, total + 1)
            ]
            assert all(r["grad_norm"] > 0 for r in rows)
            assert [r["clip"] for r in rows] == [min(1.0, MAX_GRAD_NORM / r["grad_norm"]) for r in rows]
            assert any(r["clip"] < 1.0 for r in rows)


class TestSchedules:
    def test_four_schedules_defined(self):
        assert set(SCHEDULES) == {"mnrl", "ocl", "mnrl+ocl", "mrl-first"}

    def test_phase_structure(self):
        phases = schedule_phases("mrl-first")
        assert [p.name for p in phases] == ["mrl", "mnrl+ocl"]
        assert phases[0].nested and not phases[1].nested
        phases = schedule_phases("mnrl+ocl")
        assert [p.name for p in phases] == ["mnrl+ocl", "near2"]
        assert not phases[0].nested and phases[1].nested

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(schedule="bogus")

    def test_negative_lambda_ocl_rejected(self):
        with pytest.raises(ValueError, match=r"lambda_ocl must be >= 0, got -0\.5"):
            TrainConfig(lambda_ocl=-0.5)
        assert TrainConfig(lambda_ocl=0.0).lambda_ocl == 0.0


# sha256 of the float64 parameters after tiny_config(epochs=2, schedule=...)
# training on small_dataset()
TRAINED_DIGESTS = {
    "mnrl": "e12f816d686316b6116d0d3c5adf8ca5c7641e88e383575cfb393693a7c3f94c",
    "ocl": "9616aa427f5af6dac4431522ccb7ba4bc8cd270fd506cc18229d567b83611450",
    "mnrl+ocl": "924d4c80ddba6b24e789b5e2c700cd432697b84dd1e6d074e811d79e62a54651",
    "mrl-first": "d393ad5821dddfaed060153f40ff230b2c214ed42b1f6319c16c0103783c1c66",
}


# sha256 of TrainHistory.to_jsonl() after tiny_config(epochs=2, schedule=...,
# lambda_ocl=...) training on pairs_from_one_query(), validated every epoch
HISTORY_DIGESTS = {
    ("mnrl", 1.0): "9d268e293401cb810169d4461fe67e7a124b911e33fd58de68854c9af93a5157",
    ("mnrl", 0.0): "9d268e293401cb810169d4461fe67e7a124b911e33fd58de68854c9af93a5157",
    ("ocl", 1.0): "553b4ec2f7704ea71907d4df6d4451d4b967bd586b4025433ca887c062d94bd9",
    ("ocl", 0.0): "553b4ec2f7704ea71907d4df6d4451d4b967bd586b4025433ca887c062d94bd9",
    ("mnrl+ocl", 1.0): "72f4f8c0c010bb828dc915468bc1abe738907e2f52186a7b50e993c6cbdeccfe",
    ("mnrl+ocl", 0.0): "c77dc65a27736c44cd8ead55dc561d154328eeee7a829a41ff2f425854ae38c2",
    ("mrl-first", 1.0): "5e769bfeca06a16e5d57a375504ebc7e6d25b5c9ec93e30f8e117bc89c096837",
    ("mrl-first", 0.0): "a6ea92aa911110e2fddca57c0df415d8b8810397a4932a8098f634cf0a1961a5",
}


def pairs_from_one_query():
    """small_dataset()'s train and valid records, centrality kept on one query's
    train records only, so most steps have no labelled pairs."""
    train_recs, valid_recs, _ = small_dataset()
    keep = train_recs[0].qid
    return [r if r.qid == keep else replace(r, central=None) for r in train_recs], valid_recs


class TestTrain:
    def test_zero_epochs_is_identity(self):
        config = tiny_config(epochs=0)
        model = tiny_model(config)
        before = {k: v.copy() for k, v in model.parameters().items()}
        train_recs, _, _ = small_dataset()
        model, history = train(model, train_recs, config)
        assert history.steps == [] and history.validation == []
        for k, v in model.parameters().items():
            assert np.array_equal(v, before[k])

    def test_history_phases_in_order(self):
        config = tiny_config(schedule="mrl-first")
        train_recs, _, _ = small_dataset()
        _, history = train(tiny_model(config), train_recs, config)
        phases = [s["phase"] for s in history.steps]
        assert phases == sorted(phases, key=["mrl", "mnrl+ocl"].index)
        assert set(phases) == {"mrl", "mnrl+ocl"}

    def test_step_indices_increase(self):
        config = tiny_config(epochs=2)
        train_recs, _, _ = small_dataset()
        _, history = train(tiny_model(config), train_recs, config)
        steps = [s["step"] for s in history.steps]
        assert steps == sorted(steps)
        assert len(set(steps)) == len(steps)

    def test_validation_rows_per_epoch_m_k(self):
        config = tiny_config()
        train_recs, valid_recs, _ = small_dataset()
        _, history = train(tiny_model(config), train_recs, config, valid_recs)
        rows = {(r["phase"], r["epoch"], r["m"], r["k"]) for r in history.validation}
        # 2 phases x 1 epoch x 3 dims x 3 ks
        assert len(rows) == len(history.validation) == 2 * 1 * 3 * 3

    def test_seed_determinism_bitwise(self):
        config = tiny_config(epochs=1)
        train_recs, _, _ = small_dataset()
        m1, h1 = train(tiny_model(config), train_recs, config)
        m2, h2 = train(tiny_model(config), train_recs, config)
        assert np.array_equal(m1.feature_table, m2.feature_table)
        assert np.array_equal(m1.projection, m2.projection)
        assert h1.to_jsonl() == h2.to_jsonl()

    def test_loss_decreases_on_separable_data(self):
        config = tiny_config(epochs=2, learning_rate=0.05, schedule="mnrl")
        train_recs, _, _ = small_dataset(seed=1, queries=16)
        _, history = train(tiny_model(config), train_recs, config)
        for phase in ("mnrl", "near2"):
            assert history.epoch_mean_loss(phase, 2) < history.epoch_mean_loss(phase, 1)

    def test_each_text_tokenized_once_per_run(self, monkeypatch):
        calls = Counter()
        tokenize, tokenize_many = encoder.tokenize, encoder.tokenize_many

        def counting(text, bucket_count):
            calls[text] += 1
            return tokenize(text, bucket_count)

        def counting_many(texts, bucket_count):
            calls.update(texts)
            return tokenize_many(texts, bucket_count)

        monkeypatch.setattr(encoder, "tokenize", counting)
        monkeypatch.setattr(encoder, "tokenize_many", counting_many)
        config = tiny_config(epochs=2)
        train_recs, _, _ = small_dataset()
        train(tiny_model(config), train_recs, config)
        assert calls == Counter({s: 1 for r in train_recs for s in (r.query, r.title)})

    def test_each_text_pooled_once_per_step(self, monkeypatch):
        pooled, steps = [], []
        pool, backward = encoder._pool, trainer.backward

        def counting_pool(model, bag):
            pooled.append(id(bag))
            return pool(model, bag)

        def recording_backward(model, bags, *args):
            steps.append((Counter(pooled), Counter(id(bag) for bag in bags if len(bag))))
            pooled.clear()
            grads = backward(model, bags, *args)
            assert not pooled, "backward pooled a bag again"
            return grads

        monkeypatch.setattr(encoder, "_pool", counting_pool)
        monkeypatch.setattr(trainer, "backward", recording_backward)
        config = tiny_config(epochs=2)
        train_recs, _, _ = small_dataset()
        _, history = train(tiny_model(config), train_recs, config)
        assert len(steps) == len(history.steps)
        for pooled_bags, step_bags in steps:
            assert pooled_bags == step_bags

    def test_trained_bits_are_pinned(self):
        # two epochs of both phases, every step clipped; a change here changes
        # every model trained from a seed
        config = tiny_config(epochs=2)
        train_recs, _, _ = small_dataset()
        model, history = train(tiny_model(config), train_recs, config)
        assert {s["phase"] for s in history.steps} == {"mnrl+ocl", "near2"}
        assert all(s["clip"] < 1.0 for s in history.steps)
        digest = hashlib.sha256()
        for p in (model.feature_table, model.projection):
            digest.update(np.ascontiguousarray(p, dtype="<f8").tobytes())
        assert digest.hexdigest() == "924d4c80ddba6b24e789b5e2c700cd432697b84dd1e6d074e811d79e62a54651"

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_trained_bits_are_pinned_for_every_schedule(self, schedule):
        # each schedule reaches the nested composites through its own loss path
        config = tiny_config(epochs=2, schedule=schedule)
        train_recs, _, _ = small_dataset()
        model, _ = train(tiny_model(config), train_recs, config)
        digest = hashlib.sha256()
        for p in (model.feature_table, model.projection):
            digest.update(np.ascontiguousarray(p, dtype="<f8").tobytes())
        assert digest.hexdigest() == TRAINED_DIGESTS[schedule]

    @pytest.mark.parametrize("lambda_ocl", [1.0, 0.0])
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_histories_are_pinned(self, schedule, lambda_ocl):
        # every loss path's step records and validation rows; pair-less steps
        # are skipped by "ocl" and warned about by a weighted multitask phase
        config = tiny_config(epochs=2, schedule=schedule, lambda_ocl=lambda_ocl)
        train_recs, valid_recs = pairs_from_one_query()
        _, history = train(tiny_model(config), train_recs, config, valid_recs)
        full = 2 * 2 * len(build_batches(train_recs, config.batch_size, seed=0))
        assert len(history.steps) < full if schedule == "ocl" else len(history.steps) == full
        multitask = schedule in ("mnrl+ocl", "mrl-first")
        assert any(s["warnings"] for s in history.steps) == (multitask and lambda_ocl > 0)
        assert history.validation
        digest = hashlib.sha256(history.to_jsonl().encode("utf-8")).hexdigest()
        assert digest == HISTORY_DIGESTS[(schedule, lambda_ocl)]

    def test_training_a_loaded_model_matches_its_float64_copy(self, tmp_path):
        # a loaded model holds a float32 table; train copies it to float64 and
        # leaves the loaded model as it was
        config = tiny_config(epochs=2)
        train_recs, _, _ = small_dataset()
        encoder.save_model(tiny_model(config), tmp_path / "model.bin")
        loaded = encoder.load_model(tmp_path / "model.bin")
        before = {k: v.copy() for k, v in loaded.parameters().items()}
        widened = encoder.load_model(tmp_path / "model.bin")
        widened.feature_table = widened.feature_table.astype(np.float64)
        trained, history = train(loaded, train_recs, config)
        expected, expected_history = train(widened, train_recs, config)
        assert history.to_jsonl() == expected_history.to_jsonl()
        for name, value in trained.parameters().items():
            assert value.dtype == np.float64
            assert value.tobytes() == expected.parameters()[name].tobytes()
        assert loaded.feature_table.dtype == np.float32
        for name, value in loaded.parameters().items():
            assert value.tobytes() == before[name].tobytes()

    def test_jsonl_export_shape(self):
        config = tiny_config()
        train_recs, valid_recs, _ = small_dataset()
        _, history = train(tiny_model(config), train_recs, config, valid_recs)
        import json

        lines = history.to_jsonl().strip().split("\n")
        kinds = {json.loads(line)["kind"] for line in lines}
        assert kinds == {"step", "validation"}


class TestAblation:
    def test_four_rows_and_determinism(self):
        config = tiny_config(epochs=1, learning_rate=0.02)
        train_recs, _, test_recs = small_dataset(seed=2, queries=14)
        a = run_ablation(train_recs, test_recs, config)
        b = run_ablation(train_recs, test_recs, config)
        assert tuple(a.schedules) == SCHEDULES
        assert len(a.deltas) == 4
        assert a.to_json() == b.to_json()
        assert a.to_csv() == b.to_csv()

    def test_delta_convention(self):
        config = tiny_config(epochs=1, learning_rate=0.02)
        train_recs, _, test_recs = small_dataset(seed=4, queries=14)
        report = run_ablation(train_recs, test_recs, config, schedules=("mnrl",))
        m = config.dims.full
        base = report.baseline.cell(m, 5).ndcg
        cand = report.reports["mnrl"].cell(m, 5).ndcg
        delta = report.deltas["mnrl"][m]["ndcg@5"]
        if base == 0:
            assert delta is None
        else:
            assert delta == pytest.approx((cand - base) / base, rel=1e-12)

    def test_csv_has_one_row_per_schedule(self):
        config = tiny_config(epochs=1)
        train_recs, _, test_recs = small_dataset(seed=5, queries=10)
        report = run_ablation(train_recs, test_recs, config, schedules=("mnrl", "ocl"))
        lines = report.to_csv().strip().split("\n")
        assert len(lines) == 3  # header + 2 schedules
        assert lines[1].startswith("mnrl,")
        assert lines[2].startswith("ocl,")
