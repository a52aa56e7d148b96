import hashlib
import math
import re
import tracemalloc
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import loss_oracle as oracle
from adamw_oracle import dense_adamw_step
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
    SCHEDULE_PHASES,
    SCHEDULES,
    WEIGHT_DECAY,
    OptimizerState,
    Phase,
    TrainConfig,
    TrainHistory,
    adamw_step,
    build_batches,
    global_norm,
    run_ablation,
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

    def test_qid_with_two_query_strings_is_refused(self):
        # the batches once paired the first query string with every record
        records = [RelevanceRecord("q1", "red plant", "t1", "red pot", 5, None),
                   RelevanceRecord("q1", "blue chair", "t2", "blue seat", 1, None)]
        with pytest.raises(DataError, match=r"^qid 'q1' maps to two different query strings$"):
            build_batches(records, 4, 0)

    def test_no_grade_three_in_any_triplet(self):
        train_recs, _, _ = small_dataset(seed=3, queries=20)
        grade3_titles = {r.title for r in train_recs if r.grade == 3}
        batches = build_batches(train_recs, 4, seed=1)
        for b in batches:
            for group in b.positives + b.negatives:
                assert not (set(group) & grade3_titles)


def exact_row_norm(grads):
    """The clip norm: each row's squares summed pairwise by `np.add.reduce`,
    every row sum added exactly by `math.fsum`, an overflow read as inf."""
    row_sums = []
    for g in grads.values():
        squares = np.square(g).reshape(len(g), math.prod(g.shape[1:]))
        row_sums.extend(np.add.reduce(squares, axis=1).tolist())
    try:
        return math.sqrt(math.fsum(row_sums))
    except OverflowError:
        return math.inf


def reference_clipped_adamw(params, grads, state, lr):
    """Global-norm clipping then AdamW, one whole-array operation at a time."""
    norm = exact_row_norm(grads)
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


def assert_same_bits(params, state, ref_params, ref_state, grads=None, ref_grads=None):
    """Every parameter, moment and (if given) gradient bit equal."""
    assert state.step == ref_state.step
    for name in params:
        assert bits(params[name]) == bits(ref_params[name])
        pairs = [(state.first_moment, ref_state.first_moment),
                 (state.second_moment, ref_state.second_moment)]
        if grads is not None:
            pairs.append((grads, ref_grads))
        for got, want in pairs:
            assert bits(got[name]) == bits(want[name])


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
        # below, equal to, and not a multiple of the block, over several blocks
        shapes = {
            "small": (ADAMW_BLOCK // 3,), "one": (ADAMW_BLOCK,),
            "many": (5, ADAMW_BLOCK // 2 + 7), "table": (3000, 40),
        }
        rng = np.random.default_rng(11)
        params = {k: rng.normal(size=s) for k, s in shapes.items()}
        ref_params = {k: v.copy() for k, v in params.items()}
        state, ref_state = OptimizerState.zeros(params), OptimizerState.zeros(params)
        clips = []
        for scale in (1e-4, 1.0, 3.0):
            ref_grads = {k: scale * rng.normal(size=s) for k, s in shapes.items()}
            # gradients on about a fifth of the table's rows, as in training
            ref_grads["table"][rng.random(shapes["table"][0]) >= 0.2] = 0.0
            grads = {k: g.copy() for k, g in ref_grads.items()}
            norm, clip = adamw_step(params, grads, state, 0.01)
            assert norm == reference_clipped_adamw(ref_params, ref_grads, ref_state, 0.01)
            assert clip == min(1.0, MAX_GRAD_NORM / norm)
            clips.append(clip)
            assert_same_bits(params, state, ref_params, ref_state, grads, ref_grads)
        # an unclipped step, then clipped ones
        assert clips[0] == 1.0 and clips[-1] < 1.0

    def test_gradient_of_the_wrong_shape_is_refused_before_mutation(self):
        params = {"b": np.ones(3), "table": np.ones((6, 2))}
        state = OptimizerState.zeros(params)
        grads = {"b": np.ones(3), "table": np.ones((2, 2))}
        with pytest.raises(ValueError,
                           match=r"^gradient of 'table' must have shape \(6, 2\), got \(2, 2\)$"):
            adamw_step(params, grads, state, 0.1)
        assert state.step == 0 and (params["table"] == 1.0).all() and (params["b"] == 1.0).all()
        assert state.first_moment["table"].shape == (6, 2) and state.first_moment["b"].shape == (3,)
        moments = (*state.first_moment.values(), *state.second_moment.values())
        assert not any(m.any() for m in moments)

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


def bits(a):
    return a.dtype.str, a.shape, a.tobytes()


# parameter entries: signed zeros, subnormals and ordinary values
PARAM_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-308]), st.floats(-4.0, 4.0)
)


def compact_slab(params, rows):
    """The parameters training steps for a table of `params`: a copy of the
    table's `rows` (as `train` gathers its slab model), sharing the rest."""
    return {**params, "table": params["table"][rows]}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_compact_slab_steps_and_replayed_decay_equal_whole_table_steps(data):
    """Steps on a compact copy of a fixed superset of the rows each step's
    gradient reaches, synced into the table (`_sync`: every row replays the
    steps' decays, then the slab rows are written back) after some steps and
    at the end, against `reference_clipped_adamw` on the whole table with
    zero gradient rows; the last step may carry a non-finite gradient entry
    in a slab row, which must abort before any mutation."""
    n, width = data.draw(st.integers(1, 24), "rows"), data.draw(st.integers(1, 4), "width")
    block = data.draw(st.sampled_from([1, 3, 8, ADAMW_BLOCK]), "block")
    params = {
        "table": data.draw(arrays(np.float64, (n, width), elements=PARAM_VALUES), "table"),
        "dense": data.draw(arrays(np.float64, (3,), elements=PARAM_VALUES), "dense"),
    }
    ref_params = {k: v.copy() for k, v in params.items()}
    in_slab = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n), "slab"))
    rows = np.flatnonzero(in_slab)
    slab = compact_slab(params, rows)
    state, ref_state = OptimizerState.zeros(slab), OptimizerState.zeros(params)
    decays = []
    steps = data.draw(st.integers(1, 4), "steps")
    with mock.patch.object(trainer, "ADAMW_BLOCK", block):
        for step in range(1, steps + 1):
            hit = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n))) & in_slab
            scale = data.draw(st.sampled_from([1e-3, 1.0, 40.0]), "scale")
            ref_grads = {
                k: scale * data.draw(arrays(np.float64, v.shape, elements=st.floats(-1.0, 1.0)))
                for k, v in params.items()
            }
            # rows the step misses hold a zero gradient of either sign
            ref_grads["table"][~hit] = data.draw(st.sampled_from([0.0, -0.0]), "zero")
            lr = data.draw(st.sampled_from([1e-3, 0.5]), "lr")
            bad = data.draw(st.sampled_from([None, np.nan, np.inf]), "bad") if step == steps else None
            if bad is not None and rows.size:
                ref_grads["table"][data.draw(st.sampled_from(rows.tolist()), "bad row"), 0] = bad
            grads = {k: g.copy() for k, g in compact_slab(ref_grads, rows).items()}
            if bad is not None and rows.size:
                arrays_before = (*params.values(), *slab.values(), *grads.values(),
                                 *state.first_moment.values(), *state.second_moment.values())
                before = [bits(a) for a in arrays_before]
                with pytest.raises(NumericalError, match="non-finite gradient entries in 'table'"):
                    adamw_step(slab, grads, state, lr)
                assert state.step == step - 1
                assert before == [bits(a) for a in arrays_before]
                return
            norm, clip = adamw_step(slab, grads, state, lr)
            decays.append(lr * WEIGHT_DECAY)
            assert norm == reference_clipped_adamw(ref_params, ref_grads, ref_state, lr)
            assert clip == (MAX_GRAD_NORM / norm if norm > MAX_GRAD_NORM else 1.0)
            assert state.step == ref_state.step == step
            assert bits(grads["table"]) == bits(ref_grads["table"][rows])
            if step == steps or data.draw(st.booleans(), "sync"):
                trainer._sync(params["table"], slab["table"], rows, decays)
                assert decays == []
                assert [bits(p) for p in params.values()] == [bits(p) for p in ref_params.values()]
            for got, want in ((state.first_moment, ref_state.first_moment),
                              (state.second_moment, ref_state.second_moment)):
                assert bits(got["dense"]) == bits(want["dense"])
                assert bits(got["table"]) == bits(want["table"][rows])
                assert not np.delete(want["table"], rows, axis=0).any()


# Compact slab steps against the dense step they replaced: they differ only
# in the clip norm's summation order (exact row sums against one BLAS dot
# product per gradient), so norms agree within NORM_RTOL and, through the
# clip factor, parameters within PARAM_TOL * (|p| + lr) over a few steps.
NORM_RTOL = 1e-14
PARAM_TOL = 1e-12


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_compact_slab_steps_agree_with_the_dense_vdot_oracle(data):
    """Steps as training takes them: the slab is the union of every step's
    rows and the table is synced at the end, while the oracle lists the rows
    touched so far in its dense state."""
    n, width = data.draw(st.integers(1, 40), "rows"), data.draw(st.integers(1, 6), "width")
    params = {
        "table": data.draw(arrays(np.float64, (n, width), elements=st.floats(-4.0, 4.0)), "table"),
        "projection": data.draw(arrays(np.float64, (width, 5), elements=st.floats(-4.0, 4.0))),
    }
    ref_params = {k: v.copy() for k, v in params.items()}
    steps = data.draw(st.integers(1, 5), "steps")
    hits = [np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n), "hit"))
            for _ in range(steps)]
    rows = np.flatnonzero(np.logical_or.reduce(hits))
    slab = compact_slab(params, rows)
    state, ref_state = OptimizerState.zeros(slab), OptimizerState.zeros(params)
    touched = np.zeros(n, dtype=bool)
    decays = []
    for hit in hits:
        touched |= hit
        scale = data.draw(st.sampled_from([1e-3, 0.3, 1.0, 40.0]), "scale")
        ref_grads = {
            k: scale * data.draw(arrays(np.float64, v.shape, elements=st.floats(-1.0, 1.0)))
            for k, v in params.items()
        }
        ref_grads["table"][~hit] = 0.0
        grads = {k: g.copy() for k, g in compact_slab(ref_grads, rows).items()}
        lr = data.draw(st.sampled_from([1e-3, 0.1]), "lr")
        norm, clip = adamw_step(slab, grads, state, lr)
        decays.append(lr * WEIGHT_DECAY)
        ref_norm, ref_clip = dense_adamw_step(ref_params, ref_grads, ref_state, lr,
                                              {"table": np.flatnonzero(touched)})
        assert abs(norm - ref_norm) <= NORM_RTOL * ref_norm
        assert abs(clip - ref_clip) <= NORM_RTOL * ref_clip
    trainer._sync(params["table"], slab["table"], rows, decays)
    for name, value in params.items():
        want = ref_params[name]
        assert (np.abs(value - want) <= PARAM_TOL * (np.abs(want) + lr)).all()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_global_norm_ignores_zero_rows_and_row_order(data):
    # a slab, the table-shaped gradient it stands for, and the slab's rows
    # in another order all give the same bits
    n, width = data.draw(st.integers(1, 30), "rows"), data.draw(st.integers(1, 200), "width")
    slab = data.draw(arrays(np.float64, (n, width), elements=st.floats(-1e3, 1e3)), "slab")
    other = {"projection": data.draw(arrays(np.float64, (3, 4), elements=st.floats(-2.0, 2.0)))}
    table = np.zeros((n + data.draw(st.integers(0, 30), "extra"), width))
    table[np.sort(np.random.default_rng(n).permutation(len(table))[:n])] = slab
    order = data.draw(st.permutations(range(n)), "order")
    norm = global_norm({"table": slab, **other})
    assert norm == global_norm({"table": table, **other})
    assert norm == global_norm({"table": slab[list(order)], **other})
    assert norm == exact_row_norm({"table": slab, **other})
    # against the exact sum of the rounded squares: a pairwise row sum of
    # positive terms is off by at most about 20 roundings at these widths
    entries = np.concatenate([slab.ravel(), other["projection"].ravel()])
    want = math.sqrt(math.fsum(float(x) ** 2 for x in entries))
    assert abs(norm - want) <= 1e-14 * want


def test_global_norm_reads_an_overflowing_sum_as_infinite():
    # each row's squares are finite, their exact sum is not
    grads = {"table": np.full((4, 1), 1e154), "b": np.array([1e-3])}
    assert global_norm(grads) == math.inf
    assert math.isnan(global_norm({"table": np.array([[np.inf, np.nan]])}))


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
        phases = SCHEDULE_PHASES["mrl-first"]
        assert [p.name for p in phases] == ["mrl", "mnrl+ocl"]
        assert phases[0].nested and not phases[1].nested
        phases = SCHEDULE_PHASES["mnrl+ocl"]
        assert [p.name for p in phases] == ["mnrl+ocl", "near2"]
        assert not phases[0].nested and phases[1].nested

    def test_schedule_table(self):
        # Phase(name, ranking, pairs, nested)
        assert SCHEDULES == ("mnrl", "ocl", "mnrl+ocl", "mrl-first")
        assert SCHEDULE_PHASES == {
            "mnrl": (Phase("mnrl", True, False, False), Phase("near2", True, False, True)),
            "ocl": (Phase("ocl", False, True, False), Phase("near2", False, True, True)),
            "mnrl+ocl": (Phase("mnrl+ocl", True, True, False), Phase("near2", True, True, True)),
            "mrl-first": (Phase("mrl", True, False, True), Phase("mnrl+ocl", True, True, False)),
        }

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
    "mnrl": "aae52f2719665d2e1388c101b6521290d6d6cbccbcd9cc852385ea2b06252fc3",
    "ocl": "af0c4c4f7bc54723a8871c4cf8ae008761d6c4f9a8b5d9ed5d762f4353d7d22e",
    "mnrl+ocl": "0563502cc49724eb6b3f98d2c8eeac8d69710a0f2d36a46542c572addb59fea5",
    "mrl-first": "7ba648f26fd46d210322778934bf2b51df514845941bebf56a93d32ab571f439",
}


# sha256 of TrainHistory.to_jsonl() after tiny_config(epochs=2, schedule=...,
# lambda_ocl=...) training on pairs_from_one_query(), validated every epoch
HISTORY_DIGESTS = {
    ("mnrl", 1.0): "0a0bc32624a2a6011895e81623d98292330dc33abce1a8302d50e5a140f5cd0a",
    ("mnrl", 0.0): "0a0bc32624a2a6011895e81623d98292330dc33abce1a8302d50e5a140f5cd0a",
    ("ocl", 1.0): "f9c3008bfa8a2b93ab34480acc1a11d32ccf347ac90c825eee7938516745a38c",
    ("ocl", 0.0): "f9c3008bfa8a2b93ab34480acc1a11d32ccf347ac90c825eee7938516745a38c",
    ("mnrl+ocl", 1.0): "cafa60d32cda30aa546024ad51387384f8c5da5ec0619b84581c6f86592fb6d5",
    ("mnrl+ocl", 0.0): "32606fcb402966281a76db75280856e9f23f24df1c903a9eafa8ccf6a373067e",
    ("mrl-first", 1.0): "cd187f5d462355e244bf3f1808ad2ff94f45022744049dd33431c1d6bec7aa18",
    ("mrl-first", 0.0): "7594a29418666693b3fc0aa631401bfadcf733bb2230294c1f501631c1bbe24f",
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

    def test_slab_model_rows_are_the_union_of_the_run_bag_ids(self, monkeypatch):
        config = tiny_config(epochs=2)
        train_recs, _, _ = small_dataset(seed=2, queries=16)
        model = tiny_model(config)
        initial = model.feature_table.copy()
        texts = {s for r in train_recs for s in (r.query, r.title)}
        union = np.unique(np.concatenate(
            [encoder.tokenize(t, config.bucket_count).ids for t in texts]))
        assert 0 < len(union) < config.bucket_count
        losses, backwards, calls = [], [], []
        real_loss, real_backward = trainer._step_loss, trainer.backward
        real_adamw = trainer.adamw_step

        def step_loss(slab, bags, *args):
            losses.append((slab, bags, slab.feature_table.copy()))
            return real_loss(slab, bags, *args)

        def backward(slab, bags, grad_pooled, grad_table):
            backwards.append((slab, bags))
            return real_backward(slab, bags, grad_pooled, grad_table)

        def adamw_step(params, grads, state, lr):
            calls.append((state.step, params["feature_table"], grads["feature_table"].shape,
                          state.first_moment["feature_table"].shape,
                          state.second_moment["feature_table"].shape))
            return real_adamw(params, grads, state, lr)

        monkeypatch.setattr(trainer, "_step_loss", step_loss)
        monkeypatch.setattr(trainer, "backward", backward)
        monkeypatch.setattr(trainer, "adamw_step", adamw_step)
        trained, _ = train(model, train_recs, config)
        assert len(calls) == len(backwards) > 4
        slab, bags, first_table = losses[0]
        # one model of the union's rows for the whole run, gathered from the
        # table and sharing the projection
        assert slab.bucket_count == len(union) and slab.projection is trained.projection
        assert np.array_equal(first_table, initial[union])
        assert all(s is slab and b is bags for s, b, _ in losses)
        assert all(s is slab for s, _ in backwards)
        # each text's bag remapped to its rows in it
        assert set(bags) == texts
        for text, bag in bags.items():
            want = encoder.tokenize(text, config.bucket_count)
            assert np.array_equal(union[bag.ids], want.ids)
            assert np.array_equal(bag.counts, want.counts)
        remapped = {id(bag) for bag in bags.values()}
        assert all(id(bag) in remapped for _, step_bags in backwards for bag in step_bags)
        for _, table, *shapes in calls:
            assert table is slab.feature_table
            assert shapes == [(len(union), config.feature_dim)] * 3
        # each phase starts from a fresh optimizer state
        assert [step for step, *_ in calls].count(0) == 2

    def test_rows_no_text_reaches_only_decay(self):
        # each step decays every table row, in order, whatever rows its texts
        # reach; validation syncs the table twice before the end
        config = tiny_config(epochs=2, bucket_count=4096)
        train_recs, valid_recs, _ = small_dataset()
        model = tiny_model(config)
        table = model.feature_table.copy()
        trained, history = train(model, train_recs, config, valid_recs)
        reached = np.unique(np.concatenate([encoder.tokenize(s, config.bucket_count).ids
                                            for r in train_recs for s in (r.query, r.title)]))
        assert 0 < len(reached) < config.bucket_count
        for step in history.steps:
            table -= table * (step["lr"] * WEIGHT_DECAY)
        assert bits(np.delete(trained.feature_table, reached, axis=0)) == bits(
            np.delete(table, reached, axis=0))

    def test_no_text_with_features_trains_no_step(self):
        # "ocl" with no labelled record has nothing to train, and no text
        # reaches a table row; the run takes no step and validates the model
        # it was given in every epoch
        config = tiny_config(schedule="ocl")
        records = [RelevanceRecord("q1", "!!!", "t1", "---", 5),
                   RelevanceRecord("q1", "!!!", "t2", "...", 1)]
        _, valid_recs, _ = small_dataset()
        model = tiny_model(config)
        before = [bits(p) for p in model.parameters().values()]
        trained, history = train(model, records, config, valid_recs)
        assert history.steps == []
        assert trained is model and [bits(p) for p in model.parameters().values()] == before
        report = trainer.sequential_evaluate(model, valid_recs, config.dims, ks=trainer.DEFAULT_KS,
                                             corpus_cap=config.corpus_cap, seed=config.seed)
        expected = TrainHistory()
        for phase in SCHEDULE_PHASES["ocl"]:
            expected.record_validation(phase.name, 1, report)
        assert history.validation == expected.validation

    def test_last_validation_rows_evaluate_the_returned_model(self):
        # the whole table is synced from the slab model before a validation
        config = tiny_config(epochs=2)
        train_recs, valid_recs, _ = small_dataset()
        trained, history = train(tiny_model(config), train_recs, config, valid_recs)
        report = trainer.sequential_evaluate(trained, valid_recs, config.dims,
                                             ks=trainer.DEFAULT_KS,
                                             corpus_cap=config.corpus_cap, seed=config.seed)
        expected = TrainHistory()
        expected.record_validation("near2", 2, report)
        last = [r for r in history.validation if (r["phase"], r["epoch"]) == ("near2", 2)]
        assert last == expected.validation

    def test_no_buffer_is_the_size_of_the_feature_table(self):
        # a 2^15 x 16 table of 4 MiB, against at least three times that in a
        # table-shaped gradient and moments
        config = tiny_config(bucket_count=2**15, feature_dim=16)
        train_recs, _, _ = small_dataset()
        model = tiny_model(config)
        tracemalloc.start()
        try:
            train(model, train_recs, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < model.feature_table.nbytes

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
        assert digest.hexdigest() == "0563502cc49724eb6b3f98d2c8eeac8d69710a0f2d36a46542c572addb59fea5"

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

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_training_agrees_with_the_x_space_oracle_step(self, schedule, monkeypatch):
        # the oracle takes each step's loss on the embeddings x = pooled @
        # projection and its gradients back through x, as training once did
        config = tiny_config(epochs=2, schedule=schedule)
        train_recs, _, _ = small_dataset()
        model, history = train(tiny_model(config), train_recs, config)
        monkeypatch.setattr(trainer, "multitask_step_loss", oracle.pooled_step_loss)
        expected, expected_history = train(tiny_model(config), train_recs, config)
        assert len(history.steps) == len(expected_history.steps) > 4
        for got, want in zip(history.steps, expected_history.steps):
            assert abs(got["loss"] - want["loss"]) <= 1e-9 * abs(want["loss"])
        for name, value in model.parameters().items():
            want = expected.parameters()[name]
            assert np.abs(value - want).max() <= 1e-9 * np.abs(want).max()

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


def with_featureless_title(records, pick, **changes):
    """`records` with the title of the first record `pick` accepts made
    featureless, and `changes` made to it, and that record."""
    i = next(i for i, r in enumerate(records) if pick(r))
    records = list(records)
    records[i] = replace(records[i], title="!!! ---", **changes)
    return records, records[i]


class TestFeaturelessTexts:
    def test_featureless_title_fails_before_the_first_step(self, monkeypatch):
        def no_step(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(trainer, "_step_loss", no_step)
        config = tiny_config()
        train_recs, _, _ = small_dataset()
        # a positive, read by the hinge, and a grade-3 labelled record, read by OCL
        train_recs, first = with_featureless_title(train_recs, lambda r: r.grade > 3)
        train_recs, _ = with_featureless_title(train_recs, lambda r: r.grade == 3)
        tail = f"the first qid {first.qid!r} title id {first.title_id!r} ({first.query!r} / '!!! ---')"
        with pytest.raises(DataError, match=r"^2 training record\(s\) .*" + re.escape(tail) + "$"):
            train(tiny_model(config), train_recs, config)

    @pytest.mark.parametrize("schedule, lambda_ocl, pick, changes, refused_by", [
        ("mnrl", 1.0, lambda r: r.grade == 3, {}, "ocl"),
        ("mnrl+ocl", 0.0, lambda r: r.grade == 3, {}, "ocl"),
        ("ocl", 1.0, lambda r: r.grade > 3, {"central": None}, "mnrl"),
    ], ids=["mnrl-grade-3", "mnrl+ocl-unweighted-grade-3", "ocl-unlabelled-positive"])
    def test_featureless_text_no_loss_reads_is_accepted(
        self, schedule, lambda_ocl, pick, changes, refused_by
    ):
        # a grade-3 record feeds only the contrastive loss, which neither
        # ranking run reads; an unlabelled positive feeds only the hinge,
        # which no "ocl" phase trains
        config = tiny_config(schedule=schedule, lambda_ocl=lambda_ocl)
        train_recs, _, _ = small_dataset()
        train_recs, _ = with_featureless_title(train_recs, pick, **changes)
        _, history = train(tiny_model(config), train_recs, config)
        assert history.steps
        with pytest.raises(DataError, match=r"^1 training record\(s\)"):
            train(tiny_model(config), train_recs, replace(config, schedule=refused_by))


class TestRefusedBeforeTheFirstStep:
    @pytest.mark.parametrize("second_query", ["another red plant", "!!! ---"],
                             ids=["with-features", "featureless"])
    def test_qid_with_two_query_strings(self, monkeypatch, second_query):
        # batches kept a qid's first query string and never trained the
        # second; a featureless second string was refused as one a loss reads
        monkeypatch.setattr(trainer, "adamw_step", mock.Mock(side_effect=AssertionError))
        config = tiny_config()
        train_recs, _, _ = small_dataset()
        i = next(i for i, r in enumerate(train_recs) if r.qid == train_recs[0].qid and i > 0)
        train_recs[i] = replace(train_recs[i], query=second_query)
        message = f"qid {train_recs[0].qid!r} maps to two different query strings"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            train(tiny_model(config), train_recs, config)

    @pytest.mark.parametrize("edit, message", [
        (lambda r: replace(r, grade=min(r.grade, 3)),
         "no judged queries: every query lacks a grade > 3 title"),
        (lambda r: replace(r, query="!!! ---"), "every judged query embeds degenerately"),
    ], ids=["none-judged", "all-featureless"])
    def test_unusable_validation_set(self, edit, message):
        steps = mock.Mock(wraps=trainer.adamw_step)
        config = tiny_config(epochs=3)
        train_recs, valid_recs, _ = small_dataset()
        valid_recs = [edit(r) for r in valid_recs]
        with mock.patch.object(trainer, "adamw_step", steps):
            with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
                train(tiny_model(config), train_recs, config, valid_recs)
        assert steps.call_count == 0
        # the evaluation each epoch would run refuses the set with the same message
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            trainer.sequential_evaluate(tiny_model(config), valid_recs, config.dims)


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
