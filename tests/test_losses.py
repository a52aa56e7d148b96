import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import loss_oracle as oracle
from loss_oracle import breakpoint_gap, grad_check
from near2.errors import NumericalError, ZeroVectorError
from near2.losses import (
    LossBatch,
    LossOutput,
    mnrl_hinge,
    mrl_compose,
    multitask_step_loss,
    ocl,
)
from near2.nested import DimSet

D2 = DimSet((2,))


def unit_at_cos(c):
    """2-d unit vector whose cosine against [1, 0] is c."""
    return np.array([c, np.sqrt(max(0.0, 1.0 - c * c))])


def occurrence_rows(pos_counts, neg_counts, n_pairs=0):
    """Row indices for one embedding row per occurrence, stacked as queries,
    then each query's positives, then its negatives, then lefts, then rights."""
    q = len(pos_counts)
    counts = [q, *pos_counts, *neg_counts, n_pairs, n_pairs]
    starts = np.cumsum([0, *counts])
    blocks = [np.arange(s, s + c) for s, c in zip(starts, counts)]
    return dict(queries=blocks[0], positives=blocks[1 : q + 1],
                negatives=blocks[q + 1 : 2 * q + 1], lefts=blocks[-2], rights=blocks[-1])


def occurrence_batch(dims, queries=(), positives=(), negatives=(), lefts=(), rights=(), labels=()):
    """LossBatch with one embedding row per occurrence (see occurrence_rows)."""
    blocks = [queries, *positives, *negatives, lefts, rights]
    embeddings = np.concatenate([np.reshape(b, (-1, dims.full)) for b in blocks])
    rows = occurrence_rows([len(p) for p in positives], [len(n) for n in negatives], len(labels))
    return LossBatch(embeddings, dims, labels=labels, **rows)


def triplet_from_cosines(pos_cos, neg_cos):
    """One query [1, 0], positives/negatives at prescribed cosines."""
    return occurrence_batch(
        D2,
        queries=[[1.0, 0.0]],
        positives=[np.stack([unit_at_cos(c) for c in pos_cos])],
        negatives=[np.stack([unit_at_cos(c) for c in neg_cos])],
    )


def pairs_from_distances(distances, labels):
    """Pairs (left=[1,0], right at cosine 1-d) with the given labels."""
    lefts = np.tile([1.0, 0.0], (len(distances), 1))
    rights = np.stack([unit_at_cos(1.0 - d) for d in distances])
    return occurrence_batch(D2, lefts=lefts, rights=rights, labels=labels)


def random_triplets(rng, dims, n_queries=3, max_pos=3, max_neg=4, scale=1.0):
    d = dims.full
    return dict(
        queries=rng.normal(size=(n_queries, d)) * scale,
        positives=[rng.normal(size=(rng.integers(1, max_pos + 1), d)) for _ in range(n_queries)],
        negatives=[rng.normal(size=(rng.integers(1, max_neg + 1), d)) for _ in range(n_queries)],
    )


def random_pairs(rng, dims, n=6):
    d = dims.full
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():  # ensure both classes most of the time
        labels[0] = 1 - labels[0]
    return dict(lefts=rng.normal(size=(n, d)), rights=rng.normal(size=(n, d)), labels=labels)


def random_batch(rng, dims, **kwargs):
    return occurrence_batch(dims, **random_triplets(rng, dims, **kwargs))


def random_pair_batch(rng, dims, n=6):
    return occurrence_batch(dims, **random_pairs(rng, dims, n))


class TestLossBatch:
    def test_from_texts_gives_one_row_per_distinct_text_in_first_occurrence_order(self):
        seen = []

        def embed(text):
            seen.append(text)
            return np.array([float(len(seen)), 1.0])

        batch, texts = LossBatch.from_texts(
            embed, D2, queries=["q", "r"], positives=[["a"], ["b", "a"]],
            negatives=[["r"], ["c"]], lefts=["q", "s"], rights=["a", "c"], labels=[1, 0],
        )
        assert texts == seen == ["q", "r", "a", "b", "c", "s"]
        assert batch.embeddings.shape == (6, 2)
        assert batch.queries.tolist() == [0, 1]
        assert [g.tolist() for g in batch.positives] == [[2], [3, 2]]
        assert [g.tolist() for g in batch.negatives] == [[1], [4]]
        assert batch.lefts.tolist() == [0, 5]
        assert batch.rights.tolist() == [2, 4]

    def test_row_index_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            LossBatch(np.eye(2), D2, lefts=[0], rights=[2], labels=[1])

    def test_width_must_match_full_dimension(self):
        with pytest.raises(ValueError, match="embeddings"):
            LossBatch(np.zeros((2, 3)), D2)

    def test_pair_lengths_and_labels_validated(self):
        with pytest.raises(ValueError, match="equal length"):
            LossBatch(np.eye(2), D2, lefts=[0, 1], rights=[1], labels=[1])
        with pytest.raises(ValueError, match="0 or 1"):
            LossBatch(np.eye(2), D2, lefts=[0], rights=[1], labels=[2])


class TestMnrlHinge:
    def test_scalar_substitution(self):
        batch = triplet_from_cosines([0.9], [0.2])
        out = mnrl_hinge(batch, margin=0.75, m=2)
        assert out.value == pytest.approx(0.05, rel=1e-12)

    def test_maximal_separation_inactive(self):
        batch = triplet_from_cosines([1.0], [-1.0])
        out = mnrl_hinge(batch, margin=0.75, m=2)
        assert out.value == 0.0
        assert np.all(out.gradient == 0.0)

    def test_all_equal_similarities_give_pn_margin(self):
        batch = triplet_from_cosines([0.5, 0.5], [0.5, 0.5])
        out = mnrl_hinge(batch, margin=0.75, m=2)
        assert out.value == pytest.approx(4 * 0.75, rel=1e-12)

    def test_margin_validated(self):
        batch = triplet_from_cosines([0.9], [0.2])
        with pytest.raises(ValueError):
            mnrl_hinge(batch, margin=2.5, m=2)

    def test_empty_positives_rejected_at_construction(self):
        with pytest.raises(ValueError, match="empty positives"):
            LossBatch(np.eye(2), D2, queries=[0], positives=[[]], negatives=[[1]])

    def test_gradient_locality_beyond_m(self):
        rng = np.random.default_rng(5)
        dims = DimSet((6, 3))
        batch = random_batch(rng, dims)
        out = mnrl_hinge(batch, margin=0.75, m=3)
        assert out.gradient.shape == batch.embeddings.shape
        assert np.all(out.gradient[:, 3:] == 0.0)

    def test_hinge_inactive_triplet_contributes_nothing(self):
        batch = triplet_from_cosines([0.99], [-0.99])
        out = mnrl_hinge(batch, margin=0.75, m=2)
        assert out.value == 0.0
        assert np.all(out.gradient == 0.0)


class TestOcl:
    def test_perfect_separation_is_zero(self):
        batch = pairs_from_distances([0.0, 0.0, 0.6, 0.9], [1, 1, 0, 0])
        out = ocl(batch, margin_c=0.5, m=2)
        assert out.value == 0.0

    def test_hard_pair_substitution(self):
        batch = pairs_from_distances([0.8, 0.3], [1, 0])
        out = ocl(batch, margin_c=0.5, m=2)
        assert out.value == pytest.approx(0.8**2 + (0.5 - 0.3) ** 2, rel=1e-9)

    def test_single_class_degenerates_to_plain_contrastive(self):
        batch = pairs_from_distances([0.1, 0.1, 0.1], [1, 1, 1])
        out = ocl(batch, margin_c=0.5, m=2)
        assert out.value == pytest.approx(0.01, rel=1e-9)

    def test_zero_pairs_rejected(self):
        with pytest.raises(ValueError, match="at least one pair"):
            ocl(LossBatch(np.zeros((0, 2)), D2), margin_c=0.5, m=2)

    def test_margin_validated(self):
        batch = pairs_from_distances([0.5], [1])
        with pytest.raises(ValueError):
            ocl(batch, margin_c=0.0, m=2)

    def test_nonnegative_on_random_batches(self):
        rng = np.random.default_rng(11)
        dims = DimSet((5, 2))
        for _ in range(50):
            out = ocl(random_pair_batch(rng, dims), margin_c=0.5, m=int(rng.choice([5, 2])))
            assert out.value >= 0.0


class TestMrlCompose:
    @staticmethod
    def fake_task(values):
        def task(batch, m):
            return LossOutput(
                value=values[m],
                per_dim={m: values[m]},
                gradient=np.full((1, 4), float(m)),
            )

        return task

    def test_uniform_sum(self):
        out = mrl_compose(self.fake_task({4: 0.3, 2: 0.5}), None, DimSet((4, 2)))
        assert out.value == pytest.approx(0.8, rel=1e-12)
        assert out.per_dim == {4: 0.3, 2: 0.5}

    def test_single_dimension_degenerate_case(self):
        rng = np.random.default_rng(2)
        batch = random_batch(rng, DimSet((4,)))
        direct = mnrl_hinge(batch, 0.75, 4)
        composed = mrl_compose(lambda b, m: mnrl_hinge(b, 0.75, m), batch, DimSet((4,)))
        assert composed.value == direct.value
        assert np.array_equal(composed.gradient, direct.gradient)

    def test_error_annotated_with_failing_m(self):
        def boom(batch, m):
            raise ValueError("synthetic failure")

        message = "^synthetic failure while composing nested dimension m=4$"
        with pytest.raises(ValueError, match=message):
            mrl_compose(boom, None, DimSet((4, 2)))

    def test_decomposition_invariant_random(self):
        rng = np.random.default_rng(7)
        dims = DimSet((6, 4, 2))
        for _ in range(100):
            batch = random_batch(rng, dims)
            out = mrl_compose(lambda b, m: mnrl_hinge(b, 0.75, m), batch, dims)
            recomputed = sum(out.per_dim[m] for m in dims)
            assert abs(out.value - recomputed) <= 1e-9


class TestMultitask:
    def test_lambda_zero_equals_mnrl_only(self):
        rng = np.random.default_rng(13)
        dims = DimSet((6, 3))
        batch = occurrence_batch(dims, **random_triplets(rng, dims), **random_pairs(rng, dims))
        combined = multitask_step_loss(batch, dims, 0.75, 0.5, lambda_ocl=0.0)
        mnrl_only = mrl_compose(lambda b, m: mnrl_hinge(b, 0.75, m), batch, dims)
        assert combined.value == mnrl_only.value
        assert np.array_equal(combined.gradient, mnrl_only.gradient)

    def test_lambda_zero_never_reads_the_pairs(self):
        # the batch's only zero-norm row is a pair right: at weight 0 the step
        # is the hinge loss alone, at any positive weight the pair is an error
        rng = np.random.default_rng(29)
        dims = DimSet((6, 3))
        pairs = random_pairs(rng, dims)
        pairs["rights"][0] = 0.0
        batch = occurrence_batch(dims, **random_triplets(rng, dims), **pairs)
        message = "^zero-norm 6-prefix in batch while composing nested dimension m=6$"
        with pytest.raises(ZeroVectorError, match=message):
            multitask_step_loss(batch, dims, 0.75, 0.5, lambda_ocl=0.5)
        combined = multitask_step_loss(batch, dims, 0.75, 0.5, lambda_ocl=0.0)
        mnrl_only = mrl_compose(lambda b, m: mnrl_hinge(b, 0.75, m), batch, dims)
        assert combined.value == mnrl_only.value
        assert combined.per_dim == mnrl_only.per_dim
        assert np.array_equal(combined.gradient, mnrl_only.gradient)

    @pytest.mark.parametrize("task", ["hinge", "pairs"])
    def test_overflowing_prefix_norm_raises(self, task):
        # finite entries whose squares overflow: the norm is inf, and the unit
        # prefix would be zero with every cosine and gradient zero behind it
        rng = np.random.default_rng(31)
        dims = DimSet((6, 3))
        parts = {"hinge": random_triplets(rng, dims, scale=1e300), "pairs": random_pairs(rng, dims)}
        if task == "pairs":
            parts["pairs"]["lefts"] *= 1e300
        batch = occurrence_batch(dims, **parts[task])
        message = "^6-prefix norm overflows float64 in batch while composing nested dimension m=6$"
        with np.errstate(over="raise"), pytest.raises(NumericalError, match=message):
            multitask_step_loss(batch, dims, 0.75, 0.5, lambda_ocl=1.0)

    def test_unit_lambda_adds_composites(self):
        rng = np.random.default_rng(17)
        dims = DimSet((6, 3))
        batch = occurrence_batch(dims, **random_triplets(rng, dims), **random_pairs(rng, dims))
        combined = multitask_step_loss(batch, dims, 0.75, 0.5, lambda_ocl=1.0)
        a = mrl_compose(lambda b, m: mnrl_hinge(b, 0.75, m), batch, dims)
        b = mrl_compose(lambda b, m: ocl(b, 0.5, m), batch, dims)
        assert combined.value == pytest.approx(a.value + b.value, rel=1e-12)
        assert np.array_equal(combined.gradient, a.gradient + b.gradient)

    def test_empty_pairs_warns_and_drops_term(self):
        rng = np.random.default_rng(19)
        dims = DimSet((4, 2))
        triplets = random_batch(rng, dims)
        combined = multitask_step_loss(triplets, dims, 0.75, 0.5, 1.0)
        mnrl_only = mrl_compose(lambda b, m: mnrl_hinge(b, 0.75, m), triplets, dims)
        assert combined.value == mnrl_only.value
        assert any("empty pair batch" in w for w in combined.warnings)


class TestBreakpointGap:
    def test_hinge_kink_distance(self):
        batch = triplet_from_cosines([0.9, 0.5], [0.2])
        # |0.75 - 0.9 + 0.2| = 0.05 beats |0.75 - 0.5 + 0.2| = 0.45
        assert breakpoint_gap(batch, D2, 0.75, 0.5) == pytest.approx(0.05, rel=1e-9)

    def test_pair_kink_distance(self):
        batch = pairs_from_distances([0.8, 0.3], [1, 0])
        # |margin_c - 0.3| = 0.2 beats the selection thresholds |0.8 - 0.3| = 0.5
        assert breakpoint_gap(batch, D2, 0.75, 0.5) == pytest.approx(0.2, rel=1e-9)

    def test_no_terms_is_infinite(self):
        assert breakpoint_gap(LossBatch(np.zeros((0, 2)), D2), D2, 0.75, 0.5) == np.inf

    def test_covers_both_losses_at_every_dimension(self):
        rng = np.random.default_rng(23)
        dims = DimSet((6, 3))
        triplets, pairs = random_triplets(rng, dims), random_pairs(rng, dims)
        both = occurrence_batch(dims, **triplets, **pairs)
        parts = (occurrence_batch(dims, **triplets), occurrence_batch(dims, **pairs))
        gap = breakpoint_gap(both, dims, 0.75, 0.5)
        assert gap == min(breakpoint_gap(part, dims, 0.75, 0.5) for part in parts)
        assert gap == min(breakpoint_gap(both, DimSet((m,)), 0.75, 0.5) for m in dims)


class TestGradCheck:
    def test_quadratic(self):
        def loss(theta):
            return 0.5 * float(theta @ theta), theta.copy()

        err = grad_check(loss, np.array([1.0, 2.0]), step=1e-5)
        assert err <= 1e-8

    def test_constant(self):
        def loss(theta):
            return 3.5, np.zeros_like(theta)

        err = grad_check(loss, np.array([0.3, -0.7, 2.0]), step=1e-5)
        assert err <= 1e-8

    def test_nonfinite_loss_raises(self):
        def loss(theta):
            if theta[0] > 1.0:
                return float("nan"), np.zeros_like(theta)
            return 0.0, np.zeros_like(theta)

        with pytest.raises(NumericalError):
            grad_check(loss, np.array([1.0 - 1e-6]), step=1e-5)

    def test_step_validated(self):
        with pytest.raises(ValueError):
            grad_check(lambda t: (0.0, np.zeros_like(t)), np.zeros(2), step=0.0)


def _mnrl_theta_loss(dims, margin, shape_spec):
    """Loss closure over the flattened embedding matrix of a per-occurrence batch."""
    _, pos_counts, neg_counts = shape_spec
    rows = occurrence_rows(pos_counts, neg_counts)

    def batch_of(theta):
        return LossBatch(theta.reshape(-1, dims.full), dims, **rows)

    def loss(theta):
        out = mrl_compose(lambda b, m: mnrl_hinge(b, margin, m), batch_of(theta), dims)
        return out.value, out.gradient.ravel()

    def gap(theta):
        return breakpoint_gap(batch_of(theta), dims, margin, 0.5)

    return loss, gap


def test_mnrl_composite_grad_check_seed_7():
    rng = np.random.default_rng(7)
    dims = DimSet((6, 3))
    shape = (2, [2, 1], [2, 2])
    total = (2 + 3 + 4) * dims.full
    theta = rng.normal(size=total)
    loss, gap = _mnrl_theta_loss(dims, 0.75, shape)
    err = grad_check(loss, theta, step=1e-5, gap=gap)
    assert err <= 1e-4


@pytest.mark.parametrize("seed", range(8))
def test_ocl_grad_check_random_seeds(seed):
    rng = np.random.default_rng(seed)
    dims = DimSet((5, 2))
    pairs = random_pair_batch(rng, dims, n=5)

    def batch_of(theta):
        return LossBatch(theta.reshape(-1, dims.full), dims, lefts=pairs.lefts,
                         rights=pairs.rights, labels=pairs.labels)

    def loss(theta):
        out = mrl_compose(lambda b, m: ocl(b, 0.5, m), batch_of(theta), dims)
        return out.value, out.gradient.ravel()

    def gap(theta):
        return breakpoint_gap(batch_of(theta), dims, 0.75, 0.5)

    err = grad_check(loss, pairs.embeddings.ravel(), step=1e-5, gap=gap)
    assert err <= 1e-4


@pytest.mark.parametrize("seed", range(6))
def test_multitask_grad_check_random_seeds(seed):
    rng = np.random.default_rng(100 + seed)
    dims = DimSet((4, 2))
    triplets = random_triplets(rng, dims, n_queries=2, max_pos=2, max_neg=2)
    batch = occurrence_batch(dims, **triplets, **random_pairs(rng, dims, n=4))

    def batch_of(theta):
        return LossBatch(theta.reshape(-1, dims.full), dims, batch.queries, batch.positives,
                         batch.negatives, batch.lefts, batch.rights, batch.labels)

    def loss(theta):
        out = multitask_step_loss(batch_of(theta), dims, 0.75, 0.5, 1.0)
        return out.value, out.gradient.ravel()

    def gap(theta):
        return breakpoint_gap(batch_of(theta), dims, 0.75, 0.5)

    err = grad_check(loss, batch.embeddings.ravel(), step=1e-5, gap=gap)
    assert err <= 1e-4


def _per_occurrence(texts, role):
    """Distinct keys for each occurrence of `texts`, remembering the text last."""
    return [(role, i, text) for i, text in enumerate(texts)]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lambda_ocl=st.sampled_from([0.0, 0.5, 1.0]))
def test_repeated_texts_share_one_row(seed, lambda_ocl):
    # q1 is a query and a pair left; "a" is a positive of q1 and a negative of
    # q2; "c" the other way round; the random draws add further repeats
    rng = np.random.default_rng(seed)
    dims = DimSet((6, 3))
    vocab = ["q1", "q2", "q3", "a", "b", "c", "d"]
    vectors = {text: rng.normal(size=dims.full) for text in vocab}
    titles = vocab[3:]
    queries = ["q1", "q2", "q3"]
    positives = [["a", "b"], ["c"], list(rng.choice(titles, size=2))]
    negatives = [["c", "d"], ["a", "q1"], list(rng.choice(titles, size=3))]
    lefts = ["q1", "q2"] + list(rng.choice(vocab, size=3))
    rights = ["b", "c"] + list(rng.choice(titles, size=3))
    labels = [1, 0] + list(rng.integers(0, 2, size=3))

    shared, texts = LossBatch.from_texts(
        vectors.__getitem__, dims, queries, positives, negatives, lefts, rights, labels
    )
    occurrences, keys = LossBatch.from_texts(
        lambda key: vectors[key[-1]], dims,
        _per_occurrence(queries, "q"),
        [_per_occurrence(g, ("p", i)) for i, g in enumerate(positives)],
        [_per_occurrence(g, ("n", i)) for i, g in enumerate(negatives)],
        _per_occurrence(lefts, "l"), _per_occurrence(rights, "r"), labels,
    )
    assert len(texts) < len(keys)

    a = multitask_step_loss(shared, dims, 0.75, 0.5, lambda_ocl)
    b = multitask_step_loss(occurrences, dims, 0.75, 0.5, lambda_ocl)
    assert a.value == b.value
    assert a.per_dim == b.per_dim

    summed = np.zeros_like(a.gradient)
    np.add.at(summed, [texts.index(key[-1]) for key in keys], b.gradient)
    assert np.abs(a.gradient - summed).max() <= 1e-12 * np.abs(summed).max()


def oracle_batch(rng, dims, n_queries, n_pairs, labels, separated):
    """A batch whose rows repeat within a group and across roles: a title is a
    positive twice, or one query's positive and another's negative, or a pair
    right, and a pair left may be a query. No pair joins a row to itself and
    no row is both a title and a query, nor one query's positive and negative:
    there two terms cancel exactly and the gradient left is rounding noise,
    with no scale to compare against. With `separated` every query's
    positives are near-copies of it, so at margin 0 no hinge is active; the
    labelled pairs never read a near-copy, whose nearly parallel cosine
    gradient would be as ill-conditioned as that noise.
    """
    n_titles = 8
    query_rows = n_titles + np.arange(n_queries)
    twin_rows = query_rows + n_queries
    rows = rng.normal(size=(n_titles + n_queries, dims.full))
    twins = 1.5 * rows[query_rows] + 1e-3 * rng.normal(size=(n_queries, dims.full))
    embeddings = np.concatenate([rows, twins])
    titles = np.arange(n_titles)
    positives = [
        np.full(rng.integers(1, 3), twin) if separated else rng.choice(titles, rng.integers(1, 4))
        for twin in twin_rows
    ]
    negatives = [rng.choice(np.setdiff1d(titles, p), rng.integers(1, 4)) for p in positives]
    lefts = rng.integers(0, len(rows), n_pairs)
    rights = (lefts + rng.integers(1, len(rows), n_pairs)) % len(rows)
    pair_labels = {"mixed": rng.integers(0, 2, n_pairs), "1": np.ones(n_pairs), "0": np.zeros(n_pairs)}
    return LossBatch(
        embeddings, dims, query_rows, positives, negatives, lefts, rights, pair_labels[labels]
    )


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_queries=st.integers(0, 4),
    n_pairs=st.integers(0, 6),
    labels=st.sampled_from(["mixed", "1", "0"]),
    separated=st.booleans(),
    margin=st.sampled_from([0.0, 0.75]),
    lambda_ocl=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_step_loss_agrees_with_the_per_dimension_oracle(
    seed, n_queries, n_pairs, labels, separated, margin, lambda_ocl
):
    dims = DimSet((6, 3))
    batch = oracle_batch(np.random.default_rng(seed), dims, n_queries, n_pairs, labels, separated)
    if not n_queries and not n_pairs:
        for loss in (multitask_step_loss, oracle.multitask_step_loss):
            with pytest.raises(ValueError, match="needs queries or pairs"):
                loss(batch, dims, margin, 0.5, lambda_ocl)
        return
    new = multitask_step_loss(batch, dims, margin, 0.5, lambda_ocl)
    old = oracle.multitask_step_loss(batch, dims, margin, 0.5, lambda_ocl)
    # the hinge's cosines come from per-pair dots here and from matrix-vector
    # products in the oracle, one rounding apart (about 1e-16), which exceeds
    # 1e-12 relative only for a dimension whose whole loss is below 1e-4
    for a, b in [(new.value, old.value), *((new.per_dim[m], old.per_dim[m]) for m in dims)]:
        assert abs(a - b) <= 1e-12 * abs(b) + 1e-15
    assert list(new.per_dim) == list(old.per_dim)
    assert np.abs(new.gradient - old.gradient).max() <= 1e-12 * np.abs(old.gradient).max()
    assert new.warnings == old.warnings
