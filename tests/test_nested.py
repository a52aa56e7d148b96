import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from near2.errors import InvalidDimensionError, ZeroVectorError
from near2.nested import (
    DimSet,
    NestedEmbedding,
    cosine_prefix,
    l2_normalize,
    truncate,
)


def emb(values, dims):
    return NestedEmbedding(np.asarray(values, dtype=np.float64), DimSet(tuple(dims)))


class TestDimSet:
    def test_descending_required(self):
        with pytest.raises(ValueError):
            DimSet((2, 4))
        with pytest.raises(ValueError):
            DimSet((4, 4))
        with pytest.raises(ValueError):
            DimSet((4, 0))
        with pytest.raises(ValueError):
            DimSet(())

    def test_membership_and_full(self):
        d = DimSet((8, 4, 2))
        assert d.full == 8
        assert 4 in d and 3 not in d
        assert list(d) == [8, 4, 2]

    def test_edges_cut_ascending_bands(self):
        assert DimSet((8, 4, 2)).edges == (0, 2, 4, 8)
        assert DimSet((3,)).edges == (0, 3)


class TestTruncate:
    def test_identity(self):
        e = emb([1, 2, 3, 4], (4, 2))
        assert truncate(e, 4).tolist() == [1, 2, 3, 4]

    def test_prefix(self):
        e = emb([1, 2, 3, 4], (4, 2))
        assert truncate(e, 2).tolist() == [1, 2]

    def test_invalid_dimension_names_m_and_set(self):
        e = emb([0.5, -0.5, 0, 0], (4, 2))
        with pytest.raises(InvalidDimensionError) as exc:
            truncate(e, 3)
        assert "3" in str(exc.value) and "[4, 2]" in str(exc.value)

    def test_prefix_of_prefix(self):
        e = emb([1, 2, 3, 4, 5, 6, 7, 8], (8, 4, 2))
        outer = NestedEmbedding(truncate(e, 4), DimSet((4, 2)))
        assert truncate(outer, 2).tolist() == truncate(e, 2).tolist()


class TestL2Normalize:
    def test_three_four_five(self):
        assert l2_normalize(np.array([3.0, 4.0])).tolist() == [0.6, 0.8]

    def test_already_unit(self):
        assert l2_normalize(np.array([1.0, 0.0, 0.0])).tolist() == [1.0, 0.0, 0.0]

    def test_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            l2_normalize(np.array([0.0, 0.0]))

    def test_unit_norm_within_tolerance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(size=7) * 10.0 ** float(rng.integers(-3, 4))
            assert abs(np.linalg.norm(l2_normalize(v)) - 1.0) < 1e-6


class TestCosinePrefix:
    def test_identical_prefixes(self):
        a = emb([1, 0, 5, 5], (4, 2))
        b = emb([1, 0, -5, -5], (4, 2))
        assert cosine_prefix(a, b, 2) == 1.0

    def test_full_dimension_hand_value(self):
        # dot = 1 - 25 - 25 = -49, |a| = |b| = sqrt(51)
        a = emb([1, 0, 5, 5], (4, 2))
        b = emb([1, 0, -5, -5], (4, 2))
        assert cosine_prefix(a, b, 4) == pytest.approx(-49.0 / 51.0, rel=1e-12)

    def test_full_dimension_hand_value_ones_variant(self):
        # dot = 1 + 1 - 25 - 25 = -48, norms sqrt(52): -48/52 = -0.923076...
        a = emb([1, 1, 5, 5], (4, 2))
        b = emb([1, 1, -5, -5], (4, 2))
        assert cosine_prefix(a, b, 4) == pytest.approx(-48.0 / 52.0, rel=1e-12)
        assert cosine_prefix(a, b, 4) == pytest.approx(-0.9231, abs=1e-4)

    def test_orthogonal(self):
        a = emb([1, 1], (2,))
        b = emb([1, -1], (2,))
        assert cosine_prefix(a, b, 2) == pytest.approx(0.0, abs=1e-12)

    def test_zero_norm_prefix(self):
        a = emb([0, 0, 1, 1], (4, 2))
        b = emb([1, 1, 1, 1], (4, 2))
        with pytest.raises(ZeroVectorError):
            cosine_prefix(a, b, 2)


finite_vec = st.lists(
    st.floats(min_value=-1e6, max_value=1e6).filter(lambda x: abs(x) > 1e-3 or x == 0.0),
    min_size=6,
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(finite_vec, finite_vec, st.sampled_from([6, 3]), st.floats(min_value=1e-3, max_value=1e3))
def test_scale_invariance(av, bv, m, c):
    a, b = np.array(av), np.array(bv)
    if np.linalg.norm(a[:m]) < 1e-6 or np.linalg.norm(b[:m]) < 1e-6:
        return
    dims = DimSet((6, 3))
    base = cosine_prefix(NestedEmbedding(a, dims), NestedEmbedding(b, dims), m)
    scaled = cosine_prefix(NestedEmbedding(c * a, dims), NestedEmbedding(b, dims), m)
    assert scaled == pytest.approx(base, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(finite_vec, finite_vec, st.sampled_from([6, 3]))
def test_symmetry_exact_and_range(av, bv, m):
    a, b = np.array(av), np.array(bv)
    if np.linalg.norm(a[:m]) < 1e-6 or np.linalg.norm(b[:m]) < 1e-6:
        return
    dims = DimSet((6, 3))
    ea, eb = NestedEmbedding(a, dims), NestedEmbedding(b, dims)
    ab = cosine_prefix(ea, eb, m)
    ba = cosine_prefix(eb, ea, m)
    assert ab == ba
    assert -1.0 <= ab <= 1.0

