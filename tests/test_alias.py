from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from glmsub import Criterion, ProbabilityVector, ValidationError, draw_with_replacement


class TestDraws:
    def test_chi_square_small(self):
        rng = np.random.default_rng(99)
        probs = np.array([0.2, 0.3, 0.5])
        r = 100_000
        counts = np.bincount(draw_with_replacement(probs, r, rng), minlength=3)
        _, p = stats.chisquare(counts, r * probs)
        assert p > 0.001

    def test_chi_square_large(self):
        rng = np.random.default_rng(99)
        n = 1000
        weights = np.random.default_rng(3).uniform(0.5, 2.0, size=n)
        probs = weights / weights.sum()
        r = 200_000
        counts = np.bincount(draw_with_replacement(probs, r, rng), minlength=n)
        _, p = stats.chisquare(counts, r * probs)
        assert p > 0.001

    @pytest.mark.parametrize("r", [2.7, float("inf"), float("nan"), np.float64(3.0)])
    def test_size_must_be_an_integer(self, rng, r):
        # A float size is refused, not truncated (2.7 drew 2 rows) or left
        # to raise OverflowError (inf) or NumPy's ValueError (nan).
        with pytest.raises(ValidationError, match="must be an integer"):
            draw_with_replacement([0.5, 0.5], r, rng)

    def test_numpy_integer_size(self):
        a = draw_with_replacement([0.5, 0.5], np.int64(5), np.random.default_rng(4))
        b = draw_with_replacement([0.5, 0.5], 5, np.random.default_rng(4))
        np.testing.assert_array_equal(a, b)

    def test_golden_stream(self):
        # Indices recorded before the sampler class was folded into this
        # function, from weights with zero entries given as an array and
        # behind a ``probs`` attribute, and from a ProbabilityVector.
        probs = np.array([0.0, 0.1, 0.0, 0.3, 0.2, 0.0, 0.4, 0.0])
        expected = [6, 3, 3, 6, 6, 3, 1, 3, 3, 3, 4, 6, 3, 4, 1, 4]
        for weights in (probs, SimpleNamespace(probs=probs)):
            idx = draw_with_replacement(weights, 16, np.random.default_rng(2024))
            assert idx.tolist() == expected
        pv = ProbabilityVector(np.array([0.05, 0.1, 0.15, 0.3, 0.2, 0.2]), Criterion.UNIFORM)
        idx = draw_with_replacement(pv, 16, np.random.default_rng(2024))
        assert idx.tolist() == [4, 2, 3, 4, 5, 1, 1, 2, 3, 2, 3, 4, 1, 3, 0, 3]

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=40).filter(
            lambda w: sum(w) > 1e-6
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_support_and_determinism(self, weights, seed):
        weights = np.array(weights)
        idx1 = draw_with_replacement(weights, 200, np.random.default_rng(seed))
        idx2 = draw_with_replacement(weights, 200, np.random.default_rng(seed))
        np.testing.assert_array_equal(idx1, idx2)
        assert np.all(weights[idx1] > 0)
