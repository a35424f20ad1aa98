"""Unit tests for the decision-space primitives."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from noisycache import InvalidInputError, SlottedTrace
from noisycache.core import top_c

from helpers import brute_force_best_cost, feasible, reference_top_c


def _cached(score, cache_size):
    return top_c(np.asarray(score, dtype=np.float64), cache_size).tolist()


class TestOracleMinimize:
    """core.top_c, the one cache oracle: caching each row's C largest
    scores leaves out the least score. Its callers check C and pass
    scores without NaN, so it is never given anything else."""

    def test_caches_single_best_file(self):
        assert _cached([5.0, 1.0, 3.0], 1) == [True, False, False]

    def test_all_tied_lowest_index(self):
        assert _cached([2.0, 2.0, 2.0], 2) == [True, True, False]

    def test_boundary_tie_lowest_index(self):
        # files 1 and 3 tie for the last slot
        assert _cached([9.0, 4.0, 7.0, 4.0], 3) == [True, True, True, False]

    def test_cache_everything(self):
        assert _cached([1.0, 2.0], 2) == [True, True]
        assert _cached([[3.0, 3.0, 1.0], [0.0, 5.0, 5.0]], 3) == [[True] * 3] * 2

    def test_matches_enumeration_on_random_floats(self):
        rng = np.random.default_rng(7)
        for n in range(2, 9):
            for c in range(1, n + 1):
                for _ in range(5):
                    score = rng.uniform(0.0, 50.0, n)
                    cached = top_c(score, c)
                    assert feasible(cached, n, c)
                    achieved = float(score @ ~cached)
                    assert achieved == pytest.approx(
                        brute_force_best_cost(score, c), abs=1e-9
                    )

    @given(
        st.lists(st.integers(0, 12), min_size=1, max_size=8),
        st.data(),
    )
    def test_matches_enumeration_on_integer_scores(self, values, data):
        # integer scores make subset sums exact, so equality is strict;
        # the narrow value range forces plenty of boundary ties
        n = len(values)
        c = data.draw(st.integers(1, n))
        score = np.asarray(values, dtype=np.float64)
        cached = top_c(score, c)
        assert feasible(cached, n, c)
        assert float(score @ ~cached) == brute_force_best_cost(score, c)

    @given(
        st.integers(1, 9).flatmap(
            lambda n: st.tuples(
                st.integers(1, n),
                st.lists(
                    st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                    min_size=1, max_size=6,
                ),
            )
        ),
        st.booleans(),
    )
    def test_rows_match_the_lexsort_reference(self, problem, integer_dtype):
        # a small value range puts boundary ties in most rows, and each row
        # must drop its own highest tied indices, whatever the other rows hold
        c, rows = problem
        score = np.array(rows, dtype=np.int64 if integer_dtype else np.float64)
        expected = reference_top_c(score, c)
        assert np.array_equal(top_c(score, c), expected)
        out = np.ones(score.shape, dtype=bool)
        assert top_c(score, c, out=out) is out
        assert np.array_equal(out, expected)
        for row, want in zip(score, expected):
            assert np.array_equal(top_c(row, c), want)

    def test_scale_invariance(self):
        rng = np.random.default_rng(11)
        score = rng.uniform(0.0, 10.0, 20)
        base = top_c(score, 6)
        for factor in (0.5, 2.0, 1000.0):
            assert np.array_equal(top_c(score * factor, 6), base)

    def test_permutation_equivariance_without_ties(self):
        rng = np.random.default_rng(3)
        score = rng.permutation(30).astype(np.float64)
        perm = rng.permutation(30)
        cached = top_c(score, 10)
        assert np.array_equal(top_c(score[perm], 10), cached[perm])


class TestTotalCounts:
    def test_sums_batches(self):
        # slots [0, 2, 2] and [1, 1, 1] over three files
        slotted = SlottedTrace(np.array([0, 2, 2, 1, 1, 1]), n_files=3, batch_size=3)
        assert slotted.totals().tolist() == [1, 3, 2]

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(InvalidInputError):
            SlottedTrace(np.array([], dtype=np.int64), n_files=2, batch_size=1)
        # a partial slot, and indices outside the catalog
        with pytest.raises(InvalidInputError):
            SlottedTrace(np.array([0, 1, 1]), n_files=2, batch_size=2)
        with pytest.raises(InvalidInputError):
            SlottedTrace(np.array([0, 2]), n_files=2, batch_size=1)
        with pytest.raises(InvalidInputError):
            SlottedTrace(np.array([-1, 0]), n_files=2, batch_size=1)

