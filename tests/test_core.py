"""Unit tests for the decision-space primitives."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from noisycache import InvalidInputError, SlottedTrace, oracle_minimize

from helpers import brute_force_best_cost, feasible


class TestOracleMinimize:
    def test_caches_single_best_file(self):
        x = oracle_minimize([5.0, 1.0, 3.0], 1)
        assert x.tolist() == [0, 1, 1]

    def test_all_tied_lowest_index(self):
        x = oracle_minimize([2.0, 2.0, 2.0], 2)
        assert x.tolist() == [0, 0, 1]

    def test_boundary_tie_lowest_index(self):
        # files 1 and 3 tie for the last slot
        x = oracle_minimize([9.0, 4.0, 7.0, 4.0], 3)
        assert x.tolist() == [0, 0, 0, 1]

    def test_most_recent_tiebreak_uses_stamps(self):
        x = oracle_minimize([2.0, 2.0, 2.0], 2, recency=[0, 5, 3])
        assert x.tolist() == [1, 0, 0]

    def test_most_recent_equal_stamps_falls_back_to_index(self):
        x = oracle_minimize([1.0, 1.0, 1.0], 2, recency=[-1, -1, -1])
        assert x.tolist() == [0, 0, 1]

    def test_most_recent_without_recency_behaves_like_lowest_index(self):
        x = oracle_minimize([3.0, 3.0], 1, recency=None)
        assert x.tolist() == [0, 1]

    def test_strictly_better_files_win_regardless_of_recency(self):
        x = oracle_minimize([10.0, 1.0, 2.0], 1, recency=[0, 99, 98])
        assert x.tolist() == [0, 1, 1]

    def test_cache_everything_and_nothing(self):
        assert oracle_minimize([1.0, 2.0], 2).tolist() == [0, 0]
        assert oracle_minimize([1.0, 2.0], 0).tolist() == [1, 1]

    def test_matches_enumeration_on_random_floats(self):
        rng = np.random.default_rng(7)
        for n in range(2, 9):
            for c in range(1, n):
                for _ in range(5):
                    score = rng.uniform(0.0, 50.0, n)
                    x = oracle_minimize(score, c)
                    assert feasible(x, n, c)
                    achieved = float(score @ x)
                    assert achieved == pytest.approx(
                        brute_force_best_cost(score, c), abs=1e-9
                    )

    @given(
        st.lists(st.integers(0, 12), min_size=2, max_size=8),
        st.data(),
    )
    def test_matches_enumeration_on_integer_scores(self, values, data):
        # integer scores make subset sums exact, so equality is strict;
        # the narrow value range forces plenty of boundary ties
        n = len(values)
        c = data.draw(st.integers(0, n))
        score = np.asarray(values, dtype=np.float64)
        x = oracle_minimize(score, c)
        assert feasible(x, n, c)
        assert float(score @ x) == brute_force_best_cost(score, c)

    def test_scale_invariance(self):
        rng = np.random.default_rng(11)
        score = rng.uniform(0.0, 10.0, 20)
        base = oracle_minimize(score, 6)
        for factor in (0.5, 2.0, 1000.0):
            assert np.array_equal(oracle_minimize(score * factor, 6), base)

    def test_permutation_equivariance_without_ties(self):
        rng = np.random.default_rng(3)
        score = rng.permutation(30).astype(np.float64)
        perm = rng.permutation(30)
        x = oracle_minimize(score, 10)
        x_perm = oracle_minimize(score[perm], 10)
        assert np.array_equal(x_perm, x[perm])

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            oracle_minimize([1.0, 2.0], 3)
        with pytest.raises(InvalidInputError):
            oracle_minimize([1.0, 2.0], -1)
        with pytest.raises(InvalidInputError):
            oracle_minimize([1.0, np.nan], 1)
        with pytest.raises(InvalidInputError):
            oracle_minimize([1.0, np.inf], 1)
        with pytest.raises(InvalidInputError):
            oracle_minimize([[1.0, 2.0]], 1)
        with pytest.raises(InvalidInputError):
            oracle_minimize([1.0, 1.0], 1, recency=[1, 2, 3])


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

