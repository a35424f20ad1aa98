"""Unit tests for the run-level metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from noisycache import (
    BoundParams,
    InvalidInputError,
    RoundRobinConfig,
    SlottedTrace,
    Trace,
    average_miss_ratio,
    batch_trace,
    compute_eta,
    decile_band,
    generate_round_robin,
    regret_bound,
    static_optimum,
)

from helpers import brute_force_static_minimum


class TestAverageMissRatio:
    def test_running_mean(self):
        out = average_miss_ratio([200, 0], 200)
        assert out.tolist() == [1.0, 0.5]

    def test_extremes(self):
        assert average_miss_ratio([0, 0, 0], 5).tolist() == [0.0, 0.0, 0.0]
        assert average_miss_ratio([5, 5], 5).tolist() == [1.0, 1.0]

    def test_rejects_out_of_range_costs(self):
        with pytest.raises(InvalidInputError):
            average_miss_ratio([-1, 0], 5)
        with pytest.raises(InvalidInputError):
            average_miss_ratio([6], 5)
        with pytest.raises(InvalidInputError):
            average_miss_ratio([], 5)

    @given(st.integers(1, 20), st.integers(1, 6), st.integers(1, 30),
           st.integers(0, 2**32 - 1))
    def test_matrix_rows_equal_their_series(self, batch_size, m, horizon, seed):
        costs = np.random.default_rng(seed).integers(0, batch_size + 1, (m, horizon))
        ratios = average_miss_ratio(costs, batch_size)
        assert ratios.shape == (m, horizon)
        for row, ratio in zip(costs, ratios, strict=True):
            assert np.array_equal(ratio, average_miss_ratio(row, batch_size))

    def test_rejects_bad_matrices(self):
        costs = np.zeros((3, 4), dtype=np.int64)
        costs[-1, -1] = 6  # above the batch size in the last row only
        with pytest.raises(InvalidInputError):
            average_miss_ratio(costs, 5)
        costs[-1, -1] = -1
        with pytest.raises(InvalidInputError):
            average_miss_ratio(costs, 5)
        with pytest.raises(InvalidInputError):
            average_miss_ratio(np.zeros((2, 3, 4)), 5)
        with pytest.raises(InvalidInputError):
            average_miss_ratio(np.zeros((3, 0)), 5)


def best_static_cost(slotted, cache_size):
    return int(static_optimum(slotted, cache_size).sum())


class TestOptCost:
    def test_single_batch(self):
        # one slot requesting file 0 five times, file 1 three, file 2 twice
        slotted = SlottedTrace(np.repeat([0, 1, 2], [5, 3, 2]), 3, batch_size=10)
        assert best_static_cost(slotted, 2) == 2

    def test_round_robin_closed_form(self):
        # every file is requested equally often, so any C files miss
        # (N - C)/N of the requests
        trace = generate_round_robin(RoundRobinConfig(1000, 100_000))
        slotted = batch_trace(trace, 200)
        assert best_static_cost(slotted, 100) == 90_000

    def test_matches_brute_force_on_small_catalog(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            events = rng.integers(1, 7, size=60)
            slotted = batch_trace(Trace(events=events, n_files=6), 5)
            slow = brute_force_static_minimum(events, 6, 2)
            assert best_static_cost(slotted, 2) == slow

    def test_never_beaten_by_any_static_decision(self):
        rng = np.random.default_rng(14)
        slotted = SlottedTrace(rng.integers(0, 8, size=12 * 20), 8, batch_size=20)
        best = best_static_cost(slotted, 3)
        for _ in range(25):
            missing = np.ones(8, dtype=np.int8)
            missing[rng.choice(8, size=3, replace=False)] = 0
            assert best <= int(missing[slotted.events].sum())


class TestRegretBound:
    # at compute_eta's eta, eta * D + R * A * T / eta is 2 * sqrt(R * A * D * T)
    def test_desk_scale_values(self):
        exact = BoundParams(cost_bound=200.0, l1_bound=200.0, diameter=200)
        eta = compute_eta(exact, 500)
        assert regret_bound(exact, 500, eta) == pytest.approx(126491.10640673517, rel=1e-12)
        half = BoundParams(cost_bound=400.0, l1_bound=400.0, diameter=200)
        eta = compute_eta(half, 500)
        assert regret_bound(half, 500, eta) == pytest.approx(252982.21281347034, rel=1e-12)

    def test_formula(self):
        bounds = BoundParams(cost_bound=3.0, l1_bound=5.0, diameter=4)
        assert regret_bound(bounds, 7, compute_eta(bounds, 7)) == pytest.approx(
            2 * math.sqrt(3 * 5 * 4 * 7), rel=1e-12
        )

    def test_formula_at_an_untuned_eta(self):
        bounds = BoundParams(cost_bound=3.0, l1_bound=5.0, diameter=4)
        assert regret_bound(bounds, 7, 2.0) == 2.0 * 4 + 3 * 5 * 7 / 2.0

    def test_rejects_bad_horizon(self):
        with pytest.raises(InvalidInputError):
            regret_bound(BoundParams(1.0, 1.0, 2), 0, 1.0)

    @pytest.mark.parametrize("eta", [0.0, -1.0, math.nan])
    def test_rejects_an_eta_not_above_zero(self, eta):
        with pytest.raises(InvalidInputError, match="eta must be > 0"):
            regret_bound(BoundParams(1.0, 1.0, 2), 10, eta)


class TestDecileBand:
    def test_nearest_rank_example(self):
        finals = np.arange(1.0, 11.0).reshape(10, 1)  # runs scoring 1..10
        mean, d1, d9 = decile_band(finals)
        assert mean[0] == 5.5
        assert d1[0] == 1.0
        assert d9[0] == 9.0

    def test_single_run_bands_collapse(self):
        mean, d1, d9 = decile_band([[0.4, 0.2, 0.1]])
        assert mean.tolist() == d1.tolist() == d9.tolist() == [0.4, 0.2, 0.1]

    def test_constant_columns(self):
        mean, d1, d9 = decile_band(np.full((7, 3), 0.25))
        assert np.all(mean == 0.25) and np.all(d1 == 0.25) and np.all(d9 == 0.25)

    @given(st.integers(1, 50), st.integers(0, 2**32 - 1))
    def test_nearest_rank_definition(self, m, seed):
        rng = np.random.default_rng(seed)
        column = rng.uniform(0.0, 1.0, (m, 1))
        _, d1, d9 = decile_band(column)
        ordered = sorted(column[:, 0])
        assert d1[0] == ordered[math.ceil(0.1 * m) - 1]
        assert d9[0] == ordered[math.ceil(0.9 * m) - 1]

    def test_band_brackets_the_mean_inputs(self):
        rng = np.random.default_rng(15)
        ratios = rng.uniform(0.0, 1.0, (9, 4))
        mean, d1, d9 = decile_band(ratios)
        assert np.all(d1 <= d9)
        assert np.all(d1 <= ratios.max(axis=0))
        assert np.all(d9 >= ratios.min(axis=0))
        assert np.all((mean >= ratios.min(axis=0)) & (mean <= ratios.max(axis=0)))

    def test_rejects_non_matrix_input(self):
        with pytest.raises(InvalidInputError):
            decile_band([0.1, 0.2])
        with pytest.raises(InvalidInputError):
            decile_band(np.zeros((0, 3)))
