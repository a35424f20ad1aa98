"""Unit tests for the caching policies."""

import math
import os
import re
import signal
import subprocess
import sys
import textwrap
import time

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from helpers import (
    Recorder,
    assert_reaped,
    brute_force_static_minimum,
    reference_ftl_costs,
    reference_leader_run,
    reference_lru_costs,
    reference_top_c,
    record_forks,
)
from noisycache import (
    EstimatorSpec,
    InvalidInputError,
    RoundRobinConfig,
    SeedPlan,
    SlottedTrace,
    Trace,
    ZipfConfig,
    batch_trace,
    compute_eta,
    follow_the_leader,
    generate_round_robin,
    generate_zipf,
    least_recently_used,
    static_optimum,
    step_perturbed_leaders,
)
from noisycache import policies
from noisycache.policies import BLOCK_EVENTS


class TestComputeEta:
    def test_desk_scale_values(self):
        # mass B = 200 at full rate, 400 at bernoulli rate 0.5; diameter 200
        assert compute_eta(200.0, 200, 500) == pytest.approx(316.22776601683796, rel=1e-12)
        assert compute_eta(400.0, 200, 500) == pytest.approx(632.4555320336759, rel=1e-12)

    def test_formula(self):
        assert compute_eta(3.0, 4, 7) == pytest.approx(math.sqrt(3 * 3 * 7 / 4))

    def test_unit_case(self):
        assert compute_eta(1.0, 6, 6) == 1.0

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(InvalidInputError):
            compute_eta(1.0, 0, 10)
        with pytest.raises(InvalidInputError):
            compute_eta(1.0, 2, 0)


def _recorded_ftl(slotted, cache_size):
    """follow_the_leader's costs and its T x N decisions, through a Recorder."""
    recorder = Recorder()
    return follow_the_leader(slotted, cache_size, recorder), recorder.decisions


def _recorded_steps(*args):
    """step_perturbed_leaders' LeaderRuns and its S x G x R x T x N decisions."""
    recorder = Recorder()
    return step_perturbed_leaders(*args, observe=recorder), recorder.decisions


class TestFollowTheLeader:
    def test_empty_history_caches_lowest_indices(self):
        slotted = SlottedTrace(np.array([4, 3]), n_files=5, batch_size=2)
        costs, decisions = _recorded_ftl(slotted, 2)
        assert decisions[0].tolist() == [0, 0, 1, 1, 1]
        assert costs.tolist() == [2]

    def test_tracks_exact_counts(self):
        slot = np.repeat([0, 1, 2], [5, 3, 9])
        slotted = SlottedTrace(np.concatenate([slot, slot]), n_files=3, batch_size=17)
        costs, decisions = _recorded_ftl(slotted, 2)
        assert decisions[1].tolist() == [0, 1, 0]
        assert costs[1] == 3

    def test_recency_breaks_count_ties(self):
        # files 0 and 2 end up tied at one request; 2 was seen later
        slotted = SlottedTrace(np.array([0, 2, 1, 1]), n_files=3, batch_size=2)
        _, decisions = _recorded_ftl(slotted, 1)
        assert decisions[1].tolist() == [1, 1, 0]

    def test_round_robin_whole_cycle_caches_most_recent(self):
        # after each full cycle every count ties, so the cached set is
        # the C most recently requested files, disjoint from the next
        # batch whenever N >= C + B
        n, c, b = 9, 3, 3
        slotted = SlottedTrace(np.arange(13 * b) % n, n_files=n, batch_size=b)
        costs, decisions = _recorded_ftl(slotted, c)
        assert costs[0] == 0  # warmup slot requests exactly the default cache
        assert costs[1:12].tolist() == [b] * 11
        # after slot 12 (a whole number of cycles) files 6, 7, 8 are freshest
        assert decisions[12].tolist() == [1, 1, 1, 1, 1, 1, 0, 0, 0]


@st.composite
def baseline_problems(draw):
    """A small zipf-like or round-robin slotted trace and a cache size."""
    n = draw(st.integers(1, 9))
    c = draw(st.integers(1, n))
    b = draw(st.integers(1, 8))
    horizon = draw(st.integers(1, 12))
    size = horizon * b
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        alpha = draw(st.floats(1.1, 3.0))
        events = np.minimum(rng.zipf(alpha, size), n) - 1
    else:
        events = (np.arange(size) + draw(st.integers(0, n - 1))) % n
    return SlottedTrace(events, n_files=n, batch_size=b), c


class TestBaselinesAgainstReferences:
    @settings(max_examples=150, deadline=None)
    @given(baseline_problems())
    def test_follow_the_leader_matches_reference(self, problem):
        slotted, c = problem
        costs, decisions = _recorded_ftl(slotted, c)
        ref_costs, ref_decisions = reference_ftl_costs(
            slotted.events, slotted.n_files, slotted.batch_size, c
        )
        assert costs.tolist() == ref_costs
        assert decisions.tolist() == ref_decisions
        assert np.array_equal(follow_the_leader(slotted, c), costs)

    @pytest.mark.parametrize("block_events,batch_size", [
        (1, 2), (4, 2), (7, 2), (9, 3), (8, 1),
    ])
    def test_follow_the_leader_across_blocks_matches_reference(
        self, monkeypatch, block_events, batch_size
    ):
        # ftl widens max(1, block_events // batch_size) slots at a time, and
        # 23 events leave a last block shorter than the others
        monkeypatch.setattr(policies, "_BLOCK", block_events)
        events = np.random.default_rng(block_events).integers(1, 7, 23, endpoint=True)
        slotted = batch_trace(Trace(events=events, n_files=7), batch_size)
        costs, decisions = _recorded_ftl(slotted, 3)
        ref_costs, ref_decisions = reference_ftl_costs(slotted.events, 7, batch_size, 3)
        assert costs.tolist() == ref_costs
        assert decisions.tolist() == ref_decisions

    @settings(max_examples=150, deadline=None)
    @given(baseline_problems())
    def test_least_recently_used_matches_reference(self, problem):
        slotted, c = problem
        costs = least_recently_used(slotted, c)
        assert costs.dtype == np.int64
        assert costs.tolist() == reference_lru_costs(
            slotted.events, slotted.batch_size, c
        )


@st.composite
def leader_problems(draw):
    """A small batched trace plus a mix of perturbed leaders over 1-4 runs.

    Rate 1.0 gives the full-rate samplers. Every horizon fits in one
    sampling block; wide_batch_problems crosses blocks.
    """
    n = draw(st.integers(2, 9))
    c = draw(st.integers(1, n - 1))
    b = draw(st.integers(1, 12))
    horizon = draw(st.integers(1, 30))
    events = np.array(
        draw(st.lists(st.integers(0, n - 1), min_size=horizon * b, max_size=horizon * b))
    )
    slotted = SlottedTrace(events, n_files=n, batch_size=b)
    leaders = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["fpl", "fix", "var"]),
                st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
                st.one_of(st.just(0.0), st.floats(0.0, 40.0)),
            ),
            min_size=1,
            max_size=4,
        )
    )
    estimators = [_estimator(kind, rate, b) for kind, rate, _ in leaders]
    etas = [eta for _, _, eta in leaders]
    runs = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    return slotted, c, etas, estimators, runs, SeedPlan(seed)


def _estimator(kind, rate, b):
    if kind == "fix":
        return EstimatorSpec.fixed(rate, b)
    return EstimatorSpec.bernoulli(1.0 if kind == "fpl" else rate, b)


@st.composite
def multi_size_problems(draw):
    """leader_problems at 1-3 distinct cache sizes, one eta per (size, leader).

    Etas repeat across sizes and leaders and include zero. A sampling
    block holds max(n_files, BLOCK_EVENTS) events, so every horizon here
    fits in one; wide_batch_problems crosses blocks.
    """
    n = draw(st.integers(2, 9))
    b = draw(st.integers(1, 12))
    horizon = draw(st.integers(n + 1, 30))
    events = np.array(
        draw(st.lists(st.integers(0, n - 1), min_size=horizon * b, max_size=horizon * b))
    )
    return draw(_leaders_at_sizes(SlottedTrace(events, n_files=n, batch_size=b)))


@st.composite
def wide_batch_problems(draw):
    """multi_size_problems at batches of 1,639-8,192 requests, over 3-4 blocks.

    A sampling block then holds 1-4 slots (BLOCK_EVENTS // batch_size),
    and the horizon crosses at least two block boundaries, the last
    block possibly short.
    """
    n = draw(st.integers(2, 9))
    b = draw(st.integers(BLOCK_EVENTS // 5 + 1, BLOCK_EVENTS))
    span = BLOCK_EVENTS // b
    horizon = draw(st.integers(2 * span + 1, 4 * span))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.dirichlet(np.ones(n) * draw(st.sampled_from([0.2, 1.0, 5.0])))
    events = rng.choice(n, horizon * b, p=weights)
    return draw(_leaders_at_sizes(SlottedTrace(events, n_files=n, batch_size=b)))


@st.composite
def _leaders_at_sizes(draw, slotted):
    """1-3 cache sizes and 1-4 leaders with one eta per (size, leader)."""
    n, b = slotted.n_files, slotted.batch_size
    sizes = draw(st.lists(st.integers(1, n), min_size=1, max_size=3, unique=True))
    kinds = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["fpl", "fix", "var"]),
                st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
            ),
            min_size=1,
            max_size=4,
        )
    )
    eta = st.one_of(st.sampled_from([0.0, 3.0]), st.floats(0.0, 40.0))
    row = st.lists(eta, min_size=len(kinds), max_size=len(kinds))
    etas = draw(st.lists(row, min_size=len(sizes), max_size=len(sizes)))
    estimators = [_estimator(kind, rate, b) for kind, rate in kinds]
    runs = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    return slotted, sizes, etas, estimators, runs, SeedPlan(seed)


@st.composite
def one_run_problems(draw):
    """2-4 leaders over one run at N = 20-200, at 1-2 sizes with C <= N / 10.

    Each size's etas are shared by every leader or drawn one by one, and
    include 0, at which every file reaches the noise floor, and 1e-300,
    whose noise vanishes beside any total of 1 or more: files with equal
    totals then tie at the floor.

    With BLOCK_EVENTS at 1 a sampling block holds N // B slots, 2-11
    here, and the horizon crosses at least two block boundaries, so a
    share that starts at T / 2 or later starts after a whole block.
    """
    n = draw(st.integers(20, 200))
    b = draw(st.integers(n // 8, n // 2))
    span = n // b
    horizon = draw(st.integers(2 * span + 1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.dirichlet(np.ones(n) * draw(st.sampled_from([0.05, 0.5, 5.0])))
    slotted = SlottedTrace(rng.choice(n, horizon * b, p=weights), n_files=n, batch_size=b)
    sizes = draw(st.lists(st.integers(1, n // 10), min_size=1, max_size=2, unique=True))
    kinds = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["fpl", "fix", "var"]),
                st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
            ),
            min_size=2,
            max_size=4,
        )
    )
    eta = st.one_of(st.sampled_from([0.0, 1e-300, 3.0]), st.floats(0.0, 40.0))
    shared = eta.map(lambda value: [value] * len(kinds))
    row = st.one_of(shared, st.lists(eta, min_size=len(kinds), max_size=len(kinds)))
    etas = draw(st.lists(row, min_size=len(sizes), max_size=len(sizes)))
    estimators = [_estimator(kind, rate, b) for kind, rate in kinds]
    return slotted, sizes, etas, estimators, 1, SeedPlan(draw(st.integers(0, 2**32 - 1)))


def _step_exact(slotted, cache_size, eta, runs, plan):
    """One exact leader at eta over runs, seeded by plan, recorded."""
    return _recorded_steps(
        slotted, [cache_size], [[eta]],
        [EstimatorSpec.bernoulli(1.0, slotted.batch_size)], runs, plan,
    )


class TestStepPerturbedLeaders:
    @settings(max_examples=150, deadline=None)
    @given(leader_problems())
    def test_matches_per_run_perturbed_leader(self, problem):
        slotted, c, etas, estimators, runs, plan = problem
        stepped, recorded = _recorded_steps(
            slotted, [c], [etas], estimators, runs, plan
        )
        for g, (eta, est) in enumerate(zip(etas, estimators)):
            for r in range(runs):
                costs, totals, decisions = reference_leader_run(
                    slotted, c, eta, est,
                    plan.stream(r, SeedPlan.NOISE), plan.stream(r, SeedPlan.SAMPLING),
                )
                assert np.array_equal(stepped.costs[0, g, r], costs)
                assert np.array_equal(stepped.totals[g, r], totals)
                assert np.array_equal(recorded[0, g, r], decisions)

    @settings(max_examples=100, deadline=None)
    @given(multi_size_problems())
    def test_every_cache_size_matches_its_reference_run(self, problem):
        # one call steps every size from the same noise, estimates and totals
        self._check_reference_runs(problem)

    @settings(max_examples=30, deadline=None)
    @given(wide_batch_problems())
    def test_sampling_blocks_join_up_to_the_reference_run(self, problem):
        # each block's keys and event map must line up with its own slots
        self._check_reference_runs(problem)

    @staticmethod
    def _check_reference_runs(problem):
        slotted, sizes, etas, estimators, runs, plan = problem
        stepped, recorded = _recorded_steps(
            slotted, sizes, etas, estimators, runs, plan
        )
        shape = (len(sizes), len(estimators), runs, slotted.horizon)
        assert stepped.costs.shape == shape
        for s, c in enumerate(sizes):
            for g, est in enumerate(estimators):
                for r in range(runs):
                    costs, totals, decisions = reference_leader_run(
                        slotted, c, etas[s][g], est,
                        plan.stream(r, SeedPlan.NOISE),
                        plan.stream(r, SeedPlan.SAMPLING),
                    )
                    assert np.array_equal(stepped.costs[s, g, r], costs)
                    assert np.array_equal(stepped.totals[g, r], totals)
                    assert np.array_equal(recorded[s, g, r], decisions)

    def test_each_run_draws_its_sampling_keys_once(self, monkeypatch):
        # every sampled leader at run r reads run r's one draw of keys, and
        # each gets what it would get stepped alone under the same plan
        slotted = batch_trace(generate_zipf(ZipfConfig(200, 1.0, 20_000, seed=5)), 50)
        estimators = [EstimatorSpec.bernoulli(0.5, 50),
                      EstimatorSpec.fixed(0.5, 50),
                      EstimatorSpec.bernoulli(0.1, 50)]
        etas = [20.0, 30.0, 40.0]
        opened, stream = [], SeedPlan.stream

        def recording_stream(plan, run, stream_id):
            opened.append((run, stream_id))
            return stream(plan, run, stream_id)

        monkeypatch.setattr(SeedPlan, "stream", recording_stream)
        together = _step_on(monkeypatch, 1, slotted, [20], [etas], estimators, 4,
                            SeedPlan(3))
        sampling = [run for run, kind in opened if kind == SeedPlan.SAMPLING]
        assert sampling == [0, 1, 2, 3]
        for g, (eta, spec) in enumerate(zip(etas, estimators)):
            alone = step_perturbed_leaders(slotted, [20], [[eta]], [spec], 4,
                                           SeedPlan(3))
            assert np.array_equal(together.costs[:, g], alone.costs[:, 0])
            assert np.array_equal(together.totals[g], alone.totals[0])

    def test_only_tied_rows_drop_their_highest_tied_indices(self):
        # after slot 0 the totals are [2, 1, 1, 0]: at eta 0 and C=2 files 1
        # and 2 tie at the boundary and file 2 must go; the noisy rows hold
        # exactly their top two, and at C=1 slot 1 has no tie
        events = np.array([0, 1, 2, 0, 3, 3, 3, 3])
        slotted = SlottedTrace(events, n_files=4, batch_size=4)
        exact = EstimatorSpec.bernoulli(1.0, 4)
        etas = [[0.0, 0.5, 5.0], [0.0, 0.5, 5.0]]
        plan = SeedPlan(21)
        stepped, recorded = _recorded_steps(slotted, [2, 1], etas, [exact] * 3, 2, plan)
        for r in range(2):
            assert recorded[0, 0, r, 1].tolist() == [0, 0, 1, 1]
            assert recorded[1, 0, r, 1].tolist() == [0, 1, 1, 1]
        for s, c in enumerate([2, 1]):
            for g in (1, 2):
                for r in range(2):
                    costs, _, decisions = reference_leader_run(
                        slotted, c, etas[s][g], exact, plan.stream(r, SeedPlan.NOISE),
                        plan.stream(r, SeedPlan.SAMPLING),
                    )
                    assert np.array_equal(recorded[s, g, r], decisions)
                    assert np.array_equal(stepped.costs[s, g, r], costs)

    def test_zero_eta_first_decision_caches_lowest_indices(self):
        slotted = SlottedTrace(np.array([4, 3]), n_files=5, batch_size=2)
        _, recorded = _step_exact(slotted, 3, 0.0, 1, SeedPlan(1))
        assert recorded[0, 0, 0, 0].tolist() == [0, 0, 0, 1, 1]

    def test_tiny_noise_cannot_overturn_a_large_lead(self):
        # slot 0 gives file 0 a lead of 10; 50 runs each draw fresh noise
        slotted = SlottedTrace(np.repeat([0, 1], 10), n_files=3, batch_size=10)
        _, recorded = _step_exact(slotted, 1, 1e-6, 50, SeedPlan(2))
        for r in range(50):
            assert recorded[0, 0, r, 1].tolist() == [0, 1, 1]

    def test_exact_observation_accumulates_true_counts(self):
        slotted = SlottedTrace(np.array([0, 1, 1, 1, 2, 3]), n_files=4, batch_size=3)
        stepped, _ = _step_exact(slotted, 2, 1.0, 1, SeedPlan(3))
        assert stepped.totals[0, 0].tolist() == [1.0, 3.0, 1.0, 1.0]

    def test_zero_eta_matches_follow_the_leader(self):
        # with no noise fpl is the leader over exact totals, ties to the lowest index
        slotted = batch_trace(generate_zipf(ZipfConfig(40, 1.0, 600, seed=11)), 20)
        _, recorded = _step_exact(slotted, 8, 0.0, 1, SeedPlan(4))
        totals = np.zeros(40)
        for t, window in enumerate(slotted.events.reshape(-1, 20)):
            assert np.array_equal(recorded[0, 0, 0, t], ~reference_top_c(totals, 8))
            totals += np.bincount(window, minlength=40)

    def test_degenerate_samplers_match_exact_decisions(self):
        slotted = batch_trace(generate_zipf(ZipfConfig(30, 1.0, 500, seed=12)), 10)
        specs = [EstimatorSpec.bernoulli(1.0, 10), EstimatorSpec.fixed(1.0, 10),
                 EstimatorSpec.fixed(0.96, 10)]
        stepped, recorded = _recorded_steps(
            slotted, [5], [[25.0] * 3], specs, 1, SeedPlan(77)
        )
        for g in (1, 2):
            assert np.array_equal(recorded[:, g], recorded[:, 0])
            assert np.array_equal(stepped.costs[:, g], stepped.costs[:, 0])
            assert np.array_equal(stepped.totals[g], stepped.totals[0])

    def test_rejects_bad_inputs(self):
        slotted = SlottedTrace(np.array([0, 1]), n_files=4, batch_size=2)
        plan = SeedPlan(0)
        exact = EstimatorSpec.bernoulli(1.0, 2)
        for eta, got in ((float("nan"), "[[nan]]"), (-1.0, "[[-1.0]]")):
            message = f"^etas must be finite and >= 0, got {re.escape(got)}$"
            with pytest.raises(InvalidInputError, match=message):
                step_perturbed_leaders(slotted, [2], [[eta]], [exact], 1, plan)
        with pytest.raises(InvalidInputError, match="batch size"):
            step_perturbed_leaders(
                slotted, [2], [[1.0]], [EstimatorSpec.bernoulli(1.0, 3)], 1, plan
            )
        with pytest.raises(InvalidInputError, match="leader and run"):
            step_perturbed_leaders(slotted, [2], [[1.0]], [exact], 0, plan)
        for size in (0, 5):
            with pytest.raises(InvalidInputError, match="cache_size"):
                step_perturbed_leaders(slotted, [size], [[1.0]], [exact], 1, plan)


class TestObserver:
    def test_recorded_decisions_replay_the_costs(self):
        # each recorded slot caches exactly C files and prices that slot's misses
        slotted = batch_trace(generate_zipf(ZipfConfig(40, 1.0, 2000, seed=21)), 20)
        stepped, recorded = _recorded_steps(
            slotted, [8, 3], [[50.0, 100.0], [35.0, 70.0]],
            [EstimatorSpec.bernoulli(1.0, 20), EstimatorSpec.bernoulli(0.5, 20)],
            2, SeedPlan(99),
        )
        runs = [(8, *_recorded_ftl(slotted, 8))] + [
            (c, stepped.costs[s, g, r], recorded[s, g, r])
            for s, c in enumerate([8, 3]) for g in range(2) for r in range(2)
        ]
        for c, costs, decisions in runs:
            assert decisions.shape == (slotted.horizon, 40)
            for t, window in enumerate(slotted.events.reshape(-1, 20)):
                assert decisions[t].sum() == 40 - c
                assert costs[t] == decisions[t][window].sum()

    def test_ftl_records_one_cache_per_slot(self):
        slotted = batch_trace(generate_round_robin(RoundRobinConfig(10, 50)), 5)
        _, decisions = _recorded_ftl(slotted, 3)
        assert decisions.sum(axis=1).tolist() == [7] * 10

    def test_observing_changes_no_cost_or_total(self):
        slotted = batch_trace(generate_zipf(ZipfConfig(40, 1.0, 2000, seed=21)), 20)
        specs = [EstimatorSpec.bernoulli(1.0, 20), EstimatorSpec.fixed(0.25, 20),
                 EstimatorSpec.bernoulli(0.3, 20)]

        def step(observe):
            return step_perturbed_leaders(
                slotted, [8, 3], [[50.0] * 3, [35.0] * 3], specs, 3, SeedPlan(5),
                observe=observe,
            )

        seen, unseen = step(Recorder()), step(None)
        assert np.array_equal(seen.costs, unseen.costs)
        assert np.array_equal(seen.totals, unseen.totals)
        ftl = follow_the_leader(slotted, 8)
        assert np.array_equal(follow_the_leader(slotted, 8, Recorder()), ftl)


def _large_sweep_shape(runs):
    """7 leaders at 2 cache sizes over `runs` runs: the large-sweep mix, smaller.

    Returns the arguments of step_perturbed_leaders.
    """
    slotted = batch_trace(generate_zipf(ZipfConfig(300, 1.0, 6000, seed=3)), 20)
    specs = [EstimatorSpec.fixed(k / 20, 20) for k in (1, 2, 10)]
    specs += [EstimatorSpec.bernoulli(1.0, 20)]
    specs += [EstimatorSpec.bernoulli(rate, 20) for rate in (0.05, 0.1, 0.5)]
    return slotted, [10, 120], [[40.0] * 7, [90.0] * 7], specs, runs, SeedPlan(11)


def _step_on(monkeypatch, cpus, *args, **kwargs):
    monkeypatch.setattr(policies, "_usable_cpus", lambda: cpus)
    return step_perturbed_leaders(*args, **kwargs)


class TestProcessSplit:
    """The rows split across forked processes give the serial result exactly."""

    @pytest.mark.parametrize("runs", [1, 2, 5])
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_matches_the_serial_stepper(self, monkeypatch, runs, cpus):
        forked = record_forks(monkeypatch)
        serial = _step_on(monkeypatch, 1, *_large_sweep_shape(runs))
        assert forked == []  # one share is stepped here, through the same path
        shape = _large_sweep_shape(runs)
        split = _step_on(monkeypatch, cpus, *shape)
        # one run splits its slots, more runs split by run
        assert len(forked) == min(cpus, runs if runs > 1 else shape[0].horizon) - 1
        assert_reaped(forked)
        assert np.array_equal(split.costs, serial.costs)
        assert np.array_equal(split.totals, serial.totals)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(multi_size_problems(), wide_batch_problems()), st.sampled_from([2, 3]))
    def test_any_problem_matches_the_serial_stepper(self, problem, cpus):
        slotted, sizes, etas, estimators, runs, plan = problem

        def step(count):
            policies._usable_cpus = lambda: count
            return step_perturbed_leaders(slotted, sizes, etas, estimators, runs, plan)

        usable = policies._usable_cpus
        try:
            serial, split = step(1), step(cpus)
        finally:
            policies._usable_cpus = usable
        assert np.array_equal(split.costs, serial.costs)
        assert np.array_equal(split.totals, serial.totals)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_pruned_ranking_matches_the_reference_run(self, monkeypatch, cpus):
        # one run's leaders rank only the files that can reach the noise
        # floor, and its slots are split across the processes; small
        # sampling blocks make a later share replay whole blocks first
        monkeypatch.setattr(policies, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(policies, "BLOCK_EVENTS", 1)
        # whether each top_c call of this process ranked fewer than N columns
        ranked, n_files, real_top_c = [], [0], policies.top_c

        def top_c(score, cache_size, out=None):
            ranked.append(score.shape[-1] < n_files[0])
            return real_top_c(score, cache_size, out=out)

        monkeypatch.setattr(policies, "top_c", top_c)

        @settings(max_examples=40, deadline=None)
        @given(one_run_problems())
        def check(problem):
            slotted, sizes, etas, estimators, runs, plan = problem
            n_files[0] = slotted.n_files
            # an observer keeps the stepper in one process: only at one CPU
            recorder = Recorder() if cpus == 1 else None
            stepped = step_perturbed_leaders(
                slotted, sizes, etas, estimators, runs, plan, observe=recorder
            )
            for s, c in enumerate(sizes):
                for g, est in enumerate(estimators):
                    costs, totals, decisions = reference_leader_run(
                        slotted, c, etas[s][g], est,
                        plan.stream(0, SeedPlan.NOISE), plan.stream(0, SeedPlan.SAMPLING),
                    )
                    assert np.array_equal(stepped.costs[s, g, 0], costs)
                    assert np.array_equal(stepped.totals[g, 0], totals)
                    if recorder is not None:
                        assert np.array_equal(recorder.decisions[s, g, 0], decisions)

        check()
        assert any(ranked) and not all(ranked)  # some slot pruned, some ranked all N

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("runs,leaders,pruned", [
        (2, 7, False), (5, 7, False), (2, 1, False), (1, 1, False), (1, 7, True),
    ], ids=["two-runs", "five-runs", "two-runs-one-leader", "one-run-one-leader",
            "one-run"])
    def test_each_shape_takes_its_ranking_kind(self, monkeypatch, cpus, runs, leaders,
                                               pruned):
        # both kinds write the same bytes, so only the columns top_c ranks
        # show a shape moved to the other one. Every eta is > 0, so the
        # floor prunes; a forked share's calls are not seen here
        widths, real_top_c = [], policies.top_c

        def top_c(score, cache_size, out=None):
            widths.append(score.shape[-1])
            return real_top_c(score, cache_size, out=out)

        monkeypatch.setattr(policies, "top_c", top_c)
        slotted, sizes, etas, specs, _, plan = _large_sweep_shape(runs)
        _step_on(monkeypatch, cpus, slotted, sizes, [row[:leaders] for row in etas],
                 specs[:leaders], runs, plan)
        assert widths
        if pruned:
            assert min(widths) < slotted.n_files
        else:
            assert set(widths) == {slotted.n_files}

    def test_an_observer_keeps_the_rows_in_one_process(self, monkeypatch):
        forked = record_forks(monkeypatch)
        recorder = Recorder()
        stepped = _step_on(monkeypatch, 3, *_large_sweep_shape(2), observe=recorder)
        assert forked == []
        assert recorder.decisions.shape == (2, 7, 2, 300, 300)
        serial = _step_on(monkeypatch, 1, *_large_sweep_shape(2))
        assert np.array_equal(stepped.costs, serial.costs)

    def test_a_failed_child_raises_and_is_reaped(self, monkeypatch):
        parent, real_top_c = os.getpid(), policies.top_c

        def top_c(*args, **kwargs):
            if os.getpid() != parent:
                raise ValueError("child broke")
            return real_top_c(*args, **kwargs)

        monkeypatch.setattr(policies, "top_c", top_c)
        forked = record_forks(monkeypatch)
        with pytest.raises(RuntimeError, match="ValueError: child broke"):
            _step_on(monkeypatch, 2, *_large_sweep_shape(2))
        assert len(forked) == 1
        assert_reaped(forked)

    def test_a_failed_parent_kills_and_reaps_its_children(self, monkeypatch):
        parent, real_top_c = os.getpid(), policies.top_c

        def top_c(*args, **kwargs):
            if os.getpid() == parent:
                raise ValueError("parent broke")
            time.sleep(60)  # a child that would outlive the test unless killed

        monkeypatch.setattr(policies, "top_c", top_c)
        forked = record_forks(monkeypatch)
        started = time.monotonic()
        with pytest.raises(ValueError, match="parent broke"):
            _step_on(monkeypatch, 3, *_large_sweep_shape(3))
        assert time.monotonic() - started < 30
        assert len(forked) == 2
        assert_reaped(forked)

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
    def test_a_child_ends_when_its_parent_is_killed(self, tmp_path):
        script = tmp_path / "orphan.py"
        script.write_text(textwrap.dedent("""\
            import os, sys, time
            sys.path[:0] = sys.argv[1:]
            import test_policies
            from noisycache import policies
            policies._usable_cpus = lambda: 2
            parent, real_top_c, fork = os.getpid(), policies.top_c, os.fork

            def top_c(*args, **kwargs):
                if os.getpid() != parent:
                    time.sleep(60)  # the child would sleep on after the parent
                return real_top_c(*args, **kwargs)

            def announcing_fork():
                pid = fork()
                if pid:
                    print(pid, flush=True)
                return pid

            policies.top_c, os.fork = top_c, announcing_fork
            policies.step_perturbed_leaders(*test_policies._large_sweep_shape(2))
            """))
        src = os.path.dirname(os.path.dirname(policies.__file__))
        tests = os.path.dirname(__file__)
        proc = subprocess.Popen([sys.executable, str(script), src, tests],
                                stdout=subprocess.PIPE, text=True)
        try:
            child = int(proc.stdout.readline())
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline and _running(child):
            time.sleep(0.05)
        if _running(child):
            os.kill(child, signal.SIGKILL)
            pytest.fail("the child outlived its killed parent")


def _running(pid):
    """Whether pid is a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


class TestLeastRecentlyUsed:
    def test_warm_start_hits_initial_files(self):
        slotted = SlottedTrace(np.array([0, 1, 2, 1, 0]), n_files=10, batch_size=5)
        assert least_recently_used(slotted, 3).tolist() == [0]

    def test_eviction_order(self):
        # warm cache {0, 1}: 2 evicts 0, then 0 evicts 1, then both hit
        slotted = SlottedTrace(np.array([2, 0, 2, 0]), n_files=5, batch_size=1)
        assert least_recently_used(slotted, 2).tolist() == [1, 1, 0, 0]

    def test_round_robin_closed_form(self):
        # warm start, cyclic requests, N > C: every event after the
        # first C misses, so misses = t - C
        n, c, t = 10, 3, 100
        slotted = SlottedTrace(np.arange(t) % n, n_files=n, batch_size=10)
        assert int(least_recently_used(slotted, c).sum()) == t - c


def _slotted(counts_per_slot):
    """A SlottedTrace whose slot t requests file i counts_per_slot[t][i] times."""
    events = np.concatenate(
        [np.repeat(np.arange(len(c)), c) for c in counts_per_slot]
    )
    return SlottedTrace(events, len(counts_per_slot[0]), sum(counts_per_slot[0]))


class TestStaticOpt:
    def test_caches_top_total_counts(self):
        # files 0 and 2 are cached, so each slot misses file 1's requests
        slotted = _slotted([[5, 3, 9], [6, 4, 7]])
        assert static_optimum(slotted, 2).tolist() == [3, 4]

    def test_round_robin_whole_cycles_tie_to_lowest(self):
        # slots alternate files 0-2 and 3-5; caching 0 and 1 misses one
        # request of each first half-cycle and all three of each second
        trace = Trace(events=np.arange(30) % 6 + 1, n_files=6)
        assert static_optimum(batch_trace(trace, 3), 2).tolist() == [1, 3] * 5

    def test_replay_matches_per_batch_cost(self):
        rng = np.random.default_rng(9)
        slotted = _slotted(
            [rng.multinomial(12, [0.4, 0.3, 0.2, 0.1]) for _ in range(8)]
        )
        missing = ~reference_top_c(slotted.totals(), 2)
        replayed = static_optimum(slotted, 2)
        per_slot = missing[slotted.events].reshape(-1, 12).sum(axis=1)
        assert replayed.tolist() == per_slot.tolist()

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 7).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(1, n - 1),
                st.integers(1, 6),
                st.lists(st.integers(1, n), min_size=1, max_size=48),
            )
        )
    )
    def test_matches_slot_by_slot_cost_and_brute_force(self, problem):
        n, c, b, events = problem
        if len(events) < b:
            return
        slotted = batch_trace(Trace(events=np.array(events), n_files=n), b)
        missing = ~reference_top_c(slotted.totals(), c)
        costs = static_optimum(slotted, c)
        assert costs.dtype == np.int64
        per_slot = missing[slotted.events].reshape(-1, b).sum(axis=1)
        assert costs.tolist() == per_slot.tolist()
        used = events[: slotted.horizon * b]
        assert int(costs.sum()) == brute_force_static_minimum(used, n, c)


    @pytest.mark.parametrize("block_events,batch_size", [
        (1, 2), (4, 2), (7, 2), (9, 3), (8, 1),
    ])
    def test_partial_last_block_matches_brute_force(
        self, monkeypatch, block_events, batch_size
    ):
        # max(1, block_events // batch_size) slots a block, and 23 events
        # leave a last block shorter than the others
        monkeypatch.setattr(policies, "_BLOCK", block_events)
        n, c = 7, 3
        events = np.random.default_rng(block_events).integers(1, n, 23, endpoint=True)
        slotted = batch_trace(Trace(events=events, n_files=n), batch_size)
        costs = static_optimum(slotted, c)
        missing = ~reference_top_c(slotted.totals(), c)
        per_slot = missing[slotted.events].reshape(-1, batch_size).sum(axis=1)
        assert costs.tolist() == per_slot.tolist()
        used = events[: slotted.horizon * batch_size]
        assert int(costs.sum()) == brute_force_static_minimum(used, n, c)


@pytest.mark.parametrize("cache_size", [-1, 0, 5])
@pytest.mark.parametrize("policy", [
    static_optimum,
    follow_the_leader,
    least_recently_used,
    lambda slotted, c: step_perturbed_leaders(
        slotted, [c], [[1.0]], [EstimatorSpec.bernoulli(1.0, 2)], 1, SeedPlan(0)
    ),
], ids=["opt", "ftl", "lru", "stepper"])
def test_every_policy_checks_the_cache_size(policy, cache_size):
    slotted = SlottedTrace(np.array([0, 1, 2, 3]), n_files=4, batch_size=2)
    with pytest.raises(InvalidInputError, match=r"cache_size must be in \[1, 4\], got"):
        policy(slotted, cache_size)
