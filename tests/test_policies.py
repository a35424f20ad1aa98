"""Unit tests for the caching policies."""

import math
import re

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from helpers import (
    Recorder,
    brute_force_static_minimum,
    reference_ftl_costs,
    reference_leader_run,
    reference_lru_costs,
    reference_top_c,
)
from noisycache import (
    BoundParams,
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
from noisycache.policies import BLOCK_EVENTS


class TestComputeEta:
    def test_desk_scale_values(self):
        exact = BoundParams(cost_bound=200.0, l1_bound=200.0, diameter=200)
        assert compute_eta(exact, 500) == pytest.approx(316.22776601683796, rel=1e-12)
        half = BoundParams(cost_bound=400.0, l1_bound=400.0, diameter=200)
        assert compute_eta(half, 500) == pytest.approx(632.4555320336759, rel=1e-12)

    def test_formula(self):
        bounds = BoundParams(cost_bound=3.0, l1_bound=5.0, diameter=4)
        assert compute_eta(bounds, 7) == pytest.approx(math.sqrt(3 * 5 * 7 / 4))

    def test_unit_case(self):
        bounds = BoundParams(cost_bound=1.0, l1_bound=1.0, diameter=6)
        assert compute_eta(bounds, 6) == 1.0

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(InvalidInputError):
            compute_eta(BoundParams(1.0, 1.0, 0), 10)
        with pytest.raises(InvalidInputError):
            compute_eta(BoundParams(1.0, 1.0, 2), 0)


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
    if kind == "fpl":
        return EstimatorSpec.exact(b)
    if kind == "fix":
        return EstimatorSpec.fixed_subsample(max(1, round(rate * b)), b)
    return EstimatorSpec.bernoulli(rate, b)


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


def _step_exact(slotted, cache_size, eta, noise_rngs):
    """One exact leader at eta over one run per noise generator, recorded."""
    return _recorded_steps(
        slotted, [cache_size], [[eta]], [EstimatorSpec.exact(slotted.batch_size)],
        noise_rngs, [[None] * len(noise_rngs)],
    )


class TestStepPerturbedLeaders:
    @settings(max_examples=150, deadline=None)
    @given(leader_problems())
    def test_matches_per_run_perturbed_leader(self, problem):
        slotted, c, etas, estimators, runs, plan = problem
        stepped, recorded = _recorded_steps(
            slotted,
            [c],
            [etas],
            estimators,
            [plan.stream(r, SeedPlan.NOISE) for r in range(runs)],
            [[plan.stream(r, SeedPlan.SAMPLING) for r in range(runs)] for _ in etas],
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
            slotted,
            sizes,
            etas,
            estimators,
            [plan.stream(r, SeedPlan.NOISE) for r in range(runs)],
            [[plan.stream(r, SeedPlan.SAMPLING) for r in range(runs)]
             for _ in estimators],
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

    def test_only_tied_rows_drop_their_highest_tied_indices(self):
        # after slot 0 the totals are [2, 1, 1, 0]: at eta 0 and C=2 files 1
        # and 2 tie at the boundary and file 2 must go; the noisy rows hold
        # exactly their top two, and at C=1 slot 1 has no tie
        events = np.array([0, 1, 2, 0, 3, 3, 3, 3])
        slotted = SlottedTrace(events, n_files=4, batch_size=4)
        exact = EstimatorSpec.exact(4)
        etas = [[0.0, 0.5, 5.0], [0.0, 0.5, 5.0]]
        seeds = (21, 22)
        stepped, recorded = _recorded_steps(
            slotted, [2, 1], etas, [exact] * 3,
            [np.random.default_rng(s) for s in seeds], [[None, None]] * 3,
        )
        for r in range(2):
            assert recorded[0, 0, r, 1].tolist() == [0, 0, 1, 1]
            assert recorded[1, 0, r, 1].tolist() == [0, 1, 1, 1]
        for s, c in enumerate([2, 1]):
            for g in (1, 2):
                for r, seed in enumerate(seeds):
                    costs, _, decisions = reference_leader_run(
                        slotted, c, etas[s][g], exact, np.random.default_rng(seed), None
                    )
                    assert np.array_equal(recorded[s, g, r], decisions)
                    assert np.array_equal(stepped.costs[s, g, r], costs)

    def test_zero_eta_first_decision_caches_lowest_indices(self):
        slotted = SlottedTrace(np.array([4, 3]), n_files=5, batch_size=2)
        _, recorded = _step_exact(slotted, 3, 0.0, [np.random.default_rng(1)])
        assert recorded[0, 0, 0, 0].tolist() == [0, 0, 0, 1, 1]

    def test_tiny_noise_cannot_overturn_a_large_lead(self):
        # slot 0 gives file 0 a lead of 10; 50 runs each draw fresh noise
        slotted = SlottedTrace(np.repeat([0, 1], 10), n_files=3, batch_size=10)
        rngs = [np.random.default_rng(2 + r) for r in range(50)]
        _, recorded = _step_exact(slotted, 1, 1e-6, rngs)
        for r in range(50):
            assert recorded[0, 0, r, 1].tolist() == [0, 1, 1]

    def test_exact_observation_accumulates_true_counts(self):
        slotted = SlottedTrace(np.array([0, 1, 1, 1, 2, 3]), n_files=4, batch_size=3)
        stepped, _ = _step_exact(slotted, 2, 1.0, [np.random.default_rng(3)])
        assert stepped.totals[0, 0].tolist() == [1.0, 3.0, 1.0, 1.0]

    def test_zero_eta_matches_follow_the_leader(self):
        # with no noise fpl is the leader over exact totals, ties to the lowest index
        slotted = batch_trace(generate_zipf(ZipfConfig(40, 1.0, 600, seed=11)), 20)
        _, recorded = _step_exact(slotted, 8, 0.0, [np.random.default_rng(4)])
        totals = np.zeros(40)
        for t, window in enumerate(slotted.events.reshape(-1, 20)):
            assert np.array_equal(recorded[0, 0, 0, t], ~reference_top_c(totals, 8))
            totals += np.bincount(window, minlength=40)

    def test_degenerate_samplers_match_exact_decisions(self):
        slotted = batch_trace(generate_zipf(ZipfConfig(30, 1.0, 500, seed=12)), 10)
        specs = [EstimatorSpec.exact(10), EstimatorSpec.fixed_subsample(10, 10),
                 EstimatorSpec.bernoulli(1.0, 10)]
        stepped, recorded = _recorded_steps(
            slotted, [5], [[25.0] * 3], specs, [np.random.default_rng(77)],
            [[None], [np.random.default_rng(5)], [np.random.default_rng(6)]],
        )
        for g in (1, 2):
            assert np.array_equal(recorded[:, g], recorded[:, 0])
            assert np.array_equal(stepped.costs[:, g], stepped.costs[:, 0])
            assert np.array_equal(stepped.totals[g], stepped.totals[0])

    def test_rejects_bad_inputs(self):
        slotted = SlottedTrace(np.array([0, 1]), n_files=4, batch_size=2)
        rng = np.random.default_rng(0)
        exact = EstimatorSpec.exact(2)
        for eta, got in ((float("nan"), "[[nan]]"), (-1.0, "[[-1.0]]")):
            message = f"^etas must be finite and >= 0, got {re.escape(got)}$"
            with pytest.raises(InvalidInputError, match=message):
                step_perturbed_leaders(slotted, [2], [[eta]], [exact], [rng], [[None]])
        with pytest.raises(InvalidInputError):
            step_perturbed_leaders(
                slotted, [2], [[1.0]], [EstimatorSpec.bernoulli(0.5, 2)], [rng], [[None]]
            )
        with pytest.raises(InvalidInputError):
            step_perturbed_leaders(
                slotted, [2], [[1.0]], [EstimatorSpec.exact(3)], [rng], [[None]]
            )
        for size in (0, 5):
            with pytest.raises(InvalidInputError, match="cache_size"):
                step_perturbed_leaders(slotted, [size], [[1.0]], [exact], [rng], [[None]])

    def test_rejects_shared_sampling_generators(self):
        # block draws would reorder the draws of a generator two rows share
        slotted = SlottedTrace(np.array([0, 1, 1, 2]), n_files=4, batch_size=2)
        var = EstimatorSpec.bernoulli(0.5, 2)
        full = EstimatorSpec.fixed_subsample(2, 2)
        noise, other, shared = (np.random.default_rng(s) for s in range(3))
        for noise_rngs, specs, sample_rngs in [
            ([noise], [var, full], [[shared], [shared]]),
            ([noise, other], [var], [[shared, shared]]),
            ([noise], [var], [[noise]]),
            ([noise, other], [full], [[shared, other]]),
        ]:
            with pytest.raises(InvalidInputError, match="own generator"):
                step_perturbed_leaders(
                    slotted, [2], [[1.0] * len(specs)], specs, noise_rngs, sample_rngs
                )
        exact = EstimatorSpec.exact(2)  # its generator is never drawn from
        step_perturbed_leaders(
            slotted, [2], [[1.0, 1.0]], [exact, var], [noise], [[noise], [shared]]
        )


class TestObserver:
    def test_recorded_decisions_replay_the_costs(self):
        # each recorded slot caches exactly C files and prices that slot's misses
        slotted = batch_trace(generate_zipf(ZipfConfig(40, 1.0, 2000, seed=21)), 20)
        plan = SeedPlan(99)
        stepped, recorded = _recorded_steps(
            slotted, [8, 3], [[50.0, 100.0], [35.0, 70.0]],
            [EstimatorSpec.exact(20), EstimatorSpec.bernoulli(0.5, 20)],
            [plan.stream(r, SeedPlan.NOISE) for r in range(2)],
            [[None, None], [plan.stream(r, SeedPlan.SAMPLING) for r in range(2)]],
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
        specs = [EstimatorSpec.exact(20), EstimatorSpec.fixed_subsample(5, 20),
                 EstimatorSpec.bernoulli(0.3, 20)]

        def step(observe):
            plan = SeedPlan(5)
            return step_perturbed_leaders(
                slotted, [8, 3], [[50.0] * 3, [35.0] * 3], specs,
                [plan.stream(r, SeedPlan.NOISE) for r in range(3)],
                [[plan.stream(r, SeedPlan.SAMPLING) for r in range(3)] for _ in specs],
                observe=observe,
            )

        seen, unseen = step(Recorder()), step(None)
        assert np.array_equal(seen.costs, unseen.costs)
        assert np.array_equal(seen.totals, unseen.totals)
        ftl = follow_the_leader(slotted, 8)
        assert np.array_equal(follow_the_leader(slotted, 8, Recorder()), ftl)


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


@pytest.mark.parametrize("cache_size", [-1, 0, 5])
@pytest.mark.parametrize("policy", [
    static_optimum,
    follow_the_leader,
    least_recently_used,
    lambda slotted, c: step_perturbed_leaders(
        slotted, [c], [[1.0]], [EstimatorSpec.exact(2)], [np.random.default_rng(0)],
        [[None]],
    ),
], ids=["opt", "ftl", "lru", "stepper"])
def test_every_policy_checks_the_cache_size(policy, cache_size):
    slotted = SlottedTrace(np.array([0, 1, 2, 3]), n_files=4, batch_size=2)
    with pytest.raises(InvalidInputError, match=r"cache_size must be in \[1, 4\], got"):
        policy(slotted, cache_size)
