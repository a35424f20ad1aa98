"""Unit tests for the experiment engine."""

from dataclasses import replace

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from noisycache import (
    EstimatorKind,
    ExperimentConfig,
    InvalidInputError,
    PolicySpec,
    RoundRobinConfig,
    SeedPlan,
    Trace,
    TraceFileConfig,
    ZipfConfig,
    batch_trace,
    compute_eta,
    generate_zipf,
    regret_bound,
    run_experiment,
    run_sweep,
    static_optimum,
    step_perturbed_leaders,
)

from noisycache import engine
from noisycache.core import CacheSizeError

from helpers import reference_top_c, sweep_cells


def small_trace(seed=21):
    return generate_zipf(ZipfConfig(40, 1.0, 2000, seed=seed))


def small_config(policies, runs=3, trace=None):
    return ExperimentConfig(
        trace=trace if trace is not None else small_trace(),
        cache_sizes=(8,),
        batch_size=20,
        policies=tuple(policies),
        runs=runs,
        base_seed=99,
    )


class TestPolicySpec:
    def test_kind_validation(self):
        with pytest.raises(InvalidInputError):
            PolicySpec("x", "magic")
        with pytest.raises(InvalidInputError):
            PolicySpec("", "lru")

    def test_sampling_parameter_rules(self):
        with pytest.raises(InvalidInputError):
            PolicySpec("x", "nfpl-var")
        with pytest.raises(InvalidInputError):
            PolicySpec("x", "nfpl-fix")
        with pytest.raises(InvalidInputError):
            PolicySpec("x", "nfpl-var", rate=1.5)
        with pytest.raises(InvalidInputError):
            PolicySpec("x", "nfpl-var", rate=0.0)
        with pytest.raises(InvalidInputError):
            PolicySpec("x", "nfpl-fix", rate=1.5)
        with pytest.raises(InvalidInputError):
            PolicySpec("x", "fpl", rate=0.5)
        with pytest.raises(InvalidInputError, match="^lru takes no sampling rate$"):
            PolicySpec("x", "lru", rate=0.5)
        with pytest.raises(InvalidInputError, match="^nfpl-fix requires a sampling"):
            PolicySpec("x", "nfpl-fix", eta_override=1.0)
        # one parameter: the count spelling is gone
        with pytest.raises(TypeError):
            PolicySpec("x", "nfpl-fix", subsample=5)

    def test_eta_and_tiebreak_rules(self):
        with pytest.raises(InvalidInputError):
            PolicySpec("x", "lru", eta_override=1.0)
        with pytest.raises(InvalidInputError):
            PolicySpec("x", "ftl", eta_override=1.0)
        message = "^eta must be finite and >= 0, got {}$"
        with pytest.raises(InvalidInputError, match=message.format(r"-1\.0")):
            PolicySpec("x", "fpl", eta_override=-1.0)
        # ftl's most-recent tie rule is fixed: no kind takes a tiebreak
        for kind in ("lru", "ftl", "opt", "fpl"):
            with pytest.raises(TypeError):
                PolicySpec("x", kind, tiebreak="lowest-index")
        for eta in (float("nan"), float("inf")):
            with pytest.raises(InvalidInputError, match=message.format(eta)):
                PolicySpec("x", "fpl", eta_override=eta)
        assert PolicySpec("x", "fpl", eta_override=0.0).eta_override == 0.0

    def test_estimator_mapping(self):
        fpl = PolicySpec("x", "fpl").estimator_spec(50)
        assert fpl.rate == 1.0 and fpl.full_rate
        fix = PolicySpec("x", "nfpl-fix", rate=0.01).estimator_spec(200)
        assert fix.kind is EstimatorKind.FIXED_SUBSAMPLE
        assert fix.subsample == 2
        exact_count = PolicySpec("x", "nfpl-fix", rate=7 / 200).estimator_spec(200)
        assert exact_count.subsample == 7
        var = PolicySpec("x", "nfpl-var", rate=0.25).estimator_spec(200)
        assert var.kind is EstimatorKind.BERNOULLI
        assert var.rate == 0.25
        assert PolicySpec("x", "lru").estimator_spec(200) is None

    def test_tiny_rates_keep_at_least_one_event(self):
        assert PolicySpec("x", "nfpl-fix", rate=0.001).estimator_spec(10).subsample == 1

    def test_diameter_uses_smaller_side(self):
        # N = 10 and C = 8: the decision set's diameter is 2 * min(8, 2)
        slotted = batch_trace(Trace(np.arange(1, 11), 10), 5)
        eta = PolicySpec("x", "fpl").resolved_eta(slotted, 8)
        assert eta == compute_eta(5.0, 4, 2)

    def test_defaults(self):
        assert PolicySpec("x", "fpl").stochastic
        assert not PolicySpec("x", "opt").stochastic


class TestSeedPlan:
    def test_streams_are_reproducible_and_distinct(self):
        plan = SeedPlan(123)
        a = plan.stream(0, SeedPlan.NOISE).uniform(size=5)
        b = plan.stream(0, SeedPlan.NOISE).uniform(size=5)
        c = plan.stream(1, SeedPlan.NOISE).uniform(size=5)
        d = plan.stream(0, SeedPlan.SAMPLING).uniform(size=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_derived_trace_seed_is_stable(self):
        assert SeedPlan(7).derived_trace_seed() == SeedPlan(7).derived_trace_seed()
        assert SeedPlan(7).derived_trace_seed() != SeedPlan(8).derived_trace_seed()


@st.composite
def bound_problems(draw):
    """A small trace, 30% of them round-robin, its batch and cache sizes, and an eta.

    N <= 11, B <= 5 and T < 60. eta is drawn from [1e-6, 50]: far below
    that, where R * A * T / eta overflows a float, a run is refused for
    want of a finite bound.
    """
    n = draw(st.integers(1, 11))
    b = draw(st.integers(1, 5))
    size = draw(st.integers(1, 59)) * b
    if draw(st.integers(0, 9)) < 3:
        events = (np.arange(size) + draw(st.integers(0, n - 1))) % n + 1
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        events = np.minimum(rng.zipf(draw(st.floats(1.1, 3.0)), size), n)
    cache = draw(st.integers(1, n))
    return Trace(events, n), b, cache, draw(st.floats(1e-6, 50.0))


class TestRunExperiment:
    @settings(max_examples=100, deadline=None)
    @given(bound_problems(), st.floats(0.05, 1.0), st.integers(0, 2**16))
    def test_mean_regret_stays_under_the_bound_at_any_eta(self, problem, rate, seed):
        # the bound holds in expectation over the noise and the samples;
        # in two batches of 300 such problems the mean of 20 runs' regret
        # reached at most 0.30 of it, so the check has room for the spread
        trace, b, cache, eta = problem
        leaders = (
            PolicySpec("fpl", "fpl", eta_override=eta),
            PolicySpec("fix", "nfpl-fix", rate=rate, eta_override=eta),
            PolicySpec("var", "nfpl-var", rate=rate, eta_override=eta),
        )
        config = ExperimentConfig(trace, (cache,), b, leaders, runs=20, base_seed=seed)
        report = run_experiment(config)[0]
        for pol in report.policies:
            mass = pol.spec.estimator_spec(b).mass
            diameter = 2 * min(cache, trace.n_files - cache)
            assert pol.bound == regret_bound(mass, diameter, report.horizon, eta)
            assert pol.regret <= pol.bound

    def test_is_deterministic(self):
        cfg = small_config(
            [PolicySpec("fpl", "fpl"), PolicySpec("var", "nfpl-var", rate=0.5)]
        )
        a = run_experiment(cfg)[0]
        b = run_experiment(cfg)[0]
        assert a.opt_cost == b.opt_cost
        for pa, pb in zip(a.policies, b.policies):
            assert np.array_equal(pa.mean, pb.mean)
            for ra, rb in zip(pa.costs, pb.costs):
                assert np.array_equal(ra, rb)

    def test_opt_policy_reproduces_opt_cost_with_zero_regret(self):
        rep = run_experiment(small_config([PolicySpec("opt", "opt")]))[0]
        assert int(rep.policy("opt").costs[0].sum()) == rep.opt_cost
        costs = static_optimum(batch_trace(small_trace(), 20), 8)
        assert np.array_equal(costs, rep.policy("opt").costs[0])
        assert rep.policy("opt").regret == 0.0

    def test_deterministic_policies_have_flat_bands(self):
        rep = run_experiment(
            small_config([PolicySpec("lru", "lru"), PolicySpec("ftl", "ftl")], runs=5)
        )[0]
        for name in ("lru", "ftl"):
            pol = rep.policy(name)
            assert len(pol.costs) == 1
            assert np.array_equal(pol.mean, pol.d1)
            assert np.array_equal(pol.mean, pol.d9)

    def test_stochastic_policies_get_all_runs(self):
        rep = run_experiment(small_config([PolicySpec("fpl", "fpl")], runs=4))[0]
        assert rep.policy("fpl").costs.shape == (4, rep.horizon)
        assert rep.policy("fpl").totals.shape == (4, 40)

    def test_degenerate_samplers_share_cost_series_with_fpl(self):
        # b = B and f = 1 estimate the counts exactly, so both are twins
        # of fpl: the three cells step as one column and share one series
        cfg = small_config(
            [
                PolicySpec("fpl", "fpl"),
                PolicySpec("fix", "nfpl-fix", rate=1.0),
                PolicySpec("var", "nfpl-var", rate=1.0),
            ],
            runs=2,
        )
        rep = run_experiment(cfg)[0]
        for run in range(2):
            base = rep.policy("fpl").costs[run]
            assert np.array_equal(rep.policy("fix").costs[run], base)
            assert np.array_equal(rep.policy("var").costs[run], base)

    def test_a_leaders_shared_results_are_read_only(self):
        # fpl and a full-rate nfpl-var are twins: they share one view
        cfg = small_config([PolicySpec("fpl", "fpl"),
                            PolicySpec("var", "nfpl-var", rate=1.0)], runs=2)
        fpl, var = run_experiment(cfg)[0].policies
        assert np.shares_memory(fpl.costs, var.costs)
        for array in (fpl.costs, fpl.totals, var.costs, var.totals):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0

    def test_leaders_are_one_stepper_call_under_the_config_seed(self):
        # the stepper owns the seed rule: a direct call at the config's run
        # count and SeedPlan(base_seed) gives every leader's costs and totals
        leaders = [PolicySpec("fpl", "fpl"), PolicySpec("fix", "nfpl-fix", rate=0.3),
                   PolicySpec("var", "nfpl-var", rate=0.5)]
        cfg = small_config([PolicySpec("opt", "opt"), *leaders], runs=3)
        rep = run_experiment(cfg)[0]
        reports = [rep.policy(spec.name) for spec in leaders]
        stepped = step_perturbed_leaders(
            batch_trace(small_trace(), 20), [8], [[pol.eta for pol in reports]],
            [spec.estimator_spec(20) for spec in leaders], cfg.runs,
            SeedPlan(cfg.base_seed),
        )
        for g, pol in enumerate(reports):
            assert np.array_equal(pol.costs, stepped.costs[0, g])
            assert np.array_equal(pol.totals, stepped.totals[g])
        assert not np.array_equal(stepped.totals[:, 0], stepped.totals[:, 1])

    def test_zero_eta_fpl_equals_lowest_index_ftl(self):
        rep = run_experiment(
            small_config([PolicySpec("fpl0", "fpl", eta_override=0.0)])
        )[0]
        # the leader over exact running totals, ties to the lowest index
        totals = np.zeros(40)
        leader = []
        for window in batch_trace(small_trace(), 20).events.reshape(-1, 20):
            leader.append(int((~reference_top_c(totals, 8))[window].sum()))
            totals += np.bincount(window, minlength=40)
        for costs in rep.policy("fpl0").costs:
            assert costs.tolist() == leader

    def test_estimate_totals_only_for_estimating_policies(self):
        cfg = small_config(
            [PolicySpec("fpl", "fpl"), PolicySpec("ftl", "ftl"),
             PolicySpec("opt", "opt")],
            runs=1,
        )
        rep = run_experiment(cfg)[0]
        assert rep.policy("ftl").totals is None
        assert rep.policy("opt").totals is None
        # exact observation accumulates the true totals
        assert np.array_equal(rep.policy("fpl").totals[0], rep.request_totals)

    def test_horizon_truncates_partial_batches(self):
        trace = Trace(events=np.arange(105) % 7 + 1, n_files=7)
        cfg = ExperimentConfig(
            trace=trace, cache_sizes=(2,), batch_size=10,
            policies=(PolicySpec("opt", "opt"),), runs=1, base_seed=0,
        )
        rep = run_experiment(cfg)[0]
        assert rep.horizon == 10
        assert rep.cache_size == 2
        assert rep.policy("opt").costs[0].size == 10

    def test_a_callers_trace_is_never_written(self):
        # the engine slots its own traces in place, never one it was given
        trace = small_trace()
        before = trace.events.copy()
        policies = [PolicySpec(kind, kind) for kind in ("opt", "lru", "fpl")]
        run_experiment(small_config(policies, runs=1, trace=trace))
        run_sweep(small_config([], runs=1, trace=trace), [0.5])
        assert np.array_equal(trace.events, before)

    @pytest.mark.parametrize("source", [
        pytest.param(lambda path: ZipfConfig(40, 1.0, 2001, seed=3), id="zipf"),
        pytest.param(lambda path: RoundRobinConfig(40, 2001), id="round-robin"),
        pytest.param(lambda path: TraceFileConfig(str(path)), id="file"),
        pytest.param(lambda path: TraceFileConfig(str(path), remap=False, n_files=40),
                     id="file-kept-ids"),
        pytest.param(lambda path: TraceFileConfig(str(path) + "-ws"), id="file-filtered"),
        pytest.param(lambda path: TraceFileConfig(str(path) + "-x"), id="file-line-loop"),
    ])
    def test_its_own_traces_are_narrowed_in_half_their_buffer(
        self, monkeypatch, tmp_path, source
    ):
        # every trace source hands the engine a buffer it owns alone, so
        # slotting can cut it to its int32 front; the trailing partial batch
        # is dropped with the rest
        ids = "".join(f"{i % 40 + 1}\n" for i in range(2001))
        (tmp_path / "t.txt").write_text(ids)
        (tmp_path / "t.txt-ws").write_text(ids + " \n")
        (tmp_path / "t.txt-x").write_text(ids + "1_0\n")  # only the line loop reads 10
        slotted, batch_in_place = [], engine._batch_in_place

        def spy(trace, batch_size):
            slotted.append(batch_in_place(trace, batch_size))
            return slotted[-1]

        monkeypatch.setattr(engine, "_batch_in_place", spy)
        config = ExperimentConfig(
            trace=source(tmp_path / "t.txt"), cache_sizes=(4,), batch_size=20,
            policies=(PolicySpec("opt", "opt"),),
        )
        run_experiment(config)
        (events,) = (s.events for s in slotted)
        assert events.dtype == np.int32 and events.size == 2000
        assert events.base.dtype == np.int64 and events.base.nbytes == events.nbytes

    def test_rejects_bad_configs(self):
        with pytest.raises(InvalidInputError):
            run_experiment(small_config([]))
        with pytest.raises(InvalidInputError, match="^duplicate policy names: 'a'$"):
            small_config([PolicySpec("a", "fpl"), PolicySpec("b", "opt"),
                          PolicySpec("a", "lru")])
        with pytest.raises(InvalidInputError):
            ExperimentConfig(trace=small_trace(), cache_sizes=(0,), batch_size=5)
        with pytest.raises(InvalidInputError):
            ExperimentConfig(
                trace=small_trace(), cache_sizes=(2,), batch_size=5, base_seed=-1
            )
        with pytest.raises(InvalidInputError, match="^batch_size must be >= 1$"):
            ExperimentConfig(trace=small_trace(), cache_sizes=(2,), batch_size=0)
        with pytest.raises(InvalidInputError, match="^runs must be >= 1$"):
            ExperimentConfig(trace=small_trace(), cache_sizes=(2,), batch_size=5, runs=0)
        with pytest.raises(InvalidInputError, match="^unknown trace source type object$"):
            run_experiment(small_config([PolicySpec("opt", "opt")], trace=object()))
        (report,) = run_experiment(small_config([PolicySpec("opt", "opt")]))
        with pytest.raises(KeyError, match="'lru'"):
            report.policy("lru")

    @pytest.mark.parametrize("sizes,message", [
        ((), "at least one cache size is required"),
        ((5, 5), "duplicate cache sizes"),
        # a library caller ran no sweep, so the message names the size, not one
        ((5, 8, 5), "^duplicate cache sizes: 5$"),
        ((0,), r"cache_size must be in \[1, 40\], got 0"),
        ((8, 41), r"cache_size must be in \[1, 40\], got 41"),
    ], ids=["empty", "duplicate", "duplicate-named", "zero", "above-files"])
    def test_config_rejects_bad_cache_sizes(self, sizes, message):
        with pytest.raises(CacheSizeError, match=message):
            ExperimentConfig(trace=small_trace(), cache_sizes=sizes, batch_size=5)

    def test_each_size_reports_its_one_size_experiment(self):
        # every policy row and the pricing at each size are those of a
        # run of the same config at that size alone
        policies = [PolicySpec(kind, kind) for kind in ("opt", "lru", "ftl", "fpl")]
        policies += [PolicySpec("fix", "nfpl-fix", rate=0.1),
                     PolicySpec("var", "nfpl-var", rate=0.5)]
        cfg = replace(small_config(policies), cache_sizes=(4, 8))
        reports = run_experiment(cfg)
        assert [rep.cache_size for rep in reports] == [4, 8]
        for rep in reports:
            (solo,) = run_experiment(replace(cfg, cache_sizes=(rep.cache_size,)))
            assert rep.opt_cost == solo.opt_cost
            assert rep.horizon == solo.horizon
            assert np.array_equal(rep.request_totals, solo.request_totals)
            for pol, one in zip(rep.policies, solo.policies, strict=True):
                assert (pol.spec, pol.eta, pol.bound) == (one.spec, one.eta, one.bound)
                assert (pol.cum_cost, pol.regret) == (one.cum_cost, one.regret)
                for ours, theirs in [(pol.mean, one.mean), (pol.d1, one.d1),
                                     (pol.d9, one.d9), (pol.costs, one.costs)]:
                    assert np.array_equal(ours, theirs)
                if pol.totals is None:
                    assert one.totals is None
                else:
                    assert np.array_equal(pol.totals, one.totals)

    def test_run_independence(self):
        # each run's series depends on its run index alone, not on the run count
        cfg = small_config([PolicySpec("var", "nfpl-var", rate=0.5)], runs=3)
        three = run_experiment(cfg)[0].policy("var")
        two = run_experiment(replace(cfg, runs=2))[0].policy("var")
        for a, b in zip(two.costs, three.costs[:2], strict=True):
            assert np.array_equal(a, b)
        for a, b in zip(two.totals, three.totals[:2], strict=True):
            assert np.array_equal(a, b)

    def test_zipf_seed_resolution_is_deterministic(self):
        cfg = ExperimentConfig(
            trace=ZipfConfig(30, 1.0, 600),  # seed left unresolved
            cache_sizes=(5,), batch_size=20,
            policies=(PolicySpec("ftl", "ftl"),), runs=1, base_seed=5,
        )
        a = run_experiment(cfg)[0]
        b = run_experiment(cfg)[0]
        assert a.trace_source.seed == b.trace_source.seed
        assert np.array_equal(a.policy("ftl").costs[0], b.policy("ftl").costs[0])


def variant(pol):
    return pol.spec.kind.removeprefix("nfpl-")


class TestRunSweep:
    def base_config(self):
        return ExperimentConfig(
            trace=small_trace(), cache_sizes=(8,), batch_size=20, runs=3, base_seed=99
        )

    def test_cell_grid_and_order(self):
        reports = run_sweep(
            replace(self.base_config(), cache_sizes=(4, 8)), rates=(0.5, 1.0),
            variants=("fix", "var"),
        )
        grid = [(size, variant(pol), pol.spec.rate) for size, pol in sweep_cells(reports)]
        assert grid == [
            (4, "fix", 0.5), (4, "fix", 1.0), (4, "var", 0.5), (4, "var", 1.0),
            (8, "fix", 0.5), (8, "fix", 1.0), (8, "var", 0.5), (8, "var", 1.0),
        ]
        assert all(len(pol.costs) == 3 for _, pol in sweep_cells(reports))

    def test_eta_is_pinned_to_the_exact_bounds_value(self):
        reports = run_sweep(self.base_config(), rates=(0.01, 1.0))
        horizon = reports[0].horizon
        for size, pol in sweep_cells(reports):
            d = 2 * min(size, 40 - size)
            assert pol.eta == pytest.approx(
                np.sqrt(20 * 20 * horizon / d), rel=1e-12
            )

    def test_full_rate_cells_match_fpl(self):
        # at rate 1.0 both variants degenerate to FPL, and the pinned
        # eta equals FPL's own, so the cells must agree exactly with a
        # run_experiment FPL row under the same seeds
        cfg = self.base_config()
        sweep = run_sweep(cfg, rates=(1.0,))
        fpl = run_experiment(
            ExperimentConfig(
                trace=cfg.trace, cache_sizes=(8,), batch_size=20,
                policies=(PolicySpec("fpl", "fpl"),), runs=3, base_seed=99,
            )
        )[0].policy("fpl")
        for _, pol in sweep_cells(sweep):
            assert pol.final_mean == fpl.final_mean
            assert pol.final_d1 == fpl.final_d1
            assert pol.final_d9 == fpl.final_d9

    def test_rejects_bad_rates_and_variants(self):
        with pytest.raises(InvalidInputError):
            run_sweep(self.base_config(), rates=())
        with pytest.raises(InvalidInputError):
            run_sweep(self.base_config(), rates=(0.0,))
        with pytest.raises(InvalidInputError):
            run_sweep(self.base_config(), rates=(2.0,))
        with pytest.raises(InvalidInputError):
            run_sweep(self.base_config(), rates=(0.5,), variants=("fix", "fix"))
        with pytest.raises(InvalidInputError):
            run_sweep(self.base_config(), rates=(0.5,), variants=("nope",))
        with pytest.raises(InvalidInputError, match="^at least one variant is required$"):
            run_sweep(self.base_config(), rates=(0.5,), variants=())
        with pytest.raises(InvalidInputError, match="duplicate rates"):
            run_sweep(self.base_config(), rates=(0.5, 0.5))

    def test_twin_cells_agree_and_each_cell_equals_its_own_experiment(self, monkeypatch):
        # at rate 1.0 fix and var are one full-rate leader, and fix rates
        # 0.01 and 0.02 both keep one event of 20; stepped once, each cell
        # must still be what an experiment of that one policy gives
        stepped, real_step = [], engine.step_perturbed_leaders

        def step(slotted, sizes, etas, estimators, *args):
            stepped.append(len(estimators))
            return real_step(slotted, sizes, etas, estimators, *args)

        monkeypatch.setattr(engine, "step_perturbed_leaders", step)
        cfg = self.base_config()
        reports = run_sweep(replace(cfg, cache_sizes=(4, 8)), rates=(0.01, 0.02, 1.0))
        assert stepped == [4]  # fix at b = 1, var 0.01, var 0.02 and full rate
        cells = {
            (size, variant(pol), pol.spec.rate): pol for size, pol in sweep_cells(reports)
        }
        for size in (4, 8):
            for a, b in [(("fix", 1.0), ("var", 1.0)), (("fix", 0.01), ("fix", 0.02))]:
                pa, pb = cells[(size, *a)], cells[(size, *b)]
                for run in range(len(pa.costs)):
                    assert np.array_equal(pa.costs[run], pb.costs[run])
                    assert np.array_equal(pa.totals[run], pb.totals[run])
        for size, pol in sweep_cells(reports):
            spec = PolicySpec(
                "solo", pol.spec.kind, rate=pol.spec.rate, eta_override=pol.eta
            )
            solo = run_experiment(
                replace(cfg, cache_sizes=(size,), policies=(spec,))
            )[0].policy("solo")
            assert solo.final_mean == pol.final_mean
            assert solo.final_d1 == pol.final_d1
            assert solo.final_d9 == pol.final_d9
            for ra, rb in zip(solo.costs, pol.costs, strict=True):
                assert np.array_equal(ra, rb)
            for ra, rb in zip(solo.totals, pol.totals, strict=True):
                assert np.array_equal(ra, rb)

    def test_every_cell_equals_its_solo_run_policy(self):
        # cells stepped together must match each cell run on its own: a
        # one-policy experiment at the cell's cache size, rate and eta
        cfg = self.base_config()
        reports = run_sweep(replace(cfg, cache_sizes=(4, 8)), rates=(0.1, 1.0))
        for size, pol in sweep_cells(reports):
            spec = PolicySpec(
                "solo", pol.spec.kind, rate=pol.spec.rate, eta_override=pol.eta
            )
            solo = run_experiment(
                replace(cfg, cache_sizes=(size,), policies=(spec,))
            )[0].policy("solo")
            for run in range(len(pol.costs)):
                assert np.array_equal(solo.costs[run], pol.costs[run])
                assert np.array_equal(solo.totals[run], pol.totals[run])
            assert solo.bound == pol.bound

    def test_each_report_prices_its_size_as_its_experiment_does(self):
        # opt_cost and request_totals are those of run_experiment at that size
        cfg = self.base_config()
        reports = run_sweep(replace(cfg, cache_sizes=(4, 8)), rates=(0.5,))
        assert [rep.cache_size for rep in reports] == [4, 8]
        for rep in reports:
            solo = run_experiment(
                replace(cfg, cache_sizes=(rep.cache_size,),
                        policies=(PolicySpec("opt", "opt"),))
            )[0]
            assert rep.opt_cost == solo.opt_cost
            assert np.array_equal(rep.request_totals, solo.request_totals)
