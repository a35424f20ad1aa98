"""Unit tests for the experiment engine."""

from dataclasses import replace

import numpy as np
import pytest

from noisycache import (
    EstimatorKind,
    ExperimentConfig,
    InvalidInputError,
    PolicySpec,
    SeedPlan,
    Trace,
    ZipfConfig,
    batch_trace,
    generate_zipf,
    run_experiment,
    run_sweep,
    static_optimum,
)

from helpers import reference_top_c


def small_trace(seed=21):
    return generate_zipf(ZipfConfig(40, 1.0, 2000, seed=seed))


def small_config(policies, runs=3, trace=None):
    return ExperimentConfig(
        trace=trace if trace is not None else small_trace(),
        cache_size=8,
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
            PolicySpec("x", "nfpl-var", rate=0.5, subsample=10)
        with pytest.raises(InvalidInputError):
            PolicySpec("x", "fpl", rate=0.5)
        with pytest.raises(InvalidInputError):
            PolicySpec("x", "lru", subsample=3)
        with pytest.raises(InvalidInputError, match="exactly one of rate"):
            PolicySpec("x", "nfpl-fix", rate=0.01, subsample=5)

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
        assert PolicySpec("x", "fpl").estimator_spec(50).kind is EstimatorKind.EXACT
        fix = PolicySpec("x", "nfpl-fix", rate=0.01).estimator_spec(200)
        assert fix.kind is EstimatorKind.FIXED_SUBSAMPLE
        assert fix.subsample == 2
        explicit = PolicySpec("x", "nfpl-fix", subsample=7).estimator_spec(200)
        assert explicit.subsample == 7
        var = PolicySpec("x", "nfpl-var", rate=0.25).estimator_spec(200)
        assert var.kind is EstimatorKind.BERNOULLI
        assert var.rate == 0.25
        assert PolicySpec("x", "lru").estimator_spec(200) is None

    def test_tiny_rates_keep_at_least_one_event(self):
        assert PolicySpec("x", "nfpl-fix", rate=0.001).estimator_spec(10).subsample == 1

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


class TestRunExperiment:
    def test_is_deterministic(self):
        cfg = small_config(
            [PolicySpec("fpl", "fpl"), PolicySpec("var", "nfpl-var", rate=0.5)]
        )
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.opt_cost == b.opt_cost
        for pa, pb in zip(a.policies, b.policies):
            assert np.array_equal(pa.mean, pb.mean)
            for ra, rb in zip(pa.runs, pb.runs):
                assert np.array_equal(ra.costs, rb.costs)

    def test_opt_policy_reproduces_opt_cost_with_zero_regret(self):
        rep = run_experiment(small_config([PolicySpec("opt", "opt")]))
        assert int(rep.policy("opt").runs[0].costs.sum()) == rep.opt_cost
        costs = static_optimum(batch_trace(small_trace(), 20), 8)
        assert np.array_equal(costs, rep.policy("opt").runs[0].costs)
        assert rep.policy("opt").regret.regret == 0.0

    def test_deterministic_policies_have_flat_bands(self):
        rep = run_experiment(
            small_config([PolicySpec("lru", "lru"), PolicySpec("ftl", "ftl")], runs=5)
        )
        for name in ("lru", "ftl"):
            pol = rep.policy(name)
            assert len(pol.runs) == 1
            assert np.array_equal(pol.mean, pol.d1)
            assert np.array_equal(pol.mean, pol.d9)

    def test_stochastic_policies_get_all_runs(self):
        rep = run_experiment(small_config([PolicySpec("fpl", "fpl")], runs=4))
        assert [s.run for s in rep.policy("fpl").runs] == [0, 1, 2, 3]

    def test_degenerate_samplers_share_cost_series_with_fpl(self):
        # b = B and f = 1 estimate the counts exactly, so both are twins
        # of fpl: the three cells step as one column and share one series
        cfg = small_config(
            [
                PolicySpec("fpl", "fpl"),
                PolicySpec("fix", "nfpl-fix", subsample=20),
                PolicySpec("var", "nfpl-var", rate=1.0),
            ],
            runs=2,
        )
        rep = run_experiment(cfg)
        for run in range(2):
            base = rep.policy("fpl").runs[run].costs
            assert np.array_equal(rep.policy("fix").runs[run].costs, base)
            assert np.array_equal(rep.policy("var").runs[run].costs, base)

    def test_zero_eta_fpl_equals_lowest_index_ftl(self):
        rep = run_experiment(
            small_config([PolicySpec("fpl0", "fpl", eta_override=0.0)])
        )
        # the leader over exact running totals, ties to the lowest index
        totals = np.zeros(40)
        leader = []
        for window in batch_trace(small_trace(), 20).events.reshape(-1, 20):
            leader.append(int((~reference_top_c(totals, 8))[window].sum()))
            totals += np.bincount(window, minlength=40)
        for series in rep.policy("fpl0").runs:
            assert series.costs.tolist() == leader

    def test_estimate_totals_only_for_estimating_policies(self):
        cfg = small_config(
            [PolicySpec("fpl", "fpl"), PolicySpec("ftl", "ftl"),
             PolicySpec("opt", "opt")],
            runs=1,
        )
        rep = run_experiment(cfg)
        assert rep.policy("ftl").runs[0].estimate_totals is None
        assert rep.policy("opt").runs[0].estimate_totals is None
        # exact observation accumulates the true totals
        assert np.array_equal(
            rep.policy("fpl").runs[0].estimate_totals, rep.request_totals
        )

    def test_horizon_truncates_partial_batches(self):
        trace = Trace(events=np.arange(105) % 7 + 1, n_files=7)
        cfg = ExperimentConfig(
            trace=trace, cache_size=2, batch_size=10,
            policies=(PolicySpec("opt", "opt"),), runs=1, base_seed=0,
        )
        rep = run_experiment(cfg)
        assert rep.horizon == 10
        assert rep.cache_size == 2
        assert rep.policy("opt").runs[0].costs.size == 10

    def test_rejects_bad_configs(self):
        with pytest.raises(InvalidInputError):
            run_experiment(small_config([]))
        with pytest.raises(InvalidInputError):
            small_config([PolicySpec("a", "fpl"), PolicySpec("a", "lru")])
        with pytest.raises(InvalidInputError):
            ExperimentConfig(trace=small_trace(), cache_size=0, batch_size=5)
        with pytest.raises(InvalidInputError):
            ExperimentConfig(
                trace=small_trace(), cache_size=2, batch_size=5, base_seed=-1
            )

    def test_run_independence(self):
        # each run's series depends on its run index alone, not on the run count
        cfg = small_config([PolicySpec("var", "nfpl-var", rate=0.5)], runs=3)
        three = run_experiment(cfg).policy("var").runs
        two = run_experiment(replace(cfg, runs=2)).policy("var").runs
        for a, b in zip(two, three[:2], strict=True):
            assert a.run == b.run
            assert np.array_equal(a.costs, b.costs)
            assert np.array_equal(a.estimate_totals, b.estimate_totals)

    def test_zipf_seed_resolution_is_deterministic(self):
        cfg = ExperimentConfig(
            trace=ZipfConfig(30, 1.0, 600),  # seed left unresolved
            cache_size=5, batch_size=20,
            policies=(PolicySpec("ftl", "ftl"),), runs=1, base_seed=5,
        )
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.trace_source.seed == b.trace_source.seed
        assert np.array_equal(a.policy("ftl").runs[0].costs,
                              b.policy("ftl").runs[0].costs)


class TestRunSweep:
    def base_config(self):
        return ExperimentConfig(
            trace=small_trace(), cache_size=8, batch_size=20, runs=3, base_seed=99
        )

    def test_cell_grid_and_order(self):
        report = run_sweep(
            self.base_config(), rates=(0.5, 1.0), variants=("fix", "var"),
            cache_sizes=(4, 8),
        )
        grid = [(c.cache_size, c.variant, c.rate) for c in report.cells]
        assert grid == [
            (4, "fix", 0.5), (4, "fix", 1.0), (4, "var", 0.5), (4, "var", 1.0),
            (8, "fix", 0.5), (8, "fix", 1.0), (8, "var", 0.5), (8, "var", 1.0),
        ]
        assert all(len(c.runs) == 3 for c in report.cells)

    def test_eta_is_pinned_to_the_exact_bounds_value(self):
        report = run_sweep(self.base_config(), rates=(0.01, 1.0))
        horizon = report.horizon
        for cell in report.cells:
            d = 2 * min(cell.cache_size, 40 - cell.cache_size)
            assert cell.eta == pytest.approx(
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
                trace=cfg.trace, cache_size=8, batch_size=20,
                policies=(PolicySpec("fpl", "fpl"),), runs=3, base_seed=99,
            )
        ).policy("fpl")
        for cell in sweep.cells:
            assert cell.final_mean == fpl.final_mean
            assert cell.final_d1 == fpl.final_d1
            assert cell.final_d9 == fpl.final_d9

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
        with pytest.raises(InvalidInputError, match="duplicate rates"):
            run_sweep(self.base_config(), rates=(0.5, 0.5))
        with pytest.raises(InvalidInputError, match="duplicate cache sizes"):
            run_sweep(self.base_config(), rates=(0.5,), cache_sizes=(5, 5))

    def test_twin_cells_agree_and_each_cell_equals_its_own_experiment(self):
        # at rate 1.0 fix and var are one full-rate leader, and fix rates
        # 0.01 and 0.02 both keep one event of 20; stepped once, each cell
        # must still be what an experiment of that one policy gives
        cfg = self.base_config()
        report = run_sweep(cfg, rates=(0.01, 0.02, 1.0), cache_sizes=(4, 8))
        cells = {(c.cache_size, c.variant, c.rate): c for c in report.cells}
        for size in (4, 8):
            for a, b in [(("fix", 1.0), ("var", 1.0)), (("fix", 0.01), ("fix", 0.02))]:
                for ra, rb in zip(cells[(size, *a)].runs, cells[(size, *b)].runs):
                    assert np.array_equal(ra.costs, rb.costs)
                    assert np.array_equal(ra.estimate_totals, rb.estimate_totals)
        for cell in report.cells:
            spec = PolicySpec(
                "solo", f"nfpl-{cell.variant}", rate=cell.rate, eta_override=cell.eta
            )
            solo = run_experiment(
                replace(cfg, cache_size=cell.cache_size, policies=(spec,))
            ).policy("solo")
            assert solo.final_mean == cell.final_mean
            assert solo.final_d1 == cell.final_d1
            assert solo.final_d9 == cell.final_d9
            for ra, rb in zip(solo.runs, cell.runs, strict=True):
                assert np.array_equal(ra.costs, rb.costs)
                assert np.array_equal(ra.estimate_totals, rb.estimate_totals)

    def test_every_cell_equals_its_solo_run_policy(self):
        # cells stepped together must match each cell run on its own: a
        # one-policy experiment at the cell's cache size, rate and eta
        cfg = self.base_config()
        report = run_sweep(cfg, rates=(0.1, 1.0), cache_sizes=(4, 8))
        for cell in report.cells:
            spec = PolicySpec(
                "solo", f"nfpl-{cell.variant}", rate=cell.rate, eta_override=cell.eta
            )
            solo = run_experiment(
                replace(cfg, cache_size=cell.cache_size, policies=(spec,))
            ).policy("solo")
            for run, series in enumerate(cell.runs):
                assert solo.runs[run].run == run
                assert np.array_equal(solo.runs[run].costs, series.costs)
                assert np.array_equal(
                    solo.runs[run].estimate_totals, series.estimate_totals
                )
