"""Experiment engine: seeding, policy runs, aggregation, and sweeps.

One experiment = one trace, a set of policies, and M runs per stochastic
policy. Seeding follows a fixed derivation so that every run is
reproducible and, crucially, so that run r of ANY perturbed-leader
policy draws the same noise sequence: policies under the same run index
are compared with common random numbers. The perturbed-leader rows of an
experiment, and every cell of a sweep at every cache size, are therefore
stepped in one call to policies.step_perturbed_leaders, every run at
once. A leader's totals never depend on the cache size, so a sweep draws
each slot's noise and estimates once for all its sizes, and cells whose
estimates are equal (full rate, or the same fixed subsample) step once
and share one series.

Deterministic policies (lru, ftl, opt) run once, each by a direct call
to its policy function; their single series stands in for all runs, so
their decile bands have zero width.

A run keeps costs and totals, not caches: to see each slot's cache,
call follow_the_leader or step_perturbed_leaders with an observer.

Each fact has one owner: the slotted trace holds N, B and T, and the
experiment's cache size is C. Cache sizes are checked against the trace
as soon as it is built, before any eta is resolved.
"""

from dataclasses import dataclass, replace
import math

import numpy as np

from .core import CacheSizeError, InvalidInputError, check_cache_size
from .estimators import EstimatorKind, EstimatorSpec, bound_params, check_rate
from .metrics import (
    RegretReport,
    RunSeries,
    average_miss_ratio,
    decile_band,
    empirical_regret,
    regret_bound,
)
from .policies import (
    check_eta,
    compute_eta,
    follow_the_leader,
    least_recently_used,
    static_optimum,
    step_perturbed_leaders,
)
from .traces import (
    RoundRobinConfig,
    SlottedTrace,
    Trace,
    TraceFileConfig,
    ZipfConfig,
    batch_trace,
    generate_round_robin,
    generate_zipf,
    read_trace_file,
)

POLICY_KINDS = ("lru", "ftl", "fpl", "nfpl-fix", "nfpl-var", "opt")
_SAMPLED_KINDS = ("fpl", "nfpl-fix", "nfpl-var")


@dataclass(frozen=True)
class PolicySpec:
    """Declarative description of one policy row in an experiment.

    kind is one of POLICY_KINDS. rate is the sampling rate for the
    nfpl variants; nfpl-fix takes either rate, meaning subsample =
    round(rate * batch_size), or an explicit subsample, never both.
    eta_override replaces the computed perturbation scale for the
    perturbed-leader kinds.
    """

    name: str
    kind: str
    rate: float | None = None
    subsample: int | None = None
    eta_override: float | None = None

    def __post_init__(self):
        if not self.name:
            raise InvalidInputError("policy name must be non-empty")
        if self.kind not in POLICY_KINDS:
            raise InvalidInputError(
                f"unknown policy kind {self.kind!r}, expected one of {POLICY_KINDS}"
            )
        if self.kind == "nfpl-var":
            if self.rate is None:
                raise InvalidInputError("nfpl-var requires a sampling rate")
            if self.subsample is not None:
                raise InvalidInputError("subsample does not apply to nfpl-var")
        elif self.kind == "nfpl-fix":
            if (self.rate is None) == (self.subsample is None):
                raise InvalidInputError(
                    "nfpl-fix requires exactly one of rate and subsample"
                )
        else:
            if self.rate is not None or self.subsample is not None:
                raise InvalidInputError(f"{self.kind} takes no sampling parameters")
        if self.rate is not None:
            check_rate(self.rate)
        if self.subsample is not None and self.subsample < 1:
            raise InvalidInputError("subsample must be >= 1")
        if self.eta_override is not None:
            if self.kind not in _SAMPLED_KINDS:
                raise InvalidInputError(f"eta does not apply to {self.kind}")
            check_eta(self.eta_override)

    @property
    def stochastic(self) -> bool:
        return self.kind in _SAMPLED_KINDS

    def resolved_eta(self, slotted: SlottedTrace, cache_size: int) -> float:
        """Perturbation scale: the override, else compute_eta's value."""
        if self.eta_override is not None:
            return self.eta_override
        n = slotted.n_files
        if cache_size == n:  # diameter 0: nothing to decide
            raise CacheSizeError(
                f"cache_size {cache_size} holds all {n} files, "
                f"so policy {self.name!r} has no perturbation scale; set its eta"
            )
        estimator = self.estimator_spec(slotted.batch_size)
        eta = compute_eta(bound_params(estimator, n, cache_size), slotted.horizon)
        if not math.isfinite(eta):  # B / rate overflows at a tiny enough rate
            raise InvalidInputError(
                f"policy {self.name!r} ({self.kind}, rate {self.rate}) has no "
                "finite perturbation scale; raise its rate or set its eta"
            )
        return eta

    def resolved_bound(self, slotted: SlottedTrace, cache_size: int) -> float:
        """metrics.regret_bound for this policy's estimator at this trace and size."""
        estimator = self.estimator_spec(slotted.batch_size)
        bounds = bound_params(estimator, slotted.n_files, cache_size)
        bound = regret_bound(bounds, slotted.horizon)
        if not math.isfinite(bound):  # (B / rate)^2 overflows at a tiny enough rate
            raise InvalidInputError(
                f"policy {self.name!r} ({self.kind}, rate {self.rate}) has no "
                "finite regret bound; raise its rate"
            )
        return bound

    def estimator_spec(self, batch_size: int) -> EstimatorSpec | None:
        if self.kind == "fpl":
            return EstimatorSpec.exact(batch_size)
        if self.kind == "nfpl-fix":
            b = self.subsample or max(1, min(batch_size, round(self.rate * batch_size)))
            return EstimatorSpec.fixed_subsample(b, batch_size)
        if self.kind == "nfpl-var":
            return EstimatorSpec.bernoulli(self.rate, batch_size)
        return None


@dataclass(frozen=True)
class SeedPlan:
    """Per-(run, stream) RNG derivation from one base seed.

    stream(run, stream_id) spawns an independent generator keyed by the
    run index and a stream id: NOISE for decision perturbations,
    SAMPLING for estimator draws, TRACE for trace generation. The trace
    stream ignores the run index (one trace per experiment), and the
    noise stream depends only on the run index, never on the policy, so
    equal-run comparisons share randomness.
    """

    base_seed: int

    NOISE = 0
    SAMPLING = 1
    TRACE = 2

    def stream(self, run: int, stream_id: int) -> np.random.Generator:
        seq = np.random.SeedSequence(self.base_seed, spawn_key=(run, stream_id))
        return np.random.default_rng(seq)

    def derived_trace_seed(self) -> int:
        seq = np.random.SeedSequence(self.base_seed, spawn_key=(0, self.TRACE))
        return int(seq.generate_state(1)[0])


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs besides the outputs' location."""

    trace: ZipfConfig | RoundRobinConfig | TraceFileConfig | Trace
    cache_size: int
    batch_size: int
    policies: tuple[PolicySpec, ...] = ()
    runs: int = 1
    base_seed: int = 0

    def __post_init__(self):
        n_files = getattr(self.trace, "n_files", None)  # None: a file yet to be read
        check_cache_size(self.cache_size, n_files or math.inf)
        if self.batch_size < 1:
            raise InvalidInputError("batch_size must be >= 1")
        if self.runs < 1:
            raise InvalidInputError("runs must be >= 1")
        if self.base_seed < 0:
            raise InvalidInputError(f"base_seed must be >= 0, got {self.base_seed}")
        names = [p.name for p in self.policies]
        if len(set(names)) != len(names):
            raise InvalidInputError("policy names must be unique")
        for p in self.policies:
            try:
                p.estimator_spec(self.batch_size)
            except InvalidInputError as exc:
                raise InvalidInputError(f"policy {p.name!r}: {exc}") from None


@dataclass
class PolicyReport:
    """Aggregated results for one policy across its runs."""

    spec: PolicySpec
    eta: float | None
    mean: np.ndarray
    d1: np.ndarray
    d9: np.ndarray
    cum_cost: float
    regret: RegretReport
    runs: list[RunSeries]

    @property
    def final_mean(self) -> float:
        return float(self.mean[-1])

    @property
    def final_d1(self) -> float:
        return float(self.d1[-1])

    @property
    def final_d9(self) -> float:
        return float(self.d9[-1])


@dataclass
class ExperimentReport:
    """One experiment's full results."""

    cache_size: int
    horizon: int
    trace_source: object
    request_totals: np.ndarray
    opt_decision: np.ndarray
    opt_cost: int
    policies: list[PolicyReport]

    def policy(self, name: str) -> PolicyReport:
        for rep in self.policies:
            if rep.spec.name == name:
                return rep
        raise KeyError(name)


def _resolve_trace(source, plan: SeedPlan):
    """Materialize a trace and return (resolved source config, trace)."""
    if isinstance(source, Trace):
        return None, source
    if isinstance(source, ZipfConfig):
        if source.seed is None:
            source = replace(source, seed=plan.derived_trace_seed())
        return source, generate_zipf(source)
    if isinstance(source, RoundRobinConfig):
        return source, generate_round_robin(source)
    if isinstance(source, TraceFileConfig):
        return source, read_trace_file(source.path, source.remap, source.n_files)
    raise InvalidInputError(f"unknown trace source type {type(source).__name__}")


def _prepare(config: ExperimentConfig, sizes):
    """Seed plan, resolved trace source and slotted trace of one experiment.

    Checks each of sizes against the catalog, which a remapped trace file
    only reveals once it is read.
    """
    plan = SeedPlan(config.base_seed)
    source, trace = _resolve_trace(config.trace, plan)
    slotted = batch_trace(trace, config.batch_size)
    del trace  # free the raw events: the engine reads only the slotted trace
    for size in sizes:
        check_cache_size(size, slotted.n_files)
    return plan, source, slotted


def _run_leaders(leaders, slotted, sizes, plan, runs):
    """Step perturbed leaders over `runs` at every cache size in one call.

    leaders holds one (estimator, eta at each size) pair per leader. Run r
    of every leader reads the run-r noise stream, and each leader gets its
    own run-r sampling stream. Leaders with equal etas whose estimates are
    equal, because both are full rate or both keep the same fixed
    subsample, are the same leader and step once. Returns the stepper's
    LeaderRuns and each leader's column in it.
    """
    keys = [
        (EstimatorSpec.exact(est.batch_size) if est.full_rate else est, tuple(etas))
        for est, etas in leaders
    ]
    distinct = list(dict.fromkeys(keys))
    stepped = step_perturbed_leaders(
        slotted,
        sizes,
        np.array([etas for _, etas in distinct]).T,
        [est for est, _ in distinct],
        noise_rngs=[plan.stream(run, SeedPlan.NOISE) for run in runs],
        sample_rngs=[
            [
                None if est.kind is EstimatorKind.EXACT
                else plan.stream(run, SeedPlan.SAMPLING)
                for run in runs
            ]
            for est, _ in distinct
        ],
    )
    return stepped, [distinct.index(key) for key in keys]


def _series(name, stepped, s, g, runs):
    """One RunSeries per run of leader column g at cache size index s."""
    return [
        RunSeries(name, run, stepped.costs[s, g, i], stepped.totals[g, i])
        for i, run in enumerate(runs)
    ]


def _band(series, batch_size):
    """Mean, d1 and d9 of the running miss ratio across the runs in series."""
    return decile_band(
        np.stack([average_miss_ratio(s.costs, batch_size) for s in series])
    )


def _aggregate(spec, eta, series, batch_size, optimum, bound):
    mean, d1, d9 = _band(series, batch_size)
    cum = float(np.mean([float(s.costs.sum()) for s in series]))
    return PolicyReport(
        spec=spec,
        eta=eta,
        mean=mean,
        d1=d1,
        d9=d9,
        cum_cost=cum,
        regret=empirical_regret(cum, optimum, bound),
        runs=list(series),
    )


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every configured policy on one shared trace and aggregate.

    The perturbed-leader policies are stepped together, all runs at once.
    """
    if not config.policies:
        raise InvalidInputError("at least one policy is required")
    size = config.cache_size
    plan, source, slotted = _prepare(config, [size])
    b, horizon = slotted.batch_size, slotted.horizon
    leaders = [spec for spec in config.policies if spec.stochastic]
    etas = [spec.resolved_eta(slotted, size) for spec in leaders]  # before any run
    bounds = [spec.resolved_bound(slotted, size) for spec in leaders]
    opt_decision, opt_costs = static_optimum(slotted, size)
    optimum = int(opt_costs.sum())

    reports = {}
    for spec in config.policies:
        if spec.kind == "opt":
            costs = opt_costs
        elif spec.kind == "ftl":
            costs = follow_the_leader(slotted, size)
        elif spec.kind == "lru":
            costs = least_recently_used(slotted, size)
        else:
            continue
        series = RunSeries(spec.name, 0, costs)
        reports[spec.name] = _aggregate(spec, None, [series], b, optimum, None)
    if leaders:
        estimators = [spec.estimator_spec(b) for spec in leaders]
        stepped, columns = _run_leaders(
            [(est, [eta]) for est, eta in zip(estimators, etas)],
            slotted, [size], plan, range(config.runs),
        )
        for spec, eta, bound, g in zip(leaders, etas, bounds, columns):
            series = _series(spec.name, stepped, 0, g, range(config.runs))
            reports[spec.name] = _aggregate(spec, eta, series, b, optimum, bound)

    return ExperimentReport(
        cache_size=size,
        horizon=horizon,
        trace_source=source,
        request_totals=slotted.totals(),
        opt_decision=opt_decision,
        opt_cost=optimum,
        policies=[reports[spec.name] for spec in config.policies],
    )


@dataclass
class SweepCell:
    """Final-slot band for one (variant, rate, cache size) sweep cell."""

    variant: str
    rate: float
    cache_size: int
    eta: float
    final_mean: float
    final_d1: float
    final_d9: float
    runs: list[RunSeries]


@dataclass
class SweepReport:
    trace_source: object
    n_files: int
    horizon: int
    cells: list[SweepCell]


def check_sweep_rates(rates) -> tuple[float, ...]:
    """A sweep's sampling rates as floats: at least one, distinct, in (0, 1]."""
    rates = tuple(float(r) for r in rates)
    if not rates:
        raise InvalidInputError("at least one sampling rate is required")
    for r in rates:
        check_rate(r, "sampling rates")
    if len(set(rates)) != len(rates):
        raise InvalidInputError("duplicate rates in sweep")
    return rates


def check_sweep_variants(variants) -> tuple[str, ...]:
    """A sweep's estimator variants: at least one, distinct, each fix or var."""
    variants = tuple(variants)
    if not variants:
        raise InvalidInputError("at least one variant is required")
    for v in variants:
        if v not in ("fix", "var"):
            raise InvalidInputError(f"unknown variant {v!r}, expected 'fix' or 'var'")
    if len(set(variants)) != len(variants):
        raise InvalidInputError("duplicate variants in sweep")
    return variants


def run_sweep(
    config: ExperimentConfig,
    rates,
    variants=("fix", "var"),
    cache_sizes=None,
) -> SweepReport:
    """Sweep sampling rates for both estimator variants on one trace.

    The perturbation scale is pinned per cache size to the exact-estimate
    value (the rate-independent choice), so cells differ only in what the
    estimator samples; this is the scale the fixed subsampler would pick
    for itself at any rate. Every cell at every cache size is stepped in
    one pass: each slot's noise and estimates are drawn once and serve all
    sizes, and cells with equal estimates (the full-rate cells of both
    variants, or fix rates that round to one subsample) step once and
    share their series. Cells are emitted cache size by cache size,
    variants in the order given, rates in the order given, with
    config.runs runs each.
    """
    rates, variants = check_sweep_rates(rates), check_sweep_variants(variants)
    sizes = tuple(cache_sizes) if cache_sizes else (config.cache_size,)
    if len(set(sizes)) != len(sizes):
        raise CacheSizeError("duplicate cache sizes in sweep")
    for size in sizes:  # each size, checked as its own experiment before any trace
        replace(config, cache_size=size)

    plan, source, slotted = _prepare(config, sizes)
    horizon, b = slotted.horizon, slotted.batch_size
    if slotted.n_files in sizes:  # diameter 0: nothing to decide
        raise CacheSizeError(
            f"cache_size {slotted.n_files} holds all {slotted.n_files} files, "
            "so the sweep has no perturbation scale to pin"
        )
    pinned = [PolicySpec("fpl", "fpl").resolved_eta(slotted, size) for size in sizes]
    grid = [(variant, rate) for variant in variants for rate in rates]
    leaders = [
        (PolicySpec("cell", f"nfpl-{variant}", rate=rate).estimator_spec(b), pinned)
        for variant, rate in grid
    ]
    stepped, columns = _run_leaders(leaders, slotted, sizes, plan, range(config.runs))

    cells = []
    for s, size in enumerate(sizes):
        for (variant, rate), g in zip(grid, columns):
            name = f"nfpl-{variant}-r{rate:g}-c{size}"
            series = _series(name, stepped, s, g, range(config.runs))
            mean, d1, d9 = _band(series, b)
            cells.append(
                SweepCell(
                    variant=variant,
                    rate=rate,
                    cache_size=size,
                    eta=pinned[s],
                    final_mean=float(mean[-1]),
                    final_d1=float(d1[-1]),
                    final_d9=float(d9[-1]),
                    runs=series,
                )
            )
    return SweepReport(
        trace_source=source, n_files=slotted.n_files, horizon=horizon, cells=cells
    )
