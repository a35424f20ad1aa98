"""Experiment engine: seeding, policy runs, aggregation, and sweeps.

One experiment = one trace, a set of policies, and M runs per stochastic
policy. Seeding follows a fixed derivation so that every run is
reproducible and, crucially, so that run r of ANY perturbed-leader
policy draws the same noise sequence: policies under the same run index
are compared with common random numbers. The perturbed-leader rows of an
experiment (and the cells of a sweep at one cache size) are therefore
stepped together, every run at once, by policies.step_perturbed_leaders.

Deterministic policies (lru, ftl, opt) run once; their single series
stands in for all runs, so their decile bands have zero width.
"""

from dataclasses import dataclass, replace
import math

import numpy as np

from .core import CatalogConfig, InvalidInputError, TieBreak, cost
from .estimators import EstimatorKind, EstimatorSpec, bound_params
from .metrics import (
    RegretReport,
    RunSeries,
    average_miss_ratio,
    decile_band,
    empirical_regret,
    regret_bound,
)
from .policies import (
    FollowTheLeader,
    LeastRecentlyUsed,
    compute_eta,
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
    nfpl variants (for nfpl-fix it means subsample = rate * batch_size
    unless subsample is given explicitly). eta_override replaces the
    computed perturbation scale for the perturbed-leader kinds.
    """

    name: str
    kind: str
    rate: float | None = None
    subsample: int | None = None
    tiebreak: TieBreak | None = None
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
            if self.rate is None and self.subsample is None:
                raise InvalidInputError("nfpl-fix requires rate or subsample")
        else:
            if self.rate is not None or self.subsample is not None:
                raise InvalidInputError(f"{self.kind} takes no sampling parameters")
        if self.rate is not None and not 0.0 < self.rate <= 1.0:
            raise InvalidInputError(f"rate must be in (0, 1], got {self.rate}")
        if self.subsample is not None and self.subsample < 1:
            raise InvalidInputError("subsample must be >= 1")
        if self.eta_override is not None:
            if self.kind not in _SAMPLED_KINDS:
                raise InvalidInputError(f"eta does not apply to {self.kind}")
            if not math.isfinite(self.eta_override) or self.eta_override < 0:
                raise InvalidInputError(
                    f"eta must be finite and >= 0, got {self.eta_override}"
                )
        if self.tiebreak is not None and self.kind != "ftl":
            raise InvalidInputError(f"tiebreak applies only to ftl, not {self.kind}")

    @property
    def stochastic(self) -> bool:
        return self.kind in _SAMPLED_KINDS

    def resolved_tiebreak(self) -> TieBreak:
        if self.tiebreak is not None:
            return self.tiebreak
        return TieBreak.MOST_RECENT if self.kind == "ftl" else TieBreak.LOWEST_INDEX

    def resolved_eta(self, catalog: CatalogConfig) -> float:
        """Perturbation scale: the override, else compute_eta's value."""
        if self.eta_override is not None:
            return self.eta_override
        estimator = self.estimator_spec(catalog.batch_size)
        return compute_eta(bound_params(estimator, catalog), catalog.horizon)

    def estimator_spec(self, batch_size: int) -> EstimatorSpec | None:
        if self.kind == "fpl":
            return EstimatorSpec.exact(batch_size)
        if self.kind == "nfpl-fix":
            if self.subsample is not None:
                b = self.subsample
            else:
                b = max(1, min(batch_size, round(self.rate * batch_size)))
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
        if self.cache_size < 1:
            raise InvalidInputError("cache_size must be >= 1")
        if self.batch_size < 1:
            raise InvalidInputError("batch_size must be >= 1")
        if self.runs < 1:
            raise InvalidInputError("runs must be >= 1")
        if self.base_seed < 0:
            raise InvalidInputError(f"base_seed must be >= 0, got {self.base_seed}")
        names = [p.name for p in self.policies]
        if len(set(names)) != len(names):
            raise InvalidInputError("policy names must be unique")


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

    catalog: CatalogConfig
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


def run_policy(
    spec: PolicySpec,
    catalog: CatalogConfig,
    slotted: SlottedTrace,
    plan: SeedPlan,
    run: int = 0,
    eta: float | None = None,
    estimator: EstimatorSpec | None = None,
    record_decisions: bool = False,
) -> RunSeries:
    """Execute one run of one policy over a slotted trace.

    eta and estimator, when None, are derived from the policy spec. A
    perturbed-leader run is the one-row case of the stepper
    run_experiment and run_sweep use.
    """
    horizon = catalog.horizon
    shape = (catalog.n_files, catalog.batch_size, horizon)
    if (slotted.n_files, slotted.batch_size, slotted.horizon) != shape:
        raise InvalidInputError("slotted trace does not match the catalog")
    if spec.stochastic:
        if estimator is None:
            estimator = spec.estimator_spec(catalog.batch_size)
        if eta is None:
            eta = spec.resolved_eta(catalog)
        [[series]] = _run_leaders(
            [(spec, eta, estimator)], catalog, slotted, plan, [run], record_decisions
        )
        return series

    costs = np.zeros(horizon, dtype=np.int64)
    decisions = (
        np.zeros((horizon, catalog.n_files), dtype=np.int8)
        if record_decisions
        else None
    )
    slot_events = slotted.events.reshape(horizon, catalog.batch_size)
    if spec.kind == "lru":
        policy = LeastRecentlyUsed(catalog)
        for t, window in enumerate(slot_events):
            costs[t] = policy.process_slot(window)
    elif spec.kind == "opt":
        best, costs = static_optimum(slotted, catalog.cache_size)
        if record_decisions:
            decisions[:] = best
    else:
        policy = FollowTheLeader(catalog, spec.resolved_tiebreak())
        for t, (batch, window) in enumerate(zip(slotted, slot_events)):
            x = policy.decide()
            costs[t] = cost(batch, x)
            policy.observe(batch, window)
            if record_decisions:
                decisions[t] = x
    return RunSeries(policy=spec.name, run=run, costs=costs, decisions=decisions)


def _run_leaders(leaders, catalog, slotted, plan, runs, record_decisions=False):
    """Step (spec, eta, estimator) perturbed leaders over `runs` together.

    Run r of every leader reads the run-r noise stream, and each leader
    gets its own run-r sampling stream. Returns one list of RunSeries
    per leader, in run order.
    """
    specs, etas, estimators = zip(*leaders)
    stepped = step_perturbed_leaders(
        catalog,
        slotted,
        etas,
        estimators,
        noise_rngs=[plan.stream(run, SeedPlan.NOISE) for run in runs],
        sample_rngs=[
            [
                None if est.kind is EstimatorKind.EXACT
                else plan.stream(run, SeedPlan.SAMPLING)
                for run in runs
            ]
            for est in estimators
        ],
        record_decisions=record_decisions,
    )
    return [
        [
            RunSeries(
                policy=spec.name,
                run=run,
                costs=stepped.costs[g, i],
                estimate_totals=stepped.totals[g, i],
                decisions=None if stepped.decisions is None else stepped.decisions[g, i],
            )
            for i, run in enumerate(runs)
        ]
        for g, spec in enumerate(specs)
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


def run_experiment(
    config: ExperimentConfig, record_decisions: bool = False
) -> ExperimentReport:
    """Run every configured policy on one shared trace and aggregate.

    The perturbed-leader policies are stepped together, all runs at once.
    """
    if not config.policies:
        raise InvalidInputError("at least one policy is required")
    plan = SeedPlan(config.base_seed)
    source, trace = _resolve_trace(config.trace, plan)
    slotted = batch_trace(trace, config.batch_size)
    del trace  # free the raw events: the engine reads only the slotted trace
    horizon = slotted.horizon
    catalog = CatalogConfig(
        slotted.n_files, config.cache_size, config.batch_size, horizon
    )
    opt_decision, opt_costs = static_optimum(slotted, config.cache_size)
    optimum = int(opt_costs.sum())

    reports = {}
    leaders = []
    for spec in config.policies:
        if spec.stochastic:
            est = spec.estimator_spec(config.batch_size)
            leaders.append((spec, spec.resolved_eta(catalog), est))
            continue
        if spec.kind == "opt":
            series = RunSeries(spec.name, 0, opt_costs)
            if record_decisions:
                series.decisions = np.tile(opt_decision, (horizon, 1))
        else:
            series = run_policy(
                spec, catalog, slotted, plan, record_decisions=record_decisions
            )
        reports[spec.name] = _aggregate(
            spec, None, [series], config.batch_size, optimum, None
        )
    if leaders:
        stepped = _run_leaders(
            leaders, catalog, slotted, plan, range(config.runs), record_decisions
        )
        for (spec, eta, est), series in zip(leaders, stepped):
            bound = regret_bound(bound_params(est, catalog), horizon)
            reports[spec.name] = _aggregate(
                spec, eta, series, config.batch_size, optimum, bound
            )

    return ExperimentReport(
        catalog=catalog,
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
    for itself at any rate. All cells of one cache size are stepped
    together. Cells are emitted cache size by cache size, variants in the
    order given, rates in the order given, with config.runs runs each.
    """
    rates = tuple(float(r) for r in rates)
    if not rates:
        raise InvalidInputError("at least one sampling rate is required")
    for r in rates:
        if not 0.0 < r <= 1.0:
            raise InvalidInputError(f"sampling rates must be in (0, 1], got {r}")
    if len(set(rates)) != len(rates):
        raise InvalidInputError("duplicate rates in sweep")
    variants = tuple(variants)
    if not variants:
        raise InvalidInputError("at least one variant is required")
    for v in variants:
        if v not in ("fix", "var"):
            raise InvalidInputError(f"unknown variant {v!r}, expected 'fix' or 'var'")
    if len(set(variants)) != len(variants):
        raise InvalidInputError("duplicate variants in sweep")
    sizes = tuple(cache_sizes) if cache_sizes else (config.cache_size,)
    if len(set(sizes)) != len(sizes):
        raise InvalidInputError("duplicate cache sizes in sweep")

    plan = SeedPlan(config.base_seed)
    source, trace = _resolve_trace(config.trace, plan)
    slotted = batch_trace(trace, config.batch_size)
    del trace  # free the raw events: the engine reads only the slotted trace
    horizon = slotted.horizon
    catalogs = [
        CatalogConfig(slotted.n_files, size, config.batch_size, horizon)
        for size in sizes
    ]

    cells = []
    for catalog in catalogs:
        size = catalog.cache_size
        pinned_eta = PolicySpec("fpl", "fpl").resolved_eta(catalog)
        specs = [
            PolicySpec(
                name=f"nfpl-{variant}-r{rate:g}-c{size}",
                kind=f"nfpl-{variant}",
                rate=rate,
                eta_override=pinned_eta,
            )
            for variant in variants
            for rate in rates
        ]
        leaders = [
            (spec, pinned_eta, spec.estimator_spec(config.batch_size)) for spec in specs
        ]
        stepped = _run_leaders(leaders, catalog, slotted, plan, range(config.runs))
        for spec, series in zip(specs, stepped):
            mean, d1, d9 = _band(series, config.batch_size)
            cells.append(
                SweepCell(
                    variant=spec.kind.removeprefix("nfpl-"),
                    rate=spec.rate,
                    cache_size=size,
                    eta=pinned_eta,
                    final_mean=float(mean[-1]),
                    final_d1=float(d1[-1]),
                    final_d9=float(d9[-1]),
                    runs=list(series),
                )
            )
    return SweepReport(
        trace_source=source, n_files=slotted.n_files, horizon=horizon, cells=cells
    )
