"""Experiment engine: seeding, policy runs, aggregation, and sweeps.

One experiment = one trace, a set of policies, and M runs per stochastic
policy at each of the config's cache sizes, one ExperimentReport per
size. run_experiment (each leader at its own eta) and run_sweep (a
generated grid of rate cells at fpl's eta) differ only in the eta rule
they pass one path, and each leader's regret bound is the one at its eta.
The engine builds one policies.SeedPlan from the config's base seed, and
the stepper derives every run's streams from it: run r of ANY
perturbed-leader policy draws the same noise sequence, so policies under
the same run index are compared with common random numbers. The
perturbed-leader rows of every size are therefore stepped in one call
to policies.step_perturbed_leaders, every run at once. A leader's
totals never depend on the cache size, so each slot's noise and
estimates are drawn once for all sizes, and leaders with equal etas and
equal estimates (full rate, or the same fixed subsample) step once and
share one column of the stepper's result. Every sampled leader at run r
reads the same sampling keys, so nfpl-var and nfpl-fix at one run
sample from one draw.

Deterministic policies (lru, ftl, opt) run once per size, each by a
direct call to its policy function; their single series stands in for
all runs, so their decile bands have zero width.

A PolicyReport keeps its runs' costs and totals as arrays, not their
caches: to see each slot's cache, call follow_the_leader or
step_perturbed_leaders with an observer.

Each fact has one owner: the slotted trace holds N, B and T, the config
its cache sizes, which it checks, and each report's cache size is C. The
sizes are checked again against the trace as soon as it is built, before
any eta is resolved, since a remapped trace file reveals N only then.
"""

from dataclasses import dataclass, replace
import math

import numpy as np

from .core import CacheSizeError, InvalidInputError, check_cache_size
from .estimators import EstimatorSpec, bound_params, check_rate
from .metrics import average_miss_ratio, compute_eta, decile_band, regret_bound
from .policies import (
    SeedPlan,
    check_eta,
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
    _batch_in_place,
    batch_trace,
    generate_round_robin,
    generate_zipf,
    read_trace_file,
)

POLICY_KINDS = ("lru", "ftl", "fpl", "nfpl-fix", "nfpl-var", "opt")
SWEEP_VARIANTS = ("fix", "var")  # a sweep cell's kind is nfpl-{variant}
_SAMPLED_KINDS = ("fpl", "nfpl-fix", "nfpl-var")


class PolicyError(InvalidInputError):
    """Raised when a policy's own rate or eta overflows its eta or bound.

    policy is the policy's name, so a caller can say where it was set.
    """

    def __init__(self, policy: str, message: str):
        super().__init__(message)
        self.policy = policy


@dataclass(frozen=True)
class PolicySpec:
    """Declarative description of one policy row in an experiment.

    kind is one of POLICY_KINDS. rate, the sampling rate in (0, 1], is
    required by the nfpl variants and taken by no other kind: nfpl-var
    keeps each event with probability rate, and nfpl-fix keeps
    b = max(1, min(B, round(rate * B))) of each batch's B events, so
    rate b / B asks for any b in [1, B]. eta_override replaces the
    computed perturbation scale for the perturbed-leader kinds.
    """

    name: str
    kind: str
    rate: float | None = None
    eta_override: float | None = None

    def __post_init__(self):
        if not self.name:
            raise InvalidInputError("policy name must be non-empty")
        if self.kind not in POLICY_KINDS:
            raise InvalidInputError(
                f"unknown policy kind {self.kind!r}, expected one of {POLICY_KINDS}"
            )
        if self.kind in ("nfpl-fix", "nfpl-var"):
            if self.rate is None:
                raise InvalidInputError(f"{self.kind} requires a sampling rate")
            check_rate(self.rate)
        elif self.rate is not None:
            raise InvalidInputError(f"{self.kind} takes no sampling rate")
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
        return self._finite(eta, "perturbation scale; raise its rate or set its eta")

    def resolved_bound(self, slotted: SlottedTrace, cache_size: int, eta: float):
        """metrics.regret_bound for this policy's estimator at eta; None at eta 0."""
        if eta == 0:
            return None
        estimator = self.estimator_spec(slotted.batch_size)
        bounds = bound_params(estimator, slotted.n_files, cache_size)
        bound = regret_bound(bounds, slotted.horizon, eta)
        mass = bounds.cost_bound * bounds.l1_bound * slotted.horizon
        # what overflowed: eta * D, else R * A * T / eta, else R * A * T
        if not math.isfinite(eta * bounds.diameter):
            fix = "lower its eta"
        else:
            fix = "raise its eta" if math.isfinite(mass) else "raise its rate"
        return self._finite(bound, f"regret bound; {fix}")

    def _finite(self, value: float, what: str) -> float:
        """value, or a PolicyError naming this policy if it overflowed a float."""
        if not math.isfinite(value):
            rate = "" if self.rate is None else f", rate {self.rate}"
            raise PolicyError(
                self.name,
                f"policy {self.name!r} ({self.kind}{rate}) has no finite {what}",
            )
        return value

    def estimator_spec(self, batch_size: int) -> EstimatorSpec | None:
        if self.kind == "fpl":
            return EstimatorSpec.exact(batch_size)
        if self.kind == "nfpl-fix":
            b = max(1, min(batch_size, round(self.rate * batch_size)))
            return EstimatorSpec.fixed_subsample(b, batch_size)
        if self.kind == "nfpl-var":
            return EstimatorSpec.bernoulli(self.rate, batch_size)
        return None


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs besides the outputs' location."""

    trace: ZipfConfig | RoundRobinConfig | TraceFileConfig | Trace
    cache_sizes: tuple[int, ...]
    batch_size: int
    policies: tuple[PolicySpec, ...] = ()
    runs: int = 1
    base_seed: int = 0

    def __post_init__(self):
        n_files = getattr(self.trace, "n_files", None)  # None: a file yet to be read
        sizes = self.cache_sizes
        if not sizes:
            raise CacheSizeError("at least one cache size is required")
        repeated = [size for size in dict.fromkeys(sizes) if sizes.count(size) > 1]
        if repeated:
            raise CacheSizeError(f"duplicate cache sizes: {', '.join(map(str, repeated))}")
        for size in sizes:
            if n_files is not None:
                check_cache_size(size, n_files)
            elif size < 1:  # a trace file yet to be read reveals N only then
                raise CacheSizeError(f"cache_size must be >= 1, got {size}")
        if self.batch_size < 1:
            raise InvalidInputError("batch_size must be >= 1")
        if self.runs < 1:
            raise InvalidInputError("runs must be >= 1")
        if self.base_seed < 0:
            raise InvalidInputError(f"base_seed must be >= 0, got {self.base_seed}")
        names = [p.name for p in self.policies]
        repeated = [name for name in dict.fromkeys(names) if names.count(name) > 1]
        if repeated:
            raise InvalidInputError(
                f"duplicate policy names: {', '.join(map(repr, repeated))}"
            )


@dataclass
class PolicyReport:
    """One policy's runs and their aggregates at one cache size.

    costs is R x T misses per slot (one row, standing in for every run,
    for lru, ftl and opt), totals R x N final estimates or None. A
    perturbed leader's are views of the stepper's result, shared with its
    twins. regret is cum_cost - opt_cost; bound is metrics.regret_bound at
    eta, None for lru, ftl and opt and at eta 0.
    """

    spec: PolicySpec
    eta: float | None
    mean: np.ndarray
    d1: np.ndarray
    d9: np.ndarray
    cum_cost: float
    regret: float
    bound: float | None
    costs: np.ndarray
    totals: np.ndarray | None

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
    """One experiment's full results at one cache size."""

    cache_size: int
    horizon: int
    trace_source: object
    request_totals: np.ndarray
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


def _run_leaders(leaders, slotted, sizes, plan, runs):
    """Step perturbed leaders over `runs` at every cache size in one call.

    leaders holds one (estimator, eta at each size) pair per leader; the
    stepper derives every run's noise and sampling streams from plan.
    Leaders with equal etas whose estimates are equal, because both are
    full rate or both keep the same fixed subsample, are the same leader
    and step once. Returns the stepper's LeaderRuns and each leader's
    column in it.
    """
    keys = [
        (EstimatorSpec.exact(est.batch_size) if est.full_rate else est, tuple(etas))
        for est, etas in leaders
    ]
    distinct = list(dict.fromkeys(keys))
    stepped = step_perturbed_leaders(
        slotted, sizes, np.array([etas for _, etas in distinct]).T,
        [est for est, _ in distinct], runs, plan,
    )
    return stepped, [distinct.index(key) for key in keys]


def _aggregate(spec, eta, costs, totals, batch_size, optimum, bound):
    mean, d1, d9 = decile_band(average_miss_ratio(costs, batch_size))
    # int64 run sums are exact as floats below 2**53, in any summation order
    cum = float(costs.sum(axis=1).mean())
    return PolicyReport(spec, eta, mean, d1, d9, cum, cum - optimum, bound, costs, totals)


def _pinned_eta(spec, slotted, size):
    """fpl's eta at size, the one every sweep cell runs at."""
    if size == slotted.n_files:  # diameter 0: nothing to decide
        raise CacheSizeError(
            f"cache_size {size} holds all {size} files, "
            "so the sweep has no perturbation scale to pin"
        )
    return PolicySpec("fpl", "fpl").resolved_eta(slotted, size)


def _run(config: ExperimentConfig, eta_of) -> list[ExperimentReport]:
    """Run config's policies on its one trace at each of its cache sizes.

    eta_of(spec, slotted, size) is a perturbed leader's eta at one size.
    Every eta, then every regret bound, is resolved before any policy
    runs, and every leader at every size is stepped in one call. A trace
    the engine builds from a config is slotted in place, narrowed to int32
    in half its own buffer, so the run holds one copy of its events; a
    caller's Trace is copied instead.
    """
    plan = SeedPlan(config.base_seed)
    source, trace = _resolve_trace(config.trace, plan)
    if source is None:  # a caller's Trace is read, never written
        slotted = batch_trace(trace, config.batch_size)
    else:  # the engine's own trace: its one copy of the events is slotted in place
        slotted = _batch_in_place(trace, config.batch_size)
    del trace  # the engine reads only the slotted trace
    sizes = config.cache_sizes
    for size in sizes:  # a remapped trace file reveals its catalog only now
        check_cache_size(size, slotted.n_files)
    b = slotted.batch_size
    leaders = [spec for spec in config.policies if spec.stochastic]
    etas = [[eta_of(spec, slotted, size) for spec in leaders] for size in sizes]
    bounds = [[spec.resolved_bound(slotted, size, eta) for spec, eta in zip(leaders, row)]
              for size, row in zip(sizes, etas)]
    stepped, columns = None, []
    if leaders:
        estimators = [spec.estimator_spec(b) for spec in leaders]
        stepped, columns = _run_leaders(
            zip(estimators, zip(*etas)), slotted, sizes, plan, config.runs
        )

    reports = []
    for s, size in enumerate(sizes):
        opt_costs = static_optimum(slotted, size)
        optimum = int(opt_costs.sum())
        scale = iter(zip(etas[s], bounds[s], columns))
        policies = []
        for spec in config.policies:
            eta = bound = totals = None
            if spec.stochastic:
                eta, bound, g = next(scale)
                costs, totals = stepped.costs[s, g], stepped.totals[g]
            elif spec.kind == "opt":
                costs = opt_costs[None]
            else:
                policy = follow_the_leader if spec.kind == "ftl" else least_recently_used
                costs = policy(slotted, size)[None]
            policies.append(_aggregate(spec, eta, costs, totals, b, optimum, bound))
        reports.append(
            ExperimentReport(
                cache_size=size,
                horizon=slotted.horizon,
                trace_source=source,
                request_totals=slotted.totals(),
                opt_cost=optimum,
                policies=policies,
            )
        )
    return reports


def run_experiment(config: ExperimentConfig) -> list[ExperimentReport]:
    """Run every configured policy on one shared trace and aggregate.

    Returns a report per cache size. Each perturbed leader runs at its
    own eta, the override or compute_eta's value, and carries its regret
    bound at that eta. The leaders are stepped together, all runs at once.
    """
    if not config.policies:
        raise InvalidInputError("at least one policy is required")
    return _run(config, PolicySpec.resolved_eta)


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
        if v not in SWEEP_VARIANTS:
            expected = " or ".join(map(repr, SWEEP_VARIANTS))
            raise InvalidInputError(f"unknown variant {v!r}, expected {expected}")
    if len(set(variants)) != len(variants):
        raise InvalidInputError("duplicate variants in sweep")
    return variants


def run_sweep(
    config: ExperimentConfig, rates, variants=SWEEP_VARIANTS
) -> list[ExperimentReport]:
    """Sweep sampling rates for both estimator variants on one trace.

    The sweep's cells are the policies of one experiment: nfpl-{variant}
    at each rate, variants in the order given and rates within each;
    config.policies is not used. Returns one ExperimentReport per cache
    size, in the order of config.cache_sizes. Each cell's eta is pinned
    per size to fpl's, the rate-independent scale the fixed subsampler
    would pick for itself at any rate, so cells differ only in what the
    estimator samples; each cell carries its regret bound at that eta.
    """
    rates, variants = check_sweep_rates(rates), check_sweep_variants(variants)
    cells = tuple(
        PolicySpec(f"nfpl-{variant}-{rate!r}", f"nfpl-{variant}", rate=rate)
        for variant in variants
        for rate in rates
    )
    return _run(replace(config, policies=cells), _pinned_eta)
