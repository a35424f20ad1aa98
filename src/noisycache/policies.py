"""Online caching policies.

Batch policies follow a strict decide -> pay -> observe protocol per
slot: decide() commits a cache decision before the slot's requests are
seen, the caller charges the true cost against that decision, and only
then does observe() reveal the batch (possibly through a sampling
estimator). LRU is the odd one out: it updates per event and its misses
are counted inside process_slot.

All policies work on 0-based file indices.
"""

from collections import OrderedDict
from dataclasses import dataclass
import math

import numpy as np

from .core import (
    CatalogConfig, InvalidInputError, RequestBatch, TieBreak, oracle_minimize
)
from .estimators import (
    BoundParams,
    EstimatorKind,
    EstimatorSpec,
    estimate,
    estimate_on_ids,
)
from .traces import SlottedTrace


def compute_eta(bounds: BoundParams, horizon: int) -> float:
    """Perturbation scale sqrt(cost_bound * l1_bound * horizon / diameter).

    This is the scale that balances the perturbation penalty against the
    switching cost in the regret analysis; regret under it is bounded by
    metrics.regret_bound. Requires a positive diameter (a cache that
    holds everything, or nothing, has no decision to make).
    """
    if horizon < 1:
        raise InvalidInputError(f"horizon must be >= 1, got {horizon}")
    if bounds.diameter <= 0:
        raise InvalidInputError("diameter must be positive to set a perturbation scale")
    return math.sqrt(bounds.cost_bound * bounds.l1_bound * horizon / bounds.diameter)


class FollowTheLeader:
    """Cache the top-capacity files by accumulated true counts.

    Equivalent to LFU over the whole history. With the default
    most-recent tie-break, files tied on counts are ranked by how
    recently they were requested, which requires the caller to pass the
    slot's event sequence to observe(); without events the tie-break
    degrades to lowest-index.
    """

    def __init__(self, catalog: CatalogConfig, tiebreak: TieBreak = TieBreak.MOST_RECENT):
        self._cache_size = catalog.cache_size
        self._tiebreak = tiebreak
        self._totals = np.zeros(catalog.n_files, dtype=np.float64)
        self._stamps = np.full(catalog.n_files, -1, dtype=np.int64)
        self._clock = 0

    @property
    def totals(self) -> np.ndarray:
        return self._totals

    def decide(self) -> np.ndarray:
        return oracle_minimize(
            self._totals, self._cache_size, self._tiebreak, recency=self._stamps
        )

    def observe(self, batch: RequestBatch, events=None) -> None:
        self._totals[batch.ids] += batch.counts
        if events is not None:
            ev = np.asarray(events, dtype=np.int64)
            # duplicate indices: numpy keeps the last write, i.e. the
            # latest occurrence in the slot, which is exactly the stamp
            # we want
            self._stamps[ev] = np.arange(self._clock, self._clock + ev.size)
            self._clock += ev.size


class PerturbedLeader:
    """Follow-the-perturbed-leader over (possibly estimated) counts.

    Each decide() draws a fresh uniform [0, eta] perturbation per file,
    adds it to the accumulated estimates, and takes the oracle decision.
    observe() feeds the batch through the configured estimator and
    accumulates the estimate. With the exact estimator this is classical
    FPL; with eta = 0 it degenerates to follow-the-leader with
    lowest-index ties.
    """

    def __init__(
        self,
        catalog: CatalogConfig,
        eta: float,
        estimator: EstimatorSpec,
        noise_rng: np.random.Generator,
        sample_rng: np.random.Generator | None = None,
    ):
        if eta < 0 or not math.isfinite(eta):
            raise InvalidInputError(f"eta must be finite and >= 0, got {eta}")
        self._n = catalog.n_files
        self._cache_size = catalog.cache_size
        self._eta = eta
        self._estimator = estimator
        self._noise_rng = noise_rng
        self._sample_rng = sample_rng
        self._totals = np.zeros(catalog.n_files, dtype=np.float64)

    @property
    def totals(self) -> np.ndarray:
        """Accumulated estimates seen so far (read-only by convention)."""
        return self._totals

    def decide(self) -> np.ndarray:
        noise = self._noise_rng.uniform(0.0, self._eta, self._n)
        return oracle_minimize(self._totals + noise, self._cache_size)

    def observe(self, batch: RequestBatch, events=None) -> None:
        self._totals += estimate(self._estimator, batch, self._sample_rng)


@dataclass
class LeaderRuns:
    """What step_perturbed_leaders returns for G leaders over R runs.

    costs is G x R x T (misses per slot), totals G x R x N (the final
    accumulated estimates), and decisions, when recorded, G x R x T x N
    int8 with 1 marking a file left out of the cache.
    """

    costs: np.ndarray
    totals: np.ndarray
    decisions: np.ndarray | None = None


def step_perturbed_leaders(
    catalog: CatalogConfig,
    slotted: SlottedTrace,
    etas,
    estimators,
    noise_rngs,
    sample_rngs,
    record_decisions: bool = False,
) -> LeaderRuns:
    """Step G perturbed leaders over R runs each, all rows slot by slot.

    Leader g at run r makes the same decisions, pays the same costs and
    accumulates the same estimates as PerturbedLeader(catalog, etas[g],
    estimators[g], noise_rngs[r], sample_rngs[g][r]) driven through the
    slots. Each slot draws one standard-uniform vector per run, shared by
    every leader at that run (common random numbers) and scaled by each
    leader's own eta; the top C of all G * R score rows are then
    taken at once, with ties at the boundary going to the lowest index.
    sample_rngs[g][r] is ignored for the exact estimator.
    """
    etas = np.asarray(etas, dtype=np.float64)
    groups, runs, horizon = etas.size, len(noise_rngs), catalog.horizon
    if groups < 1 or runs < 1:
        raise InvalidInputError("need at least one leader and one run")
    if len(estimators) != groups or len(sample_rngs) != groups:
        raise InvalidInputError("etas, estimators and sample_rngs must have equal length")
    if not np.all(np.isfinite(etas)) or np.any(etas < 0):
        raise InvalidInputError(f"etas must be finite and >= 0, got {etas.tolist()}")
    for spec, rngs in zip(estimators, sample_rngs):
        if len(rngs) != runs:
            raise InvalidInputError("sample_rngs needs one generator per run")
        if spec.batch_size != catalog.batch_size:
            raise InvalidInputError(
                f"estimator batch size {spec.batch_size} does not match "
                f"catalog batch size {catalog.batch_size}"
            )
        if spec.kind is not EstimatorKind.EXACT and any(rng is None for rng in rngs):
            raise InvalidInputError(f"{spec.kind.value} estimation requires an rng")
    n, c, b = catalog.n_files, catalog.cache_size, catalog.batch_size
    if (slotted.n_files, slotted.batch_size, slotted.horizon) != (n, b, horizon):
        raise InvalidInputError("slotted trace does not match the catalog")

    rows = groups * runs
    totals = np.zeros((groups, runs, n))
    score = np.empty_like(totals)
    noise = np.empty((runs, n))
    scale = etas[:, None, None]
    row_totals = totals.reshape(rows, n)
    row_score = score.reshape(rows, n)
    parted = np.empty((rows, n))
    cached = np.empty((rows, n), dtype=bool)
    costs = np.empty((groups, runs, horizon), dtype=np.int64)
    row_costs = costs.reshape(rows, horizon)
    decisions = row_decisions = None
    if record_decisions:
        decisions = np.empty((groups, runs, horizon, n), dtype=np.int8)
        row_decisions = decisions.reshape(rows, horizon, n)
    exact_rows = np.array(
        [
            g * runs + r
            for g, spec in enumerate(estimators)
            if spec.kind is EstimatorKind.EXACT
            for r in range(runs)
        ],
        dtype=np.intp,
    )
    sampled_rows = [
        (totals[g, r], spec, sample_rngs[g][r])
        for g, spec in enumerate(estimators)
        if spec.kind is not EstimatorKind.EXACT
        for r in range(runs)
    ]
    kth = n - c
    offsets = slotted.offsets

    for t in range(horizon):
        ids = slotted.ids[offsets[t] : offsets[t + 1]]
        counts = slotted.counts[offsets[t] : offsets[t + 1]]
        for r, rng in enumerate(noise_rngs):
            rng.random(out=noise[r])
        # eta * u is bit for bit the rng.uniform(0, eta) draw PerturbedLeader makes
        np.multiply(noise, scale, out=score)
        score += totals
        np.copyto(parted, row_score)
        parted.partition(kth, axis=1)
        threshold = parted[:, kth : kth + 1]
        # everything at or above each row's C-th largest score; rows with
        # boundary ties hold too many and drop their highest tied indices
        np.greater_equal(row_score, threshold, out=cached)
        excess = np.count_nonzero(cached, axis=1) - c
        for k in np.flatnonzero(excess):
            tied = np.flatnonzero(row_score[k] == threshold[k])
            cached[k, tied[tied.size - excess[k] :]] = False
        row_costs[:, t] = b - cached[:, ids] @ counts
        if row_decisions is not None:
            row_decisions[:, t] = ~cached
        if exact_rows.size:
            row_totals[np.ix_(exact_rows, ids)] += counts
        for row, spec, rng in sampled_rows:
            row[ids] += estimate_on_ids(spec, counts, rng)
    return LeaderRuns(costs=costs, totals=totals, decisions=decisions)


class LeastRecentlyUsed:
    """Classical per-event LRU.

    Starts warm with files 0..cache_size-1 resident (pass
    warm_start=False for a cold cache). process_slot replays one slot's
    events in order and returns the misses incurred; every miss admits
    the file and evicts the least recently used one.
    """

    def __init__(self, catalog: CatalogConfig, warm_start: bool = True):
        self._capacity = catalog.cache_size
        self._cache: OrderedDict[int, None] = OrderedDict()
        if warm_start:
            for f in range(catalog.cache_size):
                self._cache[f] = None

    def process_slot(self, events) -> int:
        cache = self._cache
        capacity = self._capacity
        misses = 0
        for f in np.asarray(events).tolist():
            if f in cache:
                cache.move_to_end(f)
            else:
                misses += 1
                cache[f] = None
                if len(cache) > capacity:
                    cache.popitem(last=False)
        return misses


def static_optimum(slotted: SlottedTrace, cache_size: int):
    """Best fixed decision in hindsight and its length-T per-slot misses.

    The int8 decision caches the cache_size files with the most requests
    overall, ties to the lowest index; the costs sum to the optimum.
    """
    missing = oracle_minimize(slotted.totals().astype(np.float64), cache_size)
    costs = np.add.reduceat(
        slotted.counts * missing[slotted.ids], slotted.offsets[:-1]
    )
    return missing, costs
