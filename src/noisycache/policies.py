"""Online caching policies.

Every policy kind is a whole-trace function of a SlottedTrace and a
cache size that returns the per-slot misses: static_optimum,
follow_the_leader, least_recently_used and step_perturbed_leaders. Each
slot a policy commits its cache before the slot's requests are counted
and learns them only afterwards; LRU instead updates per event. The
static optimum and both leaders, ftl and fpl, pick their caches with
core.top_c, and both leaders show each slot's bool cache mask to an
optional observe.

All policies work on 0-based file indices.
"""

from collections import OrderedDict
from dataclasses import dataclass
import math

import numpy as np

from .core import InvalidInputError, check_cache_size, top_c
from .estimators import BoundParams, EstimatorKind, estimate_block
from .traces import SlottedTrace

BLOCK_EVENTS = 8192  # a sampling block holds at most max(N, this) events


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


def check_eta(eta, what: str = "eta") -> None:
    """Reject a perturbation scale, or array of them, unless finite and >= 0."""
    values = np.asarray(eta, dtype=np.float64)
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        got = np.asarray(eta).tolist()
        raise InvalidInputError(f"{what} must be finite and >= 0, got {got}")


@dataclass
class LeaderRuns:
    """What step_perturbed_leaders returns for G leaders over R runs at S sizes.

    costs is S x G x R x T (misses per slot at each cache size) and
    totals G x R x N (the final accumulated estimates, which no cache
    size changes).
    """

    costs: np.ndarray
    totals: np.ndarray


def step_perturbed_leaders(
    slotted: SlottedTrace,
    cache_sizes,
    etas,
    estimators,
    noise_rngs,
    sample_rngs,
    observe=None,
) -> LeaderRuns:
    """Step G perturbed leaders over R runs at S cache sizes, slot by slot.

    Leader g at run r and size s is follow-the-perturbed-leader: each slot
    it caches the cache_sizes[s] files with the largest
    totals + etas[s][g] * u, ties at the boundary going to the lowest
    index, and pays the slot's misses; only then does it add
    estimators[g]'s estimate of the slot's counts, drawn from
    sample_rngs[g][r], to its totals. u is a fresh standard-uniform vector
    from noise_rngs[r], shared by every leader and size at run r (common
    random numbers). Since the totals never depend on the cache size,
    each slot draws u and the estimates once, and every size scores,
    ranks and charges all G * R rows from them in turn. Each row draws
    its estimates a block of slots at a time (estimators.estimate_block),
    and full-rate rows draw none, so the sampling generators must be
    distinct objects, none of them a noise generator. Blocks hold at most
    max(N, BLOCK_EVENTS) events.
    sample_rngs[g][r] is ignored for the exact estimator.

    observe, if given, is called as observe(t, s, cached) once per slot t
    and size index s: cached is the G x R x N bool mask of each row's
    cache, a view of the stepper's buffer valid only during the call.
    """
    sizes = list(cache_sizes)
    etas = np.asarray(etas, dtype=np.float64)
    n, b, horizon = slotted.n_files, slotted.batch_size, slotted.horizon
    for c in sizes:
        check_cache_size(c, n)
    if etas.ndim != 2 or etas.shape[0] != len(sizes):
        raise InvalidInputError("etas must hold one row of leader etas per cache size")
    groups, runs = etas.shape[1], len(noise_rngs)
    if not sizes or groups < 1 or runs < 1:
        raise InvalidInputError("need at least one cache size, leader and run")
    if len(estimators) != groups or len(sample_rngs) != groups:
        raise InvalidInputError("estimators and sample_rngs need one entry per leader")
    check_eta(etas, "etas")
    for spec, rngs in zip(estimators, sample_rngs):
        if len(rngs) != runs:
            raise InvalidInputError("sample_rngs needs one generator per run")
        if spec.batch_size != b:
            raise InvalidInputError(
                f"estimator batch size {spec.batch_size} does not match "
                f"the trace's batch size {b}"
            )
        if spec.kind is not EstimatorKind.EXACT and any(rng is None for rng in rngs):
            raise InvalidInputError(f"{spec.kind.value} estimation requires an rng")
    samplers = [(s, rng) for s, rngs in zip(estimators, sample_rngs) for rng in rngs]
    # a generator that two rows draw from would see its draws reordered
    drawn = [id(rng) for spec, rng in samplers if spec.kind is not EstimatorKind.EXACT]
    if len(set(drawn)) < len(drawn) or not set(drawn).isdisjoint(map(id, noise_rngs)):
        raise InvalidInputError("each sampling row needs its own generator")

    rows = groups * runs
    totals = np.zeros((groups, runs, n))
    score = np.empty_like(totals)
    noise = np.empty((runs, n))
    scales = etas[:, :, None, None]
    row_totals = totals.reshape(rows, n)
    row_score = score.reshape(rows, n)
    cached = np.empty((rows, n), dtype=bool)
    costs = np.empty((len(sizes), groups, runs, horizon), dtype=np.int64)
    row_costs = costs.reshape(len(sizes), rows, horizon)
    # span slots hold at most max(n, BLOCK_EVENTS) events, which bounds each
    # row's keys; the buffer holds the widest block's CSR entries
    offsets, span = slotted.offsets, max(1, max(n, BLOCK_EVENTS) // b)
    cuts = offsets[np.append(np.arange(0, horizon, span), horizon)]
    block = np.empty((rows, np.diff(cuts).max(initial=0)))
    sampled = any(not spec.full_rate for spec, _ in samplers)

    for t in range(horizon):
        if t % span == 0:
            base, stop = offsets[t], min(t + span, horizon)
            part = slotted.counts[base : offsets[stop]]
            edges = offsets[t : stop + 1] - base
            owner = np.repeat(np.arange(part.size), part) if sampled else None
            for k, (spec, rng) in enumerate(samplers):
                estimate_block(spec, part, edges, owner, rng, block[k])
        ids = slotted.ids[offsets[t] : offsets[t + 1]]
        counts = slotted.counts[offsets[t] : offsets[t + 1]]
        for r, rng in enumerate(noise_rngs):
            rng.random(out=noise[r])
        for s, c in enumerate(sizes):
            # eta * random() is bit for bit uniform(0, eta)
            np.multiply(noise, scales[s], out=score)
            score += totals
            top_c(row_score, c, out=cached)
            row_costs[s, :, t] = b - cached[:, ids] @ counts
            if observe is not None:
                observe(t, s, cached.reshape(groups, runs, n))
        row_totals[:, ids] += block[:, offsets[t] - base : offsets[t + 1] - base]
    return LeaderRuns(costs=costs, totals=totals)


def follow_the_leader(
    slotted: SlottedTrace, cache_size: int, observe=None
) -> np.ndarray:
    """Cache the top cache_size files by accumulated true counts, per slot.

    Equivalent to LFU over the whole history. Files tied on counts are
    ranked by how recently they were requested, then by lowest index.
    Returns the length-T per-slot misses. observe, if given, is called as
    observe(t, cached) once per slot with the slot's length-N bool cache
    mask, valid only during the call.
    """
    check_cache_size(cache_size, slotted.n_files)
    n, b, horizon = slotted.n_files, slotted.batch_size, slotted.horizon
    # one exact int64 key per file, totals * scale + stamp: stamp is the
    # 1-based position of the file's latest request (0 if none), and scale
    # exceeds every stamp, so the key ranks by count, then by recency.
    # It stays below 2**63 for any trace under about 3e9 events.
    scale = horizon * b + 1
    totals = np.zeros(n, dtype=np.int64)
    stamps = np.zeros(n, dtype=np.int64)
    costs = np.empty(horizon, dtype=np.int64)
    offsets = slotted.offsets
    for t in range(horizon):
        ids = slotted.ids[offsets[t] : offsets[t + 1]]
        counts = slotted.counts[offsets[t] : offsets[t + 1]]
        cached = top_c(totals * scale + stamps, cache_size)
        costs[t] = b - cached[ids] @ counts
        if observe is not None:
            observe(t, cached)
        totals[ids] += counts
        # duplicate indices keep the last write: the latest request in the slot
        stamps[slotted.events[t * b : (t + 1) * b]] = np.arange(t * b, (t + 1) * b) + 1
    return costs


def least_recently_used(slotted: SlottedTrace, cache_size: int) -> np.ndarray:
    """Per-event LRU, warm-started with files 0..cache_size-1 resident.

    Replays every request in order; each miss admits the file and evicts
    the least recently used one. Returns the length-T per-slot misses.
    """
    check_cache_size(cache_size, slotted.n_files)
    b = slotted.batch_size
    cache = OrderedDict.fromkeys(range(cache_size))
    move_to_end, popitem = cache.move_to_end, cache.popitem
    costs = np.empty(slotted.horizon, dtype=np.int64)
    for t in range(slotted.horizon):
        misses = 0
        # one slot at a time: a list of the whole trace would raise peak memory
        for f in slotted.events[t * b : (t + 1) * b].tolist():
            if f in cache:
                move_to_end(f)
            else:  # the warm start keeps the cache full, so every miss evicts
                misses += 1
                cache[f] = None
                popitem(last=False)
        costs[t] = misses
    return costs


def static_optimum(slotted: SlottedTrace, cache_size: int) -> np.ndarray:
    """Length-T per-slot misses of the best fixed cache in hindsight.

    That cache holds the cache_size files with the most requests overall,
    ties to the lowest index; its misses sum to the optimum.
    """
    check_cache_size(cache_size, slotted.n_files)
    cached = top_c(slotted.totals(), cache_size)
    return np.add.reduceat(slotted.counts * ~cached[slotted.ids], slotted.offsets[:-1])
