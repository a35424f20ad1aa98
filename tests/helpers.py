"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way
(exhaustive enumeration, event-level counting) so the package's fast
paths are checked against code that shares none of their logic.
"""

import itertools

import numpy as np


def brute_force_best_cost(score, cache_size: int) -> float:
    """Minimum missing-score over all cached subsets, by full enumeration."""
    score = np.asarray(score, dtype=np.float64)
    n = score.size
    best = np.inf
    for cached in itertools.combinations(range(n), cache_size):
        mask = np.ones(n, dtype=bool)
        mask[list(cached)] = False
        best = min(best, float(score[mask].sum()))
    return best


def brute_force_static_minimum(events_1based, n_files: int, cache_size: int) -> int:
    """Cheapest static cache over raw events, counting misses per subset."""
    totals = np.bincount(np.asarray(events_1based) - 1, minlength=n_files)
    best = None
    for cached in itertools.combinations(range(n_files), cache_size):
        mask = np.ones(n_files, dtype=bool)
        mask[list(cached)] = False
        missed = int(totals[mask].sum())
        if best is None or missed < best:
            best = missed
    return best


def reference_slots(events_1based, n_files: int, batch_size: int):
    """Slot a trace the slow way: one np.unique per batch-size window.

    A trailing partial window is dropped. Returns the CSR arrays (ids,
    counts, offsets) that the slots concatenate to, plus the dense
    request totals, counted event by event.
    """
    events = np.asarray(events_1based) - 1
    horizon = events.size // batch_size
    ids, counts, offsets = [], [], [0]
    totals = np.zeros(n_files, dtype=np.int64)
    for t in range(horizon):
        window = events[t * batch_size : (t + 1) * batch_size]
        slot_ids, slot_counts = np.unique(window, return_counts=True)
        ids.extend(slot_ids.tolist())
        counts.extend(slot_counts.tolist())
        offsets.append(len(ids))
        for f in window.tolist():
            totals[f] += 1
    return np.array(ids), np.array(counts), np.array(offsets), totals


def feasible(decision, n_files: int, cache_size: int) -> bool:
    x = np.asarray(decision)
    return (
        x.shape == (n_files,)
        and bool(np.all((x == 0) | (x == 1)))
        and int(x.sum()) == n_files - cache_size
    )


def reference_leader_run(catalog, slotted, eta, estimator, noise_rng, sample_rng):
    """One perturbed-leader run stepped the slow way, through PerturbedLeader.

    Returns (per-slot costs, final accumulated estimates, T x N decisions).
    """
    from noisycache import PerturbedLeader, cost

    policy = PerturbedLeader(catalog, eta, estimator, noise_rng, sample_rng)
    costs, decisions = [], []
    for batch in slotted:
        x = policy.decide()
        costs.append(cost(batch, x))
        decisions.append(x)
        policy.observe(batch)
    return np.array(costs, dtype=np.int64), policy.totals, np.array(decisions)


def reference_ftl_costs(events, n_files: int, batch_size: int, cache_size: int):
    """Follow-the-leader stepped the slow way, over 0-based events.

    Each slot ranks the files with sorted() by (most requests, latest
    request, lowest index), caches the top cache_size and counts the
    slot's misses, then updates counts and last-seen event by event.
    Returns (per-slot costs, T x N decisions with 1 = not cached).
    """
    events = [int(f) for f in events]
    counts = [0] * n_files
    last_seen = [-1] * n_files
    costs, decisions = [], []
    for t in range(len(events) // batch_size):
        ranked = sorted(range(n_files), key=lambda f: (-counts[f], -last_seen[f], f))
        cached = set(ranked[:cache_size])
        window = events[t * batch_size : (t + 1) * batch_size]
        costs.append(sum(1 for f in window if f not in cached))
        decisions.append([0 if f in cached else 1 for f in range(n_files)])
        for k, f in enumerate(window):
            counts[f] += 1
            last_seen[f] = t * batch_size + k
    return costs, decisions


def reference_lru_costs(events, batch_size: int, cache_size: int):
    """Per-slot misses of LRU warm-started with files 0..cache_size-1.

    The cache is a plain list ordered from least to most recently used.
    """
    events = [int(f) for f in events]
    cache = list(range(cache_size))
    costs = []
    for t in range(len(events) // batch_size):
        misses = 0
        for f in events[t * batch_size : (t + 1) * batch_size]:
            if f in cache:
                cache.remove(f)
            else:
                misses += 1
                if len(cache) == cache_size:
                    cache.pop(0)
            cache.append(f)
        costs.append(misses)
    return costs
