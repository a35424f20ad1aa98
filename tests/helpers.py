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
