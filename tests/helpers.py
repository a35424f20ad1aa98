"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way
(exhaustive enumeration, event-level counting) so the package's fast
paths are checked against code that shares none of their logic.
estimate_copies is the exception: it drives the package's own sampler
over many identical slots, for the estimator property tests.
"""

import itertools
import math
import os

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


def feasible(cached, n_files: int, cache_size: int) -> bool:
    mask = np.asarray(cached)
    return (
        mask.shape == (n_files,)
        and mask.dtype == bool
        and int(mask.sum()) == cache_size
    )


def reference_top_c(score, cache_size: int) -> np.ndarray:
    """Bool mask of each row's cache_size largest scores, by one lexsort a row.

    Each row is sorted by descending score, then ascending index, and
    its first cache_size files are cached: boundary ties go to the
    lowest index. score is length-N or rows x N.
    """
    score = np.asarray(score, dtype=np.float64)
    rows = score.reshape(-1, score.shape[-1])
    mask = np.zeros(rows.shape, dtype=bool)
    for row, cached in zip(rows, mask):
        order = np.lexsort((np.arange(row.size), -row))
        cached[order[:cache_size]] = True
    return mask.reshape(score.shape)


def sweep_cells(reports):
    """Each cell of a sweep as a (cache size, PolicyReport) pair, in report order."""
    return [(rep.cache_size, pol) for rep in reports for pol in rep.policies]


class Recorder:
    """An observe callable that keeps a copy of every cache it is shown.

    step_perturbed_leaders calls it as (t, s, cached), cached a G x R x N
    bool mask; follow_the_leader as (t, cached), a length-N one. Each is
    copied into the references' layout, int8 with 1 = left out, and
    decisions stacks them: S x G x R x T x N for the stepper, T x N for
    follow_the_leader. Slots must arrive in order at each size.
    """

    def __init__(self):
        self.slots = {}

    def __call__(self, t, *where):
        *size, shown = where
        kept = self.slots.setdefault(tuple(size), [])
        assert t == len(kept), f"slot {t} shown out of order"
        kept.append((~shown).astype(np.int8))

    @property
    def decisions(self):
        if () in self.slots:
            return np.stack(self.slots[()])
        return np.stack(
            [np.stack(self.slots[(s,)], axis=-2) for s in range(len(self.slots))]
        )


def record_forks(monkeypatch) -> list:
    """The pids of the children os.fork makes while the test runs, as a list."""
    forked, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return forked


def assert_reaped(pids) -> None:
    """Each pid is no child of this process: it ended and was waited for."""
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue
        raise AssertionError(f"process {pid} is still a child of this one")


def reference_estimate(spec, counts, rng):
    """One slot's estimate of its sparse counts, drawn straight from the law.

    Both samplers list the slot's events in sorted order and give each
    one uniform key. Bernoulli keeps the events whose keys fall below
    the rate; the fixed subsample sorts all the keys and keeps the
    events with the subsample smallest. Draws even at full rate, where
    the law gives back the counts.
    """
    from noisycache import EstimatorKind

    events = np.repeat(np.arange(counts.size), counts)
    keys = rng.random(events.size)
    if spec.kind is EstimatorKind.BERNOULLI:
        kept = np.bincount(events[keys < spec.rate], minlength=counts.size)
        return kept / spec.rate
    picked = events[np.argsort(keys)[: spec.subsample]]
    kept = np.bincount(picked, minlength=counts.size)
    return kept * (spec.batch_size / spec.subsample)


def multivariate_hypergeometric_pmf(counts, sample):
    """The law of the kept counts of a sample drawn without replacement.

    Maps every kept-count vector to its probability, by enumeration:
    prod_i C(counts_i, kept_i) / C(sum(counts), sample).
    """
    ways = math.comb(sum(counts), sample)
    return {
        kept: math.prod(map(math.comb, counts, kept)) / ways
        for kept in itertools.product(*(range(c + 1) for c in counts))
        if sum(kept) == sample
    }


def product_binomial_pmf(counts, rate):
    """The law of the kept counts when each event is kept with probability rate.

    Maps every kept-count vector to its probability, by enumeration:
    prod_i C(counts_i, kept_i) rate^kept_i (1 - rate)^(counts_i - kept_i).
    """
    return {
        kept: math.prod(
            math.comb(c, k) * rate**k * (1 - rate) ** (c - k)
            for c, k in zip(counts, kept)
        )
        for kept in itertools.product(*(range(c + 1) for c in counts))
    }


def chi2_sf(stat, dof):
    """Upper tail P(X >= stat) of the chi-squared law with whole dof.

    The closed forms, with h = stat / 2: a Poisson tail for even dof and
    erfc plus a half-integer series for odd dof. 0 dof is the point mass
    at 0.
    """
    if dof == 0:
        return float(stat <= 0)
    half = stat / 2
    if dof % 2 == 0:
        return sum(
            math.exp(-half) * half**i / math.factorial(i) for i in range(dof // 2)
        )
    return math.erfc(math.sqrt(half)) + sum(
        math.exp(-half) * half ** (i - 0.5) / math.gamma(i + 0.5)
        for i in range(1, dof // 2 + 1)
    )


def reference_leader_run(slotted, cache_size, eta, estimator, noise_rng, sample_rng):
    """One perturbed-leader run stepped the slow way, one slot at a time.

    Each slot recounts its raw events, caches the top cache_size files of
    totals + uniform(0, eta) noise (reference_top_c), pays the misses, and
    only then adds the slot's reference_estimate to the totals. Returns
    (per-slot costs, final totals, T x N decisions with 1 = not cached).
    """
    n, b = slotted.n_files, slotted.batch_size
    totals = np.zeros(n)
    costs, decisions = [], []
    for t in range(slotted.horizon):
        ids, counts = np.unique(slotted.events[t * b : (t + 1) * b], return_counts=True)
        score = totals + noise_rng.uniform(0, eta, n)
        x = (~reference_top_c(score, cache_size)).astype(np.int8)
        costs.append(counts @ x[ids])
        decisions.append(x)
        totals[ids] += reference_estimate(estimator, counts, sample_rng)
    return np.array(costs, dtype=np.int64), totals, np.array(decisions)


def estimate_copies(spec, counts, copies, rng):
    """copies estimates of one slot's dense counts, by one estimate_block call.

    The block is the CSR form of a trace whose every slot requests
    counts, and its keys are one rng.random call, none at full rate;
    returns a copies x N float64 array.
    """
    from noisycache import SlottedTrace
    from noisycache.estimators import estimate_block

    slot = np.repeat(np.arange(len(counts)), counts)
    slotted = SlottedTrace(np.tile(slot, copies), len(counts), slot.size)
    out = np.empty(slotted.counts.size)
    owner = np.repeat(np.arange(slotted.counts.size), slotted.counts)
    keys = None if spec.full_rate else rng.random(owner.size)
    estimate_block(spec, slotted.counts, slotted.offsets, owner, keys, out)
    dense = np.zeros((copies, len(counts)))
    dense[np.repeat(np.arange(copies), np.diff(slotted.offsets)), slotted.ids] = out
    return dense


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


def reference_dense_remap(events):
    """Relabel ids 1..K by first appearance, ordering np.unique's first indices."""
    uniq, first_pos, inverse = np.unique(
        np.asarray(events), return_index=True, return_inverse=True
    )
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[np.argsort(first_pos)] = np.arange(1, uniq.size + 1)
    return rank[inverse], int(uniq.size)


def reference_read_trace(path, remap=True, n_files=None):
    """Read a trace file the slow way: one int() per line in plain Python.

    Returns (1-based events, catalog size) or raises TraceParseError with
    the message read_trace_file must give for the same file.
    """
    from noisycache import TraceParseError

    raw = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            field = text.split(",", 1)[0].strip()
            try:
                value = int(field)
            except ValueError:
                raise TraceParseError(
                    f"{path}:{lineno}: expected an integer file id, got {field!r}"
                ) from None
            if value < 1:
                raise TraceParseError(
                    f"{path}:{lineno}: file ids must be positive, got {value}"
                )
            if value > np.iinfo(np.int64).max:
                raise TraceParseError(
                    f"{path}:{lineno}: file id {value} does not fit in 64 bits"
                )
            if not remap and value > n_files:
                raise TraceParseError(
                    f"{path}:{lineno}: id {value} exceeds declared catalog size {n_files}"
                )
            raw.append(value)
    if not raw:
        raise TraceParseError(f"{path}: no request events found")
    events = np.asarray(raw, dtype=np.int64)
    if remap:
        return reference_dense_remap(events)
    return events, n_files


def reference_trace_bytes(ids) -> bytes:
    """The bytes of a trace file holding ids, one "%d\\n" per id."""
    ids = [int(i) for i in ids]
    return (("%d\n" * len(ids)) % tuple(ids)).encode()


def reference_zipf_events(n_files: int, alpha: float, requests: int, seed: int):
    """Zipf draws by one np.searchsorted over the whole cdf, 1-based."""
    ranks = np.arange(1, n_files + 1, dtype=np.float64)
    weights = ranks ** -alpha
    cdf = np.cumsum(weights / weights.sum())
    draws = np.searchsorted(cdf, np.random.default_rng(seed).random(requests))
    return np.minimum(draws, n_files - 1) + 1
