"""Online caching policies.

Every policy kind is a whole-trace function of a SlottedTrace and a
cache size that returns the per-slot misses: static_optimum,
follow_the_leader, least_recently_used and step_perturbed_leaders. Each
slot a policy commits its cache before the slot's requests are counted
and learns them only afterwards; LRU instead updates per event. The
static optimum and both leaders, ftl and fpl, pick their caches with
core.top_c, and both leaders show each slot's bool cache mask to an
optional observe. step_perturbed_leaders derives every run's random
streams from a SeedPlan, the one owner of the seed rule: one noise
stream and one stream of sampling keys per run, each read by every
leader at that run. It splits its work across forked processes, one
per usable CPU, that fill one shared result: by run, or at one run by
slot range, where all rows read one noise vector and each cache size
ranks only the files that can reach that noise's floor.

All policies work on 0-based file indices. They read the slotted
trace's int32 events, ids and counts a slot or a block of slots at a
time, and each slot's misses, at most B, land in int64 costs.
"""

from collections import OrderedDict
from dataclasses import dataclass
import math
import mmap
import os
import signal
import threading
import warnings

import numpy as np

from .core import InvalidInputError, check_cache_size, top_c
from .estimators import estimate_block
from .traces import _BLOCK, SlottedTrace

BLOCK_EVENTS = 8192  # a sampling block holds at most max(N, this) events


def check_eta(eta, what: str = "eta") -> None:
    """Reject a perturbation scale, or array of them, unless finite and >= 0."""
    values = np.asarray(eta, dtype=np.float64)
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        got = np.asarray(eta).tolist()
        raise InvalidInputError(f"{what} must be finite and >= 0, got {got}")


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
    runs: int,
    plan: SeedPlan,
    observe=None,
) -> LeaderRuns:
    """Step G perturbed leaders over R runs at S cache sizes, slot by slot.

    Leader g at run r and size s is follow-the-perturbed-leader: each slot
    it caches the cache_sizes[s] files with the largest
    totals + etas[s][g] * u, ties at the boundary going to the lowest
    index, and pays the slot's misses; only then does it add
    estimators[g]'s estimate of the slot's counts to its totals. u is a
    fresh standard-uniform vector from plan.stream(r, NOISE), shared by
    every leader and size at run r (common random numbers). Likewise
    every sampled leader at run r reads the same uniform key per event,
    drawn once from plan.stream(r, SAMPLING), so at one run nfpl-var and
    nfpl-fix sample from the same keys. Since the totals never depend on
    the cache size, each slot draws u and the estimates once, and every
    size scores, ranks and charges all G * R rows from them in turn. The
    keys and estimates come a block of slots, at most max(N, BLOCK_EVENTS)
    events, at a time (estimators.estimate_block); with no sampled leader
    no key is drawn.

    The work is split across the usable CPUs, one forked process each.
    With R >= 2 the rows are split by run. With R = 1 and two or more
    leaders every row reads one noise vector, so each size ranks only the
    files that can reach that noise's floor (_step_rows), which makes the
    per-slot work that every row shares the largest cost; the slots are
    split by range instead. A later share replays the earlier slots'
    estimates, totals adds and noise draws, writes costs only for its own
    slots, and the share that ends at T owns the totals. One leader at one
    run is ranked in full in this process: a single row's top-C over N costs
    less than finding the floor and the candidates, and a split adds forks
    and the later share's replay. Each process derives its own streams
    and writes in place into costs and totals, which live in one shared
    anonymous mapping; the result does not depend on the split.

    observe, if given, is called as observe(t, s, cached) once per slot t
    and size index s: cached is the G x R x N bool mask of each row's
    cache, a view of the stepper's buffer valid only during the call.
    With an observer the rows are stepped in this process.
    """
    sizes = list(cache_sizes)
    etas = np.asarray(etas, dtype=np.float64)
    estimators = list(estimators)
    n, b, horizon = slotted.n_files, slotted.batch_size, slotted.horizon
    for c in sizes:
        check_cache_size(c, n)
    if etas.ndim != 2 or etas.shape[0] != len(sizes):
        raise InvalidInputError("etas must hold one row of leader etas per cache size")
    groups = etas.shape[1]
    if not sizes or groups < 1 or runs < 1:
        raise InvalidInputError("need at least one cache size, leader and run")
    if len(estimators) != groups:
        raise InvalidInputError("estimators need one entry per leader")
    check_eta(etas, "etas")
    for spec in estimators:
        if spec.batch_size != b:
            raise InvalidInputError(
                f"estimator batch size {spec.batch_size} does not match "
                f"the trace's batch size {b}"
            )

    costs, totals = _shared_result((len(sizes), groups, runs, horizon), (groups, runs, n))
    # every row reads run 0's noise: rank only the candidates, split by slot.
    # One row is ranked in full in one process: its one top-C over N costs
    # less than the floor, the candidates and a later share's replay
    shared = runs == 1 and groups > 1
    units = horizon if shared else runs  # what the processes split
    procs = 1 if observe is not None else min(units, _usable_cpus())

    def step(lo, hi):
        rows, slots = slice(lo, hi), range(horizon)
        if shared:
            rows, slots = slice(None), range(lo, hi)
        # the share that ends at T owns the totals; an earlier one keeps its own
        own = totals[:, rows] if slots.stop == horizon else np.zeros_like(totals[:, rows])
        _step_rows(slotted, slots, sizes, etas, estimators, range(runs)[rows], plan,
                   costs[:, :, rows], own, observe, shared)

    cuts = [units * k // procs for k in range(procs + 1)]
    _in_processes(step, list(zip(cuts, cuts[1:])))
    return LeaderRuns(costs=costs, totals=totals)


def _step_rows(
    slotted, slots, sizes, etas, estimators, run_ids, plan, costs, totals, observe, prune
) -> None:
    """Step the G x R rows whose results costs and totals hold, in place.

    run_ids is the range of these rows' runs: run r draws noise from
    plan.stream(r, NOISE) and, if any row is sampled, its keys from
    plan.stream(r, SAMPLING), one per event, element by element, so no
    key depends on where blocks are cut; every row at run r reads them.
    Only the slots in the range slots write their costs. The earlier
    slots are replayed: their estimates are drawn and added to the totals
    in the same order, and their noise is skipped as if drawn, so a share
    that starts late steps its slots from the same totals and noise.
    costs (S x G x R x T) and totals (G x R x N, all zero) may be strided
    views of a larger result. The other inputs are
    step_perturbed_leaders', for these rows only and already checked.

    prune, for one run's rows, ranks at each size only the files that can
    reach the noise floor. Totals are >= 0 and rounding is monotone, so
    the C files with the largest u score at least fl(eta_g * u_(C)) in
    row g, u_(C) being u's C-th largest value, and a file whose
    fl(fl(eta_max * u_i) + peak_i), peak_i its largest total over the
    rows, falls below the least of those floors is neither cached nor
    tied in any row. The candidates are ranked in ascending index order,
    so ties still go to the lowest index. At eta 0 every file is one.
    """
    groups, runs, n = totals.shape
    b, horizon = slotted.batch_size, slotted.horizon
    noise_rngs = [plan.stream(r, SeedPlan.NOISE) for r in run_ids]
    for rng in noise_rngs:  # each slot draws n doubles, one 64-bit step each
        rng.bit_generator.advance(slots.start * n)
    sampled = not all(spec.full_rate for spec in estimators)
    key_rngs = [plan.stream(r, SeedPlan.SAMPLING) for r in run_ids] if sampled else []
    rows = groups * runs
    score = np.empty((groups, runs, n))
    noise = np.empty((runs, n))
    scales = etas[:, :, None, None]
    row_score = score.reshape(rows, n)
    cached = np.empty((rows, n), dtype=bool)
    if prune:  # one run: each size's least and largest eta bound the rows
        low, high = etas.min(axis=1), etas.max(axis=1)
        reach, ranked = np.empty(n), np.empty(n)
        demand = np.zeros(n, dtype=np.int64)
        widest = sorted(set(sizes), reverse=True)
        leading = totals[:, 0]  # G x N
    # span slots hold at most max(n, BLOCK_EVENTS) events, which bounds each
    # run's keys; the buffer holds the widest block's CSR entries
    offsets, span = slotted.offsets, max(1, max(n, BLOCK_EVENTS) // b)
    cuts = offsets[np.append(np.arange(0, horizon, span), horizon)]
    block = np.empty((groups, runs, np.diff(cuts).max(initial=0)))

    for lo in range(0, slots.stop, span):
        hi = min(lo + span, horizon)
        base = offsets[lo]
        part = slotted.counts[base : offsets[hi]]
        edges = offsets[lo : hi + 1] - base
        owner = np.repeat(np.arange(part.size), part) if sampled else None
        for r in range(runs):
            keys = key_rngs[r].random(owner.size) if sampled else None
            for g, spec in enumerate(estimators):
                estimate_block(spec, part, edges, owner, keys, block[g, r])
        del keys  # 8 bytes an event: not held while the block's slots step
        for t in range(lo, min(hi, slots.stop)):
            ids = slotted.ids[offsets[t] : offsets[t + 1]]
            estimates = block[:, :, offsets[t] - base : offsets[t + 1] - base]
            if t < slots.start:  # a slot before the range only adds its estimates
                totals[:, :, ids] += estimates
                continue
            counts = slotted.counts[offsets[t] : offsets[t + 1]]
            for r, rng in enumerate(noise_rngs):
                rng.random(out=noise[r])
            if prune:
                if t == slots.start:  # each file's largest total over the rows
                    peak = leading.max(axis=0)
                u = noise[0]
                kth = _largest(u, widest, ranked)
                demand[ids] = counts  # the slot's requests of every file
            for s, c in enumerate(sizes):
                if prune:  # fl(eta * u) grows with eta: the least eta sets the floor
                    chosen = _within_reach(u, peak, high[s], low[s] * kth[c], reach)
                    sub = np.multiply(u.take(chosen), scales[s, :, 0])
                    sub += leading.take(chosen, axis=1)
                    kept = top_c(sub, c)
                    costs[s, :, 0, t] = b - kept @ demand.take(chosen)
                    if observe is not None:
                        cached.fill(False)
                        cached[:, chosen] = kept
                else:
                    # eta * random() is bit for bit uniform(0, eta)
                    np.multiply(noise, scales[s], out=score)
                    score += totals
                    top_c(row_score, c, out=cached)
                    costs[s, :, :, t] = (b - cached[:, ids] @ counts).reshape(groups, runs)
                if observe is not None:
                    observe(t, s, cached.reshape(groups, runs, n))
            totals[:, :, ids] += estimates
            if prune:  # totals only grow, so only this slot's peaks can move
                demand[ids] = 0
                peak[ids] = leading[:, ids].max(axis=0)


def _within_reach(u, peak, eta, floor, reach):
    """The files with fl(fl(eta * u) + peak) >= floor, in ascending order.

    reach is a length-N buffer the sum is written to.
    """
    np.multiply(u, eta, out=reach)
    reach += peak
    return np.flatnonzero(reach >= floor)


def _largest(u, widest, ranked):
    """u's C-th largest value for each C in widest (sorted descending), by C.

    ranked receives a copy of u partitioned once per C, each time only
    within the top of the last: one partition at several kth is slower.
    """
    ranked[:] = u
    kth, lo = {}, 0
    for c in widest:
        ranked[lo:].partition(len(u) - c - lo)
        lo = len(u) - c
        kth[c] = ranked[lo]
    return kth


def _usable_cpus() -> int:
    """The CPUs this process may run on: 1 where it cannot tell or cannot fork."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity and hasattr(os, "fork") else 1


def _shared_result(costs_shape, totals_shape):
    """int64 costs and zeroed float64 totals in one anonymous shared mapping.

    A forked child writes into them and the parent sees the writes.
    """
    size = math.prod(costs_shape)
    shared = mmap.mmap(-1, 8 * (size + math.prod(totals_shape)))
    costs = np.frombuffer(shared, np.int64, size).reshape(costs_shape)
    totals = np.frombuffer(shared, np.float64, offset=8 * size).reshape(totals_shape)
    return costs, totals


def _in_processes(step, shares) -> None:
    """Call step(*share) for every share: the first here, each other in a fork.

    The parent steps its own share, then reaps the children in turn. If a
    child failed, or the parent's own share raised, it first kills and
    reaps every child left; a failed child is then raised as a
    RuntimeError that carries the child's error.
    """
    alive_r, alive_w = os.pipe()  # only the parent holds the write end
    error_r, error_w = os.pipe()  # a failing child writes its error line here
    children, failed = [], None
    try:
        for share in shares[1:]:
            with warnings.catch_warnings():
                # NumPy's BLAS thread pool makes this process multi-threaded,
                # so Python 3.12 warns that a forked child may deadlock. The
                # child makes no BLAS call: bool @ int64 is not BLAS.
                warnings.filterwarnings(
                    "ignore", r"This process .* is multi-threaded", DeprecationWarning
                )
                pid = os.fork()
            if pid == 0:
                _child(step, share, alive_r, alive_w, error_w)
            children.append(pid)
        step(*shares[0])
        while children and failed is None:
            pid = children.pop(0)
            status = os.waitpid(pid, 0)[1]
            if status:
                code = os.waitstatus_to_exitcode(status)
                failed = f"stepper process {pid} ended with exit status {code}"
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(error_w)
        errors = os.read(error_r, 4096).decode(errors="replace")  # no writer is left
        for fd in (alive_r, alive_w, error_r):
            os.close(fd)
    if failed is not None:
        raise RuntimeError(errors.partition("\n")[0] or failed)


def _child(step, share, alive_r, alive_w, error_w):
    """A forked child's whole life: step its share, report, and _exit."""
    code = 1
    try:
        os.close(alive_w)
        threading.Thread(target=_exit_with_parent, args=(alive_r,), daemon=True).start()
        step(*share)
        code = 0
    except BaseException as exc:  # KeyboardInterrupt too: never return to the caller
        line = f"stepper process {os.getpid()} failed: {type(exc).__name__}: {exc}"
        os.write(error_w, line.replace("\n", " ").encode()[:1000] + b"\n")
    finally:  # even if the write above raises
        os._exit(code)


def _exit_with_parent(alive_r):
    """End this child once the parent is gone, so a killed parent leaves none."""
    try:
        os.read(alive_r, 1)  # returns only at EOF: the parent, the writer, has ended
    finally:
        os._exit(1)


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
    offsets, span = slotted.offsets, max(1, _BLOCK // b)
    for t in range(horizon):
        if t % span == 0:  # NumPy indexes with intp: widen a block of slots at once
            base, stop = offsets[t], offsets[min(t + span, horizon)]
            ids_block = slotted.ids[base:stop].astype(np.intp)
            counts_block = slotted.counts[base:stop].astype(np.int64)
            events_block = slotted.events[t * b : (t + span) * b].astype(np.intp)
        ids = ids_block[offsets[t] - base : offsets[t + 1] - base]
        counts = counts_block[offsets[t] - base : offsets[t + 1] - base]
        cached = top_c(totals * scale + stamps, cache_size)
        costs[t] = b - cached[ids] @ counts
        if observe is not None:
            observe(t, cached)
        totals[ids] += counts
        # duplicate indices keep the last write: the latest request in the slot
        slot = events_block[t % span * b : (t % span + 1) * b]
        stamps[slot] = np.arange(t * b, (t + 1) * b) + 1
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
    ties to the lowest index; its misses sum to the optimum. The misses
    are charged a block of slots at a time, so no temporary is as long as
    the slotted trace.
    """
    check_cache_size(cache_size, slotted.n_files)
    missed = ~top_c(slotted.totals(), cache_size)
    horizon, offsets = slotted.horizon, slotted.offsets
    span = max(1, _BLOCK // slotted.batch_size)
    costs = np.empty(horizon, dtype=np.int64)
    for t in range(0, horizon, span):
        starts = offsets[t : min(t + span, horizon) + 1]
        lo, hi = starts[0], starts[-1]
        costs[t : t + span] = np.add.reduceat(
            slotted.counts[lo:hi] * missed[slotted.ids[lo:hi]], starts[:-1] - lo
        )
    return costs
