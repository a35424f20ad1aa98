"""Online caching policies.

Every policy kind is a whole-trace function of a SlottedTrace and a
cache size that returns the per-slot misses: static_optimum,
follow_the_leader, least_recently_used and step_perturbed_leaders. Each
slot a policy commits its cache before the slot's requests are counted
and learns them only afterwards; LRU instead updates per event. The
static optimum and both leaders, ftl and fpl, pick their caches with
core.top_c, and both leaders show each slot's bool cache mask to an
optional observe. step_perturbed_leaders derives every run's random
streams from a SeedPlan, the one owner of the seed rule, and steps its
rows in groups of one ranking kind across forked processes, one per
usable CPU, that fill one shared result.

All policies work on 0-based file indices. They read the slotted
trace's int32 events, ids and counts a slot or a block of slots at a
time, and each slot's misses, at most B, land in int64 costs.
"""

from collections import OrderedDict
from dataclasses import dataclass
import errno
from itertools import islice
import mmap
import os
import signal
import sys
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
    totals + etas[s][g] * u, ties going to the lowest index, and pays the
    slot's misses; only then does it add estimators[g]'s estimate of the
    slot's counts to its totals. u is a fresh standard-uniform vector
    from plan.stream(r, NOISE), and every sampled leader reads one
    uniform key per event drawn once from plan.stream(r, SAMPLING): both
    are shared by every leader and size at run r (common random numbers).
    So each slot draws u and the estimates once, and every size ranks and
    charges all G * R rows from them in turn.

    The rows are stepped in groups of one ranking kind (_step_rows), in
    forked processes, one per usable CPU; the result does not depend on
    the split. With R >= 2 they are one full group (_ranked_in_full),
    split by run. With R = 1, two or more leaders and one eta per size,
    every row reads one noise vector at one scale: they are one floor
    group (_ranked_by_floor), split by slot range. Any other single run
    is one full group in this process: a lone leader's top-C over N costs
    less than the floor, and mixed etas leave too many files to prune.

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
    # costs and zeroed totals in one mapping that forks share: at most sys.maxsize bytes
    most = sys.maxsize // (8 * groups * (len(sizes) * horizon + n))
    if runs > most:
        raise InvalidInputError(f"runs must be <= {most} at this trace, cache sizes "
                                f"and policies, got {runs}")
    cells = len(sizes) * groups * runs * horizon
    size = 8 * (cells + groups * runs * n)
    try:
        result = mmap.mmap(-1, size)
    except OSError as exc:
        if exc.errno != errno.ENOMEM:
            raise
        raise MemoryError(f"runs = {runs} needs a result of {size} bytes, "
                          "more than this host can map") from None
    costs = np.frombuffer(result, np.int64, cells).reshape(-1, groups, runs, horizon)
    totals = np.frombuffer(result, np.float64, offset=8 * cells).reshape(groups, runs, n)
    shared = runs == 1 and groups > 1 and (etas == etas[:, :1]).all()  # one u, one eta
    partition = [(np.s_[:, 0], _ranked_by_floor) if shared
                 else (np.s_[:, :], _ranked_in_full)]
    units = horizon if shared else runs  # what the processes split
    procs = 1 if observe is not None else min(units, _usable_cpus())

    def step(lo, hi):
        rows, slots = slice(lo, hi), range(horizon)
        if shared:
            rows, slots = slice(None), range(lo, hi)
        # the share that ends at T owns the totals; an earlier one keeps its own
        own = totals[:, rows] if slots.stop == horizon else np.zeros_like(totals[:, rows])
        _step_rows(slotted, slots, sizes, etas, estimators, range(runs)[rows], plan,
                   costs[:, :, rows], own, observe, partition)

    cuts = [units * k // procs for k in range(procs + 1)]
    _in_processes(step, list(zip(cuts, cuts[1:])))
    return LeaderRuns(costs=costs, totals=totals)


def _step_rows(slotted, slots, sizes, etas, estimators, run_ids, plan, costs, totals,
               observe, partition) -> None:
    """Step the G x R rows whose results costs and totals hold, in place.

    run_ids is the range of these rows' runs: run r draws noise from
    plan.stream(r, NOISE) and, if any row is sampled, keys from
    plan.stream(r, SAMPLING). Only the slots in the range slots write
    costs; the earlier ones are replayed: their estimates are added to
    the totals in order and their noise is skipped. costs (S x G x R x T)
    and totals (G x R x N, all zero) may be strided views of a larger
    result. partition holds one (index, kind) pair per group: index picks
    its rows of G x R, and kind(sizes, etas, noise, totals, mask, b),
    given those rows' views, returns their steps rank(s, c, ids, counts),
    the misses at size c (filling mask unless it is None), and
    settle(ids), run once the slot's estimates are added.
    """
    groups, runs, n = totals.shape
    noise_rngs = [plan.stream(r, SeedPlan.NOISE) for r in run_ids]
    for rng in noise_rngs:  # each slot draws n doubles, one 64-bit step each
        rng.bit_generator.advance(slots.start * n)
    sampled = not all(spec.full_rate for spec in estimators)
    key_rngs = [plan.stream(r, SeedPlan.SAMPLING) for r in run_ids] if sampled else []
    estimated = _estimated_slots(slotted, estimators, key_rngs, runs, slots.stop)
    for _, ids, _, estimates in islice(estimated, slots.start):  # the replay
        totals[:, :, ids] += estimates
    noise = np.empty((runs, n))
    cached = None if observe is None else np.empty((groups, runs, n), dtype=bool)
    steps = [(costs[(slice(None), *index)], *kind(
        sizes, etas[:, index[0]], noise[index[1]], totals[index],
        None if cached is None else cached[index], slotted.batch_size,
    )) for index, kind in partition]
    for t, ids, counts, estimates in estimated:
        for r, rng in enumerate(noise_rngs):
            rng.random(out=noise[r])
        for s, c in enumerate(sizes):
            for group_costs, rank, _ in steps:
                group_costs[s, ..., t] = rank(s, c, ids, counts)
            if observe is not None:
                observe(t, s, cached)
        totals[:, :, ids] += estimates
        for _, _, settle in steps:
            settle(ids)


def _estimated_slots(slotted, estimators, key_rngs, runs, stop):
    """Yield (t, ids, counts, estimates) for each slot t < stop, in order.

    estimates, G x R x len(ids), is a view valid until the next yield:
    they come a block of slots, at most max(N, BLOCK_EVENTS) events, at a
    time. Run r's keys, if key_rngs is not empty, come from key_rngs[r]
    one per event, element by element, so no key depends on the cuts.
    """
    b, horizon = slotted.batch_size, slotted.horizon
    # span slots hold at most max(n, BLOCK_EVENTS) events, which bounds each
    # run's keys; the buffer holds the widest block's CSR entries
    offsets, span = slotted.offsets, max(1, max(slotted.n_files, BLOCK_EVENTS) // b)
    cuts = offsets[np.append(np.arange(0, horizon, span), horizon)]
    block = np.empty((len(estimators), runs, np.diff(cuts).max(initial=0)))
    for lo in range(0, stop, span):
        hi = min(lo + span, horizon)
        base = offsets[lo]
        part = slotted.counts[base : offsets[hi]]
        edges = offsets[lo : hi + 1] - base
        owner = np.repeat(np.arange(part.size), part) if key_rngs else None
        for r in range(runs):
            keys = key_rngs[r].random(owner.size) if key_rngs else None
            for g, spec in enumerate(estimators):
                estimate_block(spec, part, edges, owner, keys, block[g, r])
        del keys  # 8 bytes an event: not held while the block's slots step
        for t in range(lo, min(hi, stop)):
            first, last = offsets[t], offsets[t + 1]
            yield (t, slotted.ids[first:last], slotted.counts[first:last],
                   block[:, :, first - base : last - base])


def _ranked_in_full(sizes, etas, noise, totals, mask, b):
    """The full kind: every row's top C over all N files, batched across runs.

    noise is R x N, and totals and mask (its own buffer if None) G x R x N.
    """
    score, rows = np.empty(totals.shape), (-1, totals.shape[-1])
    cached = np.empty(totals.shape, dtype=bool) if mask is None else mask
    row_score, row_cached = score.reshape(rows), cached.reshape(rows)
    scales = etas[:, :, None, None]

    def rank(s, c, ids, counts):
        # eta * random() is bit for bit uniform(0, eta)
        np.multiply(noise, scales[s], out=score)
        np.add(score, totals, out=score)
        top_c(row_score, c, out=row_cached)
        return (b - row_cached[:, ids] @ counts).reshape(totals.shape[:-1])

    return rank, lambda ids: None


def _ranked_by_floor(sizes, etas, u, leading, mask, b):
    """The floor kind: one run's G rows at one eta, ranking only what reaches u's floor.

    u is the run's noise, leading and mask its G x N totals and cache. As
    totals are >= 0 and rounding is monotone, the C files with the largest
    u score at least fl(eta * u_(C)), u_(C) being u's C-th largest value,
    so a file whose fl(fl(eta * u_i) + peak_i), peak_i its largest total
    over the rows, is below that floor is neither cached nor tied in any
    row; at eta 0 every file is a candidate. The candidates are ranked in
    ascending index order, so ties still go to the lowest index.
    """
    n, eta = u.size, etas[:, 0]  # the one eta of every row at each size
    reach, ranked = np.empty(n), np.empty(n)
    demand = np.zeros(n, dtype=np.int64)  # the slot's requests of every file
    widest = sorted(set(sizes), reverse=True)
    peak = leading.max(axis=0)
    kth = {}  # u's C-th largest value at each C, found once a slot

    def rank(s, c, ids, counts):
        if not kth:  # a slot's first size: its demand and u's C-th largest values
            demand[ids] = counts
            ranked[:], lo = u, 0
            for size in widest:  # each within the last's top: one partition
                ranked[lo:].partition(n - size - lo)  # at several kth is slower
                lo = n - size
                kth[size] = ranked[lo]
        np.multiply(u, eta[s], out=reach)  # fl(eta * u): every row's noise
        np.add(reach, peak, out=reach)
        chosen = np.flatnonzero(reach >= eta[s] * kth[c])
        sub = leading.take(chosen, axis=1) + eta[s] * u.take(chosen)
        kept = top_c(sub, c)
        if mask is not None:
            mask.fill(False)
            mask[:, chosen] = kept
        return b - kept @ demand.take(chosen)

    def settle(ids):  # totals only grow, so only this slot's peaks can move
        kth.clear()
        demand[ids] = 0
        peak[ids] = leading[:, ids].max(axis=0)

    return rank, settle


def _usable_cpus() -> int:
    """The CPUs this process may run on: 1 where it cannot tell or cannot fork."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity and hasattr(os, "fork") else 1


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
