"""Request trace generation, file I/O, and batching.

A trace is an ordered sequence of 1-based file ids over a catalog of
n_files. Traces come from three sources: a Zipf sampler, a round-robin
generator, or a text file (one id per line). NumPy's C parser reads a
file, first as it is and then as the lines the grammar keeps; a Python
line loop reads what it refuses and names every bad line. batch_trace
cuts a trace into slots of fixed-size request batches, a SlottedTrace in
the 0-based index space the rest of the package works in.
"""

import contextlib
from dataclasses import dataclass, field
import math
import os
import warnings

import numpy as np

from .core import InvalidInputError


class TraceParseError(ValueError):
    """Raised when a trace file cannot be parsed; message carries line numbers."""


_MAX_ID = int(np.iinfo(np.int64).max)
# A slotted trace holds file indices and per-slot counts as int32, so a
# catalog and a batch hold at most this many files and requests.
_MAX_INT32 = int(np.iinfo(np.int32).max)
_MAX_SIZE = int(np.iinfo(np.intp).max) // 8  # the most int64 elements an array holds


def _check_count(value: int, what: str, most: int = _MAX_INT32) -> None:
    if not 1 <= value <= most:
        bound = ">= 1" if value < 1 else f"<= {most}"
        raise InvalidInputError(f"{what} must be {bound}, got {value}")


@dataclass(frozen=True)
class Trace:
    """An ordered request sequence. events holds 1-based ids in [1, n_files]."""

    events: np.ndarray
    n_files: int

    def __post_init__(self):
        events = np.asarray(self.events, dtype=np.int64)
        object.__setattr__(self, "events", events)
        if events.ndim != 1 or events.size < 1:
            raise InvalidInputError("events must be a non-empty 1-d sequence")
        if self.n_files < 1:
            raise InvalidInputError(f"n_files must be >= 1, got {self.n_files}")
        if events.min() < 1 or events.max() > self.n_files:
            raise InvalidInputError("event ids must lie in [1, n_files]")


@dataclass(frozen=True)
class ZipfConfig:
    """I.i.d. Zipf(alpha) requests: P(file i) proportional to i**-alpha.

    seed may be left None; the engine then derives one from its seed
    plan before generating.
    """

    n_files: int
    alpha: float
    total_requests: int
    seed: int | None = None

    def __post_init__(self):
        _check_count(self.n_files, "n_files")
        if not math.isfinite(self.alpha) or self.alpha < 0:
            raise InvalidInputError(f"alpha must be finite and >= 0, got {self.alpha}")
        _check_count(self.total_requests, "total_requests", _MAX_SIZE)
        if self.seed is not None and self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class RoundRobinConfig:
    """Deterministic cycle 1, 2, ..., n_files, 1, 2, ..."""

    n_files: int
    total_requests: int

    def __post_init__(self):
        _check_count(self.n_files, "n_files")
        _check_count(self.total_requests, "total_requests", _MAX_SIZE)


@dataclass(frozen=True)
class TraceFileConfig:
    """A trace loaded from disk; see read_trace_file for the format."""

    path: str
    remap: bool = True
    n_files: int | None = None

    def __post_init__(self):
        if self.remap == (self.n_files is not None):
            raise InvalidInputError("give n_files if and only if remap is false")
        if self.n_files is not None:
            _check_count(self.n_files, "n_files")


# Arrays built and filled one block of events at a time stay in cache.
_BLOCK = 1 << 14


def _inverse_cdf(cdf: np.ndarray, draw, size: int) -> np.ndarray:
    """np.searchsorted(cdf, u) for a nondecreasing cdf and size draws u.

    draw(k) returns the next k draws, each in [0, 1); they are drawn a
    block at a time, so only one block of them is held at once. A guide
    table over M = 2**k >= 4 * len(cdf) equal buckets holds each bucket's
    answer, or -1 where a cdf entry falls inside the bucket and only a
    search can tell. M is a power of two, so u * M is exact.
    """
    m = 1 << (4 * cdf.size - 1).bit_length()
    edges = np.searchsorted(cdf, np.arange(m + 1) / m)
    guide = edges[:-1]
    guide[edges[1:] != guide] = -1
    out = np.empty(size, dtype=np.int64)
    for start in range(0, size, _BLOCK):
        found = out[start : start + _BLOCK]
        block = draw(found.size)
        found[...] = guide[(block * m).astype(np.intp)]
        straddle = np.flatnonzero(found < 0)
        found[straddle] = np.searchsorted(cdf, block[straddle])
    return out


def generate_zipf(config: ZipfConfig) -> Trace:
    """Sample an i.i.d. Zipf trace, deterministic for a given seed."""
    if config.seed is None:
        raise InvalidInputError("ZipfConfig.seed is unresolved")
    ranks = np.arange(1, config.n_files + 1, dtype=np.float64)
    weights = ranks ** -config.alpha
    cdf = np.cumsum(weights / weights.sum())
    rng = np.random.default_rng(config.seed)
    # Generator.random fills in stream order: the blocks draw what one call would
    events = _inverse_cdf(cdf, rng.random, config.total_requests)
    # guard the cdf[-1] < 1.0 rounding corner
    np.minimum(events, config.n_files - 1, out=events)
    events += 1
    return Trace(events=events, n_files=config.n_files)


def generate_round_robin(config: RoundRobinConfig) -> Trace:
    events = np.empty(config.total_requests, dtype=np.int64)
    for start in range(0, events.size, _BLOCK):  # no full-length temporary
        stop = min(start + _BLOCK, events.size)
        events[start:stop] = np.arange(start, stop) % config.n_files + 1
    return Trace(events=events, n_files=config.n_files)


def _dense_remap(events: np.ndarray) -> tuple[np.ndarray, int]:
    """Relabel ids 1..K in order of first appearance; returns (ids, K).

    Consumes events: the relabeled ids are written over it.
    """
    # A table indexed by id holds each id's first position: scattering
    # positions a block at a time, latest block first and each block in
    # reverse, leaves each id's earliest one, and unseen ids keep the
    # sentinel n, so they sort last. Ids above n are first packed in
    # place to 0..K-1, their ranks among the sorted distinct ids, a block
    # at a time, so the table never exceeds n + 1.
    n = events.size
    if events.max() > n:
        distinct = np.unique(events)
        for start in range(0, n, _BLOCK):
            block = events[start : start + _BLOCK]
            block[...] = np.searchsorted(distinct, block)
        del distinct
    first = np.full(int(events.max()) + 1, n, dtype=np.int64)
    for stop in range(n, 0, -_BLOCK):
        start = max(0, stop - _BLOCK)
        first[events[start:stop][::-1]] = np.arange(stop - 1, start - 1, -1)
    catalog = int(np.count_nonzero(first < n))
    order = np.argsort(first)
    # each id's rank overwrites its position in the table, a block at a time
    for lo in range(0, order.size, _BLOCK):
        hi = min(lo + _BLOCK, order.size)
        first[order[lo:hi]] = np.arange(lo + 1, hi + 1)
    del order
    # every id indexes the table; mode="raise" would buffer a full copy
    return np.take(first, events, out=events, mode="clip"), catalog


def _read_line(line: str) -> bool:
    # the grammar's one skip rule, shared by the line loop and NumPy's
    # second input: blank, whitespace-only and '#' lines are skipped
    text = line.strip()
    return bool(text) and not text.startswith("#")


def _parse_fast(path: str) -> np.ndarray | None:
    # NumPy's C parser accepts a subset of the line grammar with equal
    # values: no '1_000', no id beyond int64, and no line the grammar
    # skips. It reads the file itself first and, if it refuses that, the
    # lines _read_line keeps, so "5 # c" is refused on both. None means
    # both were refused.
    def load(lines):
        return np.loadtxt(
            lines, dtype=np.int64, delimiter=",", usecols=0, comments=None,
            ndmin=2, encoding="utf-8-sig",
        )

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                events = load(path)
            except (ValueError, Warning):
                with open(path, "r", encoding="utf-8-sig") as fh:
                    events = load(filter(_read_line, fh))
    except (OSError, ValueError, Warning):
        return None
    # ndmin=2 gives an (n, 1) array that owns its buffer, where ndmin=1
    # gives a view of one; made 1-d in place, _batch_in_place can shrink it
    events.resize(events.size)
    return events


def _parse_lines(path: str, n_files: int | None) -> np.ndarray:
    # The trace file grammar, one line at a time, and the source of every
    # parse error. Undecodable bytes are escaped on read so that the line
    # holding them can be named.
    raw = []
    try:
        fh = open(path, "r", encoding="utf-8-sig", errors="surrogateescape")
    except OSError as exc:
        raise TraceParseError(f"{path}: cannot read trace file: {exc.strerror}") from None
    with fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise TraceParseError(f"{path}:{lineno}: not valid UTF-8") from None
            if not _read_line(line):
                continue
            field = line.split(",", 1)[0].strip()
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
            if value > _MAX_ID:
                raise TraceParseError(
                    f"{path}:{lineno}: file id {value} does not fit in 64 bits"
                )
            if n_files is not None and value > n_files:
                raise TraceParseError(
                    f"{path}:{lineno}: id {value} exceeds declared catalog size {n_files}"
                )
            raw.append(value)
    if not raw:
        raise TraceParseError(f"{path}: no request events found")
    return np.asarray(raw, dtype=np.int64)


def read_trace_file(path: str, remap: bool = True, n_files: int | None = None) -> Trace:
    """Parse a trace file into a Trace.

    Format: one request per line, the file id as a positive integer.
    Blank lines and lines starting with '#' are skipped, as is a leading
    UTF-8 byte-order mark. A second comma-separated field (e.g. a
    timestamp) is tolerated and ignored.

    With remap=True (default) ids are relabeled densely 1..K in order of
    first appearance and the catalog size is K. With remap=False the ids
    are kept as-is and n_files must be supplied; with remap=True it must not.

    Every bad file raises TraceParseError naming the path, and the line
    where there is one.
    """
    if remap == (n_files is not None):
        raise InvalidInputError("give n_files if and only if remap is false")
    # a pipe or other non-regular file may be read only once, so it goes
    # straight to the line loop
    events = _parse_fast(path) if os.path.isfile(path) else None
    if (
        events is None
        or events.size == 0
        or events.min() < 1
        or (n_files is not None and events.max() > n_files)
    ):
        # the line loop raises the error, or reads what NumPy refused
        events = _parse_lines(path, n_files)
    if remap:
        events, catalog = _dense_remap(events)
        return Trace(events=events, n_files=catalog)
    return Trace(events=events, n_files=n_files)


def _decimal_lines(events: np.ndarray):
    """Yield the bytes of "%d\\n" for each positive int64 id, a block at a time."""
    # A line is laid out as `groups` words of 4 ASCII digits, most
    # significant first, then a word whose first byte is the newline; a
    # mask keeps the line's significant digits and its newline. The digit
    # words are built from bytes and the newline is set through the byte
    # view, so the output does not depend on byte order.
    digits = len(str(int(events.max())))
    groups = -(-digits // 4)
    width = 4 * groups
    value = np.arange(10_000)
    table = np.empty((10_000, 4), dtype=np.uint8)
    for k in range(4):
        table[:, 3 - k] = ord("0") + value // 10**k % 10
    table = table.view(np.uint32).ravel()
    # keep[d] selects the last d + 1 digits and the newline
    keep = np.zeros((width, width + 4), dtype=bool)
    for d in range(width):
        keep[d, width - 1 - d : width + 1] = True
    for start in range(0, events.size, _BLOCK):
        block = events[start : start + _BLOCK]
        words = np.empty((block.size, groups + 1), dtype=np.uint32)
        rest = block
        for g in range(groups - 1, 0, -1):
            rest, low = np.divmod(rest, 10_000)
            words[:, g] = table[low]
        words[:, 0] = table[rest]
        raw = words.view(np.uint8)
        raw[:, width] = ord("\n")
        more = np.zeros(block.size, dtype=np.intp)  # digits - 1
        for k in range(1, digits):
            more += block >= 10**k
        yield raw[np.take(keep, more, axis=0)]


def write_trace_file(path: str, trace: Trace) -> None:
    """Write a trace in the format read_trace_file accepts, via temp file + rename.

    Each event is written as "%d\\n" % id would write it.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for lines in _decimal_lines(trace.events):
                fh.write(lines)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


@dataclass(frozen=True)
class SlottedTrace:
    """A request sequence cut into slots of batch_size requests, in CSR form.

    events holds the 0-based file index of every request. Slot t requests
    the strictly increasing files ids[offsets[t]:offsets[t + 1]], each as
    often as counts at the same position says. events, ids and counts are
    int32, so n_files and batch_size are at most 2**31 - 1; offsets is
    int64. Events of another dtype are range-checked, then narrowed. The
    CSR arrays are built a block of slots at a time, so no full-length
    temporary is made beside events, ids and counts.
    """

    events: np.ndarray
    n_files: int
    batch_size: int
    horizon: int = field(init=False)
    ids: np.ndarray = field(init=False, repr=False)
    counts: np.ndarray = field(init=False, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)
    _totals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _check_count(self.n_files, "n_files")
        _check_count(self.batch_size, "batch_size")
        events = np.asarray(self.events)
        b = self.batch_size
        if events.ndim != 1 or events.size == 0 or events.size % b:
            raise InvalidInputError("events must fill whole slots of batch_size")
        if events.min() < 0 or events.max() >= self.n_files:
            raise InvalidInputError("event indices must lie in [0, n_files)")
        events = events.astype(np.int32, copy=False)
        # sort each slot's requests, then run-length encode the rows: a run
        # starts at every row's first entry and wherever the index changes.
        # The runs fill buffers as long as the events, cut to size at the end.
        horizon, span = events.size // b, max(1, _BLOCK // b)
        ids = np.empty(events.size, dtype=np.int32)
        counts = np.empty(events.size, dtype=np.int32)
        offsets = np.zeros(horizon + 1, dtype=np.int64)
        runs = 0
        for t in range(0, horizon, span):
            rows = np.sort(events[t * b : (t + span) * b].reshape(-1, b), axis=1)
            starts = np.ones(rows.shape, dtype=bool)
            np.not_equal(rows[:, 1:], rows[:, :-1], out=starts[:, 1:])
            first = np.flatnonzero(starts)
            end = runs + first.size
            ids[runs:end] = rows.ravel()[first]
            counts[runs:end] = np.diff(first, append=rows.size)
            offsets[t + 1 : t + 1 + rows.shape[0]] = np.count_nonzero(starts, axis=1)
            runs = end
        np.cumsum(offsets, out=offsets)
        ids.resize(runs, refcheck=False)  # in place: the unused tail was never written
        counts.resize(runs, refcheck=False)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "offsets", offsets)
        # NumPy bincounts intp: a block at a time keeps its copy of the
        # events short, and a block of at least n_files keeps the adds linear
        totals = np.zeros(self.n_files, dtype=np.int64)
        step = max(_BLOCK, self.n_files)
        for start in range(0, events.size, step):
            totals += np.bincount(events[start : start + step], minlength=self.n_files)
        totals.flags.writeable = False  # shared by every caller
        object.__setattr__(self, "_totals", totals)

    def totals(self) -> np.ndarray:
        """Dense int64 request count of every file over all slots (read-only)."""
        return self._totals


def _slotted_length(trace: Trace, batch_size: int) -> int:
    # the events that fill whole slots, once batch_size fits the trace
    if not 1 <= batch_size <= trace.events.size:
        raise InvalidInputError(
            f"batch_size must be in [1, {trace.events.size}], the trace's "
            f"length, got {batch_size}"
        )
    return trace.events.size // batch_size * batch_size


def _narrow(events: np.ndarray, n_files: int, out: np.ndarray) -> None:
    """Write each id of events less one into int32 out, a block at a time.

    Each block's ids are checked against n_files while still wide, then
    shifted and narrowed. out may be the int32 view of the events' own
    buffer: block [lo, hi) then lands on bytes that held ids below hi,
    which are already read.
    """
    _check_count(n_files, "n_files")
    for start in range(0, out.size, _BLOCK):
        block = events[start : start + _BLOCK]
        if block.min() < 1 or block.max() > n_files:
            raise InvalidInputError("event ids must lie in [1, n_files]")
        out[start : start + _BLOCK] = block - 1


def batch_trace(trace: Trace, batch_size: int) -> SlottedTrace:
    """Cut a trace into consecutive slots of exactly batch_size requests.

    A trailing partial batch is discarded, so the horizon is
    len(events) // batch_size. Raises if the trace is shorter than one
    batch. The trace is left as it is: the slots hold a 0-based int32 copy.
    """
    used = _slotted_length(trace, batch_size)
    events = np.empty(used, dtype=np.int32)
    _narrow(trace.events[:used], trace.n_files, events)
    return SlottedTrace(events, trace.n_files, batch_size)


def _batch_in_place(trace: Trace, batch_size: int) -> SlottedTrace:
    """batch_trace without the copy, for a trace nothing else holds.

    Consumes the trace: its events are taken out of it and narrowed to
    0-based int32 over the front of their own buffer, which the slotted
    events view. The buffer is then cut to that front, which frees half
    of it, unless NumPy refuses because the buffer is not the array's
    own or something else holds it. Every trace the engine builds owns
    its buffer (see _parse_fast).
    """
    used = _slotted_length(trace, batch_size)
    events = vars(trace).pop("events")  # frozen, but consumed: now its one holder
    _narrow(events[:used], trace.n_files, events.view(np.int32)[:used])
    with contextlib.suppress(ValueError):  # refused if held elsewhere, by a debugger say
        events.resize(-(-used // 2))
    return SlottedTrace(events.view(np.int32)[:used], trace.n_files, batch_size)
