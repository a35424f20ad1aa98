"""Request trace generation, file I/O, and batching.

A trace is an ordered sequence of 1-based file ids over a catalog of
n_files. Traces come from three sources: a Zipf sampler, a round-robin
generator, or a text file (one id per line). batch_trace cuts a trace
into slots of fixed-size request batches, a SlottedTrace in the 0-based
index space the rest of the package works in.
"""

from dataclasses import dataclass, field
import math
import os
import warnings

import numpy as np

from .core import InvalidInputError


class TraceParseError(ValueError):
    """Raised when a trace file cannot be parsed; message carries line numbers."""


_MAX_ID = int(np.iinfo(np.int64).max)


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
        if self.n_files < 1:
            raise InvalidInputError("n_files must be >= 1")
        if not math.isfinite(self.alpha) or self.alpha < 0:
            raise InvalidInputError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.total_requests < 1:
            raise InvalidInputError("total_requests must be >= 1")
        if self.seed is not None and self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class RoundRobinConfig:
    """Deterministic cycle 1, 2, ..., n_files, 1, 2, ..."""

    n_files: int
    total_requests: int

    def __post_init__(self):
        if self.n_files < 1:
            raise InvalidInputError("n_files must be >= 1")
        if self.total_requests < 1:
            raise InvalidInputError("total_requests must be >= 1")


@dataclass(frozen=True)
class TraceFileConfig:
    """A trace loaded from disk; see read_trace_file for the format."""

    path: str
    remap: bool = True
    n_files: int | None = None

    def __post_init__(self):
        if self.remap == (self.n_files is not None):
            raise InvalidInputError("give n_files if and only if remap is false")


def generate_zipf(config: ZipfConfig) -> Trace:
    """Sample an i.i.d. Zipf trace, deterministic for a given seed."""
    if config.seed is None:
        raise InvalidInputError("ZipfConfig.seed is unresolved")
    ranks = np.arange(1, config.n_files + 1, dtype=np.float64)
    weights = ranks ** -config.alpha
    cdf = np.cumsum(weights / weights.sum())
    rng = np.random.default_rng(config.seed)
    draws = np.searchsorted(cdf, rng.random(config.total_requests))
    # guard the cdf[-1] < 1.0 rounding corner
    events = np.minimum(draws, config.n_files - 1) + 1
    return Trace(events=events, n_files=config.n_files)


def generate_round_robin(config: RoundRobinConfig) -> Trace:
    events = np.arange(config.total_requests, dtype=np.int64) % config.n_files + 1
    return Trace(events=events, n_files=config.n_files)


def _dense_remap(events: np.ndarray) -> tuple[np.ndarray, int]:
    # relabel ids 1..K in order of first appearance; scattering positions
    # in reverse leaves each id's earliest one, with no stable sort
    uniq, inverse = np.unique(events, return_inverse=True)
    first = np.empty(uniq.size, dtype=np.int64)
    first[inverse[::-1]] = np.arange(events.size - 1, -1, -1)
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(1, uniq.size + 1)
    return rank[inverse], int(uniq.size)


def _parse_fast(path: str) -> np.ndarray | None:
    # NumPy's C parser accepts a subset of the line grammar with equal
    # values: no '#' or whitespace-only lines (comments=None keeps "5 # c"
    # an error), no '1_000', no id beyond int64. None means it refused.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(
                path, dtype=np.int64, delimiter=",", usecols=0,
                comments=None, ndmin=1, encoding="utf-8",
            )
    except (OSError, ValueError, Warning):
        return None


def _parse_lines(path: str, n_files: int | None) -> np.ndarray:
    # The trace file grammar, one line at a time, and the source of every
    # parse error. Undecodable bytes are escaped on read so that the line
    # holding them can be named.
    raw = []
    try:
        fh = open(path, "r", encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise TraceParseError(f"{path}: cannot read trace file: {exc.strerror}") from None
    with fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise TraceParseError(f"{path}:{lineno}: not valid UTF-8") from None
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
    Blank lines and lines starting with '#' are skipped. A second
    comma-separated field (e.g. a timestamp) is tolerated and ignored.

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


def write_trace_file(path: str, trace: Trace) -> None:
    """Write a trace in the format read_trace_file accepts, via temp file + rename."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(("%d\n" * trace.events.size) % tuple(trace.events.tolist()))
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
    often as counts at the same position says.
    """

    events: np.ndarray
    n_files: int
    batch_size: int
    horizon: int = field(init=False)
    ids: np.ndarray = field(init=False, repr=False)
    counts: np.ndarray = field(init=False, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        events = np.asarray(self.events, dtype=np.int64)
        b = self.batch_size
        if b < 1 or events.ndim != 1 or events.size == 0 or events.size % b:
            raise InvalidInputError("events must fill whole slots of batch_size >= 1")
        if events.min() < 0 or events.max() >= self.n_files:
            raise InvalidInputError("event indices must lie in [0, n_files)")
        # sort each slot's requests, then run-length encode the rows: a run
        # starts at every row's first entry and wherever the index changes
        rows = np.sort(events.reshape(-1, b), axis=1)
        starts = np.ones(rows.shape, dtype=bool)
        np.not_equal(rows[:, 1:], rows[:, :-1], out=starts[:, 1:])
        ids = rows[starts]
        del rows  # free the sorted copy before the run lengths are built
        bounds = np.flatnonzero(np.append(starts, True))
        offsets = np.zeros(starts.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.count_nonzero(starts, axis=1), out=offsets[1:])
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "horizon", starts.shape[0])
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "counts", np.diff(bounds))
        object.__setattr__(self, "offsets", offsets)

    def totals(self) -> np.ndarray:
        """Dense int64 request count of every file over all slots."""
        return np.bincount(self.events, minlength=self.n_files)


def batch_trace(trace: Trace, batch_size: int) -> SlottedTrace:
    """Cut a trace into consecutive slots of exactly batch_size requests.

    A trailing partial batch is discarded, so the horizon is
    len(events) // batch_size. Raises if the trace is shorter than one
    batch.
    """
    if not 1 <= batch_size <= trace.events.size:
        raise InvalidInputError(
            f"batch_size must be in [1, {trace.events.size}], the trace's "
            f"length, got {batch_size}"
        )
    horizon = trace.events.size // batch_size
    return SlottedTrace(
        trace.events[: horizon * batch_size] - 1, trace.n_files, batch_size
    )
