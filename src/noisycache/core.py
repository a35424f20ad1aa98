"""Decision-space primitives for cache simulation.

A catalog holds N files, a cache holds C of them, and requests arrive in
batches of B. A decision is a length-N binary vector x with exactly N - C
ones, where x[i] = 1 means file i is NOT cached; the per-batch cost
<r, x> then counts cache misses. The oracle below returns the exact
cheapest decision for a given score vector, which every leader-style
policy in this package is built on.

File indices are 0-based throughout the vector API. The traces module
owns the 1-based external id convention and converts at the boundary.
"""

from dataclasses import dataclass

import numpy as np


class InvalidInputError(ValueError):
    """Raised when an argument violates a documented precondition."""


@dataclass(frozen=True)
class CatalogConfig:
    """Problem dimensions: catalog size, cache capacity, batch size, horizon."""

    n_files: int
    cache_size: int
    batch_size: int
    horizon: int

    def __post_init__(self):
        if self.n_files < 1:
            raise InvalidInputError(f"n_files must be >= 1, got {self.n_files}")
        if not 1 <= self.cache_size <= self.n_files:
            raise InvalidInputError(
                f"cache_size must be in [1, {self.n_files}], got {self.cache_size}"
            )
        if self.batch_size < 1:
            raise InvalidInputError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.horizon < 1:
            raise InvalidInputError(f"horizon must be >= 1, got {self.horizon}")


@dataclass(frozen=True)
class RequestBatch:
    """Request counts for one batch, stored sparsely.

    ids holds the distinct 0-based file indices requested in this batch
    (strictly increasing) and counts the per-file request counts, so
    counts.sum() equals the batch size. n_files is the catalog size the
    indices live in; dense() scatters the counts into a length-n_files
    vector when a policy needs one.
    """

    ids: np.ndarray
    counts: np.ndarray
    n_files: int

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=np.int64)
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "counts", counts)
        if ids.ndim != 1 or counts.ndim != 1 or ids.shape != counts.shape:
            raise InvalidInputError("ids and counts must be 1-d arrays of equal length")
        if ids.size == 0:
            raise InvalidInputError("a batch must contain at least one request")
        if ids[0] < 0 or ids[-1] >= self.n_files or np.any(np.diff(ids) <= 0):
            raise InvalidInputError(
                "ids must be strictly increasing indices in [0, n_files)"
            )
        if np.any(counts < 1):
            raise InvalidInputError("counts must all be >= 1")

    @classmethod
    def from_counts(cls, counts) -> "RequestBatch":
        """Build a batch from a dense length-N count vector."""
        dense = np.asarray(counts, dtype=np.int64)
        if dense.ndim != 1:
            raise InvalidInputError("counts must be a 1-d vector")
        ids = np.flatnonzero(dense > 0)
        return cls(ids=ids, counts=dense[ids], n_files=dense.size)

    @property
    def total(self) -> int:
        """Number of requests in the batch."""
        return int(self.counts.sum())

    def dense(self) -> np.ndarray:
        """Length-n_files int64 count vector."""
        out = np.zeros(self.n_files, dtype=np.int64)
        out[self.ids] = self.counts
        return out


def _check_vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise InvalidInputError(f"{name} must be a non-empty 1-d vector")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} must be finite")
    return arr


def oracle_minimize(score, cache_size: int, recency=None) -> np.ndarray:
    """Return the feasible decision minimizing <score, x>.

    Equivalently: cache the cache_size files with the largest scores,
    leave the rest missing (x[i] = 1). Boundary ties go to the lowest
    index, or, given a recency vector (larger stamp = more recently
    requested), to the largest stamps first and then the lowest index.

    Returns a length-N int8 vector with exactly N - cache_size ones.
    """
    score = _check_vector(score, "score")
    n = score.size
    if not 0 <= cache_size <= n:
        raise InvalidInputError(f"cache_size must be in [0, {n}], got {cache_size}")

    missing = np.ones(n, dtype=np.int8)
    if cache_size == 0:
        return missing
    if cache_size == n:
        missing[:] = 0
        return missing

    # Score of the cache_size-th largest entry: everything strictly above
    # it is cached outright, the remaining slots go to tied entries.
    kth = np.partition(score, n - cache_size)[n - cache_size]
    above = score > kth
    missing[above] = 0
    need = cache_size - int(above.sum())
    if need > 0:
        tied = np.flatnonzero(score == kth)
        if recency is None:
            pick = tied[:need]
        else:
            stamps = np.asarray(recency)
            if stamps.shape != score.shape:
                raise InvalidInputError("recency must match score's length")
            order = np.lexsort((tied, -stamps[tied]))
            pick = tied[order[:need]]
        missing[pick] = 0
    return missing


def cost(batch: RequestBatch, missing) -> int:
    """Cache misses <r, x> paid by decision `missing` on `batch`."""
    x = np.asarray(missing)
    if x.ndim != 1 or x.size != batch.n_files:
        raise InvalidInputError(
            f"decision must be a length-{batch.n_files} vector"
        )
    if not np.all((x == 0) | (x == 1)):
        raise InvalidInputError("decision entries must be 0 or 1")
    return int(batch.counts @ x[batch.ids])
