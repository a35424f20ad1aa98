"""Decision-space primitives for cache simulation.

A catalog holds N files, a cache holds C of them, and requests arrive in
batches of B. A decision is a length-N binary vector x with exactly N - C
ones, where x[i] = 1 means file i is NOT cached; the per-batch cost
<r, x> then counts cache misses. The oracle below returns the exact
cheapest decision for a given score vector.

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

