"""Decision-space primitives for cache simulation.

A catalog holds N files, a cache holds C of them, and requests arrive in
batches of B over T slots. A traces.SlottedTrace owns N, B and T; C is
an argument of each function that needs it. A decision is a length-N
binary vector x with exactly N - C ones, where x[i] = 1 means file i is
NOT cached; the per-batch cost <r, x> then counts cache misses. The
oracle below returns the exact cheapest decision for a given score
vector.

File indices are 0-based throughout the vector API. The traces module
owns the 1-based external id convention and converts at the boundary.
"""

import numpy as np


class InvalidInputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class CacheSizeError(InvalidInputError):
    """Raised for a cache size outside [1, N], or one the engine cannot use."""


def check_cache_size(cache_size: int, n_files) -> None:
    if not 1 <= cache_size <= n_files:
        raise CacheSizeError(f"cache_size must be in [1, {n_files}], got {cache_size}")


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
    if recency is not None:
        recency = np.asarray(recency)
        if recency.shape != score.shape:
            raise InvalidInputError("recency must match score's length")
    return _top_c(score, cache_size, recency)


def _top_c(score: np.ndarray, cache_size: int, recency=None) -> np.ndarray:
    """oracle_minimize without its checks, for callers that made them once."""
    n = score.size
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
            order = np.lexsort((tied, -recency[tied]))
            pick = tied[order[:need]]
        missing[pick] = 0
    return missing

