"""Decision-space primitives for cache simulation.

A catalog holds N files, a cache holds C of them, and requests arrive in
batches of B over T slots. A traces.SlottedTrace owns N, B and T; C is
an argument of each function that needs it. A cache is a length-N bool
mask with exactly C entries set, True meaning the file is cached; a
slot's misses are its requests for the files left out. The static
optimum and both leaders pick their caches with top_c, the one top-C
oracle: caching the C largest scores leaves out the least total score.

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


def top_c(score: np.ndarray, cache_size: int, out=None) -> np.ndarray:
    """Bool mask of each row's cache_size largest scores, ties to the lowest index.

    score is length-N or rows x N; out, if given, is a C-contiguous bool
    array of score's shape that receives the mask. Nothing is checked:
    callers pass 1 <= cache_size <= N and scores without NaN.
    """
    n = score.shape[-1]
    kth = np.partition(score, n - cache_size, axis=-1)[..., n - cache_size, None]
    # everything at or above each row's C-th largest score; rows with
    # boundary ties hold too many and drop their highest tied indices.
    # No row holds fewer than C, so one total finds whether any tie.
    cached = np.greater_equal(score, kth, out=out)
    if np.count_nonzero(cached) > cached.size // n * cache_size:
        rows, scores, kths = cached.reshape(-1, n), score.reshape(-1, n), kth.ravel()
        excess = np.count_nonzero(rows, axis=1) - cache_size
        for k in np.flatnonzero(excess):
            tied = np.flatnonzero(scores[k] == kths[k])
            rows[k, tied[tied.size - excess[k] :]] = False
    return cached
