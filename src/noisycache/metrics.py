"""Run-level metrics: miss ratios, the perturbation scale, regret bounds, deciles.

A run produces a length-T per-slot cost series, and M runs an M x T
matrix of them; everything here is a pure function of such series (plus
the problem geometry), so the same metrics apply whether a series came
from the engine or was computed by hand in a test. A policy's regret is
one subtraction, its mean cumulative cost minus the optimum's, which
the engine's PolicyReport holds next to regret_bound at the policy's eta.
"""

import math

import numpy as np

from .core import InvalidInputError
from .estimators import BoundParams


def average_miss_ratio(costs, batch_size: int) -> np.ndarray:
    """Running mean miss ratio: cumsum(costs) / (batch_size * t), t = 1..T.

    costs is one length-T series or an M x T matrix of them, one row per
    run; each row's ratios are those of the row on its own.
    """
    arr = np.asarray(costs, dtype=np.float64)
    if arr.ndim not in (1, 2) or arr.size < 1:
        raise InvalidInputError("costs must be a non-empty series or M x T matrix")
    if batch_size < 1:
        raise InvalidInputError("batch_size must be >= 1")
    if arr.min() < 0 or arr.max() > batch_size:
        raise InvalidInputError("per-slot costs must lie in [0, batch_size]")
    slots = np.arange(1, arr.shape[-1] + 1, dtype=np.float64)
    return np.cumsum(arr, axis=-1) / (batch_size * slots)


def compute_eta(bounds: BoundParams, horizon: int) -> float:
    """sqrt(cost_bound * l1_bound * horizon / diameter), the eta minimising regret_bound.

    Requires a positive diameter (a cache that holds everything, or
    nothing, has no decision to make).
    """
    if horizon < 1:
        raise InvalidInputError(f"horizon must be >= 1, got {horizon}")
    if bounds.diameter <= 0:
        raise InvalidInputError("diameter must be positive to set a perturbation scale")
    return math.sqrt(bounds.cost_bound * bounds.l1_bound * horizon / bounds.diameter)


def regret_bound(bounds: BoundParams, horizon: int, eta: float) -> float:
    """Expected regret bound eta * diameter + cost_bound * l1_bound * horizon / eta.

    Kalai & Vempala's additive bound for perturbations uniform on [0, eta]^N.
    """
    if horizon < 1:
        raise InvalidInputError(f"horizon must be >= 1, got {horizon}")
    if not eta > 0:
        raise InvalidInputError(f"eta must be > 0 for a regret bound, got {eta}")
    return eta * bounds.diameter + bounds.cost_bound * bounds.l1_bound * horizon / eta


def decile_band(ratios) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean and nearest-rank 10th/90th percentile bands across runs.

    ratios is an M x T matrix (one row per run). The nearest-rank
    percentile at level q is the sorted column's entry ceil(q * M) - 1,
    so with M = 1 both bands coincide with the single run.

    Returns (mean, d1, d9), each length T.
    """
    arr = np.asarray(ratios, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InvalidInputError("ratios must be a non-empty M x T matrix")
    m = arr.shape[0]
    ordered = np.sort(arr, axis=0)
    d1 = ordered[math.ceil(0.1 * m) - 1].copy()
    d9 = ordered[math.ceil(0.9 * m) - 1].copy()
    return arr.mean(axis=0), d1, d9
