"""Run-level metrics: miss ratios, regret, deciles.

A run produces a length-T per-slot cost series; everything here is a
pure function of such series (plus the problem geometry), so the same
metrics apply whether a series came from the engine or was computed by
hand in a test.
"""

from dataclasses import dataclass
import math

import numpy as np

from .core import InvalidInputError
from .estimators import BoundParams


@dataclass
class RunSeries:
    """One policy run: per-slot costs plus what the run accumulated.

    estimate_totals holds the policy's final accumulated estimate vector
    (None for policies that never estimate).
    """

    policy: str
    run: int
    costs: np.ndarray
    estimate_totals: np.ndarray | None = None


@dataclass(frozen=True)
class RegretReport:
    """Cumulative cost vs the best fixed decision, with the a priori bound."""

    cumulative_cost: float
    opt_cost: int
    regret: float
    bound: float | None


def average_miss_ratio(costs, batch_size: int) -> np.ndarray:
    """Running mean miss ratio: cumsum(costs) / (batch_size * t), t = 1..T."""
    arr = np.asarray(costs, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise InvalidInputError("costs must be a non-empty 1-d series")
    if batch_size < 1:
        raise InvalidInputError("batch_size must be >= 1")
    if arr.min() < 0 or arr.max() > batch_size:
        raise InvalidInputError("per-slot costs must lie in [0, batch_size]")
    slots = np.arange(1, arr.size + 1, dtype=np.float64)
    return np.cumsum(arr) / (batch_size * slots)


def empirical_regret(
    cumulative_cost: float, optimum: int, bound: float | None = None
) -> RegretReport:
    """Regret of a realized (or run-averaged) cumulative cost vs the optimum.

    Can be negative for a single noisy run; the guarantee is about the
    expectation, which `bound` (when given) upper-bounds.
    """
    if cumulative_cost < 0 or optimum < 0:
        raise InvalidInputError("costs must be nonnegative")
    return RegretReport(
        cumulative_cost=float(cumulative_cost),
        opt_cost=int(optimum),
        regret=float(cumulative_cost) - int(optimum),
        bound=bound,
    )


def regret_bound(bounds: BoundParams, horizon: int) -> float:
    """A priori regret bound 2 * sqrt(cost_bound * l1_bound * diameter * horizon)."""
    if horizon < 1:
        raise InvalidInputError(f"horizon must be >= 1, got {horizon}")
    return 2.0 * math.sqrt(
        bounds.cost_bound * bounds.l1_bound * bounds.diameter * horizon
    )


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
