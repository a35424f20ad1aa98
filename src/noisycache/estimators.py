"""Request-count estimators.

A policy never has to see the true batch counts r. It sees an estimate
r_hat produced by one of three estimators, each unbiased (E[r_hat] = r):

- exact: r_hat = r (the degenerate, fully observed case);
- fixed subsample: keep exactly `subsample` of the batch's events,
  chosen uniformly without replacement, count per file, and rescale by
  batch_size / subsample. The per-file kept counts follow a multivariate
  hypergeometric law over the batch's count vector, which is how the
  draw is implemented (no event materialization);
- bernoulli: keep each event independently with probability `rate` and
  rescale by 1 / rate, i.e. a binomial thinning of each file's count.

estimate_block draws the estimates of a block of consecutive slots of a
slotted trace; policies.step_perturbed_leaders is its one caller. Its
fixed subsample calls NumPy's own C routine, the one behind
Generator.multivariate_hypergeometric, through ctypes on each row's bit
generator, so the draws are that method's. The routine is resolved and
probed against the method once; if it is missing or disagrees, the
method runs once per slot instead.

bound_params feeds the perturbation-scale and regret-bound formulas from
the estimator, which carries B, and from N and C alone: the fixed
subsample keeps estimate l1 mass at exactly batch_size, while bernoulli
thinning can concentrate up to batch_size / rate on a single file.
"""

import ctypes
from dataclasses import dataclass
from enum import Enum
import functools
import sys

import numpy as np

from .core import InvalidInputError


class EstimatorKind(Enum):
    EXACT = "exact"
    FIXED_SUBSAMPLE = "fixed"
    BERNOULLI = "bernoulli"


def check_rate(rate, what: str = "rate") -> None:
    """Reject a sampling rate outside (0, 1]; the message starts with what."""
    if rate is None or not 0.0 < rate <= 1.0:
        raise InvalidInputError(f"{what} must be in (0, 1], got {rate}")


@dataclass(frozen=True)
class EstimatorSpec:
    """Which estimator to run and its parameters.

    batch_size is the number of events per batch the estimator expects;
    subsample applies to FIXED_SUBSAMPLE (events kept per batch) and
    rate to BERNOULLI (per-event keep probability).
    """

    kind: EstimatorKind
    batch_size: int
    subsample: int | None = None
    rate: float | None = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise InvalidInputError("batch_size must be >= 1")
        if self.kind is EstimatorKind.FIXED_SUBSAMPLE:
            if self.subsample is None or not 1 <= self.subsample <= self.batch_size:
                raise InvalidInputError(
                    f"subsample must be in [1, {self.batch_size}], got {self.subsample}"
                )
            if self.rate is not None:
                raise InvalidInputError("rate does not apply to the fixed subsampler")
        elif self.kind is EstimatorKind.BERNOULLI:
            check_rate(self.rate)
            if self.subsample is not None:
                raise InvalidInputError("subsample does not apply to bernoulli")
        else:
            if self.subsample is not None or self.rate is not None:
                raise InvalidInputError("exact estimation takes no parameters")

    @property
    def full_rate(self) -> bool:
        """Whether every event is observed, so the estimate is the counts."""
        exact = self.kind is EstimatorKind.EXACT
        return exact or self.rate == 1.0 or self.subsample == self.batch_size

    @classmethod
    def exact(cls, batch_size: int) -> "EstimatorSpec":
        return cls(EstimatorKind.EXACT, batch_size)

    @classmethod
    def fixed_subsample(cls, subsample: int, batch_size: int) -> "EstimatorSpec":
        return cls(EstimatorKind.FIXED_SUBSAMPLE, batch_size, subsample=subsample)

    @classmethod
    def bernoulli(cls, rate: float, batch_size: int) -> "EstimatorSpec":
        return cls(EstimatorKind.BERNOULLI, batch_size, rate=rate)


@dataclass(frozen=True)
class BoundParams:
    """Inputs to the perturbation-scale and regret-bound formulas.

    cost_bound: upper bound on a single slot's estimated cost;
    l1_bound: upper bound on the l1 norm of a single estimate;
    diameter: l1 diameter of the decision set, 2 * min(C, N - C).
    """

    cost_bound: float
    l1_bound: float
    diameter: int


def estimate_block(
    spec: EstimatorSpec, counts: np.ndarray, offsets: np.ndarray, rng, out: np.ndarray
) -> None:
    """Fill out[:counts.size] with one estimate of each slot of a block.

    Slot s owns counts[offsets[s]:offsets[s + 1]], with offsets[0] == 0,
    and its float64 estimate lands at the same positions. Binomial draws
    go element by element, so one call covers the block. The fixed
    subsample calls NumPy's C routine once per slot, under the generator's
    lock and with the slot's total, as Generator.multivariate_hypergeometric
    does, or that method itself if _marginals() found no such routine.
    The caller validates the spec and rng once, up front; only the slot
    bounds that the routine's pointers cover are checked here.
    """
    if spec.full_rate:
        out[: counts.size] = counts
    elif spec.kind is EstimatorKind.BERNOULLI:
        np.divide(rng.binomial(counts, spec.rate), spec.rate, out=out[: counts.size])
    elif (routine := _marginals()) is None:
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            kept = rng.multivariate_hypergeometric(counts[lo:hi], spec.subsample)
            out[lo:hi] = kept * (spec.batch_size / spec.subsample)
    else:
        # the routine reads and writes through raw pointers: check what they cover
        counts, bounds = np.ascontiguousarray(counts, dtype=np.int64), offsets.tolist()
        sizes = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
        if bounds[0] != 0 or bounds[-1] != counts.size or min(sizes, default=1) < 1:
            raise InvalidInputError("offsets must cut counts into non-empty slots")
        kept = np.zeros(counts.size, np.int64)  # the routine writes sampled files only
        totals = np.add.reduceat(counts, offsets[:-1]).tolist()
        at, to = counts.ctypes.data, kept.ctypes.data  # 8 bytes per int64 entry
        bitgen, b = rng.bit_generator.ctypes.bit_generator, spec.subsample
        with rng.bit_generator.lock:
            for lo, n, total in zip(bounds, sizes, totals):
                routine(bitgen, total, n, at + 8 * lo, b, 1, to + 8 * lo)
        np.multiply(kept, spec.batch_size / b, out=out[: counts.size])


@functools.cache
def _marginals():
    """NumPy's random_multivariate_hypergeometric_marginals, or None.

    None unless, on twin generators, it draws what the Generator method
    draws at samples that run both of NumPy's algorithms (< 10 and >= 10)
    and its complement branch (> total / 2), and leaves the same next draw.
    """
    try:
        lib = ctypes.CDLL(sys.modules[np.random.Generator.__module__].__file__)
        routine = lib.random_multivariate_hypergeometric_marginals
    except (AttributeError, OSError):
        return None
    ptr, i64, size = ctypes.c_void_p, ctypes.c_int64, ctypes.c_size_t
    # bitgen_t *, total, num_colors, colors *, nsample, num_variates, variates *
    routine.argtypes, routine.restype = (ptr, i64, size, ptr, i64, size, ptr), None
    colors = np.array([7, 12, 1, 30, 9, 1])
    rng, twin = np.random.default_rng(2309), np.random.default_rng(2309)
    bitgen = rng.bit_generator.ctypes.bit_generator
    for sample in (3, 25, 48):
        kept = np.zeros_like(colors)
        routine(bitgen, 60, 6, colors.ctypes.data, sample, 1, kept.ctypes.data)
        if not np.array_equal(kept, twin.multivariate_hypergeometric(colors, sample)):
            return None
    return routine if rng.random() == twin.random() else None


def bound_params(spec: EstimatorSpec, n_files: int, cache_size: int) -> BoundParams:
    """Bound parameters for this estimator, whose batch_size is B, at N and C."""
    diameter = 2 * min(cache_size, n_files - cache_size)
    if spec.kind is EstimatorKind.BERNOULLI:
        mass = spec.batch_size / spec.rate
    else:
        mass = float(spec.batch_size)
    return BoundParams(cost_bound=mass, l1_bound=mass, diameter=diameter)
