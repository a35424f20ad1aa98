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

policies.step_perturbed_leaders draws a block of slots at a time
(estimate_block); its docstring says when that equals per-slot draws.

The bound parameters below feed the perturbation-scale and regret-bound
formulas: the fixed subsample keeps estimate l1 mass at exactly
batch_size, while bernoulli thinning can concentrate up to
batch_size / rate on a single file.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import CatalogConfig, InvalidInputError, RequestBatch


class EstimatorKind(Enum):
    EXACT = "exact"
    FIXED_SUBSAMPLE = "fixed"
    BERNOULLI = "bernoulli"


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
            if self.rate is None or not 0.0 < self.rate <= 1.0:
                raise InvalidInputError(
                    f"rate must be in (0, 1], got {self.rate}"
                )
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


def estimate_on_ids(
    spec: EstimatorSpec, counts: np.ndarray, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Draw one estimate restricted to a batch's requested files.

    counts is the batch's sparse count vector (RequestBatch.counts); the
    result is float64 and aligned with it, so entry i estimates counts[i].
    No input checks: callers validate the batch and rng once, up front.
    """
    if spec.kind is EstimatorKind.EXACT:
        return counts.astype(np.float64)
    if spec.kind is EstimatorKind.FIXED_SUBSAMPLE:
        kept = rng.multivariate_hypergeometric(counts, spec.subsample)
        return kept * (spec.batch_size / spec.subsample)
    return rng.binomial(counts, spec.rate) / spec.rate


def estimate_block(
    spec: EstimatorSpec, counts: np.ndarray, offsets: np.ndarray, rng, out: np.ndarray
) -> None:
    """Fill out[:counts.size] with estimate_on_ids of each slot of a block.

    Slot s owns counts[offsets[s]:offsets[s + 1]], with offsets[0] == 0.
    Binomial draws go element by element, so one call covers the block.
    """
    if spec.full_rate:
        out[: counts.size] = counts
    elif spec.kind is EstimatorKind.BERNOULLI:
        np.divide(rng.binomial(counts, spec.rate), spec.rate, out=out[: counts.size])
    else:
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            out[lo:hi] = estimate_on_ids(spec, counts[lo:hi], rng)


def estimate(
    spec: EstimatorSpec, batch: RequestBatch, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Draw one estimate of the batch's count vector (dense float64).

    The sampling estimators consume `rng`; the exact estimator ignores
    it. Estimates are nonnegative, supported on the batch's files, and
    unbiased.
    """
    if batch.total != spec.batch_size:
        raise InvalidInputError(
            f"batch holds {batch.total} events, estimator expects {spec.batch_size}"
        )
    if rng is None and spec.kind is not EstimatorKind.EXACT:
        raise InvalidInputError(f"{spec.kind.value} estimation requires an rng")
    out = np.zeros(batch.n_files, dtype=np.float64)
    out[batch.ids] = estimate_on_ids(spec, batch.counts, rng)
    return out


def bound_params(spec: EstimatorSpec, catalog: CatalogConfig) -> BoundParams:
    """Bound parameters for this estimator on this problem geometry."""
    if spec.batch_size != catalog.batch_size:
        raise InvalidInputError(
            f"estimator batch size {spec.batch_size} does not match "
            f"catalog batch size {catalog.batch_size}"
        )
    diameter = 2 * min(catalog.cache_size, catalog.n_files - catalog.cache_size)
    if spec.kind is EstimatorKind.BERNOULLI:
        mass = catalog.batch_size / spec.rate
    else:
        mass = float(catalog.batch_size)
    return BoundParams(cost_bound=mass, l1_bound=mass, diameter=diameter)
