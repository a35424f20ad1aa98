"""Request-count estimators.

A policy never has to see the true batch counts r. It sees an estimate
r_hat produced by one of three estimators, each unbiased (E[r_hat] = r):

- exact: r_hat = r (the degenerate, fully observed case);
- fixed subsample: keep exactly `subsample` of the batch's events,
  chosen uniformly without replacement, count per file, and rescale by
  batch_size / subsample. The per-file kept counts follow a multivariate
  hypergeometric law over the batch's count vector;
- bernoulli: keep each event independently with probability `rate` and
  rescale by 1 / rate, i.e. a binomial thinning of each file's count.

estimate_block turns a block of consecutive slots of a slotted trace,
and one uniform key per event of the block, in sorted order, into the
slots' estimates; policies.step_perturbed_leaders draws the keys and is
its one caller. Bernoulli keeps the events whose keys are below its
rate; the fixed subsample keeps the `subsample` smallest keys of each
slot (Efraimidis & Spirakis, IPL 2006), a uniform subset of the events,
so the multivariate hypergeometric law. Neither draws keys of its own,
so one draw of keys can feed every estimator of a run.

bound_params feeds the perturbation-scale and regret-bound formulas from
the estimator, which carries B, and from N and C alone: the fixed
subsample keeps estimate l1 mass at exactly batch_size, while bernoulli
thinning can concentrate up to batch_size / rate on a single file.
"""

from dataclasses import dataclass
from enum import Enum

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
    spec: EstimatorSpec, counts: np.ndarray, offsets: np.ndarray,
    owner: np.ndarray, keys: np.ndarray, out: np.ndarray,
) -> None:
    """Fill out[:counts.size] with one estimate of each slot of a block.

    Slot s owns counts[offsets[s]:offsets[s + 1]], with offsets[0] == 0,
    and its float64 estimate lands at the same positions. owner and keys,
    which every row of the block can share, hold one entry per sorted
    event: owner maps it to its entry, np.repeat(np.arange(counts.size),
    counts), and keys is its uniform [0, 1) key. The fixed subsample reads
    keys as a slots x B matrix, row s keying slot s's events. Full-rate
    specs read neither owner nor keys. The caller validates the spec.
    """
    if spec.full_rate:
        out[: counts.size] = counts
    elif spec.kind is EstimatorKind.BERNOULLI:
        kept = np.bincount(owner[keys < spec.rate], minlength=counts.size)
        np.divide(kept, spec.rate, out=out[: counts.size])
    else:
        slots, batch, b = offsets.size - 1, spec.batch_size, spec.subsample
        picked = np.argpartition(keys.reshape(slots, batch), b - 1, axis=1)[:, :b]
        picked += np.arange(0, slots * batch, batch)[:, None]
        kept = np.bincount(owner[picked.ravel()], minlength=counts.size)
        np.multiply(kept, batch / b, out=out[: counts.size])


def bound_params(spec: EstimatorSpec, n_files: int, cache_size: int) -> BoundParams:
    """Bound parameters for this estimator, whose batch_size is B, at N and C."""
    diameter = 2 * min(cache_size, n_files - cache_size)
    if spec.kind is EstimatorKind.BERNOULLI:
        mass = spec.batch_size / spec.rate
    else:
        mass = float(spec.batch_size)
    return BoundParams(cost_bound=mass, l1_bound=mass, diameter=diameter)
