"""Request-count estimators.

A policy never has to see the true batch counts r. It sees an estimate
r_hat made from a sample of each batch's events at a sampling rate in
(0, 1], by one of two estimators, each unbiased (E[r_hat] = r):

- fixed subsample: keep exactly `subsample` of the batch's B events,
  the count the rate rounds to, chosen uniformly without replacement,
  count per file, and rescale by B / subsample. The per-file kept counts
  follow a multivariate hypergeometric law over the batch's count vector;
- bernoulli: keep each event independently with probability `rate` and
  rescale by 1 / rate, i.e. a binomial thinning of each file's count.

Rate 1 is exact observation, r_hat = r, for both; so is a fixed rate
whose subsample rounds to B.

estimate_block turns a block of consecutive slots of a slotted trace,
and one uniform key per event of the block, in sorted order, into the
slots' estimates; policies.step_perturbed_leaders draws the keys and is
its one caller. Bernoulli keeps the events whose keys are below its
rate; the fixed subsample keeps the `subsample` smallest keys of each
slot (Efraimidis & Spirakis, IPL 2006), a uniform subset of the events,
so the multivariate hypergeometric law. Neither draws keys of its own,
so one draw of keys can feed every estimator of a run.

An estimator's `mass` bounds both the l1 norm of one estimate and one
slot's estimated cost, the two factors of the perturbation-scale and
regret-bound formulas: the fixed subsample keeps the l1 mass at exactly
B, while bernoulli thinning can put up to B / rate on a single file.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import InvalidInputError


class EstimatorKind(Enum):
    FIXED_SUBSAMPLE = "fixed"
    BERNOULLI = "bernoulli"


def check_rate(rate, what: str = "rate") -> None:
    """Reject a sampling rate outside (0, 1]; the message starts with what."""
    if rate is None or not 0.0 < rate <= 1.0:
        raise InvalidInputError(f"{what} must be in (0, 1], got {rate}")


@dataclass(frozen=True)
class EstimatorSpec:
    """Which estimator to run, on batches of batch_size events, at which rate.

    rate, in (0, 1], is the one sampling parameter; at 1, the default,
    either kind observes every event. The fixed subsample keeps
    `subsample` events of each batch, so rate b / B keeps b.
    """

    kind: EstimatorKind
    batch_size: int
    rate: float = 1.0

    def __post_init__(self):
        if self.batch_size < 1:
            raise InvalidInputError("batch_size must be >= 1")
        check_rate(self.rate)

    @property
    def subsample(self) -> int:
        """The fixed subsample's events kept per batch: max(1, round(rate * B))."""
        return max(1, round(self.rate * self.batch_size))

    @property
    def full_rate(self) -> bool:
        """Whether every event is observed, so the estimate is the counts."""
        if self.kind is EstimatorKind.BERNOULLI:
            return self.rate == 1.0
        return self.subsample == self.batch_size

    @property
    def mass(self) -> float:
        """Bound on an estimate's l1 norm and on one slot's estimated cost."""
        if self.kind is EstimatorKind.BERNOULLI:
            return self.batch_size / self.rate
        return float(self.batch_size)

    @classmethod
    def fixed(cls, rate: float, batch_size: int) -> "EstimatorSpec":
        return cls(EstimatorKind.FIXED_SUBSAMPLE, batch_size, rate)

    @classmethod
    def bernoulli(cls, rate: float, batch_size: int) -> "EstimatorSpec":
        return cls(EstimatorKind.BERNOULLI, batch_size, rate)


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

