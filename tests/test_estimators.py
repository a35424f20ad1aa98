"""Unit tests for the request-count estimators."""

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from helpers import (
    chi2_sf,
    estimate_copies,
    multivariate_hypergeometric_pmf,
    product_binomial_pmf,
    reference_estimate,
)
from noisycache import (
    BoundParams,
    EstimatorKind,
    EstimatorSpec,
    InvalidInputError,
    SeedPlan,
    SlottedTrace,
    bound_params,
    step_perturbed_leaders,
)
from noisycache.estimators import estimate_block


COUNTS = [3, 2, 1, 0]  # six events over four files


def _step_one_slot(spec):
    """Run spec through the stepper, the sampler's one caller, on one slot."""
    slotted = SlottedTrace(np.repeat([0, 1, 2], [3, 2, 1]), n_files=4, batch_size=6)
    step_perturbed_leaders(slotted, [2], [[1.0]], [spec], 1, SeedPlan(0))


class TestSpecValidation:
    def test_factories(self):
        assert EstimatorSpec.exact(6).kind is EstimatorKind.EXACT
        assert EstimatorSpec.fixed_subsample(2, 6).subsample == 2
        assert EstimatorSpec.bernoulli(0.5, 6).rate == 0.5

    @pytest.mark.parametrize(
        "build",
        [
            lambda: EstimatorSpec.fixed_subsample(0, 6),
            lambda: EstimatorSpec.fixed_subsample(7, 6),
            lambda: EstimatorSpec.bernoulli(0.0, 6),
            lambda: EstimatorSpec.bernoulli(1.5, 6),
            lambda: EstimatorSpec(EstimatorKind.EXACT, 6, subsample=2),
            lambda: EstimatorSpec(EstimatorKind.EXACT, 6, rate=0.5),
            lambda: EstimatorSpec(EstimatorKind.FIXED_SUBSAMPLE, 6, subsample=2, rate=0.5),
            lambda: EstimatorSpec(EstimatorKind.BERNOULLI, 0, rate=0.5),
        ],
    )
    def test_rejects_bad_parameters(self, build):
        with pytest.raises(InvalidInputError):
            build()


class TestExact:
    def test_passthrough(self):
        out = estimate_copies(EstimatorSpec.exact(6), COUNTS, 1, None)
        assert out.tolist() == [[3.0, 2.0, 1.0, 0.0]]

    def test_batch_size_mismatch(self):
        with pytest.raises(InvalidInputError, match="batch size"):
            _step_one_slot(EstimatorSpec.exact(5))


class TestFixedSubsample:
    def test_l1_mass_is_conserved(self):
        # (B/b) * b kept events = B exactly, every single draw
        rng = np.random.default_rng(0)
        for b in (1, 2, 3, 5, 6):
            spec = EstimatorSpec.fixed_subsample(b, 6)
            out = estimate_copies(spec, COUNTS, 200, rng)
            assert out.sum(axis=1) == pytest.approx(np.full(200, 6.0), abs=1e-12)

    def test_values_are_multiples_of_the_scale(self):
        rng = np.random.default_rng(1)
        spec = EstimatorSpec.fixed_subsample(2, 6)
        kept = estimate_copies(spec, COUNTS, 100, rng) / 3.0  # scale B/b = 3
        assert np.allclose(kept, np.round(kept))

    def test_support_subset_of_batch(self):
        rng = np.random.default_rng(2)
        spec = EstimatorSpec.fixed_subsample(2, 6)
        out = estimate_copies(spec, COUNTS, 100, rng)
        assert np.all(out[:, 3] == 0.0)
        assert np.all(out >= 0.0)

    def test_full_subsample_degenerates_to_exact(self):
        rng = np.random.default_rng(3)
        spec = EstimatorSpec.fixed_subsample(6, 6)
        out = estimate_copies(spec, COUNTS, 50, rng)
        assert out.tolist() == [[3.0, 2.0, 1.0, 0.0]] * 50

    def test_unbiased(self):
        rng = np.random.default_rng(4)
        spec = EstimatorSpec.fixed_subsample(2, 6)
        draws = 20_000
        mean = estimate_copies(spec, COUNTS, draws, rng).mean(axis=0)
        r = np.array([3.0, 2.0, 1.0, 0.0])
        # Var[r_hat_i] = (B/b)^2 * b * p(1-p) * (B-b)/(B-1), p = r_i/B
        p = r / 6.0
        se = np.sqrt(9.0 * 2.0 * p * (1 - p) * (4.0 / 5.0) / draws)
        assert np.all(np.abs(mean - r) <= 4 * se + 1e-12)


class TestBernoulli:
    def test_full_rate_degenerates_to_exact(self):
        rng = np.random.default_rng(5)
        spec = EstimatorSpec.bernoulli(1.0, 6)
        out = estimate_copies(spec, COUNTS, 50, rng)
        assert out.tolist() == [[3.0, 2.0, 1.0, 0.0]] * 50

    def test_support_and_scale_lattice(self):
        rng = np.random.default_rng(6)
        spec = EstimatorSpec.bernoulli(0.5, 6)
        out = estimate_copies(spec, COUNTS, 200, rng)
        assert np.all(out[:, 3] == 0.0)
        assert np.all(out >= 0.0)
        assert np.all(out.sum(axis=1) <= 6.0 / 0.5 + 1e-12)
        kept = out * 0.5  # back to integer kept counts
        assert np.allclose(kept, np.round(kept))

    def test_unbiased(self):
        rng = np.random.default_rng(7)
        spec = EstimatorSpec.bernoulli(0.5, 6)
        draws = 20_000
        mean = estimate_copies(spec, COUNTS, draws, rng).mean(axis=0)
        r = np.array([3.0, 2.0, 1.0, 0.0])
        se = np.sqrt(r * (1 - 0.5) / 0.5 / draws)  # Var[r_hat_i] = r_i(1-f)/f
        assert np.all(np.abs(mean - r) <= 4 * se + 1e-12)


class TestEstimateBlock:
    # 17 slots of 12 requests over 9 files, in CSR form
    SLOTS = SlottedTrace(np.random.default_rng(8).integers(0, 9, 17 * 12), 9, 12)

    def _block(self, spec, owner, keys):
        counts = self.SLOTS.counts
        out = np.full(counts.size + 3, np.nan)
        estimate_block(spec, counts, self.SLOTS.offsets, owner, keys, out)
        assert np.isnan(out[counts.size :]).all()
        return out[: counts.size]

    @pytest.mark.parametrize(
        "spec",
        [EstimatorSpec.bernoulli(rate, 12) for rate in (0.01, 0.37, 0.5, 0.93)]
        + [EstimatorSpec.fixed_subsample(b, 12) for b in (1, 5, 11)],
    )
    def test_matches_one_draw_per_slot(self, spec):
        rng, twin = np.random.default_rng(21), np.random.default_rng(21)
        counts = self.SLOTS.counts
        owner = np.repeat(np.arange(counts.size), counts)
        out = self._block(spec, owner, rng.random(owner.size))
        offsets = self.SLOTS.offsets
        expected = np.concatenate([
            reference_estimate(spec, self.SLOTS.counts[lo:hi], twin)
            for lo, hi in zip(offsets[:-1], offsets[1:])
        ])
        assert out.tobytes() == expected.tobytes()
        assert rng.random() == twin.random()

    @pytest.mark.parametrize(
        "spec",
        [EstimatorSpec.exact(12), EstimatorSpec.bernoulli(1.0, 12),
         EstimatorSpec.fixed_subsample(12, 12)],
    )
    def test_full_rate_copies_the_counts_and_draws_nothing(self, spec):
        # it reads neither owner nor keys, so a caller with only full-rate
        # rows need draw no keys
        assert spec.full_rate
        assert np.array_equal(self._block(spec, None, None), self.SLOTS.counts)


@st.composite
def sampled_blocks(draw, kind):
    """A CSR block of 1-40 slots of 2-300 requests and a sampler of kind.

    Some slots request a single file, so they hold one CSR entry. The
    sampler is never full rate, which draws nothing.
    """
    batch = draw(st.integers(2, 300))
    slots = draw(st.integers(1, 40))
    n_files = draw(st.integers(1, 80))
    events = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(
        0, n_files, (slots, batch)
    )
    single = draw(st.lists(st.booleans(), min_size=slots, max_size=slots))
    events[single] = events[single, :1]
    slotted = SlottedTrace(events.ravel(), n_files, batch)
    if kind is EstimatorKind.BERNOULLI:
        rate = draw(st.floats(1e-3, 1.0, exclude_max=True))
        spec = EstimatorSpec.bernoulli(rate, batch)
    else:
        spec = EstimatorSpec.fixed_subsample(draw(st.integers(1, batch - 1)), batch)
    return spec, slotted, draw(st.integers(0, 2**32 - 1))


def _matches_one_key_per_event(bit_generator, case):
    """One estimate_block call draws what reference_estimate does slot by slot."""
    spec, slotted, seed = case
    rng = np.random.Generator(bit_generator(seed))
    twin = np.random.Generator(bit_generator(seed))
    out = np.empty(slotted.counts.size)
    owner = np.repeat(np.arange(slotted.counts.size), slotted.counts)
    keys = rng.random(owner.size)
    estimate_block(spec, slotted.counts, slotted.offsets, owner, keys, out)
    offsets = slotted.offsets
    expected = np.concatenate([
        reference_estimate(spec, slotted.counts[lo:hi], twin)
        for lo, hi in zip(offsets[:-1], offsets[1:])
    ])
    assert out.tobytes() == expected.tobytes()
    assert rng.random() == twin.random()


def _fit(pmf, kept):
    """Pearson's chi-squared p-value of the kept-count rows against pmf."""
    outcomes, seen = np.unique(kept.astype(int), axis=0, return_counts=True)
    observed = dict(zip(map(tuple, outcomes.tolist()), seen.tolist()))
    assert set(observed) <= set(pmf)
    expected = len(kept) * np.array(list(pmf.values()))
    got = np.array([observed.get(outcome, 0) for outcome in pmf])
    stat = float(((got - expected) ** 2 / expected).sum())
    return chi2_sf(stat, len(pmf) - 1)


class TestFixedSubsampleLaw:
    """The fixed subsampler's random keys against the law they must draw."""

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.Philox])
    @settings(max_examples=100, deadline=None)
    @given(sampled_blocks(EstimatorKind.FIXED_SUBSAMPLE))
    def test_matches_one_key_per_event_at_real_sizes(self, bit_generator, case):
        _matches_one_key_per_event(bit_generator, case)

    @pytest.mark.parametrize(
        "counts, sample",
        [((3, 2, 1, 4), 4), ((3, 2, 1, 4), 1), ((3, 2, 1, 4), 9), ((2, 0, 5, 1), 3),
         ((6,), 2)],
        ids=["b4", "b1", "b-is-B-minus-1", "unrequested-file", "single-file"],
    )
    def test_kept_counts_follow_the_multivariate_hypergeometric_law(
        self, counts, sample
    ):
        pmf = multivariate_hypergeometric_pmf(counts, sample)
        spec, draws = EstimatorSpec.fixed_subsample(sample, sum(counts)), 20_000
        rng = np.random.default_rng(2309)
        kept = np.rint(estimate_copies(spec, counts, draws, rng) * sample / sum(counts))
        # Pearson's chi-squared at level 1e-3: the true law fails a case at
        # about one seed in a thousand, so about 0.4% of seeds fail one of
        # the four cases with more than one outcome
        assert _fit(pmf, kept) > 1e-3


class TestBernoulliLaw:
    """The Bernoulli sampler's random keys against the law they must draw."""

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.Philox])
    @settings(max_examples=100, deadline=None)
    @given(sampled_blocks(EstimatorKind.BERNOULLI))
    def test_matches_one_key_per_event_at_real_sizes(self, bit_generator, case):
        _matches_one_key_per_event(bit_generator, case)

    @pytest.mark.parametrize(
        "counts, rate",
        [((3, 2, 1, 4), 0.5), ((3, 2, 1), 0.3), ((1, 2), 0.8), ((2, 0, 5, 1), 0.5),
         ((4,), 0.37)],
        ids=["half", "low-rate", "high-rate", "unrequested-file", "single-file"],
    )
    def test_kept_counts_follow_the_product_binomial_law(self, counts, rate):
        # every outcome has an expected count of at least 14 at 20,000 draws
        pmf = product_binomial_pmf(counts, rate)
        spec, draws = EstimatorSpec.bernoulli(rate, sum(counts)), 20_000
        rng = np.random.default_rng(2309)
        kept = np.rint(estimate_copies(spec, counts, draws, rng) * rate)
        # Pearson's chi-squared at level 1e-3, as for the fixed subsample
        assert _fit(pmf, kept) > 1e-3


class TestBoundParams:
    def test_exact_and_fixed_share_bounds(self):
        for spec in (EstimatorSpec.exact(200), EstimatorSpec.fixed_subsample(20, 200)):
            bounds = bound_params(spec, 10_000, 100)
            assert bounds.cost_bound == 200.0
            assert bounds.l1_bound == 200.0
            assert bounds.diameter == 200

    def test_bernoulli_scales_by_rate(self):
        bounds = bound_params(EstimatorSpec.bernoulli(0.5, 200), 10_000, 100)
        assert bounds.cost_bound == 400.0
        assert bounds.l1_bound == 400.0
        assert bounds.diameter == 200

    def test_diameter_uses_smaller_side(self):
        bounds = bound_params(EstimatorSpec.exact(5), 10, 8)
        assert bounds.diameter == 2 * min(8, 2)
