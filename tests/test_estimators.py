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
    EstimatorKind,
    EstimatorSpec,
    InvalidInputError,
    SeedPlan,
    SlottedTrace,
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
        assert EstimatorSpec.fixed(1 / 3, 6).kind is EstimatorKind.FIXED_SUBSAMPLE
        assert EstimatorSpec.fixed(1 / 3, 6).subsample == 2
        assert EstimatorSpec.bernoulli(0.5, 6).rate == 0.5
        assert EstimatorSpec(EstimatorKind.BERNOULLI, 6).rate == 1.0

    @pytest.mark.parametrize(
        "build",
        [
            lambda: EstimatorSpec.fixed(0.0, 6),
            lambda: EstimatorSpec.fixed(1.5, 6),
            lambda: EstimatorSpec.bernoulli(0.0, 6),
            lambda: EstimatorSpec.bernoulli(1.5, 6),
            lambda: EstimatorSpec(EstimatorKind.FIXED_SUBSAMPLE, 6, float("nan")),
            lambda: EstimatorSpec(EstimatorKind.BERNOULLI, 6, None),
            lambda: EstimatorSpec(EstimatorKind.BERNOULLI, 0, rate=0.5),
        ],
    )
    def test_rejects_bad_parameters(self, build):
        with pytest.raises(InvalidInputError):
            build()

    def test_rate_is_the_one_parameter(self):
        # exact observation is rate 1, and a count is a rate: the old
        # spellings fail instead of meaning something else
        assert [kind.value for kind in EstimatorKind] == ["fixed", "bernoulli"]
        assert not hasattr(EstimatorSpec, "exact")
        assert not hasattr(EstimatorSpec, "fixed_subsample")
        with pytest.raises(TypeError):
            EstimatorSpec(EstimatorKind.FIXED_SUBSAMPLE, 6, subsample=2)


class TestSubsample:
    """The fixed subsample's b = max(1, round(rate * B)), its one rule."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2**31 - 1).flatmap(
        lambda batch: st.tuples(st.just(batch), st.integers(1, batch))))
    def test_every_count_has_a_rate(self, case):
        # rate b / B asks for b events of B, so no fixed subsample needs a
        # count of its own
        batch, b = case
        assert EstimatorSpec.fixed(b / batch, batch).subsample == b

    @pytest.mark.parametrize("rate, batch, b", [
        (0.29, 100, 29),   # 0.29 * 100 is 28.999999999999996
        (7 / 200, 200, 7),  # 7 / 200 * 200 is 7.000000000000001
        (0.25, 10, 2),     # 2.5: ties go to the even count
        (0.35, 10, 4),     # 0.35 * 10 is 3.5
        (0.05, 10, 1),     # 0.5 rounds to 0, and one event is kept
        (0.001, 10, 1),
        (0.96, 12, 12),    # a rate below 1 may keep the whole batch
        (1.0, 1, 1),
        (1.0, 2**31 - 1, 2**31 - 1),
    ])
    def test_rounding_edges(self, rate, batch, b):
        assert EstimatorSpec.fixed(rate, batch).subsample == b

    def test_full_rate_is_every_event_kept(self):
        assert EstimatorSpec.fixed(0.96, 12).full_rate
        assert not EstimatorSpec.fixed(0.95, 12).full_rate
        assert EstimatorSpec.bernoulli(1.0, 12).full_rate
        assert not EstimatorSpec.bernoulli(0.96, 12).full_rate


class TestExact:
    def test_passthrough(self):
        for kind in EstimatorKind:
            out = estimate_copies(EstimatorSpec(kind, 6), COUNTS, 1, None)
            assert out.tolist() == [[3.0, 2.0, 1.0, 0.0]]

    def test_batch_size_mismatch(self):
        with pytest.raises(InvalidInputError, match="batch size"):
            _step_one_slot(EstimatorSpec.bernoulli(1.0, 5))


class TestFixedSubsample:
    def test_l1_mass_is_conserved(self):
        # (B/b) * b kept events = B exactly, every single draw
        rng = np.random.default_rng(0)
        for b in (1, 2, 3, 5, 6):
            spec = EstimatorSpec.fixed(b / 6, 6)
            out = estimate_copies(spec, COUNTS, 200, rng)
            assert out.sum(axis=1) == pytest.approx(np.full(200, 6.0), abs=1e-12)

    def test_values_are_multiples_of_the_scale(self):
        rng = np.random.default_rng(1)
        spec = EstimatorSpec.fixed(1 / 3, 6)
        kept = estimate_copies(spec, COUNTS, 100, rng) / 3.0  # scale B/b = 3
        assert np.allclose(kept, np.round(kept))

    def test_support_subset_of_batch(self):
        rng = np.random.default_rng(2)
        spec = EstimatorSpec.fixed(1 / 3, 6)
        out = estimate_copies(spec, COUNTS, 100, rng)
        assert np.all(out[:, 3] == 0.0)
        assert np.all(out >= 0.0)

    def test_full_subsample_degenerates_to_exact(self):
        rng = np.random.default_rng(3)
        spec = EstimatorSpec.fixed(1.0, 6)
        out = estimate_copies(spec, COUNTS, 50, rng)
        assert out.tolist() == [[3.0, 2.0, 1.0, 0.0]] * 50

    def test_unbiased(self):
        rng = np.random.default_rng(4)
        spec = EstimatorSpec.fixed(1 / 3, 6)
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
        + [EstimatorSpec.fixed(b / 12, 12) for b in (1, 5, 11)],
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
        [EstimatorSpec.bernoulli(1.0, 12), EstimatorSpec.fixed(1.0, 12),
         EstimatorSpec.fixed(0.96, 12)],
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
        spec = EstimatorSpec.fixed(draw(st.integers(1, batch - 1)) / batch, batch)
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
        spec, draws = EstimatorSpec.fixed(sample / sum(counts), sum(counts)), 20_000
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


class TestMass:
    """The one bound on an estimate's l1 norm and on a slot's estimated cost."""

    def test_exact_and_fixed_share_bounds(self):
        for spec in (EstimatorSpec.bernoulli(1.0, 200), EstimatorSpec.fixed(1.0, 200),
                     EstimatorSpec.fixed(0.1, 200)):
            assert spec.mass == 200.0

    def test_bernoulli_scales_by_rate(self):
        assert EstimatorSpec.bernoulli(0.5, 200).mass == 400.0
