"""Timing distributions, seed derivation and reproducibility."""
import math

import numpy as np
import pytest

from jctrap.dynamics import CouplingParams, critical_spread, trapping_time
from jctrap.errors import ConfigError
from jctrap.stochastic import (
    SeedSpec,
    TimingModel,
    derive_stream,
    sample_timing,
    sample_timing_array,
)

G1 = CouplingParams(1.0)


class TestTimingModel:
    def test_invalid_models_rejected(self):
        with pytest.raises(ConfigError):
            TimingModel(tau_bar=0.0, spread=0.1)
        with pytest.raises(ConfigError):
            TimingModel(tau_bar=1.0, spread=-0.1)
        with pytest.raises(ConfigError):
            TimingModel(tau_bar=1.0, spread=2.0, law="uniform")
        with pytest.raises(ConfigError):
            TimingModel(tau_bar=1.0, spread=0.1, law="lognormal")

    def test_gaussian_allows_wide_spread(self):
        TimingModel(tau_bar=0.1, spread=1.0, law="gaussian")

    def test_rms_is_spread_over_sqrt12(self):
        model = TimingModel(tau_bar=1.0, spread=0.6)
        assert model.rms == pytest.approx(0.6 / math.sqrt(12.0))


class TestSampleTiming:
    def test_zero_spread_is_deterministic(self):
        model = TimingModel(tau_bar=0.7, spread=0.0, ramsey_ratio=3.0)
        rng = derive_stream(SeedSpec(1, 0))
        for _ in range(20):
            tau, ramsey_t = sample_timing(model, rng)
            assert tau == 0.7
            assert ramsey_t == 3.0 * 0.7

    def test_uniform_bounds_fig2a(self):
        tau_bar = trapping_time(20, 1, G1)
        spread = critical_spread(20, G1) / 10.0
        model = TimingModel(tau_bar=tau_bar, spread=spread)
        rng = derive_stream(SeedSpec(5, 0))
        lo, hi = tau_bar - spread / 2.0, tau_bar + spread / 2.0
        draws = [sample_timing(model, rng)[0] for _ in range(2000)]
        assert all(lo <= t <= hi for t in draws)
        assert abs(lo - 0.66841) < 1e-4
        assert abs(hi - 0.70269) < 1e-4

    def test_ramsey_time_exactly_proportional(self):
        ratio = 2.0 * math.sqrt(22.0)
        for law in ("uniform", "gaussian"):
            model = TimingModel(tau_bar=0.67, spread=0.3, law=law, ramsey_ratio=ratio)
            rng = derive_stream(SeedSpec(9, 3))
            for _ in range(1000):
                tau, ramsey_t = sample_timing(model, rng)
                assert ramsey_t == ratio * tau  # bitwise, by construction

    def test_gaussian_resampling_stays_positive(self):
        model = TimingModel(tau_bar=0.05, spread=1.0, law="gaussian")
        rng = derive_stream(SeedSpec(11, 0))
        draws = [sample_timing(model, rng)[0] for _ in range(2000)]
        assert min(draws) > 0.0
        taus, _ = sample_timing_array(model, derive_stream(SeedSpec(11, 1)), 100_000)
        assert taus.min() > 0.0

    @pytest.mark.parametrize(
        "model",
        [
            TimingModel(tau_bar=1.0, spread=0.5),
            TimingModel(tau_bar=1.0, spread=6.0, law="gaussian"),
            TimingModel(tau_bar=1.0, spread=0.0, law="gaussian", ramsey_ratio=2.0),
        ],
        ids=["uniform", "gaussian-6-tau-bar", "spread-0"],
    )
    def test_array_equals_successive_scalar_draws(self, model):
        # Same values, and the same stream left behind: the gaussian law at
        # spread 6 tau_bar draws many non-positive times to resample.
        scalar_rng, array_rng = derive_stream(SeedSpec(5, 1)), derive_stream(SeedSpec(5, 1))
        pairs = [sample_timing(model, scalar_rng) for _ in range(5000)]
        taus, ramsey = sample_timing_array(model, array_rng, 5000)
        assert np.array_equal(taus, [tau for tau, _ in pairs])
        assert np.array_equal(ramsey, [t_r for _, t_r in pairs])
        assert scalar_rng.random() == array_rng.random()


class TestDeriveStream:
    def test_identical_spec_identical_draws(self):
        a = derive_stream(SeedSpec(123456789, 7)).random(1000)
        b = derive_stream(SeedSpec(123456789, 7)).random(1000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = derive_stream(SeedSpec(123456789, 0)).random(1000)
        b = derive_stream(SeedSpec(123456789, 1)).random(1000)
        assert not np.array_equal(a, b)

    def test_distinct_masters_differ(self):
        a = derive_stream(SeedSpec(1, 0)).random(1000)
        b = derive_stream(SeedSpec(2, 0)).random(1000)
        assert not np.array_equal(a, b)

    def test_negative_and_large_seeds_accepted(self):
        derive_stream(SeedSpec(-5, 0)).random(10)
        derive_stream(SeedSpec(2**70, 123)).random(10)


class TestEmpiricalMoments:
    N = 1_000_000

    def test_uniform_mean_and_rms(self):
        model = TimingModel(tau_bar=0.6856, spread=0.0343)
        taus, _ = sample_timing_array(model, derive_stream(SeedSpec(42, 0)), self.N)
        sigma = model.rms
        se_mean = sigma / math.sqrt(self.N)
        assert abs(taus.mean() - model.tau_bar) < 4.0 * se_mean
        # Delta-method standard error of the sample rms for the uniform law:
        # Var(s^2) = (m4 - m2^2)/N with m4 = spread^4/80.
        m2 = sigma**2
        m4 = model.spread**4 / 80.0
        se_rms = math.sqrt(m4 - m2**2) / (2.0 * sigma * math.sqrt(self.N))
        assert abs(taus.std(ddof=0) - sigma) < 5.0 * se_rms

    def test_gaussian_matches_uniform_rms(self):
        model = TimingModel(tau_bar=0.6856, spread=0.0343, law="gaussian")
        taus, _ = sample_timing_array(model, derive_stream(SeedSpec(43, 0)), self.N)
        sigma = model.rms
        se_mean = sigma / math.sqrt(self.N)
        se_rms = sigma / math.sqrt(2.0 * self.N)
        assert abs(taus.mean() - model.tau_bar) < 5.0 * se_mean
        assert abs(taus.std(ddof=0) - sigma) < 5.0 * se_rms

    def test_scalar_and_array_uniform_agree_in_law(self):
        model = TimingModel(tau_bar=1.0, spread=0.5)
        rng = derive_stream(SeedSpec(44, 0))
        scalars = np.array([sample_timing(model, rng)[0] for _ in range(50_000)])
        arrays, _ = sample_timing_array(model, derive_stream(SeedSpec(44, 1)), 50_000)
        assert abs(scalars.mean() - arrays.mean()) < 6.0 * model.rms / math.sqrt(50_000)
