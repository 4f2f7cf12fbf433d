"""Timing distributions, seed derivation and reproducibility."""
import math
import pickle
import random

import numpy as np
import pytest

from jctrap.dynamics import critical_spread, trapping_time
from jctrap.errors import ConfigError
from jctrap.stochastic import (
    _JUMPS,
    _STREAM_SALT,
    StreamLanes,
    TimingModel,
    derive_stream,
    derive_streams,
    int_token,
    sample_timing,
    sample_timing_array,
    stream_id_range,
)

# Pairs at the edges of the stream contract: negative seeds, seeds of 2^63
# and above, both words at 2^64 - 1, and a stream id equal to the salt.
EDGE_PAIRS = [
    (0, 0), (-5, 0), (-1, -1), (2**70, 123),
    (2**64 - 1, 2**64 - 1), (2**64, 2**65 + 3), (7, _STREAM_SALT),
    (-(2**63), 2**63), (2**64 - 1, 2**63),
]

# 10^4 pairs: the edge pairs, then random ones from -2^64 up to 2^65.
_DRAW = random.Random(20261020)
RANDOM_PAIRS = EDGE_PAIRS + [
    (_DRAW.randrange(-(2**64), 2**65), _DRAW.randrange(-(2**64), 2**65))
    for _ in range(10_000 - len(EDGE_PAIRS))
]


def split(pairs):
    """The (masters, ids) uint64 arrays of (master_seed, stream_id) pairs of ints, modulo 2^64."""
    mask = (1 << 64) - 1
    masters = np.array([master & mask for master, _ in pairs], dtype=np.uint64)
    return masters, np.array([stream & mask for _, stream in pairs], dtype=np.uint64)


# Recorded first draws of three streams: they change if numpy's seeding or
# PCG64 ever does.
KNOWN_ANSWERS = [
    ((0, 0),
     ["0x1.701f6ab1b92dcp-3", "0x1.2c4e71eeb0f9dp-1", "0x1.cff75129c9caep-2"]),
    ((808, 19999),
     ["0x1.af8e4935af67ep-2", "0x1.9f807c4072c24p-2", "0x1.cf50bbd3eab5bp-1"]),
    ((2**70, 123),
     ["0x1.2367b816cc54fp-1", "0x1.09677323376abp-1", "0x1.077d031613a64p-2"]),
]
KNOWN_ANSWER_IDS = ["0-0", "808-19999", "2e70-123"]


class TestTimingModel:
    def test_invalid_models_rejected(self):
        # Each message names the config token the bad value comes from.
        with pytest.raises(ConfigError, match="^tau_bar_in_inv_g: "):
            TimingModel(tau_bar=0.0, spread=0.1)
        with pytest.raises(ConfigError, match="^spread_in_inv_g: "):
            TimingModel(tau_bar=1.0, spread=-0.1)
        with pytest.raises(ConfigError, match="^spread_in_inv_g: "):
            TimingModel(tau_bar=1.0, spread=2.0, law="uniform")
        with pytest.raises(ConfigError, match="^dist: "):
            TimingModel(tau_bar=1.0, spread=0.1, law="lognormal")
        with pytest.raises(ConfigError, match=r"^ramsey_ratio: must be >= 0, got -1\.0$"):
            TimingModel(tau_bar=1.0, spread=0.1, ramsey_ratio=-1.0)

    def test_gaussian_allows_wide_spread(self):
        TimingModel(tau_bar=0.1, spread=1.0, law="gaussian")

    def test_rms_is_spread_over_sqrt12(self):
        model = TimingModel(tau_bar=1.0, spread=0.6)
        assert model.rms == pytest.approx(0.6 / math.sqrt(12.0))


class TestSampleTiming:
    def test_zero_spread_is_deterministic(self):
        model = TimingModel(tau_bar=0.7, spread=0.0, ramsey_ratio=3.0)
        rng = derive_stream(1, 0)
        for _ in range(20):
            tau, ramsey_t = sample_timing(model, rng)
            assert tau == 0.7
            assert ramsey_t == 3.0 * 0.7

    def test_uniform_bounds_fig2a(self):
        tau_bar = trapping_time(20, 1)
        spread = critical_spread(20) / 10.0
        model = TimingModel(tau_bar=tau_bar, spread=spread)
        rng = derive_stream(5, 0)
        lo, hi = tau_bar - spread / 2.0, tau_bar + spread / 2.0
        draws = [sample_timing(model, rng)[0] for _ in range(2000)]
        assert all(lo <= t <= hi for t in draws)
        assert abs(lo - 0.66841) < 1e-4
        assert abs(hi - 0.70269) < 1e-4

    def test_ramsey_time_exactly_proportional(self):
        ratio = 2.0 * math.sqrt(22.0)
        for law in ("uniform", "gaussian"):
            model = TimingModel(tau_bar=0.67, spread=0.3, law=law, ramsey_ratio=ratio)
            rng = derive_stream(9, 3)
            for _ in range(1000):
                tau, ramsey_t = sample_timing(model, rng)
                assert ramsey_t == ratio * tau  # bitwise, by construction

    def test_gaussian_resampling_stays_positive(self):
        model = TimingModel(tau_bar=0.05, spread=1.0, law="gaussian")
        rng = derive_stream(11, 0)
        draws = [sample_timing(model, rng)[0] for _ in range(2000)]
        assert min(draws) > 0.0
        taus, _ = sample_timing_array(model, derive_stream(11, 1), 100_000)
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
        scalar_rng, array_rng = derive_stream(5, 1), derive_stream(5, 1)
        pairs = [sample_timing(model, scalar_rng) for _ in range(5000)]
        taus, ramsey = sample_timing_array(model, array_rng, 5000)
        assert np.array_equal(taus, [tau for tau, _ in pairs])
        assert np.array_equal(ramsey, [t_r for _, t_r in pairs])
        assert scalar_rng.random() == array_rng.random()

    @pytest.mark.parametrize("law", ["uniform", "gaussian"])
    def test_scalar_draw_equals_generator_method(self, law):
        # sample_timing writes out Generator.uniform and Generator.normal;
        # the values and the stream left behind must not change.  At this
        # spread the gaussian law never draws a non-positive time.
        model = TimingModel(tau_bar=0.6856, spread=0.0343, law=law)
        ours, numpys = derive_stream(45, 2), derive_stream(45, 2)
        half = model.spread / 2.0
        for _ in range(100_000):
            if law == "uniform":
                expected = float(numpys.uniform(model.tau_bar - half, model.tau_bar + half))
            else:
                expected = float(numpys.normal(model.tau_bar, model.rms))
            assert sample_timing(model, ours)[0] == expected
        assert ours.random() == numpys.random()


class TestDeriveStream:
    def test_identical_spec_identical_draws(self):
        a = derive_stream(123456789, 7).random(1000)
        b = derive_stream(123456789, 7).random(1000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = derive_stream(123456789, 0).random(1000)
        b = derive_stream(123456789, 1).random(1000)
        assert not np.array_equal(a, b)

    def test_distinct_masters_differ(self):
        a = derive_stream(1, 0).random(1000)
        b = derive_stream(2, 0).random(1000)
        assert not np.array_equal(a, b)

    def test_negative_and_large_seeds_accepted(self):
        derive_stream(-5, 0).random(10)
        derive_stream(2**70, 123).random(10)

    @staticmethod
    def reference_stream(master_seed: int, stream_id: int) -> np.random.Generator:
        """The stream contract written out with Python ints and numpy's own seeding."""
        mask = (1 << 64) - 1

        def splitmix64(x):
            x = (x + 0x9E3779B97F4A7C15) & mask
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
            return x ^ (x >> 31)

        h_master = splitmix64(master_seed & mask)
        h_stream = splitmix64((stream_id ^ _STREAM_SALT) & mask)
        return np.random.default_rng(splitmix64(h_master ^ h_stream))

    def test_streams_equal_reference_contract(self):
        pairs = RANDOM_PAIRS
        batches = [pairs[:1], pairs[1:64], pairs[64:128], pairs[128:]]
        assert [len(b) for b in batches[:3]] == [1, 63, 64]
        for batch in batches:
            for seed, rng in zip(batch, derive_streams(*split(batch)), strict=True):
                assert rng.bit_generator.state == self.reference_stream(*seed).bit_generator.state
        assert derive_streams(*split([])) == []
        assert derive_streams(5, split([])[1]) == []

    def test_one_master_broadcasts(self):
        # A Python int master, of any size or sign, is one master for every id.
        ids = split(RANDOM_PAIRS[:300])[1]
        for master in (0, -5, 2**64 - 1, 2**70):
            masters = np.full(len(ids), master & ((1 << 64) - 1), dtype=np.uint64)
            assert [rng.bit_generator.state for rng in derive_streams(master, ids)] == [
                rng.bit_generator.state for rng in derive_streams(masters, ids)]

    def test_stream_id_range_wraps_modulo_2_64(self):
        top = 2**64
        assert stream_id_range(top - 2, 4).tolist() == [top - 2, top - 1, 0, 1]
        assert stream_id_range(-2, 3).tolist() == [top - 2, top - 1, 0]
        assert stream_id_range(top + 5, 2).tolist() == [5, 6]
        assert stream_id_range(3, 0).dtype == np.uint64
        for stream in (-2, top - 1, top + 5):
            assert derive_stream(9, stream).bit_generator.state == self.reference_stream(
                9, stream).bit_generator.state

    def test_stream_pickles(self):
        rng = derive_stream(3, 4)
        rng.random(5)
        again = pickle.loads(pickle.dumps(rng))
        assert again.bit_generator.state == rng.bit_generator.state
        assert again.random() == rng.random()

    @pytest.mark.parametrize("seed, draws", KNOWN_ANSWERS, ids=KNOWN_ANSWER_IDS)
    def test_known_answers(self, seed, draws):
        # Recorded draws: they change if numpy's seeding or PCG64 ever does.
        rng = derive_stream(*seed)
        assert [float.hex(rng.random()) for _ in range(3)] == draws


class TestStreamLanes:
    """Lane i of StreamLanes(masters, ids) is the stream of (masters[i], ids[i]), draw for draw."""

    @staticmethod
    def generators(pairs):
        """default_rng of each pair's mixed seed, as TestDeriveStream's reference writes it."""
        return [TestDeriveStream.reference_stream(*pair) for pair in pairs]

    def test_lanes_equal_default_rng(self):
        # 10^4 pairs, drawn first 5 values at once and then 1 and 3 more.
        pairs = RANDOM_PAIRS
        lanes, every = StreamLanes(*split(pairs)), np.arange(len(pairs))
        drawn = np.hstack([lanes.random(every, 5), lanes.random(every, 1), lanes.random(every, 3)])
        expected = np.array([rng.random(9) for rng in self.generators(pairs)])
        assert drawn.tobytes() == expected.tobytes()

    def test_draws_past_the_jump_table(self):
        # A draw of more values than the table holds chains its jumps.
        lanes = StreamLanes(*split(EDGE_PAIRS))
        count = 2 * _JUMPS + 37
        drawn = lanes.random(np.arange(len(EDGE_PAIRS)), count)
        assert drawn.shape == (len(EDGE_PAIRS), count)
        expected = np.array([rng.random(count) for rng in self.generators(EDGE_PAIRS)])
        assert drawn.tobytes() == expected.tobytes()

    def test_subsets_advance_by_their_own_counts(self):
        # Each call advances the lanes it names, by its count, and no other.
        draw = random.Random(7)
        pairs = EDGE_PAIRS + [(draw.randrange(2**64), t) for t in range(40)]
        lanes, generators = StreamLanes(*split(pairs)), self.generators(pairs)
        for count in (1, 3, _JUMPS, 2, _JUMPS + 1, 5, 1):
            subset = sorted(draw.sample(range(len(pairs)), draw.randrange(1, len(pairs))))
            drawn = lanes.random(np.array(subset), count)
            expected = np.array([generators[i].random(count) for i in subset])
            assert drawn.tobytes() == expected.tobytes()
        rest = np.arange(len(pairs))
        assert lanes.random(rest, 4).tobytes() == np.array(
            [rng.random(4) for rng in generators]).tobytes()

    def test_no_values_leave_the_lanes_unmoved(self):
        # As Generator.random(0), a draw of 0 values is an empty array.
        lanes, generators = StreamLanes(*split(EDGE_PAIRS)), self.generators(EDGE_PAIRS)
        every = np.arange(len(EDGE_PAIRS))
        assert lanes.random(every, 0).shape == (len(EDGE_PAIRS), 0)
        assert lanes.random(every[1:3], 0).shape == (2, 0)
        assert lanes.random(every, 2).tobytes() == np.array(
            [rng.random(2) for rng in generators]).tobytes()

    @pytest.mark.parametrize("seed, draws", KNOWN_ANSWERS, ids=KNOWN_ANSWER_IDS)
    def test_known_answers(self, seed, draws):
        # The recorded draws, from a lane among others, in one draw and one
        # at a time, the second time from one master of a Python int.
        lanes = StreamLanes(*split([(1, 2), seed, (3, 4)]))
        assert [float.hex(x) for x in lanes.random([1], 3)[0]] == draws
        again = StreamLanes(seed[0], split([seed])[1])
        assert [float.hex(again.random([0], 1)[0, 0]) for _ in range(3)] == draws


class TestIntToken:
    @pytest.mark.parametrize("value", [True, False])
    def test_bool_refused(self, value):
        # True is a flag, not a count of 1: operator.index would read it as one.
        with pytest.raises(ConfigError, match=f"^atoms: must be an integer, got {value}$"):
            int_token("atoms", value)

    def test_integers_read_as_python_ints(self):
        assert [int_token("seed", v) for v in (3, np.int64(-4), np.uint64(2**63))] == [
            3, -4, 2**63]
        assert {type(int_token("seed", v)) for v in (3, np.int64(3))} == {int}


class TestEmpiricalMoments:
    N = 1_000_000

    def test_uniform_mean_and_rms(self):
        model = TimingModel(tau_bar=0.6856, spread=0.0343)
        taus, _ = sample_timing_array(model, derive_stream(42, 0), self.N)
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
        taus, _ = sample_timing_array(model, derive_stream(43, 0), self.N)
        sigma = model.rms
        se_mean = sigma / math.sqrt(self.N)
        se_rms = sigma / math.sqrt(2.0 * self.N)
        assert abs(taus.mean() - model.tau_bar) < 5.0 * se_mean
        assert abs(taus.std(ddof=0) - sigma) < 5.0 * se_rms

    def test_scalar_and_array_uniform_agree_in_law(self):
        model = TimingModel(tau_bar=1.0, spread=0.5)
        rng = derive_stream(44, 0)
        scalars = np.array([sample_timing(model, rng)[0] for _ in range(50_000)])
        arrays, _ = sample_timing_array(model, derive_stream(44, 1), 50_000)
        assert abs(scalars.mean() - arrays.mean()) < 6.0 * model.rms / math.sqrt(50_000)
