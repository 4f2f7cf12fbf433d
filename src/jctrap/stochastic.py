"""Fluctuating interaction times and the correlated Ramsey-time channel.

Each atom crosses the cavity for a random time tau_k and, when a Ramsey
zone is configured, spends T_k = ramsey_ratio * tau_k in it (one velocity
per atom, fixed path lengths, hence perfect correlation).  The uniform law
spreads tau_k over a full width `spread` centered on tau_bar; the gaussian
law uses the same rms, spread/sqrt(12), resampling non-positive draws.

Streams derive deterministically from (master_seed, stream_id): every
trajectory, sweep cell and output file is bit-reproducible on one platform.
"""
from __future__ import annotations

import functools
import math
import numbers
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

TIMING_LAWS = ("uniform", "gaussian")

# rms of a unit-width centered uniform distribution.
UNIFORM_RMS = 1.0 / math.sqrt(12.0)

_MASK64 = (1 << 64) - 1
_STREAM_SALT = 0xD1B54A32D192ED03


@dataclass(frozen=True)
class TimingModel:
    """Distribution of interaction times and the tied Ramsey times.

    spread is the full width of the uniform law; the gaussian law matches
    its rms.  ramsey_ratio = 0 means no Ramsey zone.  Errors name config tokens.
    """

    tau_bar: float
    spread: float
    law: str = "uniform"
    ramsey_ratio: float = 0.0

    def __post_init__(self):
        for token, value in (("tau_bar_in_inv_g", self.tau_bar), ("spread_in_inv_g", self.spread),
                             ("ramsey_ratio", self.ramsey_ratio)):
            if not math.isfinite(number_token(token, value)):
                raise ConfigError(f"{token}: must be finite, got {value}")
        if not self.tau_bar > 0:
            raise ConfigError(f"tau_bar_in_inv_g: must be > 0, got {self.tau_bar}")
        if self.spread < 0:
            raise ConfigError(f"spread_in_inv_g: must be >= 0, got {self.spread}")
        if self.law not in TIMING_LAWS:
            raise ConfigError(f"dist: must be one of {TIMING_LAWS}, got {self.law!r}")
        if self.law == "uniform" and self.spread >= 2.0 * self.tau_bar:
            raise ConfigError(
                f"spread_in_inv_g: uniform spread {self.spread} must stay below "
                f"2*tau_bar = {2 * self.tau_bar} "
                "(interaction times must stay positive)"
            )
        if self.ramsey_ratio < 0:
            raise ConfigError(f"ramsey_ratio: must be >= 0, got {self.ramsey_ratio}")

    @property
    def rms(self) -> float:
        """Standard deviation of tau_k under either law."""
        return self.spread * UNIFORM_RMS


def int_token(token: str, value) -> int:
    """value as a Python int, such as derive_streams hashes; a ConfigError names token."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{token}: must be an integer, got {value!r}") from None


def number_token(token: str, value, kind: type = float) -> float | complex:
    """value as a float (for kind complex, any number as a complex), else a ConfigError on token."""
    if isinstance(value, numbers.Real if kind is float else numbers.Complex):
        return kind(value)
    raise ConfigError(f"{token}: must be a {'real ' * (kind is float)}number, got {value!r}")


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 of each word of a uint64 array, modulo 2^64."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) with its pool of
# 4 uint32 words.  No constant in it depends on the entropy: hash call i
# XORs its word with init * mult^i and multiplies it by init * mult^(i+1).
_MASK32 = (1 << 32) - 1
_POOL = 4
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def _hash_consts(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """Per hash call, as (calls, 1) uint32 columns: its XOR and its multiplier."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    column = np.array(consts, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


# Mixing the entropy in makes 4 hash calls to fill the pool and 12 to mix
# each word into the 3 others; the output makes one per uint32 word.
_MIX_XOR, _MIX_MUL = _hash_consts(0x43B0D7E5, 0x931E8875, _POOL * _POOL)
_OUT_XOR, _OUT_MUL = _hash_consts(0x8B51F9DD, 0x58F38DED, 2 * _POOL)
_OTHERS = [np.array([dst for dst in range(_POOL) if dst != src]) for src in range(_POOL)]
_OUT_SOURCES = np.arange(2 * _POOL) % _POOL


def _hashmix(words: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    words = (words ^ xor) * mul
    return words ^ (words >> _SHIFT)


def _pcg64_seed_words(seeds: np.ndarray) -> np.ndarray:
    """SeedSequence(seed).generate_state(4, np.uint64) for a uint64 array of seeds.

    Returns a C-contiguous (len(seeds), 4) uint64 array.  A seed's entropy
    is its two little-endian uint32 words, zero-padded to the pool size:
    numpy hashes a shorter entropy array into the same pool, as it hashes
    0 for each word it lacks.  For each source word in turn, its mixing
    into the 3 other words is one step over every seed.
    """
    entropy = np.zeros((_POOL, len(seeds)), dtype=np.uint32)
    entropy[0], entropy[1] = seeds & np.uint64(_MASK32), seeds >> np.uint64(32)
    pool = _hashmix(entropy, _MIX_XOR[:_POOL], _MIX_MUL[:_POOL])
    for src, dst in enumerate(_OTHERS):
        calls = slice(_POOL + 3 * src, _POOL + 3 * src + 3)
        mixed = pool[dst] * _MIX_L - _hashmix(pool[src], _MIX_XOR[calls], _MIX_MUL[calls]) * _MIX_R
        pool[dst] = mixed ^ (mixed >> _SHIFT)
    out = _hashmix(pool[_OUT_SOURCES], _OUT_XOR, _OUT_MUL).astype(np.uint64)
    # Each uint64 word is two uint32 output words, the low one first.
    return np.ascontiguousarray((out[0::2] | (out[1::2] << np.uint64(32))).T)


@functools.cache
def _seed_words_type() -> type:
    """ISeedSequence that hands PCG64 its 4 precomputed uint64 seed words.

    Built on first use, so that importing jctrap does not load numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 asks for its 4 uint64 words, all that this holds.
            return self.words

        def __reduce__(self):
            # Pickled through a module-level name, as a generator's seed sequence.
            return _seed_words, (self.words,)

    return SeedWords


def _seed_words(words: np.ndarray):
    """The seed sequence that seeds PCG64 from words, a row of _pcg64_seed_words."""
    return _seed_words_type()(words)


def derive_streams(seeds: Sequence[tuple[int, int]]) -> list[np.random.Generator]:
    """Deterministic PCG64 generators, one per (master_seed, stream_id) pair of ints.

    Distinct pairs give independent streams.  Two SplitMix64 rounds mix
    each pair into a single 64-bit seed: mix(mix(master) XOR
    mix(stream_id XOR salt)), every value taken modulo 2^64.  The generator
    is then np.random.default_rng(seed): PCG64 seeded by numpy's
    SeedSequence(seed), whose entropy-pool hash this computes for the whole
    batch in one pass of array arithmetic.  Each generator's state equals
    default_rng's, so the same pair yields the same sample sequence on
    every platform and run.
    """
    from numpy.random import PCG64, Generator  # loaded by the first derivation

    pairs = np.array(
        [(master & _MASK64, (stream ^ _STREAM_SALT) & _MASK64) for master, stream in seeds],
        dtype=np.uint64,
    )
    h_master, h_stream = _splitmix64(pairs.reshape(-1, 2).T)
    words = _pcg64_seed_words(_splitmix64(h_master ^ h_stream))
    return [Generator(PCG64(_seed_words(row))) for row in words]


def derive_stream(master_seed: int, stream_id: int = 0) -> np.random.Generator:
    """The generator of one pair: derive_streams([(master_seed, stream_id)])[0]."""
    return derive_streams([(master_seed, stream_id)])[0]


def sample_timing(model: TimingModel, rng: np.random.Generator) -> tuple[float, float]:
    """Draw one atom's interaction time tau_k and Ramsey time T_k."""
    # Generator.uniform and Generator.normal as numpy defines them: the same
    # values from the same stream, without their per-call argument handling.
    if model.spread == 0.0:
        tau = model.tau_bar
    elif model.law == "uniform":
        half = model.spread / 2.0
        low, high = model.tau_bar - half, model.tau_bar + half
        tau = low + (high - low) * rng.random()
    else:
        sigma, tau = model.rms, 0.0
        while tau <= 0.0:  # at tau_bar > 0, each draw with probability below 1/2
            tau = model.tau_bar + sigma * rng.standard_normal()
    return tau, model.ramsey_ratio * tau


def sample_timing_array(
    model: TimingModel, rng: np.random.Generator, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized draw of `count` (tau_k, T_k) pairs.

    Equal, value for value and in what it leaves in the stream, to `count`
    successive sample_timing calls.
    """
    if model.spread == 0.0:
        taus = np.full(count, model.tau_bar)
    elif model.law == "uniform":
        half = model.spread / 2.0
        taus = rng.uniform(model.tau_bar - half, model.tau_bar + half, size=count)
    else:
        # Keep the positive draws in stream order and draw only the deficit,
        # as the scalar law redraws each non-positive time in turn.
        sigma = model.rms
        taus = np.empty(0)
        while len(taus) < count:
            more = rng.normal(model.tau_bar, sigma, size=count - len(taus))
            taus = np.concatenate([taus, more[more > 0.0]])
    return taus, model.ramsey_ratio * taus
