"""Fluctuating interaction times and the correlated Ramsey-time channel.

Each atom crosses the cavity for a random time tau_k and, when a Ramsey
zone is configured, spends T_k = ramsey_ratio * tau_k in it (one velocity
per atom, fixed path lengths, hence perfect correlation).  The uniform law
spreads tau_k over a full width `spread` centered on tau_bar; the gaussian
law uses the same rms, spread/sqrt(12), resampling non-positive draws.

Streams derive deterministically from (master_seed, stream_id): every
trajectory, sweep cell and output file is bit-reproducible on one platform.
A batch of streams is a master seed and a uint64 array of stream ids.  A
stream is a numpy Generator (derive_streams) or a lane of StreamLanes,
which computes numpy's PCG64 over arrays of streams: both give the same
values.
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
    """value as a Python int, such as a seed or a count; a ConfigError names token.

    A bool is refused: True is a flag, not a count or a seed of 1.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"{token}: must be an integer, got {value!r}")


def check_seeds(master_seed, stream_id) -> None:
    """A ConfigError on seed or stream unless it is a Python int, and not a bool."""
    for token, value in (("seed", master_seed), ("stream", stream_id)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{token}: must be a Python int, got {value!r}")


def number_token(token: str, value, kind: type = float) -> float | complex:
    """value as a float (for kind complex, any number as a complex), else a ConfigError on token.

    A bool is refused, as int_token refuses it.
    """
    numeric = numbers.Real if kind is float else numbers.Complex
    if isinstance(value, numeric) and not isinstance(value, bool):
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


def _stream_words(masters: int | np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The PCG64 seed words of each stream: a (len(ids), 4) uint64 array.

    masters is one master seed, a Python int, or a uint64 array of one per
    stream; ids is a uint64 array of stream ids, each reduced modulo 2^64.
    Two SplitMix64 rounds mix each pair into a single 64-bit seed:
    mix(mix(master) XOR mix(stream_id XOR salt)), every value taken modulo
    2^64.  Its words are those that numpy's SeedSequence(seed) generates
    for PCG64, a hash this computes for the whole batch in one pass of
    array arithmetic.
    """
    if isinstance(masters, int):  # an array: a uint64 scalar's multiply warns on wraparound
        masters = np.array([masters & _MASK64], dtype=np.uint64)
    mixed = _splitmix64(masters) ^ _splitmix64(ids ^ np.uint64(_STREAM_SALT))
    return _pcg64_seed_words(_splitmix64(mixed))


def derive_streams(masters: int | np.ndarray, ids: np.ndarray) -> list[np.random.Generator]:
    """Deterministic PCG64 generators, one per stream id in ids (see _stream_words).

    Generator i is np.random.default_rng of (masters, ids[i])'s mixed seed,
    its state equal to default_rng's on every platform and run.
    """
    from numpy.random import PCG64, Generator  # loaded by the first derivation

    return [Generator(PCG64(_seed_words(row))) for row in _stream_words(masters, ids)]


def stream_id_range(first: int, count: int) -> np.ndarray:
    """The uint64 stream ids first, ..., first + count - 1 of an int first, modulo 2^64."""
    return np.uint64(first & _MASK64) + np.arange(count, dtype=np.uint64)


def derive_stream(master_seed: int, stream_id: int = 0) -> np.random.Generator:
    """The generator of one pair of Python ints, each taken modulo 2^64."""
    return derive_streams(master_seed, stream_id_range(stream_id, 1))[0]


# PCG64 as numpy runs it (numpy/random/src/pcg64): a 128-bit LCG state s
# with an odd increment inc, stepped to s * _PCG_MULT + inc before each
# output.  A 128-bit array is a (high, low) pair of uint64 arrays.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
# A lane draw of up to this many values is one jump from the lane's state.
_JUMPS = 1024
_LOW32, _32 = np.uint64(_MASK32), np.uint64(32)


def _mulhi64(a: tuple[np.ndarray, np.ndarray], b: np.ndarray) -> np.ndarray:
    """The high 64 bits of each product a * b of uint64 arrays, a given as its 32-bit halves."""
    a0, a1 = a
    b0, b1 = b & _LOW32, b >> _32
    low, mid = a0 * b0, a1 * b0
    # At most (2^32 - 1)^2 + 2 (2^32 - 1) < 2^64: the sum does not wrap.
    cross = (low >> _32) + (mid & _LOW32) + a0 * b1
    return a1 * b1 + (mid >> _32) + (cross >> _32)


def _mul_add128(a: tuple, s: tuple, c: tuple, inc: tuple) -> tuple[np.ndarray, np.ndarray]:
    """a * s + c * inc modulo 2^128.

    a and c are (high, low, low's 32-bit halves) arrays, s and inc (high, low).
    """
    (a_hi, a_lo, a_halves), (c_hi, c_lo, c_halves) = a, c
    (s_hi, s_lo), (i_hi, i_lo) = s, inc
    lo_s, lo_i = a_lo * s_lo, c_lo * i_lo
    lo = lo_s + lo_i
    hi = (_mulhi64(a_halves, s_lo) + a_hi * s_lo + a_lo * s_hi
          + _mulhi64(c_halves, i_lo) + c_hi * i_lo + c_lo * i_hi)
    return hi + (lo < lo_s), lo  # the carry out of the low words


@functools.cache
def _jump_table() -> tuple[tuple, tuple]:
    """For p = 1.._JUMPS steps, the (A_p, C_p) that take state s to A_p s + C_p inc.

    A_p = mult^p and C_p = mult^(p-1) + ... + mult + 1 modulo 2^128, each
    as (high, low, low's 32-bit halves) arrays over p.  Built on first use.
    """
    a, c, rows = 1, 0, []
    for _ in range(_JUMPS):
        a, c = a * _PCG_MULT & _MASK128, (c * _PCG_MULT + 1) & _MASK128
        rows.append((a >> 64, a & _MASK64, c >> 64, c & _MASK64))
    a_hi, a_lo, c_hi, c_lo = (np.array(column, dtype=np.uint64) for column in zip(*rows))
    return ((a_hi, a_lo, (a_lo & _LOW32, a_lo >> _32)),
            (c_hi, c_lo, (c_lo & _LOW32, c_lo >> _32)))


def _jumped(state: tuple, inc: tuple, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The states 1..count steps on from each of the states: (lanes, count) (high, low) arrays."""
    table = _jump_table()
    a, c = ((hi[:count], lo[:count], (h0[:count], h1[:count])) for hi, lo, (h0, h1) in table)
    return _mul_add128(a, tuple(w[:, None] for w in state), c, tuple(w[:, None] for w in inc))


def _doubles(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Each state's output as Generator.random() gives it: XSL-RR, then (x >> 11) * 2^-53."""
    x, rot = hi ^ lo, hi >> np.uint64(58)
    x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    return (x >> np.uint64(11)) * (1.0 / (1 << 53))


class StreamLanes:
    """The PCG64 streams of derive_streams(masters, ids), drawn as arrays.

    Lane i is the stream of ids[i]: random(lanes, count) gives each of the
    lanes the next count values that derive_streams(masters, ids)[i].random()
    would, bit for bit, and advances those lanes alone.  A draw of up to
    _JUMPS values is one jump per lane, s_p = A_p s + C_p inc for p =
    1..count, a fixed number of array operations whatever its shape.
    """

    def __init__(self, masters: int | np.ndarray, ids: np.ndarray):
        words = _stream_words(masters, ids)
        # numpy's PCG64 takes initstate = (words 0, 1) and initseq = (words
        # 2, 3), high word first.  From state 0 it steps to inc, adds
        # initstate and steps once more.
        seq_hi, seq_lo = words[:, 2], words[:, 3]
        self.inc = np.stack([(seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63)),
                             (seq_lo << np.uint64(1)) | np.uint64(1)])
        lo = self.inc[1] + words[:, 1]
        start = (self.inc[0] + words[:, 0] + (lo < words[:, 1]), lo)
        self.state = np.stack([w[:, 0] for w in _jumped(start, self.inc, 1)])

    def random(self, lanes: Sequence[int] | np.ndarray, count: int) -> np.ndarray:
        """The next count >= 0 values of each lane in lanes: a (len(lanes), count) array."""
        state, inc = self.state[:, lanes], self.inc[:, lanes]
        blocks = [np.empty((state.shape[1], 0))]  # a draw of no values
        for start in range(0, count, _JUMPS):
            hi, lo = _jumped(state, inc, min(_JUMPS, count - start))
            blocks.append(_doubles(hi, lo))
            state = np.stack([hi[:, -1], lo[:, -1]])
        self.state[:, lanes] = state
        return blocks[-1] if len(blocks) <= 2 else np.concatenate(blocks, axis=1)


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
