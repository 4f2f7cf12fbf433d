"""Fluctuating interaction times and the correlated Ramsey-time channel.

Each atom crosses the cavity for a random time tau_k and, when a Ramsey
zone is configured, spends T_k = ramsey_ratio * tau_k in it (one velocity
per atom, fixed path lengths, hence perfect correlation).  The uniform law
spreads tau_k over a full width `spread` centered on tau_bar; the gaussian
law uses the same rms, spread/sqrt(12), resampling non-positive draws.

Streams derive deterministically from (master_seed, stream_id) so every
trajectory, sweep cell and output file is bit-reproducible.
"""
from __future__ import annotations

import math
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
            raise ConfigError(f"ramsey_ratio must be >= 0, got {self.ramsey_ratio}")

    @property
    def rms(self) -> float:
        """Standard deviation of tau_k under either law."""
        return self.spread * UNIFORM_RMS


@dataclass(frozen=True)
class SeedSpec:
    """Reproducibility handle: distinct pairs give independent streams."""

    master_seed: int
    stream_id: int = 0


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_stream(seed: SeedSpec) -> np.random.Generator:
    """Deterministic PCG64 generator for one (master_seed, stream_id) pair.

    Two SplitMix64 rounds mix the pair into a single 64-bit seed:
    mix(mix(master) XOR mix(stream_id XOR salt)).  The same pair yields the
    same sample sequence on every platform and run.
    """
    h_master = _splitmix64(seed.master_seed & _MASK64)
    h_stream = _splitmix64((seed.stream_id ^ _STREAM_SALT) & _MASK64)
    return np.random.default_rng(_splitmix64(h_master ^ h_stream))


def _draw_tau(model: TimingModel, rng: np.random.Generator) -> float:
    # Generator.uniform and Generator.normal as numpy defines them: the same
    # values from the same stream, without their per-call argument handling.
    if model.spread == 0.0:
        return model.tau_bar
    if model.law == "uniform":
        half = model.spread / 2.0
        low, high = model.tau_bar - half, model.tau_bar + half
        return low + (high - low) * rng.random()
    sigma = model.rms
    for _ in range(1000):
        tau = model.tau_bar + sigma * rng.standard_normal()
        if tau > 0.0:
            return tau
    raise RuntimeError("gaussian timing law failed to produce a positive time in 1000 draws")


def sample_timing(model: TimingModel, rng: np.random.Generator) -> tuple[float, float]:
    """Draw one atom's interaction time tau_k and Ramsey time T_k."""
    tau = _draw_tau(model, rng)
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
