"""Classical counterpart: parametrically driven pendulum and its return map.

In scaled time g*tau the polarization angle theta and dimensionless field
epsilon obey d(theta) = epsilon, d(epsilon) = sin(theta), conserving
E = epsilon^2/2 + cos(theta).  Per atom transit the field energy follows
the approximate return map

    eps_{k+1} = eps_k + (2/eps_k) sin^2(eps_k g tau_k / 2),

whose fixed points eps * g tau in 2 pi Z are marginally stable: attracting
from below, repelling from above, so small timing noise produces long
quiescent episodes interrupted by escapes (intermittent chaos).  The
coupling g is the unit of frequency, so each drawn time tau_k is g tau_k.
"""
from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SimulationError
from .stochastic import (
    TimingModel,
    check_seeds,
    derive_stream,
    int_token,
    number_token,
    sample_timing_array,
)

# The smallest epsilon whose 2/epsilon and the largest whose epsilon^2 are finite.
EPSILON_MIN = math.nextafter(2.0 / sys.float_info.max, 1.0)
EPSILON_MAX = math.sqrt(sys.float_info.max)

# Steps per block: one timing draw and one overflow check each.
MAP_BLOCK = 8192


def pendulum_rhs(theta: float, epsilon: float) -> tuple[float, float]:
    """(d theta, d epsilon) per unit scaled time: (epsilon, sin theta)."""
    return epsilon, math.sin(theta)


def pendulum_energy(theta: float, epsilon: float) -> float:
    """First integral epsilon^2/2 + cos(theta) of the pendulum flow."""
    return epsilon**2 / 2.0 + math.cos(theta)


def integrate_pendulum(theta: float, epsilon: float, duration: float,
                       step: float) -> tuple[float, float]:
    """(theta, epsilon) after fixed-step 4th-order Runge-Kutta over `duration`.

    theta is the unwrapped tipping angle.  At step <= 1e-3 the first
    integral drifts by well under 1e-9 per unit scaled time.
    """
    if step <= 0:
        raise ValueError("step must be > 0")
    if duration < 0:
        raise ValueError("duration must be >= 0")
    remaining = duration
    while remaining > 0.0:
        h = step if remaining >= step else remaining
        k1t, k1e = pendulum_rhs(theta, epsilon)
        k2t, k2e = pendulum_rhs(theta + 0.5 * h * k1t, epsilon + 0.5 * h * k1e)
        k3t, k3e = pendulum_rhs(theta + 0.5 * h * k2t, epsilon + 0.5 * h * k2e)
        k4t, k4e = pendulum_rhs(theta + h * k3t, epsilon + h * k3e)
        theta += h * (k1t + 2.0 * k2t + 2.0 * k3t + k4t) / 6.0
        epsilon += h * (k1e + 2.0 * k2e + 2.0 * k3e + k4e) / 6.0
        remaining -= h
    return theta, epsilon


def return_map_approx(epsilon: float, g_tau: float) -> float:
    """One atom transit: epsilon + (2/epsilon) sin^2(epsilon g_tau / 2)."""
    if epsilon == 0.0:
        raise ValueError("return map is singular at epsilon = 0")
    s = math.sin(epsilon * g_tau / 2.0)
    return epsilon + (2.0 / epsilon) * s * s


@dataclass(frozen=True)
class ClassicalConfig:
    """One return-map trajectory; build_classical_config makes one.

    It checks its fields when made, so a replace() is checked too; the
    message names the config token.
    """

    epsilon0: float
    n_steps: int
    timing: TimingModel
    master_seed: int
    stream_id: int

    def __post_init__(self):
        epsilon0 = number_token("epsilon0", self.epsilon0)
        if not math.isfinite(epsilon0):
            raise ConfigError(f"epsilon0: must be finite, got {epsilon0}")
        if not epsilon0 > 0:
            raise ConfigError(f"epsilon0: must be > 0, got {epsilon0}")
        if not EPSILON_MIN <= epsilon0 <= EPSILON_MAX:
            bound = f">= {EPSILON_MIN!r}" if epsilon0 < EPSILON_MIN else f"<= {EPSILON_MAX!r}"
            raise ConfigError(f"epsilon0: must be {bound}, got {epsilon0}")
        if int_token("steps", self.n_steps) < 0:
            raise ConfigError(f"steps: must be >= 0, got {self.n_steps}")
        check_seeds(self.master_seed, self.stream_id)


def build_classical_config(
    *,
    epsilon0: float,
    n_steps: int,
    tau_bar: float,
    spread_time: float | None = None,
    spread_frac: float = 0.0,
    law: str = "uniform",
    master_seed: int = 0,
    stream_id: int = 0,
) -> ClassicalConfig:
    """A ClassicalConfig; the spread is spread_time, else spread_frac * tau_bar.

    The step count and seeds are read as Python ints (numpy integers
    included), and a value that is not a number raises ConfigError.
    """
    tau_bar = number_token("tau_bar_in_inv_g", tau_bar)
    if spread_time is None:
        spread_time = number_token("spread_frac", spread_frac) * tau_bar
    timing = TimingModel(tau_bar=tau_bar, spread=spread_time, law=law)
    return ClassicalConfig(epsilon0, int_token("steps", n_steps), timing,
                           int_token("seed", master_seed), int_token("stream", stream_id))


def classical_trajectory(config: ClassicalConfig) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Iterate the return map with times drawn from the config's stream.

    Yields (taus, epsilons) per block of at most MAP_BLOCK steps: the block's
    times and epsilon after each of its steps (epsilon before the first step
    is config.epsilon0).  Raises SimulationError before a block of steps that
    could overflow, so the blocks yielded before it stand.
    """
    n_steps = config.n_steps
    rng = derive_stream(config.master_seed, config.stream_id)
    eps = config.epsilon0
    for done in range(0, n_steps, MAP_BLOCK):
        count = min(MAP_BLOCK, n_steps - done)
        taus, _ = sample_timing_array(config.timing, rng, count)
        # A step adds at most min(2/eps, eps (g tau)^2 / 2) <= g tau to eps.
        g_tau = float(taus.max())
        top = eps + count * g_tau  # above every eps of the block
        if not (top <= EPSILON_MAX and math.isfinite(top * g_tau)):
            raise SimulationError(f"return map may overflow in steps {done + 1}-{done + count}: "
                                  f"epsilon may reach {top:.6g}, epsilon g tau {top * g_tau:.6g}")
        # map(eps), map(map(eps)), ...: the block's `count` steps, read one at
        # a time; the list of its times lives only while they are read.
        epsilons = np.fromiter(itertools.islice(
            itertools.accumulate(taus.tolist(), return_map_approx, initial=eps), 1, None),
            float, count)
        eps = float(epsilons[-1])
        yield taus, epsilons
