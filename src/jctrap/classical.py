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
from dataclasses import dataclass

import numpy as np

from .csvfile import BLOCK_ROWS, write_csv
from .errors import ConfigError, SimulationError
from .stochastic import TimingModel, derive_stream, int_token, sample_timing_array

# The smallest epsilon whose 2/epsilon and the largest whose epsilon^2 are finite.
EPSILON_MIN = math.nextafter(2.0 / sys.float_info.max, 1.0)
EPSILON_MAX = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class PendulumState:
    """Tipping angle theta (unwrapped) and dimensionless field epsilon."""

    theta: float
    epsilon: float


def pendulum_rhs(state: PendulumState) -> tuple[float, float]:
    """(d theta, d epsilon) per unit scaled time: (epsilon, sin theta)."""
    return state.epsilon, math.sin(state.theta)


def pendulum_energy(state: PendulumState) -> float:
    """First integral epsilon^2/2 + cos(theta) of the pendulum flow."""
    return state.epsilon**2 / 2.0 + math.cos(state.theta)


def integrate_pendulum(state: PendulumState, duration: float, step: float) -> PendulumState:
    """Fixed-step 4th-order Runge-Kutta integration over `duration`.

    At step <= 1e-3 the first integral drifts by well under 1e-9 per unit
    scaled time.
    """
    if step <= 0:
        raise ValueError("step must be > 0")
    if duration < 0:
        raise ValueError("duration must be >= 0")
    th, eps = state.theta, state.epsilon
    remaining = duration
    while remaining > 0.0:
        h = step if remaining >= step else remaining
        k1t, k1e = eps, math.sin(th)
        k2t, k2e = eps + 0.5 * h * k1e, math.sin(th + 0.5 * h * k1t)
        k3t, k3e = eps + 0.5 * h * k2e, math.sin(th + 0.5 * h * k2t)
        k4t, k4e = eps + h * k3e, math.sin(th + h * k3t)
        th += h * (k1t + 2.0 * k2t + 2.0 * k3t + k4t) / 6.0
        eps += h * (k1e + 2.0 * k2e + 2.0 * k3e + k4e) / 6.0
        remaining -= h
    return PendulumState(th, eps)


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
        epsilon0 = self.epsilon0
        if not math.isfinite(epsilon0):
            raise ConfigError(f"epsilon0: must be finite, got {epsilon0}")
        if not epsilon0 > 0:
            raise ConfigError(f"epsilon0: must be > 0, got {epsilon0}")
        if not EPSILON_MIN <= epsilon0 <= EPSILON_MAX:
            bound = f">= {EPSILON_MIN!r}" if epsilon0 < EPSILON_MIN else f"<= {EPSILON_MAX!r}"
            raise ConfigError(f"epsilon0: must be {bound}, got {epsilon0}")
        if int_token("steps", self.n_steps) < 0:
            raise ConfigError(f"steps: must be >= 0, got {self.n_steps}")
        for token, value in (("seed", self.master_seed), ("stream", self.stream_id)):
            if not isinstance(value, int):
                raise ConfigError(f"{token}: must be a Python int, got {value!r}")


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

    The step count and seeds are read as Python ints (numpy integers included).
    """
    if spread_time is None:
        spread_time = spread_frac * tau_bar
    timing = TimingModel(tau_bar=tau_bar, spread=spread_time, law=law)
    return ClassicalConfig(epsilon0, int_token("steps", n_steps), timing,
                           int_token("seed", master_seed), int_token("stream", stream_id))


def classical_trajectory(config: ClassicalConfig) -> tuple[np.ndarray, np.ndarray]:
    """Iterate the return map with times drawn from the config's stream.

    Returns (taus, epsilons), n_steps and n_steps + 1 long (with the initial
    value); raises SimulationError before a block of steps that could overflow.
    """
    n_steps = config.n_steps
    rng = derive_stream(config.master_seed, config.stream_id)
    taus = np.empty(n_steps)
    eps_out = np.empty(n_steps + 1)
    eps_out[0] = eps = config.epsilon0
    done = 0
    block = 8192
    while done < n_steps:
        count = min(block, n_steps - done)
        chunk, _ = sample_timing_array(config.timing, rng, count)
        taus[done : done + count] = chunk
        # A step adds at most min(2/eps, eps (g tau)^2 / 2) <= g tau to eps.
        g_tau = float(chunk.max())
        top = eps + count * g_tau  # above every eps of the block
        if not (top <= EPSILON_MAX and math.isfinite(top * g_tau)):
            raise SimulationError(f"return map may overflow in steps {done + 1}-{done + count}: "
                                  f"epsilon may reach {top:.6g}, epsilon g tau {top * g_tau:.6g}")
        # eps, map(eps), map(map(eps)), ...: the block's start and its `count`
        # steps, read one at a time so no list of the block's floats is built.
        steps = itertools.accumulate(chunk.tolist(), return_map_approx, initial=eps)
        eps_out[done : done + count + 1] = np.fromiter(steps, float, count + 1)
        done += count
        eps = float(eps_out[done])
    return taus, eps_out


def write_classical_csv(path, taus: np.ndarray, epsilons: np.ndarray) -> str:
    """Trajectory CSV `k,tau_k,epsilon,eps_sq_over_4`; row 0 holds the start.

    Returns the sha256 hex digest of the bytes written.
    """

    def blocks():
        e0 = float(epsilons[0])
        yield [(0, 0, e0, e0 * e0 / 4.0)]
        for lo in range(0, len(taus), BLOCK_ROWS):
            eps = epsilons[lo + 1 : lo + 1 + BLOCK_ROWS].tolist()
            # Python's `e ** 2` (libm pow), not `e * e` as numpy squares: the
            # two differ in the last bit on 843 of fig1d's 10^6 rows.
            quarter_sq = [e ** 2 / 4.0 for e in eps]
            ks = range(lo + 1, lo + 1 + len(eps))
            yield zip(ks, taus[lo : lo + BLOCK_ROWS].tolist(), eps, quarter_sq)

    return write_csv(
        path,
        b"k,tau_k,epsilon,eps_sq_over_4\n",
        b"%d,%.17g,%.17g,%.17g\n",
        itertools.chain.from_iterable(blocks()),
    )
