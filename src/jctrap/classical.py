"""Classical counterpart: parametrically driven pendulum and its return map.

In scaled time g*tau the polarization angle theta and dimensionless field
epsilon obey d(theta) = epsilon, d(epsilon) = sin(theta), conserving
E = epsilon^2/2 + cos(theta).  Per atom transit the field energy follows
the approximate return map

    eps_{k+1} = eps_k + (2/eps_k) sin^2(eps_k g tau_k / 2),

whose fixed points eps * g tau in 2 pi Z are marginally stable: attracting
from below, repelling from above, so small timing noise produces long
quiescent episodes interrupted by escapes (intermittent chaos).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import CouplingParams
from .stochastic import SeedSpec, TimingModel, derive_stream, sample_timing_array


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


def classical_trajectory(
    epsilon0: float,
    n_steps: int,
    timing: TimingModel,
    params: CouplingParams,
    seed: SeedSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """Iterate the return map with drawn times.

    Returns (taus, epsilons) with len(taus) = n_steps and
    len(epsilons) = n_steps + 1 including the initial value.
    """
    if not epsilon0 > 0:
        raise ValueError("epsilon0 must be > 0")
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    rng = derive_stream(seed)
    taus = np.empty(n_steps)
    eps_out = np.empty(n_steps + 1)
    eps_out[0] = epsilon0
    eps = epsilon0
    done = 0
    block = 8192
    while done < n_steps:
        count = min(block, n_steps - done)
        chunk, _ = sample_timing_array(timing, rng, count)
        taus[done : done + count] = chunk
        for g_tau in (chunk * params.g).tolist():
            eps = return_map_approx(eps, g_tau)
            done += 1
            eps_out[done] = eps
    return taus, eps_out


def classical_run(
    epsilon0: float,
    n_steps: int,
    timing: TimingModel,
    params: CouplingParams,
    seed: SeedSpec,
) -> np.ndarray:
    """Field energy eps^2/4 along a return-map trajectory.

    Entry k is the energy after k atoms; entry 0 is the initial value.
    """
    _, eps = classical_trajectory(epsilon0, n_steps, timing, params, seed)
    return eps * eps / 4.0


def write_classical_csv(path, taus: np.ndarray, epsilons: np.ndarray) -> None:
    """Trajectory CSV `k,tau_k,epsilon,eps_sq_over_4`; row 0 holds the start."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k,tau_k,epsilon,eps_sq_over_4\n")
        e0 = float(epsilons[0])
        fh.write(f"0,0,{format(e0, '.17g')},{format(e0 * e0 / 4.0, '.17g')}\n")
        for k, (tau, eps) in enumerate(zip(taus, epsilons[1:]), start=1):
            fh.write(
                f"{k},{format(float(tau), '.17g')},{format(float(eps), '.17g')},"
                f"{format(float(eps) ** 2 / 4.0, '.17g')}\n"
            )
