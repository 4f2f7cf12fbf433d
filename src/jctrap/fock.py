"""Truncated Fock-space field states: construction, normalization, moments.

A field state is a vector of complex amplitudes c_n over photon numbers
n = 0..n_max.  All constructors return normalized states; moments are
mean_n = sum n |c_n|^2 and delta_n = sqrt(<n^2> - <n>^2).
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import LeakageError, OrthogonalOutcomeError

# Norm of any state returned by this module stays within NORM_ATOL of 1.
NORM_ATOL = 1e-10

# A squared norm at or below this marks a projection onto an orthogonal
# state: that of a vector to renormalize, or a post-selected atom's P_k.
ORTHOGONAL_NORM_SQ = 1e-12

# Coherent constructors zero amplitudes below this fraction of the peak.
# Such tails are smaller than the roundoff floor of double precision and
# keeping them would make "no population above the trap" claims unfalsifiable.
TAIL_FLOOR_REL = 1e-16

# Maximum pre-normalization probability a coherent state may lose to
# truncation before construction is refused.
COHERENT_LEAK_TOL = 1e-6


@dataclass(frozen=True)
class FieldState:
    """Pure field state over the truncated Fock basis n = 0..n_max."""

    amplitudes: np.ndarray
    n_max: int

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if amps.shape != (self.n_max + 1,):
            raise ValueError(
                f"amplitude vector has length {amps.shape[0]}, expected n_max+1 = {self.n_max + 1}"
            )
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def probabilities(self) -> np.ndarray:
        """P(n) = |c_n|^2."""
        return np.abs(self.amplitudes) ** 2


def default_n_max(trap_target: int) -> int:
    """Truncation bound for runs aiming at trap level n_t.

    n_t + max(30, ceil(8 sqrt(n_t+1))) keeps the top-3-level probability of
    every scenario's initial coherent state (and the transients it feeds)
    below the 1e-8 leakage guard.
    """
    if trap_target < 0:
        raise ValueError("trap_target must be >= 0")
    return trap_target + max(30, math.ceil(8.0 * math.sqrt(trap_target + 1.0)))


def coherent_state(alpha: complex, n_max: int) -> tuple[FieldState, float]:
    """Truncated, renormalized coherent state |alpha>.

    Amplitudes follow the stable recurrence c_{n+1} = c_n alpha / sqrt(n+1)
    starting from c_0 = exp(-|alpha|^2 / 2), avoiding factorial overflow.
    Returns the state together with the truncation leakage, the
    pre-normalization deficit 1 - sum |c_n|^2.

    Raises LeakageError if the leakage exceeds 1e-6 (n_max too small for
    the requested alpha).
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    alpha = complex(alpha)
    c = np.zeros(n_max + 1, dtype=complex)
    with contextlib.suppress(OverflowError):  # where |alpha|^2 overflows, c_0 is 0
        c[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(n_max):
        c[n + 1] = c[n] * alpha / math.sqrt(n + 1.0)
    norm_sq = float(np.vdot(c, c).real)
    leakage = max(0.0, 1.0 - norm_sq)
    if leakage > COHERENT_LEAK_TOL:
        raise LeakageError(
            f"coherent state |alpha|={abs(alpha):g} loses {leakage:.3e} probability "
            f"to truncation at n_max={n_max}; increase n_max"
        )
    # Zero sub-roundoff tails, then normalize.
    peak = np.abs(c).max()
    c[np.abs(c) < TAIL_FLOOR_REL * peak] = 0.0
    c /= math.sqrt(float(np.vdot(c, c).real))
    return FieldState(c, n_max), leakage


def fock_basis_state(n: int, n_max: int) -> FieldState:
    """Fock state |n> on the truncated basis."""
    if not 0 <= n <= n_max:
        raise ValueError(f"Fock level n={n} outside basis 0..{n_max}")
    c = np.zeros(n_max + 1, dtype=complex)
    c[n] = 1.0
    return FieldState(c, n_max)


def distribution_stats(distribution: np.ndarray) -> tuple[float, float]:
    """(mean_n, delta_n) of a photon-number distribution P(n)."""
    p = np.asarray(distribution, dtype=float)
    total = float(p.sum())
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"distribution sums to {total!r}, expected 1")
    ns = np.arange(p.shape[0], dtype=float)
    mean = float(ns @ p)
    var = float((ns * ns) @ p) - mean * mean
    return mean, math.sqrt(max(0.0, var))


def renormalize(state: FieldState) -> FieldState:
    """Scale amplitudes to unit norm, preserving relative phases.

    Raises OrthogonalOutcomeError when the squared norm is at or below
    1e-12 (the state was projected onto an orthogonal outcome).
    """
    norm_sq = state.norm_sq
    if norm_sq <= ORTHOGONAL_NORM_SQ:
        raise OrthogonalOutcomeError(
            f"cannot renormalize state with squared norm {norm_sq:.3e}"
        )
    return FieldState(state.amplitudes / math.sqrt(norm_sq), state.n_max)


def top_level_probability(distribution: np.ndarray) -> float | np.ndarray:
    """Probability held by the top 3 Fock levels of the basis.

    Monitored every simulation step; values above 1e-8 mean the truncation
    is corrupting the dynamics.  Distributions along the last axis of any
    leading shape, such as (atoms, cells, levels), give one value each.
    """
    p = np.asarray(distribution, dtype=float)
    return p[..., -3:].sum(axis=-1)
