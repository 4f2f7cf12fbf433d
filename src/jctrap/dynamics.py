"""One-atom cavity dynamics and measurement updates.

An excited two-level atom crossing the field for a time tau entangles with
it: each Fock component n acquires a Rabi phase theta_n = tau sqrt(n+1),

    c_n |e,n>  ->  c_n [cos(theta_n) |e,n> - i sin(theta_n) |g,n+1>].

Detecting the atom afterwards updates the field.  Ignoring the outcome
(non-selective measurement) maps the populations

    P(n) -> P(n) cos^2(theta_n) + P(n-1) sin^2(theta_{n-1}),

while post-selecting a final atomic state alpha_f |e> + beta_f |g>
(a conditional measurement, CM) projects the amplitudes

    d_n = alpha_f^* cos(theta_n) c_n - i beta_f^* sin(theta_{n-1}) c_{n-1},

followed by renormalization; the success probability is P_k = sum |d_n|^2.

Fock levels with theta_n = q pi are trapping states: stimulated emission
out of them vanishes, so population piles up there from below.

The field-dipole coupling g is the unit of frequency and 1/g that of time:
only the product g tau enters the dynamics, so every time here is g tau.
The Ramsey angle Omega T enters alone and the stationary-phase closure
fixes it, so Ramsey times T are written for Omega = g: the angle is T.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import LeakageError, OrthogonalOutcomeError
from .fock import NORM_ATOL, ORTHOGONAL_NORM_SQ, FieldState, renormalize

# Rabi phases within this fraction of pi from an exact multiple q*pi are
# snapped onto it.  Without the snap, sin(theta) at a trapping time computed
# from pi/sqrt(n_t+1) evaluates to a few ULP instead of zero and the
# exact-blockage property is lost to rounding.  Physical fluctuations put
# theta many orders of magnitude farther from q*pi than this.
TRAP_SNAP_TOL = 1e-12

# An atom may not run when the probability it would carry out of the
# truncated basis, P(n_max) sin^2 theta_nmax, exceeds this (a NaN too).  The
# update kernel and the one-state references below read this one limit.
LEAK_P_TOL = 1e-16


class EntangledState(NamedTuple):
    """Atom-field state after one interaction, split by atomic branch.

    e_branch[n] multiplies |e>|n>, g_branch[n] multiplies |g>|n+1>, for
    n = 0..n_max.
    """

    e_branch: np.ndarray
    g_branch: np.ndarray


@dataclass(frozen=True)
class AtomRotation:
    """Post-selected final atomic state alpha_f |e> + beta_f |g>."""

    alpha_f: complex
    beta_f: complex

    def __post_init__(self):
        norm_sq = abs(self.alpha_f) ** 2 + abs(self.beta_f) ** 2
        if abs(norm_sq - 1.0) > 1e-12:
            raise ValueError(f"rotation not normalized: |a|^2+|b|^2 = {norm_sq!r}")


ELASTIC_ROTATION = AtomRotation(1.0 + 0j, 0j)      # keep atoms detected in |e>
INELASTIC_ROTATION = AtomRotation(0j, 1.0 + 0j)    # keep atoms detected in |g>

# After each atom "nsm" ignores the outcome, "elastic"/"inelastic" post-select
# |e>/|g> and "superposition" the Ramsey-rotated state of final phase phi_f.
SCHEME_KINDS = ("nsm", "elastic", "inelastic", "superposition")


def theta(tau: float, n: int) -> float:
    """Rabi phase theta_n = tau sqrt(n+1)."""
    return tau * math.sqrt(n + 1.0)


def trapping_time(n_t: int, q: int) -> float:
    """Interaction time with theta_{n_t} = q pi, blocking emission out of n_t.

    q = 0 is allowed and gives tau = 0 (identity dynamics).
    """
    if n_t < 0:
        raise ValueError("n_t must be >= 0")
    if q < 0:
        raise ValueError("q must be >= 0")
    return q * math.pi / math.sqrt(n_t + 1.0)


def critical_spread(n_t: int) -> float:
    """Spread separating convergent from non-convergent regimes.

    The gap between the trapping (theta_{n_t} = pi) and anti-trapping
    (theta_{n_t} = pi/2) interaction times: pi / (2 sqrt(n_t+1)).
    """
    if n_t < 0:
        raise ValueError("n_t must be >= 0")
    return math.pi / (2.0 * math.sqrt(n_t + 1.0))


def stationary_phase_ratio(n_t: int) -> float:
    """Ramsey-to-cavity time ratio r making the CM phase stationary at n_t.

    With T_k = r tau_k and r = 2 sqrt(n_t+1), the correlated-CM cosine
    argument T_k / 2 - tau_k sqrt(n+1) vanishes at n = n_t for every tau_k,
    pinning the trap level against timing fluctuations.
    """
    if n_t < 0:
        raise ValueError("n_t must be >= 0")
    return 2.0 * math.sqrt(n_t + 1.0)


@functools.lru_cache(maxsize=32)
def _level_roots(n_max: int) -> np.ndarray:
    """sqrt(n+1) for n = 0..n_max, shared and read-only."""
    roots = np.sqrt(np.arange(n_max + 1, dtype=float) + 1.0)
    roots.setflags(write=False)
    return roots


def rabi_cos_sin(tau, n_max: int, cos: bool = True, first: int = 0) -> tuple:
    """(cos_t, sin_t) of the Rabi phases theta_n, snapped at multiples of pi.

    Only the parts asked for are computed: cos_t covers levels 0..n_max, or
    is None unless cos; sin_t covers levels first..n_max (first = n_max
    gives the top level's alone).  tau is one interaction time, or times of
    any shape ending in 1, such as (atoms, cells, 1): each row of levels
    equals the one-time result bit for bit.
    """
    thetas = tau * _level_roots(n_max)
    ratio = thetas / math.pi
    q = np.rint(ratio)
    snap = np.abs(np.subtract(ratio, q, out=ratio), out=ratio) < TRAP_SNAP_TOL
    snapped = snap.any()
    cos_t = None
    if first:  # some levels' sines, read before the cosines overwrite thetas
        sin_t = np.sin(thetas[..., first:])
    if cos:  # into thetas, unless every level's sines are still to come from it
        cos_t = np.cos(thetas, out=None if first == 0 else thetas)
        if snapped:
            cos_t[snap] = np.where(q[snap].astype(np.int64) % 2 == 0, 1.0, -1.0)
    if first == 0:
        sin_t = np.sin(thetas, out=thetas)
    if snapped:
        sin_t[snap[..., first:]] = 0.0
    return cos_t, sin_t


def _check_leak(p_top: float, sin_top: float) -> None:
    """Raise LeakageError unless P(n_max) sin^2 theta_nmax <= LEAK_P_TOL."""
    lost = p_top * np.square(sin_top)
    if not lost <= LEAK_P_TOL:
        raise LeakageError(
            f"population would leave truncation: P(n_max) sin^2 theta_nmax = {lost:.3e}"
        )


def jcm_entangle(field: FieldState, tau: float) -> EntangledState:
    """Entangle an excited atom with the field for an interaction time tau.

    Raises LeakageError when the top Fock level would emit more than 1e-16
    of probability out of the truncated basis: P(n_max) sin^2 theta_nmax,
    with P(n_max) = |c_{n_max}|^2, the check nsm_step makes.
    """
    cos_t, sin_t = rabi_cos_sin(tau, field.n_max)
    _check_leak(field.probabilities()[-1], sin_t[-1])
    return EntangledState(field.amplitudes * cos_t, -1j * field.amplitudes * sin_t)


def nsm_step(probs: np.ndarray, tau: float) -> np.ndarray:
    """Non-selective measurement update of the photon-number populations.

    P'(n) = P(n) cos^2(theta_n) + P(n-1) sin^2(theta_{n-1}), with P(-1) = 0.
    Conserves total probability; raises LeakageError when the top level
    would lose more than 1e-16 of probability out of the basis.
    """
    p = np.asarray(probs, dtype=float)
    total = float(p.sum())
    if abs(total - 1.0) > NORM_ATOL:
        raise ValueError(f"input populations sum to {total!r}, expected 1")
    n_max = p.shape[0] - 1
    cos_t, sin_t = rabi_cos_sin(tau, n_max)
    _check_leak(p[-1], sin_t[-1])
    out = p * cos_t**2
    out[1:] += p[:-1] * sin_t[:-1] ** 2
    return out


def ramsey_coeffs(T: float, phi_f: float) -> AtomRotation:
    """Final-state coefficients after a Ramsey rotation of angle T.

    alpha_f = cos(T / 2), beta_f = sin(T / 2) e^{i phi_f}.
    """
    if T < 0:
        raise ValueError("Ramsey time T must be >= 0")
    half = T / 2.0
    return AtomRotation(complex(math.cos(half)), math.sin(half) * cmath.exp(1j * phi_f))


def orthogonal_rotation(rot: AtomRotation) -> AtomRotation:
    """The final state orthogonal to rot: (-beta_f^*, alpha_f^*)."""
    return AtomRotation(-rot.beta_f.conjugate(), rot.alpha_f.conjugate())


def project_amplitudes(ent: EntangledState, rot: AtomRotation) -> np.ndarray:
    """Unnormalized field amplitudes after projecting the atom onto rot.

    Raises ValueError unless both branches cover the same levels.
    """
    if len(ent.e_branch) != len(ent.g_branch):
        raise ValueError(f"branch lengths differ: {len(ent.e_branch)} and {len(ent.g_branch)}")
    d = rot.alpha_f.conjugate() * ent.e_branch
    d[1:] += rot.beta_f.conjugate() * ent.g_branch[:-1]
    return d


def cm_project(ent: EntangledState, rot: AtomRotation) -> tuple[FieldState, float]:
    """Conditional-measurement projection onto the final atomic state rot.

    Returns the renormalized field state and the success probability
    P_k = sum |d_n|^2 of that detection.  Raises OrthogonalOutcomeError
    when P_k is at or below 1e-12 (ORTHOGONAL_NORM_SQ).
    """
    d = project_amplitudes(ent, rot)
    p_k = float(np.vdot(d, d).real)
    if p_k <= ORTHOGONAL_NORM_SQ:
        raise OrthogonalOutcomeError(
            f"post-selected state is orthogonal to the field (P_k = {p_k:.3e})"
        )
    state = renormalize(FieldState(d, len(d) - 1))
    return state, min(p_k, 1.0)


def approx_cm_coefficient(c_prev: complex, T: float, tau: float, n: int) -> complex:
    """Large-n conditional-measurement update of a single amplitude.

    For phi_f = -pi/2 and slowly varying amplitudes the projection reduces
    per component to cos(T/2 - tau sqrt(n+1)) c_n, up to the common
    normalization.  Serves as the consistency oracle for cm_project.
    """
    return math.cos(T / 2.0 - theta(tau, n)) * c_prev


def correlated_cm_factors(
    T: float,
    tau: float,
    n_max: int,
    phi_f: float = -math.pi / 2,
    failure: bool = True,
) -> tuple:
    """Per-level success and orthogonal-outcome factors of a correlated CM.

    This is the fluctuation-suppressed form of the conditional measurement
    for Ramsey times correlated with the interaction time: amplitude n is
    multiplied by the success factor on the desired detection or by the
    orthogonal factor otherwise, with |f|^2 + |f_orth|^2 = 1 per level.
    For phi_f = -pi/2 the factors are cos/sin(T/2 - theta_n);
    arguments within 1e-12 of zero are snapped so the stationary level is
    held exactly.  The orthogonal factor is None, and not computed, unless
    failure.  T and tau may be times of one shape ending in 1, such as
    (atoms, cells, 1): each row of levels equals the one-pair result bit for bit.
    """
    if phi_f == -math.pi / 2:
        arg = T / 2.0 - tau * _level_roots(n_max)
        arg[np.abs(arg) < TRAP_SNAP_TOL] = 0.0
        return (np.cos(arg), np.sin(arg)) if failure else (np.cos(arg, out=arg), None)
    thetas = tau * _level_roots(n_max)
    half = np.asarray(T / 2.0)
    # General final phase: success cosA cos(th) - i e^{-i phi} sinA sin(th),
    # orthogonal -e^{i phi} sinA cos(th) - i cosA sin(th).  math.cos per
    # value, since np.cos may differ from it in the last place.
    halves = half.ravel().tolist()
    cos_a, sin_a = (np.reshape([f(x) for x in halves], half.shape) for f in (math.cos, math.sin))
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    success = cos_a * cos_t - 1j * cmath.exp(-1j * phi_f) * sin_a * sin_t
    failure = -cmath.exp(1j * phi_f) * sin_a * cos_t - 1j * cos_a * sin_t if failure else None
    return success, failure
