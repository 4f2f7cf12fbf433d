"""Entanglement, measurement updates and trapping-condition helpers."""
import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jctrap.dynamics import (
    ELASTIC_ROTATION,
    INELASTIC_ROTATION,
    AtomRotation,
    EntangledState,
    approx_cm_coefficient,
    cm_project,
    correlated_cm_factors,
    critical_spread,
    jcm_entangle,
    nsm_step,
    orthogonal_rotation,
    project_amplitudes,
    rabi_cos_sin,
    ramsey_coeffs,
    stationary_phase_ratio,
    theta,
    trapping_time,
)
from jctrap.errors import ConfigError, LeakageError, OrthogonalOutcomeError
from jctrap.experiment import build_run_config
from jctrap.fock import FieldState, fock_basis_state


def random_state(rng: np.random.Generator, n_max: int, top_zeros: int = 1) -> FieldState:
    """Random normalized state with the top `top_zeros` levels empty."""
    amps = rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1)
    if top_zeros:
        amps[-top_zeros:] = 0.0
    amps /= np.linalg.norm(amps)
    return FieldState(amps, n_max)


class TestTheta:
    def test_fig2_trapping_value(self):
        assert abs(theta(math.pi / math.sqrt(21.0), 20) - math.pi) < 1e-12

    def test_zero_time(self):
        assert theta(0.0, 11) == 0.0

    def test_direct_substitution(self):
        assert abs(theta(math.pi / math.sqrt(22.0), 21) - math.pi) < 1e-12


class TestTrappingTime:
    def test_fig2_value(self):
        tau = trapping_time(20, 1)
        assert tau == math.pi / math.sqrt(21.0)
        assert abs(tau - 0.68555172) < 1e-7

    def test_vacuum_trap(self):
        assert trapping_time(0, 1) == math.pi

    def test_fig1_trap(self):
        assert trapping_time(138, 1) == math.pi / math.sqrt(139.0)

    def test_theta_at_trap_is_q_pi(self):
        for n_t, q in ((20, 1), (138, 1), (7, 3)):
            tau = trapping_time(n_t, q)
            assert abs(theta(tau, n_t) - q * math.pi) < 1e-12

    def test_q_zero_allowed(self):
        assert trapping_time(5, 0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            trapping_time(-1, 1)
        with pytest.raises(ValueError):
            trapping_time(5, -1)


class TestCriticalSpread:
    def test_trap_20(self):
        value = critical_spread(20)
        assert value == math.pi / (2.0 * math.sqrt(21.0))
        assert abs(value - 0.34277586) < 1e-7

    def test_vacuum(self):
        assert critical_spread(0) == math.pi / 2.0

    def test_trap_21(self):
        assert critical_spread(21) == math.pi / (2.0 * math.sqrt(22.0))


class TestJcmEntangle:
    def test_vacuum_full_transfer(self):
        ent = jcm_entangle(fock_basis_state(0, 5), math.pi / 2.0)
        assert np.all(np.abs(ent.e_branch) < 1e-12)
        assert abs(ent.g_branch[0] - (-1j)) < 1e-12

    def test_trapping_blockage_on_fock_20(self):
        ent = jcm_entangle(fock_basis_state(20, 40), math.pi / math.sqrt(21.0))
        assert ent.e_branch[20] == -1.0
        assert ent.g_branch[20] == 0.0

    def test_direct_evaluation_two_level_superposition(self):
        amps = np.zeros(3, dtype=complex)
        amps[0] = amps[1] = 1.0 / math.sqrt(2.0)
        ent = jcm_entangle(FieldState(amps, 2), 0.3)
        r = 1.0 / math.sqrt(2.0)
        assert abs(ent.e_branch[0] - r * math.cos(0.3)) < 1e-12
        assert abs(ent.e_branch[1] - r * math.cos(0.3 * math.sqrt(2.0))) < 1e-12
        assert abs(ent.g_branch[0] - (-1j) * r * math.sin(0.3)) < 1e-12
        assert abs(ent.g_branch[1] - (-1j) * r * math.sin(0.3 * math.sqrt(2.0))) < 1e-12

    def test_leakage_refused_at_top_level(self):
        with pytest.raises(LeakageError):
            jcm_entangle(fock_basis_state(5, 5), 0.3)

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 2.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_property_norm_preserved(self, seed, tau):
        state = random_state(np.random.default_rng(seed), 16)
        ent = jcm_entangle(state, tau)
        e, g = ent
        assert abs(np.vdot(e, e).real + np.vdot(g, g).real - 1.0) < 1e-12


class TestNsmStep:
    def test_vacuum_at_trapping_time(self):
        p = np.zeros(6)
        p[0] = 1.0
        out = nsm_step(p, math.pi)
        assert out[0] == 1.0
        assert np.all(out[1:] == 0.0)

    def test_vacuum_full_transfer(self):
        p = np.zeros(6)
        p[0] = 1.0
        out = nsm_step(p, math.pi / 2.0)
        assert abs(out[1] - 1.0) < 1e-12
        assert abs(out[0]) < 1e-12

    def test_direct_evaluation(self):
        p = np.zeros(4)
        p[0] = p[1] = 0.5
        out = nsm_step(p, 0.4)
        s2 = math.sqrt(2.0)
        assert abs(out[0] - 0.5 * math.cos(0.4) ** 2) < 1e-12
        assert abs(out[1] - (0.5 * math.sin(0.4) ** 2 + 0.5 * math.cos(0.4 * s2) ** 2)) < 1e-12
        assert abs(out[2] - 0.5 * math.sin(0.4 * s2) ** 2) < 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            nsm_step(np.array([0.4, 0.4]), 0.2)

    def test_leakage_at_top(self):
        p = np.zeros(7)
        p[-1] = 1.0
        with pytest.raises(LeakageError):
            nsm_step(p, 0.3)

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 2.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_property_probability_conserved(self, seed, tau):
        rng = np.random.default_rng(seed)
        p = rng.random(20)
        p[-1] = 0.0
        p /= p.sum()
        out = nsm_step(p, tau)
        assert abs(out.sum() - p.sum()) < 1e-12


class TestRamseyCoeffs:
    def test_no_rotation(self):
        rot = ramsey_coeffs(0.0, -math.pi / 2)
        assert rot.alpha_f == 1.0
        assert rot.beta_f == 0.0

    def test_pi_rotation(self):
        rot = ramsey_coeffs(math.pi, -math.pi / 2)
        assert abs(rot.alpha_f) < 1e-12
        assert abs(rot.beta_f - (-1j)) < 1e-12

    def test_half_pi_rotation(self):
        rot = ramsey_coeffs(math.pi / 2.0, -math.pi / 2)
        assert abs(rot.alpha_f - math.cos(math.pi / 4.0)) < 1e-12
        assert abs(rot.beta_f - (-1j) * math.sin(math.pi / 4.0)) < 1e-12

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ramsey_coeffs(-0.1, 0.0)

    def test_rotation_must_be_normalized(self):
        with pytest.raises(ValueError):
            AtomRotation(1.0, 1.0)


class TestCmProject:
    def test_elastic_on_trapped_fock(self):
        ent = jcm_entangle(fock_basis_state(20, 40), math.pi / math.sqrt(21.0))
        state, p_k = cm_project(ent, ELASTIC_ROTATION)
        assert p_k == 1.0
        assert abs(abs(state.amplitudes[20]) - 1.0) < 1e-12

    def test_inelastic_on_trapped_fock_is_orthogonal(self):
        ent = jcm_entangle(fock_basis_state(20, 40), math.pi / math.sqrt(21.0))
        with pytest.raises(OrthogonalOutcomeError):
            cm_project(ent, INELASTIC_ROTATION)

    def test_success_probability_at_the_limit_is_orthogonal(self):
        # P_k at ORTHOGONAL_NORM_SQ is orthogonal, as renormalize refuses that norm.
        e_branch = np.zeros(6, dtype=complex)
        e_branch[2] = 1e-6
        ent = EntangledState(e_branch, np.zeros(6, dtype=complex))
        message = r"orthogonal to the field \(P_k = 1\.000e-12\)"
        with pytest.raises(OrthogonalOutcomeError, match=message):
            cm_project(ent, ELASTIC_ROTATION)

    def test_branches_of_unequal_length_refused(self):
        # Unchecked, a 2-level g branch would broadcast over a 6-level e branch.
        ent = EntangledState(np.ones(6, dtype=complex), np.ones(2, dtype=complex))
        rot = ramsey_coeffs(math.pi / 2.0, -math.pi / 2.0)
        with pytest.raises(ValueError, match="branch lengths differ: 6 and 2"):
            project_amplitudes(ent, rot)
        with pytest.raises(ValueError, match="branch lengths differ: 6 and 2"):
            cm_project(ent, rot)

    def test_inelastic_after_full_transfer(self):
        ent = jcm_entangle(fock_basis_state(0, 5), math.pi / 2.0)
        state, p_k = cm_project(ent, INELASTIC_ROTATION)
        assert abs(p_k - 1.0) < 1e-12
        assert abs(abs(state.amplitudes[1]) - 1.0) < 1e-12

    @given(
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 2.0, allow_nan=False),
        st.floats(0.0, 2 * math.pi, allow_nan=False),
        st.floats(-math.pi, math.pi, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_outcome_completeness(self, seed, tau, half_angle, phase):
        state = random_state(np.random.default_rng(seed), 14)
        ent = jcm_entangle(state, tau)
        rot = AtomRotation(
            complex(math.cos(half_angle)), math.sin(half_angle) * cmath.exp(1j * phase)
        )
        d = project_amplitudes(ent, rot)
        d_orth = project_amplitudes(ent, orthogonal_rotation(rot))
        p = float(np.vdot(d, d).real)
        p_orth = float(np.vdot(d_orth, d_orth).real)
        assert abs(p + p_orth - 1.0) < 1e-12

    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 2.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_property_nsm_is_cm_outcome_mixture(self, seed, tau):
        # Tracing over the atom equals the probability-weighted mixture of
        # the elastic and inelastic conditional outcomes.
        state = random_state(np.random.default_rng(seed), 30)
        ent = jcm_entangle(state, tau)
        d_e = project_amplitudes(ent, ELASTIC_ROTATION)
        d_g = project_amplitudes(ent, INELASTIC_ROTATION)
        mixture = np.abs(d_e) ** 2 + np.abs(d_g) ** 2
        direct = nsm_step(state.probabilities(), tau)
        assert np.max(np.abs(mixture - direct)) < 1e-10


class TestTrappingBlockage:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 2))
    @settings(max_examples=40, deadline=None)
    def test_no_population_crosses_trap(self, seed, q):
        n_t = 12
        n_max = 30
        rng = np.random.default_rng(seed)
        amps = np.zeros(n_max + 1, dtype=complex)
        amps[: n_t + 1] = rng.normal(size=n_t + 1) + 1j * rng.normal(size=n_t + 1)
        amps /= np.linalg.norm(amps)
        state = FieldState(amps, n_max)
        tau = trapping_time(n_t, q)

        after_nsm = nsm_step(state.probabilities(), tau)
        assert np.all(after_nsm[n_t + 1 :] == 0.0)

        ent = jcm_entangle(state, tau)
        rot = ramsey_coeffs(0.7, -math.pi / 2)
        projected, _ = cm_project(ent, rot)
        assert np.all(projected.probabilities()[n_t + 1 :] == 0.0)


class TestApproxCmCoefficient:
    def test_stationary_point_identity(self):
        # T / 2 equals tau sqrt(n+1) exactly: coefficient is 1.
        out = approx_cm_coefficient(0.3 + 0.1j, 2.0, 0.5, 3)
        assert out == 0.3 + 0.1j

    def test_reduces_to_elastic_at_zero_rotation(self):
        out = approx_cm_coefficient(1.0, 0.0, 0.7, 5)
        assert abs(out - math.cos(0.7 * math.sqrt(6.0))) < 1e-12

    def test_direct_evaluation(self):
        # T / 2 = 2, tau sqrt(51) = 2.3: cos(-0.3) c_prev.
        tau = 2.3 / math.sqrt(51.0)
        out = approx_cm_coefficient(1.0, 4.0, tau, 50)
        assert abs(out - math.cos(-0.3)) < 1e-12
        assert abs(out - 0.955336) < 1e-6


class TestCorrelatedCmFactors:
    def test_matches_approx_coefficient(self):
        tau, T = 0.61, 6.11
        success, _ = correlated_cm_factors(T, tau, 12)
        for n in range(13):
            assert abs(success[n] - approx_cm_coefficient(1.0, T, tau, n)) < 1e-12

    def test_stationary_level_held_exactly(self):
        n_t = 21
        r = stationary_phase_ratio(n_t)
        for tau in (0.3, 0.5, 0.67, 1.1):
            success, failure = correlated_cm_factors(r * tau, tau, 40)
            assert success[n_t] == 1.0
            assert failure[n_t] == 0.0

    @given(
        st.floats(0.1, 3.0, allow_nan=False),
        st.floats(0.0, 6.0, allow_nan=False),
        st.floats(-math.pi, math.pi, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_completeness_per_level(self, tau, T, phi_f):
        success, failure = correlated_cm_factors(T, tau, 25, phi_f=phi_f)
        total = np.abs(success) ** 2 + np.abs(failure) ** 2
        assert np.max(np.abs(total - 1.0)) < 1e-12


    @pytest.mark.parametrize("phi_f", [0.0, 0.4])
    def test_times_of_shape_atoms_cells_1_equal_one_pair_rows(self, phi_f):
        # Each (atom, cell) row of factors from (atoms, cells, 1) times equals,
        # bit for bit, the factors of its one pair of times.
        rng = np.random.default_rng(12)
        taus = rng.uniform(0.2, 1.2, size=(3, 4, 1))
        ramsey = 2.0 * math.sqrt(22.0) * taus
        success, failure = correlated_cm_factors(ramsey, taus, 30, phi_f=phi_f)
        assert success.shape == failure.shape == (3, 4, 31)
        for j, i in np.ndindex(3, 4):
            one = correlated_cm_factors(float(ramsey[j, i, 0]), float(taus[j, i, 0]), 30, phi_f)
            assert success[j, i].tobytes() == one[0].tobytes()
            assert failure[j, i].tobytes() == one[1].tobytes()


class TestPrunedFactors:
    """A factor function asked for some of its parts returns those parts of its
    whole result bit for bit, and None for the parts not asked for."""

    N_MAX = 40

    @classmethod
    def times(cls) -> dict[str, object]:
        """Fluctuating times, trapping times theta_n = q pi (snapped), times with
        theta_n = (q + 1/2) pi (a cos of order 1e-16, not snapped) and one scalar time."""
        rng = np.random.default_rng(17)
        levels = [(n, q) for n in (0, 5, 20, cls.N_MAX) for q in (1, 2, 3)]
        return {
            "fluctuating": rng.uniform(0.05, 3.0, size=(4, 3, 1)),
            "trapping": np.array([trapping_time(n, q) for n, q in levels]).reshape(4, 3, 1),
            "anti-trapping": np.array(
                [(q - 0.5) * math.pi / math.sqrt(n + 1.0) for n, q in levels]).reshape(4, 3, 1),
            "scalar": trapping_time(20, 1) * 1.01,
        }

    @staticmethod
    def same(a: np.ndarray | None, b: np.ndarray | None) -> bool:
        if a is None or b is None:
            return a is b
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    @classmethod
    def same_parts(cls, got: tuple, want: tuple) -> bool:
        return len(got) == len(want) and all(map(cls.same, got, want))

    @pytest.mark.parametrize("kind", ["fluctuating", "trapping", "anti-trapping", "scalar"])
    def test_rabi_factors(self, kind):
        tau, n_max = self.times()[kind], self.N_MAX
        cos_t, sin_t = rabi_cos_sin(tau, n_max)
        # The whole pair: numpy's cos and sin of tau sqrt(n+1), except at
        # phases within TRAP_SNAP_TOL of q pi, which are exactly (-1)^q and 0.
        thetas = np.multiply(tau, np.sqrt(np.arange(n_max + 1) + 1.0))
        q = np.rint(thetas / math.pi)
        snap = np.abs(thetas / math.pi - q) < 1e-12
        assert self.same(np.where(snap, np.where(q % 2 == 0, 1.0, -1.0), np.cos(thetas)), cos_t)
        assert self.same(np.where(snap, 0.0, np.sin(thetas)), sin_t)
        assert self.same_parts(rabi_cos_sin(tau, n_max, cos=False), (None, sin_t))
        for first in (1, 21, n_max):
            for cos in (False, True):
                assert self.same_parts(rabi_cos_sin(tau, n_max, cos=cos, first=first),
                                       (cos_t if cos else None, sin_t[..., first:]))
        if kind == "trapping":  # every time snaps at its trap level, to +-1 and 0
            assert (sin_t == 0.0).sum() >= 12 and (np.abs(cos_t) == 1.0).sum() >= 12
            for cos in (False, True):
                top = rabi_cos_sin(tau, n_max, cos=cos, first=n_max)[1]
                assert self.same(top[3], np.zeros((3, 1)))
        if kind == "anti-trapping":
            assert (np.abs(cos_t) < 1e-15).sum() >= 12 and not (cos_t == 0.0).any()

    @pytest.mark.parametrize("kind", ["fluctuating", "trapping", "scalar"])
    def test_cm_success_factor(self, kind):
        # With T = r tau the CM argument snaps to 0 at n_t = 21 for every tau.
        tau, n_max = self.times()[kind], self.N_MAX
        stationary = stationary_phase_ratio(21) * tau
        for T in (stationary, 2.3 * tau + 0.4):
            for phi_f in (-math.pi / 2, 0.4):
                success, failure = correlated_cm_factors(T, tau, n_max, phi_f)
                assert failure.shape == success.shape
                assert self.same_parts(
                    correlated_cm_factors(T, tau, n_max, phi_f, failure=False), (success, None))
        success, _ = correlated_cm_factors(stationary, tau, n_max, failure=False)
        assert np.all(success[..., 21] == 1.0)


class TestLargeNConsistency:
    def test_exact_matches_approx_on_slow_profile(self):
        # Smooth profile centered at n = 450; compare the exact projection
        # against the per-component cosine form on n in [400, 500].
        n_max = 800
        ns = np.arange(n_max + 1)
        sigma = 36.0
        amps = np.exp(-((ns - 450.0) ** 2) / (4.0 * sigma**2)).astype(complex)
        amps /= np.linalg.norm(amps)
        state = FieldState(amps, n_max)

        window = slice(400, 501)
        steps = np.abs(np.diff(amps[window])) / np.abs(amps[401:501])
        assert steps.max() < 0.02  # slow-variation premise

        tau = 0.96 * math.pi / math.sqrt(451.0)
        T = 2.0 * theta(tau, 450)
        exact, _ = cm_project(jcm_entangle(state, tau), ramsey_coeffs(T, -math.pi / 2))

        approx = np.array([approx_cm_coefficient(amps[n], T, tau, n) for n in range(n_max + 1)])
        approx /= np.linalg.norm(approx)

        rel = np.abs(exact.amplitudes[window] - approx[window]) / np.abs(approx[window])
        assert rel.max() < 0.02


class TestSchemeTypes:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="scheme: unknown scheme 'thermal'"):
            build_run_config(scheme="thermal", trap_target=5, n_atoms=1, alpha=1.0)
        cfg = build_run_config(scheme="elastic", trap_target=5, n_atoms=1, alpha=1.0)
        with pytest.raises(ConfigError, match="scheme: unknown scheme 'thermal'"):
            replace(cfg, scheme="thermal")

    def test_superposition_needs_ratio(self):
        cfg = build_run_config(scheme="superposition", trap_target=21, n_atoms=1, alpha=1.0)
        assert cfg.timing.ramsey_ratio == stationary_phase_ratio(21)
        assert cfg.phi_f == -math.pi / 2
        # The ratio is derived: no config can be given another.
        with pytest.raises(TypeError, match="unexpected keyword argument 'timing'"):
            replace(cfg, timing=replace(cfg.timing, ramsey_ratio=0.0))

    def test_stationary_phase_ratio_closure(self):
        assert stationary_phase_ratio(21) == 2.0 * math.sqrt(22.0)
        with pytest.raises(ValueError):
            stationary_phase_ratio(-1)
