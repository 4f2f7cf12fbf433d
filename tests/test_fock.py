"""Field-state construction, moments and normalization."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jctrap.cli import write_distribution_csv
from jctrap.errors import LeakageError, OrthogonalOutcomeError
from jctrap.fock import (
    FieldState,
    coherent_state,
    default_n_max,
    distribution_stats,
    fock_basis_state,
    renormalize,
    top_level_probability,
)


def poisson_moments(alpha: float, n_max: int) -> tuple[float, float]:
    """Independent oracle: moments of the truncated, renormalized Poisson
    weights P(n) = e^{-a^2} a^{2n} / n! computed by direct summation."""
    lam = alpha * alpha
    weights = [math.exp(-lam) * lam**n / math.factorial(n) for n in range(n_max + 1)]
    total = sum(weights)
    mean = sum(n * w for n, w in enumerate(weights)) / total
    second = sum(n * n * w for n, w in enumerate(weights)) / total
    return mean, math.sqrt(second - mean * mean)


class TestCoherentState:
    def test_vacuum(self):
        state, leakage = coherent_state(0.0, 10)
        assert state.amplitudes[0] == 1.0
        assert np.all(state.amplitudes[1:] == 0.0)
        assert leakage == 0.0

    def test_alpha_3_mean(self):
        state, _ = coherent_state(3.0, 60)
        assert abs(distribution_stats(state.probabilities())[0] - 9.0) < 1e-6
        oracle_mean, _ = poisson_moments(3.0, 60)
        assert abs(distribution_stats(state.probabilities())[0] - oracle_mean) < 1e-9

    def test_alpha_sqrt21_mean(self):
        state, _ = coherent_state(math.sqrt(21.0), 80)
        assert abs(distribution_stats(state.probabilities())[0] - 21.0) < 1e-6

    def test_alpha_3_delta(self):
        state, _ = coherent_state(3.0, 60)
        _, oracle_delta = poisson_moments(3.0, 60)
        assert abs(distribution_stats(state.probabilities())[1] - 3.0) < 1e-6
        assert abs(distribution_stats(state.probabilities())[1] - oracle_delta) < 1e-9

    def test_normalized(self):
        state, _ = coherent_state(2.5, 40)
        assert abs(state.norm_sq - 1.0) < 1e-10

    def test_leakage_monotone_in_n_max(self):
        leaks = [coherent_state(3.0, n)[1] for n in (28, 30, 34, 40, 60)]
        assert leaks[0] > 0.0
        assert all(a >= b for a, b in zip(leaks, leaks[1:]))
        assert leaks[-1] < leaks[0]

    def test_truncation_too_small(self):
        with pytest.raises(LeakageError):
            coherent_state(3.0, 12)

    @pytest.mark.parametrize("alpha", [1e154, 1.35e154, 1e200, -1e300, 1e300j])
    def test_overflowing_alpha_loses_everything(self, alpha):
        # From about 1.35e154 on |alpha|^2 overflows; c_0 underflows to 0 either way.
        with pytest.raises(LeakageError, match=r"loses 1\.000e\+00 probability"):
            coherent_state(alpha, 40)

    def test_complex_alpha_phases(self):
        state, _ = coherent_state(1.0j, 30)
        # c_n carries phase i^n from the recurrence.
        assert abs(np.angle(state.amplitudes[1]) - math.pi / 2) < 1e-12
        assert abs(np.angle(state.amplitudes[2]) - math.pi) < 1e-12


class TestFockBasisState:
    def test_vacuum(self):
        state = fock_basis_state(0, 5)
        assert state.amplitudes[0] == 1.0

    def test_level_21(self):
        state = fock_basis_state(21, 40)
        assert state.probabilities()[21] == 1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            fock_basis_state(41, 40)
        with pytest.raises(ValueError):
            fock_basis_state(-1, 40)


class TestStats:
    def test_fock_state_moments_exact(self):
        assert distribution_stats(fock_basis_state(21, 40).probabilities()) == (21.0, 0.0)

    def test_fock_delta_zero_for_every_level(self):
        for n in range(0, 30, 7):
            assert distribution_stats(fock_basis_state(n, 30).probabilities())[1] == 0.0

    def test_two_point_superposition(self):
        amps = np.zeros(3, dtype=complex)
        amps[0] = amps[2] = 1.0 / math.sqrt(2.0)
        mean_n, delta_n = distribution_stats(FieldState(amps, 2).probabilities())
        assert abs(mean_n - 1.0) < 1e-12
        assert abs(delta_n - 1.0) < 1e-12

    def test_distribution_sums_to_one(self):
        state, _ = coherent_state(2.0, 40)
        p = state.probabilities()
        distribution_stats(p)  # accepts it as a distribution
        assert abs(p.sum() - 1.0) < 1e-10

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            distribution_stats(np.array([0.5, 0.2]))


class TestRenormalize:
    def test_simple_scale(self):
        out = renormalize(FieldState(np.array([0.5, 0.0]), 1))
        assert out.amplitudes[0] == 1.0
        assert out.amplitudes[1] == 0.0

    def test_phase_preserved(self):
        out = renormalize(FieldState(np.array([0.3, 0.4j]), 1))
        assert abs(out.norm_sq - 1.0) < 1e-12
        assert abs(np.angle(out.amplitudes[1]) - math.pi / 2) < 1e-12
        assert abs(out.amplitudes[0] - 0.6) < 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(OrthogonalOutcomeError):
            renormalize(FieldState(np.zeros(4, dtype=complex), 3))

    @given(
        st.lists(
            st.tuples(
                st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)
            ),
            min_size=2,
            max_size=24,
        )
    )
    def test_property_norm_one_and_direction_kept(self, pairs):
        amps = np.array([complex(a, b) for a, b in pairs])
        norm = np.linalg.norm(amps)
        if norm < 1e-5:
            return
        state = FieldState(amps, len(pairs) - 1)
        out = renormalize(state)
        assert abs(out.norm_sq - 1.0) < 1e-12
        assert np.allclose(out.amplitudes * norm, amps, atol=1e-12)


class TestFieldState:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FieldState(np.zeros(3, dtype=complex), 3)

    def test_n_max_lower_bound(self):
        with pytest.raises(ValueError):
            FieldState(np.array([1.0 + 0j]), 0)

    def test_amplitudes_immutable(self):
        state = fock_basis_state(1, 3)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0


class TestHelpers:
    def test_default_n_max_policy(self):
        assert default_n_max(21) == 21 + max(30, math.ceil(8 * math.sqrt(22.0)))
        assert default_n_max(0) == 30
        assert default_n_max(138) == 138 + math.ceil(8 * math.sqrt(139.0))

    def test_top_level_probability(self):
        assert top_level_probability(np.array([0.2, 0.3, 0.1, 0.25, 0.15])) == pytest.approx(0.5)

    def test_distribution_csv_roundtrip(self, tmp_path):
        state, _ = coherent_state(2.0, 25)
        path = tmp_path / "dist.csv"
        write_distribution_csv(path, state.probabilities())
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,P(n)"
        assert len(lines) == 27
        values = [float(line.split(",")[1]) for line in lines[1:]]
        # 17 significant digits round-trip doubles exactly.
        assert values == list(state.probabilities())
