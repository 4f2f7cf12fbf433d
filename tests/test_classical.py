"""Driven-pendulum flow, return map and trajectory runs."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jctrap.classical import (
    MAP_BLOCK,
    ClassicalConfig,
    build_classical_config,
    classical_trajectory,
    integrate_pendulum,
    pendulum_energy,
    pendulum_rhs,
    return_map_approx,
)
from jctrap.cli import write_classical_csv
from jctrap.errors import ConfigError
from jctrap.stochastic import TimingModel

GTAU_199 = 2.0 * math.pi / math.sqrt(199.0)


class TestPendulumRhs:
    def test_fixed_point(self):
        assert pendulum_rhs(0.0, 0.0) == (0.0, 0.0)

    def test_direct_substitution(self):
        d_theta, d_eps = pendulum_rhs(math.pi / 2.0, 2.0)
        assert d_theta == 2.0
        assert abs(d_eps - 1.0) < 1e-12

    def test_at_pi(self):
        d_theta, d_eps = pendulum_rhs(math.pi, 1.0)
        assert d_theta == 1.0
        assert abs(d_eps) < 1e-12


class TestIntegratePendulum:
    def test_equilibrium_is_stationary(self):
        theta, epsilon = integrate_pendulum(0.0, 0.0, 10.0, 1e-2)
        assert theta == 0.0
        assert epsilon == 0.0

    def test_zero_duration(self):
        start = (0.3, -0.2)
        assert integrate_pendulum(*start, 0.0, 1e-3) == start

    def test_first_integral_conserved(self):
        start = (0.1, 0.0)
        out = integrate_pendulum(*start, 5.0, 1e-3)
        assert abs(pendulum_energy(*out) - pendulum_energy(*start)) < 1e-8

    def test_fractional_final_step(self):
        start = (0.5, 0.4)
        a = integrate_pendulum(*start, 1.0005, 1e-3)
        assert abs(pendulum_energy(*a) - pendulum_energy(*start)) < 1e-8

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            integrate_pendulum(0, 0, 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate_pendulum(0, 0, -1.0, 1e-3)


class TestReturnMap:
    def test_fixed_point_unchanged(self):
        eps_star = math.sqrt(199.0)
        assert abs(return_map_approx(eps_star, GTAU_199) - eps_star) < 1e-12

    def test_direct_evaluation_from_fig1_start(self):
        out = return_map_approx(6.0, GTAU_199)
        oracle = 6.0 + (2.0 / 6.0) * math.sin(6.0 * GTAU_199 / 2.0) ** 2
        assert out == oracle
        assert abs(out - 6.31532) < 1e-4

    def test_small_angle_expansion(self):
        eps, gtau = 0.01, 0.01
        out = return_map_approx(eps, gtau)
        assert out == pytest.approx(eps + eps * gtau**2 / 2.0, rel=1e-6)

    def test_singular_at_zero(self):
        with pytest.raises(ValueError):
            return_map_approx(0.0, 1.0)

    def test_fixed_point_set(self):
        for m in (1, 2, 3):
            eps = m * math.sqrt(199.0)
            assert abs(return_map_approx(eps, GTAU_199) - eps) < 1e-10

    @given(st.floats(0.05, 50.0, allow_nan=False), st.floats(0.0, 3.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_property_monotone_energy_gain(self, eps, gtau):
        assert return_map_approx(eps, gtau) >= eps

    def test_marginal_stability_around_sqrt199(self):
        eps_star = math.sqrt(199.0)
        below = eps_star - 1e-3
        above = eps_star + 1e-3
        for _ in range(50_000):
            below = return_map_approx(below, GTAU_199)
            above = return_map_approx(above, GTAU_199)
        assert below < eps_star
        assert eps_star - below < 0.8e-3  # moved toward the fixed point
        assert above - eps_star > 1.3e-3  # moved away from it


def whole_trajectory(config):
    """(taus, epsilons) of a trajectory's blocks concatenated; epsilons[0] is the start."""
    blocks = list(classical_trajectory(config))
    taus = np.concatenate([np.empty(0), *(taus for taus, _ in blocks)])
    return taus, np.concatenate([[config.epsilon0], *(eps for _, eps in blocks)])


def quarter_energies(epsilon0, n_steps, timing, master_seed, stream_id=0):
    """Field energy eps^2/4 after each atom of a trajectory; entry 0 is the start."""
    _, eps = whole_trajectory(ClassicalConfig(epsilon0, n_steps, timing, master_seed, stream_id))
    return eps * eps / 4.0


class TestClassicalRun:
    def test_constant_at_fixed_point(self):
        timing = TimingModel(tau_bar=GTAU_199, spread=0.0)
        out = quarter_energies(math.sqrt(199.0), 1000, timing, 0, 0)
        assert np.max(np.abs(out - 199.0 / 4.0)) < 1e-12

    def test_fixed_time_convergence_rate(self):
        # Marginal stability means an algebraic 1/k approach to 199/4:
        # gap ~ 199^2/(4 pi^2 k), so 0.0996 away after 1e4 iterations and first
        # inside 0.01 at iteration 100 210.
        timing = TimingModel(tau_bar=GTAU_199, spread=0.0)
        out = quarter_energies(6.0, 120_000, timing, 0, 0)
        assert np.all(np.diff(out) >= 0.0)
        gap_1e4 = 199.0 / 4.0 - out[10_000]
        assert 0.05 < gap_1e4 < 0.15
        assert 199.0 / 4.0 - out[-1] < 0.01
        # Independent oracle: iterate the map formula directly.
        eps = 6.0
        for _ in range(10_000):
            eps += (2.0 / eps) * math.sin(eps * GTAU_199 / 2.0) ** 2
        assert abs(out[10_000] - eps * eps / 4.0) < 1e-9

    def test_escape_under_one_percent_noise(self):
        timing = TimingModel(tau_bar=GTAU_199, spread=0.01 * GTAU_199)
        out = quarter_energies(6.0, 100_000, timing, 99, 0)
        assert out.max() > 60.0

    def test_initial_value_recorded(self):
        timing = TimingModel(tau_bar=GTAU_199, spread=0.0)
        out = quarter_energies(6.0, 10, timing, 0, 0)
        assert out[0] == 9.0
        assert len(out) == 11

    def test_deterministic_given_seed(self):
        timing = TimingModel(tau_bar=GTAU_199, spread=0.01 * GTAU_199)
        a = quarter_energies(6.0, 5000, timing, 7, 3)
        b = quarter_energies(6.0, 5000, timing, 7, 3)
        assert np.array_equal(a, b)

    def test_rejects_nonpositive_start(self):
        timing = TimingModel(tau_bar=GTAU_199, spread=0.0)
        with pytest.raises(ValueError):
            quarter_energies(0.0, 10, timing, 0, 0)

    def test_numpy_integer_seed_gives_the_int_stream(self):
        def config(n_steps, master_seed, stream_id):
            return build_classical_config(epsilon0=6.0, n_steps=n_steps, tau_bar=GTAU_199,
                                          spread_time=0.01 * GTAU_199, master_seed=master_seed,
                                          stream_id=stream_id)

        taus, eps = whole_trajectory(config(1000, np.int64(7), np.int64(3)))
        expected_taus, expected_eps = whole_trajectory(config(1000, 7, 3))
        assert np.array_equal(taus, expected_taus) and np.array_equal(eps, expected_eps)
        for seed, token in (((1.5, 0), "seed"), ((7, 1.5), "stream")):
            with pytest.raises(ConfigError, match=f"^{token}: must be an integer, got 1.5$"):
                whole_trajectory(config(10, *seed))

    def test_trajectory_csv(self, tmp_path):
        timing = TimingModel(tau_bar=GTAU_199, spread=0.0)
        config = ClassicalConfig(6.0, 25, timing, 0, 0)
        taus, epsilons = whole_trajectory(config)
        assert len(taus) == 25 and len(epsilons) == 26
        path = tmp_path / "classical.csv"
        write_classical_csv(path, config.epsilon0, classical_trajectory(config))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,tau_k,epsilon,eps_sq_over_4"
        assert len(lines) == 27
        last = lines[-1].split(",")
        assert int(last[0]) == 25
        assert float(last[2]) == epsilons[-1]

    def test_energy_column_is_python_pow(self, tmp_path):
        # Python's eps ** 2 (libm pow) and numpy's eps * eps differ in the last
        # bit here, as on 843 of fig1d's 10^6 rows; the CSV writes the former.
        eps = 13.950552987911985
        path = tmp_path / "classical.csv"
        write_classical_csv(path, 6.0, [(np.array([0.5]), np.array([eps]))])
        rows = path.read_text().splitlines()
        assert rows[1:] == ["0,0,6,9", "1,0.5,13.950552987911985,48.654482167135008"]
        assert format((np.array([eps]) ** 2 / 4)[0], ".17g") == "48.654482167135001"

    def test_start_row_takes_the_same_energy_expression(self, tmp_path):
        # Row 0 writes epsilon0 ** 2 / 4 as every later row writes its epsilon,
        # not epsilon0 * epsilon0 / 4, which differs in the last bit here.
        eps = 13.950552987911985
        path = tmp_path / "classical.csv"
        write_classical_csv(path, eps, [(np.array([0.5]), np.array([eps]))])
        rows = path.read_text().splitlines()
        assert rows[1:] == ["0,0,13.950552987911985,48.654482167135008",
                            "1,0.5,13.950552987911985,48.654482167135008"]
        assert format(eps * eps / 4.0, ".17g") == "48.654482167135001"

    def test_blocks_cover_the_steps(self):
        # One block per MAP_BLOCK steps, each the next slice of the trajectory.
        timing = TimingModel(tau_bar=GTAU_199, spread=0.01 * GTAU_199)
        config = ClassicalConfig(6.0, 2 * MAP_BLOCK + 5, timing, 3, 1)
        blocks = list(classical_trajectory(config))
        assert [len(taus) for taus, _ in blocks] == [MAP_BLOCK, MAP_BLOCK, 5]
        assert all(len(taus) == len(eps) for taus, eps in blocks)
        _, eps = whole_trajectory(config)
        assert eps[MAP_BLOCK] == blocks[0][1][-1] and eps[-1] == blocks[-1][1][-1]
        assert list(classical_trajectory(replace(config, n_steps=0))) == []


class TestClassicalConfig:
    """A ClassicalConfig checks itself when made, however it is made."""

    @pytest.fixture
    def config(self):
        return build_classical_config(epsilon0=6.0, n_steps=10, tau_bar=GTAU_199)

    @pytest.mark.parametrize(
        "bad, message",
        [
            pytest.param({"epsilon0": 0.0}, "epsilon0: must be > 0, got 0.0", id="epsilon0"),
            pytest.param({"epsilon0": math.inf}, "epsilon0: must be finite, got inf",
                         id="epsilon0-inf"),
            pytest.param({"epsilon0": "6"}, "epsilon0: must be a real number, got '6'",
                         id="epsilon0-str"),
            pytest.param({"n_steps": -1}, "steps: must be >= 0, got -1", id="steps"),
            pytest.param({"n_steps": 2.5}, "steps: must be an integer, got 2.5",
                         id="steps-float"),
            pytest.param({"master_seed": np.int64(3)}, "seed: must be a Python int, got ",
                         id="seed"),
            pytest.param({"stream_id": 1.5}, "stream: must be a Python int, got 1.5",
                         id="stream"),
            pytest.param({"master_seed": True}, "seed: must be a Python int, got True",
                         id="seed-bool"),
            pytest.param({"stream_id": False}, "stream: must be a Python int, got False",
                         id="stream-bool"),
        ],
    )
    def test_replace_checked_where_made(self, config, bad, message):
        with pytest.raises(ConfigError) as exc:
            replace(config, **bad)
        assert str(exc.value).startswith(message)

    @pytest.mark.parametrize(
        "keyword, token",
        [("epsilon0", "epsilon0"), ("tau_bar", "tau_bar_in_inv_g"),
         ("spread_time", "spread_in_inv_g"), ("spread_frac", "spread_frac")],
    )
    def test_builder_names_a_non_number(self, keyword, token):
        kwargs = {"epsilon0": 6.0, "n_steps": 10, "tau_bar": GTAU_199, keyword: "0.4"}
        with pytest.raises(ConfigError, match=rf"^{token}: must be a real number, got '0\.4'$"):
            build_classical_config(**kwargs)
        # A bool is a flag, not a number of 1.
        with pytest.raises(ConfigError, match=rf"^{token}: must be a real number, got True$"):
            build_classical_config(**{**kwargs, keyword: True})

    def test_builder_reads_steps_as_int(self):
        kwargs = dict(epsilon0=6.0, tau_bar=GTAU_199)
        config = build_classical_config(**kwargs, n_steps=np.int64(5))
        assert config.n_steps == 5 and type(config.n_steps) is int
        with pytest.raises(ConfigError, match=r"^steps: must be an integer, got 2\.5$"):
            build_classical_config(**kwargs, n_steps=2.5)
        # A bool is a flag, not a count or a seed.
        for keyword, token in (("n_steps", "steps"), ("master_seed", "seed"),
                               ("stream_id", "stream")):
            with pytest.raises(ConfigError, match=f"^{token}: must be an integer, got True$"):
                build_classical_config(**{"n_steps": 5, **kwargs, keyword: True})
