"""The columnar CSV writer against `%` formatting.

Every real must come out as `b"%.17g" % x` and every integer as `b"%d" % k`,
so each writer's file is checked byte for byte against the rows the
row-format writers wrote: a bytes `%` of one format per row.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jctrap import cli
from jctrap.classical import classical_trajectory
from jctrap.experiment import RunResult, StepRecord, SweepCell

CHUNK = 1 << 16  # values formatted per call: bounds the test's memory


def assert_formats_as_g17(values):
    """cli's text for a float64 column, one value per line, equals `%.17g`."""
    x = np.ascontiguousarray(values, dtype=float)
    got = b"".join(cli._csv_rows([x[lo : lo + CHUNK]]).tobytes() for lo in range(0, len(x), CHUNK))
    want = b"".join([b"%.17g\n" % v for v in x.tolist()])
    if got != want:
        pairs = zip(x.tolist(), got.split(b"\n"), want.split(b"\n"))
        pytest.fail(f"first mismatches: {[p for p in pairs if p[1] != p[2]][:5]}")


def row_format_csv(header: bytes, row_format: bytes, rows) -> bytes:
    """The file the row-format writers wrote: `header`, then `row_format % row` per row."""
    return header + b"".join(row_format % row for row in rows)


class TestRealFormat:
    def test_random_bit_patterns(self):
        # Uniform bit patterns are mostly values %.17g writes with an
        # exponent (|x| < 1e-5 or >= 1e17), which the writer formats one by
        # one; so 4 in 5 have their exponent field drawn from 2^-24..2^57,
        # where the vectorized path formats all but the ends.
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2**64, 10**6, dtype=np.uint64)
        exponents = rng.integers(1023 - 24, 1023 + 58, 8 * 10**5, dtype=np.uint64)
        bits[: 8 * 10**5] &= ~np.uint64(0x7FF << 52)
        bits[: 8 * 10**5] |= exponents << np.uint64(52)
        assert_formats_as_g17(bits.view(np.float64))

    def test_powers_of_ten_and_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-330, 311)])
        assert_formats_as_g17(np.concatenate([
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), -powers]))

    def test_dyadic_ties_and_wide_integers(self):
        rng = np.random.default_rng(3)
        ties = rng.integers(1, 2**53, 10**5) / 2.0 ** rng.integers(0, 70, 10**5)
        near_2_53 = np.arange(2**53 - 1000, 2**53 + 1000, dtype=np.int64).astype(float)
        seventeen_digits = np.concatenate([rng.integers(10**16, 10**17, 10**5),
                                           np.arange(10**16 - 100, 10**16 + 100),
                                           np.arange(10**17 - 2000, 10**17 + 2000)]).astype(float)
        assert_formats_as_g17(np.concatenate([ties, near_2_53, seventeen_digits]))

    def test_special_values(self):
        tiny = 5e-324
        assert_formats_as_g17([
            0.0, -0.0, math.inf, -math.inf, math.nan, tiny, -tiny, 1000 * tiny,
            2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
            -1.7976931348623157e308, 1e-5, 9.9999999999999995e-5, 1e-4, 99999999999999999.0,
            9999999999999998.0, 0.5, 5.0, 0.1, 123.456,
        ])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_matches_percent_g(self, values):
        assert_formats_as_g17(values)


class TestEpsilonSquare:
    """`eps_sq_over_4` squares through numpy's `float_power`, pinned to Python's `e ** 2`.

    Both call libm `pow`; numpy's `x * x` and `np.power` differ from it in
    the last bit on some of fig1d's rows, so a numpy whose `float_power`
    stops matching fails here before `classical.csv` moves.
    """

    @staticmethod
    def assert_squares_as_pow(values):
        x = np.asarray(values, dtype=float)
        want = np.array([e ** 2 for e in x.tolist()])
        assert np.array_equal(np.float_power(x, 2.0).view(np.uint64), want.view(np.uint64))

    def test_random_finite_doubles(self):
        # Uniform exponents up to EPSILON_MAX's: about a third of the squares underflow
        # to a subnormal or to zero.
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2**63, 10**6, dtype=np.uint64) & np.uint64((1 << 52) - 1)
        bits |= rng.integers(0, 1023 + 512, 10**6, dtype=np.uint64) << np.uint64(52)
        x = bits.view(np.float64) * rng.choice([-1.0, 1.0], 10**6)
        assert np.isfinite(x * x).all() and (x * x < 2.0 ** -1022).sum() > 10**5
        self.assert_squares_as_pow(x)

    def test_fig1c_epsilons(self):
        epsilons = [eps for _, eps in classical_trajectory(cli.preset("fig1c").classical)]
        self.assert_squares_as_pow(np.concatenate(epsilons))


class TestWritersMatchRowFormat:
    def test_sweep_with_failed_cells_and_negative_multipliers(self, tmp_path):
        cells = [
            SweepCell(-0.5, 0, math.nan, math.nan, False, error="boom"),
            SweepCell(-1e-7, 1, 0.25, 1e-300, True),
            SweepCell(2.0, 2, 1.0, 0.0, True),
            SweepCell(1e20, 3, -0.0, 5e-324, False),
            SweepCell(0.1, 12345, 0.99999999999999989, 0.3333333333333333, True),
        ]
        path = tmp_path / "sweep.csv"
        cli.write_sweep_csv(path, cells)
        assert path.read_bytes() == row_format_csv(
            b"multiplier,cell,final_P_nt,cum_P,converged\n", b"%.17g,%d,%.17g,%.17g,%d\n",
            [(c.multiplier, c.cell, c.final_p_trap, c.cum_P, c.converged) for c in cells])

    def test_distribution_with_exponent_form_probabilities(self, tmp_path):
        rng = np.random.default_rng(4)
        p = np.concatenate([[0.5, 1e-5, 9.9999999999999995e-5, 1e-30, 5e-324, 0.0, 1.0],
                            rng.random(3000) * 10.0 ** rng.integers(-40, 1, 3000)])
        path = tmp_path / "distribution.csv"
        cli.write_distribution_csv(path, p)
        assert path.read_bytes() == row_format_csv(b"n,P(n)\n", b"%d,%.17g\n",
                                                   enumerate(p.tolist()))

    def test_trajectory_with_k_beyond_a_million(self, tmp_path):
        # More rows than a block, and k crosses 10^6 inside one.
        rng = np.random.default_rng(5)
        ks = [*range(10**6 - 1000, 10**6 - 1000 + 2 * cli.BLOCK_ROWS + 5), 2**40, 2**53]
        values = rng.standard_normal((len(ks), 6)) * 10.0 ** rng.integers(-8, 20, (len(ks), 6))
        outcomes = ["success", "failure", "postselected"]
        steps = [StepRecord(k, *row, outcomes[k % 3], 0.5, 0.25)
                 for k, row in zip(ks, values.tolist())]
        path = tmp_path / "trajectory.csv"
        cli.write_trajectory_csv(path, RunResult(steps, np.ones(1)))
        assert path.read_bytes() == row_format_csv(
            b"k,tau_k,T_k,P_k,cum_P,mean_n,delta_n,outcome\n",
            b"%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s\n",
            [(s.k, s.tau_k, s.T_k, s.P_k, s.cum_P, s.mean_n, s.delta_n, s.outcome.encode())
             for s in steps])

    def test_classical_blocks(self, tmp_path):
        rng = np.random.default_rng(6)
        sizes = [3, cli.BLOCK_ROWS + 7, 8192]
        blocks = [(rng.random(n), 10.0 ** rng.uniform(-6, 18, n)) for n in sizes]
        path = tmp_path / "classical.csv"
        cli.write_classical_csv(path, 6.0, iter(blocks))
        taus, eps = (np.concatenate(column).tolist() for column in zip(*blocks))
        assert path.read_bytes() == row_format_csv(
            b"k,tau_k,epsilon,eps_sq_over_4\n", b"%d,%.17g,%.17g,%.17g\n",
            [(0, 0, 6.0, 9.0), *((k, t, e, e**2 / 4.0)
                                 for k, t, e in zip(range(1, len(taus) + 1), taus, eps))])

    def test_classical_writer_memory_is_one_block(self, tmp_path):
        # 10^5 rows are about 6.5 MB of CSV; the writer holds one block of
        # rows and its formatting at a time, whatever the row count.
        def blocks(rows):
            rng = np.random.default_rng(7)
            for done in range(0, rows, 8192):
                yield rng.random(min(8192, rows - done)), 1.0 + rng.random(min(8192, rows - done))

        def traced_peak(rows):
            tracemalloc.start()
            try:
                cli.write_classical_csv(tmp_path / f"{rows}.csv", 6.0, blocks(rows))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(10)  # builds the formatters' tables outside the count
        small, peak = traced_peak(10**4), traced_peak(10**5)
        assert (tmp_path / f"{10**5}.csv").stat().st_size > 6 * 10**6
        assert peak - small < 64 * 1024 and peak < 2 * 2**20
