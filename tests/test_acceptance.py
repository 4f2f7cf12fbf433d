"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  Criterion 5 is split into its two clauses.  The fixed-point
clause (5a) checks the approach that marginal stability allows: with fixed
times the energy gap to 199/4 closes from below as 199^2/(4 pi^2 k), so the
absolute 0.01 band is first entered near iteration 1.003e5 (see README).
"""
import math
from dataclasses import replace

import numpy as np

from jctrap.classical import classical_trajectory, integrate_pendulum, pendulum_energy
from jctrap.cli import main, preset
from jctrap.dynamics import (
    ELASTIC_ROTATION,
    INELASTIC_ROTATION,
    approx_cm_coefficient,
    cm_project,
    correlated_cm_factors,
    jcm_entangle,
    nsm_step,
    project_amplitudes,
    ramsey_coeffs,
    theta,
    trapping_time,
)
from jctrap.experiment import build_run_config, run_sequence, sampled_success_estimate, sweep
from jctrap.fock import FieldState, coherent_state, distribution_stats
from jctrap.stochastic import derive_stream, sample_timing


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name} failed: {detail}"


def _seeded(config, stream):
    return replace(config, stream_id=stream)


def test_criterion_1_fig4_trap_convergence():
    base = preset("fig4").run
    good = 0
    for stream in range(20):
        result = run_sequence(_seeded(base, stream))
        _, delta_n = distribution_stats(result.final_distribution)
        if result.final_distribution[21] > 0.99 and delta_n < 0.1:
            good += 1
    _report(
        "criterion 1 (fig4 trap convergence)",
        good >= 18,
        f"{good}/20 seeds reached P(21) > 0.99 with delta_n < 0.1 after N=2000",
    )


def test_criterion_2_success_probability_at_110():
    base = replace(preset("fig4").run, n_atoms=110)
    cums = [
        run_sequence(_seeded(base, stream)).final_cum_P
        for stream in range(20)
    ]
    median = float(np.median(cums))
    _report(
        "criterion 2 (success probability at N=110)",
        median >= 1e-3,
        f"median cum_P = {median:.3e} over 20 seeds",
    )


def test_criterion_3_elastic_spread_contrast():
    # Streams 0-19 of each preset, as sweep cells: fig2a's spread is 0.1 and
    # fig2b's 1 times the critical spread.
    small = sweep(preset("fig2a").run, [0.1], 20)
    large = sweep(preset("fig2b").run, [1.0], 20)
    assert [c.error for c in small + large] == [None] * 40
    converged = sum(c.final_p_trap > 0.9 for c in small)
    failed = sum(c.final_p_trap < 0.5 for c in large)
    _report(
        "criterion 3 (elastic contrast across the critical spread)",
        converged >= 15 and failed >= 15,
        f"{converged}/20 converged at spread/10, {failed}/20 failed at full spread",
    )


def test_criterion_4_nsm_fixed_vs_fluctuating():
    fixed = run_sequence(preset("fig1a").run)
    blocked = all(s.p_above_trap == 0.0 for s in fixed.steps)
    means = [s.mean_n for s in fixed.steps]
    monotone = all(b >= a - 1e-12 for a, b in zip(means, means[1:]))

    fluct_base = preset("fig1b").run
    escaped = 0
    for stream in range(10):
        result = run_sequence(_seeded(fluct_base, stream))
        if max(s.p_above_trap for s in result.steps) > 1e-3:
            escaped += 1
    _report(
        "criterion 4 (fixed-time blockage vs 1% fluctuations)",
        blocked and monotone and escaped >= 9,
        f"fixed: blocked={blocked}, mean monotone={monotone}; "
        f"fluctuating: {escaped}/10 seeds exceeded P(n>138)=1e-3 within N=5000",
    )


def _epsilons(config):
    """epsilon after each step of a trajectory, entry 0 its start: the blocks concatenated."""
    return np.concatenate([[config.epsilon0], *(eps for _, eps in classical_trajectory(config))])


def test_criterion_5a_classical_fixed_point():
    # With fixed times the map is tangent to the identity at eps* = sqrt(199):
    # for delta = eps* - eps it reads delta <- delta - (g tau)^2 delta^2 / (2 eps*),
    # so the energy gap closes as gap_k ~ C / k with C = 199^2 / (4 pi^2) = 1003.1.
    cfg = preset("fig1c").classical
    eps = _epsilons(replace(cfg, n_steps=110_000))
    trace = eps * eps / 4.0
    c_law = 199.0**2 / (4.0 * math.pi**2)
    gap = 199.0 / 4.0 - trace
    from_below = bool(np.all(np.diff(trace) >= 0.0) and np.all(gap > 0.0))
    slope_ratio = (1.0 / gap[10_000] - 1.0 / gap[5_000]) / 5_000 * c_law
    in_band = np.flatnonzero(np.abs(gap) <= 0.01)
    band_ratio = in_band[0] / (c_law / 0.01) if in_band.size else math.inf
    _report(
        "criterion 5a (classical fixed point approached as 199^2/(4 pi^2 k) from below)",
        from_below and abs(slope_ratio - 1.0) <= 0.005 and abs(band_ratio - 1.0) <= 0.01,
        f"monotone from below={from_below}; |eps^2/4 - 49.75| = {gap[10_000]:.4f} at "
        f"iteration 1e4; slope of 1/gap over k in [5e3, 1e4] is {slope_ratio:.4f} x "
        f"4 pi^2/199^2; the 0.01 band is first entered at k = "
        f"{in_band[0] if in_band.size else 'never'} ({band_ratio:.4f} x {c_law / 0.01:.0f})",
    )


def test_criterion_5b_classical_escape():
    cfg = preset("fig1d").classical
    escaped = 0
    for stream in range(10):
        eps = _epsilons(replace(cfg, stream_id=stream))
        if (eps * eps / 4.0).max() > 60.0:
            escaped += 1
    _report(
        "criterion 5b (classical escape under 1% fluctuations)",
        escaped >= 9,
        f"{escaped}/10 seeds exceeded eps^2/4 = 60 within 1e6 iterations",
    )


def test_criterion_6_measurement_algebra_oracle():
    rng = derive_stream(606, 0)
    n_max = 30
    worst_mix = 0.0
    worst_sum = 0.0
    for _ in range(100):
        amps = rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1)
        amps[-1] = 0.0  # keep the 30-dimensional support inside the basis
        amps /= np.linalg.norm(amps)
        state = FieldState(amps, n_max)
        tau = float(rng.uniform(0.05, 2.0))
        ent = jcm_entangle(state, tau)
        d_e = project_amplitudes(ent, ELASTIC_ROTATION)
        d_g = project_amplitudes(ent, INELASTIC_ROTATION)
        p_e = float(np.vdot(d_e, d_e).real)
        p_g = float(np.vdot(d_g, d_g).real)
        mixture = np.abs(d_e) ** 2 + np.abs(d_g) ** 2
        direct = nsm_step(state.probabilities(), tau)
        worst_mix = max(worst_mix, float(np.max(np.abs(mixture - direct))))
        worst_sum = max(worst_sum, abs(p_e + p_g - 1.0))
    _report(
        "criterion 6 (non-selective update equals outcome mixture)",
        worst_mix < 1e-10 and worst_sum < 1e-12,
        f"max |mixture - nsm| = {worst_mix:.2e}, max |P_e + P_g - 1| = {worst_sum:.2e} "
        "over 100 random 30-dimensional states",
    )


def test_criterion_7_exact_vs_large_n_update():
    n_max = 800
    ns = np.arange(n_max + 1)
    sigma = 36.0
    amps = np.exp(-((ns - 450.0) ** 2) / (4.0 * sigma**2)).astype(complex)
    amps /= np.linalg.norm(amps)
    state = FieldState(amps, n_max)
    window = slice(400, 501)
    premise = np.abs(np.diff(amps[window])) / np.abs(amps[401:501])

    tau = 0.96 * math.pi / math.sqrt(451.0)
    ramsey_T = 2.0 * theta(tau, 450)
    exact, _ = cm_project(jcm_entangle(state, tau), ramsey_coeffs(ramsey_T, -math.pi / 2))
    approx = np.array(
        [approx_cm_coefficient(amps[n], ramsey_T, tau, n) for n in range(n_max + 1)]
    )
    approx /= np.linalg.norm(approx)
    rel = np.abs(exact.amplitudes[window] - approx[window]) / np.abs(approx[window])
    _report(
        "criterion 7 (exact vs large-n update on a slow profile)",
        premise.max() < 0.02 and rel.max() < 0.02,
        f"max relative component error = {rel.max():.2e} on n in [400, 500] "
        f"(profile steps <= {premise.max():.3f})",
    )


def test_criterion_8_sampled_matches_postselected():
    post = build_run_config(
        scheme="elastic",
        trap_target=5,
        n_atoms=5,
        fock_n=0,
        tau_bar=math.pi / 3.0,
        n_max=30,
        master_seed=808,
    )
    cum = run_sequence(post).final_cum_P
    trials = 100_000
    fraction = sampled_success_estimate(replace(post, mode="sample"), trials)
    sigma = math.sqrt(cum * (1.0 - cum) / trials)
    _report(
        "criterion 8 (sampled all-success fraction matches cum_P)",
        abs(fraction - cum) < 4.0 * sigma,
        f"fraction = {fraction:.5f}, cum_P = {cum:.5f}, |diff| = {abs(fraction - cum):.2e} "
        f"< 4 sigma = {4 * sigma:.2e} over {trials} trajectories",
    )


def test_criterion_8b_sampled_matches_postselected_under_fluctuations():
    # Given a trajectory's times, its all-success probability is their
    # post-selected cum_P, so the sampled fraction estimates the mean cum_P
    # over times.  Elastic from the vacuum at tau_bar = pi/6 with the uniform
    # spread at its critical value: the fixed-time product cos^10(pi/6) =
    # 0.237 lies about 5 sigma above the mean.  The post-selected streams
    # come from another master seed than the sampled ones.
    post = build_run_config(
        scheme="elastic", trap_target=5, n_atoms=5, fock_n=0, tau_bar=math.pi / 6.0,
        spread_mult=1.0, n_max=30, master_seed=809,
    )
    n_p, n_s = 2_000, 10_000
    cums = np.array([cell.cum_P for cell in sweep(post, [1.0], ensemble=n_p)])
    sampled = replace(post, mode="sample", master_seed=808, stream_id=0)
    fraction = sampled_success_estimate(sampled, n_s)
    mean = cums.mean()
    sigma = math.sqrt(fraction * (1.0 - fraction) / n_s + cums.var(ddof=1) / n_p)
    fixed = math.cos(math.pi / 6.0) ** 10
    _report(
        "criterion 8b (sampled all-success fraction matches mean cum_P under fluctuations)",
        abs(fraction - mean) < 4.0 * sigma,
        f"fraction = {fraction:.5f} over {n_s} trajectories, mean cum_P = {mean:.5f} over "
        f"{n_p} streams, |diff| = {abs(fraction - mean):.2e} < 4 sigma = {4 * sigma:.2e}; "
        f"fixed-time cum_P = {fixed:.5f}",
    )


def test_criterion_9_numerical_hygiene(tmp_path):
    # Per-step norms along a large-spread run, checked against the ops directly.
    base = preset("fig4").run
    rng = derive_stream(base.master_seed, base.stream_id)
    state, _ = coherent_state(base.alpha, base.n_max)
    worst = abs(state.norm_sq - 1.0)
    for _ in range(300):
        tau, ramsey_T = sample_timing(base.timing, rng)
        success, _ = correlated_cm_factors(ramsey_T, tau, base.n_max)
        d = success * state.amplitudes
        p = float(np.vdot(d, d).real)
        state = FieldState(d / math.sqrt(p), base.n_max)
        worst = max(worst, abs(state.norm_sq - 1.0))
    probs = coherent_state(3.0, 233)[0].probabilities()
    tau_fix = trapping_time(138, 1)
    for _ in range(100):
        probs = nsm_step(probs, tau_fix)
        worst = max(worst, abs(float(probs.sum()) - 1.0))
    norm_ok = worst < 1e-10

    start = (0.1, 0.0)
    end = integrate_pendulum(*start, 5.0, 1e-3)
    drift = abs(pendulum_energy(*end) - pendulum_energy(*start))
    drift_ok = drift < 1e-8

    args = [
        "run", "--scheme", "superposition", "--trap", "21", "--alpha", "sqrt21",
        "--spread-mult", "2", "--atoms", "150", "--seed", "9",
    ]
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    identical = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("trajectory.csv", "distribution.csv")
    )
    _report(
        "criterion 9 (numerical hygiene)",
        norm_ok and drift_ok and identical,
        f"max norm deviation = {worst:.2e}, pendulum energy drift = {drift:.2e}, "
        f"byte-identical reruns = {identical}",
    )
