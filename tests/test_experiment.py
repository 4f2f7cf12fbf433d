"""Atom-sequence driver: modes, bookkeeping, sweeps, sampled estimates."""
import math
import re
from dataclasses import replace

import numpy as np
import pytest

import jctrap
from basis_cut import basis_cut_gaps
from jctrap import cli, experiment
from jctrap.cli import write_sweep_csv, write_trajectory_csv
from jctrap.dynamics import (
    ELASTIC_ROTATION,
    INELASTIC_ROTATION,
    TRAP_SNAP_TOL,
    cm_project,
    correlated_cm_factors,
    critical_spread,
    jcm_entangle,
    nsm_step,
    orthogonal_rotation,
    project_amplitudes,
    trapping_time,
)
from jctrap.errors import ConfigError, LeakageError, SimulationError
from jctrap.experiment import (
    CONVERGENCE_P,
    RunConfig,
    build_run_config,
    run_sequence,
    sampled_success_estimate,
    sweep,
)
from jctrap.fock import (
    FieldState,
    coherent_state,
    default_n_max,
    distribution_stats,
    fock_basis_state,
    renormalize,
)
from jctrap.stochastic import TimingModel, derive_stream, sample_timing, stream_id_range


def fig3cd_config(n_atoms=300, stream=0, mode="postselect"):
    return build_run_config(
        scheme="superposition",
        trap_target=21,
        n_atoms=n_atoms,
        alpha=math.sqrt(21.0),
        spread_mult=2.0,
        master_seed=7,
        stream_id=stream,
        mode=mode,
    )


class TestBuildConfig:
    def test_defaults(self):
        cfg = fig3cd_config()
        assert cfg.timing.tau_bar == trapping_time(21, 1)
        assert cfg.n_max == default_n_max(21)
        assert cfg.timing.spread == pytest.approx(math.pi / math.sqrt(22.0))
        assert cfg.timing.ramsey_ratio == 2.0 * math.sqrt(22.0)

    def test_alpha_and_fock_exclusive(self):
        with pytest.raises(ConfigError):
            build_run_config(scheme="nsm", trap_target=5, n_atoms=1)
        with pytest.raises(ConfigError):
            build_run_config(scheme="nsm", trap_target=5, n_atoms=1, alpha=1.0, fock_n=2)
        cfg = build_run_config(scheme="nsm", trap_target=5, n_atoms=1, alpha=1.0)
        for bad in ({"fock": 2}, {"alpha": None}):
            with pytest.raises(ConfigError, match="alpha/fock: set exactly one initial field"):
                replace(cfg, **bad)

    @pytest.mark.parametrize(
        "keyword, token, value",
        [
            ("tau_bar", "tau_bar_in_inv_g", "1"),
            ("spread_time", "spread_in_inv_g", "0.1"),
            ("spread_frac", "spread_frac", "0.1"),
            ("spread_mult", "spread_mult", "0.1"),
            ("phi_f", "phi_f_rad", "0.4"),
            ("alpha", "alpha", "3"),
            ("alpha", "alpha", "sqrt21"),
        ],
        ids=["tau_bar", "spread_time", "spread_frac", "spread_mult", "phi_f", "alpha",
             "alpha-sqrt"],
    )
    def test_non_numbers_name_their_token(self, keyword, token, value):
        kind = "number" if token == "alpha" else "real number"
        with pytest.raises(ConfigError, match=rf"^{token}: must be a {kind}, got '{value}'$"):
            build_run_config(scheme="elastic", trap_target=20, n_atoms=3,
                             **{"alpha": 3.0, keyword: value})

    def test_validation_messages_name_fields(self):
        with pytest.raises(ConfigError, match="q:"):
            build_run_config(scheme="nsm", trap_target=5, n_atoms=1, alpha=1.0, q=0)
        with pytest.raises(ConfigError, match="atoms"):
            build_run_config(scheme="nsm", trap_target=5, n_atoms=-1, alpha=1.0)
        with pytest.raises(ConfigError, match="nmax"):
            build_run_config(scheme="nsm", trap_target=30, n_atoms=1, alpha=1.0, n_max=45)
        with pytest.raises(ConfigError, match="mode"):
            build_run_config(scheme="nsm", trap_target=5, n_atoms=1, alpha=1.0, mode="both")

    @pytest.mark.parametrize(
        "bad, message",
        [
            pytest.param({"trap_target": -1}, "trap: must be >= 0, got -1", id="trap"),
            pytest.param({"q": -1}, "q: must be >= 1 in a run config, got -1", id="q"),
            pytest.param({"alpha": None, "fock_n": -1}, "fock: must be >= 0, got -1", id="fock"),
            pytest.param({"alpha": None, "fock_n": 43, "n_max": 42},
                         "fock: initial level 43 exceeds n_max 42", id="fock-above-nmax"),
        ],
    )
    def test_bad_input_named_before_derivation(self, bad, message):
        # Each would otherwise reach a derivation (trapping time, Ramsey
        # ratio, Fock state) and fail there with a bare ValueError.
        args = dict(scheme="superposition", trap_target=21, n_atoms=1, alpha=1.0)
        with pytest.raises(ConfigError) as exc:
            build_run_config(**{**args, **bad})
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "keyword, field, value, token",
        [
            pytest.param("n_max", "n_max", 45.5, "nmax", id="nmax"),
            pytest.param("n_atoms", "n_atoms", 2.5, "atoms", id="atoms"),
            pytest.param("trap_target", "trap_target", 20.0, "trap", id="trap"),
            pytest.param("q", "q", 1.5, "q", id="q"),
            pytest.param("fock_n", "fock", 2.5, "fock", id="fock"),
            # The counts an entry point reads beside its config.
            pytest.param("ensemble", None, 2.5, "ensemble", id="ensemble"),
            pytest.param("trajectories", None, 2.5, "trajectories", id="trajectories"),
        ],
    )
    def test_non_integer_count_named(self, keyword, field, value, token):
        # Each would otherwise end in numpy's TypeError, run at theta = 1.5 pi
        # (q) or start from a truncated Fock level (fock).
        args = dict(scheme="elastic", trap_target=20, n_atoms=3, fock_n=3)
        message = f"^{token}: must be an integer, got {value!r}$"
        if field is None:
            entry = {"ensemble": lambda config, n: sweep(config, [0.1], ensemble=n),
                     "trajectories": sampled_success_estimate}[keyword]
            with pytest.raises(ConfigError, match=message):
                entry(build_run_config(**args, mode="sample"), value)
            return
        with pytest.raises(ConfigError, match=message):
            build_run_config(**{**args, keyword: value})
        # A replace() that bypasses the builder is caught where it is made.
        with pytest.raises(ConfigError, match=message):
            replace(build_run_config(**args), **{field: value})

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize(
        "keyword, field, token",
        [
            pytest.param("n_atoms", "n_atoms", "atoms", id="atoms"),
            pytest.param("n_max", "n_max", "nmax", id="nmax"),
            pytest.param("trap_target", "trap_target", "trap", id="trap"),
            pytest.param("q", "q", "q", id="q"),
            pytest.param("fock_n", "fock", "fock", id="fock"),
            pytest.param("master_seed", "master_seed", "seed", id="seed"),
            pytest.param("stream_id", "stream_id", "stream", id="stream"),
            pytest.param("ensemble", None, "ensemble", id="ensemble"),
            pytest.param("trajectories", None, "trajectories", id="trajectories"),
        ],
    )
    def test_bool_count_or_seed_named(self, keyword, field, token, value):
        # operator.index reads True as 1: sampled_success_estimate(config,
        # True) would run one trajectory, and n_atoms=True one atom.
        args = dict(scheme="elastic", trap_target=5, n_atoms=3, fock_n=0, n_max=30)
        message = f"^{token}: must be an integer, got {value}$"
        if field is None:
            entry = {"ensemble": lambda config, n: sweep(config, [0.1], ensemble=n),
                     "trajectories": sampled_success_estimate}[keyword]
            with pytest.raises(ConfigError, match=message):
                entry(build_run_config(**args, mode="sample"), value)
            return
        with pytest.raises(ConfigError, match=message):
            build_run_config(**{**args, keyword: value})
        # A replace() that bypasses the builder is caught where it is made.
        seeds = field in ("master_seed", "stream_id")
        with pytest.raises(ConfigError, match=(
                f"^{token}: must be a Python int, got {value}$" if seeds else message)):
            replace(build_run_config(**args), **{field: value})

    def test_numpy_integer_counts_give_the_int_config(self):
        args = dict(scheme="elastic", trap_target=20, n_atoms=40, q=1, fock_n=3, n_max=50,
                    spread_mult=0.5, master_seed=4)
        plain = build_run_config(**args)
        numpy_ints = build_run_config(
            **{k: np.int64(v) if type(v) is int else v for k, v in args.items()})
        assert numpy_ints == plain
        fields = ("trap_target", "q", "n_atoms", "n_max", "fock")
        assert {type(getattr(numpy_ints, name)) for name in fields} == {int}
        assert _fingerprint(run_sequence(numpy_ints)) == _fingerprint(run_sequence(plain))
        # The counts an entry point reads are read as Python ints too.
        table = sweep(plain, [0.5], ensemble=np.int64(2))
        assert table == sweep(plain, [0.5], ensemble=2)
        assert {type(cell.cell) for cell in table} == {int}
        sampled = replace(plain, mode="sample")
        estimate = sampled_success_estimate(sampled, np.int64(4))
        assert type(estimate) is float and estimate == sampled_success_estimate(sampled, 4)

    def test_validate_rechecks_replaced_config(self):
        cfg = fig3cd_config(n_atoms=1)
        for bad, message in (
            ({"trap_target": -1}, "trap: must be >= 0"),
            ({"q": 0}, "q: must be >= 1"),
            ({"phi_f": math.nan}, "phi_f_rad: must be finite, got nan"),
            ({"alpha": complex(math.nan)}, "alpha: must be finite, got nan"),
            ({"phi_f": "0.4"}, "phi_f_rad: must be a real number, got '0.4'"),
            ({"alpha": "3"}, "alpha: must be a number, got '3'"),
            ({"phi_f": True}, "phi_f_rad: must be a real number, got True"),
            ({"alpha": False}, "alpha: must be a number, got False"),
        ):
            with pytest.raises(ConfigError, match=message):
                replace(cfg, **bad)
        # A bool is a flag, not a number of 1, where the builder reads one too.
        kwargs = dict(scheme="elastic", trap_target=20, n_atoms=1, alpha=3.0)
        for keyword, message in (("tau_bar", "tau_bar_in_inv_g: must be a real number"),
                                 ("spread_mult", "spread_mult: must be a real number"),
                                 ("alpha", "alpha: must be a number")):
            with pytest.raises(ConfigError, match=f"^{message}, got True$"):
                build_run_config(**{**kwargs, keyword: True})
        # A TimingModel refuses the value before any config can hold it.
        elastic = build_run_config(**kwargs)
        with pytest.raises(ConfigError, match="ramsey_ratio: must be finite, got nan"):
            replace(elastic.timing, ramsey_ratio=math.nan)
        with pytest.raises(ConfigError, match="tau_bar_in_inv_g: must be a real number, got '1'"):
            replace(elastic.timing, tau_bar="1")

    def test_rabi_phases_floats_cannot_resolve_are_refused(self):
        # Past theta/pi = TRAP_SNAP_TOL * 2**52, one rounding of a phase exceeds
        # the snap tolerance; at tau_bar = 1e300 every phase is a multiple of pi.
        kwargs = dict(scheme="elastic", trap_target=20, n_atoms=1, alpha=3.0)
        message = r"^tau_bar_in_inv_g: times up to .* give Rabi phases past 4503.6 pi"
        with pytest.raises(ConfigError, match=message):
            build_run_config(**kwargs, tau_bar=1e300)
        # The longest time is tau_bar + spread/2 (uniform) or tau_bar + 8 rms
        # (gaussian), at the top level's sqrt(n_max + 1).
        cfg = build_run_config(**kwargs)
        edge = TRAP_SNAP_TOL * 2.0**52 * math.pi / math.sqrt(cfg.n_max + 1)
        assert replace(cfg, tau_bar=0.99 * edge).tau_bar == 0.99 * edge
        with pytest.raises(ConfigError, match=message):
            replace(cfg, tau_bar=1.01 * edge)
        uniform = replace(cfg, tau_bar=0.98 * edge, spread=0.03 * edge)  # top 0.995 edge
        with pytest.raises(ConfigError, match=message):  # top 1.049 edge
            replace(uniform, law="gaussian")

    @pytest.mark.parametrize("value", ["no", 0, None, np.bool_(True)])
    def test_halt_on_failure_must_be_a_bool(self, value):
        # "no" is truthy: a run would halt on the failure it was told to pass.
        cfg = fig3cd_config(n_atoms=1, mode="sample")
        message = f"^halt_on_failure: must be True or False, got {value!r}$"
        with pytest.raises(ConfigError, match=message):
            replace(cfg, halt_on_failure=value)
        with pytest.raises(ConfigError, match=message):
            RunConfig(**{**vars(cfg), "halt_on_failure": value})
        with pytest.raises(ConfigError, match=message):
            build_run_config(scheme="elastic", trap_target=20, n_atoms=1, alpha=3.0,
                             halt_on_failure=value)

    def test_ramsey_ratio_fixed_by_scheme_and_trap(self):
        # One atom velocity sets T_k = 2 sqrt(n_t+1) tau_k for superposition;
        # the other schemes have no Ramsey zone.  The ratio is derived, so a
        # new scheme or trap carries it along and no config holds another.
        sup = fig3cd_config(n_atoms=1)
        elastic = build_run_config(scheme="elastic", trap_target=21, n_atoms=1, alpha=3.0)
        assert (sup.timing.ramsey_ratio, elastic.timing.ramsey_ratio) == (2 * math.sqrt(22), 0)
        for config, change, ratio in (
            (sup, {"trap_target": 20}, 2 * math.sqrt(21)),
            (sup, {"scheme": "elastic"}, 0.0),
            (elastic, {"scheme": "superposition"}, 2 * math.sqrt(22)),
        ):
            assert replace(config, **change).timing.ramsey_ratio == ratio
            assert RunConfig(**{**vars(config), **change}).timing.ramsey_ratio == ratio
        # timing is no field: neither replace() nor the constructor takes one.
        for config in (sup, elastic):
            with pytest.raises(TypeError, match="unexpected keyword argument 'timing'"):
                replace(config, timing=replace(config.timing, ramsey_ratio=1.0))
            with pytest.raises(TypeError, match="unexpected keyword argument 'timing'"):
                RunConfig(**vars(config), timing=config.timing)

    def test_spread_rule(self):
        args = dict(scheme="elastic", trap_target=20, n_atoms=1, alpha=3.0, tau_bar=0.5)
        assert build_run_config(**args).timing.spread == 0.0
        assert build_run_config(**args, spread_mult=2.0).timing.spread == 2 * critical_spread(20)
        assert build_run_config(**args, spread_mult=2.0, spread_frac=0.1).timing.spread == 0.05
        both = build_run_config(**args, spread_time=0.2, spread_frac=0.1, spread_mult=2.0)
        assert both.timing.spread == 0.2


class TestRunSequenceBasics:
    def test_zero_atoms(self):
        cfg = build_run_config(scheme="elastic", trap_target=20, n_atoms=0, alpha=3.0)
        result = run_sequence(cfg)
        initial, _ = coherent_state(3.0, cfg.n_max)
        assert result.steps == []
        assert np.array_equal(result.final_distribution, initial.probabilities())
        assert result.final_cum_P == 1.0
        assert result.terminated_early is None

    def test_elastic_trapped_fock_is_stationary(self):
        cfg = build_run_config(scheme="elastic", trap_target=20, n_atoms=50, fock_n=20)
        result = run_sequence(cfg)
        assert all(s.P_k == 1.0 for s in result.steps)
        assert all(s.cum_P == 1.0 for s in result.steps)
        assert result.final_distribution[20] == 1.0

    def test_nsm_blockage_and_monotone_mean(self):
        cfg = build_run_config(scheme="nsm", trap_target=138, n_atoms=300, alpha=3.0)
        result = run_sequence(cfg)
        assert all(s.p_above_trap == 0.0 for s in result.steps)
        means = [s.mean_n for s in result.steps]
        assert all(b >= a - 1e-12 for a, b in zip(means, means[1:]))
        assert all(s.P_k == 1.0 for s in result.steps)

    def test_superposition_trap_probability_never_decreases(self):
        cfg = build_run_config(
            scheme="superposition",
            trap_target=21,
            n_atoms=100,
            alpha=math.sqrt(21.0),
            spread_mult=0.0,
        )
        result = run_sequence(cfg)
        traps = [s.p_trap for s in result.steps]
        assert all(b >= a for a, b in zip(traps, traps[1:]))

    def test_superposition_trap_held_under_fluctuations(self):
        result = run_sequence(fig3cd_config(n_atoms=400))
        traps = [s.p_trap for s in result.steps]
        assert all(b >= a - 1e-12 for a, b in zip(traps, traps[1:]))

    def test_postselected_deterministic_rerun(self):
        a = run_sequence(fig3cd_config())
        b = run_sequence(fig3cd_config())
        assert len(a.steps) == len(b.steps)
        for sa, sb in zip(a.steps, b.steps):
            assert sa == sb
        assert np.array_equal(a.final_distribution, b.final_distribution)

    def test_distinct_streams_differ(self):
        a = run_sequence(fig3cd_config(stream=0))
        b = run_sequence(fig3cd_config(stream=1))
        assert a.steps[0].tau_k != b.steps[0].tau_k

    def test_cum_p_is_product_of_p_k(self):
        result = run_sequence(fig3cd_config())
        oracle = math.exp(math.fsum(math.log(s.P_k) for s in result.steps))
        assert result.final_cum_P == pytest.approx(oracle, rel=1e-12)
        cums = [s.cum_P for s in result.steps]
        assert all(b <= a for a, b in zip(cums, cums[1:]))

    def test_norm_kept_each_step(self):
        result = run_sequence(fig3cd_config())
        assert abs(result.final_distribution.sum() - 1.0) < 1e-10

    def test_impossible_post_selection_terminates(self):
        cfg = build_run_config(scheme="inelastic", trap_target=20, n_atoms=5, fock_n=20)
        result = run_sequence(cfg)
        assert result.terminated_early == "impossible post-selection"
        assert result.steps == []
        assert result.final_distribution[20] == 1.0

    def test_post_selection_at_the_orthogonal_limit_is_impossible(self):
        # A post-selected atom renormalizes by its P_k, so one limit bounds
        # both: at ORTHOGONAL_NORM_SQ the cell ends as impossible, not as an
        # error, and just above it the guard passes.
        cfg = build_run_config(scheme="elastic", trap_target=20, n_atoms=1, alpha=3.0)
        run = experiment._Run(cfg, collect_steps=True, counting=False, nsm=False, sampled=False,
                              halting=False)
        limit = experiment.ORTHOGONAL_NORM_SQ
        for p_k, end in ((limit, "impossible post-selection"), (math.nextafter(limit, 1), None)):
            assert experiment._guard(run, (0.0, p_k, p_k, 1.0, 0.0), 1) == end

    def test_elastic_delta_n_shrinks_toward_trap(self):
        cfg = build_run_config(scheme="elastic", trap_target=20, n_atoms=600, alpha=3.0)
        result = run_sequence(cfg)
        deltas = [s.delta_n for s in result.steps]
        assert deltas[-1] < deltas[0]
        tail = deltas[len(deltas) // 2 :]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))

    def test_leakage_guard_aborts_runaway(self):
        cfg = build_run_config(
            scheme="inelastic", trap_target=10, n_atoms=30, fock_n=30, n_max=35, tau_bar=0.4
        )
        with pytest.raises(LeakageError):
            run_sequence(cfg)

    def test_gaussian_law_also_converges_to_trap(self):
        # Same rms as the uniform comparison; similar trapping behavior.
        cfg = build_run_config(
            scheme="superposition",
            trap_target=21,
            n_atoms=1000,
            alpha=math.sqrt(21.0),
            spread_mult=2.0,
            law="gaussian",
            master_seed=7,
        )
        result = run_sequence(cfg)
        assert result.final_distribution[21] > 0.9

    def test_general_final_phase_driver(self):
        # phi_f = +pi/2 flips the interference sign: the correlation no
        # longer protects the trap, but the run stays unitary and normalized.
        cfg = build_run_config(
            scheme="superposition",
            trap_target=21,
            n_atoms=50,
            alpha=math.sqrt(21.0),
            spread_mult=0.1,
            phi_f=math.pi / 2,
        )
        result = run_sequence(cfg)
        assert abs(result.final_distribution.sum() - 1.0) < 1e-10
        assert all(0.0 <= s.P_k <= 1.0 for s in result.steps)


def _reference_step(config, field, tau, ramsey_t, rng):
    """One atom through the one-state reference updates.

    Returns (field, P_k, success): the FieldState (populations for NSM)
    after the atom, its success probability and the sampled outcome, None
    unless outcomes are sampled.
    """
    if config.scheme == "nsm":
        return nsm_step(field, tau), 1.0, None
    if config.scheme == "superposition":
        success, failure = correlated_cm_factors(ramsey_t, tau, config.n_max, config.phi_f)
        d, d_orth = success * field.amplitudes, failure * field.amplitudes
    else:
        rot = ELASTIC_ROTATION if config.scheme == "elastic" else INELASTIC_ROTATION
        ent = jcm_entangle(field, tau)
        if config.mode == "postselect":
            state, p_k = cm_project(ent, rot)
            return state, p_k, None
        d = project_amplitudes(ent, rot)
        d_orth = project_amplitudes(ent, orthogonal_rotation(rot))
    p_k = min(float(np.vdot(d, d).real), 1.0)
    if config.mode == "postselect":
        return renormalize(FieldState(d, config.n_max)), p_k, None
    success = rng.random() < p_k
    return renormalize(FieldState(d if success else d_orth, config.n_max)), p_k, success


def _reference_run(config):
    """The atoms of `config` through the one-state reference updates.

    Draws each atom's times, then its outcome, from the config's stream.
    Returns (field, steps): the field after the last atom and, per atom,
    (tau_k, P_k, success, populations after the atom).  Stops after the
    first failed outcome when the config halts on one.
    """
    rng = derive_stream(config.master_seed, config.stream_id)
    if config.fock is None:
        field, _ = coherent_state(config.alpha, config.n_max)
    else:
        field = fock_basis_state(config.fock, config.n_max)
    if config.scheme == "nsm":
        field = field.probabilities()
    steps = []
    for _ in range(config.n_atoms):
        tau, ramsey_t = sample_timing(config.timing, rng)
        field, p_k, success = _reference_step(config, field, tau, ramsey_t, rng)
        dist = field if config.scheme == "nsm" else field.probabilities()
        steps.append((tau, p_k, success, dist))
        if success is False and config.halt_on_failure:
            break
    return field, steps


def _assert_equals_reference(config, result):
    """result is run_sequence(config) with steps, bit for bit as _reference_run."""
    field, steps = _reference_run(config)
    dist = field if config.scheme == "nsm" else field.probabilities()
    assert result.final_distribution.tobytes() == dist.tobytes()
    assert len(result.steps) == len(steps)
    outcome = {None: "postselected", True: "sampled_success", False: "sampled_failure"}
    for step, (tau, p_k, success, dist) in zip(result.steps, steps):
        moments = distribution_stats(dist)
        assert (step.tau_k, step.P_k, step.outcome) == (tau, p_k, outcome[success])
        assert (step.mean_n, step.delta_n) == moments
        assert step.p_trap == dist[config.trap_target]
        assert step.p_above_trap == dist[config.trap_target + 1 :].sum()
    assert result.n_failures == sum(success is False for _, _, success, _ in steps)
    return steps


# (trap, initial field, n_max) per scheme: 150 atoms of each stay inside
# the basis, so neither the reference nor the kernel stops early.
REFERENCE_SCENARIOS = {
    "nsm": (138, {"alpha": 3.0}, None),
    "elastic": (20, {"alpha": 3.0}, None),
    "inelastic": (20, {"alpha": 3.0}, 260),
    "superposition": (21, {"alpha": math.sqrt(21.0)}, None),
}


class TestKernel:
    @pytest.mark.parametrize("mode", ["postselect", "sample"])
    @pytest.mark.parametrize(
        "scheme, phi_f",
        [
            ("nsm", -math.pi / 2),
            ("elastic", -math.pi / 2),
            ("inelastic", -math.pi / 2),
            ("superposition", -math.pi / 2),
            ("superposition", 0.4),
        ],
    )
    def test_one_atom_equals_reference_updates(self, scheme, phi_f, mode):
        trap, alpha = (21, math.sqrt(21.0)) if scheme == "superposition" else (20, 3.0)
        outcomes = set()
        for stream in range(40):
            config = build_run_config(
                scheme=scheme, trap_target=trap, n_atoms=1, alpha=alpha,
                spread_mult=1.0, phi_f=phi_f, mode=mode, master_seed=17, stream_id=stream,
                halt_on_failure=False,
            )
            result = run_sequence(config)
            [(_, p_k, success, _)] = _assert_equals_reference(config, result)
            assert result.final_cum_P == result.steps[0].cum_P == math.exp(math.log(p_k))
            outcomes.add(success)
        # Sampled mode must have met both outcomes; NSM draws none.
        assert outcomes == ({True, False} if mode == "sample" and scheme != "nsm" else {None})

    @pytest.mark.parametrize(
        "mode, halt",
        [("postselect", True), ("sample", True), ("sample", False)],
        ids=["postselect", "sample-halting", "sample-continuing"],
    )
    @pytest.mark.parametrize(
        "scheme, phi_f",
        [
            ("nsm", -math.pi / 2),
            ("elastic", -math.pi / 2),
            ("inelastic", -math.pi / 2),
            ("superposition", -math.pi / 2),
            ("superposition", 0.4),
        ],
    )
    def test_many_atoms_equal_reference_updates(self, monkeypatch, scheme, phi_f, mode, halt):
        # 150 atoms span several blocks of timing draws in one-cell runs of
        # blocks of 8192 entries: 35 atoms at 234 levels, 141 at 58.
        monkeypatch.setattr(experiment, "_BLOCK_ENTRIES", 8192)
        trap, initial, n_max = REFERENCE_SCENARIOS[scheme]
        lengths = set()
        for stream in range(3):
            config = build_run_config(
                scheme=scheme, trap_target=trap, n_atoms=150, **initial, n_max=n_max,
                spread_mult=0.5, phi_f=phi_f, mode=mode, master_seed=29, stream_id=stream,
                halt_on_failure=halt,
            )
            result = run_sequence(config)
            lengths.add(len(_assert_equals_reference(config, result)))
            assert result.terminated_early is None or result.terminated_early.startswith(
                "sampled orthogonal outcome"
            )
        # A halting run stops at its first failed outcome, the others run on.
        assert max(lengths) > 1 if halt and mode == "sample" else lengths == {150}

    @pytest.mark.parametrize("halt", [True, False], ids=["sample-halting", "sample-continuing"])
    @pytest.mark.parametrize("scheme", ["elastic", "superposition"])
    def test_gaussian_sampled_runs_equal_reference_updates(self, monkeypatch, scheme, halt):
        # An rms of 0.87 tau_bar puts 12% of the normals at or below 0, each
        # redrawn.  Per atom the stream gives normals until tau_k > 0, then
        # u_k.  Halting runs stop at their first failure, a few atoms in, so
        # they take more streams.
        monkeypatch.setattr(experiment, "_BLOCK_ENTRIES", 8192)
        trap, initial, n_max = REFERENCE_SCENARIOS[scheme]
        streams, atoms = (40 if halt else 4), 40
        redraws = failures = lengths = 0
        for stream in range(streams):
            config = build_run_config(
                scheme=scheme, trap_target=trap, n_atoms=atoms, **initial, n_max=n_max,
                law="gaussian", spread_frac=3.0, mode="sample", master_seed=31,
                stream_id=stream, halt_on_failure=halt,
            )
            result = run_sequence(config)
            _assert_equals_reference(config, result)
            timing, rng = config.timing, derive_stream(31, stream)
            for step in result.steps:
                while (tau := timing.tau_bar + timing.rms * rng.standard_normal()) <= 0.0:
                    redraws += 1
                assert step.tau_k == tau
                success = rng.random() < step.P_k
                assert step.outcome == ("sampled_success" if success else "sampled_failure")
            failures += result.n_failures
            lengths += len(result.steps)
        assert redraws > 0 and failures > 0
        assert lengths < streams * atoms if halt else lengths == streams * atoms

    @pytest.mark.parametrize("mode", ["postselect", "sample"])
    @pytest.mark.parametrize(
        "scheme, phi_f",
        [
            ("nsm", -math.pi / 2),
            ("elastic", -math.pi / 2),
            ("inelastic", -math.pi / 2),
            ("superposition", -math.pi / 2),
            ("superposition", 0.4),
        ],
    )
    def test_one_factor_call_per_block(self, monkeypatch, scheme, phi_f, mode):
        # Superposition blocks take their factors from one correlated_cm_factors
        # call, the others from one rabi_cos_sin call, in a run and in a sweep.
        monkeypatch.setattr(experiment, "_BLOCK_ENTRIES", 2048)
        calls = dict.fromkeys(("_draw_block", "rabi_cos_sin", "correlated_cm_factors"), 0)

        def counted(name):
            original = getattr(experiment, name)

            def count(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return count

        for name in calls:
            monkeypatch.setattr(experiment, name, counted(name))
        trap, initial, n_max = REFERENCE_SCENARIOS[scheme]
        base = build_run_config(
            scheme=scheme, trap_target=trap, n_atoms=60, **initial, n_max=n_max,
            spread_mult=0.5, phi_f=phi_f, mode=mode, halt_on_failure=False,
        )
        run_sequence(base)
        sweep(base, [0.1, 0.5], ensemble=3)
        blocks = calls.pop("_draw_block")
        factors = "correlated_cm_factors" if scheme == "superposition" else "rabi_cos_sin"
        assert blocks > 2
        assert calls == {**dict.fromkeys(calls, 0), factors: blocks}

    @pytest.mark.parametrize("ahead", [1, 1024, 10**6], ids=["ahead-1", "ahead-1024", "ahead-1e6"])
    @pytest.mark.parametrize("halt", [True, False], ids=["sample-halting", "sample-continuing"])
    def test_mixed_spread_sampled_sweep_equals_reference(self, monkeypatch, halt, ahead):
        # One uniform-law batch deals the cells at multiplier 0 one value an
        # atom (u_k) and those at 0.5 two (tau_k, u_k), from lanes drawn
        # ahead by every block (ahead 1), now and then, or once for the
        # whole run (ahead 10^6).  Each cell equals the reference, which
        # draws through a Generator, bit for bit: a halting cell up to its
        # first failure, over blocks of one atom.
        monkeypatch.setattr(experiment, "_BLOCK_ENTRIES", 2048)
        monkeypatch.setattr(experiment, "_DRAW_AHEAD", ahead)
        base = build_run_config(
            scheme="elastic", trap_target=20, n_atoms=60, alpha=3.0, mode="sample",
            master_seed=41, halt_on_failure=halt,
        )
        mults, ensemble, critical = [0.0, 0.5], 3, critical_spread(base.trap_target)
        configs = [replace(base, spread=mult * critical, stream_id=i * ensemble + j)
                   for i, mult in enumerate(mults) for j in range(ensemble)]
        timings, ids = _cells(configs)
        results = list(experiment._run_batches(base, timings, ids, "steps"))
        table = sweep(base, mults, ensemble)
        lengths = set()
        for config, result, cell in zip(configs, results, table, strict=True):
            lengths.add(len(_assert_equals_reference(config, result)))
            assert cell.n_failures == result.n_failures
            if cell.error is None:
                assert (cell.final_p_trap, cell.cum_P) == (
                    result.final_distribution[base.trap_target], result.final_cum_P)
            else:
                assert cell.error == result.terminated_early
        assert min(lengths) < 60 and max(lengths) > 1 if halt else lengths == {60}
        assert sum(result.n_failures for result in results) > 0

    @pytest.mark.parametrize(
        "scheme, initial, mults, errors",
        [
            # The cell at multiplier 2.5 and stream 3 leaks at atom 7, inside
            # the first block, while the others run on through it.
            ("elastic", {"alpha": 3.0}, [0.1, 2.5, 0.5], [False, False, False, True, False, False]),
            # From |17>, the fixed-time cells stall at the trap; the two that
            # fluctuate leak at atoms 34 and 35, inside the second block.
            ("nsm", {"fock_n": 17}, [0.0, 0.05, 0.0], [False, False, True, True, False, False]),
        ],
        ids=["elastic", "nsm"],
    )
    def test_sweep_cells_equal_reference_across_a_leak(
        self, monkeypatch, scheme, initial, mults, errors
    ):
        # Six cells of 46 levels draw their atoms in blocks of 29 (8192
        # entries).  A leaking cell ends with the reference's error message,
        # the others equal it.
        monkeypatch.setattr(experiment, "_BLOCK_ENTRIES", 8192)
        base = build_run_config(
            scheme=scheme, trap_target=20, n_atoms=300, **initial, n_max=45, master_seed=4
        )
        table = sweep(base, mults, ensemble=2)
        assert [c.error is not None for c in table] == errors
        spread = critical_spread(base.trap_target)
        for cell in table:
            config = replace(base, spread=cell.multiplier * spread, stream_id=cell.cell)
            if cell.error is not None:
                with pytest.raises(LeakageError) as exc:
                    _reference_run(config)
                assert cell.error == str(exc.value)
                continue
            field, steps = _reference_run(config)
            assert len(steps) == 300
            dist = field if scheme == "nsm" else field.probabilities()
            assert cell.final_p_trap == dist[base.trap_target]


def _cells(configs):
    """The kernel's (timings, uint64 stream ids) for configs of one master seed."""
    assert len({config.master_seed for config in configs}) == 1
    ids = np.array([config.stream_id for config in configs], dtype=np.uint64)
    return [config.timing for config in configs], ids


def _fingerprint(result):
    """Everything a RunResult holds, comparable with ==."""
    return (
        result.steps, result.final_distribution.tobytes(),
        result.final_cum_P, result.n_failures, result.terminated_early,
    )


class TestBlockSize:
    """Results do not depend on how many atoms a block or cells a batch holds."""

    @staticmethod
    def each_block_size(monkeypatch, run):
        """run() with one atom a block, the default blocks and whole-run blocks.

        Each block size runs in batches of one cell, of three cells and of the
        size the entries rule gives at that block size; the outcomes for one
        block size, batch sizes in that order, follow one another.
        """
        outcomes = []
        rule = experiment._batch_cells
        batches = (lambda n_max: 1, lambda n_max: 3, rule)
        for entries in (1, experiment._BLOCK_ENTRIES, 10**6):
            monkeypatch.setattr(experiment, "_BLOCK_ENTRIES", entries)
            for batch in batches:
                monkeypatch.setattr(experiment, "_batch_cells", batch)
                try:
                    outcomes.append(run())
                except SimulationError as exc:
                    outcomes.append(f"{type(exc).__name__}: {exc}")
        return outcomes

    @pytest.mark.parametrize(
        "mode, halt",
        [("postselect", True), ("sample", True), ("sample", False)],
        ids=["postselect", "sample-halting", "sample-continuing"],
    )
    @pytest.mark.parametrize(
        "scheme, phi_f",
        [
            ("nsm", -math.pi / 2),
            ("elastic", -math.pi / 2),
            ("inelastic", -math.pi / 2),
            ("superposition", -math.pi / 2),
            ("superposition", 0.4),
        ],
    )
    def test_run(self, monkeypatch, scheme, phi_f, mode, halt):
        trap, initial, n_max = REFERENCE_SCENARIOS[scheme]
        config = build_run_config(
            scheme=scheme, trap_target=trap, n_atoms=80, **initial, n_max=n_max,
            spread_mult=1.0, phi_f=phi_f, mode=mode, master_seed=31, halt_on_failure=halt,
        )
        outcomes = self.each_block_size(monkeypatch, lambda: _fingerprint(run_sequence(config)))
        assert outcomes == outcomes[:1] * 9

    def test_sweep_with_a_cell_that_leaks_mid_block(self, monkeypatch):
        # The cell at multiplier 2.5 and stream 3 leaks at atom 7.
        base = build_run_config(
            scheme="elastic", trap_target=20, n_atoms=300, alpha=3.0, n_max=45, master_seed=4
        )
        outcomes = self.each_block_size(
            monkeypatch, lambda: repr(sweep(base, [0.1, 2.5, 0.5], ensemble=2))
        )
        assert outcomes == outcomes[:1] * 9
        assert "population would leave truncation" in outcomes[0]

    @pytest.mark.parametrize("halt", [False, True], ids=["continuing", "halting"])
    def test_sampled_estimate(self, monkeypatch, halt):
        config = replace(fig3cd_config(n_atoms=100, mode="sample"), halt_on_failure=halt)
        outcomes = self.each_block_size(monkeypatch, lambda: sampled_success_estimate(config, 30))
        assert outcomes == outcomes[:1] * 9

    def test_halting_estimate_raises_the_first_error_in_trajectory_order(self, monkeypatch):
        # Of 12 halting trajectories, 7 and 11 leak out of the 47-level basis,
        # 11 at atom 4 and 7 at atom 6; the others halt at a failed outcome
        # first.  A halting estimate books a block's failures by arrays until
        # the leak guard trips, then atom by atom: trajectory 7's error wins.
        cfg = build_run_config(
            scheme="inelastic", trap_target=20, n_atoms=40, alpha=3.0, n_max=46,
            spread_mult=1.0, mode="sample",
        )
        errors = {}
        for t in range(12):
            try:
                run_sequence(replace(cfg, master_seed=0, stream_id=t))
            except LeakageError as exc:
                errors[t] = str(exc)
        assert list(errors) == [7, 11] and errors[7] != errors[11]
        with pytest.raises(LeakageError):
            run_sequence(replace(cfg, n_atoms=4, master_seed=0, stream_id=11))
        last = run_sequence(replace(cfg, n_atoms=5, master_seed=0, stream_id=7))
        assert last.terminated_early is None
        outcomes = self.each_block_size(monkeypatch, lambda: sampled_success_estimate(cfg, 12))
        assert outcomes == [f"LeakageError: {errors[7]}"] * 9

    @pytest.mark.parametrize(
        "mode, halt",
        [("postselect", True), ("sample", True), ("sample", False)],
        ids=["postselect", "sample-halting", "sample-continuing"],
    )
    @pytest.mark.parametrize(
        "scheme, phi_f",
        [("nsm", -math.pi / 2), ("elastic", -math.pi / 2), ("superposition", 0.4)],
    )
    def test_sweep_mixing_fixed_and_fluctuating_times(self, monkeypatch, scheme, phi_f, mode, halt):
        # Run alone, a cell at multiplier 0 shares one row of factors a block;
        # in most of the sweep's batches it sits beside fluctuating cells.
        trap, initial, n_max = REFERENCE_SCENARIOS[scheme]
        base = build_run_config(
            scheme=scheme, trap_target=trap, n_atoms=60, **initial, n_max=n_max, phi_f=phi_f,
            mode=mode, master_seed=13, halt_on_failure=halt,
        )
        expected = []
        for index, mult in enumerate([0.0, 0.0, 0.1, 0.1]):
            config = replace(base, spread=mult * critical_spread(trap), master_seed=13,
                             stream_id=index)
            result = run_sequence(config)
            values = (result.final_distribution[trap], result.final_cum_P)
            if result.terminated_early is not None:  # a failed cell, with nan values
                values = (math.nan, math.nan)
            expected.append(repr((result.terminated_early, *map(float, values),
                                  float(result.n_failures))))

        def cells():
            return [repr((c.error, c.final_p_trap, c.cum_P, float(c.n_failures)))
                    for c in sweep(base, [0.0, 0.1], ensemble=2)]

        outcomes = self.each_block_size(monkeypatch, cells)
        assert outcomes == [expected] * 9

    def test_batches_sized_by_entries(self, monkeypatch):
        # A batch holds as many cells as one atom of them fills a block:
        # 1057 at 31 levels, 50 at fig1b's 651.
        assert [experiment._batch_cells(n_max) for n_max in (30, 125, 126, 650)] == [
            1057, 260, 258, 50
        ]
        sizes = []
        original = experiment._run_cells

        def recorded(run, timings, ids, buffer):
            sizes.append(len(ids))
            return original(run, timings, ids, buffer)

        monkeypatch.setattr(experiment, "_run_cells", recorded)
        config = build_run_config(
            scheme="elastic", trap_target=5, n_atoms=5, fock_n=0, tau_bar=math.pi / 3.0,
            n_max=30, mode="sample",
        )
        sampled_success_estimate(config, 2200)
        assert sizes == [1057, 1057, 86]

    def test_one_atom_of_a_full_batch_fits_a_block(self):
        for n_max in range(1, 2001):
            cells = experiment._batch_cells(n_max)
            assert cells >= 1 and cells * (n_max + 1) <= experiment._BLOCK_ENTRIES

    def test_post_selection_impossible_at_atom_two(self, monkeypatch):
        # From |19>, the first selected atom leaves |20>, the trap, which no
        # second atom can leave: the run ends with one step booked.
        config = build_run_config(scheme="inelastic", trap_target=20, n_atoms=5, fock_n=19)
        outcomes = self.each_block_size(monkeypatch, lambda: run_sequence(config))
        for result in outcomes:
            assert result.terminated_early == "impossible post-selection"
            assert [s.k for s in result.steps] == [1]
            assert result.final_cum_P == result.steps[0].cum_P == 0.005721385394479351
            assert result.final_distribution[20] == 1.0
        assert [_fingerprint(result) for result in outcomes] == [_fingerprint(outcomes[0])] * 9

    def test_cell_ending_mid_block_keeps_its_one_cell_result(self, monkeypatch):
        # From |19> at the trapping time of 20, a cell's first atom leaves
        # |20>, which no second atom can leave: it ends at atom 2 of a block
        # that runs on, while the cells at fluctuating times go on to atom 20
        # and keep writing the kernel's buffer.
        base = build_run_config(scheme="inelastic", trap_target=20, n_atoms=20, fock_n=19)
        configs = [
            replace(base, spread=mult * critical_spread(20), master_seed=0, stream_id=stream)
            for stream, mult in enumerate([0.0, 0.05, 0.0, 0.05, 0.0])
        ]
        expected = [_fingerprint(run_sequence(config)) for config in configs]
        assert [len(result[0]) for result in expected] == [1, 20, 1, 20, 1]
        timings, ids = _cells(configs)
        outcomes = self.each_block_size(
            monkeypatch,
            lambda: [_fingerprint(r) for r in experiment._run_batches(base, timings, ids, "steps")],
        )
        assert outcomes == [expected] * 9

    def test_top_level_guard_trips_inside_a_block(self, monkeypatch):
        # 36 levels give one-cell blocks of 910 atoms; each selected atom
        # leaves a photon behind, which fills the top three levels at atom 30.
        config = build_run_config(
            scheme="inelastic", trap_target=5, n_atoms=150, fock_n=3, spread_mult=0.1,
            master_seed=5,
        )
        outcomes = self.each_block_size(monkeypatch, lambda: run_sequence(config))
        for outcome in outcomes:
            assert re.match(r"^LeakageError: top-3 Fock levels hold .* at atom 30; ", outcome)
        assert outcomes == outcomes[:1] * 9

    @pytest.mark.parametrize(
        "scheme, mode, factor, level, source, message",
        [
            ("nsm", "postselect", "cos", 3, ("cos", "sin"),
             "SimulationError: state norm drifted to nan at atom 5"),
            # The NaN norm divides the row: numpy warns of it, and the guard ends the cell.
            pytest.param(
                "elastic", "postselect", "cos", 3, ("cos", "top sin"),
                "OrthogonalOutcomeError: cannot renormalize state with squared norm nan",
                marks=pytest.mark.filterwarnings(
                    "ignore:invalid value encountered in divide:RuntimeWarning"
                ),
            ),
            # A NaN selected norm fails the draw and the orthogonal row is finite:
            # the NaN P_k alone ends the cell, before the atom is booked.
            ("elastic", "sample", "cos", 3, ("cos", "sin"),
             "SimulationError: selected outcome's squared norm is nan at atom 5"),
            # The top level's sin only enters the leak guard: the field stays finite.
            # A post-selected elastic run computes it alone, as the leak guard's edge.
            ("elastic", "postselect", "sin", -1, ("cos", "top sin"),
             "LeakageError: population would leave truncation: P(n_max) sin^2 theta_nmax = nan"),
            ("nsm", "postselect", "sin", -1, ("cos", "sin"),
             "LeakageError: population would leave truncation: P(n_max) sin^2 theta_nmax = nan"),
        ],
        ids=["nsm-cos", "elastic-cos", "elastic-cos-sampled", "elastic-top-sin", "nsm-top-sin"],
    )
    def test_nan_factor_ends_the_cell(
        self, monkeypatch, scheme, mode, factor, level, source, message
    ):
        # A NaN cos or sin at atom 5 of one cell, at every block and batch
        # size, in the parts of rabi_cos_sin that compute that factor: the
        # whole pair for NSM and sampled mode, the cos and the top level's sin
        # alone for a post-selected elastic run.  The block's test must see it
        # wherever it sits among the block's guard inputs, although a NaN
        # passes every `x > limit`.  The cell is that of stream
        # `poisoned_stream`, the last cell of its batch at every batch size.
        # Times fluctuate, so that every atom and cell has its own row of
        # factors.  A uniform-law batch starts by deriving its cells' lanes.
        original_lanes, original_rabi = experiment.StreamLanes, experiment.rabi_cos_sin
        poisoned_stream = [0]
        drawn = []  # atoms whose factors the poisoned cell's batch has taken, if it runs
        hits = set()  # the parts computed by the calls whose output took the NaN

        def stream_lanes(master, ids):
            drawn[:] = [0] if ids[-1] == poisoned_stream[0] else []
            return original_lanes(master, ids)

        def poisoned(taus, n_max, cos=True, first=0):
            factors = original_rabi(taus, n_max, cos=cos, first=first)
            parts = ("cos",) * cos + {0: ("sin",), n_max: ("top sin",), None: ()}[first]
            named = {"cos": factors[0], "sin": factors[1]}
            if drawn:
                if named[factor] is not None and 0 <= 4 - drawn[0] < len(taus):
                    named[factor][4 - drawn[0], -1, level] = math.nan
                    hits.add(parts)
                drawn[0] += len(taus)
            return factors

        monkeypatch.setattr(experiment, "rabi_cos_sin", poisoned)
        monkeypatch.setattr(experiment, "StreamLanes", stream_lanes)
        trap, initial, n_max = REFERENCE_SCENARIOS[scheme]
        base = build_run_config(
            scheme=scheme, trap_target=trap, n_atoms=10, **initial, n_max=n_max, master_seed=3,
            spread_mult=0.1, mode=mode, halt_on_failure=False,
        )
        assert self.each_block_size(monkeypatch, lambda: run_sequence(base)) == [message] * 9
        poisoned_stream[0] = 2
        errors = self.each_block_size(
            monkeypatch, lambda: [cell.error for cell in sweep(base, [0.1], ensemble=3)]
        )
        assert errors == [[None, None, message.partition(": ")[2]]] * 9
        assert hits == {source}

    def test_nan_in_a_shared_row_ends_every_cell_at_one_atom(self, monkeypatch):
        # At a fixed time one row of factors serves every atom and cell of a
        # block.  A NaN cos in the row of the block that holds atom 5 ends
        # every cell at that block's first atom: 5 in one-atom blocks, 1 when
        # one block holds the whole run.  A uniform-law batch starts by
        # deriving its cells' lanes.
        original_lanes, original_draw = experiment.StreamLanes, experiment._draw_block
        original_rabi = experiment.rabi_cos_sin
        block = {}

        def stream_lanes(master, ids):
            block["end"] = 0  # atoms the batch has drawn
            return original_lanes(master, ids)

        def draw_block(run, batch, lanes, b):
            block["start"], block["end"] = block["end"] + 1, block["end"] + b
            return original_draw(run, batch, lanes, b)

        def poisoned(taus, n_max, **parts):
            factors = original_rabi(taus, n_max, **parts)
            if block["start"] <= 5 <= block["end"]:
                # NSM computes every level's cos and sin from one time.
                assert taus.shape == (1, 1, 1) and parts == {"cos": True, "first": 0}
                factors[0][..., 3] = math.nan
                block["poisoned"] = block["start"]
            return factors

        monkeypatch.setattr(experiment, "StreamLanes", stream_lanes)
        monkeypatch.setattr(experiment, "_draw_block", draw_block)
        monkeypatch.setattr(experiment, "rabi_cos_sin", poisoned)
        trap, initial, n_max = REFERENCE_SCENARIOS["nsm"]
        base = build_run_config(
            scheme="nsm", trap_target=trap, n_atoms=10, **initial, n_max=n_max, master_seed=3
        )

        def errors():
            cells = sweep(base, [0.0], ensemble=3)
            return block["poisoned"], [cell.error for cell in cells]

        outcomes = self.each_block_size(monkeypatch, errors)
        for atom, cells in outcomes:
            assert cells == [f"state norm drifted to nan at atom {atom}"] * 3
        assert {atom for atom, _ in outcomes} == {1, 5}


class TestScratchBuffer:
    """Each _run_batches call allocates one scratch buffer, which every block
    of every one of its batches reuses."""

    @pytest.mark.parametrize(
        "scheme, mode, halt",
        [("nsm", "postselect", True), ("elastic", "postselect", True),
         ("superposition", "sample", True), ("elastic", "sample", False)],
    )
    def test_one_buffer_per_run_batches_call(self, monkeypatch, scheme, mode, halt):
        calls = []  # per _run_batches call: its batches, and the buffer each block was handed
        original_batches = experiment._run_batches
        original_cells, original_advance = experiment._run_cells, experiment._advance

        def run_batches(config, timings, ids, collect):
            calls.append({"batches": 0, "buffers": []})
            yield from original_batches(config, timings, ids, collect)

        def run_cells(run, timings, ids, buffer):
            calls[-1]["batches"] += 1
            return original_cells(run, timings, ids, buffer)

        def advance(run, state, draw, buffer):
            block = original_advance(run, state, draw, buffer)
            assert np.shares_memory(block[2], buffer)  # the block's fields
            calls[-1]["buffers"].append(buffer)
            return block

        monkeypatch.setattr(experiment, "_run_batches", run_batches)
        monkeypatch.setattr(experiment, "_run_cells", run_cells)
        monkeypatch.setattr(experiment, "_advance", advance)
        monkeypatch.setattr(experiment, "_BLOCK_ENTRIES", 2000)
        monkeypatch.setattr(experiment, "_batch_cells", lambda n_max: 2)
        trap, initial, n_max = REFERENCE_SCENARIOS[scheme]
        config = build_run_config(
            scheme=scheme, trap_target=trap, n_atoms=60, **initial, n_max=n_max,
            spread_mult=0.5, mode=mode, halt_on_failure=halt, master_seed=2,
        )
        run_sequence(config)
        sweep(config, [0.1, 0.5], ensemble=3)
        if mode == "sample":
            sampled_success_estimate(config, 70)
        assert [call["batches"] for call in calls] == [1, 3, 35][: 2 + (mode == "sample")]
        # A halting sampled run may end at its first atom; the batches run on.
        assert sum(len(call["buffers"]) > 1 for call in calls) >= 2
        for call in calls:
            first = call["buffers"][0]
            assert first.base is None  # an allocation of its own, not a view
            assert all(buffer is first for buffer in call["buffers"])


class TestSeedPairs:
    def test_kernel_derives_streams_from_a_master_and_an_id_array(self, monkeypatch):
        # Runs, sweeps and sampled estimates hand the stream derivation of
        # their law the config's master seed, a Python int, and a uint64
        # array of stream ids: StreamLanes under the uniform law,
        # derive_streams under the gaussian.
        for law, hook, other in [("uniform", "StreamLanes", "derive_streams"),
                                 ("gaussian", "derive_streams", "StreamLanes")]:
            seen = []
            original = getattr(experiment, hook)

            def derive(master, ids, original=original, seen=seen):
                assert type(master) is int and ids.dtype == np.uint64
                seen.extend((master, stream) for stream in ids.tolist())
                return original(master, ids)

            def unused(master, ids, law=law):
                raise AssertionError(f"a {law}-law batch derived its streams through another hook")

            monkeypatch.setattr(experiment, hook, derive)
            monkeypatch.setattr(experiment, other, unused)
            config = replace(fig3cd_config(n_atoms=3, stream=5, mode="sample"), law=law)
            sampled_success_estimate(config, 4)
            sweep(config, [0.0, 0.1], ensemble=2)
            run_sequence(config)
            assert seen == [(7, 5), (7, 6), (7, 7), (7, 8), (7, 0), (7, 1), (7, 2), (7, 3), (7, 5)]
            assert {type(seed) for seed in seen} == {tuple}
            assert {tuple(map(type, seed)) for seed in seen} == {(int, int)}
            monkeypatch.undo()

    @pytest.mark.parametrize("first", [2**64 - 6, -6, 2**65 - 6],
                             ids=["below-2e64", "negative", "below-2e65"])
    def test_estimate_stream_ids_wrap_modulo_2_64(self, monkeypatch, first):
        # Trajectory t runs the stream first + t modulo 2^64, so these 12 ids
        # cross 2^64, from a negative stream_id too.  The estimate counts
        # each lane's success as run_sequence at its id gives it, and each
        # lane's step records equal that run's.
        config = build_run_config(
            scheme="elastic", trap_target=5, n_atoms=2, fock_n=0, tau_bar=0.5, spread_frac=0.1,
            n_max=30, mode="sample", master_seed=808, stream_id=first,
        )
        seen = []
        original = experiment._run_batches

        def run_batches(config, timings, ids, collect):
            outcomes = list(original(config, timings, ids, collect))
            seen.append((ids.tolist(), outcomes))
            yield from outcomes

        monkeypatch.setattr(experiment, "_run_batches", run_batches)
        estimate = sampled_success_estimate(config, 12)
        monkeypatch.undo()
        ((ids, successes),) = seen
        assert ids == [2**64 - 6 + t for t in range(6)] + list(range(6))
        runs = [run_sequence(replace(config, stream_id=stream)) for stream in ids]
        expected = [run.terminated_early is None and run.n_failures == 0 for run in runs]
        assert successes == expected and 0 < sum(expected) < 12
        assert estimate == sum(expected) / 12
        steps = experiment._run_batches(config, [config.timing] * 12, stream_id_range(first, 12),
                                        "steps")
        assert [_fingerprint(result) for result in steps] == [_fingerprint(run) for run in runs]

    @pytest.mark.parametrize("master", [-7, 2**64 + 7, 2**70], ids=["negative", "2e64+7", "2e70"])
    def test_sweep_cells_equal_runs_at_any_master(self, master):
        # A sweep's ids are its cell indices, whatever the base stream_id; its
        # master seed, of any sign or size, is taken modulo 2^64.  Each cell
        # equals run_sequence at (master, cell index).
        base = build_run_config(
            scheme="elastic", trap_target=20, n_atoms=30, alpha=3.0, mode="sample",
            master_seed=master, stream_id=-3, halt_on_failure=False,
        )
        table = sweep(base, [0.0, 0.5], ensemble=3)
        assert sweep(replace(base, master_seed=master + 2**64, stream_id=0), [0.0, 0.5], 3) == table
        critical = critical_spread(base.trap_target)
        for cell in table:
            run = run_sequence(replace(base, spread=cell.multiplier * critical, stream_id=cell.cell))
            assert (cell.error, cell.n_failures) == (run.terminated_early, run.n_failures)
            assert (cell.final_p_trap, cell.cum_P) == (
                run.final_distribution[base.trap_target], run.final_cum_P)
        assert sum(cell.n_failures for cell in table) > 0

    def test_numpy_integer_seeds_give_the_int_streams(self):
        plain = fig3cd_config(n_atoms=30, stream=5)
        numpy_ints = build_run_config(
            scheme="superposition", trap_target=21, n_atoms=30, alpha=math.sqrt(21.0),
            spread_mult=2.0, master_seed=np.int64(7), stream_id=np.int64(5),
        )
        assert (numpy_ints.master_seed, numpy_ints.stream_id) == (7, 5)
        assert (type(numpy_ints.master_seed), type(numpy_ints.stream_id)) == (int, int)
        assert _fingerprint(run_sequence(numpy_ints)) == _fingerprint(run_sequence(plain))
        assert sweep(numpy_ints, [0.1, 2.0], ensemble=2) == sweep(plain, [0.1, 2.0], ensemble=2)

    @pytest.mark.parametrize("keyword, token", [("master_seed", "seed"), ("stream_id", "stream")])
    def test_non_integer_seed_named(self, keyword, token):
        with pytest.raises(ConfigError, match=f"^{token}: must be an integer, got 1.5$"):
            build_run_config(scheme="elastic", trap_target=20, n_atoms=3, alpha=3.0,
                             **{keyword: 1.5})
        # A replace() that bypasses the builder is caught where it is made.
        with pytest.raises(ConfigError, match=rf"^{token}: must be a Python int, got "):
            replace(fig3cd_config(n_atoms=3), **{keyword: np.int64(3)})


class TestDrawAccounting:
    """One experiment.sample_timing call per atom a cell runs: the benchmark
    counts atom transits from these calls."""

    @pytest.fixture
    def draws(self, monkeypatch):
        calls = []
        original = experiment.sample_timing

        def counted(model, rng):
            calls.append(model)
            return original(model, rng)

        monkeypatch.setattr(experiment, "sample_timing", counted)
        return calls

    @pytest.mark.parametrize(
        "scheme, mode", [("nsm", "postselect"), ("elastic", "postselect"),
                         ("superposition", "postselect"), ("superposition", "sample")],
    )
    def test_complete_run_draws_each_atom_once(self, draws, scheme, mode):
        trap, initial, n_max = REFERENCE_SCENARIOS[scheme]
        config = build_run_config(
            scheme=scheme, trap_target=trap, n_atoms=150, **initial, n_max=n_max,
            spread_mult=0.5, mode=mode, halt_on_failure=False,
        )
        assert run_sequence(config).terminated_early is None
        assert len(draws) == 150

    def test_complete_sweep_draws_each_atom_once_per_cell(self, draws):
        base = build_run_config(
            scheme="elastic", trap_target=20, n_atoms=150, alpha=3.0, master_seed=5
        )
        table = sweep(base, [0.1, 0.5], ensemble=3)
        assert all(cell.error is None for cell in table)
        assert len(draws) == 150 * 6

    def test_halting_estimate_draws_only_the_atoms_run(self, draws):
        config = build_run_config(
            scheme="elastic", trap_target=5, n_atoms=5, fock_n=0, tau_bar=math.pi / 3.0,
            spread_frac=0.1, n_max=30, mode="sample", master_seed=808,
        )
        sampled_success_estimate(config, 300)
        counted = len(draws)
        ran = sum(
            len(run_sequence(replace(config, master_seed=808, stream_id=t)).steps)
            for t in range(300)
        )
        # Most trajectories halt after their first atom or two.
        assert counted == ran < 2 * 300


class TestSampledMode:
    def test_single_step_binomial_oracle(self):
        # theta_0 = pi/3 from vacuum: success probability cos^2(pi/3) = 1/4.
        cfg = build_run_config(
            scheme="elastic",
            trap_target=5,
            n_atoms=1,
            fock_n=0,
            tau_bar=math.pi / 3.0,
            mode="sample",
            n_max=30,
        )
        trials = 100_000
        fraction = sampled_success_estimate(cfg, trials)
        p = math.cos(math.pi / 3.0) ** 2
        sigma = math.sqrt(p * (1.0 - p) / trials)
        assert abs(fraction - p) < 4.0 * sigma

    def test_zero_atoms_always_succeeds(self):
        cfg = build_run_config(
            scheme="elastic", trap_target=5, n_atoms=0, fock_n=0, mode="sample", n_max=30
        )
        assert sampled_success_estimate(cfg, 10) == 1.0

    def test_estimate_builds_one_timing_model(self, monkeypatch):
        # config.timing builds a TimingModel at each read: the trajectories
        # share the one that the estimate reads.
        cfg = fig3cd_config(n_atoms=2, mode="sample")
        built = []
        check = TimingModel.__post_init__
        monkeypatch.setattr(TimingModel, "__post_init__", lambda model: built.append(check(model)))
        sampled_success_estimate(cfg, 300)
        assert len(built) <= 1

    def test_failure_halts_and_applies_orthogonal_branch(self):
        # theta_0 = pi/2 makes elastic success essentially impossible; the
        # inelastic branch leaves one photon behind.
        cfg = build_run_config(
            scheme="elastic",
            trap_target=5,
            n_atoms=4,
            fock_n=0,
            tau_bar=math.pi / 2.0,
            mode="sample",
            n_max=30,
        )
        result = run_sequence(cfg)
        assert result.n_failures == 1
        assert result.terminated_early == "sampled orthogonal outcome at atom 1"
        assert len(result.steps) == 1
        assert result.steps[0].outcome == "sampled_failure"
        assert abs(result.final_distribution[1] - 1.0) < 1e-12

    def test_continue_after_failure(self):
        cfg = build_run_config(
            scheme="elastic",
            trap_target=5,
            n_atoms=6,
            fock_n=0,
            tau_bar=math.pi / 2.0,
            mode="sample",
            n_max=30,
            halt_on_failure=False,
        )
        result = run_sequence(cfg)
        assert len(result.steps) == 6
        assert result.n_failures >= 1
        assert result.terminated_early is None

    def test_estimator_requires_sample_mode(self):
        cfg = build_run_config(scheme="elastic", trap_target=5, n_atoms=1, fock_n=0, n_max=30)
        with pytest.raises(ConfigError):
            sampled_success_estimate(cfg, 10)

    def test_estimator_requires_a_trajectory(self):
        cfg = build_run_config(
            scheme="elastic", trap_target=5, n_atoms=1, fock_n=0, n_max=30, mode="sample"
        )
        with pytest.raises(ConfigError, match=r"^trajectories: must be >= 1, got 0$"):
            sampled_success_estimate(cfg, 0)

    def test_gaussian_halting_estimate_keeps_its_fraction(self):
        # The gaussian law draws through numpy's Generators, not lanes: 1242
        # of 2000 halting trajectories succeed, as before lanes were added.
        cfg = build_run_config(
            scheme="elastic", trap_target=5, n_atoms=5, fock_n=0, tau_bar=0.3, spread_frac=0.5,
            law="gaussian", n_max=30, mode="sample", master_seed=808,
        )
        assert sampled_success_estimate(cfg, 2000) == 1242 / 2000

    def test_estimator_raises_the_first_trajectory_error(self):
        # Every trajectory leaks out of the 42-level basis, each at its own
        # P(n_max) sin^2 theta_nmax: the estimate raises trajectory 0's error.
        cfg = build_run_config(
            scheme="elastic", trap_target=20, n_atoms=300, alpha=3.0, n_max=41, spread_mult=1.0,
            mode="sample", halt_on_failure=False,
        )
        with pytest.raises(LeakageError) as first:
            run_sequence(cfg)
        with pytest.raises(LeakageError) as second:
            run_sequence(replace(cfg, master_seed=0, stream_id=1))
        with pytest.raises(LeakageError) as raised:
            sampled_success_estimate(cfg, 5)
        assert str(raised.value) == str(first.value) != str(second.value)

    def test_estimator_raises_the_first_error_of_a_mixed_batch(self):
        # In one batch of 12, trajectories 0-3 run through, 4 and 10 leak out
        # of the 51-level basis at their own P(n_max) sin^2 theta_nmax.
        cfg = build_run_config(
            scheme="elastic", trap_target=20, n_atoms=40, alpha=3.0, n_max=50, spread_mult=1.0,
            mode="sample", halt_on_failure=False,
        )
        errors = {}
        for t in range(12):
            try:
                run_sequence(replace(cfg, master_seed=0, stream_id=t))
            except LeakageError as exc:
                errors[t] = str(exc)
        assert list(errors) == [4, 10] and errors[4] != errors[10]
        with pytest.raises(LeakageError) as raised:
            sampled_success_estimate(cfg, 12)
        assert str(raised.value) == errors[4]

    @pytest.mark.parametrize("halt", [True, False], ids=["halting", "continuing"])
    @pytest.mark.parametrize("spread_frac", [0.0, 0.6], ids=["fixed", "fluctuating"])
    def test_estimate_equals_the_fraction_of_full_results(self, halt, spread_frac):
        # From the vacuum at tau_bar = pi/6, about a quarter of the
        # trajectories select all five outcomes.
        cfg = build_run_config(
            scheme="elastic", trap_target=5, n_atoms=5, fock_n=0, tau_bar=math.pi / 6.0,
            spread_frac=spread_frac, n_max=30, mode="sample", master_seed=41,
            halt_on_failure=halt,
        )
        results = [run_sequence(replace(cfg, master_seed=41, stream_id=t)) for t in range(300)]
        successes = sum(r.n_failures == 0 and r.terminated_early is None for r in results)
        assert 0 < successes < 300
        assert sampled_success_estimate(cfg, 300) == successes / 300

    def test_estimate_builds_one_field_state_per_batch(self, monkeypatch):
        # Only each batch's initial field is a FieldState: 2200 trajectories
        # of 31 levels run in three batches, and fig2a's 40 sweep cells in one.
        built = []
        original = FieldState.__post_init__

        def counted(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(FieldState, "__post_init__", counted)
        cfg = build_run_config(
            scheme="elastic", trap_target=5, n_atoms=5, fock_n=0, tau_bar=math.pi / 3.0,
            n_max=30, mode="sample", halt_on_failure=False,
        )
        sampled_success_estimate(cfg, 2200)
        assert len(built) == 3
        built.clear()
        cells = sweep(replace(cli.preset("fig2a").run, n_atoms=200), [0.1, 1.0], ensemble=20)
        assert len(cells) == 40 and len(built) == 1

    def test_zero_success_probability_booked(self):
        # |5> is the trap: no atom can emit, so each selected outcome has
        # P_k = 0, fails and keeps the field in |5>.
        cfg = build_run_config(
            scheme="inelastic", trap_target=5, n_atoms=4, fock_n=5, mode="sample",
            halt_on_failure=False,
        )
        result = run_sequence(cfg)
        assert [(s.P_k, s.cum_P, s.outcome) for s in result.steps] == [
            (0.0, 0.0, "sampled_failure")
        ] * 4
        assert (result.n_failures, result.final_cum_P, result.terminated_early) == (4, 0.0, None)
        assert result.final_distribution[5] == 1.0

    def test_matches_postselected_product_for_fixed_times(self):
        post = build_run_config(
            scheme="elastic",
            trap_target=5,
            n_atoms=5,
            fock_n=0,
            tau_bar=math.pi / 3.0,
            n_max=30,
        )
        cum = run_sequence(post).final_cum_P
        sampled = replace(post, mode="sample")
        trials = 20_000
        fraction = sampled_success_estimate(sampled, trials)
        sigma = math.sqrt(cum * (1.0 - cum) / trials)
        assert abs(fraction - cum) < 4.0 * sigma


class TestSweep:
    def base(self, n_atoms=150):
        return build_run_config(
            scheme="elastic", trap_target=20, n_atoms=n_atoms, alpha=3.0, master_seed=5
        )

    def test_zero_multiplier_reproduces_fixed_run(self):
        # Every cell of a sweep batch equals run_sequence on its own config
        # bit for bit, whatever the other cells do: leak, stop early or fail
        # validation.
        sqrt21 = math.sqrt(21.0)
        cases = [
            (self.base(), [0.0, 0.1, 1.0], 3),
            (build_run_config(scheme="inelastic", trap_target=10, n_atoms=150, alpha=2.0,
                              master_seed=3), [0.0, 0.3], 3),
            (build_run_config(scheme="nsm", trap_target=20, n_atoms=400, alpha=4.0, n_max=41,
                              master_seed=3), [0.0, 0.5, 1.0], 3),
            (build_run_config(scheme="superposition", trap_target=21, n_atoms=150, alpha=sqrt21,
                              master_seed=3), [0.0, 2.0], 3),
            (build_run_config(scheme="superposition", trap_target=21, n_atoms=60, alpha=sqrt21,
                              mode="sample", halt_on_failure=False, master_seed=3), [0.1, 2.0], 3),
            # Multiplier 3 leaks out of n_max = 41; multiplier 5 is an invalid spread.
            (build_run_config(scheme="elastic", trap_target=20, n_atoms=300, alpha=3.0, n_max=41,
                              master_seed=3), [0.0, 3.0, 5.0], 3),
            # Multiplier 1e300 gives gaussian times whose Rabi phases floats
            # cannot resolve: the cell's config refuses it.
            (build_run_config(scheme="elastic", trap_target=20, n_atoms=3, alpha=3.0,
                              law="gaussian", master_seed=3), [0.0, 1e300], 1),
            # theta_0 = pi/2 from the vacuum: impossible post-selection at atom 1.
            # 80 cells span more than one batch.
            (build_run_config(scheme="elastic", trap_target=5, n_atoms=4, fock_n=0,
                              tau_bar=math.pi / 2.0, n_max=30, master_seed=3), [0.0, 0.5], 40),
        ]
        seen = set()
        for base, multipliers, ensemble in cases:
            table = sweep(base, multipliers, ensemble=ensemble)
            spread = critical_spread(base.trap_target)
            for cell in table:
                try:
                    config = replace(base, spread=cell.multiplier * spread, stream_id=cell.cell)
                    direct = run_sequence(config)
                except (SimulationError, ConfigError) as exc:
                    seen.add(type(exc).__name__)
                    assert cell.error == str(exc)
                    assert math.isnan(cell.final_p_trap) and not cell.converged
                    continue
                seen.add(direct.terminated_early or "ran")
                assert cell.error == direct.terminated_early
                if direct.terminated_early:  # a failed cell, as one that raised
                    assert math.isnan(cell.final_p_trap) and math.isnan(cell.cum_P)
                    assert not cell.converged
                    continue
                assert cell.final_p_trap == direct.final_distribution[base.trap_target]
                assert cell.cum_P == direct.final_cum_P
        assert seen == {"ran", "impossible post-selection", "LeakageError", "ConfigError"}

    def test_halted_sampled_cell_is_a_failed_cell(self):
        # A halting sampled cell stops at its first orthogonal outcome: its
        # row is a failed cell's, with the reason run_sequence gives.  Seed
        # 22 runs one of fig2a's five sampled cells to its end.
        base = build_run_config(scheme="elastic", trap_target=20, n_atoms=200, alpha=3.0,
                                spread_mult=0.1, mode="sample", master_seed=22)
        table = sweep(base, [0.1], ensemble=5)
        for cell in table:
            direct = run_sequence(replace(base, stream_id=cell.cell))
            assert cell.error == direct.terminated_early
            assert math.isnan(cell.cum_P) == (cell.error is not None)
        assert any(c.error is None for c in table)
        assert any(c.error and c.error.startswith("sampled orthogonal outcome at atom ")
                   for c in table)

    def test_deterministic_given_master_seed(self, tmp_path):
        table_a = sweep(self.base(), [0.1, 1.0], ensemble=3)
        table_b = sweep(self.base(), [0.1, 1.0], ensemble=3)
        assert table_a == table_b
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(a, table_a)
        write_sweep_csv(b, table_b)
        assert a.read_bytes() == b.read_bytes()

    def test_cell_errors_recorded_not_fatal(self):
        # Multiplier 4 pushes the uniform spread to 2*tau_bar: invalid model.
        table = sweep(self.base(n_atoms=20), [0.0, 4.0], ensemble=2)
        good = [c for c in table if c.multiplier == 0.0]
        bad = [c for c in table if c.multiplier == 4.0]
        assert all(c.error is None for c in good)
        assert all(c.error is not None and not c.converged for c in bad)
        assert all(math.isnan(c.final_p_trap) and math.isnan(c.cum_P) for c in bad)

    def test_invalid_base_raises(self):
        # Only a cell's own spread is recorded in the cell; a bad base fails the sweep.
        with pytest.raises(ConfigError, match="^q: "):
            sweep(replace(self.base(), q=0), [0.1], ensemble=2)

    def test_non_finite_multiplier_recorded_in_its_cell(self):
        table = sweep(self.base(n_atoms=5), [0.1, math.nan, -math.inf], ensemble=1)
        assert [cell.error for cell in table] == [
            None,
            "spread_in_inv_g: must be finite, got nan",
            "spread_in_inv_g: must be finite, got -inf",
        ]

    @pytest.mark.parametrize("multiplier", ["0.1", None], ids=["text", "none"])
    def test_non_number_multiplier_rejected_before_any_cell(self, monkeypatch, multiplier):
        # A multiplier that is no number fails the sweep, named, before a cell
        # runs; a nan or negative one stays an error of its own cell.
        table = sweep(self.base(n_atoms=5), [-0.1], ensemble=1)
        assert table[0].error.startswith("spread_in_inv_g: ")
        batches = []
        monkeypatch.setattr(experiment, "_run_batches", lambda *args: batches.append(args))
        with pytest.raises(ConfigError, match="^spread_mults: must be a real number, got "):
            sweep(self.base(), [0.1, multiplier], ensemble=2)
        assert batches == []

    def test_cells_numbered_and_marked_converged(self):
        cells = sweep(self.base(), [0.1], ensemble=4)
        assert [c.converged for c in cells] == [c.final_p_trap > CONVERGENCE_P for c in cells]
        assert [c.cell for c in cells] == [0, 1, 2, 3]

    def test_ensemble_lower_bound(self):
        with pytest.raises(ConfigError):
            sweep(self.base(), [0.1], ensemble=0)

    def test_spread_contrast_across_critical_value(self):
        # Small spreads keep the elastic scheme convergent; the critical
        # spread destroys it.
        table = sweep(self.base(n_atoms=2000), [0.1, 1.0], ensemble=5)
        small, large = ([c.converged for c in table if c.multiplier == mult]
                        for mult in (0.1, 1.0))
        assert len(small) == len(large) == 5
        assert sum(small) / len(small) >= 0.8
        assert sum(large) / len(large) <= 0.2


# The basis-cut gaps of each run preset at its n_max against n_max + 20, as
# (final P(n), cum_P relative, per-step mean_n, per-step delta_n), each about
# 10x the gap measured on the reference machine; 0 where the gap is exactly 0.
# Only fig1b's NSM field climbs past its cut: 7.2e-49 of population, at most
# 8.8e-50 a level, sits above n = 650 in the wider basis.
BASIS_CUT_BOUNDS = {
    "fig1a": (0.0, 0.0, 0.0, 0.0),
    "fig1b": (1e-48, 0.0, 0.0, 0.0),
    "fig2a": (0.0, 0.0, 2e-14, 1.3e-13),
    "fig2b": (0.0, 0.0, 4e-14, 3e-13),
    "fig3ab": (4e-18, 3e-11, 4e-10, 2e-9),
    "fig3cd": (7e-19, 3e-11, 9e-10, 4e-9),
    "fig4": (7e-19, 3e-11, 9e-10, 4e-9),
}


class TestBasisCut:
    @pytest.mark.parametrize("name", sorted(BASIS_CUT_BOUNDS))
    def test_preset_outputs_do_not_see_the_cut(self, name):
        # Each run preset at full length: widening the basis by 20 levels
        # moves no output by more than its stated bound.
        gaps = basis_cut_gaps(cli.preset(name).run)
        assert all(gap <= bound for gap, bound in zip(gaps, BASIS_CUT_BOUNDS[name])), gaps


class TestStepRecord:
    def test_immutable_record_of_named_fields(self):
        step = run_sequence(build_run_config(scheme="elastic", trap_target=20, n_atoms=2,
                                             alpha=3.0)).steps[1]
        assert type(step) is experiment.StepRecord is jctrap.StepRecord
        fields = ("k", "tau_k", "T_k", "P_k", "cum_P", "mean_n", "delta_n", "outcome", "p_trap",
                  "p_above_trap")
        assert jctrap.StepRecord._fields == fields
        assert tuple(step) == tuple(getattr(step, name) for name in fields)
        assert (step.k, step.outcome) == (2, "postselected")
        for name in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(step, name, 0)


class TestCsvWriters:
    def test_trajectory_csv(self, tmp_path):
        result = run_sequence(fig3cd_config(n_atoms=20))
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(path, result)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,tau_k,T_k,P_k,cum_P,mean_n,delta_n,outcome"
        assert len(lines) == 21
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == result.steps[0].tau_k
        assert first[-1] == "postselected"
