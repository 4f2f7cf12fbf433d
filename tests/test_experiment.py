"""Atom-sequence driver: modes, bookkeeping, sweeps, sampled estimates."""
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from jctrap import experiment
from jctrap.dynamics import (
    ELASTIC_ROTATION,
    INELASTIC_ROTATION,
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
    build_run_config,
    run_sequence,
    sampled_success_estimate,
    sweep,
    write_sweep_csv,
    write_trajectory_csv,
)
from jctrap.fock import (
    FieldState,
    coherent_state,
    default_n_max,
    distribution_stats,
    fock_basis_state,
    renormalize,
)
from jctrap.stochastic import SeedSpec, derive_stream, sample_timing


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
                replace(cfg, **bad).validate()

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

    def test_validate_rechecks_replaced_config(self):
        cfg = fig3cd_config(n_atoms=1)
        for bad, message in (
            ({"trap_target": -1}, "trap: must be >= 0"),
            ({"q": 0}, "q: must be >= 1"),
            ({"phi_f": math.nan}, "phi_f_rad: must be finite, got nan"),
            ({"alpha": complex(math.nan)}, "alpha: must be finite, got nan"),
        ):
            with pytest.raises(ConfigError, match=message):
                run_sequence(replace(cfg, **bad))
        # A TimingModel refuses the value before any run can read it.
        elastic = build_run_config(scheme="elastic", trap_target=20, n_atoms=1, alpha=3.0)
        with pytest.raises(ConfigError, match="ramsey_ratio: must be finite, got nan"):
            run_sequence(replace(elastic, timing=replace(elastic.timing, ramsey_ratio=math.nan)))

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
        result = run_sequence(cfg, collect_steps=False)
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
    rng = derive_stream(config.seed)
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
    if config.scheme == "nsm":
        assert np.array_equal(result.final_state, field)
    else:
        assert np.array_equal(result.final_state.amplitudes, field.amplitudes)
        assert np.array_equal(result.final_distribution, field.probabilities())
    assert len(result.steps) == len(steps)
    outcome = {None: "postselected", True: "sampled_success", False: "sampled_failure"}
    for step, (tau, p_k, success, dist) in zip(result.steps, steps):
        moments = distribution_stats(dist)
        assert (step.tau_k, step.P_k, step.outcome) == (tau, p_k, outcome[success])
        assert (step.mean_n, step.delta_n) == (moments.mean_n, moments.delta_n)
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
    def test_many_atoms_equal_reference_updates(self, scheme, phi_f, mode, halt):
        # 150 atoms span several blocks of timing draws in one-cell runs.
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
    def test_sweep_cells_equal_reference_across_a_leak(self, scheme, initial, mults, errors):
        # Six cells of 46 levels draw their atoms in blocks of 29.  A leaking
        # cell ends with the reference's error message, the others equal it.
        base = build_run_config(
            scheme=scheme, trap_target=20, n_atoms=300, **initial, n_max=45, master_seed=4
        )
        table = sweep(base, mults, ensemble=2)
        assert [c.error is not None for c in table.cells] == errors
        spread = critical_spread(base.trap_target)
        for cell in table.cells:
            config = replace(
                base,
                timing=replace(base.timing, spread=cell.multiplier * spread),
                seed=SeedSpec(base.seed.master_seed, cell.cell),
            )
            if cell.error is not None:
                with pytest.raises(LeakageError) as exc:
                    _reference_run(config)
                assert cell.error == str(exc.value)
                continue
            field, steps = _reference_run(config)
            assert len(steps) == 300
            dist = field if scheme == "nsm" else field.probabilities()
            assert cell.final_p_trap == dist[base.trap_target]


def _fingerprint(result):
    """Everything a RunResult holds, comparable with ==."""
    state = result.final_state
    amplitudes = state if isinstance(state, np.ndarray) else state.amplitudes
    return (
        result.steps, amplitudes.tobytes(), result.final_distribution.tobytes(),
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
            monkeypatch, lambda: repr(sweep(base, [0.1, 2.5, 0.5], ensemble=2).cells)
        )
        assert outcomes == outcomes[:1] * 9
        assert "population would leave truncation" in outcomes[0]

    @pytest.mark.parametrize("halt", [False, True], ids=["continuing", "halting"])
    def test_sampled_estimate(self, monkeypatch, halt):
        config = replace(fig3cd_config(n_atoms=100, mode="sample"), halt_on_failure=halt)
        outcomes = self.each_block_size(monkeypatch, lambda: sampled_success_estimate(config, 30))
        assert outcomes == outcomes[:1] * 9

    def test_batches_sized_by_entries(self, monkeypatch):
        # A batch holds 64 cells, or as many as fill a one-atom block where
        # more fit: 264 at 31 levels, 64 from 127 levels on.
        assert [experiment._batch_cells(n_max) for n_max in (30, 125, 126, 650)] == [
            264, 65, 64, 64
        ]
        sizes = []
        original = experiment._run_cells

        def recorded(config, cells, collect):
            sizes.append(len(cells))
            return original(config, cells, collect)

        monkeypatch.setattr(experiment, "_run_cells", recorded)
        config = build_run_config(
            scheme="elastic", trap_target=5, n_atoms=5, fock_n=0, tau_bar=math.pi / 3.0,
            n_max=30, mode="sample",
        )
        sampled_success_estimate(config, 600)
        assert sizes == [264, 264, 72]

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

    def test_top_level_guard_trips_inside_a_block(self, monkeypatch):
        # 36 levels give one-cell blocks of 227 atoms; each selected atom
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
        "scheme, mode, factor, level, message",
        [
            ("nsm", "postselect", 0, 3, "SimulationError: state norm drifted to nan at atom 5"),
            # The NaN norm divides the row: numpy warns of it, and the guard ends the cell.
            pytest.param(
                "elastic", "postselect", 0, 3,
                "OrthogonalOutcomeError: cannot renormalize state with squared norm nan",
                marks=pytest.mark.filterwarnings(
                    "ignore:invalid value encountered in divide:RuntimeWarning"
                ),
            ),
            # A NaN selected norm fails the draw and the orthogonal row is finite:
            # the NaN P_k alone ends the cell, before the atom is booked.
            ("elastic", "sample", 0, 3,
             "SimulationError: selected outcome's squared norm is nan at atom 5"),
            # The top level's sin only enters the leak guard: the field stays finite.
            ("elastic", "postselect", 1, -1,
             "LeakageError: population would leave truncation: P(n_max) sin^2 theta_nmax = nan"),
            ("nsm", "postselect", 1, -1,
             "LeakageError: population would leave truncation: P(n_max) sin^2 theta_nmax = nan"),
        ],
        ids=["nsm-cos", "elastic-cos", "elastic-cos-sampled", "elastic-top-sin", "nsm-top-sin"],
    )
    def test_nan_factor_ends_the_cell(self, monkeypatch, scheme, mode, factor, level, message):
        # A NaN cos (factor 0) or sin (1) at atom 5 of one cell, at every
        # block and batch size.  The block's test must see it wherever it
        # sits among the block's guard inputs, although a NaN passes every
        # `x > limit`.  The cell is that of stream `poisoned_stream`, the
        # last cell of its batch at every batch size.
        original_derive, original_rabi = experiment.derive_streams, experiment.rabi_cos_sin
        poisoned_stream = [0]
        drawn = [None]  # atoms whose factors the poisoned cell's batch has taken

        def derive_streams(seeds):
            drawn[0] = 0 if seeds[-1].stream_id == poisoned_stream[0] else None
            return original_derive(seeds)

        def poisoned(taus, n_max):
            factors = original_rabi(taus, n_max)
            if drawn[0] is not None:
                if 0 <= 4 - drawn[0] < len(taus):
                    factors[factor][4 - drawn[0], -1, level] = math.nan
                drawn[0] += len(taus)
            return factors

        monkeypatch.setattr(experiment, "derive_streams", derive_streams)
        monkeypatch.setattr(experiment, "rabi_cos_sin", poisoned)
        trap, initial, n_max = REFERENCE_SCENARIOS[scheme]
        base = build_run_config(
            scheme=scheme, trap_target=trap, n_atoms=10, **initial, n_max=n_max, master_seed=3,
            mode=mode, halt_on_failure=False,
        )
        assert self.each_block_size(monkeypatch, lambda: run_sequence(base)) == [message] * 9
        poisoned_stream[0] = 2
        errors = self.each_block_size(
            monkeypatch, lambda: [cell.error for cell in sweep(base, [0.1], ensemble=3).cells]
        )
        assert errors == [[None, None, message.partition(": ")[2]]] * 9


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
        assert all(cell.error is None for cell in table.cells)
        assert len(draws) == 150 * 6

    def test_halting_estimate_draws_only_the_atoms_run(self, draws):
        config = build_run_config(
            scheme="elastic", trap_target=5, n_atoms=5, fock_n=0, tau_bar=math.pi / 3.0,
            spread_frac=0.1, n_max=30, mode="sample", master_seed=808,
        )
        sampled_success_estimate(config, 300)
        counted = len(draws)
        ran = sum(
            len(run_sequence(replace(config, seed=SeedSpec(808, t))).steps) for t in range(300)
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
            run_sequence(replace(cfg, seed=SeedSpec(0, 1)))
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
                run_sequence(replace(cfg, seed=SeedSpec(0, t)), collect_steps=False)
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
        results = [run_sequence(replace(cfg, seed=SeedSpec(41, t))) for t in range(300)]
        successes = sum(r.n_failures == 0 and r.terminated_early is None for r in results)
        assert 0 < successes < 300
        assert sampled_success_estimate(cfg, 300) == successes / 300

    def test_estimate_builds_one_field_state_per_batch(self, monkeypatch):
        # Only each batch's initial field is a FieldState: 600 trajectories
        # of 31 levels run in three batches.
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
        sampled_success_estimate(cfg, 600)
        assert len(built) == 3

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
            # theta_0 = pi/2 from the vacuum: impossible post-selection at atom 1.
            # 80 cells span more than one batch.
            (build_run_config(scheme="elastic", trap_target=5, n_atoms=4, fock_n=0,
                              tau_bar=math.pi / 2.0, n_max=30, master_seed=3), [0.0, 0.5], 40),
        ]
        seen = set()
        for base, multipliers, ensemble in cases:
            table = sweep(base, multipliers, ensemble=ensemble)
            spread = critical_spread(base.trap_target)
            for cell in table.cells:
                try:
                    config = replace(
                        base,
                        timing=replace(base.timing, spread=cell.multiplier * spread),
                        seed=SeedSpec(base.seed.master_seed, cell.cell),
                    )
                    direct = run_sequence(config, collect_steps=False)
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
        for cell in table.cells:
            seed = SeedSpec(base.seed.master_seed, cell.cell)
            direct = run_sequence(replace(base, seed=seed), collect_steps=False)
            assert cell.error == direct.terminated_early
            assert math.isnan(cell.cum_P) == (cell.error is not None)
        assert any(c.error is None for c in table.cells)
        assert any(c.error and c.error.startswith("sampled orthogonal outcome at atom ")
                   for c in table.cells)

    def test_deterministic_given_master_seed(self, tmp_path):
        table_a = sweep(self.base(), [0.1, 1.0], ensemble=3)
        table_b = sweep(self.base(), [0.1, 1.0], ensemble=3)
        assert table_a.cells == table_b.cells
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(a, table_a)
        write_sweep_csv(b, table_b)
        assert a.read_bytes() == b.read_bytes()

    def test_cell_errors_recorded_not_fatal(self):
        # Multiplier 4 pushes the uniform spread to 2*tau_bar: invalid model.
        table = sweep(self.base(n_atoms=20), [0.0, 4.0], ensemble=2)
        good = [c for c in table.cells if c.multiplier == 0.0]
        bad = [c for c in table.cells if c.multiplier == 4.0]
        assert all(c.error is None for c in good)
        assert all(c.error is not None and not c.converged for c in bad)
        assert all(math.isnan(c.final_p_trap) and math.isnan(c.cum_P) for c in bad)

    def test_invalid_base_raises(self):
        # Only a cell's own spread is recorded in the cell; a bad base fails the sweep.
        with pytest.raises(ConfigError, match="^q: "):
            sweep(replace(self.base(), q=0), [0.1], ensemble=2)

    def test_non_finite_multiplier_recorded_in_its_cell(self):
        table = sweep(self.base(n_atoms=5), [0.1, math.nan, -math.inf], ensemble=1)
        assert [cell.error for cell in table.cells] == [
            None,
            "spread_in_inv_g: must be finite, got nan",
            "spread_in_inv_g: must be finite, got -inf",
        ]

    def test_cells_numbered_and_marked_converged(self):
        cells = sweep(self.base(), [0.1], ensemble=4).cells
        assert [c.converged for c in cells] == [c.final_p_trap > CONVERGENCE_P for c in cells]
        assert [c.cell for c in cells] == [0, 1, 2, 3]

    def test_ensemble_lower_bound(self):
        with pytest.raises(ConfigError):
            sweep(self.base(), [0.1], ensemble=0)

    def test_spread_contrast_across_critical_value(self):
        # Small spreads keep the elastic scheme convergent; the critical
        # spread destroys it.
        table = sweep(self.base(n_atoms=2000), [0.1, 1.0], ensemble=5)
        small, large = ([c.converged for c in table.cells if c.multiplier == mult]
                        for mult in (0.1, 1.0))
        assert len(small) == len(large) == 5
        assert sum(small) / len(small) >= 0.8
        assert sum(large) / len(large) <= 0.2


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
