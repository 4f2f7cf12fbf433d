"""Drives whole atom sequences through a measurement scheme.

Each atom draws an interaction time, entangles with the field and is
measured according to the configured scheme.  Mode `postselect` conditions
on the desired outcome at every step and books its probability; mode
`sample` draws outcomes and marks the trajectory failed on the first
orthogonal one.  Per-step statistics, the cumulative success probability
and the final photon-number distribution are collected; `sweep` scans
spread multiples over seeded ensembles.  Every run goes through one
update kernel that advances a window of independent cells per block of
atoms in three stages (draw, advance, book): `run_sequence` is its one-cell
case, while the cells of a sweep and the trajectories of
`sampled_success_estimate` advance together, a waiting cell taking the
place of each one that ends.
"""
from __future__ import annotations

import cmath
import itertools
import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .dynamics import (
    LEAK_P_TOL,
    SCHEME_KINDS,
    TRAP_SNAP_TOL,
    correlated_cm_factors,
    critical_spread,
    rabi_cos_sin,
    stationary_phase_ratio,
    trapping_time,
)
from .errors import ConfigError, LeakageError, OrthogonalOutcomeError, SimulationError
from .fock import (
    NORM_ATOL,
    ORTHOGONAL_NORM_SQ,
    coherent_state,
    default_n_max,
    fock_basis_state,
    top_level_probability,
)
from .stochastic import (
    StreamLanes,
    TimingModel,
    check_seeds,
    derive_streams,
    int_token,
    number_token,
    sample_timing,
    stream_id_range,
)

# The one-state updates and statistics that _advance and _book reproduce row
# by row, and the one-stream form of derive_streams.  They stay importable here,
# where the benchmark's tracer wraps them (perfbench/tracer.py).
from .dynamics import cm_project, jcm_entangle, nsm_step, project_amplitudes  # noqa: F401
from .fock import distribution_stats, renormalize  # noqa: F401
from .stochastic import derive_stream  # noqa: F401

RUN_MODES = ("postselect", "sample")

# A run aborts when the top 3 Fock levels hold more probability than this.
TOP_LEVEL_GUARD = 1e-8

# A trap level counts as converged when it holds more than this probability.
CONVERGENCE_P = 0.9

# A block of atoms, whose times the running cells draw at once, has as many
# atoms as fit in this many factors (atoms x cells x levels), and never fewer
# than one.  A float64 factor array is then 256 KiB, so a block's few such
# arrays stay in a 2 MiB L2 cache.  A halting sampled run draws one atom at a
# time: a cell may stop at any atom.  _batch_cells sizes the window of
# running cells by the same bound, so one atom of a full window fits in a block.
_BLOCK_ENTRIES = 32768

# A refill of a uniform-law window's lanes draws ahead to at least this many
# values in all, spread over the lanes it refills: each call has a fixed
# cost of tens of microseconds, so a window of few cells refills rarely.
_DRAW_AHEAD = 1024

OUTCOME_POSTSELECTED = "postselected"
OUTCOME_SUCCESS = "sampled_success"
OUTCOME_FAILURE = "sampled_failure"


def _check_derivation_inputs(trap_target: int, q: int) -> None:
    """The values the trapping time, critical spread and Ramsey ratio derive from."""
    if trap_target < 0:
        raise ConfigError(f"trap: must be >= 0, got {trap_target}")
    if q < 1:
        raise ConfigError(f"q: must be >= 1 in a run config, got {q}")


@dataclass(frozen=True)
class RunConfig:
    """Full description of one atom-sequence run; build_run_config makes one.

    scheme is one of SCHEME_KINDS and phi_f the final phase a superposition
    scheme post-selects.  The initial field is the coherent |alpha> or the
    Fock |fock>: exactly one of the two is set, the other None.  tau_bar,
    spread and law set the interaction times; timing derives the rest.  A
    config checks itself when it is made (by the builder, by replace() or
    directly), so no run reads an unchecked one.
    """

    scheme: str
    phi_f: float
    n_atoms: int
    trap_target: int
    q: int
    alpha: complex | None
    fock: int | None
    tau_bar: float
    spread: float
    law: str
    n_max: int
    mode: str
    master_seed: int
    stream_id: int
    halt_on_failure: bool

    def __post_init__(self):
        """Check every field a run reads; the message names the config token."""
        if self.scheme not in SCHEME_KINDS:
            raise ConfigError(f"scheme: unknown scheme {self.scheme!r}")
        if (self.alpha is None) == (self.fock is None):
            raise ConfigError("alpha/fock: set exactly one initial field (--alpha or --fock)")
        alpha = number_token("alpha", 0j if self.alpha is None else self.alpha, complex)
        for token, value in (("alpha", alpha if alpha.imag else alpha.real),
                             ("phi_f_rad", number_token("phi_f_rad", self.phi_f))):
            if not cmath.isfinite(value):
                raise ConfigError(f"{token}: must be finite, got {value}")
        for token, value in (("trap", self.trap_target), ("q", self.q), ("atoms", self.n_atoms),
                             ("nmax", self.n_max), ("fock", 0 if self.fock is None else self.fock)):
            int_token(token, value)
        _check_derivation_inputs(self.trap_target, self.q)
        timing = self.timing  # its model checks tau_bar, spread and law
        if self.n_atoms < 0:
            raise ConfigError(f"atoms: must be >= 0, got {self.n_atoms}")
        if self.mode not in RUN_MODES:
            raise ConfigError(f"mode: must be one of {RUN_MODES}, got {self.mode!r}")
        check_seeds(self.master_seed, self.stream_id)
        if not isinstance(self.halt_on_failure, bool):
            raise ConfigError(
                f"halt_on_failure: must be True or False, got {self.halt_on_failure!r}")
        if not self.trap_target < self.n_max - 20:
            raise ConfigError(
                f"nmax: trap level {self.trap_target} needs n_max > {self.trap_target + 20}, "
                f"got {self.n_max}"
            )
        # Past this many pi, one rounding of a Rabi phase exceeds the snap tolerance.
        top = self.tau_bar + (self.spread / 2 if self.law == "uniform" else 8 * timing.rms)
        if not top * math.sqrt(self.n_max + 1) / math.pi < TRAP_SNAP_TOL * 2.0**52:
            raise ConfigError(f"tau_bar_in_inv_g: times up to {top:.6g} give Rabi phases past "
                              f"{TRAP_SNAP_TOL * 2.0**52:.6g} pi, which floats cannot resolve")
        fock = self.fock or 0
        if fock < 0:
            raise ConfigError(f"fock: must be >= 0, got {fock}")
        if fock > self.n_max:
            raise ConfigError(f"fock: initial level {fock} exceeds n_max {self.n_max}")

    @property
    def timing(self) -> TimingModel:
        """The draws' timing model, built anew on each read.

        One velocity per atom sets both times, so the scheme and the trap fix
        T_k / tau_k: 2 sqrt(n_t+1) for superposition, else 0 (no Ramsey zone).
        """
        ratio = stationary_phase_ratio(self.trap_target) if self.scheme == "superposition" else 0.0
        return TimingModel(self.tau_bar, self.spread, self.law, ratio)


class StepRecord(NamedTuple):
    """Per-atom record: timing, success probability, field statistics."""

    k: int
    tau_k: float
    T_k: float
    P_k: float
    cum_P: float
    mean_n: float
    delta_n: float
    outcome: str
    p_trap: float
    p_above_trap: float


@dataclass
class RunResult:
    """Outcome of one atom sequence."""

    steps: list[StepRecord]
    final_distribution: np.ndarray
    terminated_early: str | None = None
    n_failures: int = 0
    final_cum_P: float = 1.0


def build_run_config(
    *,
    scheme: str,
    trap_target: int,
    n_atoms: int,
    q: int = 1,
    alpha: complex | None = None,
    fock_n: int | None = None,
    spread_time: float | None = None,
    spread_frac: float | None = None,
    spread_mult: float = 0.0,
    tau_bar: float | None = None,
    law: str = "uniform",
    mode: str = "postselect",
    phi_f: float = -math.pi / 2,
    master_seed: int = 0,
    stream_id: int = 0,
    n_max: int | None = None,
    halt_on_failure: bool = True,
) -> RunConfig:
    """Assemble a RunConfig; the one place that states its defaults.

    tau_bar defaults to the q-th trapping time of the trap level and n_max
    to the truncation policy.  The spread is spread_time if given, else
    spread_frac * tau_bar, else spread_mult times the critical spread.
    Each value is checked before anything is derived from it; a bad one
    raises ConfigError naming its config token, as does a string or other
    non-number where a number goes.  The counts and levels are read as
    Python ints (numpy integers included).
    """
    trap_target, q, n_atoms = (int_token(token, value) for token, value in
                               (("trap", trap_target), ("q", q), ("atoms", n_atoms)))
    # The inputs that defaults derive from; RunConfig and TimingModel check the rest.
    tau_bar, spread_frac = (None if value is None else number_token(token, value) for token, value
                            in (("tau_bar_in_inv_g", tau_bar), ("spread_frac", spread_frac)))
    spread_mult = number_token("spread_mult", spread_mult)
    _check_derivation_inputs(trap_target, q)
    if tau_bar is None:
        tau_bar = trapping_time(trap_target, q)
    if spread_time is None and spread_frac is not None:
        spread_time = spread_frac * tau_bar
    if spread_time is None:
        spread_time = spread_mult * critical_spread(trap_target)
    return RunConfig(
        scheme=scheme,
        phi_f=phi_f,
        n_atoms=n_atoms,
        trap_target=trap_target,
        q=q,
        alpha=None if alpha is None else number_token("alpha", alpha, complex),
        fock=None if fock_n is None else int_token("fock", fock_n),
        tau_bar=tau_bar,
        spread=spread_time,
        law=law,
        n_max=default_n_max(trap_target) if n_max is None else int_token("nmax", n_max),
        mode=mode,
        master_seed=int_token("seed", master_seed),
        stream_id=int_token("stream", stream_id),
        halt_on_failure=halt_on_failure,
    )


class _LogSum:
    """Compensated running sum of log P_k (Neumaier), tolerant of P_k = 0.

    math.log, since np.log differs from it in the last place on some values.
    """

    def __init__(self):
        self.total = 0.0
        self.comp = 0.0

    def extend(self, ps: Iterable[float], values: list[float] | None = None) -> None:
        """Add each P_k in order; after each, append the running product to values."""
        total, comp = self.total, self.comp
        for p in ps:
            if p <= 0.0 or math.isinf(total):
                total, comp = -math.inf, 0.0
            else:
                x = math.log(p)
                t = total + x
                if abs(total) >= abs(x):
                    comp += (total - t) + x
                else:
                    comp += (x - t) + total
                total = t
            if values is not None:
                values.append(0.0 if math.isinf(total) else math.exp(total + comp))
        self.total, self.comp = total, comp

    @property
    def value(self) -> float:
        if math.isinf(self.total):
            return 0.0
        return math.exp(self.total + self.comp)


_SPREAD = operator.attrgetter("spread")  # of a TimingModel


class _Lanes:
    """A uniform-law window's streams, drawn ahead: the one rng that all its lanes share.

    Slot i runs one cell's stream.  Per atom it takes per_atom[i] values:
    one for tau_k unless the cell's spread is 0 and, when outcomes are
    sampled, one for u_k.  Value q of slot i's j-th atom not yet dealt is
    held[j, i, q]; every running slot holds the same atoms ahead.
    """

    def __init__(self, width: int, timed: bool, sampled: bool):
        """Lanes for width slots; timed when some cell's spread is not 0."""
        self.streams: StreamLanes | None = None
        self.sampled = sampled
        self.per_atom = np.zeros(width, dtype=int)
        self.held = np.empty((0, width, timed + sampled))
        self.random = iter(()).__next__

    def admit(self, slots: np.ndarray, streams: StreamLanes, lanes: np.ndarray,
              timed: np.ndarray) -> None:
        """Run the lanes of streams in slots and draw them as many atoms as the others hold.

        timed says which of them draw tau_k.  The window's first chunk,
        cell i in slot i, becomes its streams; a later chunk's lanes are
        copied into their slots.
        """
        if self.streams is None:
            self.streams = streams
        else:
            self.streams.state[:, slots] = streams.state[:, lanes]
            self.streams.inc[:, slots] = streams.inc[:, lanes]
        self.per_atom[slots] = timed.astype(int) + self.sampled
        self._draw(self.held, slots)

    def _draw(self, held: np.ndarray, slots: np.ndarray) -> None:
        """Fill held[:, slots] with the slots' next len(held) atoms: one lane call per value count."""
        atoms, per_atom = len(held), self.per_atom[slots]
        if not atoms:
            return
        for count in range(1, held.shape[2] + 1):
            group = slots[per_atom == count]
            if len(group):
                values = self.streams.random(group, atoms * count)
                held[:, group, :count] = values.reshape(len(group), atoms, count).transpose(1, 0, 2)

    def deal(self, lanes: np.ndarray, b: int) -> np.ndarray | None:
        """The lanes' next b atoms: random() hands out their tau_k, per atom, then per lane.

        Returns their u_k as an (atoms, lanes) array when outcomes are
        sampled, else None.  If fewer than b atoms are held, one lane call
        per value count an atom takes first draws b atoms or more for the
        lanes, to _DRAW_AHEAD values over them all.
        """
        n, width = len(lanes), self.held.shape[2]
        if not width:
            return None
        if len(self.held) < b:
            atoms = max(b, -(-_DRAW_AHEAD // (n * width)))
            self.held = np.concatenate([self.held, np.empty((atoms, *self.held.shape[1:]))])
            self._draw(self.held[-atoms:], lanes)
        held, per_atom = self.held, self.per_atom[lanes]
        self.held = held[b:]
        self.random = iter(held[:b, lanes[per_atom > self.sampled], 0].ravel().tolist()).__next__
        return held[:b, lanes, per_atom - 1] if self.sampled else None  # u_k, the last value


class _Window:
    """The cells a run keeps running, one per slot; a slot whose cell ends takes the next.

    Per slot: the cell it runs (cell), the atoms that cell has run (k) and
    its failed outcomes (failures) and, unless the run counts, its
    _LogSum (cums) and step records (steps).  Under the uniform law every
    slot draws from the window's _Lanes, under the gaussian law from its
    own Generator (rngs).  The streams of a chunk of width cells are
    derived when its first cell is admitted.  results holds each cell's
    outcome, False until the cell ends, or until the run ends for a cell
    never admitted.
    """

    def __init__(self, run: _Run, timings: list[TimingModel], ids: np.ndarray, width: int):
        self.master, self.timings, self.ids, self.admitted = run.config.master_seed, timings, ids, 0
        self.last = len(ids)  # the cells before it may be admitted
        self.results: list[RunResult | bool | SimulationError] = [False] * len(ids)
        self.cell, self.k, self.failures = (np.zeros(width, dtype=np.intp) for _ in range(3))
        keeps = not run.counting  # a counting run keeps no cums and no steps
        self.cums: list[_LogSum] | None = [None] * width if keeps else None
        self.steps: list[list[StepRecord]] | None = [None] * width if keeps else None
        self.lanes: _Lanes | None = None
        self.rngs: list[np.random.Generator] = [None] * width
        # The streams of the chunk whose first cell was admitted last.
        self.streams: StreamLanes | list[np.random.Generator] | None = None
        if run.config.law == "uniform":
            self.lanes = _Lanes(width, any(map(_SPREAD, timings)), run.sampled)

    def admit(self, slots: np.ndarray) -> None:
        """Start the next len(slots) waiting cells in slots, in cell order, each at atom 0."""
        width, first = len(self.cell), self.admitted
        self.admitted += len(slots)
        self.cell[slots], self.k[slots], self.failures[slots] = np.arange(first, self.admitted), 0, 0
        if self.cums is not None:
            for slot in slots.tolist():
                self.cums[slot], self.steps[slot] = _LogSum(), []
        for start in range(first - first % width, self.admitted, width):  # the chunks they reach
            if start >= first:  # its first cell is admitted now
                ids = self.ids[start : start + width]
                self.streams = derive_streams(self.master, ids) if self.lanes is None else (
                    StreamLanes(self.master, ids))
            low, high = max(start, first), min(start + width, self.admitted)
            into, offsets = slots[low - first : high - first], np.arange(low - start, high - start)
            if self.lanes is not None:
                spreads = np.fromiter(map(_SPREAD, self.timings[low:high]), float, high - low)
                self.lanes.admit(into, self.streams, offsets, spreads != 0.0)
            else:  # the gaussian law draws normals from numpy's Generator
                for slot, offset in zip(into.tolist(), offsets.tolist()):
                    self.rngs[slot] = self.streams[offset]


class _Run(NamedTuple):
    """A run's config and the flags its stages read, each derived once."""

    config: RunConfig
    collect_steps: bool
    counting: bool  # a cell ends as whether it succeeded, not as a RunResult
    nsm: bool
    sampled: bool  # outcomes are drawn; NSM ignores them
    halting: bool  # a sampled failure ends the cell


def _conditioned(s: np.ndarray, keep, emit, d: np.ndarray, shifted: np.ndarray) -> None:
    """Write into d the rows s after one atom's outcome factors (keep, emit), unnormalized.

    d_n = keep_n s_n + emit_{n-1} s_{n-1}; a factor that is None drops its term.
    shifted is d one value on in a flat buffer, so its last value lies past d.
    """
    if emit is None:
        np.multiply(keep, s, out=d)
        return
    # Every emit_n s_n over whole rows, written one value on: the top level's
    # lands on the next row's level 0, which the keep term (or 0) takes.
    # Rows shifted by slicing would make numpy stage them through buffers.
    np.multiply(emit, s, out=shifted)
    d[:, 0] = 0
    if keep is not None:
        d += keep * s


def _timed_outcome(timing: TimingModel, rng: np.random.Generator) -> tuple[float, float, float]:
    """A gaussian-law atom's tau_k, T_k and then u_k, from the cell's Generator."""
    return (*sample_timing(timing, rng), rng.random())


def _draw_block(run: _Run, window: _Window, lanes: np.ndarray, b: int) -> tuple:
    """The next b atoms' (times, u, edge, outcomes), none of which reads a field.

    times is (atoms, lanes, (tau_k, T_k)) and u the (atoms, lanes) outcome
    uniforms, or None when outcomes are not sampled, in a one-cell run's
    draw order; edge the top level's sin^2 theta, or None when no outcome emits.
    outcomes are the selected and, in sampled mode, the orthogonal (keep,
    emit) factors: elastic keeps level n by cos theta_n, else emits into
    n + 1 by -i sin theta_n; inelastic the reverse, keeping by -cos theta_n;
    superposition keeps by its CM success, else failure, factor; NSM's one
    outcome keeps populations by cos^2 theta_n and emits by sin^2 theta_n.
    Only the factors an outcome applies are computed.  When every atom and
    cell of the block has the same times, the factors are one row, computed
    once and broadcast to (atoms, cells, levels) without a copy.
    """
    config, nsm, sampled = run.config, run.nsm, run.sampled
    shape = (b, len(lanes), config.n_max + 1)
    # One experiment.sample_timing call per atom and cell, per atom, then per lane.
    timings = list(map(window.timings.__getitem__, window.cell[lanes].tolist())) * b
    if config.law == "uniform":  # every lane's rng is the window's _Lanes
        u = window.lanes.deal(lanes, b)
        draws = map(sample_timing, timings, itertools.repeat(window.lanes))
    else:
        u, rngs = None, list(map(window.rngs.__getitem__, lanes.tolist())) * b
        draws = map(_timed_outcome if sampled else sample_timing, timings, rngs)
    per_draw = 2 + (u is None and sampled)  # a gaussian atom's u_k follows its times
    times = np.fromiter(itertools.chain.from_iterable(draws), float, len(timings) * per_draw)
    times = times.reshape(*shape[:2], per_draw)
    if per_draw == 3:
        times, u = times[..., :2], times[..., 2]
    shared = bool((times == times[0, 0]).all())
    pair = times[:1, :1] if shared else times  # a row equals the one-time result bit for bit
    taus, ramsey, n_max = pair[..., :1], pair[..., 1:], config.n_max
    if config.scheme == "superposition":
        success, failure = correlated_cm_factors(ramsey, taus, n_max, config.phi_f, sampled)
        edge, outcomes = None, [(success, None), (failure, None)]
    else:  # a post-selected elastic run's leak guard alone reads a sine: the top level's
        elastic, inelastic = config.scheme == "elastic", config.scheme == "inelastic"
        every = nsm or sampled or inelastic
        cos_t, sin_t = rabi_cos_sin(taus, n_max, cos=nsm or sampled or elastic,
                                    first=0 if every else n_max)
        if nsm:
            sin_sq = np.square(sin_t, out=sin_t)
            edge, outcomes = sin_sq[..., -1], [(np.square(cos_t, out=cos_t), sin_sq)]
        else:
            emitted = (None, -1j * sin_t) if every else None
            outcomes = ([(cos_t, None), emitted] if elastic
                        else [emitted, (-cos_t, None) if sampled else None])
            edge = np.square(sin_t[..., -1])
    outcomes = outcomes[: 1 + sampled]
    if shared:
        edge = None if edge is None else np.broadcast_to(edge, shape[:2])
        outcomes = [tuple(None if f is None else np.broadcast_to(f, shape) for f in outcome)
                    for outcome in outcomes]
    return times, u, edge, outcomes


def _advance(run: _Run, state: np.ndarray, draw: tuple, buffer: np.ndarray) -> tuple:
    """Per atom, the field update alone: (times, edge, fields, norms, successes, failed).

    Row j + 1 of the (atoms + 1, cells, levels) fields follows atom j, equal to
    the one-state references' up to the sign of a zero amplitude.  Per (atom,
    cell): the squared norm it renormalized by, the selected outcome's (by
    np.vecdot, which sums as np.vdot does), and whether the draw failed.
    fields is a view of buffer, the _run_cells call's flat scratch array,
    which the next block overwrites: its first (atoms + 1) x state.size + 1
    values hold fields and their spare value (see _conditioned), and in
    sampled mode its last state.size + 1 values the orthogonal rows.  The
    loop walks per-atom row views, each array's made once per block.
    """
    times, u, edge, outcomes = draw
    (b, n), nsm, sampled = times.shape[:2], run.nsm, run.sampled
    shape, size = (b + 1, *state.shape), (b + 1) * state.size
    fields, shifted = buffer[:size].reshape(shape), buffer[1 : size + 1].reshape(shape)
    fields[0] = state
    norms = np.ones((b, n))  # NSM keeps these
    successes = np.empty((b, n)) if sampled else norms
    failed = np.zeros((b, n), dtype=bool)
    factors = (*outcomes[0], *(outcomes[1] if sampled else (None, None)))
    # A complex row's float64 view: its real and imaginary parts side by side.
    parts = fields.view(float) if fields.dtype == complex else fields
    rows = zip(fields[:-1], fields[1:], shifted[1:], parts[1:],
               *(itertools.repeat(None) if f is None else f for f in factors))
    if sampled:
        orth = buffer[-(state.size + 1) :]
        d_orth, shifted_orth = orth[:-1].reshape(state.shape), orth[1:].reshape(state.shape)
    for j, (s, d, emit_to, d_parts, keep, emit, keep_orth, emit_orth) in enumerate(rows):
        _conditioned(s, keep, emit, d, emit_to)
        if nsm:  # populations need no renormalization
            continue
        norm = successes[j] = np.vecdot(d, d).real
        if sampled:
            # u_k < 1, so u_k < min(norm, 1) exactly when u_k < norm.
            failed[j] = fails = ~(u[j] < norm)
            if fails.any():
                _conditioned(s, keep_orth, emit_orth, d_orth, shifted_orth)
                np.copyto(d, d_orth, where=fails[:, None])
                norm = np.where(fails, np.vecdot(d_orth, d_orth).real, norm)
            norms[j] = norm  # else norms is successes
        # A row at or below the floor ends below; the floor keeps 0/0 out.  Both
        # parts times the reciprocal is numpy's complex / real division, which
        # multiplies by 1 / x, and gives the same values up to the sign of a zero.
        d_parts *= (1.0 / np.sqrt(np.maximum(norm, ORTHOGONAL_NORM_SQ)))[:, None]
    return times, edge, fields, norms, successes, failed


def _guard(run: _Run, inputs: tuple[float, ...], atom: int) -> SimulationError | str | None:
    """What ends a cell at an atom with these (leak, P_k, norm, row sum, top-3) inputs, or None."""
    leak, p_k, norm, total, top = inputs
    if not leak <= LEAK_P_TOL:
        return LeakageError(
            f"population would leave truncation: P(n_max) sin^2 theta_nmax = {leak:.3e}")
    if not run.sampled and p_k <= ORTHOGONAL_NORM_SQ:
        return "impossible post-selection"
    if not norm > ORTHOGONAL_NORM_SQ:
        return OrthogonalOutcomeError(f"cannot renormalize state with squared norm {norm:.3e}")
    if math.isnan(p_k):  # a sampled atom may renormalize by the finite orthogonal norm
        return SimulationError(f"selected outcome's squared norm is nan at atom {atom}")
    if not abs(total - 1.0) <= NORM_ATOL:
        return SimulationError(f"state norm drifted to {total!r} at atom {atom}")
    if not top <= TOP_LEVEL_GUARD:
        return LeakageError(
            f"top-3 Fock levels hold {top:.3e} probability at atom {atom}; "
            f"truncation n_max={run.config.n_max} too small for this run"
        )
    return None


def _populations(run: _Run, fields: np.ndarray) -> np.ndarray:
    """|fields|^2, a new array; for NSM, whose fields are populations, fields itself."""
    return fields if run.nsm else np.square(rows := np.abs(fields), out=rows)


def _result(run: _Run, window: _Window, slot: int, dist_row, reason: str | None
            ) -> RunResult | bool:
    """The RunResult of the cell in slot, whose final populations are dist_row.

    A counting run builds none: whether the cell ran to its end with no
    failed outcome.
    """
    if run.counting:
        return reason is None and not window.failures[slot]
    return RunResult(window.steps[slot], dist_row, reason, int(window.failures[slot]),
                     window.cums[slot].value)


def _book(run: _Run, window: _Window, lanes: np.ndarray, block: tuple):
    """Guard and book a block: (lanes that go on, their fields).

    Reads populations only, of the rows after each atom and the top level
    before the first.  Guard inputs, step statistics and cum_P run once per
    block.  The block clears when the guard passes on its worst value of
    each input; else each cell runs the guard atom by atom in a one-cell
    run's order, books the atoms before its first trip and ends, as a
    halting cell does at a failure.  A counting run books failures alone.
    Each lane numbers its atoms on from its own count, window.k.
    """
    times, edge, fields, norms, successes, failed = block
    b, n = failed.shape
    after = _populations(run, fields[1:])  # row j: after block atom j
    total = after.sum(axis=-1)
    top = top_level_probability(after)
    # Every input is an (atoms, cells) array: superposition leaks nothing,
    # and NSM's successes and norms are all 1.  A leak reads the top level before its atom.
    leak = np.zeros((b, n)) if edge is None else edge * np.concatenate(
        [_populations(run, fields[:1, :, -1]), after[:-1, :, -1]])
    p_k = np.minimum(successes, 1.0)
    ends = {}  # per cell that ends: (atoms booked, its error or reason)
    # The guard on the block's worst value of each input; numpy's max and
    # min return a NaN if there is one, and a NaN trips the guard.  Its atom
    # number only enters a message.
    far = max(total.min(), total.max(), key=lambda t: abs(t - 1.0))
    worst = (leak.max(), p_k.min(), norms.min(), far, top.max())
    tripped = _guard(run, worst, 0) is not None
    if not tripped and run.counting and run.halting:  # one atom a block; a failed lane stays False
        keep = np.flatnonzero(~failed[0])
        return lanes[keep], fields[1].take(keep, axis=0)
    ks = window.k[lanes].tolist()
    if tripped:
        inputs = (a.ravel().tolist() for a in (leak, p_k, norms, total, top))
        for at, atom in enumerate(zip(*inputs)):
            j, i = divmod(at, n)
            if i not in ends and (end := _guard(run, atom, ks[i] + j + 1)) is not None:
                ends[i] = (j, end)
    # NSM books no P_k: each is 1.0, one float object every step record shares.
    p_k = None if run.counting or run.nsm else p_k.ravel().tolist()
    failed = failed.ravel().tolist()
    if run.halting:  # a halting run runs one atom a block
        for i in itertools.compress(range(n), failed):
            ends.setdefault(i, (1, f"sampled orthogonal outcome at atom {ks[i] + 1}"))
    if run.collect_steps:
        ns, trap = np.arange(run.config.n_max + 1, dtype=float), run.config.trap_target
        mean_n = np.vecdot(after, ns)
        delta_n = np.sqrt(np.maximum(np.vecdot(after, ns * ns) - mean_n * mean_n, 0.0))
        columns = [a.ravel().tolist() for a in (
            times[..., 0], times[..., 1], mean_n, delta_n, after[..., trap],
            after[..., trap + 1 :].sum(axis=-1))]
        named = (OUTCOME_SUCCESS, OUTCOME_FAILURE) if run.sampled else (OUTCOME_POSTSELECTED,) * 2
        columns.append([named[f] for f in failed])  # outcome by failure flag

    for i, (slot, k) in enumerate(zip(lanes.tolist(), ks)):
        m, end = ends.get(i, (b, None))
        at = slice(i, m * n, n)  # cell i's booked atoms in the (atoms, cells) lists
        if p_k is None:  # counting books no cum_P, and NSM's stays 1.0 since log 1 = 0
            p_ks, cums = itertools.repeat(1.0), itertools.repeat(1.0)
        else:
            p_ks, cums = p_k[at], [] if run.collect_steps else None
            window.cums[slot].extend(p_ks, cums)
        if run.collect_steps:
            tau_k, t_k, mean, delta, p_trap, p_above, outcome = (c[at] for c in columns)
            window.steps[slot].extend(map(StepRecord, range(k + 1, k + m + 1), tau_k, t_k, p_ks,
                                          cums, mean, delta, outcome, p_trap, p_above))
        if run.sampled:
            window.failures[slot] += failed[at].count(True)
        if isinstance(end, str):  # for NSM, after[m - 1] is a view of the kernel's buffer
            row = after[m - 1, i] if m else _populations(run, fields[0, i])
            window.results[window.cell[slot]] = _result(run, window, slot, row.copy(), end)
        elif end is not None:
            window.results[window.cell[slot]] = end
            if run.counting:  # it raises: no waiting cell can raise before it
                window.last = window.admitted
    # take() is quicker with an index array; a list builds one faster than np.delete for few cells
    keep = np.array([i for i in range(n) if i not in ends], dtype=np.intp)
    return lanes[keep], fields[b].take(keep, axis=0)


def _batch_cells(n_max: int) -> int:
    """How many cells run at once at n_max + 1 levels: one atom of them fits in a block."""
    return max(1, _BLOCK_ENTRIES // (n_max + 1))


def _run_cells(
    config: RunConfig, timings: list[TimingModel], stream_ids: np.ndarray, collect: str
) -> list[RunResult | bool | SimulationError]:
    """Run the cells through one update kernel, in a window of lanes that refills.

    Cell i runs config with timings[i] and the stream (config.master_seed,
    stream_ids[i]) of a uint64 id array, its field one row of a (lanes,
    levels) array: amplitudes, or populations for NSM.  At most
    _batch_cells(config.n_max) cells run at once, each in a slot of the
    _Window; the running ones are an index array of lanes into it.  After
    each block, the slots whose cells ended take the next waiting cells,
    in cell order, each from the initial state at atom 0.  Per block,
    _draw_block draws, _advance updates into one scratch buffer and _book
    guards and books; a block runs no more atoms than any running cell has
    left.  Returns, per cell, the SimulationError that ended it or, by
    collect: "steps", its RunResult with step records; "results", its
    RunResult without them; "successes", whether it ran to its end with no
    failed outcome, for which no RunResult or cum_P is built.  A counting
    run admits no cell after one raises, and those cells stay False.
    """
    nsm = config.scheme == "nsm"
    sampled = config.mode == "sample" and not nsm
    run = _Run(config, collect == "steps", collect == "successes", nsm, sampled,
               sampled and config.halt_on_failure)
    levels = config.n_max + 1
    window = _Window(run, timings, stream_ids, min(len(stream_ids), _batch_cells(config.n_max)))
    width = len(window.cell)
    if config.fock is None:
        initial, _ = coherent_state(config.alpha, config.n_max)
    else:
        initial = fock_basis_state(config.fock, config.n_max)
    initial = initial.probabilities() if nsm else initial.amplitudes
    # The buffer holds _advance's largest block: a block's atoms x cells x
    # levels is one atom of a full window at most in a halting run, else at
    # most the run's atoms of it and max(_BLOCK_ENTRIES, one atom of it).
    size = width * levels
    most = size if run.halting else min(config.n_atoms * size, max(_BLOCK_ENTRIES, size))
    buffer = np.empty(most + (1 + sampled) * (size + 1), initial.dtype)
    lanes, state = np.arange(0), initial[None][:0]
    while True:
        if len(lanes) < width and window.admitted < window.last:
            free = np.ones(width, dtype=bool)
            free[lanes] = False
            slots = np.flatnonzero(free)[: window.last - window.admitted]
            window.admit(slots)
            lanes = np.concatenate([lanes, slots])
            state = np.concatenate([state, np.broadcast_to(initial, (len(slots), levels))])
        done = window.k[lanes] == config.n_atoms
        if done.any():  # cells that ran every atom end with their fields
            rows = _populations(run, state[done])
            for row, slot in zip(rows, lanes[done].tolist()):
                window.results[window.cell[slot]] = _result(run, window, slot, row, None)
            lanes, state = lanes[~done], state[~done]
            continue
        if not len(lanes):
            return window.results
        b = 1 if run.halting else max(1, _BLOCK_ENTRIES // (len(lanes) * levels))
        b = min(b, config.n_atoms - int(window.k[lanes].max()))
        draw = _draw_block(run, window, lanes, b)
        lanes, state = _book(run, window, lanes, _advance(run, state, draw, buffer))
        window.k[lanes] += b


def run_sequence(config: RunConfig) -> RunResult:
    """Run one sequence of config.n_atoms atoms through the scheme.

    Mode `postselect` applies the desired projection at every step and
    terminates with reason "impossible post-selection" if its probability
    vanishes.  Mode `sample` draws each outcome; the first orthogonal draw
    marks the trajectory failed and, with halt_on_failure, stops it.
    Leakage errors from the dynamics propagate; a run whose top three Fock
    levels exceed the 1e-8 guard aborts the same way.  This is the
    one-cell case of the kernel that `sweep` runs its cells through.
    """
    (result,) = _run_cells(config, [config.timing], stream_id_range(config.stream_id, 1), "steps")
    if isinstance(result, SimulationError):
        raise result
    return result


@dataclass(frozen=True)
class SweepCell:
    multiplier: float
    cell: int
    final_p_trap: float
    cum_P: float
    converged: bool
    error: str | None = None
    n_failures: int = 0  # sampled outcomes that failed, as RunResult.n_failures


def sweep(
    base: RunConfig,
    spread_multipliers: list[float],
    ensemble: int,
) -> list[SweepCell]:
    """Run an ensemble per spread multiplier; each cell records its convergence.

    Cell (i, j) uses stream_id = i * ensemble + j derived from the base
    master seed, so the whole table is reproducible from that one seed.
    The cells advance together through the kernel's window; per-cell
    failures, an invalid spread or a run that ended early among them, are
    recorded in the cell as its error, with nan values, not raised.
    """
    ensemble = int_token("ensemble", ensemble)
    if ensemble < 1:
        raise ConfigError(f"ensemble: must be >= 1, got {ensemble}")
    multipliers = [number_token("spread_mults", mult) for mult in spread_multipliers]
    critical = critical_spread(base.trap_target)
    timings: list[TimingModel | ConfigError] = []
    for mult in multipliers:
        try:  # a multiplier's config checks itself, its Rabi phases included
            timings.append(replace(base, spread=mult * critical).timing)
        except ConfigError as exc:
            timings.append(exc)
    valid = [i for i, timing in enumerate(timings) if isinstance(timing, TimingModel)]
    ids = np.array([i * ensemble + j for i in valid for j in range(ensemble)], dtype=np.uint64)
    runs = iter(_run_cells(base, [timings[i] for i in valid for _ in range(ensemble)], ids,
                           "results"))
    cells = []
    for i, mult in enumerate(multipliers):
        for index in range(i * ensemble, (i + 1) * ensemble):
            outcome = timings[i] if isinstance(timings[i], ConfigError) else next(runs)
            failed = isinstance(outcome, Exception)
            error = str(outcome) if failed else outcome.terminated_early
            failures = 0 if failed else outcome.n_failures
            if error is not None:
                cells.append(SweepCell(mult, index, math.nan, math.nan, False, error, failures))
                continue
            p_trap = float(outcome.final_distribution[base.trap_target])
            cells.append(SweepCell(mult, index, p_trap, outcome.final_cum_P,
                                   p_trap > CONVERGENCE_P, None, failures))
    return cells


def sampled_success_estimate(config: RunConfig, trajectories: int) -> float:
    """Fraction of sampled trajectories whose every outcome succeeded.

    Trajectory t runs with stream_id = config.stream_id + t.  For
    fixed times this estimates the `postselect` cumulative probability to
    within binomial error.  The trajectories advance together through the
    kernel's window, as sweep cells do, and each returns only whether it
    succeeded; the first one to raise, in trajectory order, raises here.
    """
    if config.mode != "sample":
        raise ConfigError("mode: sampled_success_estimate requires mode='sample'")
    trajectories = int_token("trajectories", trajectories)
    if trajectories < 1:
        raise ConfigError(f"trajectories: must be >= 1, got {trajectories}")
    ids = stream_id_range(config.stream_id, trajectories)
    results = _run_cells(config, [config.timing] * trajectories, ids, "successes")
    successes = results.count(True)
    if successes + results.count(False) < trajectories:  # the others raised
        raise next(result for result in results if isinstance(result, SimulationError))
    return successes / trajectories
