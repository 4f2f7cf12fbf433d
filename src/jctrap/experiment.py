"""Drives whole atom sequences through a measurement scheme.

Each atom draws an interaction time, entangles with the field and is
measured according to the configured scheme.  PostSelected mode conditions
on the desired outcome at every step and books its probability; Sampled
mode draws outcomes and marks the trajectory failed on the first
orthogonal one.  Per-step statistics, the cumulative success probability
and the final photon-number distribution are collected; `sweep` scans
spread multiples over seeded ensembles.  Every run goes through one
update kernel that advances a batch of independent cells atom by atom:
`run_sequence` is its one-cell case, while the cells of a sweep and the
trajectories of `sampled_success_estimate` advance together.
"""
from __future__ import annotations

import cmath
import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .csvfile import write_csv
from .dynamics import (
    AMPLITUDE_LEAK_TOL,
    ORTHOGONAL_P_TOL,
    SCHEME_KINDS,
    CouplingParams,
    MeasurementScheme,
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
    FieldState,
    coherent_state,
    default_n_max,
    fock_basis_state,
    top_level_probability,
)
from .stochastic import SeedSpec, TimingModel, derive_streams, sample_timing

# The one-state updates and statistics that _run_cells reproduces row by row,
# and the one-stream form of derive_streams.  They stay importable here,
# where the benchmark's tracer wraps them (perfbench/tracer.py).
from .dynamics import cm_project, jcm_entangle, nsm_step, project_amplitudes  # noqa: F401
from .fock import distribution_stats, renormalize  # noqa: F401
from .stochastic import derive_stream  # noqa: F401

RUN_MODES = ("postselect", "sample")

# A run aborts when the top 3 Fock levels hold more probability than this.
TOP_LEVEL_GUARD = 1e-8

# A trap level counts as converged when it holds more than this probability.
CONVERGENCE_P = 0.9

# Sweep cells and sampled trajectories advance together in batches of at
# most this many, which bounds a batch's arrays at this many rows.
_BATCH_CELLS = 64

# A block of atoms, whose times a batch draws at once, has as many atoms as
# fit in this many factors (atoms x cells x levels), and never fewer than one.
# A halting sampled batch draws one atom at a time: it may stop at any atom.
_BLOCK_ENTRIES = 8192

OUTCOME_POSTSELECTED = "postselected"
OUTCOME_SUCCESS = "sampled_success"
OUTCOME_FAILURE = "sampled_failure"


@dataclass(frozen=True)
class InitialField:
    """Initial cavity field: coherent |alpha> or Fock |n>."""

    kind: str
    alpha: complex = 0j
    n: int = 0

    def __post_init__(self):
        if self.kind not in ("coherent", "fock"):
            raise ConfigError(f"initial field kind must be coherent or fock, got {self.kind!r}")

    def build(self, n_max: int) -> FieldState:
        if self.kind == "coherent":
            state, _ = coherent_state(self.alpha, n_max)
            return state
        return fock_basis_state(self.n, n_max)


def _check_derivation_inputs(trap_target: int, q: int, scheme: str, omega: float) -> None:
    """The values the trapping time, critical spread and Ramsey ratio derive from."""
    if trap_target < 0:
        raise ConfigError(f"trap: must be >= 0, got {trap_target}")
    if q < 1:
        raise ConfigError(f"q: must be >= 1 in a run config, got {q}")
    if not math.isfinite(omega):
        raise ConfigError(f"omega: must be finite, got {omega}")
    if scheme == "superposition" and not omega > 0:
        raise ConfigError(f"omega: must be > 0, got {omega}")


@dataclass(frozen=True)
class RunConfig:
    """Full description of one atom-sequence run; build_run_config makes one."""

    scheme: MeasurementScheme
    n_atoms: int
    trap_target: int
    q: int
    initial_field: InitialField
    timing: TimingModel
    coupling: CouplingParams
    n_max: int
    mode: str
    seed: SeedSpec
    omega: float
    halt_on_failure: bool

    def validate(self) -> None:
        """Check the fields a run reads; the message names the config token."""
        if self.scheme.kind not in SCHEME_KINDS:
            raise ConfigError(f"scheme: unknown scheme {self.scheme.kind!r}")
        _check_derivation_inputs(self.trap_target, self.q, self.scheme.kind, self.omega)
        if self.n_atoms < 0:
            raise ConfigError(f"atoms: must be >= 0, got {self.n_atoms}")
        if self.mode not in RUN_MODES:
            raise ConfigError(f"mode: must be one of {RUN_MODES}, got {self.mode!r}")
        if not self.trap_target < self.n_max - 20:
            raise ConfigError(
                f"nmax: trap level {self.trap_target} needs n_max > {self.trap_target + 20}, "
                f"got {self.n_max}"
            )
        fock = self.initial_field.n if self.initial_field.kind == "fock" else 0
        if fock < 0:
            raise ConfigError(f"fock: must be >= 0, got {fock}")
        if fock > self.n_max:
            raise ConfigError(f"fock: initial level {fock} exceeds n_max {self.n_max}")
        if self.scheme.kind == "superposition" and not self.timing.ramsey_ratio > 0:
            raise ConfigError("scheme: superposition requires timing.ramsey_ratio > 0")


@dataclass(frozen=True)
class StepRecord:
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
    final_state: FieldState | np.ndarray
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
    omega: float = 1.0,
    phi_f: float = -math.pi / 2,
    g: float = 1.0,
    master_seed: int = 0,
    stream_id: int = 0,
    n_max: int | None = None,
    halt_on_failure: bool = True,
) -> RunConfig:
    """Assemble a validated RunConfig; the one place that states its defaults.

    tau_bar defaults to the q-th trapping time of the trap level and n_max
    to the truncation policy.  The spread is spread_time if given, else
    spread_frac * tau_bar, else spread_mult times the critical spread.  The
    superposition Ramsey ratio is the stationary-phase closure
    2 g sqrt(n_t+1) / omega.  Each value is checked before anything is
    derived from it; a bad one raises ConfigError naming its config token.
    """
    if (alpha is None) == (fock_n is None):
        raise ConfigError("alpha/fock: set exactly one initial field (--alpha or --fock)")
    for token, value in (("alpha", alpha or 0), ("phi_f_rad", phi_f)):
        if not cmath.isfinite(value):
            raise ConfigError(f"{token}: must be finite, got {value}")
    coupling = CouplingParams(g)
    _check_derivation_inputs(trap_target, q, scheme, omega)
    if tau_bar is None:
        tau_bar = trapping_time(trap_target, q, coupling)
    if spread_time is None and spread_frac is not None:
        spread_time = spread_frac * tau_bar
    if spread_time is None:
        spread_time = spread_mult * critical_spread(trap_target, coupling)
    ratio = 0.0
    if scheme == "superposition":
        ratio = stationary_phase_ratio(trap_target, coupling, omega)
    config = RunConfig(
        scheme=MeasurementScheme(scheme, phi_f),
        n_atoms=n_atoms,
        trap_target=trap_target,
        q=q,
        initial_field=(
            InitialField("coherent", alpha=complex(alpha))
            if fock_n is None
            else InitialField("fock", n=int(fock_n))
        ),
        timing=TimingModel(tau_bar=tau_bar, spread=spread_time, law=law, ramsey_ratio=ratio),
        coupling=coupling,
        n_max=n_max if n_max is not None else default_n_max(trap_target),
        mode=mode,
        seed=SeedSpec(master_seed, stream_id),
        omega=omega,
        halt_on_failure=halt_on_failure,
    )
    config.validate()
    return config


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


@dataclass(slots=True)
class _Cell:
    """What one cell of a running batch keeps outside the batch arrays."""

    index: int
    timing: TimingModel
    rng: np.random.Generator
    cum: _LogSum = field(default_factory=_LogSum)
    steps: list[StepRecord] = field(default_factory=list)
    failures: int = 0


def _conditioned(s: np.ndarray, outcome: tuple[np.ndarray, bool], j: int) -> np.ndarray:
    """Rows s after block atom j's outcome (factors, emits), unnormalized.

    d_n = f_n s_n, or d_n = f_{n-1} s_{n-1} and d_0 = 0 for an outcome that emits.
    """
    factors, emits = outcome
    if not emits:
        return factors[j] * s
    d = np.zeros_like(s)
    np.multiply(factors[j, :, :-1], s[:, :-1], out=d[:, 1:])
    return d


def _run_cells(
    config: RunConfig, cells: list[tuple[TimingModel, SeedSpec]], collect_steps: bool
) -> list[RunResult | SimulationError]:
    """Run a batch of cells, a block of atoms at a time, through one update kernel.

    Each cell runs config with its own (timing model, seed) pair; its field
    is one row of a (cells, levels) array: amplitudes for the selective
    schemes, populations for NSM.  Per block, each cell draws the atoms'
    times (in sampled mode each outcome's uniform right after its time) in
    a one-cell run's order, and one call gives the (atoms, cells, levels)
    factors.  A selective scheme's selected and orthogonal outcomes each keep
    level n or emit a photon into n + 1: elastic keeps by cos theta_n, else
    emits by -i sin theta_n; inelastic the reverse, keeping by -cos theta_n;
    superposition keeps by its CM success, else failure, factor.  Per atom
    only the field update runs, into row j + 1 of an (atoms + 1, cells,
    levels) buffer, equal to the one-state references' up to the sign of a
    zero amplitude (norms by np.vecdot, which sums as np.vdot does).  What
    only reads the updated fields runs once per block: guard inputs, step
    statistics and cum_P.  The block clears when the guard passes on its
    worst value of each input; else each cell runs the guard atom by atom in
    a one-cell run's order, books the atoms before its first trip and
    leaves.  Returns, per cell, its RunResult or the SimulationError that
    ended it.
    """
    scheme = config.scheme
    is_nsm = scheme.kind == "nsm"
    sampled = config.mode == "sample" and not is_nsm  # NSM ignores outcomes
    halting = sampled and config.halt_on_failure
    n_max, trap = config.n_max, config.trap_target
    # What would leave the basis: NSM guards a population, the others an amplitude.
    leak_limit, leak_what = (
        (AMPLITUDE_LEAK_TOL**2, "P(n_max) sin^2 theta_nmax")
        if is_nsm
        else (AMPLITUDE_LEAK_TOL, "|c_nmax sin theta_nmax|")
    )
    # ns @ row and ns_sq @ row are the sums distribution_stats takes.
    ns = np.arange(n_max + 1, dtype=float)
    ns_sq = ns * ns

    initial = config.initial_field.build(n_max)
    dist = initial.probabilities()[None].repeat(len(cells), axis=0)
    state = dist if is_nsm else initial.amplitudes[None].repeat(len(cells), axis=0)
    results: list[RunResult | SimulationError | None] = [None] * len(cells)
    timings, seeds = zip(*cells)
    cells = [_Cell(i, t, rng) for i, (t, rng) in enumerate(zip(timings, derive_streams(seeds)))]

    def finish(cell, field_row, dist_row, reason):
        """The RunResult of a cell whose final field is field_row."""
        return RunResult(
            steps=cell.steps,
            final_distribution=dist_row,
            final_state=dist_row if is_nsm else FieldState(field_row, n_max),
            terminated_early=reason,
            n_failures=cell.failures,
            final_cum_P=cell.cum.value,
        )

    def guard(leak, p_k, norm, total, top, atom):
        """What ends a cell at this atom before its step is booked, or None."""
        if not leak <= leak_limit:
            return LeakageError(f"population would leave truncation: {leak_what} = {leak:.3e}")
        if not sampled and p_k < ORTHOGONAL_P_TOL:
            return "impossible post-selection"
        if not norm > ORTHOGONAL_NORM_SQ:
            return OrthogonalOutcomeError(f"cannot renormalize state with squared norm {norm:.3e}")
        if not abs(total - 1.0) <= NORM_ATOL:
            return SimulationError(f"state norm drifted to {total!r} at atom {atom}")
        if not top <= TOP_LEVEL_GUARD:
            return LeakageError(
                f"top-3 Fock levels hold {top:.3e} probability at atom {atom}; "
                f"truncation n_max={n_max} too small for this run"
            )
        return None

    k = 0
    while k < config.n_atoms and cells:
        # The block's draws and factors, which do not depend on the field.
        n = len(cells)
        b = 1 if halting else max(1, _BLOCK_ENTRIES // (n * (n_max + 1)))
        b = min(b, config.n_atoms - k)
        if sampled:
            block = [[(*sample_timing(c.timing, c.rng), c.rng.random()) for c in cells]
                     for _ in range(b)]
        else:
            block = [[sample_timing(c.timing, c.rng) for c in cells] for _ in range(b)]
        times = np.array(block)  # (atoms, cells, (tau_k, T_k[, u_k]))
        taus = times[..., :1]
        # A selective scheme's two outcomes, each (factors, whether it emits).
        if scheme.kind == "superposition":
            selected, orthogonal = ((f, False) for f in correlated_cm_factors(
                config.omega, times[..., 1:2], config.coupling, taus, n_max, scheme.phi_f
            ))
        else:
            cos_t, sin_t = rabi_cos_sin(config.coupling, taus, n_max)
            edge = sin_t[..., -1].ravel().tolist()
            if is_nsm:
                cos_t, sin_t = np.square(cos_t, out=cos_t), np.square(sin_t, out=sin_t)
            else:
                selected, orthogonal = (cos_t, False), (-1j * sin_t, True)  # elastic
                if scheme.kind == "inelastic":
                    selected, orthogonal = orthogonal, (-cos_t, False)

        # Per atom, the field update alone.
        fields = np.empty((b + 1, *state.shape), state.dtype)
        fields[0] = state
        norms = np.ones((b, n))  # NSM keeps these
        successes = np.empty((b, n)) if sampled else norms
        failed = np.zeros((b, n), dtype=bool)
        for j in range(b):
            s, out = fields[j], fields[j + 1]
            if is_nsm:
                np.multiply(s, cos_t[j], out=out)
                out[:, 1:] += s[:, :-1] * sin_t[j, :, :-1]
                continue
            d = _conditioned(s, selected, j)
            norm = successes[j] = np.vecdot(d, d).real
            if sampled:
                # u_k < 1, so u_k < min(norm, 1) exactly when u_k < norm.
                failed[j] = fails = ~(times[j, :, 2] < norm)
                if fails.any():
                    d_orth = _conditioned(s, orthogonal, j)
                    d = np.where(fails[:, None], d_orth, d)
                    norm = np.where(fails, np.vecdot(d_orth, d_orth).real, norm)
            norms[j] = norm
            # A row at or below the floor ends below; the floor keeps 0/0 out.
            np.divide(d, np.sqrt(np.maximum(norm, ORTHOGONAL_NORM_SQ))[:, None], out=out)

        # Per block, everything that only reads the updated fields.
        rows = fields[1:] if is_nsm else np.abs(fields[1:]) ** 2  # row j: after atom j
        # In Python: np.abs of a complex may differ from abs() in the last place.
        leak = [0.0] * (b * n)  # superposition's outcomes keep every level
        if scheme.kind != "superposition":
            col = zip(fields[:b, :, -1].ravel().tolist(), edge)
            leak = [p * s**2 for p, s in col] if is_nsm else [abs(c) * abs(s) for c, s in col]
        # NSM's P_k are all one float object, which every step record then shares.
        p_k = [1.0] * (b * n) if is_nsm else np.minimum(successes, 1.0).ravel().tolist()
        norm_k = norms.ravel().tolist()
        total = rows.sum(axis=-1).ravel().tolist()
        top = top_level_probability(rows).ravel().tolist()
        # What a guard trip at atom j ends a cell with: (atoms booked, error or reason).
        ends = {}
        # The guard on the block's worst value of each input.  Python's max and
        # min skip a NaN that is not first, so a NaN trips the block by itself:
        # the sum of these nonnegative inputs is NaN only if one is (and a NaN
        # P_k has a NaN norm).
        far = max(min(total), max(total), key=lambda t: abs(t - 1.0))
        if (math.isnan(sum(leak) + sum(norm_k) + sum(total) + sum(top))
                or guard(max(leak), min(p_k), min(norm_k), far, max(top), k + 1) is not None):
            for at, inputs in enumerate(zip(leak, p_k, norm_k, total, top)):
                j, i = divmod(at, n)
                if i not in ends and (end := guard(*inputs, k + j + 1)) is not None:
                    ends[i] = (j, end)
        failed = failed.ravel().tolist()
        if collect_steps:
            mean_n = np.vecdot(rows, ns)
            delta_n = np.sqrt(np.maximum(np.vecdot(rows, ns_sq) - mean_n * mean_n, 0.0))
            columns = [
                a.ravel().tolist()
                for a in (times[..., 0], times[..., 1], mean_n, delta_n, rows[..., trap],
                          rows[..., trap + 1 :].sum(axis=-1))
            ]
            named = (OUTCOME_SUCCESS, OUTCOME_FAILURE) if sampled else (OUTCOME_POSTSELECTED,) * 2
            columns.append([named[f] for f in failed])  # outcome by failure flag

        for i, cell in enumerate(cells):
            m, end = ends.get(i, (b, None))
            if halting and end is None and failed[i]:  # a halting batch runs one atom a block
                end = f"sampled orthogonal outcome at atom {k + 1}"
                ends[i] = (m, end)
            at = slice(i, m * n, n)  # cell i's booked atoms in the (atoms, cells) lists
            cums = [] if collect_steps else None
            cell.cum.extend(p_k[at], cums)
            if collect_steps:
                tau_k, t_k, mean, delta, p_trap, p_above, outcome = (c[at] for c in columns)
                cell.steps.extend(
                    map(StepRecord, range(k + 1, k + m + 1), tau_k, t_k, p_k[at], cums, mean,
                        delta, outcome, p_trap, p_above)
                )
            if sampled:
                cell.failures += failed[at].count(True)
            if isinstance(end, str):
                last = rows[m - 1] if m else dist  # the distribution after the booked atoms
                results[cell.index] = finish(cell, fields[m, i], last[i], end)
            elif end is not None:
                results[cell.index] = end

        k += b
        # A cell that ended leaves the batch with its rows.
        running = [i for i in range(n) if i not in ends]
        cells = [cells[i] for i in running]
        keep = np.array(running, dtype=np.intp)  # take() is quicker with an index array
        state, dist = fields[b].take(keep, axis=0), rows[b - 1].take(keep, axis=0)
        fields = rows = cos_t = sin_t = selected = orthogonal = None  # freed before the next block

    for i, cell in enumerate(cells):
        results[cell.index] = finish(cell, state[i], dist[i], None)
    return results


def _run_batches(
    config: RunConfig, cells: Iterable[tuple[TimingModel, SeedSpec]], collect_steps: bool
) -> Iterator[RunResult | SimulationError]:
    """_run_cells over the cells, in batches of at most _BATCH_CELLS cells."""
    cells = iter(cells)
    while batch := list(itertools.islice(cells, _BATCH_CELLS)):
        yield from _run_cells(config, batch, collect_steps)


def run_sequence(config: RunConfig, collect_steps: bool = True) -> RunResult:
    """Run one sequence of config.n_atoms atoms through the scheme.

    PostSelected mode applies the desired projection at every step and
    terminates with reason "impossible post-selection" if its probability
    vanishes.  Sampled mode draws each outcome; the first orthogonal draw
    marks the trajectory failed and, with halt_on_failure, stops it.
    Leakage errors from the dynamics propagate; a run whose top three Fock
    levels exceed the 1e-8 guard aborts the same way.  This is the
    one-cell case of the kernel that `sweep` runs its cells through.
    """
    config.validate()
    result = _run_cells(config, [(config.timing, config.seed)], collect_steps)[0]
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


@dataclass(frozen=True)
class SweepAggregate:
    multiplier: float
    median_final_p_trap: float
    median_cum_P: float
    convergence_fraction: float


@dataclass
class SweepResult:
    cells: list[SweepCell]
    aggregates: list[SweepAggregate]


def sweep(
    base: RunConfig,
    spread_multipliers: list[float],
    ensemble: int,
) -> SweepResult:
    """Run an ensemble per spread multiplier and aggregate convergence.

    Cell (i, j) uses stream_id = i * ensemble + j derived from the base
    master seed, so the whole table is reproducible from that one seed.
    The cells advance together through the batch kernel; per-cell failures,
    an invalid spread among them, are recorded in the cell, not raised.
    """
    if ensemble < 1:
        raise ConfigError(f"ensemble: must be >= 1, got {ensemble}")
    base.validate()
    jobs = [
        (mult, i * ensemble + j)
        for i, mult in enumerate(spread_multipliers)
        for j in range(ensemble)
    ]
    critical = critical_spread(base.trap_target, base.coupling)
    outcomes: dict[int, RunResult | Exception] = {}
    runs: dict[int, tuple[TimingModel, SeedSpec]] = {}
    for mult, index in jobs:
        try:
            timing = replace(base.timing, spread=mult * critical)
        except ConfigError as exc:
            outcomes[index] = exc
        else:
            runs[index] = (timing, SeedSpec(base.seed.master_seed, index))
    outcomes.update(zip(runs, _run_batches(base, runs.values(), collect_steps=False)))

    cells = []
    for mult, index in jobs:
        outcome = outcomes[index]
        if isinstance(outcome, Exception):
            cells.append(SweepCell(mult, index, math.nan, math.nan, False, error=str(outcome)))
            continue
        p_trap = float(outcome.final_distribution[base.trap_target])
        cells.append(SweepCell(mult, index, p_trap, outcome.final_cum_P, p_trap > CONVERGENCE_P))

    aggregates = []
    for i, mult in enumerate(spread_multipliers):
        group = cells[i * ensemble : (i + 1) * ensemble]
        good = [c for c in group if c.error is None]
        aggregates.append(
            SweepAggregate(
                multiplier=mult,
                median_final_p_trap=float(np.median([c.final_p_trap for c in good]))
                if good
                else math.nan,
                median_cum_P=float(np.median([c.cum_P for c in good])) if good else math.nan,
                convergence_fraction=sum(c.converged for c in group) / len(group),
            )
        )
    return SweepResult(cells=cells, aggregates=aggregates)


def sampled_success_estimate(config: RunConfig, trajectories: int) -> float:
    """Fraction of sampled trajectories whose every outcome succeeded.

    Trajectory t runs with stream_id = config.seed.stream_id + t.  For
    fixed times this estimates the PostSelected cumulative probability to
    within binomial error.  The trajectories advance together through the
    batch kernel, as sweep cells do; the first one to raise, in trajectory
    order, raises here.
    """
    if config.mode != "sample":
        raise ConfigError("mode: sampled_success_estimate requires mode='sample'")
    if trajectories < 1:
        raise ConfigError(f"trajectories: must be >= 1, got {trajectories}")
    config.validate()
    seed = config.seed
    cells = (
        (config.timing, SeedSpec(seed.master_seed, seed.stream_id + t))
        for t in range(trajectories)
    )
    successes = 0
    for result in _run_batches(config, cells, collect_steps=False):
        if isinstance(result, SimulationError):
            raise result
        successes += result.n_failures == 0 and result.terminated_early is None
    return successes / trajectories


def write_trajectory_csv(path, result: RunResult) -> str:
    """Per-step CSV `k,tau_k,T_k,P_k,cum_P,mean_n,delta_n,outcome`; returns its sha256."""
    return write_csv(
        path,
        b"k,tau_k,T_k,P_k,cum_P,mean_n,delta_n,outcome\n",
        b"%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s\n",
        (
            (s.k, s.tau_k, s.T_k, s.P_k, s.cum_P, s.mean_n, s.delta_n, s.outcome.encode())
            for s in result.steps
        ),
    )


def write_sweep_csv(path, result: SweepResult) -> str:
    """Per-cell CSV `multiplier,cell,final_P_nt,cum_P,converged`; returns its sha256."""
    return write_csv(
        path,
        b"multiplier,cell,final_P_nt,cum_P,converged\n",
        b"%.17g,%d,%.17g,%.17g,%d\n",
        ((c.multiplier, c.cell, c.final_p_trap, c.cum_P, c.converged) for c in result.cells),
    )
