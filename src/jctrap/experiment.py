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

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import (
    AMPLITUDE_LEAK_TOL,
    ELASTIC_ROTATION,
    INELASTIC_ROTATION,
    ORTHOGONAL_P_TOL,
    CouplingParams,
    MeasurementScheme,
    correlated_cm_factors,
    critical_spread,
    orthogonal_rotation,
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
    distribution_stats,
    fock_basis_state,
    top_level_probability,
)
from .stochastic import SeedSpec, TimingModel, derive_stream, sample_timing

# The one-state updates that _run_cells reproduces row by row.  They stay
# importable here, where the benchmark's tracer wraps them (perfbench/tracer.py).
from .dynamics import cm_project, jcm_entangle, nsm_step, project_amplitudes  # noqa: F401
from .fock import renormalize  # noqa: F401

RUN_MODES = ("postselect", "sample")

# A run aborts when the top 3 Fock levels hold more probability than this.
TOP_LEVEL_GUARD = 1e-8

# A trap level counts as converged when it holds more than this probability.
CONVERGENCE_P = 0.9

# Sweep cells and sampled trajectories advance together in batches of at
# most this many, which bounds a batch's arrays at this many rows.
_BATCH_CELLS = 64

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

    @classmethod
    def coherent(cls, alpha: complex) -> "InitialField":
        return cls("coherent", alpha=complex(alpha))

    @classmethod
    def fock(cls, n: int) -> "InitialField":
        return cls("fock", n=int(n))

    def build(self, n_max: int) -> FieldState:
        if self.kind == "coherent":
            state, _ = coherent_state(self.alpha, n_max)
            return state
        return fock_basis_state(self.n, n_max)


@dataclass(frozen=True)
class RunConfig:
    """Full description of one atom-sequence run."""

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
    omega: float = 1.0
    halt_on_failure: bool = True

    def validate(self) -> None:
        if self.n_atoms < 0:
            raise ConfigError(f"atoms: must be >= 0, got {self.n_atoms}")
        if self.trap_target < 0:
            raise ConfigError(f"trap: must be >= 0, got {self.trap_target}")
        if self.q < 1:
            raise ConfigError(f"q: must be >= 1 in a run config, got {self.q}")
        if self.mode not in RUN_MODES:
            raise ConfigError(f"mode: must be one of {RUN_MODES}, got {self.mode!r}")
        if not self.trap_target < self.n_max - 20:
            raise ConfigError(
                f"nmax: trap level {self.trap_target} needs n_max > {self.trap_target + 20}, "
                f"got {self.n_max}"
            )
        if self.initial_field.kind == "fock" and self.initial_field.n > self.n_max:
            raise ConfigError(
                f"fock: initial level {self.initial_field.n} exceeds n_max {self.n_max}"
            )
        if self.scheme.kind == "superposition":
            if not self.omega > 0:
                raise ConfigError(f"omega: must be > 0, got {self.omega}")
            if not self.timing.ramsey_ratio > 0:
                raise ConfigError("scheme: superposition requires timing.ramsey_ratio > 0")
            if self.timing.ramsey_ratio != self.scheme.ramsey_ratio:
                raise ConfigError(
                    "scheme: timing.ramsey_ratio and scheme.ramsey_ratio disagree "
                    f"({self.timing.ramsey_ratio} vs {self.scheme.ramsey_ratio})"
                )


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
    spread_mult: float = 0.0,
    spread_time: float | None = None,
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
    decorrelation: float = 0.0,
) -> RunConfig:
    """Assemble a validated RunConfig with the standard defaults.

    tau_bar defaults to the q-th trapping time of the trap level, the
    spread to spread_mult times the critical spread, n_max to the
    truncation policy, and the superposition Ramsey ratio to the
    stationary-phase closure 2 g sqrt(n_t+1) / omega.
    """
    coupling = CouplingParams(g)
    if (alpha is None) == (fock_n is None):
        raise ConfigError("initial field: set exactly one of alpha or fock")
    initial = InitialField.coherent(alpha) if alpha is not None else InitialField.fock(fock_n)
    if q < 1:
        raise ConfigError(f"q: must be >= 1 in a run config, got {q}")
    if tau_bar is None:
        tau_bar = trapping_time(trap_target, q, coupling)
    if spread_time is None:
        spread_time = spread_mult * critical_spread(trap_target, coupling)
    ratio = 0.0
    if scheme == "superposition":
        ratio = stationary_phase_ratio(trap_target, coupling, omega)
        scheme_obj = MeasurementScheme.superposition(ratio, phi_f=phi_f)
    else:
        scheme_obj = MeasurementScheme(scheme)
    timing = TimingModel(
        tau_bar=tau_bar,
        spread=spread_time,
        law=law,
        ramsey_ratio=ratio,
        decorrelation=decorrelation,
    )
    config = RunConfig(
        scheme=scheme_obj,
        n_atoms=n_atoms,
        trap_target=trap_target,
        q=q,
        initial_field=initial,
        timing=timing,
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
    """Compensated running sum of log P_k (Neumaier), tolerant of P_k = 0."""

    def __init__(self):
        self.total = 0.0
        self.comp = 0.0

    def add(self, p: float) -> None:
        if p <= 0.0 or math.isinf(self.total):
            self.total = float("-inf")
            self.comp = 0.0
            return
        x = math.log(p)
        t = self.total + x
        if abs(self.total) >= abs(x):
            self.comp += (self.total - t) + x
        else:
            self.comp += (x - t) + self.total
        self.total = t

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


def _project_rows(e_branch: np.ndarray, g_branch: np.ndarray, rot) -> np.ndarray:
    """project_amplitudes for rows of entangled branches."""
    d = rot.alpha_f.conjugate() * e_branch
    d[:, 1:] += rot.beta_f.conjugate() * g_branch[:, :-1]
    return d


def _run_cells(configs: list[RunConfig], collect_steps: bool) -> list[RunResult | SimulationError]:
    """Run a batch of cells, atom by atom, through one update kernel.

    The configs differ only in their timing model and seed.  Each cell's
    field is one row of a (cells, levels) array: amplitudes for the
    selective schemes, populations for NSM.  Per atom, every row takes the
    operations that jcm_entangle, project_amplitudes, cm_project,
    correlated_cm_factors, renormalize or nsm_step apply to one state (row
    norms by np.vecdot, which sums as np.vdot does), and each cell draws
    from its own stream in the order of a run on its own, so each cell's
    result equals its one-cell run bit for bit.  The guards then act per
    cell in the order of a one-cell run; a cell that trips one ends and
    leaves the batch.  Returns, per config, its RunResult or the
    SimulationError that ended it.
    """
    config = configs[0]
    scheme = config.scheme
    is_nsm = scheme.kind == "nsm"
    sampled = config.mode == "sample" and not is_nsm  # NSM ignores outcomes
    n_max, trap = config.n_max, config.trap_target
    # What would leave the basis: NSM guards a population, the others an amplitude.
    leak_limit, leak_what = (
        (AMPLITUDE_LEAK_TOL**2, "P(n_max) sin^2 theta_nmax")
        if is_nsm
        else (AMPLITUDE_LEAK_TOL, "|c_nmax sin theta_nmax|")
    )

    initial = config.initial_field.build(n_max)
    dist = initial.probabilities()[None].repeat(len(configs), axis=0)
    state = dist if is_nsm else initial.amplitudes[None].repeat(len(configs), axis=0)
    cells = [_Cell(i, c.timing, derive_stream(c.seed)) for i, c in enumerate(configs)]
    results: list[RunResult | SimulationError | None] = [None] * len(configs)

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

    for k in range(1, config.n_atoms + 1):
        draws = [sample_timing(cell.timing, cell.rng) for cell in cells]
        u_k = [cell.rng.random() for cell in cells] if sampled else []
        times = np.array(draws)  # rows (tau_k, T_k)
        taus = times[:, :1]

        leak = None
        if scheme.kind == "superposition":
            success, failure = correlated_cm_factors(
                config.omega, times[:, 1:], config.coupling, taus, n_max, scheme.phi_f
            )
            d = success * state

            def orthogonal():
                return failure * state

        else:
            cos_t, sin_t = rabi_cos_sin(config.coupling, taus, n_max)
            edge = zip(state[:, -1].tolist(), sin_t[:, -1].tolist())
            if is_nsm:
                leak = [p * s**2 for p, s in edge]
                new = state * cos_t**2
                new[:, 1:] += state[:, :-1] * sin_t[:, :-1] ** 2
            else:
                leak = [abs(c) * abs(s) for c, s in edge]
                rot = ELASTIC_ROTATION if scheme.kind == "elastic" else INELASTIC_ROTATION
                e_branch = state * cos_t
                g_branch = -1j * state * sin_t
                d = _project_rows(e_branch, g_branch, rot)

                def orthogonal():
                    return _project_rows(e_branch, g_branch, orthogonal_rotation(rot))

        if is_nsm:
            new_dist, p_k = new, [1.0] * len(cells)
        else:
            norm = np.vecdot(d, d).real
            p_k = [min(x, 1.0) for x in norm.tolist()]
            failed = [not u < p for u, p in zip(u_k, p_k)]
            if any(failed):
                d_orth = orthogonal()
                mask = np.array(failed)
                d = np.where(mask[:, None], d_orth, d)
                norm = np.where(mask, np.vecdot(d_orth, d_orth).real, norm)
            norm_k = norm.tolist()
            if min(norm_k) <= ORTHOGONAL_NORM_SQ:
                # Such rows end below; flooring their norm keeps 0/0 out of the division.
                norm = np.maximum(norm, ORTHOGONAL_NORM_SQ)
            new = d / np.sqrt(norm)[:, None]
            new_dist = np.abs(new) ** 2
        total = new_dist.sum(axis=1).tolist()
        top = top_level_probability(new_dist).tolist()

        running = []
        for i, cell in enumerate(cells):
            outcome = OUTCOME_POSTSELECTED
            if leak is not None and leak[i] > leak_limit:
                results[cell.index] = LeakageError(
                    f"population would leave truncation: {leak_what} = {leak[i]:.3e}"
                )
                continue
            if not is_nsm:
                if not sampled and p_k[i] < ORTHOGONAL_P_TOL:
                    reason = "impossible post-selection"
                    results[cell.index] = finish(cell, state[i], dist[i], reason)
                    continue
                if norm_k[i] <= ORTHOGONAL_NORM_SQ:
                    results[cell.index] = OrthogonalOutcomeError(
                        f"cannot renormalize state with squared norm {norm_k[i]:.3e}"
                    )
                    continue
                if sampled:
                    outcome = OUTCOME_FAILURE if failed[i] else OUTCOME_SUCCESS
                    cell.failures += failed[i]
            if abs(total[i] - 1.0) > NORM_ATOL:
                results[cell.index] = SimulationError(
                    f"state norm drifted to {total[i]!r} at atom {k}"
                )
                continue
            if top[i] > TOP_LEVEL_GUARD:
                results[cell.index] = LeakageError(
                    f"top-3 Fock levels hold {top[i]:.3e} probability at atom {k}; "
                    f"truncation n_max={n_max} too small for this run"
                )
                continue
            cell.cum.add(p_k[i])
            if collect_steps:
                moments = distribution_stats(new_dist[i])
                cell.steps.append(
                    StepRecord(
                        k=k,
                        tau_k=draws[i][0],
                        T_k=draws[i][1],
                        P_k=p_k[i],
                        cum_P=cell.cum.value,
                        mean_n=moments.mean_n,
                        delta_n=moments.delta_n,
                        outcome=outcome,
                        p_trap=float(new_dist[i, trap]),
                        p_above_trap=float(new_dist[i, trap + 1 :].sum()),
                    )
                )
            if outcome == OUTCOME_FAILURE and config.halt_on_failure:
                reason = f"sampled orthogonal outcome at atom {k}"
                results[cell.index] = finish(cell, new[i], new_dist[i], reason)
                continue
            running.append(i)

        state, dist = new, new_dist
        if len(running) < len(cells):
            cells = [cells[i] for i in running]
            if not cells:
                break
            state, dist = state[running], dist[running]

    for i, cell in enumerate(cells):
        results[cell.index] = finish(cell, state[i], dist[i], None)
    return results


def _run_batches(
    configs: Iterable[RunConfig], collect_steps: bool
) -> Iterator[RunResult | SimulationError]:
    """_run_cells over the configs, in batches of at most _BATCH_CELLS cells."""
    configs = iter(configs)
    while batch := list(itertools.islice(configs, _BATCH_CELLS)):
        yield from _run_cells(batch, collect_steps)


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
    result = _run_cells([config], collect_steps)[0]
    if isinstance(result, SimulationError):
        raise result
    return result


@dataclass
class NsmComparison:
    """Paired fixed-time and fluctuating-time non-selective runs."""

    fixed: RunResult
    fluctuating: RunResult


def run_nsm_fixed_vs_fluctuating(
    fixed_config: RunConfig, fluctuating_config: RunConfig
) -> NsmComparison:
    """Run the fixed-versus-fluctuating comparison for the NSM scheme."""
    for name, cfg in (("fixed", fixed_config), ("fluctuating", fluctuating_config)):
        if cfg.scheme.kind != "nsm":
            raise ConfigError(f"scheme: {name} config must use the nsm scheme")
    if fixed_config.timing.spread != 0.0:
        raise ConfigError("spread: fixed config must have zero spread")
    if not fluctuating_config.timing.spread > 0.0:
        raise ConfigError("spread: fluctuating config must have positive spread")
    return NsmComparison(
        fixed=run_sequence(fixed_config),
        fluctuating=run_sequence(fluctuating_config),
    )


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
    All cells advance together through one batch; per-cell failures are
    recorded in the cell, not raised.
    """
    if ensemble < 1:
        raise ConfigError(f"ensemble: must be >= 1, got {ensemble}")
    jobs = [
        (mult, i * ensemble + j)
        for i, mult in enumerate(spread_multipliers)
        for j in range(ensemble)
    ]
    outcomes: dict[int, RunResult | Exception] = {}
    configs: dict[int, RunConfig] = {}
    for mult, index in jobs:
        try:
            spread = mult * critical_spread(base.trap_target, base.coupling)
            config = replace(
                base,
                timing=replace(base.timing, spread=spread),
                seed=SeedSpec(base.seed.master_seed, index),
            )
            config.validate()
        except ConfigError as exc:
            outcomes[index] = exc
        else:
            configs[index] = config
    outcomes.update(zip(configs, _run_batches(configs.values(), collect_steps=False)))

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
    configs = (
        replace(config, seed=SeedSpec(seed.master_seed, seed.stream_id + t))
        for t in range(trajectories)
    )
    successes = 0
    for result in _run_batches(configs, collect_steps=False):
        if isinstance(result, SimulationError):
            raise result
        successes += result.n_failures == 0 and result.terminated_early is None
    return successes / trajectories


def write_trajectory_csv(path, result: RunResult) -> None:
    """Per-step CSV `k,tau_k,T_k,P_k,cum_P,mean_n,delta_n,outcome`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k,tau_k,T_k,P_k,cum_P,mean_n,delta_n,outcome\n")
        for s in result.steps:
            reals = (s.tau_k, s.T_k, s.P_k, s.cum_P, s.mean_n, s.delta_n)
            fh.write(f"{s.k}," + ",".join(format(v, ".17g") for v in reals) + f",{s.outcome}\n")


def write_sweep_csv(path, result: SweepResult) -> None:
    """Per-cell CSV `multiplier,cell,final_P_nt,cum_P,converged`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("multiplier,cell,final_P_nt,cum_P,converged\n")
        for c in result.cells:
            fh.write(
                f"{format(c.multiplier, '.17g')},{c.cell},"
                f"{format(c.final_p_trap, '.17g')},{format(c.cum_P, '.17g')},"
                f"{int(c.converged)}\n"
            )
