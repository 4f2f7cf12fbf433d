"""The benchmark's workloads: their inputs, why each was chosen, and their checks.

A workload is a fixed list of operations.  Each operation is one call a user
makes: a `jctrap` CLI command, or one library call for the sampled-outcome
estimate, which has no CLI.  The workload seed reaches the program only as
its master seed: every operation runs with `master_seed = base + seed`, where
`base` is the seed of the preset it starts from (808 for `sampled`, the seed
of acceptance criterion 8).  The default workload seed 0 therefore runs the
presets exactly as `jctrap run --preset <name>` does.

This module imports nothing from jctrap at import time, so the set-up probe
can time `import jctrap` on its own.
"""
from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0

# Tolerance for the default-seed comparison against reference.json.  It
# admits the last-ULP changes a reordered kernel may make and nothing a
# change of model or of draw order would make.
REF_REL_TOL = 1e-9
REF_ABS_TOL = 1e-12

# A distribution counts as normalized within this.
NORM_TOL = 1e-10

# Threshold of acceptance criterion 5b: the classical field escapes above it.
ESCAPE_EPS_SQ_OVER_4 = 60.0

SAMPLED_BASE_SEED = 808
SAMPLED_TRAJECTORIES = 20_000
# Criterion 8: elastic selection from the vacuum for five atoms at the fixed
# time pi/3, so every trajectory has the same post-selected probability and
# the sampled all-success fraction is a binomial estimate of it.
SAMPLED_TOKENS = {
    "command": "run",
    "scheme": "elastic",
    "trap": "5",
    "fock": "0",
    "atoms": "5",
    "tau_bar_in_inv_g": format(math.pi / 3.0, ".17g"),
    "nmax": "30",
    "mode": "sample",
}


class CheckFailed(Exception):
    """An operation's outputs failed a correctness check."""


@dataclass(frozen=True)
class CliOp:
    """One `jctrap <command> --preset <preset> [flags]` call."""

    command: str
    preset: str
    flags: tuple[str, ...] = ()
    # (multiplier, minimum converged cells, minimum failed cells) per sweep row group.
    convergence: tuple[tuple[float, int, int], ...] = ()

    @property
    def name(self) -> str:
        return " ".join((self.command, self.preset, *self.flags))

    def argv(self, master_seed: int, out_dir: Path) -> list[str]:
        return [
            self.command, "--preset", self.preset, *self.flags,
            "--seed", str(master_seed), "--out-dir", str(out_dir),
        ]

    def config_tokens(self, preset_tokens: dict[str, str], master_seed: int) -> dict[str, str]:
        """The tokens `jctrap.cli` resolves for this call, for the set-up probe."""
        tokens = dict(preset_tokens)
        if self.command == "sweep":
            tokens["command"] = "sweep"
            tokens["spread_mults"] = self.flags[self.flags.index("--spread-mults") + 1]
            tokens["ensemble"] = self.flags[self.flags.index("--ensemble") + 1]
        tokens["seed"] = str(master_seed)
        return tokens


@dataclass(frozen=True)
class SampledOp:
    """`sampled_success_estimate` on the criterion-8 configuration."""

    trajectories: int = SAMPLED_TRAJECTORIES
    name: str = "sampled_success_estimate criterion-8"


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple


FIGURE_PRESETS = ("fig1a", "fig1b", "fig2a", "fig2b", "fig3ab", "fig3cd", "fig4")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "figures",
            # The user-facing make-a-figure path: every quantum run preset
            # through the CLI.  Step records stay on, so per-step
            # statistics, StepRecord building and trajectory CSV formatting
            # carry real weight; fig1b's 651-level basis brings in the
            # large-array NSM update.
            tuple(CliOp("run", p) for p in FIGURE_PRESETS),
        ),
        Workload(
            "ensembles",
            # The acceptance ensembles through the sweep CLI: long runs
            # (2000-5000 atoms) with no step records and a tiny output, so
            # the per-atom update and the experiment loop around it do
            # almost all the work.  This is where a batched kernel shows.
            (
                # Superposition at twice the critical spread (criterion 1).
                CliOp("sweep", "fig4", ("--spread-mults", "2", "--ensemble", "20"),
                      convergence=((2.0, 18, 0),)),
                # Elastic on both sides of the critical spread (criterion 3).
                CliOp("sweep", "fig2a", ("--spread-mults", "0.1,1", "--ensemble", "20"),
                      convergence=((0.1, 15, 0), (1.0, 0, 15))),
                # NSM with 1% timing noise and n_max = 650.
                CliOp("sweep", "fig1b", ("--spread-mults", "0.02", "--ensemble", "4")),
            ),
        ),
        Workload(
            "classical",
            # 10^6 steps of the classical return map and its 64.6 MB CSV:
            # mostly CSV formatting and hashing plus the map loop, with no
            # quantum update.  A write-path change shows here, a kernel
            # change should not.
            (CliOp("classical", "fig1d"),),
        ),
        Workload(
            "sampled",
            # 20000 sampled-outcome trajectories (criterion 8) of about 1.3
            # atoms each (halt on failure) on a 31-level basis: per-run
            # set-up dominates, so a change that makes set-up heavier to
            # speed up long runs shows here as a regression.
            (SampledOp(),),
        ),
    )
}


def resolve(cli, op, seed: int):
    """Resolve an operation's config through `preset` and `parse_config`, as the CLI does.

    `cli` is the imported `jctrap.cli`; the result's `tokens["seed"]` is the
    master seed the operation runs with.
    """
    if isinstance(op, SampledOp):
        return cli.parse_config(overrides={**SAMPLED_TOKENS, "seed": str(SAMPLED_BASE_SEED + seed)})
    preset_tokens = cli.preset(op.preset).tokens
    master_seed = int(preset_tokens["seed"]) + seed
    return cli.parse_config(overrides=op.config_tokens(preset_tokens, master_seed))


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def manifest_digests(out_dir: Path) -> dict[str, str]:
    """Output digests the manifest records, each checked against the file."""
    digests = {}
    in_outputs = False
    for line in (out_dir / "manifest.txt").read_text(encoding="utf-8").splitlines():
        if line.strip() == "[outputs]":
            in_outputs = True
        elif in_outputs and "=" in line:
            name, _, value = line.partition("=")
            digests[name.strip()] = value.strip().removeprefix("sha256:")
    if not digests:
        raise CheckFailed(f"{out_dir}: manifest lists no outputs")
    for name, digest in digests.items():
        if sha256_file(out_dir / name) != digest:
            raise CheckFailed(f"{out_dir / name}: sha256 differs from the manifest")
    return digests


def _rows(path: Path):
    """The rows of a CSV file as dicts, read one at a time."""
    with open(path, newline="", encoding="utf-8") as fh:
        yield from csv.DictReader(fh)


def check_cli_outputs(op: CliOp, out_dir: Path) -> dict[str, float]:
    """Full correctness check of one CLI call's outputs; returns its key values.

    Raises CheckFailed when a threshold that holds at every seed is missed.
    Files are read row by row, so that the check adds little to the
    worker's peak memory.
    """
    if op.command == "run":
        total = math.fsum(float(r["P(n)"]) for r in _rows(out_dir / "distribution.csv"))
        if not abs(total - 1.0) <= NORM_TOL:
            raise CheckFailed(f"distribution sums to {total!r}")
        atoms, cum, last = 0, math.inf, None
        for last in _rows(out_dir / "trajectory.csv"):
            atoms += 1
            previous, cum = cum, float(last["cum_P"])
            if cum > previous:
                raise CheckFailed(f"cum_P increases at atom {atoms}")
        if last is None:
            raise CheckFailed("trajectory.csv has no rows")
        return {
            "atoms": atoms,
            "final_cum_P": cum,
            "final_mean_n": float(last["mean_n"]),
            "final_delta_n": float(last["delta_n"]),
        }
    if op.command == "sweep":
        cells = list(_rows(out_dir / "sweep.csv"))
        facts: dict[str, float] = {"cells": len(cells)}
        for r in cells:
            p_trap, cum_p = float(r["final_P_nt"]), float(r["cum_P"])
            if not (0.0 <= p_trap <= 1.0 + NORM_TOL and 0.0 <= cum_p <= 1.0):
                raise CheckFailed(f"cell {r['cell']} failed or is out of range")
        for mult, min_converged, min_failed in op.convergence:
            group = [r for r in cells if math.isclose(float(r["multiplier"]), mult)]
            converged = sum(r["converged"] == "1" for r in group)
            if converged < min_converged or len(group) - converged < min_failed:
                raise CheckFailed(f"{converged}/{len(group)} cells converged at x{mult}")
            facts[f"converged_x{mult:g}"] = converged
        facts["median_final_P_nt"] = sorted(float(r["final_P_nt"]) for r in cells)[len(cells) // 2]
        return facts
    if op.command == "classical":
        peak = 0.0
        rows = 0
        with open(out_dir / "classical.csv", encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                peak = max(peak, float(line.rsplit(",", 1)[1]))
                rows += 1
        if not peak > ESCAPE_EPS_SQ_OVER_4:
            raise CheckFailed(f"eps^2/4 peaks at {peak}, no escape above 60")
        return {"rows": rows, "peak_eps_sq_over_4": peak}
    raise ValueError(f"unknown command {op.command!r}")


def check_sampled(fraction: float, cum_p: float, trajectories: int) -> dict[str, float]:
    """The sampled all-success fraction lies within 4 sigma of the post-selected cum_P."""
    sigma = math.sqrt(cum_p * (1.0 - cum_p) / trajectories)
    if not abs(fraction - cum_p) < 4.0 * sigma:
        raise CheckFailed(
            f"sampled fraction {fraction} is not within 4 sigma = {4 * sigma:.3e} of cum_P {cum_p}"
        )
    return {"fraction": fraction, "cum_P": cum_p}


def compare_reference(op_name: str, facts: dict[str, float], reference: dict) -> None:
    """At the default seed, key values must match those recorded in reference.json."""
    recorded = reference.get(op_name)
    if recorded is None:
        raise CheckFailed("no recorded reference values")
    for key, ref in recorded["facts"].items():
        got = facts.get(key)
        if got is None or not math.isclose(got, ref, rel_tol=REF_REL_TOL, abs_tol=REF_ABS_TOL):
            raise CheckFailed(f"{key} = {got!r}, recorded {ref!r}")
