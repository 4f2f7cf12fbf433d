"""The basis-cut check: how far a run's outputs move when its Fock basis grows.

`basis_cut_gaps` runs one config at its n_max and again with `extra` more
levels, and returns the four gaps that say what the cut at n_max does to the
run's outputs.  `run` is the update under test: `run_sequence` by default, or
any function of a RunConfig that returns a RunResult with step records.
"""
from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from jctrap.experiment import RunConfig, run_sequence


class BasisCutGaps(NamedTuple):
    final_p: float  # largest |ΔP(n)| of the final distribution, over the wider basis
    cum_p: float  # |Δ final cum_P|, relative to the wider basis's value
    mean_n: float  # largest per-step |Δ mean_n|
    delta_n: float  # largest per-step |Δ delta_n|


def basis_cut_gaps(config: RunConfig, extra: int = 20, run=run_sequence) -> BasisCutGaps:
    """The gaps between a run at config.n_max and the same run at n_max + extra.

    Both runs must reach their last atom, with a step record per atom.
    """
    cut = run(config)
    wide = run(replace(config, n_max=config.n_max + extra))
    for result in (cut, wide):
        assert result.terminated_early is None, result.terminated_early
        assert len(result.steps) == config.n_atoms
    p_cut = np.zeros_like(wide.final_distribution)
    p_cut[: len(cut.final_distribution)] = cut.final_distribution

    def step_gap(field: str) -> float:
        values = [[getattr(step, field) for step in result.steps] for result in (cut, wide)]
        return float(np.max(np.abs(np.subtract(*values)), initial=0.0))

    return BasisCutGaps(
        final_p=float(np.max(np.abs(p_cut - wide.final_distribution))),
        cum_p=abs(cut.final_cum_P - wide.final_cum_P) / wide.final_cum_P,
        mean_n=step_gap("mean_n"),
        delta_n=step_gap("delta_n"),
    )
