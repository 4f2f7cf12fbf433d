"""Trapping-state dynamics of repeated atom-cavity interactions.

Simulates a quantized field mode repeatedly coupled to excited two-level
atoms for fluctuating interaction times, with the field updated after each
atom by a non-selective or conditional (post-selected) measurement, plus
the classical driven-pendulum counterpart of the same dynamics.

The package exports what a run needs; everything else imports from its
submodule (`fock`, `dynamics`, `stochastic`, `classical`, `experiment`,
`cli`).
"""

__version__ = "0.1.0"

from .classical import classical_trajectory
from .errors import ConfigError, LeakageError, OrthogonalOutcomeError, SimulationError
from .experiment import (
    RunConfig,
    RunResult,
    StepRecord,
    build_run_config,
    run_sequence,
    sampled_success_estimate,
    sweep,
)

__all__ = [
    "__version__",
    "ConfigError",
    "LeakageError",
    "OrthogonalOutcomeError",
    "SimulationError",
    "RunConfig",
    "RunResult",
    "StepRecord",
    "build_run_config",
    "classical_trajectory",
    "run_sequence",
    "sampled_success_estimate",
    "sweep",
]
