"""Span tracer that wraps calls into jctrap at their call sites.

Each target is a module attribute that jctrap looks up when it calls, such
as `jctrap.experiment.jcm_entangle` (looked up by `run_sequence`) or
`jctrap.cli.write_classical_csv` (looked up by `write_outputs`).  While the
tracer is installed, each call through a target records a span
`[name, start, end, parent, run id]` in memory; the tracer restores every
original attribute when it is removed.  A tracer made with
`record_spans=False` only counts, and keeps nothing per call.  The layer of
a span is the part of its name before the first dot.

Self time is a span's duration minus the durations of its direct children.
Calls are nested and single-threaded, so the self times of all spans under a
root add up to the root's duration.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

_MARK = "__perfbench_wrapper__"

MODULES = ("cli", "experiment", "dynamics", "fock", "stochastic", "classical")


def _nbytes(obj) -> int:
    """Bytes of the arrays in a value: an array, a state object or a tuple of them."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, tuple):
        return sum(_nbytes(x) for x in obj)
    return sum(
        v.nbytes for v in getattr(obj, "__dict__", {}).values() if isinstance(v, np.ndarray)
    )


class Tracer:
    """Spans and counters for calls through the wrapped jctrap attributes."""

    def __init__(self, record_spans: bool = True):
        """With record_spans=False the wrappers only call their observers."""
        self.record_spans = record_spans
        self.spans: list[list] = []
        self.run_id = 0
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, observe=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        if not self.record_spans:

            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                observe(counts, args, result)
                return result

        else:

            def wrapper(*args, **kwargs):
                rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
                stack.append(len(spans))
                spans.append(rec)
                rec[1] = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[2] = time.perf_counter()
                    stack.pop()
                if observe is not None:
                    observe(counts, args, result)
                return result

        setattr(wrapper, _MARK, True)
        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    @contextmanager
    def installed(self, targets):
        """Wrap each (module, attribute, span name, observe) target, then restore it."""
        try:
            for module, attr, name, observe in targets:
                owner = importlib.import_module(f"jctrap.{module}")
                if not hasattr(owner, attr):
                    # The call site has gone; the span's metrics read 0.
                    self.missing.append(f"jctrap.{module}.{attr}")
                    continue
                self._patch(owner, attr, self._wrap(name, getattr(owner, attr), observe))
            field_state = importlib.import_module("jctrap.fock").FieldState
            original = field_state.__post_init__
            counts = self.counts

            def counted_post_init(state):
                counts["field_states"] += 1
                original(state)

            setattr(counted_post_init, _MARK, True)
            self._patch(field_state, "__post_init__", counted_post_init)
            yield self
        finally:
            while self._originals:
                owner, attr, original = self._originals.pop()
                setattr(owner, attr, original)

    # -- summarising -------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, summed duration and summed self time."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return dict(out)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def write(self, path) -> None:
        """Write the spans as tab-separated `name start end parent run`."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\trun\n")
            for name, start, end, parent, run in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{run}\n")


def installed_wrappers() -> list[str]:
    """Names of jctrap attributes that still hold a tracer wrapper."""
    import jctrap

    found = []
    for mod_name in MODULES:
        module = importlib.import_module(f"jctrap.{mod_name}")
        for attr, value in vars(module).items():
            if getattr(value, _MARK, False):
                found.append(f"jctrap.{mod_name}.{attr}")
            if isinstance(value, type):
                found += [
                    f"jctrap.{mod_name}.{attr}.{a}"
                    for a, v in vars(value).items()
                    if getattr(v, _MARK, False)
                ]
    found += [f"jctrap.{a}" for a, v in vars(jctrap).items() if getattr(v, _MARK, False)]
    return found


# -- what the traced run wraps ---------------------------------------------


def _count_levels(counts, args, result):
    # First stage of every atom's update: the number of Fock levels updated.
    first = args[0]
    counts["levels"] += first.shape[0] if isinstance(first, np.ndarray) else first.n_max + 1
    counts["update_bytes"] += _nbytes(first) + _nbytes(result)


def _count_cm_levels(counts, args, result):
    counts["levels"] += len(result[0])
    counts["update_bytes"] += _nbytes(result)


def _count_bytes(counts, args, result):
    counts["update_bytes"] += _nbytes(args[0]) + _nbytes(result)


def _count_run(counts, args, result):
    counts["step_records"] += len(result.steps)
    if args[0].mode == "sample":
        counts["sampled_runs"] += 1
        counts["sampled_successes"] += result.n_failures == 0 and result.terminated_early is None


def _count_atom(counts, args, result):
    counts["atoms"] += 1


def _count_map_steps(counts, args, result):
    counts["map_steps"] += len(result[0])


# The timing draws, at the two places jctrap calls them.  Atom transits are
# counted from them; a classical map step counts as one transit.
DRAW_TARGETS = (
    ("experiment", "sample_timing", "stochastic.draw", _count_atom),
    ("classical", "sample_timing_array", "stochastic.draw", _count_map_steps),
)

# (module whose attribute is wrapped, attribute, span name, observer)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cli", "write_outputs", "cli.write_outputs", None),
    ("cli", "write_trajectory_csv", "cli.write_csv", None),
    ("cli", "write_distribution_csv", "cli.write_csv", None),
    ("cli", "write_sweep_csv", "cli.write_csv", None),
    ("cli", "write_classical_csv", "cli.write_csv", None),
    ("cli", "run_sequence", "experiment.run_sequence", _count_run),
    ("cli", "sweep", "experiment.sweep", None),
    ("cli", "classical_trajectory", "classical.classical_trajectory", None),
    ("experiment", "run_sequence", "experiment.run_sequence", _count_run),
    ("experiment", "sampled_success_estimate", "experiment.sampled_success_estimate", None),
    ("experiment", "top_level_probability", "experiment.guard", None),
    ("experiment", "nsm_step", "dynamics.nsm_step", _count_levels),
    ("experiment", "jcm_entangle", "dynamics.entangle", _count_levels),
    ("experiment", "cm_project", "dynamics.project", _count_bytes),
    ("experiment", "project_amplitudes", "dynamics.project", _count_bytes),
    ("experiment", "correlated_cm_factors", "dynamics.cm_factors", _count_cm_levels),
    ("experiment", "renormalize", "fock.renormalize", None),
    ("experiment", "distribution_stats", "fock.stats", None),
    ("experiment", "coherent_state", "fock.build_state", None),
    ("experiment", "fock_basis_state", "fock.build_state", None),
    ("dynamics", "renormalize", "fock.renormalize", None),
    ("experiment", "derive_stream", "stochastic.derive_stream", None),
    ("classical", "derive_stream", "stochastic.derive_stream", None),
) + DRAW_TARGETS


LAYERS = ("cli", "experiment", "dynamics", "fock", "stochastic", "classical", "bench")
