"""The benchmark's span targets and inputs still name jctrap call sites and options.

perfbench/tracer.py wraps jctrap module attributes by name and lets a
missing one read 0 calls, and perfbench/workloads.py passes config tokens
and flags that a removed option would turn into failed operations; these
checks catch either in milliseconds.  Both files are compiled from their
source, so no bytecode is written beside them.
"""
import importlib
import inspect
import sys
import types
from pathlib import Path

import pytest

from jctrap import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """The namespace of perfbench/<name>.py, registered as a module while it runs."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    sys.modules[module.__name__] = module  # dataclasses look their module up
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module.__dict__


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


@pytest.mark.parametrize("targets", ["TARGETS", "DRAW_TARGETS"])
def test_every_target_resolves(tracer, targets):
    missing = [
        f"jctrap.{module}.{attr}"
        for module, attr, _, _ in tracer[targets]
        if not hasattr(importlib.import_module(f"jctrap.{module}"), attr)
    ]
    assert missing == []


def test_level_counters_read_the_field_first(tracer):
    # _count_levels reads the populations or field state from args[0].
    counted = [
        getattr(importlib.import_module(f"jctrap.{module}"), attr)
        for module, attr, _, observe in tracer["TARGETS"]
        if observe is tracer["_count_levels"]
    ]
    assert [next(iter(inspect.signature(fn).parameters)) for fn in counted] == ["probs", "field"]


def test_every_workload_input_resolves(workloads, tmp_path):
    # Each operation's config resolves as the set-up probe resolves it, and
    # each CLI operation's arguments parse.
    parser = cli._build_parser()
    for workload in workloads["WORKLOADS"].values():
        for op in workload.ops:
            parsed = workloads["resolve"](cli, op, 0)
            assert parsed.run is not None or parsed.classical is not None
            if isinstance(op, workloads["CliOp"]):
                args = parser.parse_args(op.argv(int(parsed.tokens["seed"]), tmp_path))
                assert args.subcommand == op.command


def test_draw_targets_count_transits(tracer, tmp_path):
    # The benchmark counts classical steps from the length of the first item
    # that classical.sample_timing_array returns, and atoms from
    # experiment.sample_timing calls; installed() also wraps
    # FieldState.__post_init__, which must exist in every run.
    with tracer["Tracer"](record_spans=False).installed(tracer["DRAW_TARGETS"]) as traced:
        assert cli.main(["classical", "--preset", "fig1c", "--steps", "50",
                         "--out-dir", str(tmp_path / "classical")]) == 0
        assert cli.main(["run", "--preset", "fig2a", "--atoms", "3",
                         "--out-dir", str(tmp_path / "run")]) == 0
    assert traced.missing == []
    assert traced.counts["map_steps"] == 50
    assert traced.counts["atoms"] == 3
