"""The benchmark's span targets still name jctrap call sites.

perfbench/tracer.py wraps jctrap module attributes by name and lets a
missing one read 0 calls; these checks catch a renamed or removed call site
in milliseconds.  The tracer is compiled from its source, so no bytecode is
written beside it.
"""
import importlib
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return namespace


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
