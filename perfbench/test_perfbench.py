"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

Run from the root of a jctrap checkout; takes about a minute, most of it
in one smoke run of each workload.
"""
import json
import math
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
import worker  # noqa: E402
from tracer import DRAW_TARGETS, TARGETS, Tracer, installed_wrappers  # noqa: E402

END_TO_END = {m["name"] for m in run.SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in run.SPEC["per_layer"]}


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_smoke_run_of_each_workload(workload):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_refuses_a_directory_without_jctrap(tmp_path):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "figures", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def _originals():
    import importlib

    return {
        (module, attr): getattr(importlib.import_module(f"jctrap.{module}"), attr)
        for module, attr, _, _ in TARGETS
    }


def test_tracer_leaves_no_wrapper_installed(tmp_path):
    before = _originals()
    runner = worker.Runner(wl.WORKLOADS["figures"], 1, tmp_path)
    tracer = Tracer()
    with pytest.raises(RuntimeError), tracer.installed(TARGETS):
        assert installed_wrappers()
        runner.batch("traced", tracer)
        raise RuntimeError("leave the installed block by an exception")
    assert installed_wrappers() == []
    assert _originals() == before
    assert tracer.spans and not tracer.missing


def test_traced_run_matches_untraced_outputs_and_self_times_add_up(tmp_path):
    result = worker.run("figures", 1, seconds=0.01, trace=True, work_dir=tmp_path)
    # Untraced and traced batches are each checked against the warm-up's digests.
    assert result["failed"] == 0 and result["attempted"] == len(wl.WORKLOADS["figures"].ops)
    layers = result["layers"]
    self_sum = math.fsum(v for k, v in layers.items() if k.startswith("self."))
    assert self_sum == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    assert set(layers) | {"cli.import_s", "cli.config_s", "trace.overhead_frac", "failed_frac"} == (
        PER_LAYER
    )
    assert layers["experiment.runs"] == len(wl.FIGURE_PRESETS)
    assert layers["experiment.step_records"] == layers["experiment.atoms"] > 0


def test_counting_tracer_keeps_no_spans(tmp_path):
    runner = worker.Runner(wl.WORKLOADS["figures"], 1, tmp_path)
    counter = Tracer(record_spans=False)
    with counter.installed(DRAW_TARGETS):
        runner.batch("counted")
    assert installed_wrappers() == []
    assert counter.spans == [] and counter.counts["atoms"] > 0


def test_an_operation_counts_as_failed_once_however_many_batches_fail(tmp_path):
    runner = worker.Runner(wl.WORKLOADS["figures"], 1, tmp_path)
    runner.check(*runner.batch("warmup")[1:], first=True)
    for tag in ("b0", "b1"):
        _, out_root, outcomes = runner.batch(tag)
        outcomes[2] = 1
        runner.check(out_root, outcomes)
    assert (runner.attempted, runner.failed) == (len(wl.FIGURE_PRESETS), 1)
    assert list(runner.errors) == [2] and "exit code 1" in runner.errors[2]


def test_host_speed_sampler_samples_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        deadline = time.perf_counter() + 0.35
        while time.perf_counter() < deadline:
            pass
    assert len(sampler.samples) >= 2 and all(s > 0 for s in sampler.samples)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
