"""One run of one workload, in a fresh single-threaded process.

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1 --out DIR

run.py starts this with `src` on PYTHONPATH and one BLAS thread.  The
worker runs the workload's operations in a closed loop (each starts when
the previous one ends), one batch at a time:

1. an untimed warm-up batch, which counts atom transits (with counters that
   keep nothing per call) and runs the full correctness checks (and, at the
   default seed, compares key values with reference.json);
2. timed batches for T seconds, each checked to reproduce the warm-up's
   outputs byte for byte, with the host speed sampled while each runs;
3. with --trace 1, untraced batches take T/2 and traced batches the other
   T/2; each traced batch must also reproduce the warm-up's outputs.

An operation is attempted once per run, and failed if any of its batches
fails a check.  The worker writes DIR/result.json and, when traced, the last
traced batch's spans to DIR/spans.tsv.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import hostspeed
import workloads as wl
from tracer import DRAW_TARGETS, LAYERS, TARGETS, Tracer, installed_wrappers

HERE = Path(__file__).resolve().parent


class Runner:
    """Runs one workload's operations in batches and checks what they write."""

    def __init__(self, workload: wl.Workload, seed: int, work_dir: Path, reference=None):
        from jctrap import cli, experiment

        self.cli, self.experiment = cli, experiment
        self.ops = workload.ops
        self.configs = [wl.resolve(cli, op, seed) for op in self.ops]
        self.work_dir = work_dir
        self.reference = reference
        # Sampled operations are checked against the post-selected cum_P.
        self.cum_p = {
            i: experiment.run_sequence(replace(parsed.run, mode="postselect")).final_cum_P
            for i, (op, parsed) in enumerate(zip(self.ops, self.configs))
            if isinstance(op, wl.SampledOp)
        }
        # From the warm-up batch: each operation's digests (or sampled
        # fraction), and the key values its full check returned.
        self.expected: dict[int, object] = {}
        self.facts: dict[str, dict[str, float]] = {}
        # The first error of each operation that failed a check.
        self.errors: dict[int, str] = {}
        self.csv_bytes = 0
        self.digests_compared = 0
        self.digest_mismatches = 0

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return len(self.errors)

    def batch(self, tag: str, tracer: Tracer | None = None):
        """Run every operation once; returns (wall seconds, output dir, outcomes)."""
        out_root = self.work_dir / tag
        outcomes: list[object] = []
        start = time.perf_counter()
        with tracer.span("bench.batch") if tracer else nullcontext():
            for i, (op, parsed) in enumerate(zip(self.ops, self.configs)):
                if tracer:
                    tracer.run_id = i
                try:
                    if isinstance(op, wl.SampledOp):
                        outcome = self.experiment.sampled_success_estimate(
                            parsed.run, op.trajectories
                        )
                    else:
                        master_seed = int(parsed.tokens["seed"])
                        outcome = self.cli.main(op.argv(master_seed, out_root / f"op{i}"))
                except Exception as exc:  # an operation that raised counts as failed
                    outcome = exc
                outcomes.append(outcome)
        wall = time.perf_counter() - start
        return wall, out_root, outcomes

    def check(self, out_root: Path, outcomes: list[object], first: bool = False) -> None:
        """Check one batch; an operation that misses a check counts as failed."""
        for i, (op, outcome) in enumerate(zip(self.ops, outcomes)):
            try:
                self._check_op(i, op, out_root / f"op{i}", outcome, first)
            except (wl.CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
                self.errors.setdefault(i, f"{op.name}: {exc}")
        shutil.rmtree(out_root, ignore_errors=True)

    def _check_op(self, i: int, op, out_dir: Path, outcome, first: bool) -> None:
        if isinstance(outcome, Exception):
            raise wl.CheckFailed(f"raised {outcome!r}")
        if isinstance(op, wl.SampledOp):
            result = outcome
        else:
            if outcome != 0:
                raise wl.CheckFailed(f"exit code {outcome}")
            result = wl.manifest_digests(out_dir)
        if not first:
            if result != self.expected.get(i):
                raise wl.CheckFailed("outputs differ from the warm-up batch")
            return
        self.expected[i] = result
        if isinstance(op, wl.SampledOp):
            facts = wl.check_sampled(outcome, self.cum_p[i], op.trajectories)
        else:
            facts = wl.check_cli_outputs(op, out_dir)
            self.csv_bytes += sum(p.stat().st_size for p in out_dir.glob("*.csv"))
        self.facts[op.name] = facts
        if self.reference is not None:
            wl.compare_reference(op.name, facts, self.reference)
            if not isinstance(op, wl.SampledOp):
                recorded = self.reference[op.name]["digests"]
                self.digests_compared += len(recorded)
                self.digest_mismatches += sum(result.get(k) != v for k, v in recorded.items())


def timed_batches(runner: Runner, budget: float, traced: bool = False):
    """Closed loop of batches for `budget` seconds (at least one).

    Returns each batch's wall time and the host-speed factor sampled while
    it ran (see hostspeed.py).  Traced batches also give their layer
    metrics, the durations of their runs, and the last batch's tracer; each
    tracer is summarised and dropped before the next batch starts.
    Sampling adds about 0.5% to whichever span it interrupts.
    """
    walls, factors, layers, runs = [], [], [], []
    tracer = None
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < budget:
        tracer = Tracer() if traced else None
        with hostspeed.Sampler() as sampler, (
            tracer.installed(TARGETS) if tracer else nullcontext()
        ):
            wall, out_root, outcomes = runner.batch(f"b{len(walls)}", tracer)
        left = installed_wrappers()
        if left:
            raise RuntimeError(f"tracer left wrappers installed: {left}")
        runner.check(out_root, outcomes)
        walls.append(wall)
        factors.append(hostspeed.REFERENCE_KERNEL_S / sampler.kernel_s())
        if tracer:
            layers.append(layer_metrics(tracer, runner.csv_bytes))
            runs += tracer.durations("experiment.run_sequence")
    return walls, factors, (layers, runs, tracer)


def layer_metrics(tracer: Tracer, csv_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced batch."""
    spans = tracer.summary()
    counts = tracer.counts

    def total(name):
        return spans.get(name, {}).get("s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_time(name):
        return spans.get(name, {}).get("self_s", 0.0)

    update_s = sum(
        total(f"dynamics.{n}") for n in ("nsm_step", "entangle", "project", "cm_factors")
    )
    updates = sum(calls(f"dynamics.{n}") for n in ("nsm_step", "entangle", "cm_factors"))
    csv_s = total("cli.write_csv")
    map_s = self_time("classical.classical_trajectory")
    m = {
        "cli.write_outputs_s": total("cli.write_outputs"),
        "cli.csv_format_s": csv_s,
        "cli.hash_s": self_time("cli.write_outputs"),
        "cli.csv_bytes": csv_bytes,
        "cli.csv_mb_per_s": csv_bytes / 1e6 / csv_s if csv_s else 0.0,
        "experiment.runs": calls("experiment.run_sequence"),
        "experiment.atoms": counts["atoms"],
        "experiment.step_records": counts["step_records"],
        "experiment.run_s": total("experiment.run_sequence"),
        "experiment.self_s": self_time("experiment.run_sequence"),
        "experiment.guard_s": total("experiment.guard"),
        "experiment.guard_calls": calls("experiment.guard"),
        "experiment.sample_success_ratio": (
            counts["sampled_successes"] / counts["sampled_runs"] if counts["sampled_runs"] else 0.0
        ),
        "dynamics.nsm_step_s": total("dynamics.nsm_step"),
        "dynamics.nsm_step_calls": calls("dynamics.nsm_step"),
        "dynamics.entangle_s": total("dynamics.entangle"),
        "dynamics.entangle_calls": calls("dynamics.entangle"),
        "dynamics.project_s": total("dynamics.project"),
        "dynamics.project_calls": calls("dynamics.project"),
        "dynamics.cm_factors_s": total("dynamics.cm_factors"),
        "dynamics.cm_factors_calls": calls("dynamics.cm_factors"),
        "dynamics.us_per_update": update_s / updates * 1e6 if updates else 0.0,
        "dynamics.levels_updated": counts["levels"],
        "dynamics.computed_mb": counts["update_bytes"] / 1e6,
        "fock.renormalize_s": total("fock.renormalize"),
        "fock.renormalize_calls": calls("fock.renormalize"),
        "fock.stats_s": total("fock.stats"),
        "fock.stats_calls": calls("fock.stats"),
        "fock.field_states_built": counts["field_states"],
        "stochastic.derive_stream_s": total("stochastic.derive_stream"),
        "stochastic.derive_stream_calls": calls("stochastic.derive_stream"),
        "stochastic.draw_s": total("stochastic.draw"),
        "stochastic.draw_calls": calls("stochastic.draw"),
        "classical.steps": counts["map_steps"],
        "classical.map_s": map_s,
        "classical.ns_per_step": map_s / counts["map_steps"] * 1e9 if counts["map_steps"] else 0.0,
        "trace.wall_s": total("bench.batch"),
    }
    for layer in LAYERS:
        m[f"self.{layer}_s"] = 0.0
    for name, row in spans.items():
        m[f"self.{name.split('.')[0]}_s"] += row["self_s"]
    return m


def _tail(durations: list[float]) -> tuple[float, float, float]:
    """(p50, tail percentile, value there) in ms.

    The tail percentile is the highest whole percentile with at least ten
    samples beyond it, and never below the median.
    """
    import numpy as np

    if not durations:
        return 0.0, 0.0, 0.0
    ms = np.asarray(durations) * 1e3
    pct = max(50.0, math.floor(100.0 * (1.0 - 10.0 / len(ms))))
    return float(np.percentile(ms, 50)), pct, float(np.percentile(ms, pct))


def environment() -> dict[str, object]:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, work_dir: Path) -> dict:
    """One benchmark run; returns the raw measurements run.py turns into metrics."""
    reference = None
    if seed == wl.DEFAULT_SEED:
        reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    runner = Runner(wl.WORKLOADS[workload], seed, work_dir, reference)
    counter = Tracer(record_spans=False)
    with counter.installed(DRAW_TARGETS):
        _, out_root, outcomes = runner.batch("warmup")
    runner.check(out_root, outcomes, first=True)
    walls, factors, _ = timed_batches(runner, seconds / 2 if trace else seconds)
    out = {
        "atoms": counter.counts["atoms"] + counter.counts["map_steps"],
        "walls": walls,
        "host_factors": factors,
    }
    if trace:
        traced_walls, traced_factors, (per_batch, runs, tracer) = timed_batches(
            runner, seconds / 2, traced=True
        )
        layers = {k: math.fsum(b[k] for b in per_batch) / len(per_batch) for k in per_batch[0]}
        layers["experiment.run_p50_ms"], layers["experiment.run_tail_pct"], layers[
            "experiment.run_tail_ms"
        ] = _tail(runs)
        layers["cli.digest_mismatches"] = runner.digest_mismatches
        layers["cli.digests_compared"] = runner.digests_compared
        tracer.write(work_dir / "spans.tsv")
        layers["trace.overhead_frac"] = (
            statistics.median(w * f for w, f in zip(traced_walls, traced_factors))
            / statistics.median(w * f for w, f in zip(walls, factors))
            - 1.0
        )
        out["layers"] = layers
        out["missing_targets"] = tracer.missing
    out.update(
        attempted=runner.attempted,
        failed=runner.failed,
        errors=list(runner.errors.values()),
        # ru_maxrss is in KiB on Linux.
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        env=environment(),
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    (args.out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
