"""jctrap benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a jctrap checkout.  The run times SETUP_PROBES fresh
interpreters from start to resolved config (set-up), then starts one fresh
single-threaded worker process that runs the workload in a closed loop for
T seconds (see worker.py).  It prints every metric with its unit, the
machine it ran on, and as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a separate traced run.  Scratch output goes to
.perfbench_out/ in the checkout; each result is also appended to
.perfbench_out/results.jsonl.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Fresh interpreters timed for setup_s, after one untimed probe that
# writes the bytecode caches.
SETUP_PROBES = 7

# Set-up is scaled to a reference host speed by the time of a fresh
# interpreter that imports a fixed set of standard-library modules: the same
# kind of work as set-up (start-up, unmarshalling, extension loading) with
# no jctrap in it.  One runs before each probe and one after the last, and
# each probe is scaled by the mean of its two neighbours.  The compute
# kernel of hostspeed.py over-corrects set-up, which slows less than pure
# computation when the host is busy.
SPAWN_CALIBRATION = (
    "import asyncio, csv, decimal, email.mime.multipart, http.client, json, logging, "
    "sqlite3, tarfile, unittest, xml.etree.ElementTree, zipfile"
)
REFERENCE_SPAWN_S = 0.1

# Every process this run starts ends within --seconds plus this margin of
# the start.  Set-up probes, the worker's start, its warm-up and checks and
# the last batch's overrun take well under a minute even on a slow host; at
# --seconds 15 the run ends within 170 s.
DEADLINE_MARGIN_S = 155.0

# BENCHMARK.json, beside this directory, names every metric and its unit.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_child(cmd: list[str], env: dict[str, str], deadline: float) -> subprocess.CompletedProcess:
    """Run a child to completion; on the deadline it is killed and waited for."""
    return subprocess.run(
        cmd, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - _now()),
        check=True,
    )


def setup_times(workload: str, seed: int, env: dict[str, str], deadline: float):
    """(set-up, import, config, calibration) seconds of each timed probe."""
    probe = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    calibration = [sys.executable, "-c", SPAWN_CALIBRATION]

    def spawn(cmd):
        spawned = _now()
        out = _run_child(cmd, env, deadline).stdout
        return spawned, _now() - spawned, out

    spawn(probe)
    cal_before = spawn(calibration)[1]
    times = []
    for _ in range(SETUP_PROBES):
        spawned, _, out = spawn(probe)
        t_import, t_config, t_resolved = json.loads(out.strip().splitlines()[-1])
        cal_after = spawn(calibration)[1]
        times.append((t_resolved - spawned, t_config - t_import, t_resolved - t_config,
                      (cal_before + cal_after) / 2))
        cal_before = cal_after
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="jctrap benchmark: one run of one workload")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    start = _now()
    deadline = start + args.seconds + DEADLINE_MARGIN_S
    root = Path.cwd()
    if not (root / "src" / "jctrap" / "cli.py").is_file():
        print("perfbench: src/jctrap not found; run from the root of a jctrap checkout",
              file=sys.stderr)
        return 2
    env = _child_env(root)
    work = root / ".perfbench_out" / args.workload
    try:
        probes = setup_times(args.workload, args.seed, env, deadline)
        _run_child(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", str(work)],
            env, deadline,
        )
    except subprocess.CalledProcessError as exc:
        print(f"perfbench: {exc.cmd[1]} failed with exit code {exc.returncode}:\n{exc.stderr}",
              file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"perfbench: {exc.cmd[1]} did not finish before the deadline", file=sys.stderr)
        return 1
    raw = json.loads((work / "result.json").read_text(encoding="utf-8"))

    attempted, failed = raw["attempted"], raw["failed"]
    if args.trace:
        values = dict(raw["layers"])
        values["cli.import_s"] = statistics.median(p[1] for p in probes)
        values["cli.config_s"] = statistics.median(p[2] for p in probes)
        values["failed_frac"] = failed / attempted
        section = "per_layer"
    else:
        walls = [w * f for w, f in zip(raw["walls"], raw["host_factors"])]
        values = {
            "setup_s": statistics.median(p[0] * REFERENCE_SPAWN_S / p[3] for p in probes),
            "wall_s": statistics.median(walls),
            "atoms_per_s": statistics.median(raw["atoms"] / w for w in walls),
            "peak_rss_mb": raw["peak_rss_mb"],
            "ok_frac": 1.0 - failed / attempted,
        }
        section = "end_to_end"
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json {section}: {sorted(set(values) ^ set(units))}"
        )
    metrics = {k: {"value": v, "unit": units[k]} for k, v in sorted(values.items())}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}: "
          f"{attempted} operations, {len(raw['walls'])} timed batches, {len(probes)} set-up probes, "
          f"{_now() - start:.1f} s in all")
    print("environment: " + json.dumps(raw["env"]))
    print(f"as measured: setup {statistics.median(p[0] for p in probes):.4g} s, "
          f"batch wall {statistics.median(raw['walls']):.4g} s; "
          f"host-speed factor {statistics.median(raw['host_factors']):.3f}, "
          f"set-up calibration {statistics.median(p[3] for p in probes):.4g} s")
    for error in raw["errors"]:
        print(f"FAILED {error}")
    if raw.get("missing_targets"):
        print("trace targets not found, their metrics read 0: " + ", ".join(raw["missing_targets"]))
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    with open(root / ".perfbench_out" / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace,
                             "env": raw["env"], "walls": raw["walls"],
                             "host_factors": raw["host_factors"],
                             "setup_probes": probes, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
