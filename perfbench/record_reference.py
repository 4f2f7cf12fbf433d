"""Record reference.json: each operation's key values and output digests at the default seed.

    PYTHONPATH=src python3 perfbench/record_reference.py

Run from the root of a jctrap checkout.  Re-record only for a change whose
effect on the outputs is stated (for example last-ULP changes of a new
kernel); the default-seed check compares against these values.
"""
import json
import shutil
import sys
from pathlib import Path

import workloads as wl
from worker import HERE, Runner


def main() -> int:
    work = Path.cwd() / ".perfbench_out" / "record"
    reference = {}
    for workload in wl.WORKLOADS.values():
        runner = Runner(workload, wl.DEFAULT_SEED, work)
        _, out_root, outcomes = runner.batch("warmup")
        runner.check(out_root, outcomes, first=True)
        if runner.failed:
            print("\n".join(runner.errors.values()), file=sys.stderr)
            return 1
        for i, op in enumerate(workload.ops):
            entry = {"facts": runner.facts[op.name]}
            if isinstance(op, wl.CliOp):
                entry["digests"] = runner.expected[i]
            reference[op.name] = entry
    shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
