"""Write every preset's outputs and print their digests.

    PYTHONPATH=src python tests/preset_digests.py OUT_DIR

Runs the CLI for the 7 run presets, the 2 classical presets and 3 sweeps
(fig4 at multiplier 2 ×20, fig2a at 0.1,1 ×20, fig1b at 0.02 ×4), each into
its own directory under OUT_DIR, and prints one `sha256  path` line per CSV
and one per manifest, the manifest hashed with its `duration_seconds` line
dropped.  Paths are relative to OUT_DIR, so two checkouts' outputs are the
same exactly when this script prints the same text for both.
"""
from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from jctrap import cli

SWEEPS = (("fig4", "2", "20"), ("fig2a", "0.1,1", "20"), ("fig1b", "0.02", "4"))


def cases():
    """(directory name, CLI arguments less --out-dir) of every case, in print order."""
    for name in cli.PRESET_NAMES:
        yield name, [cli.preset(name).command, "--preset", name]
    for name, mults, ensemble in SWEEPS:
        yield f"sweep-{name}", ["sweep", "--preset", name, "--spread-mults", mults,
                                "--ensemble", ensemble]


def main(out_dir: str) -> int:
    root = Path(out_dir)
    for name, argv in cases():
        out = root / name
        code = cli.main([*argv, "--out-dir", str(out)])
        if code != 0:
            print(f"exit {code}  {name}")
        for path in sorted(out.glob("*.csv")):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(root)}")
        lines = (out / "manifest.txt").read_text(encoding="utf-8").splitlines(keepends=True)
        kept = "".join(line for line in lines if not line.startswith("duration_seconds ="))
        digest = hashlib.sha256(kept.encode()).hexdigest()
        print(f"{digest}  {name}/manifest.txt, less duration_seconds")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
