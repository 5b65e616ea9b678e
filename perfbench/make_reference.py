"""Record the reference outputs that the benchmark's gates compare against.

    python3 perfbench/make_reference.py

run from the repository root, writes ``perfbench/data/ledger_ref.json`` (the
``starsurf verify --json`` ledger) and ``perfbench/data/map_grid_ref.json``
(every grid image of every resolution in ``MAP_GRID_SETS``).  Re-record only
in a change that means to alter these outputs, and say so in that change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from workloads import DATA, MAP_GRID_SETS, map_grid_images  # noqa: E402


def main() -> int:
    from starsurf import svgout
    from starsurf.geometry import build_star

    DATA.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    ledger = DATA / "ledger_ref.json"
    proc = subprocess.run([sys.executable, "-m", "starsurf.cli", "verify", "--json", str(ledger)],
                          cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    if proc.returncode not in (0, 1) or not ledger.exists():
        print(f"verify failed with exit code {proc.returncode}", file=sys.stderr)
        return 1

    grids = {}
    for n in sorted({n for s in MAP_GRID_SETS for n in s}):
        images = map_grid_images(svgout.map_grid_scene(build_star(), n))
        grids[str(n)] = [[round(z.real, 14), round(z.imag, 14)] for z in images]
    (DATA / "map_grid_ref.json").write_text(json.dumps(grids, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
