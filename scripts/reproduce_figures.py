#!/usr/bin/env python3
"""Run every built-in sweep preset and write the datasets to an output dir.

Usage:  python scripts/reproduce_figures.py [outdir]

Each preset becomes one CSV (metadata preamble + table).  fig7 takes the
longest (a 2D sweep over R and the initial polar angle): about 1.1 s of
the 2.6-3.8 s the script takes as a process on a 2-core x86-64 host.  Point
failures (for example the phase of population states that cross the
Bloch-ball center) are recorded in the metadata, not fatal.
"""

import sys
import time
from pathlib import Path

from qflow.analysis import PRESET_NAMES
from qflow.cli import main


def run(outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    for name in PRESET_NAMES:
        dest = outdir / f"{name}.csv"
        t0 = time.perf_counter()
        code = main(["sweep", "--figure", name, "--out", str(dest)])
        status = "ok" if code == 0 else f"exit {code}"
        print(f"{name:12s} -> {dest}  [{status}, {time.perf_counter() - t0:.1f}s]")


if __name__ == "__main__":
    run(Path(sys.argv[1]) if len(sys.argv) > 1 else Path("figures_out"))
