#!/usr/bin/env python3
"""Regenerate all six figure CSVs into results/.

Figs 1-4 are closed forms and take well under a second each.  The
optimizer-backed amplitude-damping sweeps take about 8 s (fig 5) and 1.3 s
(fig 6) on a 2-vCPU Xeon with Python 3.11; nearly all of fig 5 is its
position-shift searches, 20 of 21 of which end at the cycle limit without
converging.
"""

import pathlib
import sys
import time

from weakamp.cli import main

OUT_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def run() -> int:
    OUT_DIR.mkdir(exist_ok=True)
    for n in range(1, 7):
        target = OUT_DIR / f"fig{n}.csv"
        start = time.time()
        code = main(["fig", str(n), "--output", str(target)])
        if code != 0:
            print(f"fig {n} failed with exit code {code}", file=sys.stderr)
            return code
        print(f"fig {n}: wrote {target} in {time.time() - start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(run())
