#!/usr/bin/env python3
"""Regenerate all six figure CSVs into results/.

All six are closed forms: figs 1-4 the noisy maxima, figs 5-6 the
amplitude-damping suprema (``amplitude_damping_max``).  Each table takes
about 1 ms in-process; a fresh ``weakamp fig N`` takes about 0.3 s, nearly
all interpreter start-up and imports, on a 2-vCPU Xeon with Python 3.11.
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
