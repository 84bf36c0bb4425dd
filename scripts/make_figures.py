#!/usr/bin/env python3
"""Regenerate every figure CSV (one per ``weakamp.cli.FIGURES`` entry) into results/.

All six are closed forms: figs 1-4 the noisy maxima, figs 5-6 the
amplitude-damping suprema (``amplitude_damping_max``).  Each table takes
under 1 ms in-process.  A fresh ``weakamp fig 1`` took about 160 ms on a
2-vCPU Xeon with Python 3.11 and numpy 2.4: about a quarter of it the bare
interpreter start-up and nearly half numpy's import.
"""

import pathlib
import sys
import time

from weakamp.cli import FIGURES, main

OUT_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def run() -> int:
    OUT_DIR.mkdir(exist_ok=True)
    for n in FIGURES:
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
