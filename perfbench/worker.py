"""Run one set-up probe or one workload unit in this fresh interpreter.

Usage: python3 perfbench/worker.py '<json spec>'; run.py builds the spec.
Prints one JSON object as its last line.  weakamp is imported from the
checkout's ``src`` directory, never from an installed copy.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

from speed import EVERY_S, Speed

clock = time.perf_counter


def import_weakamp(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import weakamp
    import weakamp.cli  # noqa: F401  (the CLI is a layer of every workload)

    origin = Path(weakamp.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"weakamp was imported from {origin}, not from {src}")
    return weakamp


def setup_probe(spec: dict) -> dict:
    t0 = clock()
    import_weakamp(Path(spec["root"]))
    imported = clock()
    import workloads

    with tempfile.TemporaryDirectory(dir=spec["tmp"]) as tmp:
        t1 = clock()
        workloads.first_calls(Path(tmp))
        t2 = clock()
    return {"setup_s": (imported - t0) + (t2 - t1), "import_s": imported - t0,
            "ref_s": Speed(math.inf).refs[0]}


def unit_run(spec: dict) -> dict:
    t0 = clock()
    weakamp = import_weakamp(Path(spec["root"]))
    import_s = clock() - t0
    import numpy
    import workloads

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(weakamp)
    run = workloads.UNITS[spec["workload"]]
    # Traced units sample speed only before and after: a sample taken inside
    # a traced call would count as that call's self time.
    speed = Speed(math.inf if tracer else EVERY_S)
    with tempfile.TemporaryDirectory(dir=spec["tmp"]) as tmp:
        t1, paused = clock(), speed.paused
        unit = run(spec["seed"], spec["unit"], spec["size"], Path(tmp), speed)
        wall = clock() - t1 - (speed.paused - paused)
    speed.sample()
    return {
        "import_s": import_s,
        "wall_s": wall,
        "wall_norm": wall / speed.mean(),
        "ops": unit.ops,
        "ops_norm": unit.normalized_ops(),
        "refs": speed.refs,
        "attempted": unit.attempted,
        "failed": unit.failed,
        "expected": unit.expected,
        "errors": unit.errors,
        "checks": unit.checks.counts,
        "worst_severity": unit.checks.worst,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "trace": tracer.summary() if tracer else None,
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    os.chdir(spec["root"])
    result = setup_probe(spec) if spec["mode"] == "setup" else unit_run(spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
