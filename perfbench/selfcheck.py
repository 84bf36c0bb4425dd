"""Tiny-size self-check of the benchmark.

Usage, from the root of a checkout:  python3 perfbench/selfcheck.py

Runs every workload in both modes at a tiny size and asserts that the last
line names exactly the metrics of BENCHMARK.json, each with its unit and a
finite value, that the run is correct, and that every correctness check of
the workload ran.  Then asserts that the benchmark fails, without printing a
result, in a directory holding only BENCHMARK.json and the benchmark.
Takes about a minute; the verify workload's optimizer battery has a fixed
size.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

TINY = {"verify": {"samples": 50}, "damped": {"gammas": 1}, "pointwise": {"inputs": 500}}


def check_run(workload: str, trace: int, declared: dict) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace)], sizes=TINY, min_units=1, setup_probes=1)
    lines = out.getvalue().strip().splitlines()
    where = f"{workload} --trace {trace}"
    assert code == 0, f"{where}: exit code {code}"
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: incorrect: {detail}"
    assert result["failed"] == 0 and result["attempted"] >= 1, where
    expected = declared["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert set(got) == set(expected), f"{where}: {sorted(set(got) ^ set(expected))}"
    for name, metric in got.items():
        assert metric["unit"] == expected[name], f"{where}: unit of {name}"
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"]), \
            f"{where}: value of {name}"
    for name in run.CHECKS[workload]:
        runs, failed = detail["checks"][name]
        assert runs > 0 and failed == 0, f"{where}: check {name} ran {runs}, failed {failed}"
    assert not detail["checks_not_run"] and detail["units_short"] == 0 \
        and not detail["too_few_units"], where
    assert detail["src_lines"] > 0 and detail["machine"]["nproc"] >= 1, where
    print(f"ok  {where}: {len(got)} metrics, checks {detail['checks']}")


def check_bare_directory(root: Path) -> None:
    """Without the program's sources the benchmark must fail and print no result."""
    scratch = root / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        bare = Path(bare)
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(Path(run.__file__).parent, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "damped",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0, "benchmark succeeded without the program"
    assert '"metrics"' not in proc.stdout, "benchmark printed a result without the program"
    print(f"ok  bare directory: exit code {proc.returncode}")


def main() -> int:
    root = Path.cwd()
    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {key: {m["name"]: m["unit"] for m in declared[key]}
             for key in ("end_to_end", "per_layer")}
    assert units["end_to_end"] == run.END_TO_END, "end_to_end differs from run.py"
    assert units["per_layer"] == run.PER_LAYER, "per_layer differs from run.py"
    assert {w["name"] for w in declared["workloads"]} == set(run.SIZES)
    for workload in run.SIZES:
        for trace in (0, 1):
            check_run(workload, trace, units)
    check_bare_directory(root)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
