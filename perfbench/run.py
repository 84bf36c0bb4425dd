"""weakamp benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {verify,damped,pointwise} \
        --seed N --seconds S --trace {0,1}

Every measured unit of work runs in a fresh interpreter (perfbench/worker.py)
with BLAS/OpenMP threads pinned to 1, because weakamp keeps process-wide
caches that a command-line user never has warm.  Units repeat until
``--seconds`` is used up, and at least ``MIN_UNITS`` times.  Set-up time is
measured by ``SETUP_PROBES`` separate fresh interpreters.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics;
with ``--trace 1`` the units run with timing wrappers (perfbench/tracing.py)
and the last line carries the per-layer metrics.  The line before it is a
JSON detail record: seed, machine, ``src/`` line count, samples per metric,
every correctness check and its failures.  See perfbench/README.md for the
workloads and the layer -> metric -> workload map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from speed import NOMINAL_S

WORKER = Path(__file__).resolve().parent / "worker.py"

#: Work in one unit.  verify: the default ``weakamp verify``; damped:
#: damping strengths, each with three maxima; pointwise: seeded inputs.
SIZES = {"verify": {"samples": 1000}, "damped": {"gammas": 4},
         "pointwise": {"inputs": 20000}}
MIN_UNITS = 3
SETUP_PROBES = 9
#: The whole run must end well within 180 s.
DEADLINE_S = 165.0
#: Percentile reported as op_tail_norm, fixed per workload so that runs
#: with a few more or fewer operations stay comparable.  verify and damped:
#: the highest with at least 10 of a run's operations above it (about 126
#: and 70-90).  pointwise: p99 falls on the edge between inputs whose
#: oracle coupling is cached and those where it is not, and p99.9 moves
#: with timer noise, so p99.5, the middle of the uncached-oracle inputs.
TAIL_PERCENTILE = {"verify": 90.0, "damped": 75.0, "pointwise": 99.5}

#: Gated metrics.  ``*_norm`` are times divided by the reference kernel's
#: time measured around them (speed.py), unit ``ref``; ``setup_s`` is that
#: ratio in seconds of the nominal machine.  Raw times go to the detail record.
END_TO_END = {"setup_s": "s", "wall_norm": "ref", "op_p50_norm": "ref",
              "op_tail_norm": "ref", "peak_rss_mb": "MB"}

PER_LAYER = {
    "optimize.maximize_calls": "count",
    "optimize.maximize_ms_p50": "ms",
    "optimize.probes_per_call": "count",
    "optimize.probe_us": "us",
    "optimize.coarse_grid_ms": "ms",
    "optimize.after_grid_ms": "ms",
    "optimize.after_grid_probes": "count",
    "optimize.search_overhead_share": "fraction",
    "optimize.converged_ratio": "fraction",
    "optimize.share": "fraction",
    "oracle.grid_evolve_us": "us",
    "oracle.joint_evolve_us": "us",
    "oracle.adjudicate_s": "s",
    "oracle.repeated_coupling_share": "fraction",
    "oracle.share": "fraction",
    "verification.qubit_oracle_s": "s",
    "verification.gaussian_oracle_s": "s",
    "verification.optimizer_s": "s",
    "verification.adjudication_s": "s",
    "verification.share": "fraction",
    "channels.depolarizing_us": "us",
    "channels.phase_damping_us": "us",
    "channels.amplitude_damping_us": "us",
    "channels.share": "fraction",
    "qubit.pure_state_us": "us",
    "qubit.density_us": "us",
    "qubit.share": "fraction",
    "gaussian.shifts_us": "us",
    "gaussian.max_shifts_us": "us",
    "gaussian.share": "fraction",
    "qubitmeter.reading_us": "us",
    "qubitmeter.max_reading_us": "us",
    "qubitmeter.share": "fraction",
    "cli.fig_s": "s",
    "cli.share": "fraction",
    "checks.run": "count",
    "checks.worst_severity": "ratio",
    "trace.overhead_share": "fraction",
    "src_lines": "lines",
}

#: Every one of these checks must run in each run of its workload.
CHECKS = {
    "verify": ("verify.exit_code", "verify.pass_printed", "verify.report",
               "verify.report_ok", "verify.samples", "verify.sections",
               "verify.optimizer_cases", "verify.records", "verify.adjudication_csv"),
    "damped": ("damped.noiseless_sup",),
    "pointwise": ("pointwise.dominance", "pointwise.qubit_oracle",
                  "pointwise.gaussian_oracle", "pointwise.fig_csv", "pointwise.shift_csv"),
}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class WorkerError(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(spec: dict, deadline: float) -> tuple[dict, float]:
    """Run one worker; returns its JSON result and its wall time."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("no time left before the deadline")
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), json.dumps(spec)],
                              capture_output=True, text=True, timeout=timeout,
                              env=child_env(), cwd=spec["root"])
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker timed out after {timeout:.0f} s") from None
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(lines[-1]), elapsed
    except ValueError:
        raise WorkerError(f"worker printed no result: {lines[-1][:200]!r}") from None


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    rank = p / 100.0 * (len(sorted_values) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (rank - lo) * (sorted_values[hi] - sorted_values[lo])


def src_lines(root: Path) -> int:
    return sum(len(path.read_bytes().splitlines())
               for path in sorted((root / "src").rglob("*.py")))


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "platform": platform.platform()}


def measure(workload: str, seed: int, seconds: float, trace: bool, root: Path,
            tmp: Path, sizes: dict, min_units: int, setup_probes: int) -> dict:
    """Run the set-up probes and the units; returns the raw worker results."""
    deadline = time.monotonic() + DEADLINE_S
    base = {"root": str(root), "tmp": str(tmp)}
    setups = [run_worker(dict(base, mode="setup"), deadline)[0]
              for _ in range(setup_probes)]

    units, twin, error = [], None, None
    spent: list[float] = []
    start = time.monotonic()
    index = 0
    while True:
        elapsed = time.monotonic() - start
        typical = statistics.median(spent) if spent else 0.0
        if len(units) >= min_units and elapsed + typical > seconds:
            break
        if spent and deadline - time.monotonic() < 1.5 * typical:
            break
        spec = dict(base, mode="unit", workload=workload, seed=seed, unit=index,
                    size=sizes[workload], trace=trace)
        try:
            if trace and twin is None:
                # The same unit untraced, to measure the tracing overhead.
                twin, took = run_worker(dict(spec, trace=False), deadline)
                spent.append(took)
            result, took = run_worker(spec, deadline)
        except WorkerError as exc:
            error = str(exc)
            break
        spent.append(took)
        units.append(result)
        index += 1
    return {"setups": setups, "units": units, "twin": twin, "error": error}


def correctness(workload: str, raw: dict, min_units: int) -> dict:
    runs = raw["units"] + ([raw["twin"]] if raw["twin"] else [])
    checks: dict[str, list[int]] = {name: [0, 0] for name in CHECKS[workload]}
    for unit in runs:
        for name, (run, failed) in unit["checks"].items():
            entry = checks.setdefault(name, [0, 0])
            entry[0] += run
            entry[1] += failed
    attempted = sum(u["attempted"] for u in runs)
    failed = sum(u["failed"] for u in runs)
    short = sum(1 for u in runs if u["attempted"] != u["expected"])
    if raw["error"] is not None:  # a worker that crashed or hung is a failed operation
        attempted += 1
        failed += 1
    checks_failed = sum(f for _, f in checks.values())
    not_run = [name for name, (run, _) in checks.items() if run == 0]
    # A run cut by the deadline before ``min_units`` units has too few
    # samples behind its medians and tails to be trusted.
    too_few = len(raw["units"]) < min_units
    return {
        "correct": (failed == 0 and checks_failed == 0 and short == 0 and not not_run
                    and not too_few),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "checks_failed": checks_failed,
        "checks_not_run": not_run,
        "units_short": short,
        "too_few_units": too_few,
        "checks": checks,
        "worst_severity": max((u["worst_severity"] for u in runs), default=0.0),
        "errors": [e for u in runs for e in u["errors"]][:5] + (
            [raw["error"]] if raw["error"] else []),
    }


def end_to_end(workload: str, raw: dict) -> tuple[dict, dict]:
    """Gated metrics, and the raw times and sample counts behind them."""
    units = raw["units"]
    p = TAIL_PERCENTILE[workload]
    ops = sorted(t for u in units for t in u["ops"])
    ops_norm = sorted(t for u in units for t in u["ops_norm"])
    values = {
        "setup_s": statistics.median(s["setup_s"] / s["ref_s"] * NOMINAL_S
                                     for s in raw["setups"]),
        "wall_norm": statistics.median(u["wall_norm"] for u in units),
        "op_p50_norm": statistics.median(ops_norm),
        "op_tail_norm": percentile(ops_norm, p),
        "peak_rss_mb": max(u["rss_mb"] for u in units),
    }
    tail_ms = 1e3 * percentile(ops, p)
    raw_times = {
        "setup_s": statistics.median(s["setup_s"] for s in raw["setups"]),
        "wall_s": statistics.median(u["wall_s"] for u in units),
        "op_p50_ms": 1e3 * statistics.median(ops),
        "op_tail_ms": tail_ms,
        "ref_ms": 1e3 * statistics.median(r for u in units for r in u["refs"]),
        "setup_probes": len(raw["setups"]), "units": len(units), "ops": len(ops),
        "op_tail": f"p{p:g}", "ops_above_tail": sum(1 for t in ops if 1e3 * t > tail_ms),
    }
    return values, raw_times


def _median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer(raw: dict, lines: int, worst: float, checks_run: int) -> dict:
    units = raw["units"]
    n = len(units)
    traces = [u["trace"] for u in units]
    names = {name for t in traces for name in t["stats"]}
    stats = {}
    for name in names:
        parts = [t["stats"][name] for t in traces if name in t["stats"]]
        stats[name] = {key: sum(p[key] for p in parts) for key in ("calls", "total", "self")}
    empty = {"calls": 0, "total": 0.0, "self": 0.0}

    def stat(name):
        return stats.get(name, empty)

    def us(name):
        """Mean microseconds per call."""
        s = stat(name)
        return 1e6 * s["total"] / s["calls"] if s["calls"] else 0.0

    def per_unit(name):
        return stat(name)["total"] / n

    wall = sum(u["wall_s"] for u in units)

    def share(layer):
        return sum(s["self"] for name, s in stats.items()
                   if name.startswith(layer + ".")) / wall

    calls = [c for t in traces for c in t["maximize"]]
    gridded = [c for c in calls if c["grid_s"] is not None]
    probes = sum(c["probes"] for c in calls)
    wrapper = statistics.median(t["probe_overhead_s"] for t in traces)
    busy = sum(c["dur"] for c in calls) - probes * wrapper
    inside = sum(c["objective_s"] for c in calls)
    grid_calls = stat("oracle.gaussian_grid_evolve")["calls"]
    twin, first = raw["twin"], units[0]
    values = {
        "optimize.maximize_calls": len(calls) / n,
        "optimize.maximize_ms_p50": 1e3 * _median_or_zero(c["dur"] for c in calls),
        "optimize.probes_per_call": probes / len(calls) if calls else 0.0,
        "optimize.probe_us": 1e6 * inside / probes if probes else 0.0,
        "optimize.coarse_grid_ms": 1e3 * _median_or_zero(c["grid_s"] for c in gridded),
        "optimize.after_grid_ms": 1e3 * _median_or_zero(c["dur"] - c["grid_s"]
                                                         for c in gridded),
        "optimize.after_grid_probes": (sum(c["probes"] - c["grid_probes"] for c in gridded)
                                       / len(gridded) if gridded else 0.0),
        "optimize.search_overhead_share": max(busy - inside, 0.0) / busy if busy > 0 else 0.0,
        "optimize.converged_ratio": (sum(c["converged"] for c in calls) / len(calls)
                                     if calls else 0.0),
        "optimize.share": share("optimize"),
        "oracle.grid_evolve_us": us("oracle.gaussian_grid_evolve"),
        "oracle.joint_evolve_us": us("oracle.qubit_joint_evolve"),
        "oracle.adjudicate_s": per_unit("oracle.adjudicate_variants"),
        "oracle.repeated_coupling_share": (sum(t["grid_evolve_repeats"] for t in traces)
                                           / grid_calls if grid_calls else 0.0),
        "oracle.share": share("oracle"),
        "verification.qubit_oracle_s": per_unit("verification.qubit_oracle_battery"),
        "verification.gaussian_oracle_s": per_unit("verification.gaussian_oracle_battery"),
        "verification.optimizer_s": per_unit("verification.optimizer_battery"),
        "verification.adjudication_s": per_unit("verification.adjudication_battery"),
        "verification.share": share("verification"),
        "channels.depolarizing_us": us("channels.depolarizing")
        + us("channels.apply.depolarizing"),
        "channels.phase_damping_us": us("channels.phase_damping")
        + us("channels.apply.phase_damping"),
        "channels.amplitude_damping_us": us("channels.amplitude_damping")
        + us("channels.apply.amplitude_damping"),
        "channels.share": share("channels"),
        "qubit.pure_state_us": us("qubit.pure_state"),
        "qubit.density_us": us("qubit.density"),
        "qubit.share": share("qubit"),
        "gaussian.shifts_us": us("gaussian.gaussian_shifts"),
        "gaussian.max_shifts_us": us("gaussian.gaussian_max_shifts"),
        "gaussian.share": share("gaussian"),
        "qubitmeter.reading_us": us("qubitmeter.postselected_reading"),
        "qubitmeter.max_reading_us": us("qubitmeter.qubit_max_reading"),
        "qubitmeter.share": share("qubitmeter"),
        "cli.fig_s": per_unit("cli.main.fig"),
        "cli.share": share("cli"),
        "checks.run": checks_run,
        "checks.worst_severity": worst,
        "trace.overhead_share": (first["wall_norm"] - twin["wall_norm"]) / first["wall_norm"],
        "src_lines": lines,
    }
    return values


def main(argv=None, sizes=SIZES, min_units=MIN_UNITS, setup_probes=SETUP_PROBES) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "weakamp" / "__init__.py").is_file():
        print(f"run.py: no weakamp sources under {root / 'src'}; run from the root "
              "of a weakamp checkout", file=sys.stderr)
        return 2
    (root / ".perfbench").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".perfbench"))
    try:
        raw = measure(args.workload, args.seed, args.seconds, bool(args.trace), root, tmp,
                      sizes, min_units, setup_probes)
    except WorkerError as exc:
        print(f"run.py: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if not raw["units"]:
        print(f"run.py: no unit completed: {raw['error']}", file=sys.stderr)
        return 1
    verdict = correctness(args.workload, raw, min_units)
    lines = src_lines(root)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": sizes[args.workload],
        "machine": dict(machine(), numpy=raw["units"][0]["numpy"]),
        "src_lines": lines,
        "error_rate": verdict["error_rate"],
        "checks_failed": verdict["checks_failed"],
        "worst_severity": verdict["worst_severity"],
        "checks": verdict["checks"],
        "checks_not_run": verdict["checks_not_run"],
        "units_short": verdict["units_short"],
        "too_few_units": verdict["too_few_units"],
        "errors": verdict["errors"],
        "unit_wall_s": [u["wall_s"] for u in raw["units"]],
        "unit_import_s": [u["import_s"] for u in raw["units"]],
        "unit_wall_norm": [u["wall_norm"] for u in raw["units"]],
        "setup_s": [s["setup_s"] for s in raw["setups"]],
    }
    if args.trace:
        checks_run = sum(run for run, _ in verdict["checks"].values())
        values = per_layer(raw, lines, verdict["worst_severity"], checks_run)
        units = PER_LAYER
        detail["untraced_twin_wall_s"] = raw["twin"]["wall_s"]
        detail["ref_ms"] = 1e3 * statistics.median(r for u in raw["units"] for r in u["refs"])
        detail["untraced_entry_points"] = sorted({m for u in raw["units"]
                                                  for m in u["trace"]["missing"]})
    else:
        values, detail["raw"] = end_to_end(args.workload, raw)
        units = END_TO_END
    detail["metrics"] = values
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
