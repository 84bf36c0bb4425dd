"""One unit of each workload, run through weakamp's public API.

A unit runs in a fresh interpreter (see worker.py).  Inputs are drawn
before the timed region and outputs are checked after it, so an operation's
time covers calls into weakamp only.

* ``verify``: one ``weakamp verify`` command at its default sample count;
  its operations are the ``maximize`` searches it makes.
* ``damped``: ``amplitude_damping_max`` for dp, dq and the qubit reading at
  seeded damping strengths, the traffic behind figs 5-6.
* ``pointwise``: scalar-API traffic, one seeded input at a time, plus the
  ``fig 1``-``4`` and ``shift`` CSVs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import time
from pathlib import Path

import numpy as np

import weakamp
from speed import Speed
from tracing import replace_everywhere
from weakamp import cli

clock = time.perf_counter

#: Couplings of figs 1-6 (``cli.SWEEP_COUPLINGS``), repeated on purpose.
FIG_COUPLINGS = (0.1, 0.05, 0.03)
#: Coupling of the optimizer-backed figs 5-6.
DAMPED_COUPLING = 0.1
#: Criterion 6 of the acceptance gate: damped maxima vs the noiseless closed form.
DAMPED_TOLERANCE = 1e-4
#: Oracle tolerances of ``run_verify``, and the postselection probabilities
#: below which it skips a comparison because division noise swamps it.
QUBIT_ORACLE_TOLERANCE, QUBIT_ORACLE_MIN_PROB = 1e-12, 1e-4
GAUSSIAN_ORACLE_TOLERANCE, GAUSSIAN_ORACLE_MIN_PROB = 1e-6, 1e-3
#: A closed-form maximum may be exceeded by rounding only.
DOMINANCE_TOLERANCE = 1e-9
#: One pointwise input in this many also calls both oracles.
ORACLE_EVERY = 50

#: SHA-256 of ``weakamp fig N --output F`` (default sweep), recorded at the
#: commit that added this benchmark.  These CSVs must stay byte-identical.
FIG_DIGESTS = {
    1: "e60d90d3ab5bf176cc2da3a638d412b495be5d53fe61992e4d664eeb4c3cce4f",
    2: "e0f1a7e2899ba0fdbde8f42b897e487323a7e2067f812da0edf59ff8b2df3163",
    3: "b3afe297e9760840fd2a61d517f7010d8da9bacf64d68356f5398c6476982af0",
    4: "0380c457763560985d3dad75c175adac3f2ba716dc0388265e9e14b31d16ffe8",
}
#: ``weakamp shift`` invocations and the SHA-256 of their stdout.
SHIFT_DIGESTS = (
    (("shift", "--meter", "gaussian", "--r", "1", "--theta1", "1.5707963",
      "--theta2", "1.5707963", "--phi0", "0", "--g-over-dp", "0.1", "--delta", "1"),
     "58649c9a87908f3c2390876db50a28c83060cc2f44ad5fb6d5abbabcdacaebe4"),
    (("shift", "--meter", "qubit", "--channel", "phase-damping", "--gamma", "0.3",
      "--theta1", "1.2", "--theta2", "0.4", "--g", "0.1"),
     "14af54928e6e9b98156983f30d13f7ee614e8d0a6e31a2d60b4911fc1919d700"),
    (("shift", "--meter", "gaussian", "--channel", "amplitude-damping", "--gamma", "0.5",
      "--theta1", "2.0", "--theta2", "1.0", "--phi0", "3.0", "--g-over-dp", "0.05",
      "--delta", "1.5"),
     "ee22f706f90eadc17b9cfb4920aa9f0a35c3eb13b5bb19f4485ab87edbadbb87"),
    (("shift", "--meter", "qubit", "--channel", "depolarizing", "--gamma", "0.2",
      "--r", "0.9", "--theta1", "0.7", "--theta2", "2.5", "--phi0", "1.0", "--g", "0.03"),
     "d412afcaad91b62b029d8c859d699d6dbcfbf6c9a15414e7af0b5c5e5007572b"),
)

#: Optimizer cases ``run_verify`` must report, one per (maximum, kappa, g).
VERIFY_KAPPAS = (0.2, 0.5, 0.8, 1.0)
VERIFY_COUPLINGS = (0.03, 0.05, 0.1)
VERIFY_SECTIONS = ("qubit-oracle", "gaussian-oracle", "optimizer", "adjudication")


class Checks:
    """Correctness checks of one unit: runs, failures, worst severity."""

    def __init__(self):
        self.counts: dict[str, list[int]] = {}
        self.worst = 0.0

    def add(self, name: str, ok: bool, severity: float = 0.0) -> None:
        """Count one check; ``severity`` is its deviation / tolerance ratio."""
        entry = self.counts.setdefault(name, [0, 0])
        entry[0] += 1
        entry[1] += 0 if ok else 1
        self.worst = max(self.worst, math.inf if math.isnan(severity) else severity)

    def within(self, name: str, deviation: float, tolerance: float) -> None:
        self.add(name, deviation <= tolerance, deviation / tolerance)


class Unit:
    """Operation times, counts and checks of one unit."""

    def __init__(self, speed: Speed):
        self.speed = speed
        self.ops: list[float] = []
        self.op_samples: list[int] = []  # the speed sample taken before each op
        self.attempted = 0
        self.failed = 0
        self.expected = 0
        self.errors: list[str] = []
        self.checks = Checks()

    def record(self, seconds: float) -> None:
        """One operation's time; speed samples happen between operations."""
        self.ops.append(seconds)
        self.op_samples.append(len(self.speed.refs) - 1)
        self.speed.poll()

    def normalized_ops(self) -> list[float]:
        return [t / self.speed.around(i) for t, i in zip(self.ops, self.op_samples)]

    def fail(self, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(unit: Unit, argv) -> tuple[int | None, str]:
    """One ``weakamp`` command; an exception or a nonzero exit is a failure."""
    unit.attempted += 1
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
    except Exception as exc:  # an unexpected exception is a failed operation
        unit.fail(exc)
        return None, out.getvalue()
    if code != 0:
        unit.fail(RuntimeError(f"weakamp {argv[0]} exited with {code}"))
    return code, out.getvalue()


def verify(seed: int, unit_index: int, size: dict, tmp: Path, speed: Speed) -> Unit:
    """One ``weakamp verify`` command; its operations are the ``maximize`` searches.

    Timing each search (one clock pair per call of 0.05-0.5 s) gives
    enough operations per run for a stable median and tail.  Should the
    command make no search, the operation is the command itself.
    """
    unit = Unit(speed)
    unit.expected = 1
    samples = size["samples"]
    reports = []
    real_run_verify = cli.run_verify
    real_maximize = weakamp.optimize.maximize

    def capture(*args, **kwargs):
        report = real_run_verify(*args, **kwargs)
        reports.append(report)
        return report

    def timed_maximize(*args, **kwargs):
        t0 = clock()
        try:
            return real_maximize(*args, **kwargs)
        finally:
            unit.record(clock() - t0)

    csv = tmp / "adjudication.csv"
    cli.run_verify = capture
    replace_everywhere(weakamp, real_maximize, timed_maximize)
    try:
        paused = unit.speed.paused
        t0 = clock()
        code, text = run_cli(unit, ["verify", "--seed", str(seed), "--samples",
                                    str(samples), "--adjudication-csv", str(csv)])
        command = clock() - t0 - (unit.speed.paused - paused)
    finally:
        cli.run_verify = real_run_verify
        replace_everywhere(weakamp, timed_maximize, real_maximize)
    if not unit.ops:
        unit.record(command)

    checks = unit.checks
    checks.add("verify.exit_code", code == 0)
    checks.add("verify.pass_printed", text.rstrip().endswith("overall: PASS"))
    checks.add("verify.report", len(reports) == 1)
    if reports:
        report = reports[0]
        checks.add("verify.report_ok", report.ok)
        checks.add("verify.samples", report.samples == samples and report.seed == seed)
        sections = {r.section for r in report.records}
        checks.add("verify.sections", all(s in sections for s in VERIFY_SECTIONS))
        cases = {r.case for r in report.records if r.section == "optimizer"}
        wanted = {f"{name} kappa={k:g} g={g:g}" for name in ("dp-max", "dq-max", "reading-max")
                  for k in VERIFY_KAPPAS for g in VERIFY_COUPLINGS}
        checks.add("verify.optimizer_cases", wanted <= cases)
        for r in report.records:
            checks.add("verify.records", r.ok, r.severity)
    table = csv.read_text() if csv.is_file() else ""
    checks.add("verify.adjudication_csv",
               table.startswith("variant,input_id,deviation\n") and table.count("\n") > 1)
    return unit


def damped(seed: int, unit_index: int, size: dict, tmp: Path, speed: Speed) -> Unit:
    unit = Unit(speed)
    rng = np.random.default_rng([seed, unit_index])
    gammas = rng.uniform(0.0, 0.95, size["gammas"]).tolist()
    meter = weakamp.GaussianMeter(1.0)
    g = DAMPED_COUPLING * meter.dp
    dp_max, dq_max = (r.value for r in weakamp.gaussian_max_shifts(1.0, g, meter))
    reading_max = weakamp.qubit_max_reading(1.0, DAMPED_COUPLING).value
    targets = (("dp", meter, g, dp_max), ("dq", meter, g, dq_max),
               ("reading", "qubit", DAMPED_COUPLING, reading_max))
    unit.expected = len(gammas) * len(targets)
    amplitude_damping_max = weakamp.amplitude_damping_max
    for gamma in gammas:
        for which, m, coupling, closed in targets:
            unit.attempted += 1
            t0 = clock()
            try:
                result = amplitude_damping_max(m, gamma, coupling, which)
            except Exception as exc:  # an unexpected exception is a failed operation
                unit.fail(exc)
                continue
            unit.record(clock() - t0)
            unit.checks.within("damped.noiseless_sup",
                               abs(abs(result.value) - closed) / closed, DAMPED_TOLERANCE)
    return unit


def pointwise(seed: int, unit_index: int, size: dict, tmp: Path, speed: Speed) -> Unit:
    unit = Unit(speed)
    n = size["inputs"]
    unit.expected = n + len(FIG_DIGESTS) + len(SHIFT_DIGESTS)
    rng = np.random.default_rng([seed, unit_index])
    theta1 = np.arccos(1.0 - 2.0 * rng.random(n)).tolist()
    phi1 = (2.0 * math.pi * rng.random(n)).tolist()
    kinds = rng.integers(0, 3, n).tolist()
    gammas = rng.random(n).tolist()
    theta2 = np.arccos(1.0 - 2.0 * rng.random(n)).tolist()
    phi2 = (2.0 * math.pi * rng.random(n)).tolist()
    couplings = np.where(rng.random(n) < 0.5, rng.choice(FIG_COUPLINGS, n),
                         rng.uniform(0.01, 1.0, n)).tolist()

    pure_state = weakamp.pure_state
    channels = (weakamp.depolarizing, weakamp.phase_damping, weakamp.amplitude_damping)
    gaussian_shifts = weakamp.gaussian_shifts
    postselected_reading = weakamp.postselected_reading
    gaussian_max_shifts = weakamp.gaussian_max_shifts
    qubit_max_reading = weakamp.qubit_max_reading
    qubit_joint_evolve = weakamp.qubit_joint_evolve
    gaussian_grid_evolve = weakamp.gaussian_grid_evolve
    meter = weakamp.GaussianMeter(1.0)
    dp = meter.dp
    record = unit.record
    results = []
    for i in range(n):
        unit.attempted += 1
        kind, gamma, c = kinds[i], gammas[i], couplings[i]
        # Depolarizing and dephasing keep coherence 1 - gamma; the
        # amplitude-damping supremum is the noiseless one.
        kappa = 1.0 if kind == 2 else 1.0 - gamma
        t0 = clock()
        try:
            rho = channels[kind](gamma).apply(pure_state(theta1[i], phi1[i]).density())
            psi_f = pure_state(theta2[i], phi2[i])
            shift = gaussian_shifts(rho, psi_f, c * dp, meter)
            reading = postselected_reading(rho, psi_f, c)
            maxima = gaussian_max_shifts(kappa, c * dp, meter)
            max_reading = qubit_max_reading(kappa, c)
            exact = grid = None
            if i % ORACLE_EVERY == 0:
                exact = qubit_joint_evolve(rho, psi_f, c)
                grid = gaussian_grid_evolve(rho, psi_f, c * dp, meter)
        except Exception as exc:  # an unexpected exception is a failed operation
            unit.fail(exc)
            continue
        record(clock() - t0)
        results.append((shift, reading, maxima, max_reading, exact, grid))

    checks = unit.checks
    for shift, reading, (dp_max, dq_max), max_reading, exact, grid in results:
        over = max(abs(shift.dp_shift) / dp_max.value, abs(shift.dq_shift) / dq_max.value,
                   reading.reading / max_reading.value) - 1.0
        checks.within("pointwise.dominance", max(over, 0.0), DOMINANCE_TOLERANCE)
        if exact is not None and reading.prob >= QUBIT_ORACLE_MIN_PROB:
            checks.within("pointwise.qubit_oracle",
                          max(abs(reading.reading - exact.reading), abs(reading.prob - exact.prob)),
                          QUBIT_ORACLE_TOLERANCE)
        if grid is not None and shift.prob >= GAUSSIAN_ORACLE_MIN_PROB:
            checks.within("pointwise.gaussian_oracle",
                          max(abs(shift.dp_shift - grid.dp_shift),
                              abs(shift.dq_shift - grid.dq_shift), abs(shift.prob - grid.prob)),
                          GAUSSIAN_ORACLE_TOLERANCE)

    for fig, digest in FIG_DIGESTS.items():
        path = tmp / f"fig{fig}.csv"
        code, _ = run_cli(unit, ["fig", str(fig), "--output", str(path)])
        checks.add("pointwise.fig_csv", code == 0 and path.is_file()
                      and _digest(path.read_bytes()) == digest)
    for argv, digest in SHIFT_DIGESTS:
        code, text = run_cli(unit, argv)
        checks.add("pointwise.shift_csv", code == 0 and _digest(text.encode()) == digest)
    return unit


UNITS = {"verify": verify, "damped": damped, "pointwise": pointwise}


def first_calls(tmp: Path) -> None:
    """One small call into each layer, as a user's first command makes them."""
    meter = weakamp.GaussianMeter(1.0)
    rho = weakamp.depolarizing(0.1).apply(weakamp.pure_state(1.0, 0.5).density())
    psi_f = weakamp.pure_state(2.0, 0.0)
    weakamp.gaussian_shifts(rho, psi_f, 0.05, meter)
    weakamp.postselected_reading(rho, psi_f, 0.1)
    weakamp.gaussian_max_shifts(0.9, 0.05, meter)
    weakamp.qubit_max_reading(0.9, 0.1)
    weakamp.qubit_joint_evolve(rho, psi_f, 0.1)
    weakamp.gaussian_grid_evolve(rho, psi_f, 0.05, meter)
    weakamp.maximize(weakamp.kappa_shift_objective(0.5, 0.05, meter, "dp"), grid_n=16)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(list(SHIFT_DIGESTS[0][0]))
