"""Verification batteries: closed forms vs oracles vs optimizer.

Three batteries, all seeded and deterministic:

* oracle equivalence: the closed-form qubit reading against the exact 4x4
  joint evolution (tolerance 1e-12) and the closed-form Gaussian shifts
  against the grid evolution (tolerance 1e-6 absolute, g * delta <= 0.5);
  each record carries the samples compared, and a sampler that runs out of
  attempts before producing the requested samples fails its battery;
* optimizer recovery: the numerical maximizer against the closed-form
  maxima on a (kappa, g) battery (tolerance 1e-6 relative), including the
  dominance check that the optimizer never exceeds a closed form; a search
  that stops without converging fails on its own record;
* variant adjudication, plus the consistency check that the shipped
  formulas equal the adjudicated normative variants; a dispute decided on
  fewer pointwise samples than requested fails on its own record.

``inject_fault`` perturbs one closed form inside the comparisons (never in
the library) so the battery's ability to catch a wrong formula is itself
testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .common import GaussianMeter, VanishingPostselectionError, _nan_max
from .gaussian import gaussian_max_shifts, gaussian_shifts
from .optimize import kappa_reading_objective, kappa_shift_objective, maximize
from .oracle import (
    AdjudicationReport,
    _random_density,
    _random_pure,
    _sample,
    adjudicate_variants,
    gaussian_grid_evolve,
    qubit_joint_evolve,
)
from .qubitmeter import postselected_reading, qubit_max_reading

FAULT_NAMES = ("dp-max", "dq-max", "reading-max")

KAPPA_BATTERY = (0.2, 0.5, 0.8, 1.0)
COUPLING_BATTERY = (0.03, 0.05, 0.1)


@dataclass(frozen=True)
class CheckRecord:
    section: str
    case: str
    deviation: float
    tolerance: float
    #: Random inputs compared, for the oracle batteries; None elsewhere.
    samples: int | None = None

    @property
    def ok(self) -> bool:
        return self.deviation <= self.tolerance

    @property
    def severity(self) -> float:
        """deviation / tolerance; inf for a NaN deviation, which fails."""
        if math.isnan(self.deviation):
            return math.inf
        if self.tolerance > 0.0:
            return self.deviation / self.tolerance
        return math.inf if self.deviation > 0.0 else 0.0


@dataclass(frozen=True)
class VerifyReport:
    seed: int
    samples: int
    records: tuple[CheckRecord, ...]
    adjudication: AdjudicationReport

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    @property
    def failures(self) -> tuple[CheckRecord, ...]:
        return tuple(r for r in self.records if not r.ok)

    def worst(self) -> CheckRecord:
        return max(self.records, key=lambda r: r.severity)

    def to_text(self) -> str:
        lines = [f"verification report (seed={self.seed}, samples={self.samples})"]
        sections: dict[str, list[CheckRecord]] = {}
        for r in self.records:
            sections.setdefault(r.section, []).append(r)
        for name, recs in sections.items():
            bad = [r for r in recs if not r.ok]
            status = "ok" if not bad else f"FAILED ({len(bad)}/{len(recs)})"
            peak = max(recs, key=lambda r: r.severity)
            lines.append(f"  [{status}] {name}: {len(recs)} checks, worst "
                         f"{peak.case} deviation {peak.deviation:.3e} "
                         f"(tolerance {peak.tolerance:g})")
            for r in bad:
                lines.append(f"      FAIL {r.case}: deviation {r.deviation:.3e} "
                             f"> tolerance {r.tolerance:g}")
        worst = self.worst()
        lines.append(f"  worst offender: {worst.section}/{worst.case} "
                     f"deviation {worst.deviation:.3e} (tolerance {worst.tolerance:g})")
        lines.append(self.adjudication.to_text())
        lines.append("overall: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def _oracle_battery(section: str, samples: int, tolerance: float,
                    keys: tuple[str, ...], compare) -> list[CheckRecord]:
    """Worst deviations per key over ``samples`` accepted random inputs.

    ``compare()`` draws one input and returns its deviations in ``keys``
    order, or None to reject it.  It is drawn by ``oracle._sample``, which
    stops after ``_ATTEMPTS_PER_SAMPLE * samples`` draws; a shortfall fails
    the battery.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    worst = dict.fromkeys(keys, 0.0)
    produced = 0
    for deviations in _sample(compare, samples):
        for key, dev in zip(keys, deviations):
            worst[key] = _nan_max(worst[key], dev)
        produced += 1
    records = [CheckRecord(section, key, dev, tolerance, produced)
               for key, dev in worst.items()]
    if produced < samples:
        records.append(CheckRecord(section, "samples", float(samples - produced),
                                   0.0, produced))
    return records


def qubit_oracle_battery(rng: np.random.Generator, samples: int) -> list[CheckRecord]:
    """Closed-form qubit readings against the exact joint evolution."""
    def compare():
        rho = _random_density(rng)
        psi_f = _random_pure(rng)
        g = rng.uniform(0.01, 1.5)
        try:
            closed = postselected_reading(rho, psi_f, g)
        except VanishingPostselectionError:
            return None
        if closed.prob < 1e-4:
            return None  # division noise would swamp the 1e-12 comparison
        exact = qubit_joint_evolve(rho, psi_f, g)
        return abs(closed.reading - exact.reading), abs(closed.prob - exact.prob)

    return _oracle_battery("qubit-oracle", samples, 1e-12, ("reading", "prob"), compare)


def gaussian_oracle_battery(rng: np.random.Generator, samples: int) -> list[CheckRecord]:
    """Closed-form Gaussian shifts against the grid evolution."""
    def compare():
        delta = rng.uniform(0.5, 2.0)
        meter = GaussianMeter(delta)
        g = rng.uniform(0.02, 0.5) / delta
        rho = _random_density(rng)
        psi_f = _random_pure(rng)
        try:
            closed = gaussian_shifts(rho, psi_f, g, meter)
        except VanishingPostselectionError:
            return None
        if closed.prob < 1e-3:
            return None
        grid = gaussian_grid_evolve(rho, psi_f, g, meter)
        return (abs(closed.dp_shift - grid.dp_shift), abs(closed.dq_shift - grid.dq_shift),
                abs(closed.prob - grid.prob))

    return _oracle_battery("gaussian-oracle", samples, 1e-6, ("dp", "dq", "prob"), compare)


def optimizer_battery(inject_fault: str | None = None) -> list[CheckRecord]:
    """Numerical maximization against the closed-form maxima."""
    if inject_fault is not None and inject_fault not in FAULT_NAMES:
        raise ValueError(f"unknown fault {inject_fault!r}, expected one of {FAULT_NAMES}")
    bump = 1.001
    meter = GaussianMeter(1.0)
    records = []
    for kappa in KAPPA_BATTERY:
        for g_over_dp in COUPLING_BATTERY:
            g = g_over_dp * meter.dp
            dp_max, dq_max = gaussian_max_shifts(kappa, g, meter)
            reading_max = qubit_max_reading(kappa, g_over_dp)
            targets = {
                "dp-max": (dp_max.value,
                           kappa_shift_objective(kappa, g, meter, "dp")),
                "dq-max": (dq_max.value,
                           kappa_shift_objective(kappa, g, meter, "dq")),
                "reading-max": (reading_max.value,
                                kappa_reading_objective(kappa, g_over_dp)),
            }
            for name, (closed, objective) in targets.items():
                if inject_fault == name:
                    closed *= bump
                result = maximize(objective)
                numeric = abs(result.value)
                case = f"{name} kappa={kappa:g} g={g_over_dp:g}"
                if not result.converged:
                    records.append(CheckRecord(
                        "optimizer", f"converged {case}", 1.0, 0.0))
                records.append(CheckRecord(
                    "optimizer", case, abs(numeric - closed) / closed, 1e-6))
                overshoot = _nan_max(0.0, (numeric - closed) / closed)
                records.append(CheckRecord(
                    "optimizer", f"dominance {case}", overshoot, 1e-8))
    return records


def adjudication_battery(seed: int) -> tuple[list[CheckRecord], AdjudicationReport]:
    """Run the adjudication and check it against the shipped formulas."""
    report = adjudicate_variants(seed=seed)
    records = [CheckRecord("adjudication", *check)
               for v in report.verdicts for check in v.checks()]
    for search in report.unconverged:
        records.append(CheckRecord("adjudication", f"converged {search}", 1.0, 0.0))
    for dispute, missing in report.shortfalls:
        records.append(CheckRecord("adjudication", f"samples {dispute}", float(missing), 0.0))

    # The shipped closed forms must equal the adjudicated normative variants.
    meter = GaussianMeter(1.0)
    g = 0.3
    att = meter.coherence_factor(g)
    root = math.sqrt(1.0 - att * att)
    dev = abs(gaussian_max_shifts(1.0, g, meter)[1].value - 2.0 * g * att / root)
    records.append(CheckRecord("adjudication", "library-position-max", dev, 1e-12))
    gamma = 0.5
    coh = (1.0 - gamma) * att
    dev = abs(gaussian_max_shifts(1.0 - gamma, g, meter)[0].value
              - g / math.sqrt(1.0 - coh * coh))
    records.append(CheckRecord("adjudication", "library-momentum-max", dev, 1e-12))
    return records, report


def run_verify(seed: int = 7, samples: int = 1000,
               inject_fault: str | None = None) -> VerifyReport:
    """Run every battery and collect a deterministic report.

    Raises ValueError when ``samples`` is below 1; the first battery rejects
    it before drawing any input.
    """
    rng = np.random.default_rng(seed)
    records: list[CheckRecord] = []
    records.extend(qubit_oracle_battery(rng, samples))
    records.extend(gaussian_oracle_battery(rng, samples))
    records.extend(optimizer_battery(inject_fault=inject_fault))
    adj_records, adj_report = adjudication_battery(seed)
    records.extend(adj_records)
    return VerifyReport(seed, samples, tuple(records), adj_report)
