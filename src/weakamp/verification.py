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
* variant adjudication: ``adjudicate_variants`` pits disputed formula
  variants (transcribed locally) against the oracles and the optimizer,
  and the shipped formulas must equal the normative variants; a dispute
  decided on fewer pointwise samples than requested fails on its own record.

Every input is drawn from a ``random.Random(seed)`` stream, one for the
oracle batteries and one for the adjudication.  Python keeps its ``random()``
sequence the same across versions, so the pinned inputs hang on no
third-party release.  Each number drawn is one ``random()`` value, in this
order: ``_random_pure`` takes theta then phi, ``_random_density`` theta, phi,
then the Bloch radius, and ``_uniform`` maps one value onto an interval.
``_sample`` caps the attempts.  This is the one module that joins closed
forms, oracles and optimizer.

``inject_fault`` perturbs one closed form inside the comparisons (never in
the library) so the battery's ability to catch a wrong formula is itself
testable.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from functools import reduce
from itertools import islice

from .channels import KrausChannel, phase_damping
from .common import GaussianMeter, VanishingPostselectionError, _nan_max
from .gaussian import gaussian_max_shifts, gaussian_shifts
from .optimize import (_modulus_channel, _Objective, kappa_reading_objective,
                       kappa_shift_objective, maximize)
from .oracle import (_grid_moments, _grid_pass, _grid_shifts, gaussian_grid_evolve,
                     qubit_joint_evolve)
from .qubit import PureQubit, QubitDensity, _density_at_modulus, pure_state
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
                    keys: tuple[str, ...], deviations) -> list[CheckRecord]:
    """Worst deviations per key over ``samples`` accepted random inputs.

    ``deviations`` yields one tuple per accepted input, in ``keys`` order.
    Its inputs are drawn by ``_sample``, which stops after
    ``_ATTEMPTS_PER_SAMPLE * samples`` draws; a shortfall fails the battery.
    It is iterated only after ``samples`` is checked.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    worst = dict.fromkeys(keys, 0.0)
    produced = 0
    for row in deviations:
        for key, dev in zip(keys, row):
            worst[key] = _nan_max(worst[key], dev)
        produced += 1
    records = [CheckRecord(section, key, dev, tolerance, produced)
               for key, dev in worst.items()]
    if produced < samples:
        records.append(CheckRecord(section, "samples", float(samples - produced),
                                   0.0, produced))
    return records


def qubit_oracle_battery(rng: random.Random, samples: int) -> list[CheckRecord]:
    """Closed-form qubit readings against the exact joint evolution."""
    def compare():
        rho = _random_density(rng)
        psi_f = _random_pure(rng)
        g = _uniform(rng, 0.01, 1.5)
        try:
            closed = postselected_reading(rho, psi_f, g)
        except VanishingPostselectionError:
            return None
        if closed.prob < 1e-4:
            return None  # division noise would swamp the 1e-12 comparison
        exact = qubit_joint_evolve(rho, psi_f, g)
        return abs(closed.reading - exact.reading), abs(closed.prob - exact.prob)

    return _oracle_battery("qubit-oracle", samples, 1e-12, ("reading", "prob"),
                           _sample(compare, samples))


#: Accepted inputs whose grids one kernel call evaluates.  Each row adds about
#: 20 KB of arrays to a pass's peak memory, so passes stay small; 8 rows take
#: most of the time that 16 would save over one grid at a time.
_GRID_PASS = 8


def gaussian_oracle_battery(rng: random.Random, samples: int) -> list[CheckRecord]:
    """Closed-form Gaussian shifts against the grid evolution.

    The closed form alone accepts an input, so the inputs are drawn and
    filtered in the stream's order, and the grids of up to ``_GRID_PASS``
    accepted inputs are then evaluated in one pass (``_grid_pass``), outside
    the oracle's moment cache.  Each input's shifts are read from its row
    through ``_grid_shifts``, as ``gaussian_grid_evolve`` reads them.
    """
    def draw():
        delta = _uniform(rng, 0.5, 2.0)
        meter = GaussianMeter(delta)
        g = _uniform(rng, 0.02, 0.5) / delta
        rho = _random_density(rng)
        psi_f = _random_pure(rng)
        try:
            closed = gaussian_shifts(rho, psi_f, g, meter)
        except VanishingPostselectionError:
            return None
        if closed.prob < 1e-3:
            return None
        return rho, psi_f, g, meter, closed

    def deviations():
        accepted = _sample(draw, samples)
        while batch := list(islice(accepted, _GRID_PASS)):
            moments = _grid_pass([(g, meter) for _, _, g, meter, _ in batch]).tolist()
            for (rho, psi_f, _, _, closed), row in zip(batch, moments):
                grid = _grid_shifts(rho, psi_f, row)
                yield (abs(closed.dp_shift - grid.dp_shift),
                       abs(closed.dq_shift - grid.dq_shift), abs(closed.prob - grid.prob))

    return _oracle_battery("gaussian-oracle", samples, 1e-6, ("dp", "dq", "prob"),
                           deviations())


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


# ---------------------------------------------------------------------------
# Variant adjudication
# ---------------------------------------------------------------------------

#: Rejection-sampling attempts allowed per requested sample; a sampler that
#: runs out of attempts reports a shortfall instead of looping forever.
_ATTEMPTS_PER_SAMPLE = 100


def _sample(draw, samples: int):
    """Yield the results of ``draw()`` that are not None, drawing until
    ``samples`` are accepted or ``_ATTEMPTS_PER_SAMPLE * samples`` draws are
    spent."""
    accepted = 0
    for _ in range(_ATTEMPTS_PER_SAMPLE * samples):
        if accepted == samples:
            return
        result = draw()
        if result is not None:
            accepted += 1
            yield result


#: A variant agreeing with the oracle must stay within this deviation.
ADJUDICATION_TOLERANCE = 1e-6
#: ...and the rejected variant must exceed tolerance by this factor somewhere.
REJECTION_FACTOR = 10.0


@dataclass(frozen=True)
class AdjudicationEntry:
    dispute: str
    variant: str
    input_id: str
    deviation: float


@dataclass(frozen=True)
class DisputeVerdict:
    dispute: str
    normative_variant: str
    rejected_variant: str
    normative_worst: float
    rejected_worst: float

    def checks(self) -> tuple[tuple[str, float, float], ...]:
        """(case, deviation, tolerance) of the two checks the verdict passes
        when each deviation is within its tolerance: the normative worst, and
        the shortfall of the rejected worst from ``REJECTION_FACTOR``
        tolerances.  A NaN worst fails its check."""
        shortfall = _nan_max(0.0, REJECTION_FACTOR * ADJUDICATION_TOLERANCE
                             - self.rejected_worst)
        return ((f"{self.dispute}/normative", self.normative_worst, ADJUDICATION_TOLERANCE),
                (f"{self.dispute}/separation", shortfall, 0.0))

    @property
    def confirmed(self) -> bool:
        return all(deviation <= tolerance for _, deviation, tolerance in self.checks())

    @property
    def conclusive(self) -> bool:
        # A NaN worst deviation is conclusive: the verdict fails.
        worst = _nan_max(self.normative_worst, self.rejected_worst)
        return not worst < REJECTION_FACTOR * ADJUDICATION_TOLERANCE


@dataclass(frozen=True)
class AdjudicationReport:
    seed: int
    entries: tuple[AdjudicationEntry, ...]
    verdicts: tuple[DisputeVerdict, ...]
    #: "dispute/input_id" of each oracle maximum whose search did not converge.
    unconverged: tuple[str, ...] = ()
    #: (dispute, samples missing) of each dispute that decided on fewer than
    #: the requested pointwise samples.
    shortfalls: tuple[tuple[str, int], ...] = ()

    @property
    def all_confirmed(self) -> bool:
        return all(v.confirmed for v in self.verdicts)

    def to_text(self) -> str:
        lines = [
            f"variant adjudication (seed={self.seed}, "
            f"tolerance={ADJUDICATION_TOLERANCE:g}, "
            f"rejection factor={REJECTION_FACTOR:g})",
        ]
        for v in self.verdicts:
            status = "confirmed" if v.confirmed else (
                "inconclusive" if not v.conclusive else "FAILED")
            lines.append(f"  [{status}] {v.dispute}: keep '{v.normative_variant}' "
                         f"(worst {v.normative_worst:.3e}), reject "
                         f"'{v.rejected_variant}' (worst {v.rejected_worst:.3e})")
        return "\n".join(lines)

    def csv_rows(self) -> list[str]:
        rows = ["variant,input_id,deviation"]
        for e in self.entries:
            rows.append(f"{e.dispute}/{e.variant},{e.input_id},{e.deviation:.17g}")
        return rows

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(self.csv_rows()) + "\n")


def _stream(seed: int) -> random.Random:
    """The batteries' input stream.  ``random.Random`` seeds from |seed| and
    hashes a float or a string, so a negative seed, which would repeat its
    positive twin, is a ValueError, and a seed that is not an integer a
    TypeError."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return random.Random(seed)


def _uniform(rng: random.Random, a: float, b: float) -> float:
    """Uniform on [a, b) from one ``rng.random()``."""
    return a + (b - a) * rng.random()


def _random_pure(rng: random.Random) -> PureQubit:
    """Uniform on the Bloch sphere from two ``rng.random()`` values u:
    theta = acos(1 - 2u), then phi = 2 pi u."""
    return pure_state(math.acos(1.0 - 2.0 * rng.random()),
                      2.0 * math.pi * rng.random())


def _random_density(rng: random.Random) -> QubitDensity:
    """Uniform in the Bloch ball from three ``rng.random()`` values: the
    direction of ``_random_pure`` (theta, then phi), then the radius u^(1/3)."""
    direction = _random_pure(rng)
    return _density_at_modulus(direction, rng.random() ** (1.0 / 3.0))


def _oracle_shift_objective(channel: KrausChannel, g: float, meter: GaussianMeter, which: str):
    """Shift objective whose branch matrices come from the grid, not a closed
    form: the grid's N and its Q or P, each as (1, k00, k11, Re k10, Im k10)."""
    n_mat, q_mat, p_mat = _grid_moments(g, meter).tolist()
    n, m = ((1.0, k00.real, k11.real, k10.real, k10.imag)
            for (k00, _), (k10, k11) in (n_mat, q_mat if which == "dq" else p_mat))
    return _Objective(channel, n, m)


#: Pointwise inputs each sampled dispute decides on.
_POINTWISE_SAMPLES = 40
#: ``grid_n`` of the oracle-maximum searches: their theta1 scans' points.
_OPTIMIZER_GRID_N = 32


def _position_max_variants(kappa: float, g: float, meter: GaussianMeter):
    """Dispute 1's maxima of |dq'| at Bloch modulus kappa, E = exp(-2 delta^2 g^2):
    attenuated 2 kappa g E / sqrt(1 - kappa^2 E^2) and unattenuated 2 kappa g / (the same root)."""
    att = meter.coherence_factor(g)
    root = math.sqrt(1.0 - (kappa * att) ** 2)
    return 2.0 * kappa * g * att / root, 2.0 * kappa * g / root


def _momentum_max_variants(gamma: float, g: float, meter: GaussianMeter):
    """Dispute 2's maxima of |dp'| under dephasing gamma: squared coherence
    g / sqrt(1 - ((1 - gamma) E)^2) and unsquared g / sqrt(1 - (1 - gamma) E^2)."""
    att = meter.coherence_factor(g)
    coh = (1.0 - gamma) * att
    return g / math.sqrt(1.0 - coh * coh), g / math.sqrt(1.0 - (1.0 - gamma) * att ** 2)


def _point_rows(deviations) -> list[tuple]:
    """(input_id, normative, rejected) rows of pointwise deviation pairs."""
    return [(f"point-{i:03d}", *pair) for i, pair in enumerate(deviations)]


def adjudicate_variants(seed: int = 7) -> AdjudicationReport:
    """Decide disputed formula variants against the oracles.

    Three disputes are evaluated on a seeded input battery:

    1. whether the conditional position shift (and its maximum) carries the
       branch-overlap factor exp(-2 delta^2 g^2);
    2. whether the maximal momentum shift under dephasing attenuates the
       coherence linearly or quadratically inside the square root;
    3. whether the dephased qubit-meter reading numerator weighs the
       postselection ground amplitude or repeats the excited one.

    Each dispute is one table of rows (input_id, normative deviation,
    rejected deviation) from the oracle: the report's entries are its cells
    row by row, and a verdict's worsts are its columns' largest (a NaN wins;
    inf for a table without rows).  A dispute is confirmed when the
    normative variant stays within tolerance while the rejected one reaches
    ten times the tolerance somewhere.  An oracle maximum whose search did
    not converge is named in the report's ``unconverged``, and a dispute
    left short of its ``_POINTWISE_SAMPLES`` inputs by its attempt cap or by
    rejected cases in ``shortfalls``.  The oracle maxima are searched with
    the exact postselection, from a ``_OPTIMIZER_GRID_N``-point theta1 scan.
    A negative ``seed`` is a ValueError, one that is not an integer a TypeError.
    """
    rng = _stream(seed)
    meter = GaussianMeter(1.0)
    unconverged: list[str] = []
    disputes = []  # (dispute, (normative, rejected), rows, pointwise samples missing)

    def max_row(dispute, i, objective, normative, rejected):
        """The row of two closed-form maxima against the oracle's maximum."""
        input_id = f"max-{i:03d}"
        result = maximize(objective, grid_n=_OPTIMIZER_GRID_N)
        if not result.converged:
            unconverged.append(f"{dispute}/{input_id}")
        found = abs(result.value)
        return input_id, abs(normative - found), abs(rejected - found)

    # -- dispute 1: attenuation factor in the position shift ----------------
    dispute = "position-shift-attenuation"

    def attenuation_deviations():
        rho = _random_density(rng)
        psi_f = _random_pure(rng)
        g = _uniform(rng, 0.15, 0.5)
        try:
            oracle = gaussian_grid_evolve(rho, psi_f, g, meter)
        except VanishingPostselectionError:
            return None
        if oracle.prob < 1e-2 or abs(oracle.dq_shift) < 1e-3:
            return None
        att = meter.coherence_factor(g)
        u2 = abs(psi_f.alpha) ** 2
        w = psi_f.alpha * psi_f.beta.conjugate()
        cross = rho.rho10 * w
        prob = rho.rho00.real * u2 + rho.rho11.real * (1.0 - u2) \
            + 2.0 * att * cross.real
        dq_with = 4.0 * g * att * cross.imag / prob
        dq_without = 4.0 * g * cross.imag / prob
        return abs(dq_with - oracle.dq_shift), abs(dq_without - oracle.dq_shift)

    rows = _point_rows(_sample(attenuation_deviations, _POINTWISE_SAMPLES))
    missing = _POINTWISE_SAMPLES - len(rows)
    max_inputs = [(1.0, 0.3)] + [(_uniform(rng, 0.5, 1.0), _uniform(rng, 0.15, 0.45))
                                 for _ in range(2)]
    for i, (kappa, g) in enumerate(max_inputs):
        objective = _oracle_shift_objective(_modulus_channel(kappa), g, meter, "dq")
        rows.append(max_row(dispute, i, objective, *_position_max_variants(kappa, g, meter)))
    disputes.append((dispute, ("attenuated", "unattenuated"), rows, missing))

    # -- dispute 2: coherence power in the dephased momentum maximum --------
    dispute = "dephased-momentum-max"
    max_inputs = [(0.5, 0.3)] + [(_uniform(rng, 0.2, 0.8), _uniform(rng, 0.15, 0.45))
                                 for _ in range(2)]
    rows = []
    for i, (gamma, g) in enumerate(max_inputs):
        objective = _oracle_shift_objective(phase_damping(gamma), g, meter, "dp")
        rows.append(max_row(dispute, i, objective, *_momentum_max_variants(gamma, g, meter)))
    disputes.append((dispute, ("squared-coherence", "unsquared-coherence"), rows, 0))

    # -- dispute 3: dephased qubit-meter reading numerator -------------------
    dispute = "dephased-reading-numerator"
    cases = [(pure_state(2.0, 0.5), pure_state(1.2, 4.0), 0.4, 0.3)]
    cases += [(_random_pure(rng), _random_pure(rng), _uniform(rng, 0.05, 0.95),
               _uniform(rng, 0.05, 0.6)) for _ in range(_POINTWISE_SAMPLES - 1)]
    deviations = []
    for psi_i, psi_f, gamma, g in cases:
        rho = phase_damping(gamma).apply(psi_i.density())
        try:
            oracle = qubit_joint_evolve(rho, psi_f, g)
        except VanishingPostselectionError:
            continue
        if oracle.prob < 1e-3:
            continue
        a1sq = abs(psi_i.alpha) ** 2
        b1sq = 1.0 - a1sq
        a2sq = abs(psi_f.alpha) ** 2
        b2sq = 1.0 - a2sq
        cross = (psi_i.alpha.conjugate() * psi_i.beta
                 * psi_f.alpha * psi_f.beta.conjugate()).real
        denom = a1sq * a2sq + b1sq * b2sq \
            + 2.0 * (1.0 - gamma) * cross * math.cos(2.0 * g)
        s2 = math.sin(g) ** 2
        corrected = (a1sq * a2sq + b1sq * b2sq - 2.0 * (1.0 - gamma) * cross) * s2 / denom
        printed = (a1sq * b2sq + b1sq * b2sq - 2.0 * (1.0 - gamma) * cross) * s2 / denom
        deviations.append((abs(corrected - oracle.reading), abs(printed - oracle.reading)))
    disputes.append((dispute, ("ground-weighted", "printed"), _point_rows(deviations),
                     _POINTWISE_SAMPLES - len(deviations)))

    entries: list[AdjudicationEntry] = []
    verdicts: list[DisputeVerdict] = []
    shortfalls: list[tuple[str, int]] = []
    for dispute, variants, rows, missing in disputes:
        entries += (AdjudicationEntry(dispute, variant, input_id, deviation)
                    for input_id, *pair in rows for variant, deviation in zip(variants, pair))
        worsts = [reduce(_nan_max, column) for column in list(zip(*rows))[1:]]
        verdicts.append(DisputeVerdict(dispute, *variants, *(worsts or (math.inf, math.inf))))
        if missing:
            shortfalls.append((dispute, missing))
    return AdjudicationReport(seed, tuple(entries), tuple(verdicts), tuple(unconverged),
                              tuple(shortfalls))


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
    dev = abs(gaussian_max_shifts(1.0, g, meter)[1].value
              - _position_max_variants(1.0, g, meter)[0])
    records.append(CheckRecord("adjudication", "library-position-max", dev, 1e-12))
    dev = abs(gaussian_max_shifts(1.0 - 0.5, g, meter)[0].value
              - _momentum_max_variants(0.5, g, meter)[0])
    records.append(CheckRecord("adjudication", "library-momentum-max", dev, 1e-12))
    return records, report


def run_verify(seed: int = 7, samples: int = 1000,
               inject_fault: str | None = None) -> VerifyReport:
    """Run every battery and collect a deterministic report.

    Raises ValueError when ``seed`` is negative or ``samples`` below 1, and
    TypeError when ``seed`` is not an integer, before any input is drawn.
    """
    rng = _stream(seed)
    records: list[CheckRecord] = []
    records.extend(qubit_oracle_battery(rng, samples))
    records.extend(gaussian_oracle_battery(rng, samples))
    records.extend(optimizer_battery(inject_fault=inject_fault))
    adj_records, adj_report = adjudication_battery(seed)
    records.extend(adj_records)
    return VerifyReport(seed, samples, tuple(records), adj_report)
