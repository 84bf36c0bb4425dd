"""Brute-force joint-evolution references used to validate every closed form.

Two oracles, both built from the impulse interaction only:

* ``qubit_joint_evolve``: exact 4x4 evolution of system x qubit meter.  The
  coupling generator squares to the identity, so the propagator is
  cos(g) I + i sin(g) (sigma_z x sigma_x) with no approximation.
* ``gaussian_grid_evolve``: the Gaussian pointer on a position grid.  The
  interaction is diagonal in the system basis, so the meter splits into two
  branches Phi(q) exp(+-i g q); position moments come from quadrature and
  momentum moments from a spectral (FFT) derivative.  The envelope Phi is
  real, so the second branch is the complex conjugate of the first: one
  real cosine and sine of g q and one FFT per coupling give both branches
  and both spectra, and Parseval's theorem gives the momentum moments from
  the spectra without inverse transforms.  The size-only index arrays (grid
  index, FFT frequencies, mirror index) come from a small per-size cache,
  the moments come back as one read-only (3, 2, 2) array, and a state's
  three weighted sums over its entries are taken in Python scalars.

The grid has 256 points on a half-width of 10-14 widths, set by (delta, g).
The integrands are Gaussians of width delta (times phases), on which the
trapezoid rule converges exponentially: its error is about
exp(-2 pi^2 delta^2 / dx^2), far below double rounding at that spacing.
The branch spectra are Gaussians of width 1 / delta centred on +-g, so the
spacing must also keep them inside the Nyquist band:
``_branch_moments`` raises GridTooSmallError unless
delta (pi / dx - g) >= 6, where the spectral tail is e^-36, about 2e-16.

The moments N, Q and P are the Gaussian meter's branch matrices, the
objects that the closed forms write down analytically:
``_oracle_shift_objective`` hands the grid's own N with its Q or P to the
optimizer as a meter.  Nothing here calls the closed-form meter modules,
their branch matrices or the contraction that reads them (only the optimizer
does, for every meter alike): ``gaussian_grid_evolve`` sums its own weighted
moments.  Agreement between the two routes is what the verification
batteries check.
``adjudicate_variants`` additionally pits disputed formula variants
(transcribed locally) against these oracles to decide which is normative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .channels import phase_damping
from .common import (
    PROB_FLOOR,
    GaussianMeter,
    GridTooSmallError,
    QubitMeterReading,
    ShiftResult,
    VanishingPostselectionError,
    _check_coupling,
    _nan_max,
    _read_only,
)
from .optimize import _Objective, _modulus_channel, _pure_entries, maximize
from .qubit import PAULI_X, PAULI_Z, BlochVector, PureQubit, QubitDensity, density_from_bloch, pure_state


# ---------------------------------------------------------------------------
# Exact qubit-meter oracle
# ---------------------------------------------------------------------------


#: The coupling generator sigma_z x sigma_x.
_GENERATOR = np.kron(PAULI_Z, PAULI_X)
_IDENTITY = np.eye(4, dtype=complex)


def _propagator(g: float) -> np.ndarray:
    return math.cos(g) * _IDENTITY + 1j * math.sin(g) * _GENERATOR


def _joint_evolved(rho_s: QubitDensity, g: float) -> np.ndarray:
    """Evolved system x meter density matrix, meter starting in |0>."""
    propagator = _propagator(g)
    # rho_s x |0><0|: the system entries sit at the even (meter |0>) indices.
    joint = np.zeros((4, 4), dtype=complex)
    joint[::2, ::2] = rho_s.matrix
    return propagator @ joint @ propagator.conj().T


def qubit_meter_marginal(rho_s: QubitDensity, g: float) -> np.ndarray:
    """Reduced meter state after the interaction, no postselection."""
    g = _check_coupling(g)
    evolved = _joint_evolved(rho_s, g).reshape(2, 2, 2, 2)
    return np.einsum("smsn->mn", evolved)


def qubit_joint_evolve(rho_s: QubitDensity, psi_f: PureQubit,
                       g: float) -> QubitMeterReading:
    """Meter reading from the exact joint evolution, conditional on
    projecting the system onto ``psi_f``; ``qubit_meter_marginal`` gives the
    meter without postselection."""
    g = _check_coupling(g)
    # Row-major 2x2 read-out A = (<psi_f| x I) U (I x |0>), from U's even (meter |0>) columns.
    a = (psi_f.amplitudes().conj() @ _propagator(g)[:, ::2].reshape(2, 4)).tolist()
    # The diagonal of the meter state A rho A^dagger: row m of A rho against conj(A[m]).
    m00, m11 = (((x * rho_s.rho00 + y * rho_s.rho10) * x.conjugate()
                 + (x * rho_s.rho01 + y * rho_s.rho11) * y.conjugate()).real
                for x, y in (a[:2], a[2:]))
    prob = m00 + m11
    if prob <= PROB_FLOOR:
        raise VanishingPostselectionError(prob)
    return QubitMeterReading(m11 / prob, prob)


# ---------------------------------------------------------------------------
# Gaussian grid oracle
# ---------------------------------------------------------------------------


#: Points of the grid oracle's position grid.
_POINTS = 256


def _half_width(meter: GaussianMeter, g: float) -> float:
    """Grid half-width covering the envelope tails and the phase oscillations.

    The half-width 10 delta + 4 g delta^2 keeps the envelope's tail below
    e^-25 of its peak.  ``_POINTS`` = 256 points are enough at g delta <= 1:
    the spacing dx <= 14 delta / 128 puts the trapezoid error, about
    exp(-2 pi^2 delta^2 / dx^2), below e^-1600, and the branch spectra's
    tail at the Nyquist wavenumber pi / dx below exp(-(28.7 - 1)^2).
    """
    return 10.0 * meter.delta + 4.0 * g * meter.delta ** 2


#: Branch-moment sets kept per process.  Callers that evaluate many states at
#: a few couplings hit the cache; seeded batteries draw a fresh coupling per
#: sample, so an unbounded cache would grow by one entry per sample.
_BRANCH_CACHE_SIZE = 64
#: Grid sizes whose index arrays are kept; the oracle itself uses ``_POINTS``.
_INDEX_CACHE_SIZE = 8


@lru_cache(maxsize=_INDEX_CACHE_SIZE)
def _grid_indices(points: int):
    """Read-only k = arange(points) and the integer FFT frequencies of
    ``np.fft.fftfreq``, both as floats, and the mirror index (-k) % points."""
    k = np.arange(points)
    freqs = np.where(k < (points + 1) // 2, k, k - points)
    return tuple(map(_read_only, (k.astype(float), freqs.astype(float), -k % points)))


@lru_cache(maxsize=_BRANCH_CACHE_SIZE)
def _branch_moments(g: float, delta: float, half_width: float, points: int):
    """Norm, position, and momentum moments between the two meter branches.

    Returns one read-only (3, 2, 2) complex array, shared by every caller at
    these arguments, that unpacks into N, Q, P with
    N[j, l] = <Phi_l|Phi_j>, Q[j, l] = <Phi_l|q|Phi_j>, P[j, l] = <Phi_l|p|Phi_j>
    where Phi_0/Phi_1 are the envelope times exp(+igq)/exp(-igq).

    Grid quadrature plus a spectral derivative, independent of the closed
    forms.  The envelope is real, so Phi_1 = conj(Phi_0) with spectrum
    F_1[k] = conj(F_0[-k]), and N00 = N11, Q00 = Q11.  P follows by Parseval:
    P[j, l] = (dx / points) sum_k conj(F_l[k]) k F_j[k].  Positions,
    wavenumbers and F_1 are built from ``_grid_indices``: q = -half_width + dx k
    with dx = 2 half_width / points, and the operations of ``np.fft.fftfreq``.
    Phi_0 is written as envelope (cos(gq) + i sin(gq)), no complex exponential.

    Raises GridTooSmallError when the spectrum exp(-delta^2 (k -+ g)^2)
    reaches above e^-36 at the Nyquist wavenumber, or when the norm N00,
    checked before the FFT, is off by more than 1e-6 (a grid too short
    loses norm, one too coarse can over-count it).
    """
    dx = 2.0 * half_width / points
    k, freqs, mirror = _grid_indices(points)
    q = -half_width + dx * k
    margin = delta * (math.pi / dx - g)
    if margin < 6.0:
        raise GridTooSmallError(
            f"spacing {dx:.3g} does not resolve the branch spectra: "
            f"delta (pi / dx - g) = {margin:.3g} < 6"
        )
    envelope = (2.0 * math.pi * delta ** 2) ** -0.25 * np.exp(q * q / (-4.0 * delta ** 2))
    phase, b0 = g * q, np.empty(points, dtype=complex)
    np.cos(phase, out=b0.real)
    np.sin(phase, out=b0.imag)
    b0 *= envelope
    # conj(b0) b0 rather than envelope**2: rounds like the two-branch quadrature.
    n_diag = dx * np.vdot(b0, b0).real
    if abs(n_diag - 1.0) > 1e-6:
        raise GridTooSmallError(
            f"grid norm differs from 1 by {abs(n_diag - 1.0):.2e}"
        )
    spectrum = np.fft.fft(b0)
    mirrored = np.conj(spectrum[mirror])
    wavenumbers = 2.0 * math.pi * (freqs * (1.0 / (points * dx)))
    qb0, kf0 = q * b0, wavenumbers * spectrum
    q_diag = dx * np.vdot(b0, qb0).real
    p_diag = (dx / points * np.vdot(spectrum, kf0).real,
              dx / points * np.vdot(mirrored, wavenumbers * mirrored).real)
    n_cross, q_cross = dx * np.dot(b0, b0), dx * np.dot(b0, qb0)
    p_cross = dx / points * np.vdot(mirrored, kf0)
    moments = np.empty((3, 2, 2), dtype=complex)
    moments[:, 0, 0], moments[:, 1, 1] = (n_diag, q_diag, p_diag[0]), (n_diag, q_diag, p_diag[1])
    moments[:, 0, 1] = n_cross, q_cross, p_cross
    moments[:, 1, 0] = np.conj(moments[:, 0, 1])
    return _read_only(moments)


def gaussian_grid_evolve(rho_s: QubitDensity, psi_f: PureQubit, g: float,
                         meter: GaussianMeter) -> ShiftResult:
    """Pointer shifts from the gridded branch evolution.

    Valid at g * delta <= 1 (ValueError above), on ``_POINTS`` points over
    ``_half_width(meter, g)``, where ``_branch_moments``'s guards cannot
    fire: the half-width is at least 10 delta and the spectral margin
    128 pi / (10 + 4 g delta) - g delta at least 27.7.  Raises
    VanishingPostselectionError below the probability floor.
    """
    g = _check_coupling(g)
    if g * meter.delta > 1.0 + 1e-12:
        raise ValueError(f"grid oracle requires g * delta <= 1, got {g * meter.delta}")
    moments = _branch_moments(g, meter.delta, _half_width(meter, g), _POINTS)
    # Branch-pair weights c[j, l] = rho[j, l] conj(psi_f[j]) psi_f[l].
    a, b = psi_f.alpha, psi_f.beta
    c00, c01 = rho_s.rho00 * (a.conjugate() * a), rho_s.rho01 * (a.conjugate() * b)
    c10, c11 = rho_s.rho10 * (b.conjugate() * a), rho_s.rho11 * (b.conjugate() * b)
    prob, q_sum, p_sum = ((c00 * m00 + c01 * m01 + c10 * m10 + c11 * m11).real
                          for (m00, m01), (m10, m11) in moments.tolist())
    if prob <= PROB_FLOOR:
        raise VanishingPostselectionError(prob)
    # Initial means are zero, so the conditional means are the shifts.
    return ShiftResult(p_sum / prob, q_sum / prob, prob)


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


def _random_density(rng: np.random.Generator) -> QubitDensity:
    direction = rng.normal(size=3)
    norm = math.sqrt(direction.dot(direction))  # numpy's dot: the battery inputs are pinned
    radius = rng.random() ** (1.0 / 3.0)
    return density_from_bloch(BlochVector(*(radius * (c / norm) for c in direction.tolist())))


def _random_pure(rng: np.random.Generator) -> PureQubit:
    return pure_state(math.acos(1.0 - 2.0 * rng.random()),
                      2.0 * math.pi * rng.random())


def _oracle_shift_objective(entries, g: float, meter: GaussianMeter, which: str):
    """Shift objective whose branch matrices come from the grid, not a closed
    form: the grid's N and its Q or P, each as (1, k00, k11, Re k10, Im k10)."""
    n_mat, q_mat, p_mat = _branch_moments(g, meter.delta, _half_width(meter, g), _POINTS).tolist()
    n, m = ((1.0, k00.real, k11.real, k10.real, k10.imag)
            for (k00, _), (k10, k11) in (n_mat, q_mat if which == "dq" else p_mat))
    return _Objective(entries, n, m)


#: Pointwise inputs each sampled dispute decides on.
_POINTWISE_SAMPLES = 40
#: ``grid_n`` of the oracle-maximum searches: their theta1 scans' points.
_OPTIMIZER_GRID_N = 32


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
    """
    rng = np.random.default_rng(seed)
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
        g = rng.uniform(0.15, 0.5)
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
    max_inputs = [(1.0, 0.3)] + [(rng.uniform(0.5, 1.0), rng.uniform(0.15, 0.45))
                                 for _ in range(2)]
    for i, (kappa, g) in enumerate(max_inputs):
        objective = _oracle_shift_objective(
            _pure_entries(_modulus_channel(kappa)), g, meter, "dq")
        att = meter.coherence_factor(g)
        root = math.sqrt(1.0 - (kappa * att) ** 2)
        rows.append(max_row(dispute, i, objective, 2.0 * kappa * g * att / root,
                            2.0 * kappa * g / root))
    disputes.append((dispute, ("attenuated", "unattenuated"), rows, missing))

    # -- dispute 2: coherence power in the dephased momentum maximum --------
    dispute = "dephased-momentum-max"
    max_inputs = [(0.5, 0.3)] + [(rng.uniform(0.2, 0.8), rng.uniform(0.15, 0.45))
                                 for _ in range(2)]
    rows = []
    for i, (gamma, g) in enumerate(max_inputs):
        objective = _oracle_shift_objective(
            _pure_entries(phase_damping(gamma)), g, meter, "dp")
        coh = (1.0 - gamma) * meter.coherence_factor(g)
        squared = g / math.sqrt(1.0 - coh * coh)
        unsquared = g / math.sqrt(1.0 - (1.0 - gamma) * meter.coherence_factor(g) ** 2)
        rows.append(max_row(dispute, i, objective, squared, unsquared))
    disputes.append((dispute, ("squared-coherence", "unsquared-coherence"), rows, 0))

    # -- dispute 3: dephased qubit-meter reading numerator -------------------
    dispute = "dephased-reading-numerator"
    cases = [(pure_state(2.0, 0.5), pure_state(1.2, 4.0), 0.4, 0.3)]
    cases += [(_random_pure(rng), _random_pure(rng), rng.uniform(0.05, 0.95),
               rng.uniform(0.05, 0.6)) for _ in range(_POINTWISE_SAMPLES - 1)]
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
