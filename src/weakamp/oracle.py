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
objects that the closed forms write down analytically; ``_grid_moments``
gives them at the oracle's own grid, and the verification module hands the
grid's N with its Q or P to the optimizer as a meter.  Nothing here calls
the closed-form meter modules, their branch matrices, the contraction that
reads them or the optimizer that checks them: ``gaussian_grid_evolve`` sums
its own weighted moments.  Agreement between the two routes is what the
verification batteries check.

This module and ``verification`` are the package's only numpy users.  The
value types and channels hold plain scalars, so the qubit oracle builds its
arrays from their fields: the system density from rho's four entries and the
postselection bra from psi_f's two amplitudes.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .common import (
    PROB_FLOOR,
    GaussianMeter,
    GridTooSmallError,
    QubitMeterReading,
    ShiftResult,
    VanishingPostselectionError,
    _check_coupling,
)
from .qubit import PureQubit, QubitDensity


def _read_only(array):
    """``array`` with its writeable flag cleared, for arrays a cache hands out."""
    array.flags.writeable = False
    return array


# ---------------------------------------------------------------------------
# Exact qubit-meter oracle
# ---------------------------------------------------------------------------


#: The coupling generator sigma_z x sigma_x.
_GENERATOR = np.kron(np.diag([1.0, -1.0]), [[0.0, 1.0], [1.0, 0.0]]).astype(complex)
_IDENTITY = np.eye(4, dtype=complex)


def _propagator(g: float) -> np.ndarray:
    return math.cos(g) * _IDENTITY + 1j * math.sin(g) * _GENERATOR


def _joint_evolved(rho_s: QubitDensity, g: float) -> np.ndarray:
    """Evolved system x meter density matrix, meter starting in |0>."""
    propagator = _propagator(g)
    # rho_s x |0><0|: the system entries sit at the even (meter |0>) indices.
    joint = np.zeros((4, 4), dtype=complex)
    joint[::2, ::2] = ((rho_s.rho00, rho_s.rho01), (rho_s.rho10, rho_s.rho11))
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
    bra = np.array([psi_f.alpha.conjugate(), psi_f.beta.conjugate()])
    a = (bra @ _propagator(g)[:, ::2].reshape(2, 4)).tolist()
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


def _grid_moments(g: float, meter: GaussianMeter):
    """``_branch_moments`` on ``_POINTS`` points over ``_half_width(meter, g)``."""
    return _branch_moments(g, meter.delta, _half_width(meter, g), _POINTS)


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
    moments = _grid_moments(g, meter)
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
