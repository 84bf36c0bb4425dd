"""Brute-force joint-evolution references used to validate every closed form.

Two oracles, both built from the impulse interaction only:

* ``qubit_joint_evolve``: exact evolution of system x qubit meter.  The
  coupling generator squares to the identity, so the 4x4 propagator is
  cos(g) I + i sin(g) (sigma_z x sigma_x) with no approximation, and the
  meter is read out through the 2x2 operator (<psi_f| x I) U (I x |0>).
* ``gaussian_grid_evolve``: the Gaussian pointer on a position grid.  The
  interaction is diagonal in the system basis, so the meter splits into two
  branches Phi(q) exp(+-i g q); position moments come from quadrature and
  momentum moments from a spectral (FFT) derivative.  The envelope Phi is
  real, so the second branch is the complex conjugate of the first: one
  real cosine and sine of g q and one FFT per coupling give both branches
  and both spectra, and Parseval's theorem gives the momentum moments from
  the spectra without inverse transforms.  The size-only index arrays (grid
  index, FFT frequencies, mirror index) come from a small per-size cache,
  and a state's three weighted sums over the moments are taken in Python
  scalars by ``_grid_shifts``.

One kernel, ``_moment_kernel``, does the grid arithmetic.  It is
shape-generic: given one grid's floats it returns one (3, 2, 2) set of
moments, and given n grids' floats as arrays it evaluates the grids as n rows
of the same arrays and returns n sets, each equal bit for bit to its one-grid
call.  ``_branch_moments`` is its one-grid call behind a bounded cache, which
``gaussian_grid_evolve`` and the verification module's oracle objectives use.
``_grid_pass`` is its many-grid call, outside the cache: the Gaussian oracle
battery draws a fresh coupling per sample and evaluates them in passes.

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

This module is the package's only numpy user.  The value types and channels
hold plain scalars, so the qubit oracle builds its one state array, the
postselection bra, from psi_f's two amplitudes and reads rho's four entries
as scalars.
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


def qubit_joint_evolve(rho_s: QubitDensity, psi_f: PureQubit,
                       g: float) -> QubitMeterReading:
    """Meter reading from the exact joint evolution, conditional on
    projecting the system onto ``psi_f``."""
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
#: a few couplings hit the cache; the adjudication draws a fresh coupling per
#: pointwise input, so an unbounded cache would grow by one entry per input.
#: The Gaussian oracle battery, which does the same per sample, bypasses it.
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


def _grid_floats(g: float, delta: float, half_width: float, points: int):
    """One grid's floats, in Python arithmetic: the grid's (g, half_width, dx,
    (2 pi delta^2)^-1/4, -4 delta^2, 1 / (points dx)) and the quadrature
    weights (dx, dx / points), with dx = 2 half_width / points.

    numpy's array power rounds (2 pi delta^2)^-1/4 differently from Python's
    for some delta, so a pass of grids takes its floats from here too.
    Raises GridTooSmallError when the branch spectra exp(-delta^2 (k -+ g)^2)
    reach above e^-36 at the Nyquist wavenumber: delta (pi / dx - g) < 6.
    """
    dx = 2.0 * half_width / points
    margin = delta * (math.pi / dx - g)
    if not margin >= 6.0:  # a NaN margin fails too
        raise GridTooSmallError(
            f"spacing {dx:.3g} does not resolve the branch spectra: "
            f"delta (pi / dx - g) = {margin:.3g} < 6"
        )
    grid = (g, half_width, dx, (2.0 * math.pi * delta ** 2) ** -0.25, -4.0 * delta ** 2,
            1.0 / (points * dx))
    return grid, (dx, dx / points)


def _moment_kernel(points: int, grid, weights):
    """Branch moments N, Q, P of one grid, or of a pass of grids.

    ``grid`` and ``weights`` are ``_grid_floats``' two tuples.  As Python
    floats they give one (3, 2, 2) array.  For n grids, ``grid`` holds (n, 1)
    columns and ``weights`` (n,) rows, and the result is (3, 2, 2, n): its
    [..., i] equals the one-grid result at the i-th grid's floats, bit for
    bit: each grid is a row of points, the elementwise operations act on each
    row alone, and each quadrature is one BLAS dot of two contiguous rows,
    whichever numpy function hands them over.  Raises GridTooSmallError when
    a grid's norm N00 is off 1 by more than 1e-6 (a grid too short loses
    norm, one too coarse can over-count it), checked before the FFT.
    """
    g, half_width, dx, prefactor, width, inv_span = grid
    q_weight, p_weight = weights
    k, freqs, mirror = _grid_indices(points)
    q = -half_width + dx * k
    # One grid's sums are np.vdot and np.dot, plain calls of BLAS's zdotc and
    # zdotu; a pass's are the gufunc np.vecdot, the same zdotc row by row, on
    # the conjugate where the sum is unconjugated.
    cdot, udot = ((np.vdot, np.dot) if q.ndim == 1
                  else (np.vecdot, lambda a, b: np.vecdot(np.conj(a), b)))
    phase = g * q
    # The FFT writes into a buffer of ours; its own output allocation costs more.
    buffers = np.empty((2,) + q.shape, dtype=complex)
    b0, spectrum = buffers[0], buffers[1]
    np.cos(phase, out=b0.real)
    np.sin(phase, out=b0.imag)
    b0 *= prefactor * np.exp(q * q / width)
    # conj(b0) b0 rather than envelope**2: rounds like the two-branch quadrature.
    n_diag = q_weight * cdot(b0, b0).real
    norms = n_diag.tolist()
    for norm in norms if isinstance(norms, list) else [norms]:
        if not abs(norm - 1.0) <= 1e-6:  # a NaN norm fails too
            raise GridTooSmallError(f"grid norm differs from 1 by {abs(norm - 1.0):.2e}")
    qb0 = q * b0
    q_diag = q_weight * cdot(b0, qb0).real
    n_cross, q_cross = q_weight * udot(b0, b0), q_weight * udot(b0, qb0)
    np.fft.fft(b0, out=spectrum)
    # take, not fancy indexing: a pass's rows stay contiguous, so vecdot keeps BLAS.
    mirrored = spectrum.take(mirror, axis=-1)
    np.conj(mirrored, out=mirrored)
    # 2 pi (freqs / (points dx)) and the weighted spectra go into spent buffers:
    # fewer live arrays keep a pass's peak memory down.
    wavenumbers = np.multiply(freqs, inv_span, out=phase)
    wavenumbers *= 2.0 * math.pi
    weighted = np.multiply(wavenumbers, spectrum, out=qb0)
    p_diag0, p_cross = p_weight * cdot(spectrum, weighted).real, p_weight * cdot(mirrored, weighted)
    p_diag1 = p_weight * cdot(mirrored, np.multiply(wavenumbers, mirrored, out=weighted)).real
    # N, Q, P row-major; the (1, 0) entries are the conjugates of the (0, 1).
    moments = np.array([n_diag, n_cross, n_cross, n_diag, q_diag, q_cross, q_cross, q_diag,
                        p_diag0, p_cross, p_cross, p_diag1], dtype=complex)
    np.conj(moments[1::4], out=moments[2::4])
    return moments.reshape((3, 2, 2) + q.shape[:-1])


@lru_cache(maxsize=_BRANCH_CACHE_SIZE)
def _branch_moments(g: float, delta: float, half_width: float, points: int):
    """Norm, position, and momentum moments between the two meter branches.

    Returns one read-only (3, 2, 2) complex array, shared by every caller at
    these arguments, that unpacks into N, Q, P with
    N[j, l] = <Phi_l|Phi_j>, Q[j, l] = <Phi_l|q|Phi_j>, P[j, l] = <Phi_l|p|Phi_j>
    where Phi_0/Phi_1 are the envelope times exp(+igq)/exp(-igq).  It is
    ``_moment_kernel``'s one-grid call.

    Grid quadrature plus a spectral derivative, independent of the closed
    forms.  The envelope is real, so Phi_1 = conj(Phi_0) with spectrum
    F_1[k] = conj(F_0[-k]), and N00 = N11, Q00 = Q11.  P follows by Parseval:
    P[j, l] = (dx / points) sum_k conj(F_l[k]) k F_j[k].  Positions,
    wavenumbers and F_1 are built from ``_grid_indices``: q = -half_width + dx k
    with dx = 2 half_width / points, and the operations of ``np.fft.fftfreq``.
    Phi_0 is written as envelope (cos(gq) + i sin(gq)), no complex exponential.

    Raises GridTooSmallError when the spectrum exp(-delta^2 (k -+ g)^2)
    reaches above e^-36 at the Nyquist wavenumber, or when the norm N00,
    checked before the FFT, is off by more than 1e-6.
    """
    return _read_only(_moment_kernel(points, *_grid_floats(g, delta, half_width, points)))


#: Pointer widths the grid oracle accepts.  Its sums overflow outside about
#: 3.6e-153 <= delta <= 9.6e152 (a scan at g * delta from 0 to 1); the bounds
#: keep a margin of more than two decades at each end.
_DELTA_RANGE = (1e-150, 1e150)


def _grid_args(g: float, meter: GaussianMeter):
    """``_branch_moments``' arguments at the oracle's grid for coupling g,
    which must lie in the regime g * delta <= 1 (ValueError otherwise), for a
    pointer width in ``_DELTA_RANGE`` (GridTooSmallError otherwise)."""
    g = _check_coupling(g)
    if g * meter.delta > 1.0 + 1e-12:
        raise ValueError(f"grid oracle requires g * delta <= 1, got {g * meter.delta}")
    low, high = _DELTA_RANGE
    if not low <= meter.delta <= high:
        raise GridTooSmallError(f"grid oracle requires {low:g} <= delta <= {high:g}, "
                                f"got delta = {meter.delta!r}")
    return g, meter.delta, _half_width(meter, g), _POINTS


def _grid_moments(g: float, meter: GaussianMeter):
    """``_branch_moments`` on ``_POINTS`` points over ``_half_width(meter, g)``."""
    return _branch_moments(*_grid_args(g, meter))


def _grid_pass(couplings):
    """The oracle's branch moments at each (g, meter) of ``couplings`` from one
    kernel call, as an (n, 3, 2, 2) array: row i equals ``_grid_moments`` at
    the i-th coupling, bit for bit, and nothing is cached."""
    grid, weights = zip(*(_grid_floats(*_grid_args(g, meter)) for g, meter in couplings))
    moments = _moment_kernel(_POINTS, np.array(grid).T[..., None], np.array(weights).T)
    return moments.transpose(3, 0, 1, 2)


def _grid_shifts(rho_s: QubitDensity, psi_f: PureQubit, moments) -> ShiftResult:
    """Pointer shifts of (rho_s, psi_f) from one grid's moments, given as the
    nested lists N, Q, P of ``.tolist()``; VanishingPostselectionError below
    the probability floor."""
    # Branch-pair weights c[j, l] = rho[j, l] conj(psi_f[j]) psi_f[l].
    a, b = psi_f.alpha, psi_f.beta
    c00, c01 = rho_s.rho00 * (a.conjugate() * a), rho_s.rho01 * (a.conjugate() * b)
    c10, c11 = rho_s.rho10 * (b.conjugate() * a), rho_s.rho11 * (b.conjugate() * b)
    prob, q_sum, p_sum = [(c00 * m00 + c01 * m01 + c10 * m10 + c11 * m11).real
                          for (m00, m01), (m10, m11) in moments]
    if prob <= PROB_FLOOR:
        raise VanishingPostselectionError(prob)
    # Initial means are zero, so the conditional means are the shifts.
    return ShiftResult(p_sum / prob, q_sum / prob, prob)


def gaussian_grid_evolve(rho_s: QubitDensity, psi_f: PureQubit, g: float,
                         meter: GaussianMeter) -> ShiftResult:
    """Pointer shifts from the gridded branch evolution.

    Valid at g * delta <= 1 (ValueError above) and for delta in
    ``_DELTA_RANGE`` (GridTooSmallError outside), on ``_POINTS`` points over
    ``_half_width(meter, g)``, where ``_branch_moments``'s guards cannot
    fire: the half-width is at least 10 delta and the spectral margin
    128 pi / (10 + 4 g delta) - g delta at least 27.7.  Raises
    VanishingPostselectionError below the probability floor.
    """
    return _grid_shifts(rho_s, psi_f, _grid_moments(g, meter).tolist())
