"""Single-qubit state algebra: pure-state angles, density matrices, Bloch vectors.

Every matrix in this package is written in the eigenbasis of the measured
system observable, so the measurement axis itself never needs to be stored.
The types hold plain Python scalars: a pure state its two angles, a density
matrix its four entries.  Array forms of them are built only where they are
a brute-force reference: the tests' matrices, and the qubit oracle's
postselection bras.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .common import _check_unit_interval, _store

#: Tolerance for algebraic identities (hermiticity, trace, normalization).
ATOL = 1e-12

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, init=False)
class PureQubit:
    """Pure state cos(theta/2)|0> + exp(i phi) sin(theta/2)|1>.

    Angles are canonicalized on construction: theta in [0, pi], phi in
    [0, 2 pi).  The leading amplitude is therefore real and non-negative;
    at theta = pi the remaining amplitude is real and positive.
    Construction converts, validates and stores each field once.
    """

    theta: float
    phi: float

    def __init__(self, theta: float, phi: float):
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise ValueError(f"angles must be finite, got ({theta!r}, {phi!r})")
        # Fold theta into [0, pi]; crossing a pole flips the azimuth by pi.
        theta, phi = float(theta) % TWO_PI, float(phi)
        if theta > math.pi:
            theta = TWO_PI - theta
            phi = phi + math.pi
        phi = phi % TWO_PI
        # At the poles the azimuth is pure gauge; pin it to zero.
        if theta == 0.0 or theta == math.pi:
            phi = 0.0
        _store(self, "theta", theta)
        _store(self, "phi", phi)

    @property
    def alpha(self) -> complex:
        return complex(math.cos(0.5 * self.theta))

    @property
    def beta(self) -> complex:
        return cmath.exp(1j * self.phi) * math.sin(0.5 * self.theta)

    def density(self) -> "QubitDensity":
        half = 0.5 * self.theta
        a, b = complex(math.cos(half)), cmath.exp(1j * self.phi) * math.sin(half)
        return QubitDensity(a * a.conjugate(), a * b.conjugate(),
                            b * a.conjugate(), b * b.conjugate())

    def bloch(self) -> "BlochVector":
        s, c = math.sin(self.theta), math.cos(self.theta)
        return BlochVector(s * math.cos(self.phi), s * math.sin(self.phi), c)


def pure_state(theta: float, phi: float) -> PureQubit:
    """Pure qubit state from polar/azimuthal angles (canonicalized)."""
    return PureQubit(theta, phi)


@dataclass(frozen=True, init=False)
class BlochVector:
    """Point in the closed unit ball representing a qubit density matrix."""

    rx: float
    ry: float
    rz: float

    def __init__(self, rx: float, ry: float, rz: float):
        if not (math.isfinite(rx) and math.isfinite(ry) and math.isfinite(rz)):
            raise ValueError("Bloch components must be finite")
        modulus = math.sqrt(rx ** 2 + ry ** 2 + rz ** 2)
        if modulus > 1.0 + ATOL:
            raise ValueError(f"Bloch modulus {modulus} exceeds 1")
        _store(self, "rx", rx)
        _store(self, "ry", ry)
        _store(self, "rz", rz)

    @property
    def modulus(self) -> float:
        return math.sqrt(self.rx ** 2 + self.ry ** 2 + self.rz ** 2)


@dataclass(frozen=True, init=False)
class QubitDensity:
    """2x2 density matrix in the observable eigenbasis.

    Construction converts each entry to complex, validates hermiticity,
    unit trace, and positive semidefiniteness to within ``ATOL``, and
    stores each field once.
    """

    rho00: complex
    rho01: complex
    rho10: complex
    rho11: complex

    def __init__(self, rho00: complex, rho01: complex, rho10: complex, rho11: complex):
        r00, r01, r10, r11 = complex(rho00), complex(rho01), complex(rho10), complex(rho11)
        isfinite = cmath.isfinite
        if not (isfinite(r00) and isfinite(r01) and isfinite(r10) and isfinite(r11)):
            raise ValueError("density matrix entries must be finite")
        if abs(r00.imag) > ATOL or abs(r11.imag) > ATOL:
            raise ValueError("diagonal entries must be real")
        if abs(r01 - r10.conjugate()) > ATOL:
            raise ValueError("matrix is not Hermitian")
        p0, p1 = r00.real, r11.real
        if abs(p0 + p1 - 1.0) > ATOL:
            raise ValueError("trace must equal 1")
        det = p0 * p1 - (r01 * r10).real
        if p0 < -ATOL or p1 < -ATOL or det < -ATOL:
            raise ValueError("matrix is not positive semidefinite")
        _store(self, "rho00", r00)
        _store(self, "rho01", r01)
        _store(self, "rho10", r10)
        _store(self, "rho11", r11)


def density_from_bloch(v: BlochVector) -> QubitDensity:
    """Density matrix (I + r . sigma) / 2 for a Bloch vector in the unit ball."""
    return _bloch_density(v.rx, v.ry, v.rz)


def _bloch_density(rx: float, ry: float, rz: float) -> QubitDensity:
    """(I + r . sigma) / 2 from the components; QubitDensity checks |r| <= 1."""
    return QubitDensity(0.5 * (1.0 + rz), 0.5 * (rx - 1j * ry),
                        0.5 * (rx + 1j * ry), 0.5 * (1.0 - rz))


def _density_at_modulus(psi: PureQubit, r: float) -> QubitDensity:
    """Density matrix of ``psi``'s Bloch direction shrunk to modulus r in [0, 1].

    The components are ``psi.bloch()``'s, each times r, in the same float
    operations, without building either Bloch vector; an r outside [0, 1]
    is a ValueError.
    """
    r = _check_unit_interval("r", r)
    s = math.sin(psi.theta)
    return _bloch_density(r * (s * math.cos(psi.phi)), r * (s * math.sin(psi.phi)),
                          r * math.cos(psi.theta))


def bloch_from_density(rho: QubitDensity) -> BlochVector:
    return BlochVector(2.0 * rho.rho01.real, -2.0 * rho.rho01.imag,
                       rho.rho00.real - rho.rho11.real)
