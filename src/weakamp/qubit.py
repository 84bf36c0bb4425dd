"""Single-qubit state algebra: pure-state angles, density matrices, Bloch vectors.

Every matrix in this package is written in the eigenbasis of the measured
system observable, so the measurement axis itself never needs to be stored.
The types hold plain Python scalars: a pure state its two angles, a density
matrix its four entries.  Array forms of them are built only where they are
the brute-force reference, in the oracles and the tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

#: Tolerance for algebraic identities (hermiticity, trace, normalization).
ATOL = 1e-12

TWO_PI = 2.0 * math.pi

#: Stores a field of a frozen state type once, from its ``__init__``.  Unlike
#: a write to ``self.__dict__``, it keeps CPython's compact per-instance
#: attribute storage: a materialized ``__dict__`` adds about 64 bytes per
#: state and, on Python 3.11, about doubles the cost of a field read.
_store = object.__setattr__


def _canonical_angles(theta: float, phi: float) -> tuple[float, float]:
    # Fold theta into [0, pi]; crossing a pole flips the azimuth by pi.
    theta = theta % TWO_PI
    if theta > math.pi:
        theta = TWO_PI - theta
        phi = phi + math.pi
    phi = phi % TWO_PI
    # At the poles the azimuth is pure gauge; pin it to zero.
    if theta == 0.0 or theta == math.pi:
        phi = 0.0
    return theta, phi


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
        theta, phi = _canonical_angles(theta, phi)
        _store(self, "theta", theta)
        _store(self, "phi", phi)

    @property
    def alpha(self) -> complex:
        return complex(math.cos(0.5 * self.theta))

    @property
    def beta(self) -> complex:
        return cmath.exp(1j * self.phi) * math.sin(0.5 * self.theta)

    def density(self) -> "QubitDensity":
        a, b = self.alpha, self.beta
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
        if not (cmath.isfinite(r00) and cmath.isfinite(r01)
                and cmath.isfinite(r10) and cmath.isfinite(r11)):
            raise ValueError("density matrix entries must be finite")
        if abs(r00.imag) > ATOL or abs(r11.imag) > ATOL:
            raise ValueError("diagonal entries must be real")
        if abs(r01 - r10.conjugate()) > ATOL:
            raise ValueError("matrix is not Hermitian")
        if abs(r00.real + r11.real - 1.0) > ATOL:
            raise ValueError("trace must equal 1")
        det = r00.real * r11.real - (r01 * r10).real
        if r00.real < -ATOL or r11.real < -ATOL or det < -ATOL:
            raise ValueError("matrix is not positive semidefinite")
        _store(self, "rho00", r00)
        _store(self, "rho01", r01)
        _store(self, "rho10", r10)
        _store(self, "rho11", r11)


def density_from_bloch(v: BlochVector) -> QubitDensity:
    """Density matrix (I + r . sigma) / 2 for a Bloch vector in the unit ball."""
    return QubitDensity(0.5 * (1.0 + v.rz), 0.5 * (v.rx - 1j * v.ry),
                        0.5 * (v.rx + 1j * v.ry), 0.5 * (1.0 - v.rz))


def bloch_from_density(rho: QubitDensity) -> BlochVector:
    return BlochVector(2.0 * rho.rho01.real, -2.0 * rho.rho01.imag,
                       rho.rho00.real - rho.rho11.real)


class Decomposition(NamedTuple):
    """Convex split rho = (1 - r) I/2 + r |psi><psi|.

    ``degenerate`` marks the maximally mixed input, where the direction is a
    convention (|0> is returned).
    """

    modulus: float
    state: PureQubit
    degenerate: bool


def decompose(rho: QubitDensity) -> Decomposition:
    """Split a density matrix into its mixed part and a pure direction."""
    v = bloch_from_density(rho)
    r = v.modulus
    if r == 0.0:
        return Decomposition(0.0, pure_state(0.0, 0.0), True)
    # atan2 stays well-conditioned near the poles, where acos(rz / r) would
    # round a tiny transverse component away entirely.
    theta = math.atan2(math.hypot(v.rx, v.ry), v.rz)
    phi = math.atan2(v.ry, v.rx) % TWO_PI
    return Decomposition(r, pure_state(theta, phi), False)


def overlap(a: PureQubit, b: PureQubit) -> complex:
    """Inner product <a|b>."""
    return complex(a.alpha.conjugate() * b.alpha + a.beta.conjugate() * b.beta)
