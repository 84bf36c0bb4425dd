"""Readings of the discrete qubit meter.

The meter starts in |0> and is rotated by exp(i g sigma_z x sigma_x); the
recorded observable is the excited-state projector |1><1|.  The e^{+-ig}
phases are exact, so readings reduce to closed trigonometric forms.  As in
the Gaussian case, one formula covers arbitrary preselection states:

    Pro  = rho00 |alpha2|^2 + rho11 |beta2|^2 + 2 cos(2g) Re(rho10 w)
    <O>' = sin^2(g) (rho00 |alpha2|^2 + rho11 |beta2|^2 - 2 Re(rho10 w)) / Pro

with w = alpha2 * conj(beta2).  This formula exists once, as the pieces
``common._postselection_prob`` (at overlap cos(2g)) and
``_reading_numerator``, shared by ``postselected_reading`` and the
optimizer's objectives (``optimize._Objective``).
"""

from __future__ import annotations

import math

from .common import (
    PROB_FLOOR,
    _check_coupling,
    _check_unit_interval,
    _postselection_prob,
    MaxResult,
    QubitMeterReading,
    SingularLimitError,
    VanishingPostselectionError,
)
from .qubit import PureQubit, QubitDensity


def ordinary_reading(g: float) -> float:
    """Reading without postselection: sin^2(g), independent of the system state."""
    g = _check_coupling(g)
    return math.sin(g) ** 2


def _reading_numerator(s2, rho00, rho11, cross_re, cross_im, u2, v2):
    """<O>' numerator for s2 = sin^2(g)."""
    return s2 * (rho00 * u2 + rho11 * v2 - 2.0 * cross_re)


def postselected_reading(rho_s: QubitDensity, psi_f: PureQubit,
                         g: float) -> QubitMeterReading:
    """Reading conditioned on postselecting the system onto ``psi_f``."""
    g = _check_coupling(g)
    alpha = psi_f.alpha
    u2 = abs(alpha) ** 2
    v2 = 1.0 - u2
    rho00, rho11 = rho_s.rho00.real, rho_s.rho11.real
    cross = rho_s.rho10 * (alpha * psi_f.beta.conjugate())
    cross_re, cross_im = cross.real, cross.imag
    prob = _postselection_prob(math.cos(2.0 * g), rho00, rho11, cross_re, cross_im, u2, v2)
    if prob <= PROB_FLOOR:
        raise VanishingPostselectionError(prob)
    num = _reading_numerator(math.sin(g) ** 2, rho00, rho11, cross_re, cross_im, u2, v2)
    return QubitMeterReading(num / prob, prob)


def qubit_max_reading(kappa: float, g: float) -> MaxResult:
    """Maximal postselected reading over all preselection/postselection pairs.

    ``kappa`` is the surviving coherence (Bloch modulus of a depolarized
    pure state, or 1 - gamma under dephasing):

        max = (1 + kappa) sin^2(g) / ((1 - kappa) + 2 kappa sin^2(g))

    attained at orthogonal equatorial states: theta1 = theta2 = pi/2,
    phi0 = pi.  At kappa = 1 the maximum is 1 for any g > 0.
    """
    kappa = _check_unit_interval("kappa", kappa)
    g = _check_coupling(g)
    s2 = math.sin(g) ** 2
    denom = (1.0 - kappa) + 2.0 * kappa * s2
    if denom == 0.0:
        raise SingularLimitError(
            "maximum reading is undefined at full coherence and zero coupling"
        )
    return MaxResult(
        value=(1.0 + kappa) * s2 / denom,
        theta1=0.5 * math.pi,
        theta2=0.5 * math.pi,
        phi0=math.pi,
    )
