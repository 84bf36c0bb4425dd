"""Conditional pointer shifts and maxima for the Gaussian position meter.

One formula covers every preselection state: the shifts depend on the
(possibly noisy) preselection only through its density-matrix entries, so
noise channels stay out of this module entirely.  With E = exp(-2 delta^2 g^2)
and w = alpha2 * conj(beta2):

    Pro  = rho00 |alpha2|^2 + rho11 |beta2|^2 + 2 E Re(rho10 w)
    dp'  = g (rho00 |alpha2|^2 - rho11 |beta2|^2) / Pro
    dq'  = 4 g delta^2 E Im(rho10 w) / Pro

This formula exists once, as the pieces ``common._postselection_prob`` (at
overlap E), ``_dp_numerator`` and ``_dq_numerator``, shared by
``gaussian_shifts`` and the optimizer's objectives (``optimize._Objective``),
which compute only the pieces they read.
"""

from __future__ import annotations

import math

from .common import (
    PROB_FLOOR,
    _check_coupling,
    _check_unit_interval,
    _postselection_prob,
    GaussianMeter,
    MaxResult,
    ShiftResult,
    SingularLimitError,
    VanishingPostselectionError,
)
from .qubit import PureQubit, QubitDensity


def _dp_numerator(g, rho00, rho11, cross_re, cross_im, u2, v2):
    return g * (rho00 * u2 - rho11 * v2)


def _dq_numerator(dq_scale, rho00, rho11, cross_re, cross_im, u2, v2):
    """dq' numerator for dq_scale = 4 g delta^2 E."""
    return dq_scale * cross_im


def gaussian_shifts(rho_s: QubitDensity, psi_f: PureQubit, g: float,
                    meter: GaussianMeter) -> ShiftResult:
    """Momentum and position shifts of the pointer conditioned on postselection.

    Raises VanishingPostselectionError when the postselection probability
    falls below PROB_FLOOR.
    """
    g = _check_coupling(g)
    att = meter.coherence_factor(g)
    # Positional calls: unpacking an argument tuple costs the scalar API more.
    alpha = psi_f.alpha
    u2 = abs(alpha) ** 2
    v2 = 1.0 - u2
    rho00, rho11 = rho_s.rho00.real, rho_s.rho11.real
    cross = rho_s.rho10 * (alpha * psi_f.beta.conjugate())
    cross_re, cross_im = cross.real, cross.imag
    prob = _postselection_prob(att, rho00, rho11, cross_re, cross_im, u2, v2)
    if prob <= PROB_FLOOR:
        raise VanishingPostselectionError(prob)
    dq_scale = 4.0 * g * meter.delta ** 2 * att
    return ShiftResult(_dp_numerator(g, rho00, rho11, cross_re, cross_im, u2, v2) / prob,
                       _dq_numerator(dq_scale, rho00, rho11, cross_re, cross_im, u2, v2) / prob,
                       prob)


def gaussian_max_shifts(kappa: float, g: float,
                        meter: GaussianMeter) -> tuple[MaxResult, MaxResult]:
    """Maximal |dp'| and |dq'| over all preselection/postselection pairs.

    ``kappa`` is the surviving coherence of the preselection family: the
    Bloch modulus of a depolarized pure state, or the off-diagonal factor
    1 - gamma left by dephasing.  With E = exp(-2 delta^2 g^2):

        |dp'|_max = g / sqrt(1 - kappa^2 E^2)
        |dq'|_max = 2 kappa g delta^2 E / sqrt(1 - kappa^2 E^2)

    The returned angles attain the maxima: the momentum branch at
    theta1 = pi/2, sin(theta2) = kappa E, phi0 = pi (the mirror branch
    theta2 -> pi - theta2 negates the shift), the position branch at
    theta1 = theta2 = pi/2, cos(phi0) = -kappa E.

    Limit: 1 - kappa^2 E^2 cancels at kappa = 1 and small delta g: at
    delta = 1, |dp'|_max is off by 1.4e-9 relative at g = 1e-4, 1.1e-5 at
    1e-6, 4.0e-4 at 1e-7 and -5.1% at 1e-8; g = 1e-9 raises SingularLimitError.
    """
    kappa = _check_unit_interval("kappa", kappa)
    g = _check_coupling(g)
    att = meter.coherence_factor(g)
    ke = kappa * att
    under = 1.0 - ke * ke
    if under <= 0.0:
        raise SingularLimitError(
            "maximum shift diverges at full coherence and zero coupling"
        )
    root = math.sqrt(under)
    dp_max = MaxResult(
        value=g / root,
        theta1=0.5 * math.pi,
        theta2=math.asin(ke),
        phi0=math.pi,
    )
    dq_max = MaxResult(
        value=2.0 * kappa * g * meter.delta ** 2 * att / root,
        theta1=0.5 * math.pi,
        theta2=0.5 * math.pi,
        phi0=math.acos(-ke),
    )
    return dp_max, dq_max
