"""Conditional pointer shifts and maxima for the Gaussian position meter.

One formula covers every preselection state: the shifts depend on the
(possibly noisy) preselection only through its density-matrix entries, so
noise channels stay out of this module entirely.  With E = exp(-2 delta^2 g^2)
and w = alpha2 * conj(beta2):

    Pro  = rho00 |alpha2|^2 + rho11 |beta2|^2 + 2 E Re(rho10 w)
    dp'  = g (rho00 |alpha2|^2 - rho11 |beta2|^2) / Pro
    dq'  = 4 g delta^2 E Im(rho10 w) / Pro

These are the contractions (``common._contract``) of the meter's branch
matrices, which ``_branches`` builds once: the overlaps N = [[1, E], [E, 1]]
and the read-outs M_dp = g diag(1, -1) and M_dq, whose off-diagonal entry
k10 = -2i g delta^2 E.  ``gaussian_shifts`` and the optimizer's objectives
(``optimize._Objective``) read the same matrices.
"""

from __future__ import annotations

import math

from .common import (
    _check_coupling,
    _check_unit_interval,
    _contract,
    _postselection_weights,
    GaussianMeter,
    MaxResult,
    ShiftResult,
    SingularLimitError,
)
from .qubit import PureQubit, QubitDensity


def _branches(g: float, meter: GaussianMeter):
    """Branch matrices (N, M_dp, M_dq) at coupling g, in ``common._contract``'s form."""
    att = meter.coherence_factor(g)
    # At E = 0 the position read-out is 0, also where 4 g delta^2 overflows.
    return ((1.0, 1.0, 1.0, att, 0.0), (g, 1.0, -1.0, 0.0, 0.0),
            (4.0 * g * meter.delta ** 2 * att if att else 0.0, 0.0, 0.0, 0.0, -0.5))


def gaussian_shifts(rho_s: QubitDensity, psi_f: PureQubit, g: float,
                    meter: GaussianMeter) -> ShiftResult:
    """Momentum and position shifts of the pointer conditioned on postselection.

    Raises VanishingPostselectionError when the postselection probability
    falls below PROB_FLOOR.
    """
    n, m_dp, m_dq = _branches(_check_coupling(g), meter)
    # Positional calls: unpacking an argument tuple costs the scalar API more.
    c00, c11, c10_re, c10_im, prob = _postselection_weights(rho_s, psi_f, n)
    return ShiftResult(_contract(m_dp, c00, c11, c10_re, c10_im) / prob,
                       _contract(m_dq, c00, c11, c10_re, c10_im) / prob,
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

    Ends of the coupling range: 1 - kappa^2 E^2 cancels at kappa = 1 and
    small delta g: at delta = 1, |dp'|_max is off by 1.4e-9 relative at
    g = 1e-4, 1.1e-5 at 1e-6, 4.0e-4 at 1e-7 and -5.1% at 1e-8; g = 1e-9
    (and g = 0) raises SingularLimitError.  For kappa < 1, g = 0 gives 0 and
    0.  From delta g of about 19.3 on, E is 0.0: the maxima are exactly g and
    0, up to the largest float g.
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
    # Positional, as (value, theta1, theta2, phi0): keyword arguments cost the
    # scalar API more.
    dp_max = MaxResult(g / root, 0.5 * math.pi, math.asin(ke), math.pi)
    dq_max = MaxResult(2.0 * kappa * g * meter.delta ** 2 * att / root if att else 0.0,
                       0.5 * math.pi, 0.5 * math.pi, math.acos(-ke))
    return dp_max, dq_max
