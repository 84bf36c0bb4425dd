"""Readings of the discrete qubit meter.

The meter starts in |0> and is rotated by exp(i g sigma_z x sigma_x); the
recorded observable is the excited-state projector |1><1|.  The e^{+-ig}
phases are exact, so readings reduce to closed trigonometric forms.  As in
the Gaussian case, one formula covers arbitrary preselection states:

    Pro  = rho00 |alpha2|^2 + rho11 |beta2|^2 + 2 cos(2g) Re(rho10 w)
    <O>' = sin^2(g) (rho00 |alpha2|^2 + rho11 |beta2|^2 - 2 Re(rho10 w)) / Pro

with w = alpha2 * conj(beta2).  These are the contractions
(``common._contract``) of the meter's branch matrices, which ``_branches``
builds once: the overlaps N = [[1, cos 2g], [cos 2g, 1]] of the branches
cos(g)|0> +- i sin(g)|1>, and the read-out M = sin^2(g) [[1, -1], [-1, 1]]
of |1><1| between them.  ``postselected_reading`` and the optimizer's
objectives (``optimize._Objective``) read the same matrices.
"""

from __future__ import annotations

import math

from .common import (
    _check_coupling,
    _check_unit_interval,
    _contract,
    _postselection_weights,
    MaxResult,
    QubitMeterReading,
    SingularLimitError,
)
from .qubit import PureQubit, QubitDensity


def ordinary_reading(g: float) -> float:
    """Reading without postselection: sin^2(g), independent of the system state."""
    g = _check_coupling(g)
    return math.sin(g) ** 2


def _branches(g: float):
    """Branch matrices (N, M) at coupling g, in ``common._contract``'s form."""
    try:
        overlap = math.cos(2.0 * g)
    except ValueError:  # 2g overflows, from g of about 9e307 on
        overlap = 1.0 - 2.0 * math.sin(g) ** 2
    return (1.0, 1.0, 1.0, overlap, 0.0), (math.sin(g) ** 2, 1.0, 1.0, -1.0, 0.0)


def postselected_reading(rho_s: QubitDensity, psi_f: PureQubit,
                         g: float) -> QubitMeterReading:
    """Reading conditioned on postselecting the system onto ``psi_f``."""
    n, m = _branches(_check_coupling(g))
    c00, c11, c10_re, c10_im, prob = _postselection_weights(rho_s, psi_f, n)
    return QubitMeterReading(_contract(m, c00, c11, c10_re, c10_im) / prob,
                             prob)


def qubit_max_reading(kappa: float, g: float) -> MaxResult:
    """Maximal postselected reading over all preselection/postselection pairs.

    ``kappa`` is the surviving coherence (Bloch modulus of a depolarized
    pure state, or 1 - gamma under dephasing):

        max = (1 + kappa) sin^2(g) / ((1 - kappa) + 2 kappa sin^2(g))

    attained at orthogonal equatorial states: theta1 = theta2 = pi/2,
    phi0 = pi.  Ends of the coupling range: at kappa = 1 the maximum is 1.0
    for every g > 0, also below g of about 1.6e-162, where sin^2(g)
    underflows to 0, and g = 0 raises SingularLimitError; for kappa < 1,
    g = 0 gives 0.  The maximum is periodic in g, and finite up to the
    largest float g.
    """
    kappa = _check_unit_interval("kappa", kappa)
    g = _check_coupling(g)
    s2 = math.sin(g) ** 2
    denom = (1.0 - kappa) + 2.0 * kappa * s2
    if denom != 0.0:
        value = (1.0 + kappa) * s2 / denom
    elif g > 0.0:  # kappa = 1 and sin^2(g) underflowed
        value = 1.0
    else:
        raise SingularLimitError(
            "maximum reading is undefined at full coherence and zero coupling"
        )
    return MaxResult(value, 0.5 * math.pi, 0.5 * math.pi, math.pi)
