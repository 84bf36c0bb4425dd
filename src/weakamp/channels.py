"""Depolarizing, phase-damping, and amplitude-damping channels on one qubit.

Each channel acts on the preselection state before the meter interaction,
and all three act on the density entries the same way: populations move
between |0> and |1> through a 2x2 column-stochastic ``transfer`` matrix, and
the coherence rho10 is scaled by one ``coherence`` factor (1 - gamma for
depolarizing and phase damping, sqrt(1 - gamma) for amplitude damping).
``KrausChannel.apply`` is that entry map for every channel.  Each entry is
computed directly from gamma, so it keeps its relative accuracy as gamma
approaches 0 or 1.  The textbook Kraus operators realizing the same maps
(Nielsen & Chuang, section 8.3) are the channel tests' reference; no route
here builds them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .common import _check_unit_interval
from .qubit import QubitDensity

DEPOLARIZING = "depolarizing"
PHASE_DAMPING = "phase_damping"
AMPLITUDE_DAMPING = "amplitude_damping"


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A qubit channel, stored as its action on the density entries.

    ``transfer`` is ((t00, t01), (t10, t11)) with rho00' = t00 rho00 + t01 rho11
    and rho11' = t10 rho00 + t11 rho11; rho10 and rho01 are scaled by
    ``coherence``.  This entry map is the channel's operator sum
    sum_k E_k rho E_k^dag for its Kraus operators E_k, written out.
    """

    name: str
    gamma: float
    transfer: tuple[tuple[float, float], tuple[float, float]]
    coherence: float

    def apply(self, rho: QubitDensity) -> QubitDensity:
        (t00, t01), (t10, t11) = self.transfer
        c = self.coherence
        return QubitDensity(t00 * rho.rho00 + t01 * rho.rho11, c * rho.rho01,
                            c * rho.rho10, t10 * rho.rho00 + t11 * rho.rho11)


def depolarizing(gamma: float) -> KrausChannel:
    """Channel that replaces the state with I/2 with probability gamma."""
    gamma = _check_unit_interval("gamma", gamma)
    half = 0.5 * gamma
    return KrausChannel(DEPOLARIZING, gamma, ((1.0 - half, half), (half, 1.0 - half)),
                        1.0 - gamma)


def phase_damping(gamma: float) -> KrausChannel:
    """Dephasing that multiplies off-diagonal entries by 1 - gamma.

    The trace-preserving Kraus pair is E_0 = diag(1, 1 - gamma),
    E_1 = diag(0, sqrt(gamma (2 - gamma))).
    """
    gamma = _check_unit_interval("gamma", gamma)
    return KrausChannel(PHASE_DAMPING, gamma, ((1.0, 0.0), (0.0, 1.0)), 1.0 - gamma)


def amplitude_damping(gamma: float) -> KrausChannel:
    """Decay toward |0> with excited-state loss probability gamma."""
    gamma = _check_unit_interval("gamma", gamma)
    return KrausChannel(AMPLITUDE_DAMPING, gamma, ((1.0, gamma), (0.0, 1.0 - gamma)),
                        math.sqrt(1.0 - gamma))
