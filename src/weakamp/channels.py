"""Depolarizing, phase-damping, and amplitude-damping channels on one qubit.

Each channel acts on the preselection state before the meter interaction,
and all three act on the density entries the same way: populations move
between |0> and |1> through a 2x2 column-stochastic ``transfer`` matrix, and
the coherence rho10 is scaled by one ``coherence`` factor (1 - gamma for
depolarizing and phase damping, sqrt(1 - gamma) for amplitude damping).
``KrausChannel.apply`` is that entry map for every channel.  Each entry is
computed directly from gamma, so it keeps its relative accuracy as gamma
approaches 0 or 1.  The Kraus operators are built on demand; they are the
reference implementation that ``apply_kraus`` and ``completeness_defect`` use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .common import _check_unit_interval
from .qubit import IDENTITY, PAULI_X, PAULI_Y, PAULI_Z, QubitDensity

DEPOLARIZING = "depolarizing"
PHASE_DAMPING = "phase_damping"
AMPLITUDE_DAMPING = "amplitude_damping"


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A qubit channel, stored as its action on the density entries.

    ``transfer`` is ((t00, t01), (t10, t11)) with rho00' = t00 rho00 + t01 rho11
    and rho11' = t10 rho00 + t11 rho11; rho10 and rho01 are scaled by
    ``coherence``.  ``kraus(gamma)`` builds operators realizing the same map.
    """

    name: str
    gamma: float
    transfer: tuple[tuple[float, float], tuple[float, float]]
    coherence: float
    kraus: Callable[[float], tuple[np.ndarray, ...]] = field(repr=False)

    @property
    def operators(self) -> tuple[np.ndarray, ...]:
        return self.kraus(self.gamma)

    def apply(self, rho: QubitDensity) -> QubitDensity:
        (t00, t01), (t10, t11) = self.transfer
        c = self.coherence
        return QubitDensity(t00 * rho.rho00 + t01 * rho.rho11, c * rho.rho01,
                            c * rho.rho10, t10 * rho.rho00 + t11 * rho.rho11)

    def apply_kraus(self, rho: QubitDensity) -> QubitDensity:
        """Explicit operator sum sum_k E_k rho E_k^dag."""
        m = rho.matrix
        out = np.zeros((2, 2), dtype=complex)
        for e in self.operators:
            out += e @ m @ e.conj().T
        # Symmetrize away rounding dust so the result validates cleanly.
        out = 0.5 * (out + out.conj().T)
        return QubitDensity.from_matrix(out)

    def completeness_defect(self) -> float:
        """Largest entrywise deviation of sum_k E_k^dag E_k from identity."""
        acc = np.zeros((2, 2), dtype=complex)
        for e in self.operators:
            acc += e.conj().T @ e
        return float(np.max(np.abs(acc - IDENTITY)))


def _depolarizing_kraus(gamma: float) -> tuple[np.ndarray, ...]:
    pauli = math.sqrt(0.25 * gamma)
    return (math.sqrt(1.0 - 0.75 * gamma) * IDENTITY,
            pauli * PAULI_X, pauli * PAULI_Y, pauli * PAULI_Z)


def _phase_damping_kraus(gamma: float) -> tuple[np.ndarray, ...]:
    # (1 - gamma)^2 + gamma (2 - gamma) = 1, with no cancellation near gamma = 1.
    return (np.diag([1.0, 1.0 - gamma]).astype(complex),
            np.diag([0.0, math.sqrt(gamma * (2.0 - gamma))]).astype(complex))


def _amplitude_damping_kraus(gamma: float) -> tuple[np.ndarray, ...]:
    return (np.diag([1.0, math.sqrt(1.0 - gamma)]).astype(complex),
            np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex))


def depolarizing(gamma: float) -> KrausChannel:
    """Channel that replaces the state with I/2 with probability gamma."""
    gamma = _check_unit_interval("gamma", gamma)
    half = 0.5 * gamma
    return KrausChannel(DEPOLARIZING, gamma, ((1.0 - half, half), (half, 1.0 - half)),
                        1.0 - gamma, _depolarizing_kraus)


def phase_damping(gamma: float) -> KrausChannel:
    """Dephasing that multiplies off-diagonal entries by 1 - gamma.

    The trace-preserving Kraus pair is E_0 = diag(1, 1 - gamma),
    E_1 = diag(0, sqrt(gamma (2 - gamma))).
    """
    gamma = _check_unit_interval("gamma", gamma)
    return KrausChannel(PHASE_DAMPING, gamma, ((1.0, 0.0), (0.0, 1.0)),
                        1.0 - gamma, _phase_damping_kraus)


def amplitude_damping(gamma: float) -> KrausChannel:
    """Decay toward |0> with excited-state loss probability gamma."""
    gamma = _check_unit_interval("gamma", gamma)
    return KrausChannel(AMPLITUDE_DAMPING, gamma, ((1.0, gamma), (0.0, 1.0 - gamma)),
                        math.sqrt(1.0 - gamma), _amplitude_damping_kraus)
