import cmath
import math
from typing import Callable, NamedTuple

import numpy as np
from hypothesis import strategies as st

from weakamp import (BlochVector, PureQubit, QubitDensity, amplitude_damping,
                     damped_reading_objective, damped_shift_objective, density_from_bloch,
                     kappa_reading_objective, kappa_shift_objective, phase_damping, pure_state)
from weakamp.optimize import _family_objective, _modulus_channel


def angles():
    """Strategy for (theta, phi) pairs over the whole sphere."""
    return st.tuples(
        st.floats(min_value=0.0, max_value=math.pi),
        st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
    )


def pure_states() -> st.SearchStrategy[PureQubit]:
    return angles().map(lambda a: pure_state(*a))


@st.composite
def bloch_vectors(draw) -> BlochVector:
    x = draw(st.floats(min_value=-1.0, max_value=1.0))
    y = draw(st.floats(min_value=-1.0, max_value=1.0))
    z = draw(st.floats(min_value=-1.0, max_value=1.0))
    norm = math.sqrt(x * x + y * y + z * z)
    if norm > 1.0:
        x, y, z = x / norm, y / norm, z / norm
    return BlochVector(x, y, z)


def densities() -> st.SearchStrategy[QubitDensity]:
    return bloch_vectors().map(density_from_bloch)


def gammas():
    return st.floats(min_value=0.0, max_value=1.0)


def matrix(rho: QubitDensity) -> np.ndarray:
    """``rho`` as a 2x2 complex array, the brute-force references' form."""
    return np.array([[rho.rho00, rho.rho01], [rho.rho10, rho.rho11]], dtype=complex)


def amplitudes(psi: PureQubit) -> np.ndarray:
    """``psi``'s amplitudes (alpha, beta) as a complex array."""
    return np.array([psi.alpha, psi.beta], dtype=complex)


def half_angle_amplitudes(theta: float, phi: float) -> tuple[float, complex]:
    """(cos(theta/2), e^{i phi} sin(theta/2)), written from the angles: the
    reference transcriptions' pure-state amplitudes."""
    return math.cos(theta / 2), cmath.exp(1j * phi) * math.sin(theta / 2)


def modulus_state(kappa: float, theta: float, phi: float) -> QubitDensity:
    """Preselection of Bloch modulus kappa along the (theta, phi) direction."""
    b = pure_state(theta, phi).bloch()
    return density_from_bloch(BlochVector(kappa * b.rx, kappa * b.ry, kappa * b.rz))


class Family(NamedTuple):
    """A preselection family at strength x: the channel it applies to pure
    states, its reference state x, theta, phi -> rho, and the optimizer's
    builders of its shift (x, g, meter, which) and reading (x, g) objectives."""

    channel: Callable
    state: Callable
    shift_objective: Callable
    reading_objective: Callable


def _pure_family_state(channel: Callable) -> Callable:
    """The reference state of ``channel``'s family: channel(x) applied to
    pure_state(theta, phi)."""
    return lambda x, theta, phi: channel(x).apply(pure_state(theta, phi).density())


#: The preselection families by name: Bloch modulus kappa = x (depolarizing
#: at 1 - x with coherence exactly x, as the optimizer's kappa objectives
#: build it, its reference state built from the Bloch vector), and the pure
#: state dephased or amplitude-damped at gamma = x.  This is the one table of
#: families; a new family is added here.
FAMILIES = {
    "kappa": Family(_modulus_channel, modulus_state,
                    kappa_shift_objective, kappa_reading_objective),
    "dephased": Family(phase_damping, _pure_family_state(phase_damping),
                       lambda x, *target: _family_objective(phase_damping(x), *target),
                       lambda x, g: _family_objective(phase_damping(x), g, "qubit", "reading")),
    "damped": Family(amplitude_damping, _pure_family_state(amplitude_damping),
                     damped_shift_objective, damped_reading_objective),
}


def kron_propagator(g: float) -> np.ndarray:
    """exp(i g sigma_z x sigma_x) = cos(g) I + i sin(g) sigma_z x sigma_x, from np.kron."""
    generator = np.kron(np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
    return math.cos(g) * np.eye(4) + 1j * math.sin(g) * generator


def joint_evolved(rho: QubitDensity, g: float) -> np.ndarray:
    """U (rho x |0><0|) U^dagger as a 4x4 array, system index first: the
    brute-force reference of the qubit oracle ``qubit_joint_evolve``."""
    propagator = kron_propagator(g)
    joint = np.kron(matrix(rho), np.diag([1.0, 0.0]))
    return propagator @ joint @ propagator.conj().T
