import cmath
import math

import numpy as np
from hypothesis import strategies as st

from weakamp import (BlochVector, PureQubit, QubitDensity, amplitude_damping, density_from_bloch,
                     phase_damping, pure_state)


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


#: Preselection family -> its state at strength x along (theta, phi): Bloch
#: modulus x, or the pure state dephased or amplitude-damped at gamma = x.
FAMILY_STATES = {
    "modulus": modulus_state,
    "dephased": lambda x, theta, phi: phase_damping(x).apply(pure_state(theta, phi).density()),
    "damped": lambda x, theta, phi: amplitude_damping(x).apply(pure_state(theta, phi).density()),
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
