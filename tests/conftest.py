import math

import numpy as np
from hypothesis import strategies as st

from weakamp import BlochVector, PureQubit, QubitDensity, density_from_bloch, pure_state


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
