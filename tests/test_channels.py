import math

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import densities, gammas, matrix, pure_states
from weakamp import (
    BlochVector,
    KrausChannel,
    amplitude_damping,
    bloch_from_density,
    density_from_bloch,
    depolarizing,
    phase_damping,
    pure_state,
)

ALL_CHANNELS = (depolarizing, phase_damping, amplitude_damping)

# The textbook Kraus operators (Nielsen & Chuang, section 8.3), written out
# per channel: the reference that each channel's entry map must reproduce.
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)


def _depolarizing_kraus(gamma):
    pauli = math.sqrt(0.25 * gamma)
    return (math.sqrt(1.0 - 0.75 * gamma) * IDENTITY,
            pauli * PAULI_X, pauli * PAULI_Y, pauli * PAULI_Z)


def _phase_damping_kraus(gamma):
    # (1 - gamma)^2 + gamma (2 - gamma) = 1, with no cancellation near gamma = 1.
    return (np.diag([1.0, 1.0 - gamma]).astype(complex),
            np.diag([0.0, math.sqrt(gamma * (2.0 - gamma))]).astype(complex))


def _amplitude_damping_kraus(gamma):
    return (np.diag([1.0, math.sqrt(1.0 - gamma)]).astype(complex),
            np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex))


KRAUS = {"depolarizing": _depolarizing_kraus, "phase_damping": _phase_damping_kraus,
         "amplitude_damping": _amplitude_damping_kraus}


def kraus_operators(channel):
    """The reference Kraus operators of ``channel``, by its name and gamma."""
    return KRAUS[channel.name](channel.gamma)


def _entry_map(kraus):
    """(transfer, coherence) of the operator sum of ``kraus``: the images of
    |0><0| and |1><1| give transfer's columns, and that of |1><0| the
    coherence."""
    def image(m):
        return sum(e @ np.array(m, dtype=complex) @ e.conj().T for e in kraus)

    e00, e11, e10 = image([[1, 0], [0, 0]]), image([[0, 0], [0, 1]]), image([[0, 0], [1, 0]])
    transfer = ((e00[0, 0].real, e11[0, 0].real), (e00[1, 1].real, e11[1, 1].real))
    return transfer, e10[1, 0].real


@pytest.mark.parametrize("ctor", ALL_CHANNELS)
@pytest.mark.parametrize("gamma", [0.0, 1e-9, 0.3, 0.5, 1.0 - 1e-9, 1.0])
def test_kraus_reference_maps_are_channels(ctor, gamma):
    # The entry map of each reference operator sum builds, and it is the
    # builder's, to rounding.
    channel = ctor(gamma)
    transfer, coherence = _entry_map(kraus_operators(channel))
    reference = KrausChannel(channel.name, gamma, transfer, coherence)
    assert np.allclose(reference.transfer, channel.transfer, rtol=0.0, atol=1e-15)
    assert abs(reference.coherence - channel.coherence) < 1e-15


def test_dephasing_entry_map_under_any_name_is_a_channel():
    # Stored as given: the map is a channel, a dephasing of strength 0.5,
    # whatever its name and gamma say.
    channel = KrausChannel("x", 0.5, ((1.0, 0.0), (0.0, 1.0)), 0.5)
    rho = pure_state(1.3, 0.4).density()
    assert matrix(channel.apply(rho)).tolist() == matrix(phase_damping(0.5).apply(rho)).tolist()


@pytest.mark.parametrize("transfer, coherence", [
    (((1.0, 0.0), (0.0, 1.0)), 1.5),
    # Amplitude damping at gamma = 0.3 meets |coherence|^2 <= t00 t11 with
    # equality; a coherence 1e-9 larger breaks it.
    (((1.0, 0.3), (0.0, 0.7)), math.sqrt(0.7) * (1.0 + 1e-9)),
    (((1.0, 0.0), (0.0, 1.0)), -1.5),
    (((1.1, 0.0), (-0.1, 1.0)), 0.0),
    (((0.9, 0.0), (0.0, 1.0)), 0.0),
    (((1.0, 0.5), (0.0, 0.6)), 0.0),
    (((math.nan, 0.0), (0.0, 1.0)), 0.0),
    (((1.0, 0.0), (0.0, 1.0)), math.nan),
], ids=["coherence-above-one", "amplitude-damping-edge", "negative-coherence",
        "negative-entry", "column-short", "column-long", "nan-entry", "nan-coherence"])
def test_maps_that_are_no_channel_are_rejected(transfer, coherence):
    # Such a map would fail only later, in apply, or give a state that is
    # no density matrix.
    with pytest.raises(ValueError, match=r"^(transfer|coherence) must "):
        KrausChannel("bogus", 0.5, transfer, coherence)


@pytest.mark.parametrize("ctor", ALL_CHANNELS)
def test_gamma_domain(ctor):
    with pytest.raises(ValueError, match=r"^gamma must lie in \[0, 1\], got -0\.01$"):
        ctor(-0.01)
    with pytest.raises(ValueError, match=r"^gamma must lie in \[0, 1\], got 1\.01$"):
        ctor(1.01)
    with pytest.raises(ValueError, match=r"^gamma must lie in \[0, 1\], got nan$"):
        ctor(math.nan)


@pytest.mark.parametrize("ctor", ALL_CHANNELS)
@given(gamma=gammas())
@settings(max_examples=60)
def test_completeness(ctor, gamma):
    # sum_k E_k^dag E_k = I: the reference is trace-preserving.
    acc = sum(e.conj().T @ e for e in kraus_operators(ctor(gamma)))
    assert np.max(np.abs(acc - IDENTITY)) < 1e-12


@pytest.mark.parametrize("ctor", ALL_CHANNELS)
@given(rho=densities())
@settings(max_examples=60)
def test_identity_at_zero_strength(ctor, rho):
    out = ctor(0.0).apply(rho)
    assert np.max(np.abs(matrix(out) - matrix(rho))) < 1e-15


@pytest.mark.parametrize("ctor", ALL_CHANNELS)
@given(rho=densities(), gamma=gammas())
@settings(max_examples=100)
def test_convex_form_equals_kraus_sum(ctor, rho, gamma):
    # The direct entry map against the operator sum sum_k E_k rho E_k^dag.
    channel = ctor(gamma)
    m = matrix(rho)
    summed = sum(e @ m @ e.conj().T for e in kraus_operators(channel))
    assert np.max(np.abs(matrix(channel.apply(rho)) - summed)) < 1e-12


@pytest.mark.parametrize("ctor", ALL_CHANNELS)
@given(rho=densities(), gamma=gammas())
@settings(max_examples=150)
def test_trace_and_positivity_preserved(ctor, rho, gamma):
    out = ctor(gamma).apply(rho)
    assert abs(out.rho00.real + out.rho11.real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(matrix(out)).min() >= -1e-12


class TestDepolarizing:
    def test_full_strength_gives_maximally_mixed(self):
        out = depolarizing(1.0).apply(pure_state(1.3, 0.4).density())
        assert np.max(np.abs(matrix(out) - np.eye(2) / 2)) < 1e-15

    def test_shrinks_pure_state_preserving_direction(self):
        psi = pure_state(2.0, 0.5)
        v, w = bloch_from_density(depolarizing(0.4).apply(psi.density())), psi.bloch()
        assert (v.rx, v.ry, v.rz) == pytest.approx((0.6 * w.rx, 0.6 * w.ry, 0.6 * w.rz), abs=1e-12)

    def test_halves_pole_vector(self):
        out = depolarizing(0.5).apply(density_from_bloch(BlochVector(0, 0, 1)))
        v = bloch_from_density(out)
        assert (v.rx, v.ry, v.rz) == pytest.approx((0, 0, 0.5), abs=1e-15)

    @given(psi=pure_states(), gamma=gammas())
    @settings(max_examples=150)
    def test_modulus_is_exactly_survival(self, psi, gamma):
        out = depolarizing(gamma).apply(psi.density())
        assert abs(bloch_from_density(out).modulus - (1.0 - gamma)) < 1e-12


class TestPhaseDamping:
    def test_balanced_superposition(self):
        out = phase_damping(0.3).apply(pure_state(math.pi / 2, 0).density())
        assert out.rho00.real == pytest.approx(0.5, abs=1e-12)
        assert out.rho11.real == pytest.approx(0.5, abs=1e-12)
        assert out.rho01 == pytest.approx(0.35, abs=1e-12)

    @given(psi=pure_states())
    @settings(max_examples=60)
    def test_full_strength_kills_coherence(self, psi):
        out = phase_damping(1.0).apply(psi.density())
        assert abs(out.rho01) < 1e-15
        assert out.rho00.real == pytest.approx(abs(psi.alpha) ** 2, abs=1e-12)

    @given(psi=pure_states(), gamma=gammas())
    @settings(max_examples=150)
    def test_matches_coherence_scaling_map(self, psi, gamma):
        # populations fixed, off-diagonals scaled by the survival factor
        rho = psi.density()
        out = phase_damping(gamma).apply(rho)
        assert abs(out.rho00 - rho.rho00) < 1e-12
        assert abs(out.rho11 - rho.rho11) < 1e-12
        assert abs(out.rho01 - (1.0 - gamma) * rho.rho01) < 1e-12

    def test_coherence_accurate_near_full_strength(self):
        # 1 - gamma is tiny here; the factor must not be recovered from
        # 1 - (1 - gamma)^2, which cancels.
        rho = pure_state(math.pi / 2, 0.3).density()
        for gamma in (1.0 - 1e-9, 0.9999999910036526):
            out = phase_damping(gamma).apply(rho)
            want = (1.0 - gamma) * rho.rho01
            assert abs(out.rho01 - want) <= 1e-12 * abs(want)

    def test_diagonal_states_are_fixed(self):
        rho = density_from_bloch(BlochVector(0, 0, 0))
        out = phase_damping(0.7).apply(rho)
        assert np.max(np.abs(matrix(out) - matrix(rho))) < 1e-15


class TestAmplitudeDamping:
    def test_excited_state_decays(self):
        out = amplitude_damping(0.4).apply(pure_state(math.pi, 0).density())
        assert out.rho00.real == pytest.approx(0.4, abs=1e-15)
        assert out.rho11.real == pytest.approx(0.6, abs=1e-15)
        assert abs(out.rho01) < 1e-15

    def test_full_strength_resets_to_ground(self):
        out = amplitude_damping(1.0).apply(pure_state(2.7, 1.1).density())
        assert out.rho00.real == pytest.approx(1.0, abs=1e-15)
        assert abs(out.rho01) < 1e-15

    def test_coherence_scaling(self):
        out = amplitude_damping(0.36).apply(pure_state(math.pi / 2, 0).density())
        assert out.rho01 == pytest.approx(0.8 * 0.5, abs=1e-12)

    @given(psi=pure_states(), gamma=gammas())
    @settings(max_examples=150)
    def test_matches_decay_map(self, psi, gamma):
        a2 = abs(psi.alpha) ** 2
        b2 = abs(psi.beta) ** 2
        out = amplitude_damping(gamma).apply(psi.density())
        assert abs(out.rho00 - (a2 + gamma * b2)) < 1e-12
        assert abs(out.rho11 - (1.0 - gamma) * b2) < 1e-12
        expected_cross = math.sqrt(1.0 - gamma) * psi.alpha * psi.beta.conjugate()
        assert abs(out.rho01 - expected_cross) < 1e-12
