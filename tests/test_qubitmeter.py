import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import FAMILY_STATES, densities, half_angle_amplitudes, modulus_state, pure_states
from weakamp import (
    SingularLimitError,
    VanishingPostselectionError,
    amplitude_damping,
    amplitude_damping_max,
    ordinary_reading,
    postselected_reading,
    pure_state,
    qubit_joint_evolve,
    qubit_max_reading,
)


def _modulus_reference(r, th1, ph1, th2, ph2, g):
    a1, b1 = half_angle_amplitudes(th1, ph1)
    a2, b2 = half_angle_amplitudes(th2, ph2)
    cross = (a1.conjugate() * b1 * a2 * b2.conjugate()).real
    aa = abs(a1) ** 2 * abs(a2) ** 2
    bb = abs(b1) ** 2 * abs(b2) ** 2
    pro = (1 - r) / 2 + r * (aa + bb + 2 * cross * math.cos(2 * g))
    reading = ((1 - r) / 2 + r * (aa + bb - 2 * cross)) * math.sin(g) ** 2 / pro
    return reading, pro


def _dephased_reference(gamma, th1, ph1, th2, ph2, g):
    # coherence-weighted cross term; the ground-state amplitudes weight the
    # numerator (the adjudicated variant)
    a1, b1 = half_angle_amplitudes(th1, ph1)
    a2, b2 = half_angle_amplitudes(th2, ph2)
    cross = (a1.conjugate() * b1 * a2 * b2.conjugate()).real
    aa = abs(a1) ** 2 * abs(a2) ** 2
    bb = abs(b1) ** 2 * abs(b2) ** 2
    pro = aa + bb + 2 * (1 - gamma) * cross * math.cos(2 * g)
    reading = (aa + bb - 2 * (1 - gamma) * cross) * math.sin(g) ** 2 / pro
    return reading, pro


def _damped_reference(gamma, th1, ph1, th2, ph2, g):
    a1, b1 = half_angle_amplitudes(th1, ph1)
    a2, b2 = half_angle_amplitudes(th2, ph2)
    cross = (a1.conjugate() * b1 * a2 * b2.conjugate()).real
    root = math.sqrt(1 - gamma)
    ground = abs(a1) ** 2 + gamma * abs(b1) ** 2
    numer = (ground * abs(a2) ** 2 + (1 - gamma) * abs(b1) ** 2 * abs(b2) ** 2
             - 2 * root * cross)
    pro = (abs(a1) ** 2 * abs(a2) ** 2 + gamma * abs(b1) ** 2 * abs(a2) ** 2
           + (1 - gamma) * abs(b1) ** 2 * abs(b2) ** 2
           + 2 * root * cross * math.cos(2 * g))
    return numer / pro * math.sin(g) ** 2, pro


class TestOrdinaryReading:
    def test_endpoints(self):
        assert ordinary_reading(0.0) == 0.0
        assert ordinary_reading(math.pi / 2) == pytest.approx(1.0, abs=1e-15)

    def test_weak_regime(self):
        assert ordinary_reading(0.1) == pytest.approx(0.0099667, abs=1e-7)
        assert ordinary_reading(0.1) == pytest.approx(math.sin(0.1) ** 2, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            ordinary_reading(-0.1)


class TestPostselectedReading:
    def test_postselecting_the_unperturbed_eigenstate(self):
        psi = pure_state(0.0, 0.0)
        for g in (0.05, 0.3, 1.0):
            res = postselected_reading(psi.density(), psi, g)
            assert res.reading == pytest.approx(math.sin(g) ** 2, abs=1e-15)
            assert res.prob == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("theta1", [0.3, 1.1, 2.0])
    @pytest.mark.parametrize("g", [0.03, 0.05, 0.1, 0.7])
    def test_orthogonal_pair_reads_one(self, theta1, g):
        psi_i = pure_state(theta1, 0.8)
        psi_f = pure_state(math.pi - theta1, 0.8 + math.pi)
        res = postselected_reading(psi_i.density(), psi_f, g)
        assert res.reading == pytest.approx(1.0, abs=1e-12)

    def test_damped_state_matches_exact_evolution(self):
        rho = amplitude_damping(0.3).apply(pure_state(2.0, 0.5).density())
        psi_f = pure_state(1.2, 4.0)
        closed = postselected_reading(rho, psi_f, 0.1)
        exact = qubit_joint_evolve(rho, psi_f, 0.1)
        assert closed.reading == pytest.approx(exact.reading, abs=1e-12)
        assert closed.prob == pytest.approx(exact.prob, abs=1e-12)

    @pytest.mark.parametrize("g", [9e307, sys.float_info.max])
    def test_huge_coupling_matches_exact_evolution(self, g):
        # cos(2g) raised a bare "math domain error" once 2g overflowed.
        rho, psi_f = modulus_state(0.5, 1.0, 0.0), pure_state(2.0, 0.0)
        closed = postselected_reading(rho, psi_f, g)
        exact = qubit_joint_evolve(rho, psi_f, g)
        assert closed.reading == pytest.approx(exact.reading, abs=1e-12)
        assert closed.prob == pytest.approx(exact.prob, abs=1e-12)

    def test_vanishing_postselection(self):
        with pytest.raises(VanishingPostselectionError):
            postselected_reading(pure_state(0, 0).density(), pure_state(math.pi, 0), 0.3)

    @given(rho=densities(), psi=pure_states())
    @settings(max_examples=150)
    def test_reading_bounds(self, rho, psi):
        try:
            res = postselected_reading(rho, psi, 0.4)
        except VanishingPostselectionError:
            return
        assert -1e-12 <= res.reading <= 1.0 + 1e-12

    @given(rho=densities(), psi=pure_states())
    @settings(max_examples=150)
    def test_conditional_branches_recombine(self, rho, psi):
        # probability-weighted conditional readings over a complete
        # postselection pair must recover the unconditional reading
        perp = pure_state(math.pi - psi.theta, psi.phi + math.pi)
        g = 0.7
        try:
            a = postselected_reading(rho, psi, g)
            b = postselected_reading(rho, perp, g)
        except VanishingPostselectionError:
            return
        assert abs(a.prob + b.prob - 1.0) < 1e-12
        total = a.prob * a.reading + b.prob * b.reading
        assert abs(total - ordinary_reading(g)) < 1e-12


class TestSpecializations:
    """Each family's reference transcription at 1000 seeded draws."""

    def _check_family(self, family, seed, reference):
        rng = np.random.default_rng(seed)
        for _ in range(1000):
            th1, th2 = rng.uniform(0, math.pi, size=2)
            ph1, ph2 = rng.uniform(0, 2 * math.pi, size=2)
            g = rng.uniform(0.0, 1.2)
            x = rng.uniform(0.0, 1.0)
            reading, pro = reference(x, th1, ph1, th2, ph2, g)
            if pro < 1e-9:
                continue
            res = postselected_reading(FAMILY_STATES[family](x, th1, ph1),
                                       pure_state(th2, ph2), g)
            assert abs(res.reading - reading) < 1e-12
            assert abs(res.prob - pro) < 1e-12

    def test_modulus_family(self):
        self._check_family("modulus", 201, _modulus_reference)

    def test_dephased_family(self):
        self._check_family("dephased", 202, _dephased_reference)

    def test_damped_family(self):
        self._check_family("damped", 203, _damped_reference)


class TestMaxReading:
    def test_pure_preselection_saturates(self):
        assert qubit_max_reading(1.0, 0.1).value == pytest.approx(1.0, abs=1e-15)

    def test_full_coherence_reads_one_where_the_sine_underflows(self):
        # sin^2(g) underflows to 0 below g of about 1.6e-162; the maximum is still 1.
        assert qubit_max_reading(1.0, 1e-170).value == 1.0
        assert amplitude_damping_max("qubit", 0.5, 1e-170, "reading").value == 1.0

    def test_no_coherence_reduces_to_ordinary(self):
        for g in (0.03, 0.1, 0.6):
            assert qubit_max_reading(0.0, g).value == pytest.approx(
                ordinary_reading(g), abs=1e-15)

    def test_partial_coherence_value(self):
        assert qubit_max_reading(0.9, 0.1).value == pytest.approx(0.16056, abs=1e-5)

    def test_singular_limit(self):
        with pytest.raises(SingularLimitError):
            qubit_max_reading(1.0, 0.0)

    def test_domain_checks(self):
        with pytest.raises(ValueError, match=r"^kappa must lie in \[0, 1\], got -0\.5$"):
            qubit_max_reading(-0.5, 0.1)
        with pytest.raises(ValueError, match=r"^kappa must lie in \[0, 1\], got nan$"):
            qubit_max_reading(math.nan, 0.1)

    @pytest.mark.parametrize("kappa", [0.1, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("g", [0.03, 0.1, 0.8])
    def test_argmax_attains_maximum(self, kappa, g):
        target = qubit_max_reading(kappa, g)
        rho = modulus_state(kappa, target.theta1, target.phi0)
        res = postselected_reading(rho, pure_state(target.theta2, 0.0), g)
        assert abs(res.reading - target.value) < 1e-10

    def test_monotone_in_coherence(self):
        values = [qubit_max_reading(k, 0.1).value for k in np.linspace(0, 1, 30)]
        assert all(b > a for a, b in zip(values, values[1:]))
