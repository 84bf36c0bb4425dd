import hashlib
import math
import random
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (FAMILY_STATES, amplitudes, densities, half_angle_amplitudes, matrix,
                      modulus_state, pure_states)
from weakamp import (
    GaussianMeter,
    SingularLimitError,
    VanishingPostselectionError,
    amplitude_damping,
    amplitude_damping_max,
    bloch_from_density,
    depolarizing,
    gaussian_grid_evolve,
    gaussian_max_shifts,
    gaussian_shifts,
    maximize,
    kappa_shift_objective,
    phase_damping,
    postselected_reading,
    pure_state,
    qubit_max_reading,
)

METER = GaussianMeter(1.0)


# Reference transcriptions, written directly in the pure-state amplitudes and
# kept independent of the package's unified formula.

def _modulus_reference(r, th1, ph1, th2, ph2, g, delta):
    a1, b1 = half_angle_amplitudes(th1, ph1)
    a2, b2 = half_angle_amplitudes(th2, ph2)
    att = math.exp(-2.0 * delta ** 2 * g ** 2)
    cross = a1.conjugate() * b1 * a2 * b2.conjugate()
    aa = abs(a1) ** 2 * abs(a2) ** 2
    bb = abs(b1) ** 2 * abs(b2) ** 2
    pro = (1 - r) / 2 + r * (aa + bb + 2 * cross.real * att)
    dp = g * ((1 - r) * (abs(a2) ** 2 - abs(b2) ** 2) + 2 * r * (aa - bb)) / (2 * pro)
    dq = 4 * r * g * delta ** 2 * att * cross.imag / pro
    return dp, dq, pro


def _dephased_reference(gamma, th1, ph1, th2, ph2, g, delta):
    a1, b1 = half_angle_amplitudes(th1, ph1)
    a2, b2 = half_angle_amplitudes(th2, ph2)
    att = math.exp(-2.0 * delta ** 2 * g ** 2)
    cross = a1.conjugate() * b1 * a2 * b2.conjugate()
    aa = abs(a1) ** 2 * abs(a2) ** 2
    bb = abs(b1) ** 2 * abs(b2) ** 2
    pro = aa + bb + 2 * (1 - gamma) * cross.real * att
    dp = (aa - bb) * g / pro
    # angle form of the dephased position shift, denominator = 2 * pro
    phi0 = ph1 - ph2
    dq = (2 * (1 - gamma) * g * delta ** 2 * att
          * math.sin(th1) * math.sin(th2) * math.sin(phi0)) \
        / (1 + math.cos(th1) * math.cos(th2)
           + (1 - gamma) * math.sin(th1) * math.sin(th2) * math.cos(phi0) * att)
    return dp, dq, pro


def _damped_reference(gamma, th1, ph1, th2, ph2, g, delta):
    a1, b1 = half_angle_amplitudes(th1, ph1)
    a2, b2 = half_angle_amplitudes(th2, ph2)
    att = math.exp(-2.0 * delta ** 2 * g ** 2)
    cross = a1.conjugate() * b1 * a2 * b2.conjugate()
    survive = 1 - gamma
    ground = abs(a1) ** 2 + gamma * abs(b1) ** 2
    pro = ground * abs(a2) ** 2 + survive * abs(b1) ** 2 * abs(b2) ** 2 \
        + 2 * math.sqrt(survive) * cross.real * att
    dp = (ground * abs(a2) ** 2 - survive * abs(b2) ** 2 * abs(b1) ** 2) / pro * g
    dq = 4 * math.sqrt(survive) * g * delta ** 2 * att * cross.imag / pro
    return dp, dq, pro


def _random_case(rng):
    th1, th2 = rng.uniform(0, math.pi, size=2)
    ph1, ph2 = rng.uniform(0, 2 * math.pi, size=2)
    g = rng.uniform(0.0, 0.5)
    delta = rng.uniform(0.5, 2.0)
    return th1, ph1, th2, ph2, g, delta


class TestShifts:
    def test_zero_coupling(self):
        rho = modulus_state(0.7, 1.2, 0.4)
        psi_f = pure_state(0.9, 0.0)
        res = gaussian_shifts(rho, psi_f, 0.0, METER)
        assert res.dp_shift == 0.0
        assert res.dq_shift == 0.0
        v = amplitudes(psi_f)
        assert res.prob == pytest.approx(np.vdot(v, matrix(rho) @ v).real, abs=1e-15)

    def test_symmetric_pair_has_no_shift(self):
        psi = pure_state(math.pi / 2, 0.0)
        rho = psi.density()
        for g in (0.01, 0.1, 0.4):
            res = gaussian_shifts(rho, psi, g, METER)
            assert abs(res.dp_shift) < 1e-15
            assert abs(res.dq_shift) < 1e-15

    def test_matches_grid_oracle_on_noisy_state(self):
        rho = depolarizing(0.2).apply(pure_state(2.0, 0.5).density())
        psi_f = pure_state(1.0, 0.0)
        closed = gaussian_shifts(rho, psi_f, 0.1, METER)
        grid = gaussian_grid_evolve(rho, psi_f, 0.1, METER)
        assert closed.dp_shift == pytest.approx(grid.dp_shift, abs=1e-6)
        assert closed.dq_shift == pytest.approx(grid.dq_shift, abs=1e-6)
        assert closed.prob == pytest.approx(grid.prob, abs=1e-6)

    def test_vanishing_postselection(self):
        rho = pure_state(0.0, 0.0).density()
        with pytest.raises(VanishingPostselectionError) as err:
            gaussian_shifts(rho, pure_state(math.pi, 0.0), 0.1, METER)
        assert err.value.prob <= 1e-12

    @pytest.mark.parametrize("g,delta", [(3e154, 1.0), (1e308, 1.0), (sys.float_info.max, 1.0),
                                         (1.0, 1.3e154)])
    def test_huge_coupling_has_no_coherence(self, g, delta):
        # E is 0 from delta g of about 19.3 on.  (delta g)^2 past the float
        # range raised OverflowError, and 4 g delta^2 E overflowed to inf * 0.
        meter = GaussianMeter(delta)
        assert meter.coherence_factor(g) == 0.0
        res = gaussian_shifts(modulus_state(1.0, 1.0, 0.0), pure_state(2.0, 0.0), g, meter)
        assert math.isfinite(res.dp_shift) and res.dq_shift == 0.0
        dp_max, dq_max = gaussian_max_shifts(1.0, g, meter)
        assert (dp_max.value, dq_max.value) == (g, 0.0)
        assert amplitude_damping_max(meter, 0.5, g, "dq").value == 0.0
        assert kappa_shift_objective(0.5, g, meter, "dq")(1.0, 2.0, 0.5) == 0.0

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError):
            gaussian_shifts(pure_state(1, 0).density(), pure_state(2, 0), -0.1, METER)

    @given(rho=densities(), psi=pure_states())
    @settings(max_examples=150)
    def test_probability_in_unit_interval(self, rho, psi):
        try:
            res = gaussian_shifts(rho, psi, 0.2, METER)
        except VanishingPostselectionError:
            return
        assert -1e-12 <= res.prob <= 1.0 + 1e-12

    @given(rho=densities(), psi=pure_states())
    @settings(max_examples=150)
    def test_conditional_branches_recombine(self, rho, psi):
        # weighting the two postselection branches by their probabilities
        # must recover the unconditional state: momentum mean g <A>, position
        # mean zero, total probability one
        perp = pure_state(math.pi - psi.theta, psi.phi + math.pi)
        g = 0.3
        try:
            a = gaussian_shifts(rho, psi, g, METER)
            b = gaussian_shifts(rho, perp, g, METER)
        except VanishingPostselectionError:
            return
        assert abs(a.prob + b.prob - 1.0) < 1e-12
        kick = g * (rho.rho00.real - rho.rho11.real)
        assert abs(a.prob * a.dp_shift + b.prob * b.dp_shift - kick) < 1e-12
        assert abs(a.prob * a.dq_shift + b.prob * b.dq_shift) < 1e-12


class TestSpecializations:
    """Each family's reference transcription at 1000 seeded draws."""

    def _check_family(self, family, seed, reference):
        rng = np.random.default_rng(seed)
        for _ in range(1000):
            th1, ph1, th2, ph2, g, delta = _random_case(rng)
            x = rng.uniform(0.0, 1.0)
            dp, dq, pro = reference(x, th1, ph1, th2, ph2, g, delta)
            if pro < 1e-9:
                continue
            res = gaussian_shifts(FAMILY_STATES[family](x, th1, ph1),
                                  pure_state(th2, ph2), g, GaussianMeter(delta))
            assert abs(res.dp_shift - dp) < 1e-12
            assert abs(res.dq_shift - dq) < 1e-12
            assert abs(res.prob - pro) < 1e-12

    def test_modulus_family(self):
        self._check_family("modulus", 101, _modulus_reference)

    def test_dephased_family(self):
        self._check_family("dephased", 102, _dephased_reference)

    def test_damped_family(self):
        self._check_family("damped", 103, _damped_reference)


class TestMaxShifts:
    def test_no_coherence(self):
        dp_max, dq_max = gaussian_max_shifts(0.0, 0.1, METER)
        assert dp_max.value == pytest.approx(0.1, abs=1e-15)
        assert dq_max.value == 0.0

    def test_minimum_uncertainty(self):
        for delta in (0.25, 1.0, 3.0):
            meter = GaussianMeter(delta)
            assert abs(meter.dq * meter.dp - 0.5) < 1e-12

    def test_small_coupling_amplification(self):
        g = 0.05 * METER.dp
        dp_max, _ = gaussian_max_shifts(1.0, g, METER)
        assert dp_max.value / METER.dp == pytest.approx(1.000625, abs=1e-6)
        # both maxima approach the meter spreads as the coupling vanishes
        tiny = 1e-4 * METER.dp
        dp_max, dq_max = gaussian_max_shifts(1.0, tiny, METER)
        assert dp_max.value / METER.dp == pytest.approx(1.0, abs=1e-8)
        assert dq_max.value / METER.dq == pytest.approx(1.0, abs=1e-8)

    def test_half_coherence_value(self):
        g = 0.1 * METER.dp
        dp_max, _ = gaussian_max_shifts(0.5, g, METER)
        assert dp_max.value / g == pytest.approx(1.15278, abs=2e-5)
        numeric = abs(maximize(kappa_shift_objective(0.5, g, METER, "dp")).value)
        assert abs(numeric - dp_max.value) / dp_max.value < 1e-6

    def test_singular_limit(self):
        with pytest.raises(SingularLimitError):
            gaussian_max_shifts(1.0, 0.0, METER)

    def test_domain_checks(self):
        with pytest.raises(ValueError, match=r"^kappa must lie in \[0, 1\], got 1\.2$"):
            gaussian_max_shifts(1.2, 0.1, METER)
        with pytest.raises(ValueError, match=r"^kappa must lie in \[0, 1\], got inf$"):
            gaussian_max_shifts(math.inf, 0.1, METER)
        with pytest.raises(ValueError, match="^coupling must be finite and non-negative"):
            gaussian_max_shifts(0.5, -0.1, METER)

    @pytest.mark.parametrize("delta,text", [(0, "0"), (-1.0, "-1.0"), (math.nan, "nan"),
                                            (math.inf, "inf")])
    def test_meter_width_validated(self, delta, text):
        with pytest.raises(ValueError, match=f"^delta must be positive and finite, got {text}$"):
            GaussianMeter(delta)

    @pytest.mark.parametrize("delta", [1e-200, 1e-158, 1.4e-154, 1.35e154, 1e200])
    def test_meter_width_square_must_be_normal(self, delta):
        # A subnormal delta^2 loses digits in the closed forms; an overflowing
        # one raised OverflowError or gave NaN or 0 shifts.
        with pytest.raises(ValueError, match=r"^delta\^2 must be a normal float .*"
                                             + re.escape(f"got delta = {delta!r}") + "$"):
            GaussianMeter(delta)

    @pytest.mark.parametrize("delta", [math.sqrt(sys.float_info.min),
                                       math.sqrt(sys.float_info.max)])
    def test_maxima_scale_with_the_meter_up_to_the_range_ends(self, delta):
        # In units of dp and dq the maxima do not depend on delta.
        unit_dp, unit_dq = gaussian_max_shifts(0.5, 0.1 * METER.dp, METER)
        meter = GaussianMeter(delta)
        dp_max, dq_max = gaussian_max_shifts(0.5, 0.1 * meter.dp, meter)
        assert dp_max.value / meter.dp == pytest.approx(unit_dp.value / METER.dp, rel=1e-15)
        assert dq_max.value / meter.dq == pytest.approx(unit_dq.value / METER.dq, rel=1e-15)

    @pytest.mark.parametrize("kappa", [0.05, 0.3, 0.7, 1.0])
    @pytest.mark.parametrize("g_over_dp", [0.03, 0.1, 0.5])
    def test_argmax_attains_maximum(self, kappa, g_over_dp):
        g = g_over_dp * METER.dp
        dp_max, dq_max = gaussian_max_shifts(kappa, g, METER)
        for target, which in ((dp_max, "dp"), (dq_max, "dq")):
            rho = modulus_state(kappa, target.theta1, target.phi0)
            res = gaussian_shifts(rho, pure_state(target.theta2, 0.0), g, METER)
            attained = res.dp_shift if which == "dp" else res.dq_shift
            if target.value == 0.0:
                assert abs(attained) < 1e-15
            else:
                assert abs(abs(attained) - target.value) / target.value < 1e-9

    def test_monotone_in_coherence(self):
        g = 0.05
        kappas = np.linspace(0.01, 1.0, 40)
        dp_values = [gaussian_max_shifts(k, g, METER)[0].value for k in kappas]
        dq_values = [gaussian_max_shifts(k, g, METER)[1].value for k in kappas]
        assert all(b > a for a, b in zip(dp_values, dp_values[1:]))
        assert all(b > a for a, b in zip(dq_values, dq_values[1:]))

    def test_depolarized_and_dephased_routes_coincide(self):
        # both channels funnel into the same coherence parameter
        g = 0.1 * METER.dp
        psi = pure_state(1.234, 0.777)
        for gamma in np.linspace(0.0, 1.0, 11):
            k_dep = bloch_from_density(depolarizing(gamma).apply(psi.density())).modulus
            k_deph = bloch_from_density(
                phase_damping(gamma).apply(pure_state(math.pi / 2, 0.777).density())
            ).modulus
            if k_dep == 0.0 and k_deph == 0.0:
                continue
            dep = gaussian_max_shifts(k_dep, g, METER)
            deph = gaussian_max_shifts(k_deph, g, METER)
            assert abs(dep[0].value - deph[0].value) < 1e-12
            assert abs(dep[1].value - deph[1].value) < 1e-12


#: SHA-256 of the ``float.hex`` of every ``gaussian_shifts`` and
#: ``postselected_reading`` result at the ``_scalar_inputs``, one a line.
#: Recorded with CPython 3.11 and numpy 2.4 on x86-64 Linux; a change to the
#: scalar API that moves any bit of a shift, reading or probability moves it.
SCALAR_DIGEST = "f01518922db9df1231b671de5fb326f1daa97bf4c6b23c94e8310082798ff52f"


def _scalar_inputs(n=2000, seed=2022):
    """n seeded (rho, psi_f, g, delta): a random pure preselection through
    depolarizing, phase damping or amplitude damping in turn, each at a random
    strength in [0, 1), a random pure postselection, g in [0, 2) and delta in
    [0.3, 3)."""
    rng = np.random.default_rng(seed)
    channels = (depolarizing, phase_damping, amplitude_damping)
    for i in range(n):
        channel = channels[i % 3](rng.random())
        psi_i, psi_f = (pure_state(math.acos(1.0 - 2.0 * rng.random()),
                                   2.0 * math.pi * rng.random()) for _ in range(2))
        yield (channel.apply(psi_i.density()), psi_f, 2.0 * rng.random(),
               rng.uniform(0.3, 3.0))


def test_scalar_api_results_are_pinned():
    lines = []
    for rho, psi_f, g, delta in _scalar_inputs():
        for evaluate in (lambda: gaussian_shifts(rho, psi_f, g, GaussianMeter(delta)),
                         lambda: postselected_reading(rho, psi_f, g)):
            try:
                result = evaluate()
            except VanishingPostselectionError as err:
                lines.append(f"vanishing {err.prob.hex()}")
            else:
                lines.append(" ".join(v.hex() for v in vars(result).values()))
    assert len(lines) == 4000
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SCALAR_DIGEST


#: SHA-256 of the ``float.hex`` of the value and the three angles of every
#: ``gaussian_max_shifts``, ``qubit_max_reading`` and ``amplitude_damping_max``
#: result at the ``_maxima_inputs``, one result a line.  The figures print the
#: values alone, so this is what pins the angles: a swapped argument in a
#: ``MaxResult`` moves it.  Recorded with CPython 3.11 on x86-64 Linux.
MAXIMA_DIGEST = "923b492632b8ef20b4666a9b3ebc6820cffe99d18d9cbe743f935d978568a9f9"


def _maxima_inputs(n=2000, seed=2029):
    """n seeded (kappa, gamma, g, delta): kappa and gamma in [0, 1), g in
    [0.01, 2) and delta in [0.3, 3)."""
    rng = random.Random(seed)
    for _ in range(n):
        yield (rng.random(), rng.random(), 0.01 + 1.99 * rng.random(),
               0.3 + 2.7 * rng.random())


def test_maxima_values_and_angles_are_pinned():
    lines = []
    for kappa, gamma, g, delta in _maxima_inputs():
        meter = GaussianMeter(delta)
        results = (*gaussian_max_shifts(kappa, g, meter), qubit_max_reading(kappa, g),
                   amplitude_damping_max(meter, gamma, g, "dp"),
                   amplitude_damping_max(meter, gamma, g, "dq"),
                   amplitude_damping_max("qubit", gamma, g, "reading"))
        lines.extend(" ".join(v.hex() for v in (r.value, r.theta1, r.theta2, r.phi0))
                     for r in results)
    assert len(lines) == 12000
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == MAXIMA_DIGEST
