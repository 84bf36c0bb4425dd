import ast
import importlib
import inspect
import math
import pkgutil
import re
import warnings

import numpy as np
import pytest

from conftest import amplitudes, joint_evolved, kron_propagator, matrix
import weakamp.cli
import weakamp.maxima
import weakamp.optimize
import weakamp.oracle
from weakamp import gaussian, qubitmeter
from weakamp import (
    GaussianMeter,
    GridTooSmallError,
    VanishingPostselectionError,
    amplitude_damping,
    depolarizing,
    gaussian_grid_evolve,
    gaussian_max_shifts,
    gaussian_shifts,
    ordinary_reading,
    phase_damping,
    pure_state,
    qubit_joint_evolve,
)
from weakamp.oracle import (_GENERATOR, _POINTS, _branch_moments, _grid_floats, _grid_indices,
                            _grid_moments, _grid_pass, _grid_shifts, _half_width, _qubit_reading,
                            _readout, _readout_pass)
from weakamp.verification import _ORACLE_PASS, _oracle_shift_objective
from weakamp.verification import _random_density as random_density
from weakamp.verification import _random_pure as random_pure

METER = GaussianMeter(1.0)

#: Rows of a pass test: one, and on either side of the batteries' pass size.
PASS_ROWS = [1, _ORACLE_PASS - 1, _ORACLE_PASS, _ORACLE_PASS + 1, 2 * _ORACLE_PASS + 1]


def _even_columns(g):
    """U's even (meter |0>) columns as a (4, 2) array: the oracle's read-out
    at the bras <0| and <1|."""
    return _readout(np.eye(2, dtype=complex), math.cos(g), math.sin(g)).reshape(4, 2)


class TestQubitOracle:
    def test_marginal_reading_is_state_independent(self):
        # The postselections |0> and |1>, weighted by their probabilities, add
        # up to the unpostselected reading sin^2(g) whatever the system state.
        rng = np.random.default_rng(11)
        basis = (pure_state(0.0, 0.0), pure_state(math.pi, 0.0))
        for g in (0.05, 0.1, 0.7):
            for _ in range(5):
                rho = random_density(rng)
                results = [qubit_joint_evolve(rho, s, g) for s in basis]
                assert abs(sum(r.prob * r.reading for r in results) - ordinary_reading(g)) < 1e-15
                assert abs(sum(r.prob for r in results) - 1.0) < 1e-15

    def test_orthogonal_pair_reads_one(self):
        psi_i = pure_state(1.0, 0.3)
        psi_f = pure_state(math.pi - 1.0, 0.3 + math.pi)
        res = qubit_joint_evolve(psi_i.density(), psi_f, 0.1)
        assert res.reading == pytest.approx(1.0, abs=1e-12)

    def test_zero_coupling_is_identity(self):
        rng = np.random.default_rng(12)
        rho = random_density(rng)
        psi_f = random_pure(rng)
        res = qubit_joint_evolve(rho, psi_f, 0.0)
        assert res.reading == 0.0
        v = amplitudes(psi_f)
        assert res.prob == pytest.approx(np.vdot(v, matrix(rho) @ v).real, abs=1e-15)

    def test_trace_and_hermiticity_exact(self):
        # Of the test reference: the sandwich keeps rho's trace and hermiticity.
        rng = np.random.default_rng(13)
        for _ in range(20):
            evolved = joint_evolved(random_density(rng), rng.uniform(0, 1.5))
            assert abs(np.trace(evolved).real - 1.0) < 1e-15
            assert np.max(np.abs(evolved - evolved.conj().T)) < 1e-15

    def test_joint_evolution_matches_kron_reference(self):
        # The oracle's propagator columns are the reference's, and its generator
        # squares to the identity exactly, so cos(g) I + i sin(g) G is exact.
        for g in np.random.default_rng(17).uniform(0.0, 1.5, 20):
            assert np.max(np.abs(_even_columns(g) - kron_propagator(g)[:, ::2])) < 1e-15
        assert np.array_equal(_GENERATOR @ _GENERATOR, np.eye(4))

    def test_marginal_matches_phase_structure(self):
        # Of the test reference: the reduced meter state in the +/- basis
        # carries e^{+-2ig} phases weighted by the preselection populations.
        rng = np.random.default_rng(14)
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        for _ in range(20):
            psi = random_pure(rng)
            g = rng.uniform(0.0, 1.5)
            marginal = np.einsum("smsn->mn", joint_evolved(psi.density(), g).reshape(2, 2, 2, 2))
            in_pm = hadamard.conj().T @ marginal @ hadamard
            x = (abs(psi.alpha) ** 2 * np.exp(2j * g)
                 + abs(psi.beta) ** 2 * np.exp(-2j * g))
            expected = 0.5 * np.array([[1.0, x], [np.conj(x), 1.0]])
            assert np.max(np.abs(in_pm - expected)) < 1e-14

    def test_read_out_matches_full_evolution(self):
        # The 2x2 read-out against the reference's 4x4 sandwich projected onto
        # psi_f; and the postselections |0> and |1>, weighted by their
        # probabilities, add up to the reference's unpostselected meter.
        rng = np.random.default_rng(19)
        basis = (pure_state(0.0, 0.0), pure_state(math.pi, 0.0))
        for _ in range(1000):
            rho, psi_f, g = random_density(rng), random_pure(rng), rng.uniform(0.0, 1.5)
            evolved = joint_evolved(rho, g).reshape(2, 2, 2, 2)
            amps = amplitudes(psi_f)
            meter = np.einsum("s,smtn,t->mn", amps.conj(), evolved, amps)
            prob = np.trace(meter).real
            res = qubit_joint_evolve(rho, psi_f, g)
            assert abs(res.prob - prob) < 1e-15
            if prob >= 1e-4:
                assert abs(res.reading - meter[1, 1].real / prob) < 1e-15
            excited = sum(r.prob * r.reading for r in (qubit_joint_evolve(rho, s, g) for s in basis))
            assert abs(excited - np.einsum("smsn->mn", evolved)[1, 1].real) < 1e-15

    def test_postselection_floor_matches_closed_forms(self):
        # prob ~ 2.5e-19 here: defined for the oracle's arithmetic, but below
        # the floor where postselected_reading stops giving readings.
        rho = pure_state(0.0, 0.0).density()
        with pytest.raises(VanishingPostselectionError):
            qubit_joint_evolve(rho, pure_state(math.pi - 1e-9, 0.0), 0.1)


def _battery_couplings():
    """(g, delta) drawn from the Gaussian oracle battery's ranges, plus g = 0."""
    rng = np.random.default_rng(18)
    pairs = [(0.0, 1.0)]
    for _ in range(50):
        delta = rng.uniform(0.5, 2.0)
        pairs.append((rng.uniform(0.02, 0.5) / delta, delta))
    return pairs


def _oracle_grid(monkeypatch, half_width, points):
    """Put ``gaussian_grid_evolve`` on another grid than its own."""
    monkeypatch.setattr(weakamp.oracle, "_half_width", lambda meter, g: half_width)
    monkeypatch.setattr(weakamp.oracle, "_POINTS", points)


class TestGrid:
    def test_default_covers_envelope(self):
        assert _half_width(METER, 0.2) == pytest.approx(10.8)

    # The edge g delta = 1 of the oracle's regime, at pointer widths 0.25 to
    # 4: the grid scales with delta, so its guards pass at every width.
    @pytest.mark.parametrize("g, delta", _battery_couplings()
                             + [(1.0 / delta, delta) for delta in (0.5, 1.0, 2.0, 0.25, 4.0)])
    def test_default_resolution_matches_a_fine_grid(self, g, delta):
        half_width = _half_width(GaussianMeter(delta), g)
        fine = _branch_moments(g, delta, half_width, 8192)
        for got, want in zip(_branch_moments(g, delta, half_width, _POINTS), fine):
            assert np.max(np.abs(got - want)) < 1e-13

    def test_default_grid_norm(self):
        for delta in (0.5, 1.0, 2.0):
            half_width = _half_width(GaussianMeter(delta), 0.1)
            n_mat, _, _ = _branch_moments(0.1, delta, half_width, _POINTS)
            assert abs(n_mat[0, 0].real - 1.0) < 1e-8

    def test_branch_moment_cache_is_bounded(self):
        # Batteries draw a fresh coupling per sample; neither the moment cache
        # nor the per-size index cache may grow with the sample count.
        for cached in (_branch_moments, _grid_indices):
            assert cached.cache_info().maxsize is not None

    def test_cached_arrays_are_read_only(self):
        half_width = _half_width(METER, 0.2)
        moments = _branch_moments(0.2, 1.0, half_width, _POINTS)
        before = moments.copy()
        for array in (moments, moments[0], *_grid_indices(_POINTS)):
            with pytest.raises(ValueError):
                array.flat[0] = 2.0
        assert np.array_equal(_branch_moments(0.2, 1.0, half_width, _POINTS), before)

    def test_too_small_grid_rejected(self):
        # Three pointer widths lose norm.
        with pytest.raises(GridTooSmallError, match="grid norm"):
            _branch_moments(0.1, 1.0, 3.0, 4096)

    def test_unresolved_spectrum_rejected(self, monkeypatch):
        # The norm of a 32-point grid is fine, but its Nyquist wavenumber
        # cuts the branch spectra: dq would be 4e-6 off the closed form.
        rho, psi_f, meter = pure_state(1.2, 0.4).density(), pure_state(2.0, 1.0), METER
        _oracle_grid(monkeypatch, 14.0, 32)
        with pytest.raises(GridTooSmallError, match="branch spectra"):
            gaussian_grid_evolve(rho, psi_f, 1.0, meter)
        _oracle_grid(monkeypatch, 14.0, 64)
        gridded = gaussian_grid_evolve(rho, psi_f, 1.0, meter)
        closed = gaussian_shifts(rho, psi_f, 1.0, meter)
        for field in ("dp_shift", "dq_shift", "prob"):
            assert abs(getattr(gridded, field) - getattr(closed, field)) < 1e-14

    def test_nan_fails_the_guards(self, monkeypatch):
        # A NaN compares false either way, so each guard must test that the
        # value passes rather than that it fails.
        with pytest.raises(GridTooSmallError, match="branch spectra"):
            _grid_floats(math.nan, 1.0, 10.0, _POINTS)
        # On this pointer's grid q * q overflows, and the norm reads NaN.  The
        # oracle rejects so wide a pointer before its grid; lifting the bounds
        # reaches the kernel's own guard.
        monkeypatch.setattr(weakamp.oracle, "_DELTA_RANGE", (0.0, math.inf))
        meter = GaussianMeter(1.3e154)
        rho, psi_f, g = pure_state(1.0, 0.3).density(), pure_state(2.0, 0.0), 0.5 / meter.delta
        for evolve in (lambda: gaussian_grid_evolve(rho, psi_f, g, meter),
                       lambda: _grid_pass([(g, meter)])):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(GridTooSmallError, match="grid norm differs from 1 by nan"):
                    evolve()

    def test_coupling_regime_enforced(self):
        rho = pure_state(1.0, 0.0).density()
        with pytest.raises(ValueError):
            gaussian_grid_evolve(rho, pure_state(0.5, 0), 1.5, METER)

    def test_extreme_widths_give_finite_shifts_or_are_rejected(self):
        # Outside about 3.6e-153 <= delta <= 9.6e152 the grid's sums overflow:
        # a NaN dp_shift or a failed norm check.  No errstate here: under the
        # suite's -W error a numpy overflow warning fails the test too.
        rho, psi_f = pure_state(1.0, 0.3).density(), pure_state(2.0, 0.4)
        low, high = weakamp.oracle._DELTA_RANGE
        for exponent in range(-154, 155):
            for mantissa in (1.3, 1.5, 3.0, 7.0):
                delta = mantissa * 10.0 ** exponent
                try:
                    meter = GaussianMeter(delta)
                except ValueError:
                    continue  # delta^2 is not a normal float
                g = 0.1 * meter.dp
                evolves = (lambda: gaussian_grid_evolve(rho, psi_f, g, meter),
                           lambda: _grid_shifts(rho, psi_f, _grid_pass([(g, meter)])[0].tolist()))
                for evolve in evolves:
                    if low <= delta <= high:
                        shifts = evolve()
                        assert all(map(math.isfinite,
                                       (shifts.dp_shift, shifts.dq_shift, shifts.prob)))
                    else:
                        message = re.escape(f"delta = {delta!r}")
                        with pytest.raises(GridTooSmallError, match=message):
                            evolve()


def _two_branch_moments(g, delta, half_width, points):
    """Reference: both branches built explicitly, an FFT pair per branch for
    the momentum, and one quadrature per matrix entry."""
    dx = 2.0 * half_width / points
    q = -half_width + dx * np.arange(points)
    envelope = (2.0 * math.pi * delta ** 2) ** -0.25 * np.exp(-q ** 2 / (4.0 * delta ** 2))
    branches = (envelope * np.exp(1j * g * q), envelope * np.exp(-1j * g * q))
    wavenumbers = 2.0 * math.pi * np.fft.fftfreq(points, d=dx)
    momentum = tuple(np.fft.ifft(wavenumbers * np.fft.fft(b)) for b in branches)
    n_mat, q_mat, p_mat = (np.empty((2, 2), dtype=complex) for _ in range(3))
    for j in range(2):
        for l in range(2):
            n_mat[j, l] = dx * np.vdot(branches[l], branches[j])
            q_mat[j, l] = dx * np.vdot(branches[l], q * branches[j])
            p_mat[j, l] = dx * np.vdot(branches[l], momentum[j])
    return n_mat, q_mat, p_mat


class TestBranchMoments:
    @pytest.mark.parametrize("g, delta", _battery_couplings())
    def test_matches_two_branch_reference(self, g, delta):
        args = (g, delta, _half_width(GaussianMeter(delta), g), _POINTS)
        for got, want in zip(_branch_moments(*args), _two_branch_moments(*args)):
            assert np.max(np.abs(got - want)) < 1e-14

    @pytest.mark.parametrize("g, delta", _battery_couplings())
    def test_moment_matrices_are_hermitian(self, g, delta):
        for mat in _branch_moments(g, delta, _half_width(GaussianMeter(delta), g), _POINTS):
            assert np.array_equal(mat, mat.conj().T)


def _pass_couplings(rows, seed):
    """(g, meter) pairs at mixed pointer widths delta in [0.5, 2] and g delta <= 1."""
    rng = np.random.default_rng(seed)
    meters = [GaussianMeter(delta) for delta in rng.uniform(0.5, 2.0, rows).tolist()]
    return [(x / m.delta, m) for x, m in zip(rng.uniform(0.0, 1.0, rows).tolist(), meters)]


class TestGridPass:
    # One kernel call over a pass of grids gives each grid's moments exactly as
    # the one-grid call does, on either side of the battery's pass size.
    @pytest.mark.parametrize("rows", PASS_ROWS)
    def test_rows_equal_the_per_coupling_moments(self, rows):
        couplings = _pass_couplings(rows, seed=rows)
        moments = _grid_pass(couplings)
        assert moments.shape == (rows, 3, 2, 2)
        for row, (g, meter) in zip(moments, couplings):
            assert np.array_equal(row, _grid_moments(g, meter))

    @pytest.mark.parametrize("widths, match", [(2.0, "grid norm"), (400.0, "branch spectra")])
    def test_guard_failing_mid_pass_raises_the_one_grid_message(self, monkeypatch, widths, match):
        # The ninth of 17 grids spans two pointer widths each way, too short
        # for its norm, or 400, too coarse for its spectra.
        couplings = _pass_couplings(17, seed=5)
        bad_g, bad_meter = couplings[8]
        half_width = widths * bad_meter.delta
        with pytest.raises(GridTooSmallError, match=match) as one:
            _branch_moments.__wrapped__(bad_g, bad_meter.delta, half_width, _POINTS)
        real = weakamp.oracle._half_width
        monkeypatch.setattr(weakamp.oracle, "_half_width",
                            lambda meter, g: half_width if g == bad_g else real(meter, g))
        with pytest.raises(GridTooSmallError) as batch:
            _grid_pass(couplings)
        assert str(batch.value) == str(one.value)


class TestReadoutPass:
    # One read-out call over a pass gives each input's read-out exactly as
    # the one-input call does, on either side of the battery's pass size, and
    # the reading the brute-force evolution gives.
    @pytest.mark.parametrize("rows", PASS_ROWS)
    def test_rows_equal_the_one_input_readout(self, rows):
        rng = np.random.default_rng(rows)
        inputs = [(random_density(rng), random_pure(rng), float(rng.uniform(0.0, 1.5)))
                  for _ in range(rows)]
        readouts = _readout_pass([(psi_f, g) for _, psi_f, g in inputs])
        assert len(readouts) == rows
        for (rho, psi_f, g), row in zip(inputs, readouts):
            bra = np.array([psi_f.alpha.conjugate(), psi_f.beta.conjugate()])
            one = _readout(bra, math.cos(g), math.sin(g))
            assert np.array(row).tobytes() == one.tobytes()
            reading = _qubit_reading(rho, row)
            assert reading == qubit_joint_evolve(rho, psi_f, g)
            amps = amplitudes(psi_f)
            meter = np.einsum("s,smtn,t->mn", amps.conj(),
                              joint_evolved(rho, g).reshape(2, 2, 2, 2), amps)
            prob = np.trace(meter).real
            assert abs(reading.prob - prob) < 1e-15
            if prob >= 1e-4:  # the battery's filter
                assert abs(reading.reading - meter[1, 1].real / prob) < 1e-15

    def test_invalid_coupling_is_rejected(self):
        psi_f = pure_state(1.0, 0.5)
        for g in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="coupling must be finite and non-negative"):
                _readout_pass([(psi_f, 0.3), (psi_f, g)])


def _branch_matrix(k):
    """The 2x2 matrix scale [[k00, conj k10], [k10, k11]] of a branch tuple."""
    scale, k00, k11, k10_re, k10_im = k
    return scale * np.array([[k00, complex(k10_re, -k10_im)], [complex(k10_re, k10_im), k11]])


class TestClosedFormBranches:
    # The closed forms' branch matrices are the oracles' objects: a sign or
    # conjugation slip in k10 shows here.
    def test_gaussian_branches_are_the_grid_moments(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            delta = rng.uniform(0.3, 3.0)
            g = rng.uniform(0.0, 1.0 / delta)
            meter = GaussianMeter(delta)
            n, m_dp, m_dq = gaussian._branches(g, meter)
            grid_n, grid_q, grid_p = _branch_moments(g, delta, _half_width(meter, g), _POINTS)
            for k, moments in ((n, grid_n), (m_dq, grid_q), (m_dp, grid_p)):
                assert np.max(np.abs(_branch_matrix(k) - moments)) <= 1e-14

    def test_qubit_branches_are_the_propagator_overlaps(self):
        # Column 2j of U, the even columns' column j, is |j> x Phi_j, the
        # meter branch that system state |j> leaves from meter |0>:
        # N[j, l] = <Phi_l|Phi_j> and M[j, l] = <Phi_l|1><1|Phi_j>.
        for g in np.random.default_rng(23).uniform(0.0, 1.5, 100):
            columns = _even_columns(g)
            phi = [columns[2 * j:2 * j + 2, j] for j in (0, 1)]
            overlaps = np.array([[np.vdot(phi[l], phi[j]) for l in (0, 1)] for j in (0, 1)])
            readout = np.array([[phi[l][1].conjugate() * phi[j][1] for l in (0, 1)]
                                for j in (0, 1)])
            n, m = qubitmeter._branches(g)
            assert np.max(np.abs(_branch_matrix(n) - overlaps)) <= 1e-15
            assert np.max(np.abs(_branch_matrix(m) - readout)) <= 1e-15


class TestGridOracle:
    def test_float32_inputs_give_python_floats_without_warnings(self):
        # The grid's range check compares the width with 1e150, which a
        # float32 width would overflow in the cast.
        meter = GaussianMeter(np.float32(0.3))
        rho = pure_state(np.float32(1.0), np.float32(0.5)).density()
        psi_f = pure_state(np.float32(2.0), np.float32(0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = (gaussian_shifts(rho, psi_f, 0.1, meter),
                       *gaussian_max_shifts(0.5, 0.1, meter),
                       gaussian_grid_evolve(rho, psi_f, 0.1, meter))
        for result in results:
            assert all(type(v) is float for v in vars(result).values()), result

    def test_zero_coupling(self):
        rng = np.random.default_rng(15)
        rho = random_density(rng)
        psi_f = random_pure(rng)
        res = gaussian_grid_evolve(rho, psi_f, 0.0, METER)
        assert abs(res.dp_shift) < 1e-10
        assert abs(res.dq_shift) < 1e-10
        v = amplitudes(psi_f)
        assert res.prob == pytest.approx(np.vdot(v, matrix(rho) @ v).real, abs=1e-10)

    def test_single_branch_momentum_kick(self):
        psi = pure_state(0.0, 0.0)
        for g in (0.05, 0.3, 0.9):
            res = gaussian_grid_evolve(psi.density(), psi, g, METER)
            assert res.dp_shift == pytest.approx(g, abs=1e-10)
            assert abs(res.dq_shift) < 1e-10
            assert res.prob == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("fresh", [True, False], ids=["fresh-coupling", "cached-coupling"])
    def test_contraction_matches_numpy_reference(self, fresh):
        # The scalar contraction against a whole-array one on the moments the
        # oracle reads, at a coupling drawn per input or one kept in the cache.
        rng = np.random.default_rng(20)
        _branch_moments(0.3, 1.0, _half_width(METER, 0.3), _POINTS)
        for _ in range(200):
            rho, psi_f = random_density(rng), random_pure(rng)
            g = rng.uniform(0.0, 1.0) if fresh else 0.3
            misses = _branch_moments.cache_info().misses
            res = gaussian_grid_evolve(rho, psi_f, g, METER)
            assert _branch_moments.cache_info().misses == misses + fresh
            moments = _branch_moments(g, 1.0, _half_width(METER, g), _POINTS)
            amps = amplitudes(psi_f)
            prob, q_sum, p_sum = (matrix(rho) * np.outer(amps.conj(), amps) * moments
                                  ).sum(axis=(1, 2)).real
            for got, want in ((res.prob, prob), (res.dq_shift, q_sum / prob),
                              (res.dp_shift, p_sum / prob)):
                assert abs(got - want) <= 1e-14 * abs(want)

    def test_shift_objective_matches_the_grid_evolution(self):
        # The grid's branch matrices read by the optimizer's objective give
        # the shifts that gaussian_grid_evolve sums from the same moments, at
        # the objective's own preselection and postselection.
        rng = np.random.default_rng(24)
        channels = (depolarizing, phase_damping, amplitude_damping)
        compared = 0
        for i in range(300):
            channel = channels[i % 3](rng.random())
            delta = rng.uniform(0.5, 2.0)
            g = rng.uniform(0.0, 1.0 / delta)
            meter = GaussianMeter(delta)
            t1, t2, p0 = rng.uniform(0.0, math.pi, 2).tolist() + [rng.uniform(0.0, 2.0 * math.pi)]
            try:
                res = gaussian_grid_evolve(channel.apply(pure_state(t1, p0).density()),
                                           pure_state(t2, 0.0), g, meter)
            except VanishingPostselectionError:
                continue
            for which, want in (("dp", res.dp_shift), ("dq", res.dq_shift)):
                got = _oracle_shift_objective(channel, g, meter, which)(t1, t2, p0)
                assert abs(got - want) <= 1e-13 * abs(want)
            compared += 1
        assert compared > 250

    def test_vanishing_postselection(self):
        with pytest.raises(VanishingPostselectionError):
            gaussian_grid_evolve(pure_state(0, 0).density(),
                                 pure_state(math.pi, 0), 0.1, METER)

    def test_grid_convergence(self, monkeypatch):
        rng = np.random.default_rng(16)
        checked = 0
        while checked < 15:
            rho = random_density(rng)
            psi_f = random_pure(rng)
            g = rng.uniform(0.01, 0.5)
            _oracle_grid(monkeypatch, 10.5, 4096)
            try:
                coarse = gaussian_grid_evolve(rho, psi_f, g, METER)
            except VanishingPostselectionError:
                continue
            if coarse.prob < 1e-3:
                continue
            _oracle_grid(monkeypatch, 10.5, 8192)
            fine = gaussian_grid_evolve(rho, psi_f, g, METER)
            assert abs(coarse.dp_shift - fine.dp_shift) < 1e-8
            assert abs(coarse.dq_shift - fine.dq_shift) < 1e-8
            assert abs(coarse.prob - fine.prob) < 1e-8
            checked += 1


def test_oracle_module_does_not_touch_closed_forms():
    # Nor the closed forms' branch matrices and weights, or the contraction they
    # share with the optimizer: gaussian_grid_evolve sums its own c[j, l] moments, so a
    # contraction bug cannot pass the Gaussian oracle battery unseen.
    source = inspect.getsource(weakamp.oracle)
    for forbidden in ("from .gaussian", "from .qubitmeter", "import gaussian",
                      "import qubitmeter", "gaussian_shifts", "gaussian_max_shifts",
                      "ordinary_reading", "postselected_reading",
                      "qubit_max_reading", "_branches", "_contract",
                      "_postselection_weights"):
        assert forbidden not in source


def _package_imports(module):
    """Names of the weakamp modules that ``module``'s source imports, whether
    as ``from .x``, ``from . import x``, ``from weakamp.x`` or ``import weakamp.x``."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom):
            package = "weakamp" if node.level == 1 else None
            path = ".".join(filter(None, (package, node.module)))
            if path == "weakamp":
                names.update(a.name for a in node.names)
            elif path.startswith("weakamp."):
                names.add(path[len("weakamp."):])
        elif isinstance(node, ast.Import):
            names.update(a.name[len("weakamp."):] for a in node.names
                         if a.name.startswith("weakamp."))
    return names


def test_oracle_imports_only_the_value_types():
    # The reference cannot call the code it checks: no optimizer, no channel,
    # and no random inputs of its own, which the verification module draws.
    assert _package_imports(weakamp.oracle) == {"common", "qubit"}
    source = inspect.getsource(weakamp.oracle)
    for forbidden in ("maximize", "_Objective", "default_rng", "Generator"):
        assert forbidden not in source


def _imports_numpy(module):
    """Whether ``module``'s source imports numpy or a numpy submodule."""
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "numpy" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "numpy":
                return True
    return False


@pytest.mark.parametrize("name", ["common", "qubit", "channels", "gaussian", "qubitmeter",
                                  "maxima", "optimize"])
def test_checked_modules_do_not_import_the_checks(name):
    # Nor numpy: the value types, channels, closed forms and optimizer are
    # scalar code, and arrays belong to the brute-force references.  The
    # optimizer is a check of the others too, so none of them imports it.
    module = importlib.import_module(f"weakamp.{name}")
    assert not _package_imports(module) & ({"oracle", "verification", "optimize"} - {name})
    assert not _imports_numpy(module)


def test_the_cli_takes_its_suprema_from_the_closed_forms():
    # fig 5 and 6 read amplitude_damping_max from maxima; verify reaches the
    # optimizer through the verification module only.
    imports = _package_imports(weakamp.cli)
    assert "maxima" in imports and "optimize" not in imports
    assert weakamp.cli.amplitude_damping_max is weakamp.maxima.amplitude_damping_max


def test_optimizer_does_not_touch_the_closed_form_maxima():
    # The optimizer battery checks the searches against these closed forms,
    # so the searches may not read them.
    source = inspect.getsource(weakamp.optimize)
    for forbidden in ("gaussian_max_shifts", "qubit_max_reading"):
        assert forbidden not in source


def test_only_the_oracle_imports_numpy():
    # The verification module imports the oracle, so it cannot join the
    # modules above; this covers it instead: its inputs come from the
    # standard library's random, not from numpy.
    names = ["__init__"] + [m.name for m in pkgutil.iter_modules(weakamp.__path__)]
    modules = {name: importlib.import_module("weakamp" if name == "__init__" else f"weakamp.{name}")
               for name in names}
    assert {name for name, module in modules.items() if _imports_numpy(module)} \
        == {"oracle"}
