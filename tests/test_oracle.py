import inspect
import math

import numpy as np
import pytest

import weakamp.oracle
from weakamp import (
    GaussianMeter,
    GridTooSmallError,
    PositionGrid,
    VanishingPostselectionError,
    adjudicate_variants,
    default_grid,
    gaussian_grid_evolve,
    pure_state,
    qubit_joint_evolve,
    qubit_meter_marginal,
)
from weakamp.oracle import _joint_evolved
from weakamp.oracle import _random_density as random_density
from weakamp.oracle import _random_pure as random_pure

METER = GaussianMeter(1.0)


class TestQubitOracle:
    def test_marginal_reading_is_state_independent(self):
        rng = np.random.default_rng(11)
        for g in (0.05, 0.1, 0.7):
            for _ in range(5):
                rho = random_density(rng)
                res = qubit_joint_evolve(rho, None, g)
                assert abs(res.reading - math.sin(g) ** 2) < 1e-15
                assert res.prob == 1.0

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
        assert res.prob == pytest.approx(rho.expectation(psi_f), abs=1e-15)

    def test_trace_and_hermiticity_exact(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            evolved = _joint_evolved(random_density(rng), rng.uniform(0, 1.5))
            assert abs(np.trace(evolved).real - 1.0) < 1e-15
            assert np.max(np.abs(evolved - evolved.conj().T)) < 1e-15

    def test_marginal_matches_phase_structure(self):
        # the reduced meter state in the +/- basis carries e^{+-2ig} phases
        # weighted by the preselection populations
        rng = np.random.default_rng(14)
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        for _ in range(20):
            psi = random_pure(rng)
            g = rng.uniform(0.0, 1.5)
            marginal = qubit_meter_marginal(psi.density(), g)
            in_pm = hadamard.conj().T @ marginal @ hadamard
            x = (abs(psi.alpha) ** 2 * np.exp(2j * g)
                 + abs(psi.beta) ** 2 * np.exp(-2j * g))
            expected = 0.5 * np.array([[1.0, x], [np.conj(x), 1.0]])
            assert np.max(np.abs(in_pm - expected)) < 1e-14

    def test_postselection_floor_matches_closed_forms(self):
        # prob ~ 2.5e-19 here: defined for the oracle's arithmetic, but below
        # the floor where postselected_reading stops giving readings.
        rho = pure_state(0.0, 0.0).density()
        with pytest.raises(VanishingPostselectionError):
            qubit_joint_evolve(rho, pure_state(math.pi - 1e-9, 0.0), 0.1)


class TestGrid:
    def test_points_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            PositionGrid(10.0, 1000)
        with pytest.raises(ValueError):
            PositionGrid(-1.0, 4096)

    def test_default_covers_envelope(self):
        grid = default_grid(METER, 0.2)
        assert grid.half_width == pytest.approx(10.8)
        assert grid.points == 4096

    def test_default_grid_norm(self):
        from weakamp.oracle import _branch_moments

        for delta in (0.5, 1.0, 2.0):
            grid = default_grid(GaussianMeter(delta), 0.1)
            n_mat, _, _ = _branch_moments(0.1, delta, grid.half_width, grid.points)
            assert abs(n_mat[0, 0].real - 1.0) < 1e-8

    def test_branch_moment_cache_is_bounded(self):
        # Batteries draw a fresh coupling per sample; the cache must not grow
        # with the sample count.
        from weakamp.oracle import _branch_moments

        assert _branch_moments.cache_info().maxsize is not None

    def test_too_small_grid_rejected(self):
        rho = pure_state(1.0, 0.0).density()
        with pytest.raises(GridTooSmallError):
            gaussian_grid_evolve(rho, pure_state(0.5, 0), 0.1, METER,
                                 PositionGrid(3.0, 4096))

    def test_coupling_regime_enforced(self):
        rho = pure_state(1.0, 0.0).density()
        with pytest.raises(ValueError):
            gaussian_grid_evolve(rho, pure_state(0.5, 0), 1.5, METER)


class TestGridOracle:
    def test_zero_coupling(self):
        rng = np.random.default_rng(15)
        rho = random_density(rng)
        psi_f = random_pure(rng)
        res = gaussian_grid_evolve(rho, psi_f, 0.0, METER)
        assert abs(res.dp_shift) < 1e-10
        assert abs(res.dq_shift) < 1e-10
        assert res.prob == pytest.approx(rho.expectation(psi_f), abs=1e-10)

    def test_single_branch_momentum_kick(self):
        psi = pure_state(0.0, 0.0)
        for g in (0.05, 0.3, 0.9):
            res = gaussian_grid_evolve(psi.density(), psi, g, METER)
            assert res.dp_shift == pytest.approx(g, abs=1e-10)
            assert abs(res.dq_shift) < 1e-10
            assert res.prob == pytest.approx(1.0, abs=1e-10)

    def test_vanishing_postselection(self):
        with pytest.raises(VanishingPostselectionError):
            gaussian_grid_evolve(pure_state(0, 0).density(),
                                 pure_state(math.pi, 0), 0.1, METER)

    def test_grid_convergence(self):
        rng = np.random.default_rng(16)
        coarse_grid = PositionGrid(10.5, 4096)
        fine_grid = PositionGrid(10.5, 8192)
        checked = 0
        while checked < 15:
            rho = random_density(rng)
            psi_f = random_pure(rng)
            g = rng.uniform(0.01, 0.5)
            try:
                coarse = gaussian_grid_evolve(rho, psi_f, g, METER, coarse_grid)
            except VanishingPostselectionError:
                continue
            if coarse.prob < 1e-3:
                continue
            fine = gaussian_grid_evolve(rho, psi_f, g, METER, fine_grid)
            assert abs(coarse.dp_shift - fine.dp_shift) < 1e-8
            assert abs(coarse.dq_shift - fine.dq_shift) < 1e-8
            assert abs(coarse.prob - fine.prob) < 1e-8
            checked += 1


def test_oracle_module_does_not_touch_closed_forms():
    source = inspect.getsource(weakamp.oracle)
    for forbidden in ("from .gaussian", "from .qubitmeter",
                      "gaussian_shifts", "gaussian_max_shifts",
                      "ordinary_reading", "postselected_reading",
                      "qubit_max_reading"):
        assert forbidden not in source


@pytest.fixture(scope="module")
def report():
    return adjudicate_variants(seed=7)


class TestAdjudication:

    def test_all_disputes_confirmed(self, report):
        assert report.all_confirmed
        for verdict in report.verdicts:
            assert verdict.normative_worst < 1e-6
            assert verdict.rejected_worst >= 1e-5

    def test_pinned_strong_coupling_inputs_present(self, report):
        by_key = {(e.dispute, e.variant, e.input_id): e.deviation
                  for e in report.entries}
        # the pinned max-battery inputs run at g = 0.3, delta = 1
        assert by_key[("position-shift-attenuation", "attenuated", "max-000")] < 1e-6
        assert by_key[("position-shift-attenuation", "unattenuated", "max-000")] >= 1e-5
        assert by_key[("dephased-momentum-max", "squared-coherence", "max-000")] < 1e-6
        assert by_key[("dephased-momentum-max", "unsquared-coherence", "max-000")] >= 1e-5

    def test_deterministic(self, report):
        again = adjudicate_variants(seed=7)
        assert again.to_text() == report.to_text()
        assert again.csv_rows() == report.csv_rows()

    def test_csv_shape(self, report, tmp_path):
        rows = report.csv_rows()
        assert rows[0] == "variant,input_id,deviation"
        assert all(row.count(",") == 2 for row in rows)
        path = tmp_path / "adjudication.csv"
        report.write_csv(path)
        text = path.read_bytes()
        assert b"\r" not in text
        assert text.decode().splitlines() == rows
