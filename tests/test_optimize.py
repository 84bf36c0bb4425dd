import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FAMILIES, gammas, modulus_state, pure_states
from weakamp import (
    GaussianMeter,
    OptimizationError,
    PPSPoint,
    VanishingPostselectionError,
    amplitude_damping,
    amplitude_damping_max,
    damped_reading_objective,
    damped_shift_objective,
    depolarizing,
    gaussian_max_shifts,
    gaussian_shifts,
    kappa_reading_objective,
    kappa_shift_objective,
    maximize,
    phase_damping,
    postselected_reading,
    pure_state,
    qubit_max_reading,
)
from weakamp import optimize, verification
from weakamp.optimize import (
    _DIRECTIONS,
    _LINE_WIDTH,
    _U_MAX,
    _angles,
    _approach_point,
    _brent,
    _coarse_grid,
    _family_objective,
    _line_search,
    _Objective,
    _preselection,
    _theta,
    _u,
    _u1_scan,
)
from weakamp.verification import COUPLING_BATTERY, KAPPA_BATTERY, _oracle_shift_objective

METER = GaussianMeter(1.0)


def _battery_and_damped_objectives():
    """The 36 verify battery objectives and the 9 damped ones of acceptance
    criterion 6, in that order."""
    objectives = []
    for kappa in KAPPA_BATTERY:
        for c in COUPLING_BATTERY:
            g = c * METER.dp
            objectives += [kappa_shift_objective(kappa, g, METER, "dp"),
                           kappa_shift_objective(kappa, g, METER, "dq"),
                           kappa_reading_objective(kappa, c)]
    g = 0.1 * METER.dp
    for gamma in (0.1, 0.5, 0.9):
        objectives += [damped_shift_objective(gamma, g, METER, "dp"),
                       damped_shift_objective(gamma, g, METER, "dq"),
                       damped_reading_objective(gamma, 0.1)]
    return objectives


#: SHA-256 of the ``OptimizationResult`` reprs, one a line, of the 45
#: ``_battery_and_damped_objectives`` searches followed by the 6 oracle-maximum
#: searches of ``adjudicate_variants()`` (grid_n = 32).  Recorded with
#: CPython 3.11 and numpy 2.4 on x86-64 Linux; a speed-up that moves any
#: value, point or probe count changes it.
RESULTS_DIGEST = "96356669b5124e44f72d0ba79d43e60c63cd11f48e09ad9fe3a5f007e77eba52"

#: ``TARGETS`` whose searches as plain callables are pinned.
PLAIN_TARGETS = ("kappa-dp", "kappa-dq", "kappa-reading", "damped-dq", "oracle-dq")
#: SHA-256 of the ``OptimizationResult`` reprs, one a line, of
#: ``maximize(lambda *a: objective(*a), grid_n=16)`` over ``PLAIN_TARGETS``:
#: the coarse grid and cyclic refinement.  Recorded with CPython 3.11 and
#: numpy 2.4 on x86-64 Linux.
PLAIN_RESULTS_DIGEST = "824669fd94a313641e6ac883f7c6bfc4bd8c81616183b70acdea2addd0f794a4"


#: Branch matrices (n, m) whose grid values turn non-finite part-way through,
#: by name.  A contraction scaled by 1e308 overflows once its bracket passes
#: 1.797, so 8 rho11 v2 overflows once rho11 v2 passes 0.2247.
NONFINITE_BRANCHES = {
    # Probability 8 rho11 v2, 0 at theta2 = 0, ahead of a value, -1e308
    # elsewhere, that overflows to -inf once rho11 v2 passes 0.2247.
    "floor-then-minus-inf": ((1.0, 0.0, 8.0, 0.0, 0.0), (1e308, 0.0, -8.0, 0.0, 0.0)),
    # inf / inf: a NaN value wherever rho11 v2 passes 0.2247 and both
    # contractions overflow, and probability 0 at theta2 = 0, where only the
    # floor keeps the value finite.
    "nan-from-infinite-probability": ((1e308, 0.0, 8.0, 0.0, 0.0),
                                      (1e308, 0.0, 8.0, 0.0, 0.0)),
    # The value is -inf once rho11 v2 passes 0.2247, and -inf / inf is a NaN
    # once rho00 u2 + 4 rho11 v2 passes 1.797 too, near theta2 = pi: the
    # largest |value| is a NaN behind the -inf.
    "minus-inf-then-nan": ((1e308, 1.0, 4.0, 0.0, 0.0), (1e308, 0.0, -8.0, 0.0, 0.0)),
}


class TestMaximize:
    def test_recovers_momentum_maximum(self):
        g = 0.1 * METER.dp
        closed = gaussian_max_shifts(1.0, g, METER)[0].value
        res = maximize(kappa_shift_objective(1.0, g, METER, "dp"))
        assert abs(abs(res.value) - closed) / closed < 1e-6
        point = res.argmax
        attained = kappa_shift_objective(1.0, g, METER, "dp")(
            point.theta1, point.theta2, point.phi0)
        assert attained == res.value

    def test_recovers_reading_maximum_at_orthogonal_pair(self):
        res = maximize(kappa_reading_objective(1.0, 0.1))
        assert abs(res.value - 1.0) < 1e-6
        assert abs(res.argmax.theta1 + res.argmax.theta2 - math.pi) < 1e-4
        assert abs(res.argmax.phi0 - math.pi) < 1e-4

    def test_constant_objective(self):
        res = maximize(lambda t1, t2, p0: 0.7, grid_n=16)
        assert res.converged
        assert res.value == 0.7
        assert res.evaluations >= 16 ** 3

    def test_signed_value_reported(self):
        res = maximize(lambda t1, t2, p0: -2.0 - math.sin(t1), grid_n=16)
        assert res.value == pytest.approx(-3.0, abs=1e-9)

    def test_deterministic(self):
        objective = kappa_shift_objective(0.7, 0.04, METER, "dq")
        first = maximize(objective)
        second = maximize(objective)
        assert first == second

    def test_nonfinite_objective_rejected(self):
        def bad(t1, t2, p0):
            return math.nan if t1 > 2.0 else 0.0

        with pytest.raises(OptimizationError) as err:
            maximize(bad, grid_n=16)
        assert err.value.point.theta1 > 2.0

    @pytest.mark.parametrize("objective", [
        kappa_shift_objective(0.5, 0.1 * METER.dp, METER, "dp"),
        kappa_shift_objective(0.8, 0.25 * METER.dp, METER, "dq"),
        kappa_reading_objective(0.2, 0.5),
        damped_shift_objective(0.5, 0.1 * METER.dp, METER, "dq"),
        damped_reading_objective(0.9, 0.1),
    ])
    def test_result_is_the_first_largest_probe_after_the_grid(self, objective):
        # Each line search returns the first largest of its own probes, and
        # maximize keeps a line's best only if it is strictly larger: together
        # that is the first largest of all the probes after the grid, in call
        # order.
        probes = []

        def recorded(*angles):
            value = objective(*angles)
            probes.append((angles, value))
            return value

        result = maximize(recorded, grid_n=16)
        assert len(probes) == result.evaluations
        refinement = probes[16 ** 3:]
        top = max(abs(value) for _, value in refinement)
        (t1, t2, p0), value = next(probe for probe in refinement if abs(probe[1]) == top)
        assert result.value == value
        assert result.argmax == PPSPoint(t1, t2, p0 % (2.0 * math.pi))

    def test_argmax_reproduces_the_value_inside_the_box(self):
        # The 36 verify battery searches and the 9 damped searches of
        # acceptance criterion 6: the reported point, probed again, gives the
        # reported value exactly, theta1 lies in the u box, and theta2, taken
        # exactly from the postselection eigenvector, in [0, pi].
        lo, hi = _theta(-_U_MAX), _theta(_U_MAX)
        for objective in _battery_and_damped_objectives():
            result = maximize(objective)
            point = result.argmax
            assert objective(point.theta1, point.theta2, point.phi0) == result.value
            assert lo <= point.theta1 <= hi and 0.0 <= point.theta2 <= math.pi

    def test_results_are_pinned(self, monkeypatch):
        results = [maximize(objective) for objective in _battery_and_damped_objectives()]
        real_maximize = verification.maximize

        def recorded(objective, **kwargs):
            results.append(real_maximize(objective, **kwargs))
            return results[-1]

        monkeypatch.setattr(verification, "maximize", recorded)
        verification.adjudicate_variants()
        assert len(results) == 51
        text = "\n".join(map(repr, results))
        assert hashlib.sha256(text.encode()).hexdigest() == RESULTS_DIGEST

    def test_plain_results_are_pinned(self):
        # A plain callable takes the grid and cyclic refinement, probed point
        # by point, whatever it wraps.
        results = [maximize(lambda *a, f=TARGETS[name](): f(*a), grid_n=16)
                   for name in PLAIN_TARGETS]
        text = "\n".join(map(repr, results))
        assert hashlib.sha256(text.encode()).hexdigest() == PLAIN_RESULTS_DIGEST

    @pytest.mark.parametrize("target", PLAIN_TARGETS)
    def test_form_search_matches_the_plain_search(self, target):
        # The exact postselection finds what the 3-D search finds, and never
        # less than it, but for rounding.
        objective = TARGETS[target]()
        form = abs(maximize(objective, grid_n=16).value)
        plain = abs(maximize(lambda *a: objective(*a), grid_n=16).value)
        assert abs(form - plain) <= 1e-6 * plain
        assert form >= plain * (1.0 - 1e-14)

    def test_flat_u1_line_at_kappa_zero(self):
        # At kappa = 0 every preselection is I / 2, so each u1 probe gives the
        # same best postselection, two tied eigenvalues for dp, a zero form
        # for dq and A proportional to B for the reading.
        g = 0.1 * METER.dp
        dp_max, dq_max = gaussian_max_shifts(0.0, g, METER)
        dp = maximize(kappa_shift_objective(0.0, g, METER, "dp"))
        assert abs(dp.value) == pytest.approx(dp_max.value, rel=0.0, abs=1e-12)
        assert dq_max.value == 0.0
        assert abs(maximize(kappa_shift_objective(0.0, g, METER, "dq")).value) <= 1e-12
        reading = maximize(kappa_reading_objective(0.0, 0.1))
        assert abs(reading.value) == pytest.approx(qubit_max_reading(0.0, 0.1).value,
                                                   rel=0.0, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            maximize(lambda *a: 0.0, grid_n=8)
        with pytest.raises(ValueError):
            maximize(kappa_shift_objective(0.5, 0.05, METER, "dp"), grid_n=15)


class TestObjectiveBuilders:
    def test_kappa_shift_matches_library(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            kappa = rng.uniform(0, 1)
            g = rng.uniform(0, 0.5)
            t1, t2 = rng.uniform(0, math.pi, size=2)
            p0 = rng.uniform(0, 2 * math.pi)
            rho = modulus_state(kappa, t1, p0)
            psi_f = pure_state(t2, 0.0)
            for which in ("dp", "dq"):
                objective = kappa_shift_objective(kappa, g, METER, which)
                try:
                    res = gaussian_shifts(rho, psi_f, g, METER)
                except VanishingPostselectionError:
                    continue
                want = res.dp_shift if which == "dp" else res.dq_shift
                assert abs(objective(t1, t2, p0) - want) < 1e-13

    def test_kappa_reading_matches_library(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            kappa = rng.uniform(0, 1)
            g = rng.uniform(0, 1.2)
            t1, t2 = rng.uniform(0, math.pi, size=2)
            p0 = rng.uniform(0, 2 * math.pi)
            objective = kappa_reading_objective(kappa, g)
            try:
                res = postselected_reading(modulus_state(kappa, t1, p0),
                                           pure_state(t2, 0.0), g)
            except VanishingPostselectionError:
                continue
            assert abs(objective(t1, t2, p0) - res.reading) < 1e-13

    @pytest.mark.parametrize("family", FAMILIES)
    def test_damped_builders_match_channel_composition(self, family):
        channel, _, shift_objective, reading_objective = FAMILIES[family]
        rng = np.random.default_rng(33)
        for _ in range(200):
            strength = rng.uniform(0, 1)
            g = rng.uniform(0, 0.5)
            t1, t2 = rng.uniform(0, math.pi, size=2)
            p0 = rng.uniform(0, 2 * math.pi)
            rho = channel(strength).apply(pure_state(t1, p0).density())
            psi_f = pure_state(t2, 0.0)
            try:
                shifts = gaussian_shifts(rho, psi_f, g, METER)
                reading = postselected_reading(rho, psi_f, g)
            except VanishingPostselectionError:
                continue
            assert abs(shift_objective(strength, g, METER, "dp")(t1, t2, p0)
                       - shifts.dp_shift) < 1e-13
            assert abs(shift_objective(strength, g, METER, "dq")(t1, t2, p0)
                       - shifts.dq_shift) < 1e-13
            assert abs(reading_objective(strength, g)(t1, t2, p0)
                       - reading.reading) < 1e-13

    def test_vanishing_postselection_evaluates_to_zero(self):
        objective = kappa_shift_objective(1.0, 0.1, METER, "dp")
        assert objective(0.0, math.pi, 0.0) == 0.0

    @pytest.mark.parametrize("builder", [
        lambda g: kappa_shift_objective(0.5, g, METER, "dp"),
        lambda g: kappa_reading_objective(0.5, g),
        lambda g: damped_shift_objective(0.5, g, METER, "dq"),
        lambda g: damped_reading_objective(0.5, g),
    ], ids=["kappa-shift", "kappa-reading", "damped-shift", "damped-reading"])
    def test_coupling_validated(self, builder):
        for g in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="coupling must be finite and non-negative"):
                builder(g)
        assert builder(0.0)(1.0, 2.0, 0.5) == 0.0

    @pytest.mark.parametrize("channel", [depolarizing, phase_damping, amplitude_damping,
                                         optimize._modulus_channel])
    def test_entries_keep_their_accuracy_near_the_poles(self, channel):
        # Each density entry of the family against the exact value of the
        # same expression on the same float inputs: within 2 ulp, an exact
        # zero exactly zero, at the strengths' ends and across the u1 box,
        # its ends included, where the small entries are a few 1e-9.
        _, points = _u1_scan(64)
        points += tuple(map(_preselection, (-9.99, -3.0, -0.1, 0.7, 9.99)))
        for strength in (0.0, 1e-9, 0.3, 1.0 - 1e-9, 1.0):
            family = channel(strength)
            (t00, t01), (t10, t11) = (map(Fraction, row) for row in family.transfer)
            coherence = Fraction(family.coherence)
            objective = _family_objective(family, 0.1, "qubit", "reading")
            for _, ch, sh in points:
                c, s = Fraction(ch), Fraction(sh)
                exact = (t00 * c * c + t01 * s * s, t10 * c * c + t11 * s * s,
                         coherence * s * c)
                for got, want in zip(objective._entries(ch, sh), exact):
                    if want == 0:
                        assert got == 0.0, (strength, ch, sh)
                    else:
                        assert abs(Fraction(got) - want) <= 2 * Fraction(math.ulp(float(want))), (
                            strength, ch, sh)

    def test_family_strength_validated(self):
        with pytest.raises(ValueError, match=r"^kappa must lie in \[0, 1\], got 1\.5$"):
            kappa_shift_objective(1.5, 0.05, METER, "dp")
        with pytest.raises(ValueError, match=r"^kappa must lie in \[0, 1\], got -0\.5$"):
            kappa_reading_objective(-0.5, 0.05)
        with pytest.raises(ValueError, match=r"^gamma must lie in \[0, 1\], got inf$"):
            damped_shift_objective(math.inf, 0.05, METER, "dq")


def _targets():
    """Every family x target objective, plus the grid oracle's, by name."""
    out = {}
    for family, (_, _, shift_objective, reading_objective) in FAMILIES.items():
        for which in ("dp", "dq"):
            out[f"{family}-{which}"] = lambda f=shift_objective, w=which: f(0.6, 0.05, METER, w)
        out[f"{family}-reading"] = lambda f=reading_objective: f(0.6, 0.1)
    out["oracle-dq"] = lambda: _oracle_shift_objective(depolarizing(0.4), 0.3, METER, "dq")
    return out


TARGETS = _targets()


def test_coarse_grid_polar_axis_ends_at_pi():
    # i * pi / (n - 1) rounds past pi at i = n - 1 for n = 26, 42, ...; an
    # axis built so calls the objective outside [0, pi], where _u takes the
    # log of a negative tangent.
    for n in range(16, 201):
        theta = _coarse_grid(n).theta
        assert theta[-1] == math.pi and max(theta) <= math.pi
    for polar, n in ((0, 26), (1, 42)):
        result = maximize(lambda *angles: angles[polar], grid_n=n)
        assert result.value == pytest.approx(math.pi, rel=1e-4)


class TestSlabFace:
    # The coarse grid of a plain callable, probed slab by slab: every
    # (theta2, phi0) point at one theta1, then the next theta1.
    def test_grid_start_is_the_first_largest_point(self):
        probes = []

        def objective(t1, t2, p0):
            probes.append((t1, t2, p0))
            return -1.0 if t2 > 1.0 else 0.5

        maximize(objective, grid_n=16)
        first_tie = next(i * math.pi / 15 for i in range(16) if i * math.pi / 15 > 1.0)
        # The refinement starts there, its polar angles moved into the u box:
        # theta1 = 0 to the box edge, theta2 round-tripped through u.
        assert probes[16 ** 3] == _angles((-_U_MAX, _u(first_tie), 0.0))
        assert probes[16 ** 3][1] == pytest.approx(first_tie, rel=1e-15)

    @pytest.mark.parametrize("n, m", NONFINITE_BRANCHES.values(), ids=NONFINITE_BRANCHES)
    def test_nonfinite_grid_value_raises_at_the_first_nonfinite_point(self, n, m):
        objective = _Objective(depolarizing(0.2), n, m)
        grid = _coarse_grid(32)
        first = next((t1, t2, p0) for t1 in grid.theta for t2 in grid.theta
                     for p0 in grid.phi if not math.isfinite(objective(t1, t2, p0)))
        value = objective(*first)
        assert first[0] > 0.0  # earlier theta1 are finite
        with pytest.raises(OptimizationError) as err:
            maximize(lambda *point: objective(*point), grid_n=32)
        assert err.value.point == PPSPoint(*first)
        assert repr(err.value.value) == repr(value)


class TestPrunedGrid:
    # No grid point is pruned: a plain callable is probed at every one, and
    # an _Objective skips the grid for its theta1 scan.
    @pytest.mark.parametrize("n, m", [
        ((1.0, 1.0, 1.0, 0.05, 0.0), (1.0, 0.5, 2.0, 0.3, -0.4)),
        ((1.0, 1.0, 1.0, 0.5, 0.0), (1.0, 1.0, 1.0, 0.5, 0.0)),
    ], ids=["quadratic", "constant"])
    def test_other_objectives_evaluate_every_grid_point(self, n, m):
        # A ratio of two quadratic forms in the postselection, and one whose
        # forms coincide, so that its value is 1 at every point.
        objective = _Objective(depolarizing(0.2), n, m)
        calls = []

        def plain(*point):
            calls.append(point)
            return objective(*point)

        result = maximize(plain, grid_n=17)
        assert len(calls) == result.evaluations == 17 ** 3 + result.refine_probes
        assert result.grid_probes == 17 ** 3

    def test_nonfinite_form_value_raises_where_the_full_scan_does(self):
        # A read-out whose contraction overflows once rho00 u2 passes 0.2247:
        # the full scan of a plain callable names the first non-finite grid
        # point, and the theta1 scan of the _Objective raises at its first
        # preselection, whose read-out form is already infinite.
        objective = _Objective(depolarizing(0.2),
                               (1.0, 1.0, 1.0, 0.0, 0.0), (1e308, 8.0, 0.0, 0.0, 0.0))
        grid = _coarse_grid(16)
        first = next((t1, t2, p0) for t1 in grid.theta for t2 in grid.theta
                     for p0 in grid.phi if not math.isfinite(objective(t1, t2, p0)))
        with pytest.raises(OptimizationError) as err:
            maximize(lambda *point: objective(*point), grid_n=16)
        assert err.value.point == PPSPoint(*first)
        assert repr(err.value.value) == repr(objective(*first))
        with pytest.raises(OptimizationError) as err:
            maximize(objective, grid_n=16)
        assert err.value.point.theta1 == _theta(-_U_MAX)
        assert not math.isfinite(err.value.value)


def _capped(f, cap=500):
    """Plain callable f that records its probes and fails past ``cap`` of them."""
    calls = []

    def objective(*point):
        calls.append(point)
        assert len(calls) <= cap, "line search does not terminate"
        return f(*point)

    return objective, calls


def _search(objective, origin, direction):
    """The 64-point line search of a plain callable on the u-line origin + t
    direction."""
    return _line_search(objective, origin, direction, 64)


class TestLineSearch:
    # Line searches run in u = log tan(theta / 2); the objectives see theta.
    ORIGIN, U2 = (_u(1.0), _u(0.5), 0.3), (0.0, 1.0, 0.0)

    @pytest.mark.parametrize("peak", [0.3, 0.7, 1.2345678, 1.9, 2.95])
    def test_one_peak_line_lands_on_its_argmax_in_few_probes(self, peak):
        # The peak 1 + cos(s - peak) over s in [0, pi], stretched onto the
        # box: s = pi / 2 + k u2 runs over [0, pi] as u2 runs across it.
        k = math.pi / (2.0 * _U_MAX)

        def s(theta2):
            return 0.5 * math.pi + k * _u(theta2)

        objective, calls = _capped(lambda t1, t2, p0: 1.0 + math.cos(s(t2) - peak))
        point, value, (angles, signed), probes = _search(objective, self.ORIGIN, self.U2)
        assert abs(0.5 * math.pi + k * point[1] - peak) < 1e-9
        assert angles == _angles(point)
        assert value == abs(signed) == 1.0 + math.cos(s(_theta(point[1])) - peak)
        # Golden section alone takes about 50 probes after the scan.
        assert probes == len(calls) and len(calls) - 64 <= 25

    @pytest.mark.parametrize("peak", [0.7, 1.2345678, 2.2])
    def test_kinked_peak_falls_back_to_golden_steps(self, peak):
        # Parabolas fit a kink badly; golden steps must still close in on it.
        objective, calls = _capped(lambda t1, t2, p0: 2.0 - abs(t2 - peak))
        point, *_ = _search(objective, self.ORIGIN, self.U2)
        assert abs(point[1] - _u(peak)) < 1e-9
        assert len(calls) - 64 <= 50

    @pytest.mark.parametrize("direction, sign, axis, end", [
        ((0.0, 1.0, 0.0), 1.0, 1, math.pi), ((0.0, 1.0, 0.0), -1.0, 1, 0.0),
        (_DIRECTIONS[3], 1.0, 1, 0.0), (_DIRECTIONS[3], -1.0, 0, 0.0),
        (_DIRECTIONS[4], 1.0, 1, math.pi), (_DIRECTIONS[4], -1.0, 0, 0.0),
    ])
    def test_monotone_segment_converges_to_its_end(self, direction, sign, axis, end):
        # f stays positive and moves with sign * t along the u-line origin +
        # t direction (each theta is increasing in its u), so |f| peaks at the
        # box edge where polar angle ``axis`` approaches the pole ``end``.
        def f(*angles):
            return 10.0 + sign * sum(a * d for a, d in zip(angles, direction))

        objective, _ = _capped(f)
        origin = (_u(1.3), _u(1.7), 0.3)
        point, value, _, _ = _search(objective, origin, direction)
        assert abs(point[axis] - _u(end)) <= _LINE_WIDTH
        assert value == f(*_angles(point))

    def test_constant_line_keeps_the_first_scan_point(self):
        objective, calls = _capped(lambda t1, t2, p0: 0.7)
        point, value, (angles, _), _ = _search(objective, self.ORIGIN, self.U2)
        assert (point, value) == ((self.ORIGIN[0], -_U_MAX, 0.3), 0.7)
        assert angles == _angles(point) == calls[0]

    @pytest.mark.parametrize("f", [
        lambda t1, t2, p0: t1 + t2,
        lambda t1, t2, p0: -t1 - t2 - p0,
        lambda t1, t2, p0: math.exp(-1e6 * t2 ** 2),
        lambda t1, t2, p0: math.exp(-1e6 * (math.pi - t1) ** 2),
        lambda t1, t2, p0: math.cos(t1 - 1e-12) * math.cos(p0 - 3.0),
        kappa_shift_objective(0.8, 0.03, METER, "dq"),
    ])
    def test_no_probe_leaves_the_segment(self, f, monkeypatch):
        ts = []

        def along(origin, direction, t):
            ts.append(t)
            return real_along(origin, direction, t)

        real_along = optimize._along
        monkeypatch.setattr(optimize, "_along", along)
        for origin in [(-_U_MAX, _U_MAX, 0.0), (1e-13 - _U_MAX, 3.0, 6.2), (2.0, 0.4, 1.0)]:
            for direction in _DIRECTIONS:
                # f is wrapped, so its scan goes point by point through _along too.
                objective, _ = _capped(lambda *point: f(*point))
                ts.clear()
                _search(objective, origin, direction)
                assert len(ts) > 64
                assert all(ts[0] <= t <= ts[63] for t in ts[64:])

    def test_scan_point_reports_the_probes_own_angles(self):
        # The first of the tied scan points is kept with the angles it was
        # probed at and its signed value.
        _, value, best, _ = _line_search(lambda t1, t2, p0: -0.7, (0.0, 0.0, 1.0),
                                         (1.0, 0.0, 0.0), 64)
        assert value == 0.7
        assert best == ((_theta(-_U_MAX), _theta(0.0), 1.0), -0.7)

    def test_battery_probe_counts(self):
        # Probe counts are deterministic: a slide back to wasteful line
        # searches shows here without any timing.  These 36 searches each
        # scan 64 preselections, then make 627 Brent probes between them
        # (953 when only the bracket width stopped them), against 33180
        # probes after the 64^3 grid when they searched all three angles.
        meter = GaussianMeter(1.0)
        after_scan = 0
        for kappa in KAPPA_BATTERY:
            for c in COUPLING_BATTERY:
                g = c * meter.dp
                for objective in (kappa_shift_objective(kappa, g, meter, "dp"),
                                  kappa_shift_objective(kappa, g, meter, "dq"),
                                  kappa_reading_objective(kappa, c)):
                    result = maximize(objective)
                    assert result.converged
                    assert result.grid_probes == 64
                    assert result.grid_probes + result.refine_probes == result.evaluations
                    after_scan += result.refine_probes
        assert after_scan <= 18 * 36

    def test_flat_stop_only_cuts_the_search_short(self, monkeypatch):
        # The 45 battery and damped searches against the same searches
        # stopped by the bracket width alone (no difference is at most
        # -inf ulp).  Brent's method is deterministic, so the flat stop
        # makes the first probes of the full search and ends earlier; what
        # the later probes add is the scores' rounding near the peak.
        # Reading-max kappa = 0.8, g = 0.1 moves most: the full search's
        # value comes from a lone probe 5 ulp above the scores within 1e-8
        # of it in u1, so the bound is 8 ulp rather than the stop's 4.
        objectives = _battery_and_damped_objectives()
        segment, points = _u1_scan(64)

        def traced(objective):
            probes = []

            def probe(u1):
                probes.append(u1)
                return objective.scored(u1)

            x, _, _ = _brent(probe, segment, objective.scan(points))
            return probes, abs(objective.postselected(_preselection(x))[1])

        flat = [traced(objective) for objective in objectives]
        monkeypatch.setattr(optimize, "_FLAT_ULPS", -math.inf)
        for (probes, value), objective in zip(flat, objectives):
            full_probes, full_value = traced(objective)
            assert full_probes[:len(probes)] == probes
            assert abs(value - full_value) <= 8 * math.ulp(full_value)


class TestLineFace:
    # The scan of a line search: its probe mapped over n evenly spaced
    # points, each value taken as the probe gave it.
    U2 = TestLineSearch.U2

    def test_first_largest_scan_point_wins_without_a_reprobe(self):
        # Every scan value ties, so the first scan point is kept.
        objective, calls = _capped(lambda t1, t2, p0: 1.0)
        origin = (_u(1.0), _u(0.5), 0.3)
        point, value, best, probes = _search(objective, origin, self.U2)
        assert (point, value) == ((origin[0], -_U_MAX, 0.3), 1.0)
        assert best == (_angles(point), 1.0)
        # The probe is called once per point, the scan included.
        assert calls[0] == _angles(point)
        assert probes == len(calls)

    def test_nonfinite_scan_value_raises_where_the_scalar_route_does(self):
        # 8e308 rho11 v2 overflows once rho11 v2 passes 0.2247, mid-way along
        # theta2.
        objective = _Objective(depolarizing(0.2),
                               (1.0, 1.0, 1.0, 0.0, 0.0), (1e308, 0.0, 8.0, 0.0, 0.0))
        origin, direction = (_u(1.0), -_U_MAX, 0.3), (0.0, 1.0, 0.0)
        points = [_angles((origin[0], -_U_MAX + i * (2.0 * _U_MAX / 63), 0.3))
                  for i in range(64)]
        first_bad = next(p for p in points if not math.isfinite(objective(*p)))
        assert 0.0 < first_bad[1] < math.pi
        with pytest.raises(OptimizationError) as err:
            _search(objective, origin, direction)
        assert err.value.point == PPSPoint(*first_bad)
        assert err.value.value == math.inf


class TestBoundLine:
    # Brent's steps on a line bound to one probe.
    def test_nan_brent_probe_raises_where_the_plain_callable_does(self):
        # The value rises along theta2, so the scan's largest point is the
        # segment end, and it is NaN strictly between the last two scan
        # points, where the first Brent step lands.
        origin, direction = (_u(1.0), -_U_MAX, 0.3), (0.0, 1.0, 0.0)
        step = 2.0 * _U_MAX / 63
        lo, hi = (math.sin(0.5 * _theta(-_U_MAX + i * step)) ** 2 for i in (62, 63))

        def objective(t1, t2, p0):
            v2 = math.sin(0.5 * t2) ** 2
            return math.nan if lo < v2 < hi else v2

        with pytest.raises(OptimizationError) as err:
            _search(objective, origin, direction)
        assert lo < math.sin(0.5 * err.value.point.theta2) ** 2 < hi
        assert math.isnan(err.value.value)


def _form_objective(family, strength, target, g):
    """A form objective: ``target`` ("dp", "dq", "reading", "oracle-dp" or
    "oracle-dq") over the depolarized, dephased or damped pure family."""
    channel = {"depolarizing": optimize._modulus_channel, "phase-damping": phase_damping,
               "amplitude-damping": amplitude_damping}[family](strength)
    if target.startswith("oracle-"):
        return _oracle_shift_objective(channel, g, METER, target[len("oracle-"):])
    return _family_objective(channel, g, "qubit" if target == "reading" else METER, target)



def _scan_max(objective, t1, p0):
    """Largest |value| over theta2 on the rows phi0 and phi0 + pi: a 2001-point
    scan, then three rescans of the two steps around its best point."""
    best = 0.0
    for phi in (p0, p0 + math.pi):
        lo, hi = 0.0, math.pi
        for _ in range(4):
            ts = np.linspace(lo, hi, 2001)
            values = [abs(objective(t1, t2, phi)) for t2 in ts]
            k = int(np.argmax(values))
            best = max(best, values[k])
            step = ts[1] - ts[0]
            lo, hi = max(0.0, ts[k] - step), min(math.pi, ts[k] + step)
    return best


FORM_TARGETS = ["dp", "dq", "reading", "oracle-dp", "oracle-dq"]
FORM_FAMILIES = ["depolarizing", "phase-damping", "amplitude-damping"]


class TestRowBounds:
    # The exact postselection at one preselection bounds every (theta2, phi0)
    # row there, and reaches its bound at the angles it reports.
    @pytest.mark.parametrize("target", FORM_TARGETS)
    def test_bound_covers_a_dense_scan_of_both_mirror_rows(self, target):
        rng = np.random.default_rng(42)
        for family in FORM_FAMILIES:
            for _ in range(2):
                objective = _form_objective(family, rng.random(), target,
                                            rng.uniform(0.005, 0.5))
                angles, value = objective.postselected(
                    _preselection(_u(rng.uniform(0.05, math.pi - 0.05))))
                assert objective(*angles) == value
                t1, p0 = angles[0], angles[2]
                # The rows at the probe's phase, a quarter period on, and
                # their mirrors at phi0 + pi.
                found = _scan_max(objective, t1, p0)
                assert abs(value) * (1.0 - 1e-6) <= found <= abs(value) * (1.0 + 1e-13)
                assert _scan_max(objective, t1, p0 + 0.5 * math.pi) <= abs(value) * (1.0 + 1e-13)


class TestPostselectedProbe:
    # The probe u1 -> (angles, value) of an exact-postselection search.
    def test_angles_reproduce_the_value_at_every_scan_point(self):
        # The 36 verify battery objectives, a gamma = 1 damped one (every
        # state is |0><0|, so B is singular) and a grid-oracle one, at the
        # 64 scan points of a search and at both box edges.
        objectives = _battery_and_damped_objectives()[:36]
        objectives += [damped_shift_objective(1.0, 0.1 * METER.dp, METER, "dp"),
                       _form_objective("amplitude-damping", 0.5, "oracle-dq", 0.3)]
        step = 2.0 * _U_MAX / 63
        us = [-_U_MAX + i * step for i in range(64)] + [-_U_MAX, _U_MAX]
        for objective in objectives:
            for u1 in us:
                (t1, t2, p0), value = objective.postselected(_preselection(u1))
                assert t1 == _theta(u1)
                assert objective(t1, t2, p0) == value
                assert 0.0 <= t2 <= math.pi and 0.0 <= p0 < 2.0 * math.pi

    def test_rows_tied_in_norm_keep_the_first(self):
        # Rows of a positive semi-definite pencil that tie in norm are
        # parallel and give the same angles, so the rule shows only on an
        # indefinite B, which no meter gives.  The noiseless state at theta1
        # = pi / 2, with both half-angle values the same float sqrt(1/2),
        # has rho00 = rho11 = rho10 = r exactly, so B = 2r [[1/2, 1], [1,
        # 1/2]] has det(B) < 0, and its rows tie in norm.  A = 2r [[1, 0],
        # [0, 0]].
        objective = _Objective(depolarizing(0.0),
                               (1.0, 1.0, 1.0, 2.0, 0.0), (1.0, 2.0, 0.0, 0.0, 0.0))
        half = math.sqrt(0.5)
        (t1, t2, p0), value = objective.postselected((0.5 * math.pi, half, half))
        assert (t1, t2, p0) == (0.5 * math.pi, 2.0 * math.atan2(1.0, 0.5), 0.0)
        # The call face at t1 would take sin(pi / 4), 1 ulp below sqrt(1/2).
        assert objective._value(half, half, t2, p0) == value


def _score_objectives():
    """Objectives whose scoring probe is checked against the call face, by
    name: the 36 verify battery ones, kappa = 0 (dp's tied roots, dq's zero
    read-out form and the reading's A proportional to B), damped ones at
    gamma = 0, 0.5, 0.999 (whose best postselection sits at the floor at
    some theta1) and 1 (a singular B), two grid-oracle ones and a coupling of
    1e-160, whose forms' squares underflow."""
    out = {f"battery-{i}": objective
           for i, objective in enumerate(_battery_and_damped_objectives()[:36])}
    g = 0.1 * METER.dp
    for family, builders in (("kappa", (kappa_shift_objective, kappa_reading_objective)),
                             ("damped", (damped_shift_objective, damped_reading_objective))):
        for strength in ((0.0,) if family == "kappa" else (0.0, 0.5, 0.999, 1.0)):
            shift, reading = builders
            out[f"{family}-{strength}-dp"] = shift(strength, g, METER, "dp")
            out[f"{family}-{strength}-dq"] = shift(strength, g, METER, "dq")
            out[f"{family}-{strength}-reading"] = reading(strength, 0.1)
    out["oracle-damped-dq"] = _form_objective("amplitude-damping", 0.5, "oracle-dq", 0.3)
    out["oracle-depolarized-dp"] = _form_objective("depolarizing", 0.6, "oracle-dp", 0.2)
    out["tiny-coupling-dp"] = kappa_shift_objective(0.5, 1e-160, METER, "dp")
    return out


def _score_points():
    """The 64 scan points of a search, both box edges and 200 seeded u1."""
    step = 2.0 * _U_MAX / 63
    rng = np.random.default_rng(24)
    return ([-_U_MAX + i * step for i in range(64)] + [-_U_MAX, _U_MAX]
            + rng.uniform(-_U_MAX, _U_MAX, size=200).tolist())


class TestScoringProbe:
    # The probe u1 -> |score| that a theta1 search compares, the signed
    # scores of the pencil behind it, and the one read-out of angles and
    # value at its end.
    def test_score_matches_the_call_face(self):
        us = _score_points()
        for name, objective in _score_objectives().items():
            for u1 in us:
                angles, value = objective.postselected(_preselection(u1))
                assert objective(*angles) == value
                (score,), _ = objective._pencils((_preselection(u1),))
                if not math.isfinite(score):
                    # A degenerate score defers to the read-out.
                    assert objective.scored(u1) == abs(value), (name, u1)
                    continue
                assert objective.scored(u1) == abs(score), (name, u1)
                if value == 0.0:
                    assert score == 0.0, (name, u1)
                else:
                    assert abs(score - value) <= 1e-12 * abs(value), (name, u1)

    @pytest.mark.parametrize("g", [1e-160, 1e-300])
    def test_tiny_coupling_keeps_the_maxima(self, g):
        # The read-out scale is about g: the pencil's squares of it would
        # underflow (the search landed 1.5e-8 below the dp maximum and 2.1e-7
        # below the dq one at g = 1e-160) unless it runs on the scale's
        # mantissa.
        meter = GaussianMeter(1.0)
        for which, closed in zip(("dp", "dq"), gaussian_max_shifts(0.5, g, meter)):
            value = maximize(kappa_shift_objective(0.5, g, meter, which)).value
            assert abs(abs(value) - closed.value) <= 1e-12 * closed.value, which

    @pytest.mark.parametrize("objective, degenerate", [
        (damped_shift_objective(1.0, 0.1 * METER.dp, METER, "dp"), "singular B"),
        (kappa_shift_objective(0.0, 0.1 * METER.dp, METER, "dq"), "zero read-out form"),
        (kappa_reading_objective(0.0, 0.1), "A proportional to B"),
    ], ids=["singular-b", "zero-form", "proportional"])
    def test_degenerate_scores_defer_to_postselected(self, objective, degenerate, monkeypatch):
        reads = []
        real_postselected = _Objective.postselected

        def counted(self, point):
            reads.append(point)
            return real_postselected(self, point)

        monkeypatch.setattr(_Objective, "postselected", counted)
        deferred = 0
        for u1 in _score_points():
            point = _preselection(u1)
            (score,), _ = objective._pencils((point,))
            reads.clear()
            magnitude = objective.scored(u1)
            if math.isnan(score):
                deferred += 1
                assert reads == [point]
                assert magnitude == abs(real_postselected(objective, point)[1])
            else:
                assert reads == []
                assert magnitude == abs(score)
        assert deferred > 0, degenerate

    @pytest.mark.parametrize("grid_n", [16, 17, 32, 64])
    def test_scan_scores_match_the_scoring_probe(self, grid_n):
        # The one-pass scan of a theta1 search against its scoring probe,
        # point by point, and the search refined from the probe's scan
        # against maximize's: bit for bit, on every family and target,
        # grid-oracle forms and degenerate scores included.
        segment, points = _u1_scan(grid_n)
        t_lo, _, step = segment
        ts = [t_lo + i * step for i in range(grid_n)]
        assert [point[0] for point in points] == list(map(_theta, ts))
        objectives = {**_score_objectives(),
                      **{name: build() for name, build in TARGETS.items()}}
        for name, objective in objectives.items():
            magnitudes = objective.scan(points)
            expected = [objective.scored(t) for t in ts]
            assert list(map(repr, magnitudes)) == list(map(repr, expected)), name
            x, fx, probes = _brent(objective.scored, segment, expected)
            result = maximize(objective, grid_n)
            assert (repr(result.argmax.theta1), result.evaluations) == (
                repr(_theta(x)), probes), name
            assert repr(fx) == repr(objective.scored(x)), name

    @pytest.mark.parametrize("n, m", NONFINITE_BRANCHES.values(), ids=NONFINITE_BRANCHES)
    def test_scan_raises_at_the_first_nonfinite_value(self, n, m):
        # Scored one point at a time, the first probe whose value is not
        # finite names the point; the one-pass scan raises there too.
        objective = _Objective(depolarizing(0.2), n, m)
        (t_lo, _, step), points = _u1_scan(32)
        first = None
        for i in range(32):
            try:
                objective.scored(t_lo + i * step)
            except OptimizationError as found:
                first = found
                break
        assert first is not None and not math.isfinite(first.value)
        with pytest.raises(OptimizationError) as err:
            objective.scan(points)
        assert repr(err.value.point) == repr(first.point)
        assert repr(err.value.value) == repr(first.value)

    def test_each_search_reads_its_point_once(self, monkeypatch):
        # The 51 searches of RESULTS_DIGEST: the scan and Brent probes are
        # scored, and postselected runs once, at the final u1, for the
        # reported angles and value.
        calls = []
        real_postselected = _Objective.postselected

        def counted(self, point):
            calls.append(point)
            return real_postselected(self, point)

        monkeypatch.setattr(_Objective, "postselected", counted)
        searches = []
        real_maximize = verification.maximize

        def recorded(objective, **kwargs):
            before = len(calls)
            result = real_maximize(objective, **kwargs)
            searches.append((objective, result, len(calls) - before))
            return result

        for objective in _battery_and_damped_objectives():
            recorded(objective)
        monkeypatch.setattr(verification, "maximize", recorded)
        verification.adjudicate_variants()
        assert len(searches) == 51
        for objective, result, reads in searches:
            assert reads == 1
            point = result.argmax
            assert objective(point.theta1, point.theta2, point.phi0) == result.value
            assert result.evaluations == result.grid_probes + result.refine_probes
            assert result.converged

    @pytest.mark.parametrize("n, m", NONFINITE_BRANCHES.values(), ids=NONFINITE_BRANCHES)
    def test_nonfinite_search_raises_at_the_probes_angles(self, n, m):
        # A non-finite or degenerate score defers to postselected, so the
        # theta1 search raises at the first scan point whose read-out is not
        # finite, with that read-out's own (theta1, theta2, phi0), NaNs
        # included.  (The squares of the pencil's rows used to overflow into
        # an OverflowError on "nan-from-infinite-probability".)
        objective = _Objective(depolarizing(0.2), n, m)
        step = 2.0 * _U_MAX / 31
        first, value = next(
            found for found in (objective.postselected(_preselection(-_U_MAX + i * step))
                                for i in range(32))
            if not math.isfinite(found[1]))
        with pytest.raises(OptimizationError) as err:
            maximize(objective, grid_n=32)
        assert repr(err.value.point) == repr(PPSPoint(*first))
        assert repr(err.value.value) == repr(value)


def test_verify_never_takes_the_plain_callable_path(monkeypatch):
    # Every search that verify makes is a theta1 search on an _Objective:
    # the coarse grid and the cyclic line searches of a plain callable are
    # never reached.
    def unreachable(*args, **kwargs):
        raise AssertionError("plain-callable path reached")

    for name in ("_grid_start", "_line_search"):
        monkeypatch.setattr(optimize, name, unreachable)
    assert verification.run_verify(7, 50).ok


def test_phase_reduction_is_sound():
    # a sparse scan over both azimuths separately never beats the
    # relative-phase-only search
    kappa, g = 0.8, 0.05
    best3 = abs(maximize(kappa_shift_objective(kappa, g, METER, "dq")).value)
    worst_excess = 0.0
    thetas = np.linspace(0.0, math.pi, 13)
    phis = np.linspace(0.0, 2 * math.pi, 13, endpoint=False)
    for t1 in thetas:
        for t2 in thetas:
            for p1 in phis:
                for p2 in phis:
                    rho = modulus_state(kappa, t1, p1)
                    try:
                        res = gaussian_shifts(rho, pure_state(t2, p2), g, METER)
                    except VanishingPostselectionError:
                        continue
                    worst_excess = max(worst_excess, abs(res.dq_shift) - best3)
    assert worst_excess <= 1e-9


class TestAmplitudeDampingMax:
    def test_zero_damping_reproduces_closed_forms(self):
        g = 0.1 * METER.dp
        dp_closed, dq_closed = (r.value for r in gaussian_max_shifts(1.0, g, METER))
        assert abs(abs(amplitude_damping_max(METER, 0.0, g, "dp").value)
                   - dp_closed) / dp_closed < 1e-6
        assert abs(abs(amplitude_damping_max(METER, 0.0, g, "dq").value)
                   - dq_closed) / dq_closed < 1e-6
        reading = qubit_max_reading(1.0, 0.1).value
        assert abs(abs(amplitude_damping_max("qubit", 0.0, 0.1, "reading").value)
                   - reading) < 1e-6

    def test_meter_and_target_must_agree(self):
        with pytest.raises(ValueError, match="^'reading' requires the qubit meter$"):
            amplitude_damping_max(METER, 0.5, 0.1, "reading")
        with pytest.raises(ValueError, match="^'dp' requires a GaussianMeter$"):
            amplitude_damping_max("qubit", 0.5, 0.1, "dp")
        # An unknown target is named as such, whatever the meter.
        unknown = "^which must be 'dp', 'dq' or 'reading', got '{}'$"
        for meter, which in ((METER, "dx"), ("qubit", "readng"), (METER, "reading ")):
            with pytest.raises(ValueError, match=unknown.format(which)):
                amplitude_damping_max(meter, 0.5, 0.1, which)
            with pytest.raises(ValueError, match=unknown.format(which)):
                _family_objective(depolarizing(0.5), 0.1, meter, which)
        with pytest.raises(ValueError, match=r"^gamma must lie in \[0, 1\], got 1\.5$"):
            amplitude_damping_max(METER, 1.5, 0.1, "dp")

    def test_full_damping_warns_and_kills_position_shift(self):
        with pytest.warns(UserWarning):
            res = amplitude_damping_max(METER, 1.0, 0.05, "dq")
        assert res.value == 0.0

    @pytest.mark.parametrize("which,meter,g,objective", [
        ("dp", METER, 0.05, damped_shift_objective(1.0, 0.05, METER, "dp")),
        ("dq", METER, 0.05, damped_shift_objective(1.0, 0.05, METER, "dq")),
        ("reading", "qubit", 0.1, damped_reading_objective(1.0, 0.1)),
    ], ids=["dp", "dq", "reading"])
    def test_full_damping_values_match_the_optimizer(self, which, meter, g, objective):
        with pytest.warns(UserWarning):
            res = amplitude_damping_max(meter, 1.0, g, which)
        found = maximize(objective)
        assert found.converged
        assert res.value == pytest.approx(abs(found.value), rel=1e-15, abs=0.0)


#: amplitude_damping_max targets at the figures' couplings, by ``which``:
#: (meter, g, damped objective builder taking gamma).
DAMPED_TARGETS = {
    "dp": (METER, 0.05, lambda gamma: damped_shift_objective(gamma, 0.05, METER, "dp")),
    "dq": (METER, 0.05, lambda gamma: damped_shift_objective(gamma, 0.05, METER, "dq")),
    "reading": ("qubit", 0.1, lambda gamma: damped_reading_objective(gamma, 0.1)),
}


def _noiseless_max(which, meter, g):
    if which == "reading":
        return qubit_max_reading(1.0, g)
    return gaussian_max_shifts(1.0, g, meter)[("dp", "dq").index(which)]


class TestAmplitudeDampingSupremum:
    @pytest.mark.parametrize("which", DAMPED_TARGETS)
    @pytest.mark.parametrize("gamma", [0.0, 0.1, 0.5, 0.9, 0.95])
    def test_value_is_the_noiseless_closed_form(self, which, gamma):
        meter, g, _ = DAMPED_TARGETS[which]
        res = amplitude_damping_max(meter, gamma, g, which)
        assert res.value == _noiseless_max(which, meter, g).value

    @pytest.mark.parametrize("which", DAMPED_TARGETS)
    @pytest.mark.parametrize("gamma", [0.1, 0.5, 0.9, 0.95])
    def test_approach_path_gap_is_second_order(self, which, gamma):
        meter, g, objective = DAMPED_TARGETS[which]
        closed = _noiseless_max(which, meter, g)
        f = objective(gamma)
        gaps = [(closed.value - abs(f(*_approach_point(gamma, closed, eps)))) / closed.value
                for eps in (1e-2, 1e-3, 1e-4)]
        assert all(gap >= -1e-12 for gap in gaps)
        assert gaps[0] >= 50.0 * gaps[1] and gaps[1] >= 50.0 * gaps[2]
        assert gaps[2] > 0.0

    @pytest.mark.parametrize("which", DAMPED_TARGETS)
    def test_returned_angles_reach_the_value(self, which):
        meter, g, objective = DAMPED_TARGETS[which]
        for gamma in np.linspace(0.0, 0.95, 20):
            res = amplitude_damping_max(meter, gamma, g, which)
            reached = abs(objective(gamma)(res.theta1, res.theta2, res.phi0))
            assert abs(reached - res.value) / res.value <= 1e-4

    @given(psi=pure_states(), post=pure_states(), gamma=gammas(),
           g=st.floats(min_value=0.01, max_value=1.5))
    @settings(max_examples=200)
    def test_no_damped_state_beats_the_supremum(self, psi, post, gamma, g):
        rho = amplitude_damping(gamma).apply(psi.density())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sups = {which: amplitude_damping_max(meter, gamma, g, which).value
                    for which, meter in (("dp", METER), ("dq", METER), ("reading", "qubit"))}
        values = {}
        try:
            shifts = gaussian_shifts(rho, post, g, METER)
            values.update(dp=shifts.dp_shift, dq=shifts.dq_shift)
        except VanishingPostselectionError:
            pass
        try:
            values["reading"] = postselected_reading(rho, post, g).reading
        except VanishingPostselectionError:
            pass
        for which, value in values.items():
            assert abs(value) <= sups[which] * (1.0 + 1e-9)
