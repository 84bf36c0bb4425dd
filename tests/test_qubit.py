import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import amplitudes, bloch_vectors, densities, matrix, pure_states
from weakamp import (
    BlochVector,
    PureQubit,
    QubitDensity,
    bloch_from_density,
    decompose,
    density_from_bloch,
    depolarizing,
    overlap,
    pure_state,
)


class TestPureState:
    def test_pole_ignores_azimuth(self):
        state = pure_state(0.0, 2.31)
        assert state.alpha == 1.0
        assert state.beta == 0.0
        assert state.phi == 0.0

    def test_equatorial(self):
        state = pure_state(math.pi / 2, 0.0)
        assert abs(state.alpha - 1 / math.sqrt(2)) < 1e-15
        assert abs(state.beta - 1 / math.sqrt(2)) < 1e-15

    def test_equatorial_opposite_phase(self):
        state = pure_state(math.pi / 2, math.pi)
        assert abs(state.alpha - 1 / math.sqrt(2)) < 1e-15
        assert abs(state.beta + 1 / math.sqrt(2)) < 1e-12
        assert abs(overlap(pure_state(math.pi / 2, 0.0), state)) < 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match=r"angles must be finite, got \(nan, 0\.0\)"):
            pure_state(math.nan, 0.0)
        with pytest.raises(ValueError, match=r"angles must be finite, got \(0\.0, inf\)"):
            pure_state(0.0, math.inf)

    def test_canonicalization_folds_theta(self):
        # negative theta is the same sphere point with the azimuth advanced by pi
        a = pure_state(-0.4, 1.0)
        b = pure_state(0.4, 1.0 + math.pi)
        assert a.theta == pytest.approx(b.theta)
        assert a.phi == pytest.approx(b.phi)
        assert abs(abs(overlap(a, b)) - 1.0) < 1e-12
        # theta beyond pi folds back
        c = pure_state(math.pi + 0.3, 0.5)
        assert 0.0 <= c.theta <= math.pi
        assert abs(abs(overlap(c, pure_state(math.pi - 0.3, 0.5 + math.pi))) - 1) < 1e-12

    @given(pure_states())
    def test_normalized(self, psi):
        assert abs(abs(psi.alpha) ** 2 + abs(psi.beta) ** 2 - 1.0) < 1e-12

    @given(pure_states())
    def test_pure_density_has_unit_modulus(self, psi):
        r, direction, degenerate = decompose(psi.density())
        assert not degenerate
        assert abs(r - 1.0) < 1e-10
        assert abs(abs(overlap(direction, psi)) - 1.0) < 1e-10


class TestDensity:
    def test_from_bloch_examples(self):
        mixed = density_from_bloch(BlochVector(0, 0, 0))
        assert mixed.rho00 == 0.5 and mixed.rho11 == 0.5 and mixed.rho01 == 0

        pole = density_from_bloch(BlochVector(0, 0, 1))
        assert pole.rho00 == 1.0 and pole.rho11 == 0.0

        equatorial = density_from_bloch(BlochVector(0.6, 0, 0))
        assert equatorial.rho00 == pytest.approx(0.5, abs=1e-15)
        assert equatorial.rho11 == pytest.approx(0.5, abs=1e-15)
        assert equatorial.rho01 == pytest.approx(0.3, abs=1e-15)
        assert equatorial.rho10 == pytest.approx(0.3, abs=1e-15)

    def test_bloch_modulus_capped(self):
        with pytest.raises(ValueError, match=r"Bloch modulus 1\.2 exceeds 1"):
            BlochVector(1.2, 0.0, 0.0)
        with pytest.raises(ValueError, match=r"Bloch modulus 1\.0392304845413265 exceeds 1"):
            BlochVector(0.6, 0.6, 0.6)
        with pytest.raises(ValueError, match="Bloch components must be finite"):
            BlochVector(math.nan, 0.0, 0.0)
        # Infinite and outside the ball: finiteness is checked first.
        with pytest.raises(ValueError, match="Bloch components must be finite"):
            BlochVector(0.0, math.inf, 0.0)

    def test_validation(self):
        # The checks run in the order finite, real diagonal, Hermitian,
        # trace, positive; an input marked "also" fails a later check too,
        # which pins the order.
        for entries, message in [
            ((0.5, math.nan, 0.5, 0.5), "entries must be finite"),
            ((0.5, complex(0.0, math.inf), 0.5, 0.5), "entries must be finite"),
            ((0.5 + 1e-9j, 0, 0, 0.5 - 1e-9j), "diagonal entries must be real"),
            ((0.6, 0.1, 0.2, 0.4), "matrix is not Hermitian"),
            ((0.7, 0.0, 0.0, 0.7), "trace must equal 1"),  # trace 1.4
            ((1.2, 0.0, 0.0, -0.2), "not positive semidefinite"),  # negative population
            ((0.5, 0.6, 0.6, 0.5), "not positive semidefinite"),  # indefinite
            ((math.nan, 0.1, 0.2, 0.5), "entries must be finite"),  # also not Hermitian
            ((0.5 + 1j, 0.6, 0.6, 0.5), "diagonal entries must be real"),  # also indefinite
            ((0.5 + 1e-6j, 0.1, 0.2, 0.5), "diagonal entries must be real"),  # also not Hermitian
            ((0.7, 0.1, 0.2, 0.7), "matrix is not Hermitian"),  # also trace 1.4
            ((1.2, 0.0, 0.0, -0.3), "trace must equal 1"),  # also a negative population
        ]:
            with pytest.raises(ValueError, match=message):
                QubitDensity(*entries)

    @given(bloch_vectors())
    @settings(max_examples=200)
    def test_bloch_round_trip(self, v):
        back = bloch_from_density(density_from_bloch(v))
        assert abs(back.rx - v.rx) < 1e-12
        assert abs(back.ry - v.ry) < 1e-12
        assert abs(back.rz - v.rz) < 1e-12

    @given(densities())
    @settings(max_examples=200)
    def test_eigenvalues_in_unit_interval(self, rho):
        eigs = np.linalg.eigvalsh(matrix(rho))
        assert eigs.min() >= -1e-12
        assert eigs.max() <= 1.0 + 1e-12


#: (type, valid arguments, their repr, a valid replacement, a replacement
#: that fails validation, the message it fails with).
CONSTRUCTORS = [
    (PureQubit, (-0.4, 1.0), "PureQubit(theta=0.40000000000000036, phi=4.141592653589793)",
     {"phi": 1.0}, {"phi": math.inf},
     r"angles must be finite, got \(0\.40000000000000036, inf\)"),
    (BlochVector, (0.1, 0.2, 0.3), "BlochVector(rx=0.1, ry=0.2, rz=0.3)",
     {"rz": -0.3}, {"rx": 1.2}, r"Bloch modulus 1\.25\d* exceeds 1"),
    (QubitDensity, (0.6, 0.1 + 0.2j, 0.1 - 0.2j, 0.4),
     "QubitDensity(rho00=(0.6+0j), rho01=(0.1+0.2j), rho10=(0.1-0.2j), rho11=(0.4+0j))",
     {"rho01": 0.1 - 0.2j, "rho10": 0.1 + 0.2j}, {"rho01": 0.3}, "matrix is not Hermitian"),
]
_IDS = [row[0].__name__ for row in CONSTRUCTORS]


@pytest.mark.parametrize("cls,args,text,good,bad,message", CONSTRUCTORS, ids=_IDS)
class TestConstructorContract:
    def test_fields_are_frozen(self, cls, args, text, good, bad, message):
        obj = cls(*args)
        for f in dataclasses.fields(obj):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, f.name, 0.5)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, f.name)

    def test_eq_hash_repr(self, cls, args, text, good, bad, message):
        a, b = cls(*args), cls(*args)
        assert a == b and a is not b
        assert hash(a) == hash(b) == hash(dataclasses.astuple(a))
        assert repr(a) == text
        assert a != dataclasses.replace(a, **good)
        assert a != dataclasses.astuple(a)

    def test_replace_revalidates(self, cls, args, text, good, bad, message):
        obj = cls(*args)
        assert dataclasses.replace(obj) == obj
        changed = dataclasses.replace(obj, **good)
        assert changed == cls(**{**vars(obj), **good})
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(obj, **bad)

    @pytest.mark.skipif(not hasattr(copy, "replace"), reason="copy.replace needs Python 3.13")
    def test_copy_replace_revalidates(self, cls, args, text, good, bad, message):
        obj = cls(*args)
        assert copy.replace(obj) == obj
        assert copy.replace(obj, **good) == dataclasses.replace(obj, **good)
        with pytest.raises(ValueError, match=message):
            copy.replace(obj, **bad)

    def test_pickle_round_trip(self, cls, args, text, good, bad, message):
        obj = cls(*args)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(obj, protocol))
            assert back == obj and hash(back) == hash(obj) and repr(back) == text
            assert vars(back) == vars(obj)


class TestConstructorInputs:
    def test_density_entries_become_complex(self):
        for entries in [(1, 0, 0, 0), (1.0, 0.0, 0.0, 0.0),
                        (np.float64(1.0), np.complex128(0), np.int64(0), np.float32(0))]:
            rho = QubitDensity(*entries)
            assert [type(z) for z in dataclasses.astuple(rho)] == [complex] * 4
            assert dataclasses.astuple(rho) == (1 + 0j, 0j, 0j, 0j)

    def test_angles_are_canonical(self):
        state = pure_state(-0.4, 1.0)
        assert (state.theta, state.phi) == (0.40000000000000036, 1.0 + math.pi)
        assert pure_state(np.float64(-0.4), np.float64(1.0)) == state
        ints = pure_state(4, 7)
        assert (ints.theta, ints.phi) == (2.2831853071795862, 3.858407346410207)
        assert type(ints.theta) is float and type(ints.phi) is float
        at_pole = pure_state(np.int64(0), 2.5)
        assert (at_pole.theta, at_pole.phi) == (0.0, 0.0)

    def test_bloch_components_are_kept_as_given(self):
        v = BlochVector(0, 0, 1)
        assert (v.rx, v.ry, v.rz) == (0, 0, 1) and type(v.rz) is int
        v = BlochVector(np.float64(0.1), np.float32(0.25), np.int64(0))
        assert (v.rx, v.ry, v.rz) == (0.1, 0.25, 0)
        assert [type(x) for x in (v.rx, v.ry, v.rz)] == [np.float64, np.float32, np.int64]
        assert v.modulus == pytest.approx(math.hypot(0.1, 0.25), abs=1e-15)


class TestDecompose:
    def test_maximally_mixed_is_degenerate(self):
        r, direction, degenerate = decompose(density_from_bloch(BlochVector(0, 0, 0)))
        assert r == 0.0
        assert degenerate
        assert direction.theta == 0.0  # |0> by convention

    def test_pole(self):
        r, direction, degenerate = decompose(pure_state(0.0, 0.0).density())
        assert r == pytest.approx(1.0)
        assert not degenerate
        assert direction.theta == 0.0

    def test_depolarized_state_keeps_direction(self):
        psi = pure_state(1.1, 2.2)
        noisy = depolarizing(0.4).apply(psi.density())
        r, direction, degenerate = decompose(noisy)
        assert not degenerate
        assert r == pytest.approx(0.6, abs=1e-12)
        assert abs(abs(overlap(direction, psi)) - 1.0) < 1e-12

    @given(densities())
    @settings(max_examples=200)
    def test_reconstruction(self, rho):
        r, direction, _ = decompose(rho)
        v = amplitudes(direction)
        rebuilt = (1.0 - r) * np.eye(2) / 2.0 + r * np.outer(v, v.conj())
        assert np.max(np.abs(rebuilt - matrix(rho))) < 1e-10


class TestOverlap:
    @given(pure_states())
    def test_self_overlap(self, psi):
        assert abs(overlap(psi, psi) - 1.0) < 1e-12

    def test_orthogonal_poles(self):
        assert abs(overlap(pure_state(0, 0), pure_state(math.pi, 0))) < 1e-12

    def test_quarter_turn(self):
        value = overlap(pure_state(math.pi / 2, 0), pure_state(math.pi / 2, math.pi / 2))
        assert abs(value - (0.5 + 0.5j)) < 1e-12
        assert abs(abs(value) - 1 / math.sqrt(2)) < 1e-12

    @given(pure_states(), pure_states())
    def test_modulus_bounded(self, a, b):
        assert abs(overlap(a, b)) <= 1.0 + 1e-12
