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
    GaussianMeter,
    KrausChannel,
    MaxResult,
    PureQubit,
    QubitDensity,
    QubitMeterReading,
    ShiftResult,
    bloch_from_density,
    density_from_bloch,
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
        assert abs(np.vdot(amplitudes(pure_state(math.pi / 2, 0.0)), amplitudes(state))) < 1e-12

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
        assert abs(abs(np.vdot(amplitudes(a), amplitudes(b))) - 1.0) < 1e-12
        # theta beyond pi folds back
        c, d = pure_state(math.pi + 0.3, 0.5), pure_state(math.pi - 0.3, 0.5 + math.pi)
        assert 0.0 <= c.theta <= math.pi
        assert abs(abs(np.vdot(amplitudes(c), amplitudes(d))) - 1) < 1e-12

    @given(pure_states())
    def test_normalized(self, psi):
        assert abs(abs(psi.alpha) ** 2 + abs(psi.beta) ** 2 - 1.0) < 1e-12

    @given(pure_states())
    def test_pure_density_has_unit_modulus(self, psi):
        v, w = bloch_from_density(psi.density()), psi.bloch()
        assert abs(v.modulus - 1.0) < 1e-10
        assert (v.rx, v.ry, v.rz) == pytest.approx((w.rx, w.ry, w.rz), abs=1e-10)


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
    (GaussianMeter, (0.3,), "GaussianMeter(delta=0.3)", {"delta": 2.0}, {"delta": -1.0},
     r"delta must be positive and finite, got -1\.0"),
]
#: Each validating type's replacement that fails validation, and its message.
INVALID = {row[0]: row[4:] for row in CONSTRUCTORS}

#: (type, valid arguments, their repr, a replacement) for the value types
#: that store their fields as given.  KrausChannel compares by identity.
VALUES = [
    (ShiftResult, (0.1, -0.2, 0.3), "ShiftResult(dp_shift=0.1, dq_shift=-0.2, prob=0.3)",
     {"prob": 0.5}),
    (QubitMeterReading, (0.25, 0.5), "QubitMeterReading(reading=0.25, prob=0.5)",
     {"reading": 0.75}),
    (MaxResult, (2.0, 0.5, 1.0, 3.0), "MaxResult(value=2.0, theta1=0.5, theta2=1.0, phi0=3.0)",
     {"theta2": 0.25}),
    (KrausChannel, ("phase_damping", 0.25, ((1.0, 0.0), (0.0, 1.0)), 0.75),
     "KrausChannel(name='phase_damping', gamma=0.25, transfer=((1.0, 0.0), (0.0, 1.0)), "
     "coherence=0.75)", {"coherence": 0.5}),
]


def _over_rows(table):
    """Parametrize a contract class over ``table``'s (type, args, repr,
    replacement), one case a type."""
    return pytest.mark.parametrize("cls,args,text,good", [row[:4] for row in table],
                                   ids=[row[0].__name__ for row in table])


class _ValueTypeContract:
    """What every value type keeps, whether it validates its fields or not:
    frozen fields, keyword and positional calls that agree, and a generated
    __init__'s arity.  Each subclass runs it over its own table's rows."""

    def test_fields_are_frozen(self, cls, args, text, good):
        obj = cls(*args)
        for f in dataclasses.fields(obj):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, f.name, 0.5)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, f.name)

    def test_keyword_and_positional_agree(self, cls, args, text, good):
        names = [f.name for f in dataclasses.fields(cls)]
        assert vars(cls(**dict(zip(names, args)))) == vars(cls(*args))

    def test_missing_or_extra_argument_is_a_type_error(self, cls, args, text, good):
        # As a generated __init__ does: a missing, extra or unknown argument.
        for call in (lambda: cls(*args[:-1]), lambda: cls(*args, args[-1]),
                     lambda: cls(*args, extra=args[-1])):
            with pytest.raises(TypeError):
                call()


@_over_rows(CONSTRUCTORS)
class TestConstructorContract(_ValueTypeContract):
    def test_eq_hash_repr(self, cls, args, text, good):
        a, b = cls(*args), cls(*args)
        assert a == b and a is not b
        assert hash(a) == hash(b) == hash(dataclasses.astuple(a))
        assert repr(a) == text
        assert a != dataclasses.replace(a, **good)
        assert a != dataclasses.astuple(a)

    def test_replace_revalidates(self, cls, args, text, good):
        obj = cls(*args)
        assert dataclasses.replace(obj) == obj
        changed = dataclasses.replace(obj, **good)
        assert changed == cls(**{**vars(obj), **good})
        bad, message = INVALID[cls]
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(obj, **bad)

    @pytest.mark.skipif(not hasattr(copy, "replace"), reason="copy.replace needs Python 3.13")
    def test_copy_replace_revalidates(self, cls, args, text, good):
        obj = cls(*args)
        assert copy.replace(obj) == obj
        assert copy.replace(obj, **good) == dataclasses.replace(obj, **good)
        bad, message = INVALID[cls]
        with pytest.raises(ValueError, match=message):
            copy.replace(obj, **bad)

    def test_pickle_round_trip(self, cls, args, text, good):
        obj = cls(*args)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(obj, protocol))
            assert back == obj and hash(back) == hash(obj) and repr(back) == text
            assert vars(back) == vars(obj)


@_over_rows(VALUES)
class TestValueContract(_ValueTypeContract):
    def test_eq_hash_repr(self, cls, args, text, good):
        a, b = cls(*args), cls(*args)
        assert repr(a) == repr(b) == text
        if cls.__dataclass_params__.eq:
            assert a == b and a is not b
            assert hash(a) == hash(b) == hash(dataclasses.astuple(a))
            assert a != dataclasses.replace(a, **good)
        else:
            assert a == a and a != b and hash(a) == object.__hash__(a)
        assert a != dataclasses.astuple(a)

    def test_replace_keeps_the_other_fields(self, cls, args, text, good):
        obj = cls(*args)
        assert vars(dataclasses.replace(obj)) == vars(obj)
        assert vars(dataclasses.replace(obj, **good)) == {**vars(obj), **good}

    @pytest.mark.skipif(not hasattr(copy, "replace"), reason="copy.replace needs Python 3.13")
    def test_copy_replace_keeps_the_other_fields(self, cls, args, text, good):
        obj = cls(*args)
        assert vars(copy.replace(obj)) == vars(obj)
        assert vars(copy.replace(obj, **good)) == {**vars(obj), **good}

    def test_pickle_round_trip(self, cls, args, text, good):
        obj = cls(*args)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(obj, protocol))
            assert repr(back) == text and vars(back) == vars(obj)
            assert (back == obj) is cls.__dataclass_params__.eq


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

    @pytest.mark.parametrize("theta,phi,delta", [
        (np.float32(-0.4), np.float32(1.0), np.float32(0.3)),
        (np.float64(-0.4), np.float64(1.0), np.float64(0.3)),
        (np.int64(-4), 7, 3),
    ], ids=["float32", "float64", "int"])
    def test_angles_and_width_become_python_floats(self, theta, phi, delta):
        state = pure_state(theta, phi)
        assert state == pure_state(float(theta), float(phi))
        assert type(state.theta) is float and type(state.phi) is float
        meter = GaussianMeter(delta)
        assert meter == GaussianMeter(float(delta)) and type(meter.delta) is float

    def test_int_width_is_stored_as_a_float(self):
        assert repr(GaussianMeter(1)) == "GaussianMeter(delta=1.0)"

    def test_strings_are_not_parsed(self):
        for build in (lambda: pure_state("0.4", 1.0), lambda: pure_state(0.4, "1.0"),
                      lambda: GaussianMeter("0.3")):
            with pytest.raises(TypeError):
                build()

    def test_bloch_components_are_kept_as_given(self):
        v = BlochVector(0, 0, 1)
        assert (v.rx, v.ry, v.rz) == (0, 0, 1) and type(v.rz) is int
        v = BlochVector(np.float64(0.1), np.float32(0.25), np.int64(0))
        assert (v.rx, v.ry, v.rz) == (0.1, 0.25, 0)
        assert [type(x) for x in (v.rx, v.ry, v.rz)] == [np.float64, np.float32, np.int64]
        assert v.modulus == pytest.approx(math.hypot(0.1, 0.25), abs=1e-15)
