"""Shared value types, tolerances, parameter validators and error classes,
plus the one contraction that reads every meter value off its branch matrices
and the branch-pair weights that both meters' read-outs contract."""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

#: Conditional readings are undefined below this postselection probability.
PROB_FLOOR = 1e-12

#: Stores a field of a frozen value type once, from its ``__init__``.  Unlike
#: a write to ``self.__dict__``, it keeps CPython's compact per-instance
#: attribute storage: a materialized ``__dict__`` adds about 64 bytes per
#: object and, on Python 3.11, about doubles the cost of a field read.
_store = object.__setattr__


def _contract(k, c00, c11, c10_re, c10_im):
    """Tr(Pi_f (rho o K)) for the branch matrix K = (scale, k00, k11, Re k10,
    Im k10), meaning scale [[k00, conj k10], [k10, k11]], the postselection
    Pi_f = |psi_f><psi_f| and the entrywise product o.

    The trace is sum_jl c[j, l] K[j, l] over the branch-pair weights c[j, l]
    = rho[j, l] conj(psi_j) psi_l: c00 = rho00 |alpha2|^2, c11 = rho11
    |beta2|^2 and c10 = rho10 w with w = alpha2 conj(beta2).  A meter is two
    such matrices, N, the overlaps of its two branches, and M, its read-out
    between them; its value is the contraction with M over the one with N.
    The scale stays outside the unit-shape entries, so each contraction
    rounds like the meter's own formula.
    """
    scale, k00, k11, k10_re, k10_im = k
    return scale * (c00 * k00 + c11 * k11 + 2.0 * (c10_re * k10_re - c10_im * k10_im))


def _postselection_weights(rho_s, psi_f, n):
    """The branch-pair weights (c00, c11, Re c10, Im c10) of ``_contract`` at
    preselection ``rho_s`` and postselection ``psi_f``, and the postselection
    probability, their contraction with the overlaps ``n``, as one 5-tuple.

    Raises VanishingPostselectionError at or below PROB_FLOOR.
    """
    half = 0.5 * psi_f.theta
    alpha = complex(math.cos(half))
    beta = cmath.exp(1j * psi_f.phi) * math.sin(half)
    u2 = abs(alpha) ** 2
    c00, c11 = rho_s.rho00.real * u2, rho_s.rho11.real * (1.0 - u2)
    c10 = rho_s.rho10 * (alpha * beta.conjugate())
    c10_re, c10_im = c10.real, c10.imag
    prob = _contract(n, c00, c11, c10_re, c10_im)
    if prob <= PROB_FLOOR:
        raise VanishingPostselectionError(prob)
    return c00, c11, c10_re, c10_im, prob


def _nan_max(a: float, b: float) -> float:
    """max(a, b), except that a NaN in either wins: ``max`` keeps its first
    argument against a NaN, so a NaN deviation would vanish from a worst
    case instead of failing its check."""
    return a if a != a or a >= b else b


def _check_coupling(g: float, name: str = "coupling") -> float:
    if not (math.isfinite(g) and g >= 0.0):
        raise ValueError(f"{name} must be finite and non-negative, got {g!r}")
    return float(g)


def _check_unit_interval(name: str, value: float) -> float:
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


class VanishingPostselectionError(ValueError):
    """Postselection probability too small for a conditional reading."""

    def __init__(self, prob: float):
        super().__init__(
            f"postselection probability {prob:.3e} is below the usable floor"
        )
        self.prob = prob


class SingularLimitError(ValueError):
    """The closed-form maximum diverges at this parameter combination."""


class GridTooSmallError(ValueError):
    """The position grid does not contain the meter wavefunction, or cannot
    at this pointer width without overflow."""


@dataclass(frozen=True, init=False)
class GaussianMeter:
    """Minimum-uncertainty Gaussian pointer centered at q = p = 0.

    ``delta`` is the position standard deviation.  The momentum spread is
    fixed by the uncertainty relation (hbar = 1), so dq * dp = 1/2.  The
    closed forms and the grid square delta, so delta^2 must be a normal
    float: about 1.5e-154 <= delta <= 1.3e154.  Construction validates
    delta, converts it to a Python float and stores it once.
    """

    delta: float

    def __init__(self, delta: float):
        if not (math.isfinite(delta) and delta > 0):
            raise ValueError(f"delta must be positive and finite, got {delta!r}")
        width = float(delta)
        if not sys.float_info.min <= width * width <= sys.float_info.max:
            raise ValueError(f"delta^2 must be a normal float (delta about 1.5e-154 to "
                             f"1.3e154), got delta = {delta!r}")
        _store(self, "delta", width)

    @property
    def dq(self) -> float:
        return self.delta

    @property
    def dp(self) -> float:
        return 1.0 / (2.0 * self.delta)

    def coherence_factor(self, g: float) -> float:
        """Overlap exp(-2 delta^2 g^2) between the two momentum-kicked branches.

        It is 1 at g = 0 and exactly 0.0 from delta g of about 19.3 on, where
        the exponential underflows, up to the largest float g, also past
        delta g of about 1.34e154, where (delta g)^2 leaves the float range.
        """
        try:
            return math.exp(-2.0 * (self.delta * g) ** 2)
        except OverflowError:  # (delta g)^2 is past the float range
            return 0.0


@dataclass(frozen=True, init=False)
class ShiftResult:
    """Conditional pointer shifts plus the postselection probability, each
    stored once."""

    dp_shift: float
    dq_shift: float
    prob: float

    def __init__(self, dp_shift: float, dq_shift: float, prob: float):
        _store(self, "dp_shift", dp_shift)
        _store(self, "dq_shift", dq_shift)
        _store(self, "prob", prob)


@dataclass(frozen=True, init=False)
class QubitMeterReading:
    """Expectation of the meter excited-state projector, with postselection
    probability, each stored once."""

    reading: float
    prob: float

    def __init__(self, reading: float, prob: float):
        _store(self, "reading", reading)
        _store(self, "prob", prob)


@dataclass(frozen=True, init=False)
class MaxResult:
    """A maximal |shift| or reading and preselection/postselection angles for it.

    ``theta1``/``phi0`` describe the preselection direction, ``theta2`` the
    postselection state (its azimuth is absorbed into the relative phase
    ``phi0``).  The closed-form maxima attain ``value`` at these angles.
    ``amplitude_damping_max`` returns a supremum that is not attained for
    0 < gamma < 1: its angles are a point on a path that approaches it,
    within a small relative gap.  Each field is stored once.
    """

    value: float
    theta1: float
    theta2: float
    phi0: float

    def __init__(self, value: float, theta1: float, theta2: float, phi0: float):
        _store(self, "value", value)
        _store(self, "theta1", theta1)
        _store(self, "theta2", theta2)
        _store(self, "phi0", phi0)
