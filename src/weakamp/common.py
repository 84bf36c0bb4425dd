"""Shared value types, tolerances, parameter validators and error classes,
plus the one contraction that reads every meter value off its branch matrices."""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Conditional readings are undefined below this postselection probability.
PROB_FLOOR = 1e-12


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


def _nan_max(a: float, b: float) -> float:
    """max(a, b), except that a NaN in either wins: ``max`` keeps its first
    argument against a NaN, so a NaN deviation would vanish from a worst
    case instead of failing its check."""
    return a if a != a or a >= b else b


def _check_coupling(g: float) -> float:
    if not (math.isfinite(g) and g >= 0.0):
        raise ValueError(f"coupling must be finite and non-negative, got {g!r}")
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
    """The position grid does not contain the meter wavefunction."""


@dataclass(frozen=True)
class GaussianMeter:
    """Minimum-uncertainty Gaussian pointer centered at q = p = 0.

    ``delta`` is the position standard deviation.  The momentum spread is
    fixed by the uncertainty relation (hbar = 1), so dq * dp = 1/2.
    """

    delta: float

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be positive and finite, got {self.delta!r}")

    @property
    def dq(self) -> float:
        return self.delta

    @property
    def dp(self) -> float:
        return 1.0 / (2.0 * self.delta)

    def coherence_factor(self, g: float) -> float:
        """Overlap exp(-2 delta^2 g^2) between the two momentum-kicked branches."""
        return math.exp(-2.0 * (self.delta * g) ** 2)


@dataclass(frozen=True)
class ShiftResult:
    """Conditional pointer shifts plus the postselection probability."""

    dp_shift: float
    dq_shift: float
    prob: float


@dataclass(frozen=True)
class QubitMeterReading:
    """Expectation of the meter excited-state projector, with postselection probability."""

    reading: float
    prob: float


@dataclass(frozen=True)
class MaxResult:
    """A maximal |shift| or reading and preselection/postselection angles for it.

    ``theta1``/``phi0`` describe the preselection direction, ``theta2`` the
    postselection state (its azimuth is absorbed into the relative phase
    ``phi0``).  The closed-form maxima attain ``value`` at these angles.
    ``amplitude_damping_max`` returns a supremum that is not attained for
    0 < gamma < 1: its angles are a point on a path that approaches it,
    within a small relative gap.
    """

    value: float
    theta1: float
    theta2: float
    phi0: float
