"""Closed-form maxima beyond the single-meter formulas.

The amplitude-damping suprema (``amplitude_damping_max``), with the path
that approaches them (``_approach_point``), and the exact best
postselection at one fixed preselection: the root of largest modulus of the
2x2 pencil det(A - lambda B) = 0 of a meter's read-out and overlap forms,
and its eigenvector (``_solve_pencils``).  The pencil takes the meter's
branch matrices flattened once (``_pencil_branches``) and reads its
eigenvector out as angles (``_pencil_angles``); the optimizer's theta1
search (``optimize._Objective``) scores and reads its preselections with it.

The amplitude-damping suprema are approached as theta1 runs into the pole
0, so the optimizer's searches for them end at the edge of its u1 box, a
relative gap of order exp(-2 ``optimize._U_MAX``) below the supremum, with
theta2 within about 1e-4 of pi.  Those searches serve the independent
numerical cross-check of these closed forms in the tests and the
acceptance gate.

This module is scalar code on Python floats, and the forms it checks
against must stay apart from it: it imports neither numpy nor ``optimize``,
``oracle`` or ``verification``.
"""

from __future__ import annotations

import math
import warnings
from typing import Literal

from .common import PROB_FLOOR, GaussianMeter, MaxResult, _check_unit_interval
from .gaussian import gaussian_max_shifts
from .qubit import TWO_PI
from .qubitmeter import qubit_max_reading


def _pencil_branches(n, m) -> tuple[float, ...]:
    """A meter's branch overlaps ``n`` and read-out ``m``, in
    ``common._contract``'s form (scale, k00, k11, Re k10, Im k10), as the
    one flat tuple the pencil takes (``_solve_pencils``).

    M then N, each off-diagonal entry doubled (exactly) as its q takes it,
    then the unit 2^e: M's scale enters the pencil divided by this power of
    two, so that squares of a tiny read-out scale (g = 1e-160) cannot
    underflow, and the score gets it back in one exact multiply.  e <= 0: a
    scale of 1 or more is kept whole (2^1024 is no float), so that its
    overflows still surface in the pencil as they do in the optimizer
    objective's value (``optimize._Objective``).
    """
    e = min(math.frexp(m[0])[1], 0)
    scaled = (math.ldexp(m[0], -e), *m[1:])
    return tuple(x for s, k00, k11, k10_re, k10_im in (scaled, n)
                 for x in (s, k00, k11, 2.0 * k10_re, 2.0 * k10_im)
                 ) + (math.ldexp(1.0, e),)


def _solve_pencils(branches, rows):
    """The best postselection at each preselection entry row (rho00, rho11,
    r) of ``rows``, r = |rho10|, in one pass: the list of their scores, and
    the last row's (lead, pivot, Re v, Im v), where the postselection
    amplitudes are x = (pivot, v) if lead, else (conj v, pivot).
    ``branches`` is a meter's flat tuple (``_pencil_branches``).

    At phi0 = 0 the value is x.A x / x.B x in the postselection amplitudes
    x = (x0, x1), with the Hermitian forms A = rho o M and B = rho o N: the
    read-out and the branch overlaps weighted entrywise by rho.  A branch
    matrix (s, k00, k11, Re k10, Im k10) gives the form's entries a00 = s
    (rho00 k00), a11 = s (rho11 k11) and q = 2 s rho10 k10, twice the lower
    off-diagonal entry; B, the probability, is positive semi-definite.
    rho10 is real at phi0 = 0.  M's scale enters divided by the power of
    two ``unit`` (``_pencil_branches``), which scales A, lambda and the rows
    below exactly and leaves x as it is; only the score is multiplied back.

    The best x is an eigenvector of the root lambda of largest modulus of
    det(A - lambda B) = det(B) lambda^2 - beta lambda + det(A) = 0, with
    beta = a00 b11 + a11 b00 - Re(q_A conj(q_B)) / 2: the null vector of
    the row of A - lambda B whose diagonal entry, the pivot, is the larger
    in modulus, or 0 where both rows vanish and every x is as good.  A
    singular B (at gamma = 1 every damped state is |0><0|) gives instead
    the column of B with the larger diagonal entry, which spans its range:
    B's null vector has probability 0, so the value is taken on the range.
    Of two rows or columns that tie (or a NaN) the first is kept.

    The score is the Rayleigh quotient x.A x / x.B x at that x, 0 where
    x's normalised probability x.B x / |x|^2 is at or below the floor, as
    the optimizer objective's value is (``optimize._Objective``).  It is
    taken at x / pivot, (1, z) or (conj z, 1) with z = v / pivot and |z|
    about 1 or less, so no square of x can overflow or underflow.  Unlike
    lambda itself, it is second-order in x's rounding: at a double root (A
    proportional to B) the quadratic gives lambda to only about sqrt(eps).
    It is NaN where x is degenerate: a singular B (det B <= 0), or a zero
    pivot, where both rows of A - lambda B vanish but for rounding.
    """
    ms, m00, m11, m10_re, m10_im, ns, n00, n11, n10_re, n10_im, unit = branches
    scores = []
    append, nan, floor = scores.append, math.nan, PROB_FLOOR
    sqrt, copysign = math.sqrt, math.copysign
    for rho00, rho11, rho10 in rows:
        a00, a11 = ms * (rho00 * m00), ms * (rho11 * m11)
        qa_re, qa_im = ms * (m10_re * rho10), ms * (m10_im * rho10)
        b00, b11 = ns * (rho00 * n00), ns * (rho11 * n11)
        qb_re, qb_im = ns * (n10_re * rho10), ns * (n10_im * rho10)
        det_b = b00 * b11 - 0.25 * (qb_re * qb_re + qb_im * qb_im)
        if det_b <= 0.0:
            # The columns (b00, q_B / 2) and (conj q_B / 2, b11).
            lead = not abs(b11) > abs(b00)
            pivot, v_re, v_im = b00 if lead else b11, 0.5 * qb_re, 0.5 * qb_im
            append(nan)
            continue
        beta = a00 * b11 + a11 * b00 - 0.5 * (qa_re * qb_re + qa_im * qb_im)
        det_a = a00 * a11 - 0.25 * (qa_re * qa_re + qa_im * qa_im)
        root = sqrt(max(beta * beta - 4.0 * det_b * det_a, 0.0))
        lam = (beta + copysign(root, beta)) / (det_b + det_b)
        r00, r11 = a00 - lam * b00, a11 - lam * b11
        r10_re, r10_im = 0.5 * (qa_re - lam * qb_re), 0.5 * (qa_im - lam * qb_im)
        # The null vectors (conj r10, -r00) and (r11, -r10) of the two rows.
        lead = abs(r11) > abs(r00)
        if lead:
            pivot, v_re, v_im = r11, -r10_re, -r10_im
        else:
            pivot, v_re, v_im = -r00, r10_re, r10_im
        if pivot == 0.0:
            append(nan)
            continue
        z_re, z_im = v_re / pivot, v_im / pivot
        zz = z_re * z_re + z_im * z_im
        # |x0|^2 and |x1|^2 over pivot^2; x0 conj(x1) over pivot^2 is conj(z).
        e0, e1 = (1.0, zz) if lead else (zz, 1.0)
        prob = b00 * e0 + b11 * e1 + (qb_re * z_re + qb_im * z_im)
        if prob / (1.0 + zz) <= floor:
            append(0.0)
            continue
        value = a00 * e0 + a11 * e1 + (qa_re * z_re + qa_im * z_im)
        append(value / prob * unit)
    return scores, (lead, pivot, v_re, v_im)


def _pencil_angles(lead: bool, pivot: float, v_re: float, v_im: float) -> tuple[float, float]:
    """(theta2, phi0) of the postselection x of ``_solve_pencils``' read-out
    (lead, pivot, Re v, Im v): theta2 = 2 atan2(|x1|, |x0|) (0 for x = 0),
    and the phase of x0 conj(x1) = pivot conj(v), mod 2 pi, is the relative
    phase phi0."""
    near, far = abs(pivot), math.hypot(v_re, v_im)
    t2 = 2.0 * (math.atan2(far, near) if lead else math.atan2(near, far))
    sign = math.copysign(1.0, pivot)
    return t2, math.atan2(-sign * v_im, sign * v_re) % TWO_PI


def _check_target(meter: GaussianMeter | Literal["qubit"],
                  which: Literal["dp", "dq", "reading"]) -> None:
    """Reject an unknown ``which`` target, then one that ``meter`` does not
    read out."""
    if which not in ("dp", "dq", "reading"):
        raise ValueError(f"which must be 'dp', 'dq' or 'reading', got {which!r}")
    if which == "reading":
        if meter != "qubit":
            raise ValueError("'reading' requires the qubit meter")
    elif not isinstance(meter, GaussianMeter):
        raise ValueError(f"'{which}' requires a GaussianMeter")


#: Half-angle theta1 / 2 of the point ``amplitude_damping_max`` returns: the
#: relative gap grows as gamma eps^2 and the postselection probability
#: shrinks as (1 - gamma) eps^2, so eps trades closeness against the floor.
_APPROACH_HALF_ANGLE = 1e-3


def _approach_point(gamma: float, closed: MaxResult,
                    eps: float = _APPROACH_HALF_ANGLE) -> tuple[float, float, float]:
    """(theta1, theta2, phi0) at half-angle ``eps`` on the path to the noiseless
    maximum ``closed`` under amplitude damping at ``gamma`` < 1.

    Amplitude damping maps pure_state(2 eps, phi0) to a nearly pure state
    whose populations have ratio rho11 / rho00 = tan(a)^2; the postselection
    angle puts tan(a) tan(theta2 / 2) on the noiseless optimum's
    x* = tan(theta1* / 2) tan(theta2* / 2).
    """
    x = math.tan(0.5 * closed.theta1) * math.tan(0.5 * closed.theta2)
    s, c = math.sin(eps), math.cos(eps)
    tan_a = math.sqrt(1.0 - gamma) * s / math.sqrt(c * c + gamma * s * s)
    return 2.0 * eps, 2.0 * math.atan2(x, tan_a), closed.phi0


def amplitude_damping_max(meter: GaussianMeter | Literal["qubit"], gamma: float,
                          g: float, which: Literal["dp", "dq", "reading"]) -> MaxResult:
    """Supremum of |dp'|, |dq'| or the qubit reading over amplitude-damped
    pure preselections and pure postselections, in closed form.

    For gamma < 1 it is the noiseless maximum, ``gaussian_max_shifts(1, g,
    meter)`` or ``qubit_max_reading(1, g)``: the amplification is immune to
    amplitude damping.  This is the mathematical supremum, not attained for
    0 < gamma < 1; the returned angles lie on an explicit path that
    approaches it (``_approach_point``), with a relative gap of at most
    about 5e-5 gamma at the figures' coupling.  For gamma within about 5e-5
    of 1 that point's postselection probability falls below ``PROB_FLOOR``.
    At gamma = 1 every state decays to |0>, which has no coherence, so the
    values are the kappa = 0 closed forms (g, 0 and sin^2(g)), attained at
    theta1 = theta2 = phi0 = 0; this degenerate case warns.

    Proof.  Upper bound: every qubit state is kappa |psi><psi| + (1 - kappa)
    I / 2 with Bloch length kappa <= 1, so no damped state beats the
    modulus-kappa maximum, and each of those closed forms increases with
    kappa (for the reading, d/dkappa = 2 sin^2 g cos^2 g / den^2 >= 0).
    Lower bound: for pure states each meter value depends on (theta1,
    theta2) only through x = tan(theta1 / 2) tan(theta2 / 2), so the
    noiseless maximum holds on the whole curve x = x*, phi0 = phi0*, which
    runs into the corner (0, pi).  Damping pure_state(2 eps, phi0) gives
    populations with rho11 / rho00 = tan(a)^2 and a coherence |rho10| =
    lambda sqrt(rho00 rho11), lambda = cos(eps) / sqrt(cos^2 eps + gamma
    sin^2 eps).  Postselecting at tan(theta2 / 2) = x* / tan(a) gives the
    noiseless formula at (x*, phi0*) with every coherence term scaled by
    lambda = 1 - gamma eps^2 / 2 + O(eps^4): the gap is O(eps^2).
    """
    gamma = _check_unit_interval("gamma", gamma)
    _check_target(meter, which)
    if gamma == 1.0:
        warnings.warn("amplitude damping at gamma = 1 maps every state to |0>; "
                      "the amplification maxima collapse", stacklevel=2)
    kappa = 0.0 if gamma == 1.0 else 1.0
    if which == "reading":
        closed = qubit_max_reading(kappa, g)
    else:
        closed = gaussian_max_shifts(kappa, g, meter)[("dp", "dq").index(which)]
    point = (0.0, 0.0, 0.0) if gamma == 1.0 else _approach_point(gamma, closed)
    return MaxResult(closed.value, *point)
