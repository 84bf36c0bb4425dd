"""Deterministic global maximization over preselection/postselection angles.

The search domain is (theta1, theta2, phi0) in [0, pi]^2 x [0, 2 pi): the two
polar angles plus the single relative phase the conditional shifts depend on.
``maximize`` maximizes |objective| and is derivative-free and deterministic:
identical inputs give identical outputs.  Its line searches scan a segment,
then refine its first largest point by Brent's method until further probes
cannot resolve the peak or the bracket is ``_LINE_WIDTH`` wide, and they
move polar angles in u = log tan(theta / 2) on the box |u| <= ``_U_MAX``,
so theta = 2 atan(exp(u)) approaches the poles without reaching them.

An ``_Objective``, the kind every objective builder here and the grid
oracle's ``verification._oracle_shift_objective`` return, is searched over
theta1 alone.  It holds a meter's two branch matrices, the overlaps N and a
read-out M, so at a fixed preselection rho its value is a ratio x.A x / x.B x
of the Hermitian 2x2 forms A = rho o M and B = rho o N (o the entrywise
product) in the postselection amplitudes x, B being the probability.  The
largest |value| at that preselection is the generalized eigenvalue of
largest modulus, det(A - lambda B) = 0, reached at its eigenvector; the
eigenvector gives theta2 exactly, and its phase folds into phi0.
``_Objective._pencils`` reads the two forms and solves the pencil at each
theta1 it is given.  One line search over u1 then finds the best
preselection: its scan is the same for every such search (``_u1_scan``) and
is scored in one pass (``_Objective.scan``), and its probes
(``_Objective.scored``) compare the Rayleigh quotient x.A x / x.B x
at the eigenvector, which is the value but for rounding, and the angles and
the value itself (``_Objective.postselected``) are read once, at the final
u1.  The amplitude-damping suprema (``amplitude_damping_max``) are
approached as theta1 runs into the pole 0, so those searches end at the
edge of the u1 box, a relative gap of order exp(-2 _U_MAX) below the
supremum, with theta2 within about 1e-4 of pi.  Those suprema are known in
closed form, so such searches serve the independent numerical cross-check
in the tests and the acceptance gate.

Any other callable is probed point by point: a coarse grid of grid_n^3
points picks a start, then cyclic line searches along the coordinates and
the polar diagonals refine it.  In u the damped objectives' supremum lies
along the straight valley u1 + u2 = log x* into a domain corner where the
objective is discontinuous, which the (1, -1) diagonal follows to the box
edge.

Objective builders for the standard preselection families live here too.
Every family is a channel applied to pure_state(theta1, phi0), and one
builder, ``_pure_entries``, turns any channel's entry map into the density
entries: the modulus-kappa family is depolarizing at strength 1 - kappa, the
damped family is amplitude damping.  An ``_Objective`` joins such a family to
a meter's branch matrices, ``gaussian._branches`` or ``qubitmeter._branches``,
and reads them through ``common._contract``, the one copy of the meter
formula.  Calling it probes one point on Python floats with ``math``
trigonometry.

Probes where the postselection probability falls below the usable floor
evaluate to 0, letting the search traverse near-orthogonal regions where
the conditional shift is only defined in the limit.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Callable, Literal

from .channels import KrausChannel, amplitude_damping, depolarizing
from . import gaussian, qubitmeter
from .common import (PROB_FLOOR, GaussianMeter, MaxResult, _check_coupling,
                     _check_unit_interval, _contract)
from .gaussian import gaussian_max_shifts
from .qubit import TWO_PI
from .qubitmeter import qubit_max_reading

Objective = Callable[[float, float, float], float]

#: Golden-section fraction of Brent's fallback step, (3 - sqrt(5)) / 2.
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0
#: Bracket width at which a line search stops, if the flat stop
#: (``_FLAT_ULPS``) has not stopped it first.
_LINE_WIDTH = 1e-11
#: Brent's smallest step: the search stops once the best point lies within
#: two of these of both bracket ends, so the bracket is at most _LINE_WIDTH.
_STEP_TOL = _LINE_WIDTH / 4.0
#: Brent's method also stops once x, w and v are distinct and fw and fv lie
#: within this many ulp of fx: the parabola through them is then fitted to
#: the objective's rounding, and further probes cannot resolve the peak.
_FLAT_ULPS = 4.0
#: Half-width of the search box in u = log tan(theta / 2).  Its edge keeps
#: each polar angle it bounds about 2 exp(-_U_MAX) = 9e-5 from its pole,
#: which leaves a relative gap of order exp(-2 _U_MAX) on a supremum
#: approached along a pole: at most 9.3e-8 on the damped families at gamma
#: <= 0.9.  A larger box moves the damped dq suprema's postselection
#: probability toward the floor.
_U_MAX = 10.0
#: The refinement of a plain callable stops after a cycle that raises the
#: best |value| by less than this, or after _MAX_CYCLES cycles.
_CYCLE_GAIN = 1e-12
_MAX_CYCLES = 200


class OptimizationError(RuntimeError):
    """Objective returned a non-finite value; the probe point is attached."""

    def __init__(self, point: "PPSPoint", value: float):
        super().__init__(f"objective returned {value!r} at {point}")
        self.point = point
        self.value = value


@dataclass(frozen=True)
class PPSPoint:
    """A preselection/postselection configuration (theta1, theta2, phi0)."""

    theta1: float
    theta2: float
    phi0: float


@dataclass(frozen=True)
class OptimizationResult:
    """Best signed value and where it was found.

    ``evaluations`` counts the probes the search made, and splits into the
    probes that locate the start and those that refine it (``grid_probes +
    refine_probes``).  For an ``_Objective`` a probe is one preselection
    theta1 scored at its exact best postselection by the Rayleigh quotient:
    ``grid_probes`` is the grid_n points of the theta1 scan and
    ``refine_probes`` the Brent steps after it.  ``value`` and ``argmax``
    are read once, at the final theta1, and that read-out is not counted.
    For any other callable a probe is one objective value:
    ``grid_probes`` is the grid_n^3 points of the coarse grid and
    ``refine_probes`` the probes of the cyclic refinement.
    """

    value: float
    argmax: PPSPoint
    evaluations: int
    converged: bool
    grid_probes: int
    refine_probes: int


_Point = tuple[float, float, float]


def _theta(u: float) -> float:
    """The polar angle at u = log tan(theta / 2)."""
    return 2.0 * math.atan(math.exp(u))


def _preselection(u1: float) -> _Point:
    """(theta1, cos(theta1 / 2), sin(theta1 / 2)) at u1 = log tan(theta1 / 2)."""
    t1 = _theta(u1)
    return t1, math.cos(0.5 * t1), math.sin(0.5 * t1)


def _u(theta: float) -> float:
    """u = log tan(theta / 2) of a polar angle, clamped into the box."""
    if theta <= 0.0:
        return -_U_MAX
    return min(_U_MAX, max(-_U_MAX, math.log(math.tan(0.5 * theta))))


def _angles(point: _Point) -> _Point:
    """(theta1, theta2, phi0) of a refinement point (u1, u2, phi0)."""
    return _theta(point[0]), _theta(point[1]), point[2]


def _checked(angles: _Point, v: float) -> float:
    """|v| of the probe (angles, v); a non-finite v raises OptimizationError
    at ``angles``."""
    if not math.isfinite(v):
        raise OptimizationError(PPSPoint(*angles), v)
    return abs(v)


def _along(origin: _Point, direction: _Point, t: float) -> _Point:
    return (origin[0] + t * direction[0],
            origin[1] + t * direction[1],
            origin[2] + t * direction[2])


def _loop_bind(objective: Objective, origin: _Point, direction: _Point):
    """Any callable objective on the u-line origin + t direction, as the
    scalar probe t -> (angles, value)."""
    def probe(t: float):
        point = _angles(_along(origin, direction, t))
        return point, objective(*point)
    return probe


#: Line-search directions per refinement cycle, in (u1, u2, phi0): the three
#: coordinates plus the (u1, u2) diagonals.  (1, -1) runs along the damped
#: valleys u1 + u2 = const; (1, 1) shortens the searches on the kappa family.
_DIRECTIONS = (
    (1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (0.0, 0.0, 1.0),
    (math.sqrt(0.5), -math.sqrt(0.5), 0.0),
    (math.sqrt(0.5), math.sqrt(0.5), 0.0),
)


def _segment(origin: _Point, direction: _Point, n: int) -> tuple[float, float, float]:
    """(t_lo, t_hi, step): the t range of the u-line origin + t direction
    inside the box, and the spacing of its n-point scan."""
    t_lo, t_hi = -math.inf, math.inf
    for i in (0, 1):
        d = direction[i]
        if d == 0.0:
            continue
        lo, hi = (-_U_MAX - origin[i]) / d, (_U_MAX - origin[i]) / d
        if lo > hi:
            lo, hi = hi, lo
        t_lo, t_hi = max(t_lo, lo), min(t_hi, hi)
    if math.isinf(t_lo):
        # Pure phase direction: one full period around the current point.
        half = math.pi / abs(direction[2])
        t_lo, t_hi = -half, half
    return t_lo, t_hi, (t_hi - t_lo) / (n - 1)


def _line_search(probe, origin: _Point, direction: _Point,
                 n: int) -> tuple[_Point, float, tuple[_Point | None, float], int]:
    """Scan the segment of the u-line through ``origin`` inside the box, then
    refine its first largest point by Brent's method (``_brent``).

    ``probe`` maps t to the (angles, signed value) of the line's point
    origin + t direction.  The scan maps it over n evenly spaced points, and
    a non-finite value raises OptimizationError at the first such point,
    after the scan (``_checked``).

    Returns x in u, its |value|, its probe's (angles, signed value) and the
    number of probes the line made.
    """
    segment = _segment(origin, direction, n)
    t_lo, _, step = segment
    ts = [t_lo + i * step for i in range(n)]
    scan = [probe(t) for t in ts]
    magnitudes = [_checked(*found) for found in scan]
    x, fx, best, probes = _brent(probe, segment, ts, magnitudes, scan)
    return _along(origin, direction, x), fx, best, probes


def _brent(probe, segment: tuple[float, float, float], ts, magnitudes: list[float],
           scan) -> tuple[float, float, tuple[_Point | None, float] | None, int]:
    """Refine the first largest of a line's scan by Brent's method.

    ``magnitudes`` are the |values| of the scan at ``ts``, the n points of
    ``segment`` (``_segment``), and ``scan`` holds their probes' results, or
    is None where only the magnitudes were scored.  ``probe`` maps t to an
    (angles, signed value); a probe whose values are always finite may give
    None for the angles (``_Objective.scored``).  Brent's method (Brent
    1973, ch. 5) keeps the best point x, the second best w and the previous
    w as v; it steps to the vertex of the parabola through them when that
    vertex lies inside the bracket and the step is less than half the one
    before last, and takes a golden-section step into the larger part of the
    bracket otherwise.  The bracket is the scan step on either side of x;
    the scan's neighbours of x are the first w and v, so the first parabola
    costs no probe.  A scan maximum at a segment end has no neighbour beyond
    it and starts with a golden-section step.  A non-finite value raises
    OptimizationError at its own point (``_checked``).  x moves only to a
    strictly larger |value|, so it is the first largest of the line's
    probes.

    The method stops at the objective's resolution (Brent 1973, ch. 5):
    once x, w and v are distinct points whose |values| fw and fv lie within
    ``_FLAT_ULPS`` ulp of fx, the parabola through them is fitted to
    rounding, and more probes would only shrink the bracket among values
    equal but for it.  Otherwise it stops once x lies within two
    ``_STEP_TOL`` of both bracket ends, a bracket at most ``_LINE_WIDTH``
    wide.

    Returns x, its |value|, its probe's (angles, signed value) (None for a
    scan point of a None ``scan``) and the number of probes the line made,
    the scan's included.
    """
    t_lo, t_hi, step = segment
    n = len(ts)
    i = magnitudes.index(max(magnitudes))
    x, fx = ts[i], magnitudes[i]
    best = None if scan is None else scan[i]
    a, b = max(t_lo, x - step), min(t_hi, x + step)
    if 0 < i < n - 1:
        (fw, w), (fv, v) = sorted([(magnitudes[i - 1], ts[i - 1]),
                                   (magnitudes[i + 1], ts[i + 1])], reverse=True)
        # As if the last two steps had spanned the bracket: the first
        # parabolic step is held only to the bracket.
        d = e = b - a
    else:
        w, fw, v, fv, d, e = x, fx, x, fx, 0.0, 0.0

    probes = n
    copysign, step_tol, cgold, checked = math.copysign, _STEP_TOL, _CGOLD, _checked
    two_tol = 2.0 * step_tol
    ulp, flat_ulps = math.ulp, _FLAT_ULPS
    flat = flat_ulps * ulp(fx)
    while (x - a > two_tol or b - x > two_tol) and not (
            fx - fv <= flat and fx - fw <= flat and x != w != v != x):
        xm = 0.5 * (a + b)
        golden = True
        if abs(e) > step_tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # The parabola's vertex is x + p / q; q = 0 has none.
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                golden = False
                if min(x + d - a, b - x - d) < two_tol:
                    d = copysign(step_tol, xm - x)
        if golden:
            e = (a if x >= xm else b) - x
            d = cgold * e
        u = x + (d if abs(d) >= step_tol else copysign(step_tol, d))
        probes += 1
        angles, value = probe(u)
        fu = checked(angles, value)
        if fu > fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
            best = angles, value
            flat = flat_ulps * ulp(fx)
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx, best, probes


#: grid_n values whose theta1 scans are kept; maximize's default is 64.
_SCAN_CACHE_SIZE = 8


@functools.lru_cache(maxsize=_SCAN_CACHE_SIZE)
def _u1_scan(n: int):
    """The n-point scan of a theta1 search, the same for every ``_Objective``:
    the u1 segment across the box (``_segment``), its points t = u1 and
    their ``_preselection`` triples, as tuples."""
    segment = _segment((0.0, 0.0, 0.0), _DIRECTIONS[0], n)
    t_lo, _, step = segment
    ts = tuple(t_lo + i * step for i in range(n))
    return segment, ts, tuple(map(_preselection, ts))


#: The axes of the coarse grid: polar angles over [0, pi], phases over [0, 2 pi).
_Grid = namedtuple("_Grid", "theta phi")


def _coarse_grid(grid_n: int) -> _Grid:
    """The polar and phase axes of the grid_n^3 coarse grid."""
    theta_step = math.pi / (grid_n - 1)
    phi_step = 2.0 * math.pi / grid_n
    # i * theta_step can round past pi at the last i; the axis ends at pi.
    theta = tuple(i * theta_step for i in range(grid_n - 1)) + (math.pi,)
    return _Grid(theta, tuple(i * phi_step for i in range(grid_n)))


def _grid_start(objective: Objective, grid_n: int) -> _Point:
    """The first coarse-grid point, in (theta1, theta2, phi0) order, with the
    largest |value|; the first non-finite value raises OptimizationError at
    its point."""
    theta, phi = _coarse_grid(grid_n)
    top, start = -1.0, None
    for point in itertools.product(theta, theta, phi):
        magnitude = _checked(point, objective(*point))
        if magnitude > top:
            top, start = magnitude, point
    return start


def maximize(objective: Objective, grid_n: int = 64) -> OptimizationResult:
    """Maximize |objective| over the angle domain.

    An ``_Objective`` is searched over theta1 alone, each probe scoring the
    exact best postselection at its theta1 by the Rayleigh quotient there
    (``_Objective.scored``): one line search, a grid_n-point scan of u1 =
    log tan(theta1 / 2) across |u1| <= ``_U_MAX`` and then Brent's method,
    which ends once its best three probes agree to within ``_FLAT_ULPS`` ulp
    or its bracket is ``_LINE_WIDTH`` wide (``_brent``).  The scan is the
    same for every such search (``_u1_scan``) and is scored in one pass
    (``_Objective.scan``).  The angles and the value are then read once, at
    the final u1 (``_Objective.postselected``), so the value reported is the
    objective's own at the reported point.
    Such a search always converges, and theta2 may lie anywhere in [0, pi].

    Any other callable is probed point by point.  A coarse grid of grid_n^3
    samples over the angles locates the basin of the global maximum; it
    only picks the refinement start (the first grid point with the largest
    |value|, its polar angles moved into the u box), and every value
    reported comes from single probes.  Cyclic refinement (dense rescan plus
    Brent line search along each coordinate and the polar diagonals, in u =
    log tan(theta / 2) on |u| <= ``_U_MAX``) polishes it until a full cycle
    improves the best |value| by less than ``_CYCLE_GAIN``, for at most
    ``_MAX_CYCLES`` cycles.  The best point is the first probe after the
    grid with the largest |value|: each line search returns the first
    largest of its own probes, and it replaces the best only if its |value|
    is strictly larger.  The objective must accept any theta in [0, pi] and
    be 2 pi-periodic in phi0.  A non-finite value raises OptimizationError
    at the first grid point that gives one, or at its own point.

    Either search approaches the poles of the polar angles it moves in u
    but never probes them: a supremum that only such a pole approaches is
    found within a relative gap of order exp(-2 _U_MAX).

    Returns the signed objective value at the best point found.
    """
    if grid_n < 16:
        raise ValueError(f"grid_n must be at least 16, got {grid_n}")
    if isinstance(objective, _Objective):
        # The one line: u1 across the box, scored; then one read-out.
        segment, ts, points = _u1_scan(grid_n)
        u1, _, _, probes = _brent(objective.scored, segment, ts, objective.scan(points), None)
        (t1, t2, p0), value = objective.postselected(u1)
        return OptimizationResult(value, PPSPoint(t1, t2, p0), probes, True,
                                  grid_n, probes - grid_n)

    start = _grid_start(objective, grid_n)
    current = (_u(start[0]), _u(start[1]), start[2])
    angles = _angles(current)
    value = objective(*angles)
    current_abs = _checked(angles, value)
    best, refine_probes, converged = (angles, value), 1, False
    for _ in range(_MAX_CYCLES):
        before_abs = current_abs
        for direction in _DIRECTIONS:
            point, line_abs, line_best, probes = _line_search(
                _loop_bind(objective, current, direction), current, direction, grid_n)
            refine_probes += probes
            if line_abs > current_abs:
                current, current_abs, best = point, line_abs, line_best
        if current_abs - before_abs < _CYCLE_GAIN:
            converged = True
            break

    (t1, t2, p0), value = best
    grid_probes = grid_n ** 3
    return OptimizationResult(value, PPSPoint(t1, t2, p0 % TWO_PI),
                              grid_probes + refine_probes, converged, grid_probes, refine_probes)


# ---------------------------------------------------------------------------
# Objective builders
# ---------------------------------------------------------------------------


def _pure_entries(channel: KrausChannel):
    """Density entries of ``channel`` applied to pure_state(theta1, phi0).

    ``entries(cos(theta1/2), sin(theta1/2), cos(phi0), sin(phi0))`` returns
    (rho00, rho11, Re rho10, Im rho10): the channel's entry map on the pure
    state's half-angle products.  Populations come out as sums of
    non-negative terms, never as 1 - x, so the small entries stay accurate
    near the poles, where the conditional shifts live right above the
    probability floor.
    """
    (t00, t01), (t10, t11) = channel.transfer
    coherence = channel.coherence

    def entries(ch, sh, cos_p0, sin_p0):
        c2, s2 = ch * ch, sh * sh
        half_perp = coherence * sh * ch
        return (t00 * c2 + t01 * s2, t10 * c2 + t11 * s2,
                half_perp * cos_p0, half_perp * sin_p0)

    return entries


def _modulus_channel(kappa: float) -> KrausChannel:
    """Depolarizing at strength 1 - kappa, which leaves Bloch modulus kappa.

    The coherence factor is kappa itself rather than 1 - (1 - kappa).
    """
    kappa = _check_unit_interval("kappa", kappa)
    return replace(depolarizing(1.0 - kappa), coherence=kappa)


class _Objective:
    """Meter value over a family's ``entries``, postselected on pure_state(theta2, 0).

    ``entries`` is a ``_pure_entries`` map, whose coherence turns with phi0
    as exp(i phi0).  ``n`` and ``m`` are a meter's branch overlaps and one of
    its read-outs, in ``common._contract``'s form (scale, k00, k11, Re k10,
    Im k10); the value is the contraction with m over the one with n.
    """

    __slots__ = ("entries", "n", "m", "_branches")

    def __init__(self, entries, n, m):
        self.entries = entries
        self.n = n
        self.m = m
        # M then N as one flat tuple for the pencil, each off-diagonal entry
        # doubled (exactly) as its q takes it, then the unit 2^e: M's scale
        # enters the pencil divided by this power of two, so that squares of
        # a tiny read-out scale (g = 1e-160) cannot underflow, and the score
        # gets it back in one exact multiply.  e <= 0: a scale of 1 or more
        # is kept whole (2^1024 is no float), so that its overflows still
        # surface in the pencil as they do in the call face.
        e = min(math.frexp(m[0])[1], 0)
        scaled = (math.ldexp(m[0], -e), *m[1:])
        self._branches = tuple(x for s, k00, k11, k10_re, k10_im in (scaled, n)
                               for x in (s, k00, k11, 2.0 * k10_re, 2.0 * k10_im)
                               ) + (math.ldexp(1.0, e),)

    def __call__(self, t1: float, t2: float, p0: float) -> float:
        """The value at (theta1, theta2, phi0); 0 at or below the floor."""
        return self._value(math.cos(0.5 * t1), math.sin(0.5 * t1), t2, p0)

    def _value(self, ch1: float, sh1: float, t2: float, p0: float) -> float:
        """The value at theta1's half-angle cosine and sine, theta2 and phi0."""
        ch, sh = math.cos(0.5 * t2), math.sin(0.5 * t2)
        rho00, rho11, re10, im10 = self.entries(ch1, sh1, math.cos(p0), math.sin(p0))
        w = sh * ch
        c00, c11, c10_re, c10_im = rho00 * (ch * ch), rho11 * (sh * sh), re10 * w, im10 * w
        prob = _contract(self.n, c00, c11, c10_re, c10_im)
        if prob <= PROB_FLOOR:
            return 0.0
        return _contract(self.m, c00, c11, c10_re, c10_im) / prob

    def _pencils(self, points):
        """The best postselection at each (theta1, cos(theta1 / 2), sin(theta1 /
        2)) of ``points`` (``_preselection``), in one pass: the list of their
        scores, and the last point's (lead, pivot, Re v, Im v), where the
        postselection amplitudes are x = (pivot, v) if lead, else (conj v,
        pivot).  Every search's scores and read-outs come from this loop.

        At phi0 = 0 the value is x.A x / x.B x in the postselection amplitudes
        x = (x0, x1), with the Hermitian forms A = rho o M and B = rho o N: the
        read-out and the branch overlaps weighted entrywise by rho.  A branch
        matrix (s, k00, k11, Re k10, Im k10) gives the form's entries a00 = s
        (rho00 k00), a11 = s (rho11 k11) and q = 2 s rho10 k10, twice the lower
        off-diagonal entry; B, the probability, is positive semi-definite.
        rho10 is real at phi0 = 0.  M's scale enters divided by the power of
        two ``unit`` (``__init__``), which scales A, lambda and the rows below
        exactly and leaves x as it is; only the score is multiplied back.

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
        the call face's is.  It is taken at x / pivot, (1, z) or (conj z, 1)
        with z = v / pivot and |z| about 1 or less, so no square of x can
        overflow or underflow.  Unlike lambda itself, it is second-order in
        x's rounding: at a double root (A proportional to B) the quadratic
        gives lambda to only about sqrt(eps).  It is NaN where x is
        degenerate: a singular B (det B <= 0), or a zero pivot, where both
        rows of A - lambda B vanish but for rounding.
        """
        entries = self.entries
        ms, m00, m11, m10_re, m10_im, ns, n00, n11, n10_re, n10_im, unit = self._branches
        scores = []
        append, nan, floor = scores.append, math.nan, PROB_FLOOR
        sqrt, copysign = math.sqrt, math.copysign
        for _, ch1, sh1 in points:
            rho00, rho11, rho10, _ = entries(ch1, sh1, 1.0, 0.0)
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

    def scan(self, points) -> list[float]:
        """|score| at each ``_preselection`` point of a theta1 scan, scored in
        one pass (``_pencils``).  A score that is degenerate or not finite
        defers to the read-out at its point, as ``scored`` does, and a
        non-finite value there raises OptimizationError at the first such
        point, with its angles."""
        scores, _ = self._pencils(points)
        magnitudes = list(map(abs, scores))
        # The sum is finite unless a score is not (or the sum overflows, in
        # which case the check below finds nothing to defer).
        if not math.isfinite(sum(magnitudes)):
            for k, score in enumerate(scores):
                if not math.isfinite(score):
                    magnitudes[k] = _checked(*self._read(points[k]))
        return magnitudes

    def scored(self, u1: float) -> tuple[_Point | None, float]:
        """The scoring probe of a theta1 search: u1 -> (None, score), the
        Rayleigh quotient at the best postselection (``_pencils``), which is
        the call face's value there but for rounding.  A score that is
        degenerate or not finite defers to ``postselected(u1)``, so that a
        non-finite value is reported at the probe's own angles."""
        point = _preselection(u1)
        (score,), _ = self._pencils((point,))
        if math.isfinite(score):
            return None, score
        return self._read(point)

    def postselected(self, u1: float) -> tuple[_Point, float]:
        """The best postselection at theta1 = 2 atan(exp(u1)), as the probe
        u1 -> (angles, value).

        x (``_pencils``) gives theta2 = 2 atan2(|x1|, |x0|) (0 for x = 0), and
        the phase of x0 conj(x1) = pivot conj(v), mod 2 pi, is the relative
        phase phi0.  The value is the call face's at those angles.
        """
        return self._read(_preselection(u1))

    def _read(self, point: _Point) -> tuple[_Point, float]:
        """``postselected`` at a ``_preselection`` point."""
        _, (lead, pivot, v_re, v_im) = self._pencils((point,))
        t1, ch1, sh1 = point
        near, far = abs(pivot), math.hypot(v_re, v_im)
        t2 = 2.0 * (math.atan2(far, near) if lead else math.atan2(near, far))
        sign = math.copysign(1.0, pivot)
        p0 = math.atan2(-sign * v_im, sign * v_re) % TWO_PI
        return (t1, t2, p0), self._value(ch1, sh1, t2, p0)


def _check_target(meter: GaussianMeter | Literal["qubit"],
                  which: Literal["dp", "dq", "reading"]) -> None:
    """Reject a ``which`` target that ``meter`` does not read out."""
    if which == "reading":
        if meter != "qubit":
            raise ValueError("'reading' requires the qubit meter")
        return
    if not isinstance(meter, GaussianMeter):
        raise ValueError(f"'{which}' requires a GaussianMeter")
    if which not in ("dp", "dq"):
        raise ValueError(f"which must be 'dp' or 'dq', got {which!r}")


def _family_objective(entries, g: float, meter: GaussianMeter | Literal["qubit"],
                      which: Literal["dp", "dq", "reading"]) -> _Objective:
    """The ``which`` objective of ``meter`` over the family ``entries``."""
    g = _check_coupling(g)
    _check_target(meter, which)
    if which == "reading":
        return _Objective(entries, *qubitmeter._branches(g))
    n, m_dp, m_dq = gaussian._branches(g, meter)
    return _Objective(entries, n, m_dp if which == "dp" else m_dq)


def kappa_shift_objective(kappa: float, g: float, meter: GaussianMeter,
                          which: Literal["dp", "dq"]) -> Objective:
    """|dp'| or |dq'| objective for the modulus-kappa preselection family."""
    return _family_objective(_pure_entries(_modulus_channel(kappa)), g, meter, which)


def kappa_reading_objective(kappa: float, g: float) -> Objective:
    """Qubit-meter reading objective for the modulus-kappa family."""
    return _family_objective(_pure_entries(_modulus_channel(kappa)), g, "qubit", "reading")


def damped_shift_objective(gamma: float, g: float, meter: GaussianMeter,
                           which: Literal["dp", "dq"]) -> Objective:
    """Pointer-shift objective with an amplitude-damped pure preselection."""
    return _family_objective(_pure_entries(amplitude_damping(gamma)), g, meter, which)


def damped_reading_objective(gamma: float, g: float) -> Objective:
    """Qubit-meter reading objective with an amplitude-damped pure preselection."""
    return _family_objective(_pure_entries(amplitude_damping(gamma)), g, "qubit", "reading")


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
