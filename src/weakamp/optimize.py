"""Deterministic global maximization over preselection/postselection angles.

The search domain is (theta1, theta2, phi0) in [0, pi]^2 x [0, 2 pi): the two
polar angles plus the single relative phase the conditional shifts depend on.
``maximize`` runs a dense coarse grid over the angles, then cyclic
line-search refinement (a scan, then Brent's method, along the coordinates
and the polar diagonals), maximizing |objective|.  The refinement moves the
polar angles in u = log tan(theta / 2) on the box |u| <= ``_U_MAX``, so
theta = 2 atan(exp(u)) approaches the poles without reaching them.  In u
the amplitude-damping objectives, whose supremum lies along the valley
tan(theta1 / 2) tan(theta2 / 2) = x* running into a domain corner where the
objective is discontinuous, have a straight valley u1 + u2 = log x* that
the (1, -1) diagonal follows to the box edge.  Those suprema are known in
closed form (``amplitude_damping_max``), so such searches serve the
independent numerical cross-check in the tests and the acceptance gate.
Everything is derivative-free and deterministic: identical inputs give
identical outputs.

Objective builders for the standard preselection families live here too.
Every family is a channel applied to pure_state(theta1, phi0), and one
builder, ``_pure_entries``, turns any channel's entry map into the density
entries: the modulus-kappa family is depolarizing at strength 1 - kappa, the
damped family is amplitude damping.  An ``_Objective`` joins such a family to
a meter's probability piece and the one numerator piece it divides by it
(``common._postselection_prob`` at the meter's branch overlap, with
``gaussian._dp_numerator`` or ``_dq_numerator`` or with
``qubitmeter._reading_numerator``), the only copy of each meter formula;
every face computes the probability and that numerator only.  Calling it
probes one point on Python floats with ``math`` trigonometry, about ten
times faster than a one-point numpy evaluation.
Its ``bind_line`` binds one refinement line: it computes what the line
holds fixed once (the trigonometry of a fixed coordinate, the family
entries on a theta2 line, the postselection products on a theta1 or phi0
line) and returns a scalar probe t -> (angles, value) that runs the call
face's arithmetic in its order on the rest: a Brent step gives the call
face's floats bit for bit at about half its cost.  Its ``rows`` face runs the
same arithmetic on numpy arrays over (theta1, phi0) rows of the coarse grid,
every theta2 of each, so the default 64^3-point grid takes at most 64 calls
of 64 rows instead of 262k probes, with bit-identical values.  Its ``line``
face runs it over the grid_n points that open each line search, with each
point's angles and trigonometry taken from ``math`` so the values stay
bit-identical to single probes; the line search keeps the first largest of
them as it stands and starts Brent's method there.  Plain callables are
probed point by point: ``_loop_bind`` and ``_loop_rows`` stand in for the
two faces, and a line scan maps the ``_loop_bind`` probe over its points.

The family builders return a ``_FormObjective``, marked by its type as
having pieces linear in (u2, v2, w), as every meter piece is.  At a fixed
(theta1, phi0) row such a value is a ratio of two 2x2 quadratic forms in
(cos(theta2 / 2), sin(theta2 / 2)), read off the pieces at unit inputs, so
its largest |value| over theta2 is at most the largest |lambda| with
det(A - lambda B) = 0 (``_pencil_bound``, over arrays of forms).  The grid
(``_grid_start``) evaluates grid_n rows per call and keeps the first point
with the largest |value|.  For a form objective it bounds all grid_n^2 rows
in one numpy pass, evaluates the grid_n rows with the largest bounds first,
and then only the rows whose bound plus a derived rounding allowance
reaches the best |value| found; no other row can hold the first largest
grid point, so the refinement starts where it would if every row were
evaluated.  On the verify battery's searches about 2.6% of the grid points
are evaluated.  Other objectives have every row evaluated, in order.

Probes where the postselection probability falls below the usable floor
evaluate to 0, letting the search traverse near-orthogonal regions where
the conditional shift is only defined in the limit.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable, Literal

import numpy as np

from .channels import KrausChannel, amplitude_damping, depolarizing
from .common import (PROB_FLOOR, GaussianMeter, MaxResult, _check_coupling,
                     _check_gamma, _check_kappa, _postselection_prob, _read_only)
from .gaussian import _dp_numerator, _dq_numerator, gaussian_max_shifts
from .qubitmeter import _reading_numerator, qubit_max_reading

Objective = Callable[[float, float, float], float]

#: Golden-section fraction of Brent's fallback step, (3 - sqrt(5)) / 2.
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0
#: Bracket width at which a line search stops.
_LINE_WIDTH = 1e-11
#: Brent's smallest step: the search stops once the best point lies within
#: two of these of both bracket ends, so the bracket is at most _LINE_WIDTH.
_STEP_TOL = _LINE_WIDTH / 4.0
#: Half-width of the refinement box in u = log tan(theta / 2).  Its edge
#: keeps each polar angle about 2 exp(-_U_MAX) = 9e-5 from its pole, which
#: leaves a relative gap of order exp(-2 _U_MAX) on a supremum approached
#: along a pole: at most 9.3e-7 on the damped families at gamma <= 0.9,
#: where a box of 8 leaves 5e-5.  A box of 18 lets the damped dq searches
#: run onto the probability floor and stall short of the supremum.
_U_MAX = 10.0
#: The refinement stops after a cycle that raises the best |value| by less
#: than this, or after _MAX_CYCLES cycles.
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

    ``evaluations`` counts every objective value the search used, and splits
    into the probes of the coarse grid and of the cyclic refinement
    (``grid_probes + refine_probes``).  ``grid_probes`` is always grid_n^3,
    the grid points searched: each one was either evaluated or excluded by
    its (theta1, phi0) row's bound, which no value in the row can reach.
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


def _faces(objective: Objective):
    """The objective's ``line`` and ``bind_line`` faces.  A plain callable's
    bound line is ``_loop_bind``, and its line scan maps that probe over ts."""
    bind_line = getattr(objective, "bind_line", None) or partial(_loop_bind, objective)
    line = getattr(objective, "line", None) or (lambda origin, direction, ts: np.array(
        [value for _, value in map(bind_line(origin, direction), ts)]))
    return line, bind_line


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


def _line_search(line, bind_line, origin: _Point, direction: _Point,
                 n: int) -> tuple[_Point, float, tuple[_Point, float], int]:
    """Scan the segment of the u-line through ``origin`` inside the box, then
    refine its first largest point by Brent's method.

    Brent's method (Brent 1973, ch. 5) keeps the best point x, the second
    best w and the previous w as v; it steps to the vertex of the parabola
    through them when that vertex lies inside the bracket and the step is
    less than half the one before last, and takes a golden-section step into
    the larger part of the bracket otherwise.  The bracket is the scan step
    on either side of x; the scan's neighbours of x are the first w and v,
    so the first parabola costs no probe.  A scan maximum at a segment end
    has no neighbour beyond it and starts with a golden-section step.  The
    scan is one call of the ``line`` face; each Brent step probes the line
    that ``bind_line`` bound once, and a non-finite value raises
    OptimizationError at its point (``_checked``).  x moves only to a
    strictly larger |value|, so it is the first largest of the line's probes.

    Returns x in u, its |value|, its (angles, signed value) and the number of
    probes the line made.
    """
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

    step = (t_hi - t_lo) / (n - 1)
    ts = [t_lo + i * step for i in range(n)]
    values = line(origin, direction, ts)
    finite = np.isfinite(values)
    if not finite.all():
        i = int(finite.argmin())
        raise OptimizationError(PPSPoint(*_angles(_along(origin, direction, ts[i]))),
                                float(values[i]))
    # Scan values equal scalar probes, so the first largest is kept as is.
    scan = np.abs(values).tolist()
    i = scan.index(max(scan))
    x, fx = ts[i], scan[i]
    best = _angles(_along(origin, direction, x)), values[i].item()
    a, b = max(t_lo, x - step), min(t_hi, x + step)
    if 0 < i < n - 1:
        (fw, w), (fv, v) = sorted([(scan[i - 1], ts[i - 1]),
                                   (scan[i + 1], ts[i + 1])], reverse=True)
        # As if the last two steps had spanned the bracket: the first
        # parabolic step is held only to the bracket.
        d = e = b - a
    else:
        w, fw, v, fv, d, e = x, fx, x, fx, 0.0, 0.0

    probe, probes = bind_line(origin, direction), n
    copysign, step_tol, cgold, checked = math.copysign, _STEP_TOL, _CGOLD, _checked
    two_tol = 2.0 * step_tol
    while x - a > two_tol or b - x > two_tol:
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
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return _along(origin, direction, x), fx, best, probes


#: Coarse-grid axes plus the ``math`` trigonometry that every row shares, so
#: rows and single probes see the same floats.  The half-angle factors of
#: the polar axis are columns and phi0 factors a flat axis: the row bounds
#: are indexed [theta1, phi0], and ``rows`` takes the theta2 factors as rows.
_Grid = namedtuple("_Grid", "theta phi ch sh u2 v2 w cos_phi sin_phi")


#: Grid sizes whose axes and trigonometry are kept; maximize defaults to 64
#: and the adjudication searches use 32.
_GRID_CACHE_SIZE = 8


@lru_cache(maxsize=_GRID_CACHE_SIZE)
def _coarse_grid(grid_n: int) -> _Grid:
    """The grid at ``grid_n``: tuple axes and read-only arrays, shared by every
    search of that size."""
    theta_step = math.pi / (grid_n - 1)
    phi_step = 2.0 * math.pi / grid_n
    # i * theta_step can round past pi at the last i; the axis ends at pi.
    theta = tuple(i * theta_step for i in range(grid_n - 1)) + (math.pi,)
    phi = tuple(i * phi_step for i in range(grid_n))
    ch = np.array([[math.cos(0.5 * t)] for t in theta])
    sh = np.array([[math.sin(0.5 * t)] for t in theta])
    arrays = (ch, sh, ch * ch, sh * sh, sh * ch, np.array([math.cos(p) for p in phi]),
              np.array([math.sin(p) for p in phi]))
    return _Grid(theta, phi, *map(_read_only, arrays))


def _loop_rows(objective: Objective, i1: np.ndarray, j: np.ndarray, grid: _Grid) -> np.ndarray:
    """The ``rows`` face of any callable objective, one probe per point."""
    theta, phi = grid.theta, grid.phi
    return np.array([[objective(theta[a], t2, phi[b]) for t2 in theta]
                     for a, b in zip(i1.tolist(), j.tolist())])


def _grid_start(objective: Objective, grid: _Grid) -> _Point:
    """The first grid point, in (theta1, theta2, phi0) order, with the
    largest |value|, from the objective's ``rows`` grid_n rows at a time.

    Rows run in flat [theta1, phi0] order, so each call is one theta1.  A
    ``_FormObjective`` has the grid_n rows with the largest finite bounds
    evaluated first, and their largest |value| is the bar: a row whose
    bound plus rounding allowance stays below it holds no value as large,
    so neither the first largest point nor a tie with it, and of the other
    rows only those that reach the bar are evaluated.  A non-finite value
    raises OptimizationError at the first non-finite point of the first
    call in flat order that holds one; one met in the pruned order makes
    the rows run in flat order instead, so the error is the same.
    """
    n = len(grid.theta)
    rows = getattr(objective, "rows", None) or partial(_loop_rows, objective)

    def point(key: int) -> _Point:
        i, j = divmod(key, n)
        i1, i2 = divmod(i, n)
        return grid.theta[i1], grid.theta[i2], grid.phi[j]

    def best(flat: np.ndarray) -> tuple[float, int]:
        """The largest |value| on the rows at flat [theta1, phi0] indices
        ``flat``, and the flat (theta1, theta2, phi0) key of its first point."""
        i1, j = np.divmod(flat, n)
        values = rows(i1, j, grid)
        magnitude = np.abs(values)
        top = magnitude.max()
        # The max is NaN or inf if any value is not finite.
        finite = math.isfinite(top)
        mask = magnitude == top if finite else ~np.isfinite(magnitude)
        # By the array's own row length, 1 for pieces that ignore theta2.
        k, i2 = np.divmod(np.flatnonzero(mask), values.shape[1])
        keys = (i1[k] * n + i2) * n + j[k]
        m = int(keys.argmin())
        if not finite:
            raise OptimizationError(PPSPoint(*point(int(keys[m]))), float(values[k[m], i2[m]]))
        return top, int(keys[m])

    def start(found) -> _Point:
        """The point of the first largest among (|value|, key) pairs."""
        return point(max(found, key=lambda pair: (pair[0], -pair[1]))[1])

    if isinstance(objective, _FormObjective):
        bound, allowance = objective.row_bounds(grid)
        ceiling = (bound + allowance).ravel()
        first = np.argpartition(np.where(np.isfinite(ceiling), bound.ravel(), -math.inf), -n)[-n:]
        try:
            found = [best(first)]
            # NaN compares False, so a row whose ceiling is not finite stays.
            left = ~(ceiling < found[0][0])
            left[first] = False
            left = np.flatnonzero(left)
            found += (best(left[k:k + n]) for k in range(0, left.size, n))
            return start(found)
        except OptimizationError:
            pass
    return start(best(np.arange(k, k + n)) for k in range(0, n * n, n))


#: K in the allowance of ``_pencil_bound``: 128 unit roundoffs, more than
#: five times the first-order sum of the rounding sources it covers.
_FORM_ROUNDING = 128.0 * 2.0 ** -53
#: The allowance's absolute part: underflow, which K does not cover.
_FORM_UNDERFLOW = 2.0 ** -400


def _pencil_bound(a00, a11, aw, aw_abs, b00, b11, bw, bw_abs):
    """Largest |x.A x| / x.B x over real x != 0, and its rounding allowance,
    elementwise over arrays of 2x2 forms.

    x.A x = a00 x0^2 + a11 x1^2 + aw x0 x1 and x.B x likewise, with B
    positive semi-definite; ``aw_abs`` and ``bw_abs`` bound the sums of the
    |terms| that make up aw and bw.  The bound is the largest |lambda| with
    det(A - lambda B) = 0.  Scaling B to a unit diagonal, [[1, r], [r, 1]]
    with r = bw / (2 sqrt(b00 b11)), and A alike to [[a, c], [c, d]], leaves
    lambda as it is and makes the determinant (1 - r^2) lambda^2 - m lambda +
    ad - c^2 with m = a + d - 2 c r.  Its discriminant is the sum of squares
    x^2 + y^2 with x^2 = (1 - r^2) (a - d)^2 and y = 2 c - r (a + d), so the
    bound is (|m| + sqrt(x^2 + y^2)) / (2 (1 - r^2)), and no square root of a
    cancelling difference appears.

    Allowance.  Let mu = 1 - |r|, the smallest eigenvalue of the scaled B,
    alpha = max(|a|, |d|) + |c|abs and beta = 1 + |r|abs, with |c|abs and
    |r|abs scaled from ``aw_abs`` and ``bw_abs`` as c and r are from aw and
    bw.  For z = (sqrt(b00) x0, sqrt(b11) x1), the |terms| of x.A x sum to at
    most alpha |z|^2 and those of x.B x to at most beta |z|^2, while x.B x >=
    mu |z|^2.  If rounding moves x.A x and x.B x by at most eta times those
    sums, |x.A x| / x.B x grows by at most (lambda mu + eta alpha) / (mu -
    eta beta) - lambda = eta (alpha + lambda beta) / (mu - eta beta).  With u
    the unit roundoff, three sources move it so: the value the grid computes
    (each term of a shipped piece is rounded at most six times on its way
    there, in its products, u2, v2 and w included, and its sums, then once
    in the division: 7u), the coefficients read from the pieces (5u), and the
    scaling (3u, taken back onto A and B).  The solve adds the rest: m and y
    err by at most 8u alpha each, and its other steps by at most 7u / mu
    relative to the bound, as 1 - r^2 >= mu and |x| / (2 (1 - r^2)) is at
    most the bound; over 2 (1 - r^2) that is at most 8u (alpha + lambda beta)
    / mu.  The first-order sum is thus 23u (alpha + lambda beta) / mu.  The
    allowance is K (alpha + bound beta) / (mu - K beta) with K =
    ``_FORM_ROUNDING``, which also covers the second-order terms: they carry
    an extra factor of at most K beta / mu, below 1/2 because the allowance
    is infinite unless mu > 2 K beta.  It grows as mu shrinks, and it is
    infinite (or NaN) wherever B is singular or nearly so.

    Underflow.  That sum counts relative rounding only, so the allowance
    adds ``_FORM_UNDERFLOW`` = 2^-400 to it.  |x| or |y| below 2^-511 square
    to a subnormal or 0, which loses less than 2^-510 in the square root
    and, over 2 (1 - r^2) > 4 K, less than 2^-464 in the bound; any other
    subnormal step loses at most 2^-1075, and the divisions by 2 (1 - r^2)
    and by a probability above ``PROB_FLOOR`` keep that far below 2^-400.
    So a bar below about 2^-400 excludes no row.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.sqrt(b00 * b11)
        s2 = s + s
        a, d = a00 / b00, a11 / b11
        apd = a + d
        r, c2 = bw / s2, aw / s
        det_b = 1.0 - r * r
        y = c2 - r * apd
        bound = (np.abs(apd - c2 * r) + np.sqrt(det_b * (a - d) ** 2 + y * y)) / (det_b + det_b)
        alpha = np.maximum(np.abs(a), np.abs(d)) + aw_abs / s2
        beta = 1.0 + bw_abs / s2
        margin = (1.0 - np.abs(r)) - _FORM_ROUNDING * beta
        allowance = np.where(margin > _FORM_ROUNDING * beta,
                             _FORM_ROUNDING * (alpha + bound * beta) / margin + _FORM_UNDERFLOW,
                             math.inf)
    return bound, allowance


def _form(piece, rho00, rho11, re10, im10, reads_imag: bool):
    """(a00, a11, aw, aw_abs) of the form a00 x0^2 + a11 x1^2 + aw x0 x1 that
    a piece linear in (u2, v2, w) gives at (u2, v2, w) = (x0^2, x1^2, x0 x1):
    the piece at unit inputs.  aw is read at w = 1 from the real and the
    imaginary part of rho10 apart, and aw_abs adds their magnitudes.  In the
    shipped pieces the terms that one part feeds share a sign (the grid
    oracle's moment matrices are Hermitian), so aw_abs is the sum of |terms|
    that ``_pencil_bound`` asks for."""
    a00 = piece(rho00, rho11, 0.0, 0.0, 1.0, 0.0)
    a11 = piece(rho00, rho11, 0.0, 0.0, 0.0, 1.0)
    cross = piece(rho00, rho11, re10, 0.0, 0.0, 0.0)
    if not reads_imag:
        return a00, a11, cross, np.abs(cross)
    imag = piece(rho00, rho11, 0.0, im10, 0.0, 0.0)
    return a00, a11, cross + imag, np.abs(cross) + np.abs(imag)


def maximize(objective: Objective, grid_n: int = 64) -> OptimizationResult:
    """Maximize |objective| over the angle domain.

    A coarse grid of grid_n^3 samples over the angles locates the basin of
    the global maximum; it only picks the refinement start (the first grid
    point with the largest |value|, its polar angles moved into the u box),
    and every value reported comes from single probes.  Cyclic refinement
    (dense rescan plus Brent line search along each coordinate and the
    polar diagonals, in u = log tan(theta / 2) on |u| <= ``_U_MAX``)
    polishes it until a full cycle improves the best |value| by less than
    ``_CYCLE_GAIN``, for at most ``_MAX_CYCLES`` cycles.  The best point is
    the first probe after the grid with the largest |value|: each line
    search returns the first largest of its own probes, and it replaces the
    best only if its |value| is strictly larger.  The refinement approaches
    the poles theta = 0 and pi but never probes them: a supremum that only a
    pole approaches is found within a relative gap of order exp(-2 _U_MAX).
    The objective must accept any theta in [0, pi] and be 2 pi-periodic in
    phi0.  An objective with ``rows``, ``line`` and ``bind_line`` faces has
    the grid evaluated grid_n (theta1, phi0) rows per call, each line-search
    scan in one call, and each line's Brent steps through one bound line;
    any other callable is probed point by point, grid_n^3 times on the grid.
    A ``_FormObjective`` (the family builders' objectives) has the grid
    evaluated only on the rows that its exact postselection bound leaves in
    play (``_grid_start``); the start, and so every result, is the one that
    evaluating every row gives, and ``grid_probes`` still counts all
    grid_n^3 points.  A non-finite grid value raises OptimizationError at
    the first non-finite point of the first theta1 that holds one, and a
    non-finite refinement value at its own point.

    Returns the signed objective value at the best point found.
    """
    if grid_n < 16:
        raise ValueError(f"grid_n must be at least 16, got {grid_n}")

    line, bind_line = _faces(objective)
    start = _grid_start(objective, _coarse_grid(grid_n))
    current = (_u(start[0]), _u(start[1]), start[2])
    angles = _angles(current)
    value = objective(*angles)
    current_abs = _checked(angles, value)
    best, refine_probes, converged = (angles, value), 1, False
    for _ in range(_MAX_CYCLES):
        before_abs = current_abs
        for direction in _DIRECTIONS:
            point, line_abs, line_best, probes = _line_search(line, bind_line, current,
                                                              direction, grid_n)
            refine_probes += probes
            if line_abs > current_abs:
                current, current_abs, best = point, line_abs, line_best
        if current_abs - before_abs < _CYCLE_GAIN:
            converged = True
            break

    (t1, t2, p0), value = best
    grid_probes = grid_n ** 3
    return OptimizationResult(value, PPSPoint(t1, t2, p0 % (2.0 * math.pi)),
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
    kappa = _check_kappa(kappa)
    return replace(depolarizing(1.0 - kappa), coherence=kappa)


class _Objective:
    """Meter value over a family's ``entries``, postselected on pure_state(theta2, 0).

    ``prob`` and ``numerator`` are a meter's probability piece and one of its
    numerator pieces, each ``(rho00, rho11, cross_re, cross_im, u2, v2)``
    with the constants bound; the value is numerator / prob.  Every face
    computes the probability and this one numerator only, and the array
    faces build ``cross_im`` only if a piece reads it (``reads_imag``).
    """

    __slots__ = ("entries", "prob", "numerator", "reads_imag")

    def __init__(self, entries, prob, numerator, reads_imag: bool = True):
        self.entries = entries
        self.prob = prob
        self.numerator = numerator
        self.reads_imag = reads_imag

    def __call__(self, t1: float, t2: float, p0: float) -> float:
        ch, sh = math.cos(0.5 * t2), math.sin(0.5 * t2)
        return self._value(*self.entries(math.cos(0.5 * t1), math.sin(0.5 * t1),
                                         math.cos(p0), math.sin(p0)),
                           sh * ch, ch * ch, sh * sh)

    def _value(self, rho00, rho11, re10, im10, w, u2, v2) -> float:
        """The value at the density entries and the postselection's products
        w = sin cos, u2 = cos^2, v2 = sin^2 of theta2 / 2; 0 at or below the
        floor.  The scalar faces' one copy of this arithmetic."""
        args = (rho00, rho11, re10 * w, im10 * w, u2, v2)
        prob = self.prob(*args)
        if prob <= PROB_FLOOR:
            return 0.0
        return self.numerator(*args) / prob

    def bind_line(self, origin: _Point, direction: _Point):
        """The call face on the u-line origin + t direction, as the scalar
        probe t -> (angles, value).

        What the line holds fixed is computed once: the polar angle and
        half-angle cos and sin of a fixed u, cos and sin of a fixed phi0, the
        family entries when u1 and phi0 are both fixed (the u2 line), and
        (w, u2, v2) when u2 is (the u1 and phi0 lines).  The rest runs the
        call face's arithmetic in its order, so a probe gives the same floats
        as the call face at ``_angles(_along(origin, direction, t))``: theta /
        2 = atan(exp(u)) exactly, since doubling and halving are exact.  The
        one exception is a fixed phi0 of -0.0, which ``maximize`` never
        builds: ``_along`` makes it +0.0 for t >= 0, which can flip the sign
        of a zero value.
        """
        (o1, o2, o3), (d1, d2, d3) = origin, direction
        atan, exp, cos, sin = math.atan, math.exp, math.cos, math.sin
        entries, value = self.entries, self._value
        if d3 != 0.0:
            if d1 != 0.0 or d2 != 0.0:
                # No refinement direction moves phi0 with a polar angle.
                return _loop_bind(self, origin, direction)
            t1, ch1, sh1 = _half_angle(o1)
            t2, ch2, sh2 = _half_angle(o2)
            post = (sh2 * ch2, ch2 * ch2, sh2 * sh2)

            def probe(t):
                p0 = o3 + t * d3
                return (t1, t2, p0), value(*entries(ch1, sh1, cos(p0), sin(p0)), *post)
            return probe
        cos_p0, sin_p0 = cos(o3), sin(o3)
        if d1 == 0.0:
            t1, ch1, sh1 = _half_angle(o1)
            rho = entries(ch1, sh1, cos_p0, sin_p0)

            def probe(t):
                h = atan(exp(o2 + t * d2))
                ch, sh = cos(h), sin(h)
                return (t1, 2.0 * h, o3), value(*rho, sh * ch, ch * ch, sh * sh)
            return probe
        if d2 == 0.0:
            t2, ch2, sh2 = _half_angle(o2)
            post = (sh2 * ch2, ch2 * ch2, sh2 * sh2)

            def probe(t):
                h = atan(exp(o1 + t * d1))
                return (2.0 * h, t2, o3), value(*entries(cos(h), sin(h), cos_p0, sin_p0), *post)
            return probe

        def probe(t):
            h1, h2 = atan(exp(o1 + t * d1)), atan(exp(o2 + t * d2))
            ch, sh = cos(h2), sin(h2)
            return ((2.0 * h1, 2.0 * h2, o3),
                    value(*entries(cos(h1), sin(h1), cos_p0, sin_p0), sh * ch, ch * ch, sh * sh))
        return probe

    def rows(self, i1: np.ndarray, j: np.ndarray, grid: _Grid) -> np.ndarray:
        """Values on grid.theta at the rows theta1 = grid.theta[i1[k]], phi0 =
        grid.phi[j[k]], as one array indexed [k, theta2]."""
        return self._array(grid.ch[i1], grid.sh[i1], grid.cos_phi[j, None],
                           grid.sin_phi[j, None], grid.w.T, grid.u2.T, grid.v2.T)

    def line(self, origin: _Point, direction: _Point, ts) -> np.ndarray:
        """Values on the u-line origin + t direction for each t in ts, as one
        array."""
        ch1, sh1 = _line_trig(origin[0], direction[0], ts, True)
        ch2, sh2 = _line_trig(origin[1], direction[1], ts, True)
        cos_p0, sin_p0 = _line_trig(origin[2], direction[2], ts, False)
        values = self._array(ch1, sh1, cos_p0, sin_p0, sh2 * ch2, ch2 * ch2, sh2 * sh2)
        # Pieces that ignore the coordinate the line moves give one value.
        return values if np.ndim(values) else np.full(len(ts), values)

    def _array(self, ch1, sh1, cos_p0, sin_p0, w, u2, v2) -> np.ndarray:
        """The call face's arithmetic on arrays, with the floor as a mask
        where some probability is at or below it (or NaN)."""
        rho00, rho11, re10, im10 = self.entries(ch1, sh1, cos_p0, sin_p0)
        args = (rho00, rho11, re10 * w, im10 * w if self.reads_imag else None, u2, v2)
        prob = self.prob(*args)
        numerator = self.numerator(*args)
        # A ufunc reduce, unlike ndarray.min, also takes a float prob.
        if np.minimum.reduce(prob, axis=None) > PROB_FLOOR:
            return numerator / prob
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(prob <= PROB_FLOOR, 0.0, numerator / prob)


class _FormObjective(_Objective):
    """An ``_Objective`` whose pieces are linear in (u2, v2, w) at a fixed
    preselection, as every meter piece is.

    At one (theta1, phi0) row its value is then a ratio of 2x2 forms in
    (cos(theta2 / 2), sin(theta2 / 2)), and ``row_bounds`` bounds it over
    theta2, so ``maximize`` evaluates only the rows that the bound leaves in
    play (``_grid_start``).  The bound's rounding allowance counts the
    arithmetic of the shipped pieces, which ``_family_objective`` and
    ``oracle._oracle_shift_objective`` join; an ``_Objective`` of any other
    pieces has every row evaluated.
    """

    __slots__ = ()

    def row_bounds(self, grid: _Grid):
        """(bound, allowance) of ``_pencil_bound`` for every row, as arrays
        indexed [theta1, phi0]."""
        entries = self.entries(grid.ch, grid.sh, grid.cos_phi, grid.sin_phi)
        return _pencil_bound(*_form(self.numerator, *entries, self.reads_imag),
                             *_form(self.prob, *entries, self.reads_imag))


def _half_angle(u: float) -> tuple[float, float, float]:
    """theta = 2 atan(exp(u)) and the cos and sin of theta / 2 = atan(exp(u)),
    as the call face takes them."""
    h = math.atan(math.exp(u))
    return 2.0 * h, math.cos(h), math.sin(h)


def _line_trig(origin: float, step: float, ts, polar: bool):
    """cos and sin, from ``math`` as the call face takes them, of theta / 2 =
    atan(exp(u)) at u = origin + t step for t in ts when ``polar``, else of
    phi0 = origin + t step; a coordinate the line keeps fixed gives floats."""
    if step == 0.0:
        angle = math.atan(math.exp(origin)) if polar else origin
        return math.cos(angle), math.sin(angle)
    if polar:
        angles = [math.atan(math.exp(origin + t * step)) for t in ts]
    else:
        angles = [origin + t * step for t in ts]
    return np.array(list(map(math.cos, angles))), np.array(list(map(math.sin, angles)))


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
                      which: Literal["dp", "dq", "reading"]) -> _FormObjective:
    """The ``which`` objective of ``meter`` over the family ``entries``."""
    g = _check_coupling(g)
    _check_target(meter, which)
    if which == "reading":
        return _FormObjective(entries, partial(_postselection_prob, math.cos(2.0 * g)),
                              partial(_reading_numerator, math.sin(g) ** 2), reads_imag=False)
    att = meter.coherence_factor(g)
    if which == "dp":
        return _FormObjective(entries, partial(_postselection_prob, att),
                              partial(_dp_numerator, g), reads_imag=False)
    return _FormObjective(entries, partial(_postselection_prob, att),
                          partial(_dq_numerator, 4.0 * g * meter.delta ** 2 * att))


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
    At gamma = 1 every state decays to |0>, so the values are g, 0 and
    sin^2(g), attained at theta1 = theta2 = phi0 = 0; this degenerate case
    warns.

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
    gamma = _check_gamma(gamma)
    _check_target(meter, which)
    if gamma == 1.0:
        warnings.warn("amplitude damping at gamma = 1 maps every state to |0>; "
                      "the amplification maxima collapse", stacklevel=2)
        g = _check_coupling(g)
        value = {"dp": g, "dq": 0.0, "reading": math.sin(g) ** 2}[which]
        return MaxResult(value, 0.0, 0.0, 0.0)
    if which == "reading":
        closed = qubit_max_reading(1.0, g)
    else:
        closed = gaussian_max_shifts(1.0, g, meter)[("dp", "dq").index(which)]
    return MaxResult(closed.value, *_approach_point(gamma, closed))
