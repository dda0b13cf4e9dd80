"""Orbit and parameter classification for the exponential family.

Seeds are sorted into attracting-basin, bounded, slow-escaping and
fast-escaping classes; the fast class is certified by comparing the
orbit's magnitude towers against iterated maximum-modulus towers.
Parameters are sorted by the fate of the singular orbit (the orbit of
``a`` itself): convergence to an attracting or parabolic-looking cycle,
a finite singular orbit landing on a repelling cycle, escape, or none
of the above.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Optional, Sequence, Union

import numpy as np

from .expmap import (
    MAG_GUARD,
    RE_OVERFLOW,
    Params,
    _check_bailout,
    _check_count,
    _finite,
    _track,
    max_modulus_iterates,
)
from .towerfloat import exp_plus_array, from_real_array

__all__ = [
    "Basin",
    "NonEscapingBounded",
    "EscapingSlow",
    "FastEscaping",
    "Undecided",
    "PointClass",
    "Attracting",
    "ParabolicSuspect",
    "PostsingularlyFinite",
    "SingularValueEscapes",
    "Undetermined",
    "ParamClass",
    "ConvergenceError",
    "classify_point",
    "classify_param",
    "find_cycle",
    "report_line",
]

# Cycle-detection tolerances: loose detection on the raw orbit and the
# attracting/parabolic bands.
CYCLE_DETECT_TOL = 1e-6
# Parameter classification refines harder: at a parabolic (double) root the
# refined point sits ~sqrt(2*tol) from the cycle, so 1e-13 keeps the
# reported multiplier within ~5e-7 of the unit circle.
PARAM_REFINE_TOL = 1e-13
ATTRACTING_BAND = 1e-9
# log of the attracting band's edge: a window whose real parts sum below this
# has multiplier modulus |prod exp(z_i)| < 1 - ATTRACTING_BAND.
ATTRACT_CUT = math.log1p(-ATTRACTING_BAND)
PARABOLIC_BAND = 1e-6
REVISIT_TOL = 1e-10
# Revisit search: cells 2**-30 wide (wider than REVISIT_TOL), the clamp that
# keeps scaled coordinates finite, the 3x3 block of cells a revisit can lie
# in, the relative margin around REVISIT_TOL in which NumPy's complex abs
# decides, and the unit roundoff of doubles.
_CELL_SCALE = 2.0**30
_CELL_CLAMP = 2.0**900
_NEIGHBOURS = tuple((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1))
_REVISIT_MARGIN = 2.0**-40
_UNIT_ROUNDOFF = 2.0**-53


class ConvergenceError(RuntimeError):
    """Raised when an iterative solver fails to reach its tolerance."""


@dataclass(frozen=True)
class Basin:
    """Orbit converged to a detected attracting cycle of the given period."""

    period: int


@dataclass(frozen=True)
class NonEscapingBounded:
    """Orbit stayed within ``bound`` for ``depth`` steps without matching a cycle."""

    depth: int
    bound: float


@dataclass(frozen=True)
class EscapingSlow:
    """Orbit crossed the bailout at ``first_exit_step`` without tower domination."""

    first_exit_step: int


@dataclass(frozen=True)
class FastEscaping:
    """Orbit magnitude dominates iterated maximum modulus from offset ``offset``.

    ``verified_depth`` is the largest shift ``n`` for which the comparison
    ``|orbit[offset + n]| >= M^n(R)`` was checked (always >= 3).
    """

    offset: int
    verified_depth: int


@dataclass(frozen=True)
class Undecided:
    """No verdict within the requested depth."""


PointClass = Union[Basin, NonEscapingBounded, EscapingSlow, FastEscaping, Undecided]


@dataclass(frozen=True)
class Attracting:
    """Singular orbit converged to an attracting cycle."""

    period: int
    cycle: tuple[complex, ...]
    multiplier: complex


@dataclass(frozen=True)
class ParabolicSuspect:
    """Detected cycle whose multiplier modulus is within 1e-6 of 1."""

    period: int
    multiplier: complex


@dataclass(frozen=True)
class PostsingularlyFinite:
    """Singular orbit revisited a prior point (finite forward orbit)."""

    preperiod: int
    period: int


@dataclass(frozen=True)
class SingularValueEscapes:
    """Singular orbit left the representable range at ``first_exit_step``."""

    first_exit_step: int


@dataclass(frozen=True)
class Undetermined:
    """Singular orbit neither converged, revisited, nor escaped."""


ParamClass = Union[
    Attracting, ParabolicSuspect, PostsingularlyFinite, SingularValueEscapes, Undetermined
]


@lru_cache(maxsize=None)
def _domination_table(a: complex, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Search keys of ``M^0(R) .. M^depth(R)`` at ``R = 3 + 2|a|``, and their level-0 mantissas.

    The one table of fast-escape verdicts.  A tower ``(level, mantissa)``
    is keyed as ``level + i*mantissa``: NumPy orders complex numbers
    lexicographically, as towers are ordered, so counting the entries at
    or below a tower is a search.  Raises :class:`RuntimeError` unless the
    table is nondecreasing, which :func:`_settle_bound` relies on; the
    check runs once per cached table.  Both arrays are read-only.
    """
    table = max_modulus_iterates(a, Params(a).radius, depth)
    if any(x > y for x, y in zip(table, table[1:])):
        raise RuntimeError(f"iterated maximum modulus is not monotone for a={a}")
    keys = np.array([complex(t.level, t.mantissa) for t in table])
    ground = keys.imag[keys.real == 0]
    keys.flags.writeable = ground.flags.writeable = False
    return keys, ground


def _direct_bound(a: complex, depth: int, k: int | np.ndarray, mag: np.ndarray) -> np.ndarray:
    """Offset bounds ``k + 1 - c(k)`` at direct points ``|z_k| = mag`` (:func:`_settle_bound`).

    ``c(k)`` counts the comparisons ``mag >= entry`` over the level-0
    entries, so a tie counts.  The entries are sorted, so for every
    non-NaN ``mag`` this is ``searchsorted(ground, mag, side="right")``;
    ``mag`` is never NaN (seeds are checked finite, and the switch rules
    keep ``|z| < 1e15``).  The count is kept in the narrowest unsigned type
    that holds it and widened once to int64, so ``k + 1`` cannot overflow.
    """
    ground = _domination_table(a, depth)[1]
    c = np.add.reduce(mag >= ground[:, None], dtype=np.min_scalar_type(ground.size))
    return np.subtract(k + 1, c, dtype=np.int64)


def _settle_bound(
    a: complex,
    depth: int,
    n: int | np.ndarray,
    z: np.ndarray,
    alone: bool | np.ndarray,
    bound: int | np.ndarray,
) -> np.ndarray:
    """Final offset bounds of orbits whose last direct point is ``z_n = z``, for ``n <= depth``.

    ``n`` is one leave step for all orbits or one per orbit.  Each orbit
    steps ``k`` from its own ``n + 1`` and stops on its own, as below, so
    one call over many leave steps (the rasterizer's one call per block)
    gives the bounds of one call per step.

    The rule of :func:`classify_point` and the rasterizer alike.  ``T_k``
    is the tower of ``|z_k|`` and ``c(k)`` counts the entries ``<= T_k`` of
    :func:`_domination_table`.  An orbit is fast iff the least offset
    ``ell`` with ``T_{ell + j} >= M^j(R)`` for every ``j <= depth - ell`` is
    ``<= depth - 3`` (at least three comparisons).  The table is
    nondecreasing, so step ``k`` admits exactly ``ell >= k + 1 - c(k)``,
    and the least offset is the running maximum of that bound (at least
    0).  ``bound`` is that maximum over the steps before ``n``, where the
    orbit is direct with ``|z_k| < 1e15``: ``T_k = (0, |z_k|)`` and
    ``c(k)`` is a search over the ``n0`` level-0 entries
    (:func:`_direct_bound`).  ``T_n`` is ``from_real_array(|z_n|)``; later
    towers are the growth model of :func:`expbouquet.expmap._towers`,
    ``exp_plus_array`` with ``|a|``, from ``(0, Re z_n)`` (so ``(1, Re
    z_n)``, the exact log-magnitude of ``exp(z_n)``) where ``alone``, the
    output of :func:`expbouquet.expmap._leaves` at ``z_n`` that the caller
    kept from its switch test, says ``Re z_n > 700`` alone made the orbit
    leave.  ``alone`` is one flag for all orbits or one per orbit.

    They are counted until ``c(k) > n0`` or ``k = depth``, and stopping
    there is exact, with no rounding term.  Once ``c(k) > n0``,
    ``T_k >= M^{c-1}`` and both are at level ``>= 1``, where ``exp_plus``
    is the exact shift ``(L, m) -> (L + 1, m)`` and
    :func:`expbouquet.expmap.max_modulus_iterates` builds the next entry by
    the same shift.  So ``T_{k+1} >= M^c`` and ``c(k + 1) >= c(k) + 1`` (or
    ``c`` is the whole table, and later bounds are at most 0): ``k + 1 -
    c(k)`` never rises again.
    """
    keys, ground = _domination_table(a, depth)
    level, mantissa = from_real_array(np.abs(z))
    c = np.searchsorted(keys, level + 1j * mantissa, side="right")
    k = np.full(z.shape, n)  # the step of each orbit's tower
    bound = np.maximum(bound, k + 1 - c)
    mantissa = np.where(alone, z.real, mantissa)
    live = np.arange(z.size)  # orbits whose bound may still rise
    while True:
        more = (c <= ground.size) & (k < depth)
        k, live, level, mantissa = k[more], live[more], level[more], mantissa[more]
        if not live.size:
            return bound
        k = k + 1
        level, mantissa = exp_plus_array(level, mantissa, abs(a))
        c = np.searchsorted(keys, level + 1j * mantissa, side="right")
        bound[live] = np.maximum(bound[live], k + 1 - c)


def classify_point(
    p: Params, z: complex, depth: int = 100, bailout: float = 1e10
) -> PointClass:
    """Classify the orbit of ``z`` within ``depth`` steps.

    The exit step is the first ``n <= depth`` at which the orbit point
    ``z_n`` is past ``bailout`` or no longer carried directly (the track
    has switched to its growth model), which is where
    :func:`~expbouquet.expmap.orbit` stops or first reports
    ``"overflowed"``.  It is read off the one report ``(n, past, alone)``
    of :func:`~expbouquet.expmap._track`: the leave step ``n`` if
    ``past``, else ``n + 1``.  Escaped orbits are then tested for tower
    domination over iterated maximum modulus (with at least three tower
    comparisons) to separate fast escape from plain escape, by
    :func:`_settle_bound`, the rule the rasterizer applies per pixel, with
    the report's ``alone``.  Bounded orbits build no tower; they are
    matched against cycles of period up to 32, with the verdict re-checked
    10 iterations past ``depth``.
    """
    _check_count("depth", depth)
    _check_bailout(bailout)
    zs, leave = _track(p.a, _finite("seed", z), depth + 10, bailout)
    n, past, alone = leave or (depth + 10, False, False)  # z_n: the last direct point
    exit_step = n if past else n + 1
    if exit_step <= depth:
        direct = np.array(zs[: n + 1], dtype=complex)
        bound = _direct_bound(p.a, depth, np.arange(n), np.abs(direct[:n])).max(initial=0)
        ell = int(_settle_bound(p.a, depth, n, direct[n:], alone, bound)[0])
        if ell <= depth - 3:
            return FastEscaping(offset=ell, verified_depth=depth - ell)
        return EscapingSlow(first_exit_step=exit_step)
    period = _detect_basin_period(zs, depth)
    if period is not None:
        return Basin(period=period)
    bound = max(abs(w) for w in zs[: depth + 1])
    return NonEscapingBounded(depth=depth, bound=bound)


def _detect_basin_period(zs: Sequence[complex | None], depth: int) -> Optional[int]:
    """Smallest period ``q <= 32`` matching the orbit tail, or None.

    Requires closeness at ``depth``, stability 10 steps later, and an
    attracting window multiplier ``|prod exp(z_i)| < 1 - 1e-9``.  ``zs``
    holds the ``depth + 11`` points of :func:`~expbouquet.expmap._track`,
    which never comes back after a ``None``: if the last point is not
    ``None``, none is.
    """
    total = depth + 10
    if zs[total] is None:
        return None
    for q in range(1, min(32, depth) + 1):
        z_d, z_dq = zs[depth], zs[depth - q]
        z_t, z_tq = zs[total], zs[total - q]
        if abs(z_d - z_dq) >= CYCLE_DETECT_TOL or abs(z_t - z_tq) >= CYCLE_DETECT_TOL:
            continue
        window = zs[total - q : total]
        log_mult = sum(w.real for w in window)  # log |prod exp(z_i)|
        if log_mult < ATTRACT_CUT:
            return q
    return None


def find_cycle(
    p: Params, z_init: complex, period: int, tol: float = 1e-10
) -> tuple[tuple[complex, ...], complex]:
    """Refine a periodic cycle by damped Newton iteration.

    Solves ``f^period(z) = z`` starting from ``z_init`` until the residual
    drops below ``tol``; returns the cycle points ``z, f(z), ...,
    f^(period-1)(z)`` and the multiplier (product of ``exp(z_i)`` along the
    cycle), both as the last accepted Newton step computed them.  Raises
    :class:`ConvergenceError` after 200 Newton steps without convergence,
    and :class:`OverflowError` if a cycle point has ``Re z > 700``.
    """
    _check_count("period", period)
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    a = p.a

    def step_values(z: complex) -> tuple[complex, complex, list[complex], float]:
        """Return (f^period(z) - z, its multiplier, the cycle points, their largest Re)."""
        w = z
        deriv = complex(1.0)
        points = []
        top = -math.inf
        for _ in range(period):
            points.append(w)
            top = max(top, w.real)
            e = cmath.exp(w)
            deriv *= e
            w = e + a
            if not (math.isfinite(w.real) and math.isfinite(w.imag)):
                raise OverflowError("orbit overflow inside Newton step")
        return w - z, deriv, points, top

    z = complex(z_init)
    try:
        walk = step_values(z)
    except OverflowError as exc:
        raise ConvergenceError(f"initial point overflows for period {period}") from exc
    for _ in range(200):
        f_val, mult, cycle, top = walk
        if abs(f_val) < tol:
            if top > RE_OVERFLOW:
                raise OverflowError(f"cycle point has Re z = {top!r} > {RE_OVERFLOW}")
            return tuple(cycle), mult
        f_der = mult - 1.0
        if f_der == 0:
            raise ConvergenceError("Newton derivative vanished")
        delta = f_val / f_der
        lam = 1.0
        while lam >= 2.0**-30:
            cand = z - lam * delta
            try:
                cand_walk = step_values(cand)
            except OverflowError:
                lam /= 2.0
                continue
            if abs(cand_walk[0]) < abs(f_val):
                z, walk = cand, cand_walk
                break
            lam /= 2.0
        else:
            raise ConvergenceError(
                f"Newton stalled at residual {abs(f_val):.3e} for period {period}"
            )
    raise ConvergenceError(
        f"no convergence after 200 Newton steps (residual {abs(walk[0]):.3e})"
    )


def classify_param(p: Params, max_period: int = 32, depth: int = 2000) -> ParamClass:
    """Classify the parameter by the fate of its singular orbit.

    The singular orbit starts at ``a`` (the unique singular value).  In
    order: convergence to a cycle of period <= ``max_period`` (refined by
    Newton and reported attracting or parabolic-looking by multiplier), a
    revisit of an earlier orbit point within 1e-10 landing on a repelling
    cycle (finite singular orbit), escape past the representable range,
    else undetermined.
    """
    _check_count("max_period", max_period)
    if depth < 100:
        raise ValueError("depth must be >= 100")
    a = p.a
    zs: list[complex] = [a]
    exit_step: Optional[int] = None
    z = a
    for n in range(1, depth + 1):
        if z.real > RE_OVERFLOW:
            exit_step = n
            break
        z = cmath.exp(z) + a
        if abs(z) >= MAG_GUARD:
            exit_step = n
            break
        zs.append(z)
    if exit_step is None:
        verdict = _detect_param_cycle(p, zs, max_period)
        if verdict is not None:
            return verdict
    psf = _detect_revisit(zs)
    if psf is not None:
        return psf
    if exit_step is not None:
        return SingularValueEscapes(first_exit_step=exit_step)
    return Undetermined()


def _detect_param_cycle(
    p: Params, zs: Sequence[complex], max_period: int
) -> Optional[ParamClass]:
    """Try cycle convergence of the singular orbit tail; None if nothing fits."""
    last = len(zs) - 1
    loose = 1e-3
    for q in range(1, min(max_period, last) + 1):
        if abs(zs[last] - zs[last - q]) >= loose:
            continue
        try:
            cycle, mult = find_cycle(p, zs[last], q, PARAM_REFINE_TOL)
        except ConvergenceError:
            continue
        # minimal period: the least divisor d < q with cycle[d] = f^d(cycle[0])
        # back at cycle[0], else q
        d = next((d for d in range(1, q) if q % d == 0 and abs(cycle[d] - cycle[0]) < 1e-8), q)
        points = cycle[:d]
        if d < q:  # find_cycle's multiplier is the same product over all q points
            mult = complex(1.0)
            for c in points:
                mult *= cmath.exp(c)
        mod = abs(mult)
        # The parabolic band is tested first: a refined double root always
        # lands slightly inside the unit circle, never exactly on it.
        if abs(mod - 1.0) <= PARABOLIC_BAND:
            return ParabolicSuspect(period=d, multiplier=mult)
        if mod < 1.0 - ATTRACTING_BAND:
            return Attracting(period=d, cycle=points, multiplier=mult)
    return None


def _detect_revisit(zs: Sequence[complex]) -> Optional[PostsingularlyFinite]:
    """First revisit of an earlier point landing on a repelling cycle.

    For each ``j`` in order, the revisit of ``z_j`` is the least ``i < j``
    with ``np.abs(z_i - z_j) < REVISIT_TOL``.  It is reported when the
    window's ``log |prod exp(z_k)|``, ``np.sum`` of ``Re z_i .. Re z_{j-1}``,
    exceeds ``log(1 + 1e-6)``; otherwise the search goes on with ``j + 1``.

    Candidates: each point is filed in a dict under its cell of width
    ``2**-30`` (about 9.3e-10; the scaling is exact), after clamping its
    coordinates to ``[-2**900, 2**900]``.  Clamping moves no two
    coordinates further apart, so a point within ``REVISIT_TOL`` of
    ``z_j`` differs from it by less than 0.11 of a cell in each
    coordinate and lies in one of the 3x3 cells around the cell of
    ``z_j``.  Distances use Python's ``abs``, which agrees with NumPy's
    complex ``abs`` to a few ulps; within a relative ``2**-40`` of the
    tolerance the test defers to the NumPy expression itself.

    Window sums: let ``P_k`` and ``A_k`` be the prefix sums of ``Re z`` and
    of ``|Re z|`` over the first ``k`` points, summed recursively, and let
    ``E = fl(P_j - P_i)`` and ``u = 2**-53``.  Summation in any order, and
    so ``np.sum``'s pairwise order too, is within ``gamma_k * sum|x|`` of
    the exact sum, ``gamma_k = k u / (1 - k u)`` (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., section 4.2).  Each of
    ``P_i``, ``P_j`` and the window's ``np.sum`` has at most ``j`` terms
    whose ``|x|`` sum to at most ``A_j / (1 - gamma_j)``, and the
    subtraction adds at most ``2u|E|``; so for ``j u < 1e-3``
    ``|np.sum - E| <= 4u (j A_j + |E|)``.  A window with
    ``E + 8u (j A_j + |E| + 1) < log(1 + 1e-6)`` is therefore not
    repelling, and its ``np.sum`` is skipped: the doubled factor and the
    ``+ 1`` absorb the rounding of the bound and of the comparison (an
    overflowed bound compares false).  Every other window runs the
    ``np.sum`` expression unchanged.
    """
    repel_cut = math.log1p(PARABOLIC_BAND)
    near = REVISIT_TOL * (1.0 - _REVISIT_MARGIN)
    far = REVISIT_TOL * (1.0 + _REVISIT_MARGIN)
    re_sums = list(accumulate((z.real for z in zs), initial=0.0))
    abs_sums = list(accumulate((abs(z.real) for z in zs), initial=0.0))
    cells: dict[tuple[int, int], list[int]] = {}
    pts: Optional[np.ndarray] = None
    for j, zj in enumerate(zs):
        cx = math.floor(min(max(zj.real, -_CELL_CLAMP), _CELL_CLAMP) * _CELL_SCALE)
        cy = math.floor(min(max(zj.imag, -_CELL_CLAMP), _CELL_CLAMP) * _CELL_SCALE)
        i = j
        for dx, dy in _NEIGHBOURS:
            for k in cells.get((cx + dx, cy + dy), ()):
                if k >= i:
                    break
                d = abs(zs[k] - zj)
                if d >= far:
                    continue
                if d >= near:
                    if pts is None:
                        pts = np.asarray(zs, dtype=complex)
                    if not np.abs(pts[:j] - pts[j])[k] < REVISIT_TOL:
                        continue
                i = k
                break
        cells.setdefault((cx, cy), []).append(j)
        if i == j:
            continue
        est = re_sums[j] - re_sums[i]
        if est + 8.0 * _UNIT_ROUNDOFF * (j * abs_sums[j] + abs(est) + 1.0) < repel_cut:
            continue
        if pts is None:
            pts = np.asarray(zs, dtype=complex)
        log_mult = float(np.sum(pts[i:j].real))
        if log_mult > repel_cut:
            return PostsingularlyFinite(preperiod=i, period=j - i)
        # revisit found but not repelling; try later j
    return None


def report_line(result: PointClass | ParamClass) -> str:
    """One-line report: ``class=<tag> period=<k> multiplier=<re>,<im> ell=<l> exit=<n>``.

    Fields that do not apply to the tag are omitted; reals use 17
    significant digits.
    """
    parts = [f"class={type(result).__name__}"]
    period = getattr(result, "period", None)
    if period is not None:
        parts.append(f"period={period}")
    mult = getattr(result, "multiplier", None)
    if mult is not None:
        parts.append(f"multiplier={mult.real:.17g},{mult.imag:.17g}")
    offset = getattr(result, "offset", None)
    if offset is not None:
        parts.append(f"ell={offset}")
    exit_step = getattr(result, "first_exit_step", None)
    if exit_step is not None:
        parts.append(f"exit={exit_step}")
    return " ".join(parts)
