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
from typing import Optional, Sequence, Union

import numpy as np

from .expmap import (
    MAG_GUARD,
    RE_OVERFLOW,
    Params,
    _track,
    eval_map,
    max_modulus_iterates,
)
from .towerfloat import TowerReal

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
    "fast_escape_test",
    "classify_param",
    "find_cycle",
    "is_meandering_candidate",
    "report_line",
]

# Cycle-detection tolerances: loose detection on the raw orbit, tight
# residual after Newton refinement, and the attracting/parabolic bands.
CYCLE_DETECT_TOL = 1e-6
CYCLE_REFINE_TOL = 1e-10
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


def _first_exit(mags: Sequence[TowerReal], bailout: float, upto: int) -> Optional[int]:
    """First index ``n <= upto`` whose magnitude tower exceeds ``bailout``."""
    bail = TowerReal.from_real(bailout)
    for n in range(min(upto, len(mags) - 1) + 1):
        if mags[n].cmp(bail) > 0:
            return n
    return None


def _least_domination_offset(
    mags: Sequence[TowerReal], m_towers: Sequence[TowerReal], depth: int
) -> Optional[int]:
    """Least ``ell <= depth - 3`` with ``mags[ell+n] >= m_towers[n]`` for all n."""
    for ell in range(depth - 2):
        ok = True
        for n in range(depth - ell + 1):
            if mags[ell + n].cmp(m_towers[n]) < 0:
                ok = False
                break
        if ok:
            return ell
    return None


def classify_point(
    p: Params, z: complex, depth: int = 100, bailout: float = 1e10
) -> PointClass:
    """Classify the orbit of ``z`` within ``depth`` steps.

    Escape means crossing ``bailout``; escaped orbits are then tested for
    tower domination over iterated maximum modulus (with at least three
    tower comparisons) to separate fast escape from plain escape.  Bounded
    orbits are matched against cycles of period up to 32, with the verdict
    re-checked 10 iterations past ``depth``.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not 0.0 < bailout <= MAG_GUARD:
        raise ValueError("bailout must be in (0, 1e15]")
    total = depth + 10
    zs, mags = _track(p.a, z, total, bailout)
    exit_step = _first_exit(mags, bailout, depth)
    if exit_step is not None:
        m_towers = max_modulus_iterates(p.a, p.radius, depth)
        ell = _least_domination_offset(mags, m_towers, depth)
        if ell is not None:
            return FastEscaping(offset=ell, verified_depth=depth - ell)
        return EscapingSlow(first_exit_step=exit_step)
    period = _detect_basin_period(zs, depth)
    if period is not None:
        return Basin(period=period)
    bound = max(abs(w) for w in zs[: depth + 1] if w is not None)
    return NonEscapingBounded(depth=depth, bound=bound)


def _detect_basin_period(zs: Sequence[complex | None], depth: int) -> Optional[int]:
    """Smallest period ``q <= 32`` matching the orbit tail, or None.

    Requires closeness at ``depth``, stability 10 steps later, and an
    attracting window multiplier ``|prod exp(z_i)| < 1 - 1e-9``.
    """
    total = depth + 10
    if total >= len(zs):
        total = len(zs) - 1
    for q in range(1, min(32, depth) + 1):
        z_d, z_dq = zs[depth], zs[depth - q]
        z_t, z_tq = zs[total], zs[total - q]
        if z_d is None or z_dq is None or z_t is None or z_tq is None:
            continue
        if abs(z_d - z_dq) >= CYCLE_DETECT_TOL or abs(z_t - z_tq) >= CYCLE_DETECT_TOL:
            continue
        window = zs[total - q : total]
        if any(w is None for w in window):
            continue
        log_mult = sum(w.real for w in window)  # log |prod exp(z_i)|
        if log_mult < ATTRACT_CUT:
            return q
    return None


def fast_escape_test(
    p: Params, z: complex, depth: int, bailout: float = 1e10
) -> Optional[int]:
    """Least offset certifying fast escape, or None.

    Returns the least ``ell <= depth - 3`` such that the orbit magnitude
    tower at index ``ell + n`` is at least the ``n``-th iterated maximum
    modulus of ``radius``, for every ``n`` up to ``depth - ell`` (at least
    three comparisons).  Orbits that never escape simply return None.
    """
    if depth < 3:
        raise ValueError("depth must be >= 3")
    _, mags = _track(p.a, z, depth, bailout)
    m_towers = max_modulus_iterates(p.a, p.radius, depth)
    return _least_domination_offset(mags, m_towers, depth)


def find_cycle(
    p: Params, z_init: complex, period: int, tol: float = 1e-10
) -> tuple[tuple[complex, ...], complex]:
    """Refine a periodic cycle by damped Newton iteration.

    Solves ``f^period(z) = z`` starting from ``z_init`` until the residual
    drops below ``tol``; returns the cycle points and the multiplier
    (product of ``exp(z_i)`` along the cycle).  Raises
    :class:`ConvergenceError` after 200 Newton steps without convergence.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    a = p.a

    def step_values(z: complex) -> tuple[complex, complex]:
        """Return (f^period(z) - z, derivative of f^period at z)."""
        w = z
        deriv = complex(1.0)
        for _ in range(period):
            e = cmath.exp(w)
            deriv *= e
            w = e + a
            if not (math.isfinite(w.real) and math.isfinite(w.imag)):
                raise OverflowError("orbit overflow inside Newton step")
        return w - z, deriv - 1.0

    z = complex(z_init)
    try:
        f_val, f_der = step_values(z)
    except OverflowError as exc:
        raise ConvergenceError(f"initial point overflows for period {period}") from exc
    for _ in range(200):
        if abs(f_val) < tol:
            cycle = []
            w = z
            for _ in range(period):
                cycle.append(w)
                w = eval_map(a, w)
            mult = complex(1.0)
            for c in cycle:
                mult *= cmath.exp(c)
            return tuple(cycle), mult
        if f_der == 0:
            raise ConvergenceError("Newton derivative vanished")
        delta = f_val / f_der
        lam = 1.0
        while lam >= 2.0**-30:
            cand = z - lam * delta
            try:
                c_val, c_der = step_values(cand)
            except OverflowError:
                lam /= 2.0
                continue
            if abs(c_val) < abs(f_val):
                z, f_val, f_der = cand, c_val, c_der
                break
            lam /= 2.0
        else:
            raise ConvergenceError(
                f"Newton stalled at residual {abs(f_val):.3e} for period {period}"
            )
    raise ConvergenceError(
        f"no convergence after 200 Newton steps (residual {abs(f_val):.3e})"
    )


def _minimal_period(p: Params, z_star: complex, period: int, tol: float = 1e-8) -> int:
    """Smallest divisor d of ``period`` with ``f^d(z_star)`` within ``tol``."""
    w = z_star
    for d in range(1, period + 1):
        w = eval_map(p.a, w)
        if period % d == 0 and abs(w - z_star) < tol:
            return d
    return period


def classify_param(p: Params, max_period: int = 32, depth: int = 2000) -> ParamClass:
    """Classify the parameter by the fate of its singular orbit.

    The singular orbit starts at ``a`` (the unique singular value).  In
    order: convergence to a cycle of period <= ``max_period`` (refined by
    Newton and reported attracting or parabolic-looking by multiplier), a
    revisit of an earlier orbit point within 1e-10 landing on a repelling
    cycle (finite singular orbit), escape past the representable range,
    else undetermined.
    """
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
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
            cycle, _ = find_cycle(p, zs[last], q, PARAM_REFINE_TOL)
        except ConvergenceError:
            continue
        d = _minimal_period(p, cycle[0], q)
        points = cycle[:d]
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
    """First revisit of an earlier point landing on a repelling cycle."""
    pts = np.asarray(zs, dtype=complex)
    repel_cut = math.log1p(PARABOLIC_BAND)
    for j in range(1, len(pts)):
        hits = np.nonzero(np.abs(pts[:j] - pts[j]) < REVISIT_TOL)[0]
        if hits.size:
            i = int(hits[0])
            log_mult = float(np.sum(pts[i:j].real))
            if log_mult > repel_cut:
                return PostsingularlyFinite(preperiod=i, period=j - i)
            # revisit found but not repelling; try later j
    return None


def is_meandering_candidate(
    point: PointClass, param: Optional[ParamClass] = None
) -> bool:
    """Whether a classified point is a candidate for the meandering set.

    Slow-escaping points qualify outright; bounded non-basin points
    qualify when the parameter is known to carry an attracting cycle.
    """
    if isinstance(point, EscapingSlow):
        return True
    if isinstance(point, NonEscapingBounded) and isinstance(param, Attracting):
        return True
    return False


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
