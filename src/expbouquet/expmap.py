"""Exponential family ``z -> exp(z) + a``: evaluation, orbits, maximum modulus.

The family is entire with a single singular value ``a``.  Orbits blow up
through iterated exponentials almost immediately, so the orbit machinery
tracks magnitudes as :class:`~expbouquet.towerfloat.TowerReal` towers once
complex doubles overflow.  The maximum modulus ``M(r) = max |f(z)|`` over
``|z| = r`` is computed by a genuine maximization over the circle (dense
grid plus derivative-bracketed root polishing); at large radii it reduces
to ``log M(r) = r + log1p(|a| e^{-r})`` to full double precision, which is
what the tower continuation uses past the overflow horizon.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .towerfloat import _EXP_DIRECT_MAX, H, TowerReal

__all__ = [
    "Params",
    "OrbitSample",
    "eval_map",
    "orbit",
    "orbit_to_csv",
    "max_modulus",
    "max_modulus_iterates",
    "RE_OVERFLOW",
    "MM_DIRECT_MAX",
]

# Largest real part for which exp() of a complex double is safely finite;
# the tower's direct-exp limit, so the growth model steps the tower
# (0, Re z) of a point past it to exactly (1, Re z).
RE_OVERFLOW = _EXP_DIRECT_MAX

# Largest radius at which |f|^2 ~ e^(2r) on the circle fits in a double;
# max_modulus_iterates continues past it with the tower step exp_plus.
MM_DIRECT_MAX = 0.5 * math.log(np.finfo(np.float64).max)

# Magnitude guard for the direct complex track: beyond this, points are
# carried as magnitude towers only.
MAG_GUARD = H  # 1e15

# Smallest magnitude we take a logarithm of (avoids -inf for orbits that
# pass through an exact zero of the map).
_TINY = 2.2250738585072014e-308


@dataclass(frozen=True)
class Params:
    """Parameter bundle for one member of the exponential family.

    ``radius`` is the base radius ``R = 3 + 2|a|`` of fast-escape
    comparisons.  It satisfies ``M(r) > r`` for every ``r >= R`` without a
    check: ``M(r) >= e^r - |a|`` and ``e^r >= 1 + r + r^2/2 > r + (r-3)/2
    >= r + |a|``.
    """

    a: complex
    radius: float = field(init=False)

    def __post_init__(self) -> None:
        a = _finite("parameter a", complex(self.a))
        r = 3.0 + 2.0 * abs(a)
        if not math.isfinite(r):
            raise ValueError(f"parameter a must have a finite radius 3 + 2|a|, got {a}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "radius", r)


@dataclass(frozen=True)
class OrbitSample:
    """One step of an orbit.

    ``z`` is the orbit point as a complex double while the direct track
    carries it (:func:`orbit` has the rule), and ``None`` afterwards.
    ``log_mag`` is ``log |z_n|`` as a tower, meaningful at every step.
    ``status`` is ``"in-range"`` while ``z`` is carried directly and
    ``"overflowed"`` once only the magnitude track continues.
    """

    n: int
    z: complex | None
    log_mag: TowerReal
    status: str


def eval_map(a: complex, z: complex) -> complex:
    """Apply ``z -> exp(z) + a``.

    Raises :class:`OverflowError` when ``Re z > 700``; callers needing to
    continue past that point must switch to the magnitude track.
    """
    if z.real > RE_OVERFLOW:
        raise OverflowError(f"exp(z) overflows for Re z = {z.real!r} > {RE_OVERFLOW}")
    return cmath.exp(z) + a


def _finite(name: str, z: complex) -> complex:
    """``complex(z)``, or :class:`ValueError` naming it unless its modulus is finite.

    ``math.hypot`` is inf where complex ``abs`` raises :class:`OverflowError`.
    """
    if not math.isfinite(math.hypot(z.real, z.imag)):
        raise ValueError(f"{name} must be finite with a finite modulus, got {z}")
    return complex(z)


def _check_bailout(bailout: float) -> None:
    """:class:`ValueError` unless ``0 < bailout <= 1e15`` (NaN fails)."""
    if not 0.0 < bailout <= MAG_GUARD:
        raise ValueError("bailout must be in (0, 1e15]")


def _check_count(name: str, n: int) -> None:
    """:class:`ValueError` naming ``name`` unless ``n >= 1``."""
    if n < 1:
        raise ValueError(f"{name} must be >= 1")


def _reach(bailout: float) -> float:
    """Prefilter bound of :func:`_leaves`: every point that leaves has a modulus past it.

    ``0.5 * min(bailout, 700)``: a point past the bailout or ``1e15`` has
    ``|z| > bailout >= 2 * reach``, and ``Re z > 700`` gives ``|z| > 700``.
    The factor 2 is the margin for a modulus other than libm ``hypot``
    (NumPy's complex ``abs`` errs by a few ulps), so a prefilter on either
    modulus misses no point that the predicate, on ``hypot``, sends off.
    """
    return 0.5 * min(bailout, RE_OVERFLOW)


def _leaves(re, mag, bailout: float):
    """Switch rule of the direct track at a point with ``Re z = re`` and ``|z| = mag``.

    Returns ``(past, leave, alone)``: ``past`` if ``mag`` is past the
    bailout; ``leave`` if the point leaves the direct track, past the
    bailout, at or past ``1e15``, or with ``Re z > 700``; ``alone`` if
    ``Re z > 700`` alone made it leave.  Built from comparisons and ``&``,
    ``|`` only, so Python floats and NumPy arrays (elementwise) get the
    same answer; a NaN point never leaves.  ``mag`` is libm ``hypot`` at
    every caller, the modulus of Python's complex ``abs``.
    """
    past, right = mag > bailout, re > RE_OVERFLOW
    return past, past | (mag >= MAG_GUARD) | right, right & (mag <= bailout) & (mag < MAG_GUARD)


Leave = tuple[int, bool, bool]  # (n, past, alone) of the first point z_n that leaves


def _track(
    a: complex, z0: complex, steps: int, bailout: float
) -> tuple[list[complex | None], Leave | None]:
    """Iterate ``steps`` steps of the direct complex track.

    Returns ``steps + 1`` points and the report ``(n, past, alone)`` of
    :func:`_leaves` at the first point ``z_n``, ``n <= steps``, that
    leaves the track, or None if none does.  The points after ``z_n`` are
    ``None``: past it only magnitudes continue, as :func:`_towers` builds
    them.  The predicate runs only at points with ``|z| > _reach(bailout)``,
    one comparison per step.  The rasterizer's kernel switches by the same
    predicate and prefilter.
    """
    reach = _reach(bailout)
    zs: list[complex | None] = [z0]
    z = z0
    for n in range(steps + 1):
        az = abs(z)
        if az > reach:
            past, leave, alone = _leaves(z.real, az, bailout)
            if leave:
                return zs + [None] * (steps - n), (n, past, alone)
        z = cmath.exp(z) + a
        zs.append(z)
    zs.pop()  # the point after steps
    return zs, None


def _towers(a: complex, zs: Sequence[complex | None], leave: Leave | None) -> list[TowerReal]:
    """Magnitude towers ``|z_n|`` of a track ``(zs, leave)`` from :func:`_track`, one per point.

    A direct point gives ``from_real(max(|z_n|, _TINY))``.  Past the last
    direct point the far-right growth model ``|z_{k+1}| = exp_plus(|z_k|,
    |a|)`` takes over, started from ``(0, Re z_n)`` instead of ``|z_n|``
    when the report says ``Re z > 700`` alone made the track leave: the
    first model tower is then ``(1, Re z_n)``, ``log |exp(z_n)|``, since
    the additive term ``log|1 + a exp(-z)|`` is below 1e-300 there.  Its
    users, :func:`orbit` and :func:`expbouquet.symbolic.find_domination_index`,
    read every tower.
    """
    last = len(zs) - 1 if leave is None else leave[0]  # the last direct point
    mags = [TowerReal.from_real(max(abs(z), _TINY)) for z in zs[: last + 1]]
    model = TowerReal.from_real(zs[last].real) if leave and leave[2] else mags[-1]
    for _ in zs[last + 1 :]:
        model = model.exp_plus(abs(a))
        mags.append(model)
    return mags


def orbit(a: complex, z0: complex, depth: int, bailout: float = 1e10) -> list[OrbitSample]:
    """Forward orbit of ``z0`` for up to ``depth`` steps.

    Iteration stops early when an in-range point crosses ``bailout`` (that
    sample is included).  If the orbit instead jumps straight past the
    representable range (a later point at or past ``1e15``, whose tower is
    past level 0, or a leave that is not past the bailout), the magnitude
    track continues to ``depth`` with samples marked ``"overflowed"``.
    Both are read off the one report ``(n, past, alone)`` of
    :func:`_track`.  The seed is always ``"in-range"``.  Requires
    ``bailout <= 1e15`` and finite moduli ``|a|`` and ``|z0|`` (else
    :class:`ValueError`).
    """
    _check_count("depth", depth)
    _check_bailout(bailout)
    zs, leave = _track(_finite("parameter a", a), _finite("seed", z0), depth, bailout)
    mags = _towers(a, zs, leave)
    n, past, _ = leave or (depth, False, False)
    if past and n and mags[n].level:  # jumped past 1e15: the model runs on
        zs[n], past = None, False
    return [
        OrbitSample(n=k, z=z, log_mag=mag.ln(), status="overflowed" if z is None else "in-range")
        for k, z, mag in zip(range(n + 1 if past else depth + 1), zs, mags)
    ]


def orbit_to_csv(samples: Iterable[OrbitSample]) -> str:
    """Serialize orbit samples as CSV.

    Header ``n,re,im,log_level,log_mantissa,status``; unrepresentable
    points print ``nan`` coordinates.  Reals use 17 significant digits.
    """
    lines = ["n,re,im,log_level,log_mantissa,status"]
    for s in samples:
        if s.z is None:
            re_s, im_s = "nan", "nan"
        else:
            re_s, im_s = f"{s.z.real:.17g}", f"{s.z.imag:.17g}"
        lines.append(
            f"{s.n},{re_s},{im_s},{s.log_mag.level},{s.log_mag.mantissa:.17g},{s.status}"
        )
    return "\n".join(lines) + "\n"


def _circle_terms(r: float, theta: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(u, v, e^u, cos v, sin v)`` at ``u + iv = r e^{i theta}``, elementwise."""
    u = r * np.cos(theta)
    v = r * np.sin(theta)
    return u, v, np.exp(u), np.cos(v), np.sin(v)


def _circle_modulus_sq(a: complex, terms: tuple[np.ndarray, ...]) -> np.ndarray:
    """``|exp(r e^{i theta}) + a|^2`` from :func:`_circle_terms` (theta within [-pi, pi])."""
    _, _, e, cv, sv = terms
    re = e * cv + a.real
    im = e * sv + a.imag
    return re * re + im * im


def _circle_stationarity(a: complex, terms: tuple[np.ndarray, ...]) -> np.ndarray:
    """Scaled derivative of ``|f(r e^{i theta})|^2`` in ``theta``, from :func:`_circle_terms`.

    With ``u = r cos(theta)``, ``v = r sin(theta)``, ``E = e^u``, ``A = Re a``,
    ``B = Im a`` the stationarity condition is::

        -v (E + A cos v + B sin v) + u (B cos v - A sin v) = 0

    obtained after dividing out the positive factor ``r e^u``, so it is
    overflow-free for every radius up to the double-precision horizon.
    """
    u, v, e, cv, sv = terms
    return -v * (e + a.real * cv + a.imag * sv) + u * (a.imag * cv - a.real * sv)


def _stationarity_at(a: complex, r: float, theta: float) -> float:
    """Scalar :func:`_circle_stationarity` at one angle."""
    u = r * math.cos(theta)
    v = r * math.sin(theta)
    cv = math.cos(v)
    sv = math.sin(v)
    return -v * (math.exp(u) + a.real * cv + a.imag * sv) + u * (a.imag * cv - a.real * sv)


# Relative slack on the bracket bound, far above the few ulps of rounding
# in either side of the comparison.
_BRACKET_SLACK = 1e-9


def max_modulus(a: complex, r: float) -> float:
    """Maximum of ``|exp(z) + a|`` over the circle ``|z| = r``.

    Dense grid scan to bracket every descending sign change of the
    stationarity condition.  Between two grid nodes ``Re z`` is at most
    the larger node value (or ``r`` if the arc crosses ``theta = 0``), so
    ``|f| <= e^{Re z} + |a|`` there; a bracket whose bound is below
    the grid maximum cannot hold the maximum and is dropped.  Each
    remaining bracket is bisected on the scalar stationarity condition
    until its ends are adjacent doubles, and the best critical value is
    compared against the grid maximum.  Raises :class:`OverflowError` for
    ``r > MM_DIRECT_MAX`` (about 354.89), where ``|f|^2`` exceeds the
    double range; use :func:`max_modulus_iterates` at tower scale.
    """
    if not r > 0.0:
        raise ValueError("r must be positive")
    if r > MM_DIRECT_MAX:
        raise OverflowError(
            f"max modulus at r={r!r} exceeds double range; "
            "use max_modulus_iterates for tower-scale values"
        )
    a = complex(a)
    n = max(4096, 32 * math.ceil(r))
    theta = np.linspace(-math.pi, math.pi, n + 1)
    grid = _circle_terms(r, theta)
    hs = _circle_stationarity(a, grid)
    best = float(np.max(_circle_modulus_sq(a, grid)))
    # Interior maxima sit at descending sign changes of the derivative
    # (exact zeros on the grid are already covered by the grid maximum).
    desc = np.nonzero((hs[:-1] > 0.0) & (hs[1:] < 0.0))[0]
    e = grid[2]
    e_max = np.maximum(e[desc], e[desc + 1])
    e_max[(theta[desc] <= 0.0) & (theta[desc + 1] >= 0.0)] = math.exp(r)
    bound = (e_max + abs(a)) * (1.0 + _BRACKET_SLACK)
    for k in desc[bound >= math.sqrt(best)]:
        lo = float(theta[k])
        hi = float(theta[k + 1])
        # A sign the scalar twin does not reproduce puts the critical
        # point within rounding of a grid node, which the grid covers.
        if _stationarity_at(a, r, lo) > 0.0 > _stationarity_at(a, r, hi):
            mid = 0.5 * (lo + hi)
            while lo < mid < hi:
                if _stationarity_at(a, r, mid) > 0.0:
                    lo = mid
                else:
                    hi = mid
                mid = 0.5 * (lo + hi)
            best = max(best, float(_circle_modulus_sq(a, _circle_terms(r, mid))))
    return math.sqrt(best)


def max_modulus_iterates(a: complex, r: float, count: int) -> list[TowerReal]:
    """Towers ``[r, M(r), M^2(r), ..., M^count(r)]`` of iterated maximum modulus.

    Exact :func:`max_modulus` up to ``MM_DIRECT_MAX``; past it the tail
    switches to ``log M(r) = r + log1p(|a| exp(-r))``, which agrees with
    the circle maximum to double precision there.
    Strictly increasing whenever ``r >= 3 + 2|a|``.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    towers = [TowerReal.from_real(r)]
    abs_a = abs(a)
    for _ in range(count):
        prev = towers[-1]
        if prev.level == 0 and prev.mantissa <= MM_DIRECT_MAX:
            towers.append(TowerReal.from_real(max_modulus(a, prev.mantissa)))
        else:
            towers.append(prev.exp_plus(abs_a))
    return towers
