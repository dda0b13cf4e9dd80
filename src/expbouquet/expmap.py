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
from functools import lru_cache
from typing import Iterable

import numpy as np

from .towerfloat import H, TowerReal

__all__ = [
    "Params",
    "OrbitSample",
    "eval_map",
    "deriv_map",
    "orbit",
    "orbit_to_csv",
    "max_modulus",
    "max_modulus_iterates",
    "RE_OVERFLOW",
    "MM_DIRECT_MAX",
]

# Largest real part for which exp() of a complex double is safely finite.
RE_OVERFLOW = 700.0

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
        a = complex(self.a)
        r = 3.0 + 2.0 * abs(a)
        if not math.isfinite(r):
            raise ValueError("parameter a must be finite with finite |a|")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "radius", r)


@dataclass(frozen=True)
class OrbitSample:
    """One step of an orbit.

    ``z`` is the orbit point as a complex double while representable
    (magnitude below the 1e15 guard), and ``None`` afterwards.  ``log_mag``
    is ``log |z_n|`` as a tower, meaningful at every step.  ``status`` is
    ``"in-range"`` while ``z`` is carried directly and ``"overflowed"``
    once only the magnitude track continues.
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


def deriv_map(a: complex, z: complex) -> complex:
    """Derivative of the map at ``z``, namely ``exp(z)``."""
    if z.real > RE_OVERFLOW:
        raise OverflowError(f"exp(z) overflows for Re z = {z.real!r} > {RE_OVERFLOW}")
    return cmath.exp(z)


def _track(
    a: complex, z0: complex, steps: int, bailout: float
) -> tuple[list[complex | None], list[TowerReal]]:
    """Iterate ``steps`` steps, returning points and magnitude towers.

    The direct complex track runs while ``|z| <= bailout``, ``|z| < 1e15``
    and ``Re z <= 700``; afterwards points are ``None`` and magnitudes
    continue as towers under the far-right growth model
    ``|z_{n+1}| = exp_plus(|z_n|, |a|)`` (or, when the switch was triggered
    by ``Re z > 700``, from ``log |z_{n+1}| = Re z``: the additive term
    ``log|1 + a exp(-z)|`` is below 1e-300 there).  The rasterizer's kernel
    switches by the same rules.
    """
    abs_a = abs(a)
    zs: list[complex | None] = [z0]
    mags: list[TowerReal] = [TowerReal.from_real(max(abs(z0), _TINY))]
    z: complex | None = z0
    for _ in range(steps):
        if z is not None:
            az = abs(z)
            if az > bailout or az >= MAG_GUARD:
                # Crossed the escape horizon: model growth from |z|.
                mags.append(mags[-1].exp_plus(abs_a))
                zs.append(None)
                z = None
                continue
            if z.real > RE_OVERFLOW:
                # exp(z) not representable; its log-magnitude is Re z.
                mags.append(TowerReal(1, z.real))
                zs.append(None)
                z = None
                continue
            w = cmath.exp(z) + a
            zs.append(w)
            mags.append(TowerReal.from_real(max(abs(w), _TINY)))
            z = w
        else:
            mags.append(mags[-1].exp_plus(abs_a))
            zs.append(None)
    return zs, mags


def orbit(a: complex, z0: complex, depth: int, bailout: float = 1e10) -> list[OrbitSample]:
    """Forward orbit of ``z0`` for up to ``depth`` steps.

    Iteration stops early when an in-range point crosses ``bailout`` (that
    sample is included).  If the orbit instead jumps straight past the
    representable range (``|z| >= 1e15`` or ``Re z > 700``), the magnitude
    track continues to ``depth`` with samples marked ``"overflowed"``.
    The seed is always ``"in-range"``.  Requires ``bailout <= 1e15``.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not 0.0 < bailout <= MAG_GUARD:
        raise ValueError("bailout must be in (0, 1e15]")
    zs, mags = _track(a, z0, depth, bailout)
    samples: list[OrbitSample] = []
    for n, (z, mag) in enumerate(zip(zs, mags)):
        if n > 0 and z is not None and abs(z) >= MAG_GUARD:
            z = None
        status = "in-range" if z is not None else "overflowed"
        samples.append(OrbitSample(n=n, z=z, log_mag=mag.ln(), status=status))
        if z is not None and abs(z) > bailout:
            break
    return samples


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


def max_modulus(a: complex, r: float) -> float:
    """Maximum of ``|exp(z) + a|`` over the circle ``|z| = r``.

    Dense grid scan to bracket every descending sign change of the
    stationarity condition, then simultaneous bisection to double
    precision; the best critical value is compared against the grid
    maximum.  Raises :class:`OverflowError` for ``r > MM_DIRECT_MAX``
    (about 354.89), where ``|f|^2`` exceeds the double range; use
    :func:`max_modulus_iterates` at tower scale.
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
    if desc.size:
        lo = theta[desc]
        hi = theta[desc + 1]
        for _ in range(60):  # 2*pi / 2^60 is far below double resolution
            mid = 0.5 * (lo + hi)
            pos = _circle_stationarity(a, _circle_terms(r, mid)) > 0.0
            lo = np.where(pos, mid, lo)
            hi = np.where(pos, hi, mid)
        crit = float(np.max(_circle_modulus_sq(a, _circle_terms(r, 0.5 * (lo + hi)))))
        best = max(best, crit)
    return math.sqrt(best)


@lru_cache(maxsize=None)
def _mm_iterates_cached(a: complex, r: float, count: int) -> tuple[TowerReal, ...]:
    towers: list[TowerReal] = [TowerReal.from_real(r)]
    abs_a = abs(a)
    for _ in range(count):
        prev = towers[-1]
        if prev.level == 0 and prev.mantissa <= MM_DIRECT_MAX:
            towers.append(TowerReal.from_real(max_modulus(a, prev.mantissa)))
        else:
            towers.append(prev.exp_plus(abs_a))
    return tuple(towers)


def max_modulus_iterates(a: complex, r: float, count: int) -> list[TowerReal]:
    """Towers ``[r, M(r), M^2(r), ..., M^count(r)]`` of iterated maximum modulus.

    Exact :func:`max_modulus` up to ``MM_DIRECT_MAX``; past it the tail
    switches to ``log M(r) = r + log1p(|a| exp(-r))``, which agrees with
    the circle maximum to double precision there.
    Strictly increasing whenever ``r >= 3 + 2|a|``.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    return list(_mm_iterates_cached(complex(a), float(r), count))
