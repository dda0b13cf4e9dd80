"""The drift map ``z -> z + 1 + exp(-z)`` and its change of variables.

Under ``w = exp(-z)`` the map is semiconjugate to
``h(w) = e^-1 * w * exp(-w)``; the identity ``exp(-f(z)) = h(exp(-z))``
holds exactly and its numerical defect is exposed for verification.
Escape here is linear (the map adds roughly 1 per step once the real
part is large), so orbit classification certifies escape by sustained
rightward drift instead of a bailout radius, and no orbit is ever
tagged fast-escaping.
"""

from __future__ import annotations

import cmath
import math

from .classify import EscapingSlow, NonEscapingBounded, PointClass, Undecided
from .expmap import MAG_GUARD, _TINY, OrbitSample
from .towerfloat import TowerReal

__all__ = [
    "fatou_eval",
    "h_eval",
    "semiconj_residual",
    "fatou_orbit",
    "fatou_classify",
    "DRIFT_THRESHOLD",
    "DRIFT_WINDOW",
    "BOUNDED_BOX",
]

# Real part below which exp(-z) overflows double precision.
_RE_UNDERFLOW = -700.0

# Escape certification: this many consecutive increases of Re(z) while
# Re(z) stays above the threshold.  Past the threshold |exp(-z)| < 2e-22,
# so the drift of +1 per step cannot reverse.
DRIFT_THRESHOLD = 50.0
DRIFT_WINDOW = 10

# An orbit that stays inside |z| <= BOUNDED_BOX for the full depth is
# reported bounded.
BOUNDED_BOX = 1e6


def fatou_eval(z: complex) -> complex:
    """Apply ``z -> z + 1 + exp(-z)``.

    Raises :class:`OverflowError` when ``Re z < -700`` (the exponential
    exceeds double range).
    """
    if z.real < _RE_UNDERFLOW:
        raise OverflowError(
            f"exp(-z) overflows for Re z = {z.real!r} < {_RE_UNDERFLOW}"
        )
    return z + 1.0 + cmath.exp(-z)


def h_eval(w: complex) -> complex:
    """Apply ``w -> e^-1 * w * exp(-w)``.

    Raises :class:`OverflowError` when ``Re w < -700``.
    """
    if w.real < _RE_UNDERFLOW:
        raise OverflowError(
            f"exp(-w) overflows for Re w = {w.real!r} < {_RE_UNDERFLOW}"
        )
    return math.exp(-1.0) * w * cmath.exp(-w)


def semiconj_residual(z: complex) -> float:
    """Defect ``|exp(-f(z)) - h(exp(-z))|`` of the conjugating identity.

    Exactly zero in real arithmetic; in floats only rounding remains.
    Raises :class:`OverflowError` outside the strip where both sides are
    representable (``Re z >= -700`` and ``Re f(z) >= -700``).
    """
    fz = fatou_eval(z)
    if fz.real < _RE_UNDERFLOW:
        raise OverflowError("f(z) leaves the representable strip")
    return abs(cmath.exp(-fz) - h_eval(cmath.exp(-z)))


def fatou_orbit(z0: complex, depth: int, bailout: float = 1e10) -> list[OrbitSample]:
    """Forward orbit under the drift map, in the shared sample format.

    Stops after the first in-range sample beyond ``bailout``.  If the
    orbit reaches ``Re z < -700`` the next magnitude is still recorded as
    a tower (``log |z_next| ~ -Re z``) with status ``"overflowed"`` and
    the orbit ends there: past that point not even the magnitude admits
    a usable model.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not 0.0 < bailout <= MAG_GUARD:
        raise ValueError("bailout must be in (0, 1e15]")
    w = complex(z0)
    samples = [
        OrbitSample(
            n=0,
            z=w,
            log_mag=TowerReal.from_real(max(abs(w), _TINY)).ln(),
            status="in-range",
        )
    ]
    for n in range(1, depth + 1):
        if w.real < _RE_UNDERFLOW:
            # log |z_n| = -Re z_{n-1} + log |1 + (z+1) exp(z)| ~ -Re z_{n-1}
            samples.append(
                OrbitSample(
                    n=n,
                    z=None,
                    log_mag=TowerReal.normalized(1, -w.real).ln(),
                    status="overflowed",
                )
            )
            break
        w = w + 1.0 + cmath.exp(-w)
        samples.append(
            OrbitSample(
                n=n,
                z=w,
                log_mag=TowerReal.from_real(max(abs(w), _TINY)).ln(),
                status="in-range",
            )
        )
        if abs(w) > bailout:
            break
    return samples


def fatou_classify(z: complex, depth: int = 100) -> PointClass:
    """Classify the orbit of ``z`` under the drift map.

    Escaping when the real part exceeds 50 and increases for 10
    consecutive steps (the exit step is the start of that run — escape
    is linear, so this replaces a bailout test); bounded when the orbit
    stays inside ``|z| <= 1e6`` for ``depth`` steps; undecided otherwise.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    w = complex(z)
    max_abs = abs(w)
    run = 0
    for n in range(1, depth + 1):
        if w.real < _RE_UNDERFLOW:
            return Undecided()
        nxt = w + 1.0 + cmath.exp(-w)
        if nxt.real > DRIFT_THRESHOLD and nxt.real > w.real:
            run += 1
            if run == DRIFT_WINDOW:
                return EscapingSlow(first_exit_step=n - DRIFT_WINDOW + 1)
        else:
            run = 0
        w = nxt
        max_abs = max(max_abs, abs(w))
    if max_abs <= BOUNDED_BOX:
        return NonEscapingBounded(depth=depth, bound=max_abs)
    return Undecided()
