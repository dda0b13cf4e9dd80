"""Symbolic dynamics of the exponential bouquet.

The plane splits into horizontal strips of height ``2*pi`` centered on
``2*pi*k*i``; orbits get integer itineraries from the strips they visit,
and hairs (curves escaping to the right) are labeled by eventually
periodic integer addresses.  Points on a hair are produced by pulling an
anchor back through the inverse branches selected by the address; the
hair's finite endpoint is the limit of deepening pullbacks.  The module
also provides the quantitative separation gadgets used to tell hairs
apart: a real-part margin formula, a domination index comparing a
fast-escaping orbit against a slower one, and membership tests for the
left half-plane/arc separating set.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .classify import FastEscaping, classify_point
from .expmap import Params, _track, eval_map
from .towerfloat import TowerReal

__all__ = [
    "ExternalAddress",
    "HairPoint",
    "SeparationConfig",
    "Membership",
    "PreconditionError",
    "strip_index",
    "itinerary",
    "inverse_branch",
    "trace_hair",
    "endpoint_estimate",
    "separation_index",
    "real_part_margin",
    "find_domination_index",
    "separating_set_membership",
]

MAX_ADDRESS_ENTRY = 2**20
_TWO_PI = 2.0 * math.pi


class PreconditionError(ValueError):
    """Raised when an operation's classification precondition fails."""


def _primitive_root(tail: tuple[int, ...]) -> tuple[int, ...]:
    """Shortest word whose repetition generates ``tail``."""
    n = len(tail)
    for d in range(1, n + 1):
        if n % d == 0 and tail == tail[: d] * (n // d):
            return tail[:d]
    return tail


@dataclass(frozen=True)
class ExternalAddress:
    """Eventually periodic integer sequence labeling a hair.

    ``prefix`` is the finite head, ``tail`` the repeating block.  The
    stored form is canonical: the tail is primitive (not a repetition of
    a shorter word) and the prefix never ends with the tail's last entry
    (trailing period copies are absorbed into the tail by rotation), so
    equal infinite sequences compare equal.  Entries are clipped to
    ``|entry| <= 2**20``.
    """

    prefix: tuple[int, ...]
    tail: tuple[int, ...]

    def __post_init__(self) -> None:
        tail = tuple(int(k) for k in self.tail)
        prefix = tuple(int(k) for k in self.prefix)
        if not tail:
            raise ValueError("tail must be nonempty")
        clip = lambda k: max(-MAX_ADDRESS_ENTRY, min(MAX_ADDRESS_ENTRY, k))
        tail = tuple(clip(k) for k in tail)
        prefix = tuple(clip(k) for k in prefix)
        tail = _primitive_root(tail)
        while prefix and prefix[-1] == tail[-1]:
            tail = (tail[-1],) + tail[:-1]
            prefix = prefix[:-1]
        tail = _primitive_root(tail)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "tail", tail)

    def entry(self, i: int) -> int:
        """The ``i``-th entry of the infinite sequence."""
        if i < 0:
            raise IndexError("address entries start at 0")
        if i < len(self.prefix):
            return self.prefix[i]
        return self.tail[(i - len(self.prefix)) % len(self.tail)]

    def entries(self, n: int) -> tuple[int, ...]:
        """The first ``n`` entries."""
        return tuple(self.entry(i) for i in range(n))

    def shifted(self) -> "ExternalAddress":
        """The address with its first entry dropped."""
        if self.prefix:
            return ExternalAddress(self.prefix[1:], self.tail)
        return ExternalAddress((), self.tail[1:] + self.tail[:1])

    def __str__(self) -> str:
        head = ",".join(str(k) for k in self.prefix)
        rep = ",".join(str(k) for k in self.tail)
        return f"{head}|{rep}"

    @staticmethod
    def parse(text: str) -> "ExternalAddress":
        """Parse the literal ``"p1,p2,...|t1,t2,..."`` (prefix may be empty)."""
        if "|" not in text:
            raise ValueError(f"address literal needs a '|': {text!r}")
        head, _, rep = text.partition("|")
        try:
            prefix = tuple(int(tok) for tok in head.split(",") if tok.strip() != "")
            tail = tuple(int(tok) for tok in rep.split(",") if tok.strip() != "")
        except ValueError as exc:
            raise ValueError(f"bad address literal {text!r}") from exc
        if not tail:
            raise ValueError(f"address literal needs a nonempty tail: {text!r}")
        return ExternalAddress(prefix, tail)


@dataclass(frozen=True)
class HairPoint:
    """A pullback approximation of a point on a hair.

    ``residual`` is the distance between the pullbacks at ``depth`` and
    ``depth - 1``; ``converged`` records whether the requested tolerance
    was met (always True for plain fixed-depth traces).
    """

    address: ExternalAddress
    depth: int
    z: complex
    residual: float
    converged: bool = True


@dataclass(frozen=True)
class SeparationConfig:
    """Constants for the separating-set machinery.

    ``c`` is the half-plane offset (``Re z <= -c``), ``delta`` a strip
    padding, ``kappa`` the domination slack.
    """

    c: float
    delta: float
    kappa: float = 1.0

    def __post_init__(self) -> None:
        if not self.c >= 1.0:
            raise ValueError("c must be >= 1")
        if not self.delta >= _TWO_PI:
            raise ValueError("delta must be >= 2*pi")
        if not self.kappa > 0.0:
            raise ValueError("kappa must be positive")


def strip_index(z: complex) -> int:
    """Index k of the horizontal strip with ``(2k-1)*pi < Im(z) <= (2k+1)*pi``."""
    return math.ceil((z.imag - math.pi) / _TWO_PI)


def itinerary(p: Params, z: complex, n: int) -> tuple[int, ...]:
    """Strip indices of ``z, f(z), ..., f^(n-1)(z)``.

    Raises :class:`OverflowError` if the orbit leaves the directly
    representable range before ``n`` steps.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    out = []
    w = complex(z)
    for i in range(n):
        out.append(strip_index(w))
        if i + 1 < n:
            w = eval_map(p.a, w)
    return tuple(out)


def inverse_branch(p: Params, k: int, w: complex) -> complex:
    """The inverse of the map landing in strip ``k``.

    Computes ``Log(w - a) + 2*pi*i*k`` with the principal logarithm;
    raises a singular-input :class:`ValueError` when ``w == a`` (the
    omitted value has no preimage).
    """
    d = w - p.a
    if d == 0:
        raise ValueError("singular input: w equals the omitted value a")
    base = cmath.log(d)
    if base.imag == -math.pi:  # align with the (pi, -pi] branch-cut convention
        base = complex(base.real, math.pi)
    return base + complex(0.0, _TWO_PI * k)


def _pullback(p: Params, s: ExternalAddress, depth: int, anchor: complex) -> complex:
    """Apply the branches ``s_{depth-1}, ..., s_0`` innermost-first to ``anchor``."""
    z = complex(anchor)
    for i in range(depth - 1, -1, -1):
        z = inverse_branch(p, s.entry(i), z)
    return z


def trace_hair(
    p: Params, s: ExternalAddress, depth: int, anchor: float | complex | None = None
) -> HairPoint:
    """Point on the hair with address ``s`` via ``depth``-fold pullback.

    The anchor defaults to ``max(10, radius)``; the residual compares the
    pullbacks at ``depth`` and ``depth - 1``.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if anchor is None:
        anchor = max(10.0, p.radius)
    z = _pullback(p, s, depth, anchor)
    prev = _pullback(p, s, depth - 1, anchor) if depth > 1 else complex(anchor)
    return HairPoint(address=s, depth=depth, z=z, residual=abs(z - prev))


def endpoint_estimate(
    p: Params,
    s: ExternalAddress,
    tol: float = 1e-10,
    max_depth: int = 512,
    anchor: float | complex | None = None,
) -> HairPoint:
    """Deepen the pullback until the residual drops below ``tol``.

    Returns the last :class:`HairPoint`; ``converged`` is False when
    ``max_depth`` was reached first (addresses with rapidly growing
    entries need not have a reachable endpoint).
    """
    if not tol >= 1e-12:
        raise ValueError("tol must be >= 1e-12")
    if max_depth < 2:
        raise ValueError("max_depth must be >= 2")
    if anchor is None:
        anchor = max(10.0, p.radius)
    prev = _pullback(p, s, 1, anchor)
    best: Optional[HairPoint] = None
    for depth in range(2, max_depth + 1):
        z = _pullback(p, s, depth, anchor)
        residual = abs(z - prev)
        best = HairPoint(address=s, depth=depth, z=z, residual=residual,
                         converged=residual < tol)
        if residual < tol:
            return best
        prev = z
    return best


def separation_index(p: Params, z0: complex, z1: complex, depth: int) -> Optional[int]:
    """Least ``n < depth`` where the two orbits sit in different strips.

    Returns None when no mismatch occurs within ``depth`` steps; raises
    :class:`OverflowError` if either orbit leaves direct range first.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    w0, w1 = complex(z0), complex(z1)
    for n in range(depth):
        if strip_index(w0) != strip_index(w1):
            return n
        if n + 1 < depth:
            w0 = eval_map(p.a, w0)
            w1 = eval_map(p.a, w1)
    return None


def real_part_margin(p: Params, cfg: SeparationConfig) -> float:
    """Right half-plane margin ``max(R, c, log(1+2(|a|+delta)), log(5+|a|)) + 6``.

    Orbits pushed beyond this real part stay ahead of the separating set
    by a full strip; the value always dominates ``radius + 6``.
    """
    abs_a = abs(p.a)
    return (
        max(
            p.radius,
            cfg.c,
            math.log(1.0 + 2.0 * (abs_a + cfg.delta)),
            math.log(5.0 + abs_a),
        )
        + 6.0
    )


def _double_plus(t: TowerReal, kappa: float) -> TowerReal:
    """Tower for ``2*value(t) + kappa`` (exact where it matters).

    At level >= 2 the additive terms are far below one ulp of the
    mantissa, so the tower is unchanged.
    """
    if t.level == 0:
        return TowerReal.from_real(2.0 * t.mantissa + kappa)
    if t.level == 1:
        # log(2*e^m + kappa) = m + log(2 + kappa*e^-m)
        m = t.mantissa
        return TowerReal.normalized(1, m + math.log(2.0 + kappa * math.exp(-min(m, 745.0))))
    return t


def find_domination_index(
    p: Params,
    s: complex,
    z0: complex,
    kappa: float,
    depth: int,
    bailout: float = 1e10,
) -> Optional[int]:
    """Least ``n <= depth`` with ``|f^n(s)| > 2|f^n(z0)| + kappa`` and ``Re f^n(s) > 0``.

    ``s`` must classify as fast-escaping and ``z0`` must not (enforced;
    violations raise :class:`PreconditionError`).  Magnitudes are compared
    as towers; past the direct range the real-part sign is taken from the
    last in-range sample, which is positive whenever the growth model is
    in charge.
    """
    if not kappa > 0.0:
        raise ValueError("kappa must be positive")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    cls_depth = max(depth, 10)
    s_class = classify_point(p, s, cls_depth, bailout)
    if not isinstance(s_class, FastEscaping):
        raise PreconditionError(
            f"s must classify as FastEscaping, got {type(s_class).__name__}"
        )
    z0_class = classify_point(p, z0, cls_depth, bailout)
    if isinstance(z0_class, FastEscaping):
        raise PreconditionError("z0 must not classify as FastEscaping")
    s_zs, s_mags = _track(p.a, s, depth, bailout)
    z_zs, z_mags = _track(p.a, z0, depth, bailout)
    last_sign_positive = s.real > 0.0
    for n in range(depth + 1):
        if s_zs[n] is not None:
            last_sign_positive = s_zs[n].real > 0.0
        if not last_sign_positive:
            continue
        if s_mags[n].cmp(_double_plus(z_mags[n], kappa)) > 0:
            return n
    return None


class Membership:
    """Outcome of the separating-set test (string constants)."""

    HALFPLANE = "in-halfplane-part"
    ARC = "in-arc-part"
    OUTSIDE = "outside"


def _point_segment_distance(z: complex, u: complex, v: complex) -> float:
    """Distance from ``z`` to the segment ``[u, v]``."""
    d = v - u
    dd = d.real * d.real + d.imag * d.imag
    if dd == 0.0:
        return abs(z - u)
    t = ((z - u).real * d.real + (z - u).imag * d.imag) / dd
    t = max(0.0, min(1.0, t))
    return abs(z - (u + t * d))


def separating_set_membership(
    p: Params,
    cfg: SeparationConfig,
    sigma: Optional[Sequence[complex]],
    z: complex,
) -> str:
    """Locate ``z`` relative to the separating set.

    The half-plane part is exact: the image ``f(z)`` lies in the closed
    disc of radius ``e^-c`` around ``a`` iff ``Re z <= -c``.  The arc part
    tests whether ``f(z)`` comes within 1e-9 of the user-supplied polyline
    ``sigma``; with no polyline, everything right of the half-plane is
    outside.
    """
    if z.real <= -cfg.c:
        return Membership.HALFPLANE
    if sigma is not None and len(sigma) >= 1:
        w = eval_map(p.a, z)
        pts = [complex(q) for q in sigma]
        if len(pts) == 1:
            dist = abs(w - pts[0])
        else:
            dist = min(
                _point_segment_distance(w, pts[i], pts[i + 1])
                for i in range(len(pts) - 1)
            )
        if dist <= 1e-9:
            return Membership.ARC
    return Membership.OUTSIDE
