"""Deterministic, parallel classification and escape-time rasterizer.

Each pixel is seeded at its cell center and classified with exactly the
same rules as :func:`expbouquet.classify.classify_point` (respectively
:func:`expbouquet.fatoufn.fatou_classify` for the drift map), evaluated
in vectorized form, in one forward pass that keeps no per-step history.
Each kernel iterates only the pixels that still need a step: the
exponential kernel keeps one direct set (points evaluated with ``exp``)
that a pixel leaves by the scalar track's switch predicate, its fast-escape
offset settled at the end of its block, with every other leaver's, by
the scalar classifier's own offset routine; or when it is trapped in a
nested chain of discs about an attracting cycle and retired as ``Basin``
(:func:`_trapping_discs`); or when it lands exactly on the singular value
``a`` and takes the singular orbit's tag (:func:`_singular_tags`); or at
``max_iter`` when it fails every period test that a ``Basin`` tag needs.
Every cut keeps the bytes of the full pass; :func:`_exp_block` and
:func:`_trapping_discs` have the arguments.  The drift kernel keeps a live
set of index, ``z`` and ``max |z|`` that pixels leave on underflow, or
from their first step with ``Re z >= 36`` on, where the real part alone
fixes the drift run, and the run so far is 0 for a seed and 1 wherever
it is read otherwise: a pixel exits in closed form when its run ends by
``max_iter``, and is ``Undecided`` when the run would have to pass
``2^53``, where the real part stops (:func:`_fatou_block` has the
argument).  Both kernels leave their sets through :func:`_cut`.  The
grid is cut into fixed horizontal blocks that are pure functions of the
render description, so output bytes are identical across runs, worker
counts and scheduling orders; a pool of threads in one process writes
the blocks into the result arrays (:func:`classify_grid`).
"""

from __future__ import annotations

import cmath
import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .classify import ATTRACT_CUT, CYCLE_DETECT_TOL, Attracting, classify_param
from .classify import _UNIT_ROUNDOFF, _direct_bound, _domination_table, _settle_bound
from .expmap import MAG_GUARD, RE_OVERFLOW, Params, _check_bailout, _check_count, _leaves, _reach
from .fatoufn import BOUNDED_BOX, DRIFT_THRESHOLD, DRIFT_WINDOW, _RE_UNDERFLOW

__all__ = [
    "RenderSpec",
    "ImageGrid",
    "default_viewport",
    "render",
    "colorize",
    "csv_text",
    "classify_grid",
    "escape_fraction",
    "write_pgm",
    "classification_csv",
    "TAG_NAMES",
]

# Pixel tag codes (values index the classification color table).
TAG_FAST = 0
TAG_SLOW = 1
TAG_BOUNDED = 2
TAG_BASIN = 3
TAG_UNDECIDED = 4

TAG_NAMES = ("FastEscaping", "EscapingSlow", "NonEscapingBounded", "Basin", "Undecided")

_CLASS_COLORS = np.array([0, 96, 192, 255, 128], dtype=np.uint8)

# Widest row of one 300 MB work block: the exponential kernel holds at most
# about 1 kB per pixel (43 tail rows plus per-step temporaries, when every
# pixel stays in the set, or a 32-byte record per pixel that exits within
# max_iter) whatever max_iter is, and a block holds at least one row.  A pool
# has ``workers`` blocks in flight in one process, so its kernels hold up to
# ``workers`` times this.
_MAX_WIDTH = 300_000

# Outward rounding of a trapping disc: a point whose computed distance to the
# centre is at most rho lies within rho * _WIDEN of it.
_WIDEN = 1.0 + 2.0**-40

# Drift map: from Re z = 36 the float real part steps by exactly fl(x + 1),
# which rises while x < 2^53 and moves at most once from 2^53 on, so a drift
# run ends iff its last step starts below 2^53 (see _fatou_block).
_SETTLE_RE = 36.0
_FROZEN_RE = 2.0**53


def default_viewport(map_kind: str, a: complex = 0j) -> tuple[float, float, float, float]:
    """Documented default viewports per map and parameter."""
    if map_kind == "exponential" and a == -2:
        return (-4.0, 8.0, -8.0, 8.0)
    return (-4.0, 10.0, -12.0, 12.0)


@dataclass(frozen=True)
class RenderSpec:
    """Full description of one raster: map, viewport, grid and coloring."""

    map_kind: str  # "exponential" | "fatou"
    a: complex = 0j
    viewport: tuple[float, float, float, float] | None = None
    width: int = 800
    height: int = 800
    max_iter: int = 60
    bailout: float = 1e10
    coloring: str = "classification"  # | "escape-count"

    def __post_init__(self) -> None:
        if self.map_kind not in ("exponential", "fatou"):
            raise ValueError(f"unknown map kind {self.map_kind!r}")
        if self.coloring not in ("classification", "escape-count"):
            raise ValueError(f"unknown coloring {self.coloring!r}")
        if self.viewport is None:
            object.__setattr__(self, "viewport", default_viewport(self.map_kind, self.a))
        x0, x1, y0, y1 = self.viewport
        # bounds every seed's modulus (math.hypot is inf where complex abs raises)
        corner = math.hypot(max(abs(x0), abs(x1)), max(abs(y0), abs(y1)))
        if not all(map(math.isfinite, (x0, x1, y0, y1, x1 - x0, y1 - y0, corner))):
            raise ValueError("viewport bounds, extents and corner modulus must be finite")
        if not (x0 < x1 and y0 < y1):
            raise ValueError("viewport must satisfy x_min < x_max, y_min < y_max")
        if not (0 < self.width <= _MAX_WIDTH and 0 < self.height <= 10**8 // self.width):
            raise ValueError(f"grid must be nonempty, width <= {_MAX_WIDTH}, width*height <= 1e8")
        _check_count("max_iter", self.max_iter)
        _check_bailout(self.bailout)
        if self.map_kind == "exponential":
            Params(self.a)  # the kernel's parameter check; the drift map ignores a
        object.__setattr__(self, "a", complex(self.a))


@dataclass(frozen=True)
class ImageGrid:
    """Row-major byte raster (top row first)."""

    width: int
    height: int
    pixels: bytes

    def __post_init__(self) -> None:
        if len(self.pixels) != self.width * self.height:
            raise ValueError("pixel buffer size does not match dimensions")


def _block_rows(spec: RenderSpec) -> int:
    """Rows per work block: fixed by the render description alone (never by worker count).

    The 300 MB budget is split by the width alone (see ``_MAX_WIDTH``).
    """
    return min(64, _MAX_WIDTH // spec.width)


def _pixel_centers(spec: RenderSpec, y_start: int, y_stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell-center seed coordinates for rows [y_start, y_stop)."""
    x0, x1, y0, y1 = spec.viewport
    dx = (x1 - x0) / spec.width
    dy = (y1 - y0) / spec.height
    xs = x0 + (np.arange(spec.width, dtype=np.float64) + 0.5) * dx
    ys = y1 - (np.arange(y_start, y_stop, dtype=np.float64) + 0.5) * dy
    return xs, ys


@lru_cache(maxsize=None)
def _trapping_discs(
    a: complex, depth: int, bailout: float
) -> tuple[tuple[complex, ...], tuple[tuple[float, ...], ...]] | None:
    """Nested disc chains that trap the attracting cycle of ``a``: ``(cycle, levels)``.

    The centres are the ``Attracting`` cycle ``c_0 .. c_{p-1}`` of
    ``classify_param(Params(a))``; ``levels[j]`` holds the radii
    ``rho^(j)_0 .. rho^(j)_{p-1}`` of the discs ``D^(j)_i = {|w - c_i| <=
    rho^(j)_i}``.  A point at computed distance ``<= rho_i`` from ``c_i`` is
    within ``r_i = rho_i (1 + 2^-40)`` of it, and then ``np.exp(w) + a`` is
    within ``rho_{i+1}`` of ``c_{i+1}`` (indices mod ``p``): ``|e^w -
    e^{c_i}| <= e^{Re c_i} expm1(r_i)``, the float ``c_{i+1}`` misses
    ``f(c_i)`` by ``|fl f(c_i) - c_{i+1}|``, and ``np.exp(w) + a`` and
    ``cmath.exp(c_i) + a`` each round by less than ``16u (e^{Re c_i + r_i}
    + |a| + |c_{i+1}| + 1)`` (each component of a complex ``exp`` is within
    a few ulps of ``e^{Re w}``, adding ``a`` rounds once).  ``rho_{i+1}`` is
    that sum, widened by ``1 + 2^-40`` for its own rounding.  Every level
    builds its chain this way; a disc must lie inside the direct track,
    ``(|c_i| + r_i)(1 + 2^-40) < min(bailout, 1e15)`` and ``Re c_i + r_i <=
    700``, so no point of it leaves the set.

    Level 0 starts from the ``rho_0`` that makes the largest radius about
    ``CYCLE_DETECT_TOL / 4`` and must close into itself, ``rho^(0)_p <=
    rho^(0)_0``, which radii this small can because ``prod e^{Re c_i} =
    |lambda| < 1``: a float orbit in ``D^(0)_i`` stays in the level-0 disc
    of its cycle index for ever.  None unless it closes, ``p <= min(32,
    depth)``, ``2 max r_i < CYCLE_DETECT_TOL`` (checked as the chain is
    built, so no radius past it reaches ``expm1``) and ``sum(Re c_i + r_i)
    + 4(p + 1)u(sum(|Re c_i| + r_i) + 1) < ATTRACT_CUT`` (a float sum of
    ``p`` terms errs by at most ``gamma_p`` times their absolute sum;
    Higham, *Accuracy and Stability of Numerical Algorithms*, section 4.2).

    Level ``j >= 1`` starts from ``rho^(j)_0 = 4^j rho^(0)_0`` and must
    close into level ``j - 1``, ``rho^(j)_p <= rho^(j-1)_0``; levels are
    added until one fails (``r_i <= 700`` keeps ``expm1`` finite).  A float
    orbit in ``D^(j)_k`` runs ``p - k`` steps along level ``j`` into
    ``D^(j-1)_0``, then ``k`` steps along level ``j - 1``: it is in
    ``D^(j-1)_k`` ``p`` steps later, and in ``D^(0)_k`` ``jp`` steps later.
    So the kernel retires a pixel found in level ``j`` at step ``n`` with
    the full pass's bytes when ``n + jp <= max_iter - p``, where the
    level-0 argument of :func:`_exp_block` takes over.
    """
    verdict = classify_param(Params(a))
    if not isinstance(verdict, Attracting) or verdict.period > min(32, depth):
        return None
    cycle, p = verdict.cycle, verdict.period
    grow = [math.exp(c.real) for c in cycle]  # Re c_i <= 700, else find_cycle raised
    inside = min(bailout, MAG_GUARD)

    def chain(rho: float, cap: float) -> list[float] | None:
        """Radii ``rho_0 .. rho_p`` from ``rho``; None once a disc breaks ``cap`` or the track."""
        radii = [rho]
        for i, c in enumerate(cycle):
            r, c_next = radii[i] * _WIDEN, cycle[(i + 1) % p]
            # also keeps expm1(r) and exp(Re c + r) finite
            if not (r < cap and (abs(c) + r) * _WIDEN < inside and c.real + r <= RE_OVERFLOW):
                return None
            eps = 16.0 * _UNIT_ROUNDOFF * (math.exp(c.real + r) + abs(a) + abs(c_next) + 1.0)
            miss = abs(cmath.exp(c) + a - c_next)
            radii.append((grow[i] * math.expm1(r) + miss + 2.0 * eps) * _WIDEN)
        return radii

    rho0 = 0.25 * CYCLE_DETECT_TOL / max(accumulate(grow[:-1], operator.mul, initial=1.0))
    radii = chain(rho0, 0.5 * CYCLE_DETECT_TOL)  # 2 r_i < CYCLE_DETECT_TOL
    if radii is None or radii[p] > radii[0]:
        return None
    wide = [r * _WIDEN for r in radii[:p]]
    window = sum(c.real + r for c, r in zip(cycle, wide))
    size = sum(abs(c.real) + r for c, r in zip(cycle, wide))
    if window + 4.0 * (p + 1) * _UNIT_ROUNDOFF * (size + 1.0) >= ATTRACT_CUT:
        return None
    levels = [tuple(radii[:p])]
    while (radii := chain(4.0 * levels[-1][0], RE_OVERFLOW)) and radii[p] <= levels[-1][0]:
        levels.append(tuple(radii[:p]))
    return cycle, tuple(levels)


@lru_cache(maxsize=None)
def _singular_tags(a: complex, depth: int, bailout: float) -> np.ndarray | None:
    """Tag of a pixel in the set with ``z_s == a``, for ``s = 0 .. max(0, depth - 32)``, or None.

    From step ``s`` on, such a pixel's points are the singular orbit ``w_k
    = f^k(a)``, computed here by the kernel's own ``np.exp(w) + a``: the
    two orbits can differ only in the sign of a zero component (``z_s ==
    a`` compares ``-0.0`` equal to ``0.0``), which no ``abs``, comparison
    or window sum sees.  If no point of ``w_0 .. w_{depth + 10}`` leaves by
    :func:`expbouquet.expmap._leaves` on ``np.hypot``, the kernel's
    predicate and modulus, the pixel never leaves (exit -1) and its tag is
    :func:`_basin_mask` on the tail rows ``w_{t - s}``, ``t = max(0, depth
    - 32) .. depth + 10``; otherwise None.  One vectorized basin test
    covers every ``s``: row ``t`` holds ``w_{t - s}`` at position ``s``.
    The table is read-only.

    NaN never leaves, yet no non-finite point passes unseen: the first one
    comes right after a point with ``Re w > 700``, which leaves.  From a
    finite ``w`` with ``Re w <= 700``, ``|exp(w)| <= e^700`` and ``exp(w) +
    a`` is finite, since ``|a| < 9e307`` (``Params`` checks ``3 + 2|a|``
    finite).
    """
    total = depth + 10
    orbit = [np.complex128(a)]
    with np.errstate(all="ignore"):
        for _ in range(total):
            orbit.append(np.exp(orbit[-1]) + a)
    w = np.array(orbit)
    if np.any(_leaves(w.real, np.hypot(w.real, w.imag), bailout)[1]):
        return None
    shifts = np.arange(max(0, depth - 32) + 1)
    rows = [w[t - shifts] for t in range(max(0, depth - 32), total + 1)]
    tags = np.where(_basin_mask(rows, depth), TAG_BASIN, TAG_BOUNDED).astype(np.uint8)
    tags.flags.writeable = False
    return tags


def _exp_caches(spec: RenderSpec) -> tuple[tuple | None, np.ndarray | None]:
    """The per-parameter caches :func:`_exp_block` reads: ``(discs, singular tags)``.

    Also builds the domination table that the kernel's offset bounds read
    (:func:`expbouquet.classify._direct_bound`), so one call leaves every
    cache of the kernel built; pool threads started after it only read them.
    """
    _domination_table(spec.a, spec.max_iter)
    return (
        _trapping_discs(spec.a, spec.max_iter, spec.bailout),
        _singular_tags(spec.a, spec.max_iter, spec.bailout),
    )


def _basin_mask(tail: list[np.ndarray], depth: int) -> np.ndarray:
    """Positions whose tail rows pass some period test of ``classify_point``'s basin rule.

    ``tail`` holds the points of steps ``max(0, depth - 32) .. depth + 10``,
    one row per step, in one order.  Position ``i`` passes period ``q <=
    min(32, depth)`` when its points ``q`` apart are within
    ``CYCLE_DETECT_TOL`` at ``depth`` and at ``depth + 10``, and the real
    parts of its last ``q`` points, summed in ascending step order as the
    scalar classifier sums them term for term, are below ``ATTRACT_CUT``.
    """
    z_depth, z_total = tail[-11], tail[-1]  # steps depth and depth + 10
    basin = np.zeros(z_total.size, dtype=bool)
    for q in range(1, min(32, depth) + 1):
        close = np.flatnonzero(~basin & (np.abs(z_depth - tail[-11 - q]) < CYCLE_DETECT_TOL))
        close = close[np.abs(z_total[close] - tail[-1 - q][close]) < CYCLE_DETECT_TOL]
        if close.size:
            acc = tail[-1 - q].real[close]
            for row in tail[-q:-1]:
                acc += row.real[close]
            basin[close[acc < ATTRACT_CUT]] = True
    return basin


def _cut(gone: np.ndarray, state: list[np.ndarray]) -> list[np.ndarray]:
    """Cut the sorted positions ``gone`` from the parallel arrays ``state``.

    The staying positions among the first ``m = gone.size`` move into the
    slots of the positions gone past them, then the first ``m`` are cut
    off: the set order changes, and every array of ``state`` changes alike.
    The arrays are written in place; the returned ones are views of them.
    """
    m = gone.size
    if not m:
        return state
    before = int(np.searchsorted(gone, m))
    into, stay = gone[before:], np.delete(np.arange(m), gone[:before])
    for arr in state:
        arr[into] = arr[stay]
    return [arr[m:] for arr in state]


def _exp_block(spec: RenderSpec, y_start: int, y_stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Classify one row block of an exponential-map raster.

    Returns (tags, exits) with shape (rows, width); exit is -1 where the
    orbit never crossed the bailout within ``max_iter`` steps.  One forward
    pass keeps one pixel set, the direct set: per pixel its raster index,
    point ``z`` (evaluated with ``exp``), ``|z|`` and running fast-escape
    offset bound.  A pixel leaves it by the scalar track's predicate
    :func:`expbouquet.expmap._leaves` and never comes back.  Its exit
    step, the rule of :func:`expbouquet.classify.classify_point`, is
    written then: the step itself if the predicate's ``past``, else the
    next (first growth-model) step, and -1 past ``max_iter``.

    The predicate runs on the pixels with ``np.abs(z)`` past
    :func:`expbouquet.expmap._reach` only, with the modulus
    ``np.hypot(Re z, Im z)`` taken on those candidates: libm ``hypot``, as
    Python's complex ``abs`` on the scalar side, so both sides decide on
    the same modulus.  The candidates are a superset of the pixels that
    leave: the bound is at most half of ``min(bailout, 700)``, and
    ``np.abs`` is within a few ulps of ``hypot``, far inside that factor
    of 2.

    The running offset bound is that of
    :func:`expbouquet.classify.classify_point`, by the same routines: a
    step in the set adds :func:`expbouquet.classify._direct_bound`, and
    the pixels that leave at a step ``n <= max_iter`` are recorded (raster
    index, ``n``, ``z_n``, the predicate's ``alone``, bound before ``n``)
    and get their final bounds in one
    :func:`expbouquet.classify._settle_bound` call at the end of the block
    (its docstring has the argument).  A pixel is fast iff that bound is
    ``<= max_iter - 3``.  Writing these tags last changes no
    byte: the pixels that leave, those retired into a disc below and
    those left in the set at the end are disjoint, since discs lie within
    the bailout, below ``1e15`` and at ``Re z <= 700``, so no pixel in a
    disc leaves.

    The orbit tail that basin detection reads is kept in set order: from
    step ``max(0, max_iter - 32)`` on, each step's ``z`` array is kept as
    that step's row, and each compaction of the set also runs over the
    rows kept so far, so position ``i`` of every row holds the point of
    ``pixel[i]``.  This gives the bytes of a pass over raster-order rows,
    where a pixel is NaN from the step it leaves or retires: its
    ``max_iter + 10`` test fails there, so only the pixels that never
    left can turn ``Basin``.  They are the set left at the end, and its
    rows hold their points, compared and summed in the same order.  At
    step ``max_iter`` the pixels that fail ``|z_max_iter - z_{max_iter-q}|
    < CYCLE_DETECT_TOL`` for every ``q <= min(32, max_iter)`` are retired:
    a ``Basin`` tag needs that test, and no exit is written past
    ``max_iter``, so they stay ``NonEscapingBounded`` with exit -1 as in
    the full pass.

    With :func:`_trapping_discs` around an attracting ``p``-cycle, a
    pixel whose ``z_n`` lies at a step ``n <= max_iter - p`` in the largest
    disc ``D^(j)_k`` of level ``j = min(J, (max_iter - n) // p - 1)`` (one
    disc test per step) is retired: cut from the set, tagged ``Basin`` with
    exit -1, skipped by basin detection.  The bytes are those of the full
    pass.  Its orbit runs through the discs of level ``j``, then ``j - 1``
    and so on, all inside the direct track, so it never leaves (no exit),
    and is in the level-0 disc ``D^(0)_k`` by step ``n + jp <= max_iter -
    p``.  From there every float point stays in the level-0 disc of its
    cycle index, and the ``q = p`` test passes at ``max_iter`` and
    ``max_iter + 10``: the compared points share a level-0 disc, those
    discs are narrower than ``CYCLE_DETECT_TOL``, and the window sums below
    ``ATTRACT_CUT``.  The tag does not record ``q``.

    A pixel still in the set at a step ``s <= max(0, max_iter - 32)`` with
    ``z_s == a`` is cut too, with exit -1 and the tag that
    :func:`_singular_tags` gives for ``s``, when that table exists.  The
    bytes are those of the full pass: its later points are the singular
    orbit's, computed by the same ``np.exp(z) + a``, up to the sign of a
    zero component, which no ``abs``, comparison or window sum sees.  The
    table exists only if the singular orbit meets no switch rule through
    step ``max_iter + 10``, so the pixel never leaves; and ``s <= max_iter
    - 32`` puts every tail row basin detection reads at a step ``>= s``,
    on the singular orbit, where the table ran the same basin test
    (:func:`_basin_mask`) on the same points.  A pixel that is both in a
    disc and on ``a`` gets ``Basin`` from both.  The scalar
    ``classify_point`` takes neither shortcut: it is their independent
    oracle.  At each such step one compare of the whole set with ``a``
    finds these pixels.

    The loop stops once the set is empty, and basin detection runs only on
    a nonempty set: an empty set has no step, no tail and no basin left.
    """
    a = spec.a
    depth = spec.max_iter
    total = depth + 10
    reach = _reach(spec.bailout)

    xs, ys = _pixel_centers(spec, y_start, y_stop)
    z = (xs[None, :] + 1j * ys[:, None]).reshape(-1)
    npix = z.size
    tail = []  # z at steps max(0, max_iter - 32) .. total, in set order

    discs, singular = _exp_caches(spec)
    last_retire = -1  # retire into a largest disc at steps n <= last_retire
    if discs is not None:
        cycle, levels = discs
        p = len(cycle)
        largest = []  # per level: centre, radius and centre modulus of its largest disc
        for radii in levels:
            i = int(np.argmax(radii))
            largest.append((cycle[i], radii[i], abs(cycle[i])))
        last_retire = depth - p
    last_singular = -1 if singular is None else max(0, depth - 32)

    # The direct set in set order: pixel[i] is the raster index of position
    # i, whose point is z[i].  Tags and exits are in raster order.
    pixel = np.arange(npix)
    offset = np.zeros(npix, dtype=np.int64)  # least admissible fast-escape offset
    exits = np.full(npix, -1, dtype=np.int64)
    tags = np.full(npix, TAG_BOUNDED, dtype=np.uint8)
    leavers = []  # per step n <= max_iter with exits: (n, raster index, z_n, alone, bound)

    with np.errstate(all="ignore"):
        az = np.abs(z)
        for n in range(total):
            # the scalar track's predicate, on the pixels past reach only
            cand = np.flatnonzero(az > reach)
            x, y = z.real[cand], z.imag[cand]
            past, leave, alone = _leaves(x, np.hypot(x, y), spec.bailout)
            if n <= depth:
                exiting = leave if n < depth else past  # others exit past depth
                out = cand[exiting]
                if out.size:
                    exits[pixel[out]] = np.where(past[exiting], n, n + 1)
                    leavers.append((n, pixel[out], z[out], alone[exiting], offset[out]))
            gone = cand[leave]  # sorted positions to cut from the set
            retired = []  # nonempty arrays of positions whose verdict is fixed now
            if n <= last_retire:
                # a pixel in level j at step n is in level 0 by step
                # n + jp <= max_iter - p
                ck, rk, mk = largest[min(len(largest) - 1, (depth - n) // p - 1)]
                # |z - c_k| >= ||z| - |c_k||: the complex distance runs on
                # the pixels the moduli leave in reach only.
                near = np.flatnonzero(np.abs(az - mk) <= rk)
                near = near[np.abs(z[near] - ck) <= rk]
                if near.size:
                    tags[pixel[near]] = TAG_BASIN
                    retired.append(near)
            if n <= last_singular:
                hit = np.flatnonzero(z == a)
                if hit.size:
                    tags[pixel[hit]] = singular[n]
                    retired.append(hit)
            if n == depth:
                # Only pixels with |z_max_iter - z_{max_iter-q}| < tol for
                # some q can turn Basin; the rest stay NonEscapingBounded.
                keep = np.zeros(z.size, dtype=bool)
                for row in tail:  # q = 1 .. min(32, max_iter)
                    keep |= np.abs(z - row) < CYCLE_DETECT_TOL
                bounded = np.flatnonzero(~keep)
                if bounded.size:
                    retired.append(bounded)
            if retired:
                cut = np.zeros(z.size, dtype=bool)
                cut[gone] = True
                for positions in retired:
                    cut[positions] = True
                gone = np.flatnonzero(cut)
            pixel, offset, z, az, *tail = _cut(gone, [pixel, offset, z, az, *tail])
            if not pixel.size:
                break
            if n < depth:
                np.maximum(offset, _direct_bound(a, depth, n, az), out=offset)
            if n >= depth - 32:  # basin detection reads these steps
                tail.append(z)
            z = np.exp(z) + a
            az = np.abs(z)

        # One settle for every pixel that exited within max_iter.
        if leavers:
            steps, out, *rest = zip(*leavers)
            steps = np.repeat(steps, [o.size for o in out])
            ell = _settle_bound(a, depth, steps, *map(np.concatenate, rest))
            tags[np.concatenate(out)] = np.where(ell <= depth - 3, TAG_FAST, TAG_SLOW)

        # Basin detection on the set left at max_iter + 10: the pixels
        # that never left (the loop ends early only on an empty set).
        if pixel.size:
            tail.append(z)
            tags[pixel[_basin_mask(tail, depth)]] = TAG_BASIN

    return tags.reshape(-1, spec.width), exits.reshape(-1, spec.width)


def _fatou_block(spec: RenderSpec, y_start: int, y_stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Classify one row block of a drift-map raster.

    Only the live set is iterated: per live pixel its raster index, point
    and running ``max |z|``.  A pixel leaves it on underflow
    (``Undecided``) or once its real part alone fixes its exit or its
    ``Undecided`` tag (below), in one cut per step (:func:`_cut`); the pass
    ends at ``max_iter`` or when the set is empty.

    At the top of step ``n`` a live pixel holds ``z = z_{n-1}``; let ``r``
    be the run of drifting steps through ``n - 1``, as ``fatou_classify``
    counts it.  If ``x = Re z >= 36`` and ``Im z`` is finite, every later
    real part is ``fl(x + 1)`` of the one before: ``|Re e^{-z}| <= e^{-36}
    ~ 2.3e-16`` is below half an ulp of ``fl(x + 1) >= 37`` (``2^-48 ~
    3.6e-15``), so ``(z + 1.0) + exp(-z)`` has real part ``fl(x + 1)`` (and
    ``Im z`` moves by less than 1).  That is ``> x`` below ``2^53``, and
    exactly ``x + 1`` from ``2^52`` on, where every double is an integer;
    ``2^53`` never moves (``fl(2^53 + 1) = 2^53``), and a larger ``x``
    moves at most once (by 2 when its last bit is odd; ties round to even).
    So the run ends, after ``10 - r`` more drifting steps, iff each of them
    starts below ``2^53``: iff ``x <= 2^53 - 10 + r``.  Past 50 its exit is
    then ``n - r``.  At ``x <= 50`` the run is 0 (a drifting step ends past
    50), ``x + k`` is exact in the binade ``[32, 64)`` and ``50 - x`` is
    exact by Sterbenz, so the real part first passes 50 after ``k* =
    floor(50 - x) + 1`` steps, and the exit is ``n + k* - 1``.  The pixel
    is decided at once, with no more complex steps, when that run ends by
    ``max_iter`` (``exit + DRIFT_WINDOW - 1 <= max_iter``): an exited
    pixel's tag does not read ``max |z|``.  If ``x > 2^53 - 10 + r``, the
    real part reaches ``2^53`` or more before the run ends, and from there
    no run reaches ``DRIFT_WINDOW``: the pixel never exits, and ``|z| >
    2^53 - 10`` is past ``BOUNDED_BOX``, so it is retired as ``Undecided``
    with exit -1.  Otherwise it keeps iterating, since its tag then depends
    on ``max |z|``.

    The kernel keeps no run: at a pixel's first step with ``x >= 36`` it
    is ``r = int(n > 1)`` wherever it is read.  At ``n = 1``, ``z`` is the
    seed, with run 0.  At ``n > 1``, ``z`` came by one step from a point
    with real part below 36, where no run survives (a drifting step ends
    past 50), so a step from there past 50 is a drifting step and ``r =
    1``.  ``r`` is read only in the exit ``n - r`` for ``x > 50`` and in
    ``x <= 2^53 - 10 + r``, where the ``+ r`` cannot matter for ``x <=
    50``.  A pixel left undecided at that first step is never decided
    later, although every later step reads ``r = 1`` too, because a later
    step never lowers the formula's exit: at a step ``n' > n`` with ``x' =
    Re z > 50`` it is ``n' - 1 >= n``, which is at least the exit ``n - r``
    of a first step past 50, and at least ``n + floor(50 - x)`` when ``x <=
    50`` (``x' = x + (n' - n) > 50``); at ``x' <= 50`` it is ``n' +
    floor(50 - x') = n + floor(50 - x)`` exactly.  A pixel that a later
    step retires as ``Undecided`` has ``|z| >= x' > 2^53 - 9``, past
    ``BOUNDED_BOX``, and no exit by ``max_iter``, so its tag and exit -1 are
    the full pass's.

    Every pixel that exits in the full pass is decided inside the pass: the
    first point of its run lies past 50 at the top of a step ``<=
    max_iter``, and a non-finite ``Im z`` there makes the next point NaN,
    which ends any run.  ``fatou_classify`` keeps its run and takes no
    shortcut: it is the independent oracle.
    """
    depth = spec.max_iter
    xs, ys = _pixel_centers(spec, y_start, y_stop)
    z = (xs[None, :] + 1j * ys[:, None]).reshape(-1)
    npix = z.size

    pixel = np.arange(npix)
    max_abs = np.abs(z)
    exits = np.full(npix, -1, dtype=np.int64)

    with np.errstate(all="ignore"):
        for n in range(1, depth + 1):
            x = z.real
            # the pixels to drop (Re z < -700) or to settle in closed form
            # (Re z >= 36); NaN is neither
            edge = np.flatnonzero((x < _RE_UNDERFLOW) | (x >= _SETTLE_RE))
            if edge.size:
                xe = x[edge]
                gone = xe < _RE_UNDERFLOW
                near = np.flatnonzero(~gone & np.isfinite(z.imag[edge]))
                xn, run = xe[near], int(n > 1)  # the drift run at a first step past 36
                ex = np.where(
                    xn > DRIFT_THRESHOLD,
                    n - run,
                    n + np.floor(DRIFT_THRESHOLD - xn).astype(np.int64),
                )
                ends = xn <= _FROZEN_RE - DRIFT_WINDOW + run  # else Undecided
                done = ends & (ex + (DRIFT_WINDOW - 1) <= depth)
                exits[pixel[edge[near[done]]]] = ex[done]
                gone[near[done | ~ends]] = True
                pixel, z, max_abs = _cut(edge[gone], [pixel, z, max_abs])
            if not pixel.size:
                break
            z = z + 1.0 + np.exp(-z)
            max_abs = np.maximum(max_abs, np.abs(z))

    tags = np.full(npix, TAG_UNDECIDED, dtype=np.uint8)
    tags[exits >= 0] = TAG_SLOW
    tags[pixel[max_abs <= BOUNDED_BOX]] = TAG_BOUNDED
    rows = y_stop - y_start
    return tags.reshape(rows, spec.width), exits.reshape(rows, spec.width)


def classify_grid(spec: RenderSpec, workers: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel classification tags and first-exit steps for a raster.

    Returns (tags, exits) of shape (height, width); exits hold -1 where
    the orbit never crossed the bailout.  ``workers`` affects speed only,
    never output bytes: the blocks are fixed by the render description,
    and each block's pixels are a pure function of it.  That covers the
    kernel's cuts, which give the tag and exit of the full pass
    (:func:`_exp_block` and :func:`_trapping_discs` have the arguments).

    Each block writes its rows into the two result arrays, inline for one
    worker or one block, else from a pool of ``workers`` threads in this
    process; NumPy releases the GIL inside the kernels' loops, so blocks
    overlap.  The kernel's caches (:func:`_exp_caches`) are built before
    the pool starts, so no two threads build the same entry, and the
    kernels read no other module state.  An error in a block propagates,
    the blocks not yet started are cancelled, and every pool thread has
    ended when the call returns.
    """
    if workers is None:
        try:
            workers = len(os.sched_getaffinity(0))
        except AttributeError:  # no CPU affinity on this platform
            workers = os.cpu_count() or 1
    rows = _block_rows(spec)
    blocks = [(y, min(y + rows, spec.height)) for y in range(0, spec.height, rows)]
    kernel = _exp_block if spec.map_kind == "exponential" else _fatou_block
    tags = np.empty((spec.height, spec.width), dtype=np.uint8)
    exits = np.empty((spec.height, spec.width), dtype=np.int64)

    def fill(y_start: int, y_stop: int) -> None:
        tags[y_start:y_stop], exits[y_start:y_stop] = kernel(spec, y_start, y_stop)

    if workers <= 1 or len(blocks) == 1:
        for block in blocks:
            fill(*block)
        return tags, exits
    if spec.map_kind == "exponential":
        _exp_caches(spec)  # built here, so no two threads build one entry
    pool = ThreadPoolExecutor(min(workers, len(blocks)))
    try:
        for done in [pool.submit(fill, *block) for block in blocks]:
            done.result()
    finally:
        pool.shutdown(cancel_futures=True)
    return tags, exits


def colorize(spec: RenderSpec, tags: np.ndarray, exits: np.ndarray) -> ImageGrid:
    """Color an already-classified grid (``classify_grid``'s output for ``spec``).

    Byte contract: the pixels are exactly those of ``render(spec)``, one
    byte per pixel, row-major.  Classification coloring maps each tag to
    its gray level; escape-count coloring is ``255*exit/max_iter`` rounded
    half to even, with never-exiting pixels at 255.
    """
    if spec.coloring == "classification":
        img = _CLASS_COLORS[tags]
    else:
        scaled = np.rint(255.0 * exits / spec.max_iter)
        scaled = np.where(exits < 0, 255.0, scaled)
        img = np.clip(scaled, 0.0, 255.0).astype(np.uint8)
    return ImageGrid(width=spec.width, height=spec.height, pixels=img.tobytes())


def render(spec: RenderSpec, workers: int | None = None) -> ImageGrid:
    """Rasterize ``spec`` to bytes; identical output for any worker count."""
    return colorize(spec, *classify_grid(spec, workers))


def escape_fraction(spec: RenderSpec, workers: int | None = None) -> float:
    """Fraction of pixels classified as escaping (slow or fast)."""
    tags, _ = classify_grid(spec, workers)
    return float(np.mean((tags == TAG_FAST) | (tags == TAG_SLOW)))


def write_pgm(grid: ImageGrid, path: str) -> None:
    """Write a binary PGM (P5, maxval 255, row-major, top row first)."""
    header = f"P5\n{grid.width} {grid.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(grid.pixels)


def csv_text(spec: RenderSpec, tags: np.ndarray, exits: np.ndarray) -> str:
    """Format an already-classified grid as the per-pixel CSV.

    Byte contract: the header ``x,y,tag,exit``, then one row
    ``x,y,TagName,exit`` per pixel in row-major order (top row first), the
    exit blank where it is negative (the orbit never exits); every line,
    the last included, ends in ``\\n``.  ``classification_csv`` and
    ``render --csv`` write exactly this text.  Rows are built from Python
    lists and precomputed pieces, with no per-pixel NumPy scalar access.
    """
    cols = [f"{x}," for x in range(spec.width)]
    tag_pieces = [f",{name}," for name in TAG_NAMES]
    exits = np.maximum(exits, -1)  # every negative exit formats as blank
    exit_pieces = [str(e) for e in range(int(exits.max()) + 1)] + [""]  # [-1] is blank
    lines = ["x,y,tag,exit"]
    for y, (trow, erow) in enumerate(zip(tags.tolist(), exits.tolist())):
        row = str(y)
        lines.extend(
            [c + row + tag_pieces[t] + exit_pieces[e] for c, t, e in zip(cols, trow, erow)]
        )
    lines.append("")
    return "\n".join(lines)


def classification_csv(spec: RenderSpec, workers: int | None = None) -> str:
    """Per-pixel dump ``x,y,tag,exit`` (exit blank when the orbit never exits).

    Byte contract: as :func:`csv_text` over ``classify_grid(spec, workers)``;
    the text does not depend on ``workers``.
    """
    return csv_text(spec, *classify_grid(spec, workers))
