"""Deterministic, parallel classification and escape-time rasterizer.

Each pixel is seeded at its cell center and classified with exactly the
same rules as :func:`expbouquet.classify.classify_point` (respectively
:func:`expbouquet.fatoufn.fatou_classify` for the drift map), evaluated
in vectorized form, in one forward pass that keeps no per-step history:
magnitude towers are (level, mantissa) arrays under the array tower ops
of :mod:`expbouquet.towerfloat`.  Each kernel iterates only the pixels
that still need a step: the exponential kernel keeps a direct set (points
evaluated with ``exp``) and a growth-model set (towers advanced with
``exp_plus``), the drift kernel a live set that pixels leave on underflow
or certified escape.  The grid is cut into fixed horizontal
blocks that are pure functions of the render description, so output bytes
are identical across runs, worker counts and scheduling orders.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass

import numpy as np

from .classify import ATTRACT_CUT, CYCLE_DETECT_TOL, _domination_table
from .expmap import MAG_GUARD, RE_OVERFLOW, _TINY
from .fatoufn import BOUNDED_BOX, DRIFT_THRESHOLD, DRIFT_WINDOW, _RE_UNDERFLOW
from .towerfloat import TowerReal, exp_plus_array, from_real_array, gt_array

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
        if not (x0 < x1 and y0 < y1):
            raise ValueError("viewport must satisfy x_min < x_max, y_min < y_max")
        if self.width < 1 or self.height < 1 or self.width * self.height > 10**8:
            raise ValueError("grid must be nonempty with width*height <= 1e8")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not 0.0 < self.bailout <= MAG_GUARD:
            raise ValueError("bailout must be in (0, 1e15]")
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

    The exponential kernel holds about 1 kB per pixel (the 43-row orbit
    tail plus per-step temporaries) whatever ``max_iter`` is, so its 300 MB
    budget is split by the width alone.
    """
    return int(max(1, min(64, 3 * 10**8 // (spec.width * 1000))))


def _pixel_centers(spec: RenderSpec, y_start: int, y_stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell-center seed coordinates for rows [y_start, y_stop)."""
    x0, x1, y0, y1 = spec.viewport
    dx = (x1 - x0) / spec.width
    dy = (y1 - y0) / spec.height
    xs = x0 + (np.arange(spec.width, dtype=np.float64) + 0.5) * dx
    ys = y1 - (np.arange(y_start, y_stop, dtype=np.float64) + 0.5) * dy
    return xs, ys


def _exp_block(spec: RenderSpec, y_start: int, y_stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Classify one row block of an exponential-map raster.

    Returns (tags, exits) with shape (rows, width); exit is -1 where the
    orbit never crossed the bailout within ``max_iter`` steps.  One forward
    pass keeps two pixel sets.  The direct set carries the current point,
    its modulus and the tower of that modulus; the growth-model set carries
    the tower alone, which ``exp_plus_array`` advances.  A pixel moves to
    the model set on the scalar track's switch rules and never back, so
    each step evaluates ``exp`` only on direct pixels and ``exp_plus`` only
    on model pixels.  Every pixel keeps its exit step and a running
    fast-escape offset bound; the direct set writes its points into the
    orbit rows basin detection reads, where model pixels stay NaN.

    That bound is the one :func:`expbouquet.classify._fast_offset` keeps
    (its docstring has the argument), over the same table
    :func:`expbouquet.classify._domination_table`: the running maximum of
    ``k + 1 - c(k)``, where ``c(k)`` counts the entries ``<= T_k``.  The
    pixel is fast iff that bound (at least 0) is ``<= max_iter - 3``.
    """
    a = spec.a
    depth = spec.max_iter
    total = depth + 10
    bail = TowerReal.from_real(spec.bailout)

    # M^0(R) .. M^depth(R) by level: first[L] entries lie below level L and
    # thresholds[j, L] is the j-th mantissa at L (inf past the last; the
    # last column stands for every higher level).
    towers = _domination_table(a, depth)
    levels = np.array([t.level for t in towers])
    first = np.searchsorted(levels, np.arange(levels[-1] + 2))
    rank = np.arange(levels.size) - first[levels]  # position within its level
    thresholds = np.full((rank.max() + 1, first.size), np.inf)
    thresholds[rank, levels] = [t.mantissa for t in towers]

    xs, ys = _pixel_centers(spec, y_start, y_stop)
    z = (xs[None, :] + 1j * ys[:, None]).reshape(-1)
    npix = z.size
    tail_from = max(0, depth - 32)  # basin detection reads steps tail_from .. total
    tail = np.full((total + 1 - tail_from, npix), np.nan, dtype=np.complex128)

    # Per-pixel state in set order: positions [0, nd) hold the direct set,
    # whose points are z (and moduli az), and [nd, npix) the model set;
    # pixel[i] is the raster index of position i.
    pixel = np.arange(npix)
    exits = np.full(npix, -1, dtype=np.int64)
    offset = np.zeros(npix, dtype=np.int64)  # least admissible fast-escape offset
    nd = npix

    with np.errstate(all="ignore"):
        az = np.abs(z)
        lv, mt = from_real_array(np.maximum(az, _TINY))
        for n in range(total + 1):
            if n >= tail_from:
                tail[n - tail_from, pixel[:nd]] = z
            if n <= depth:
                exits[(exits < 0) & gt_array(lv, mt, bail.level, bail.mantissa)] = n
                lvc = np.minimum(lv, first.size - 1)
                count = first[lvc]  # c(n)
                for row in thresholds:
                    count = count + (row[lvc] <= mt)
                offset = np.maximum(offset, n + 1 - count)
            if n == total:
                break

            # Switch rules, in the same priority order as the scalar track:
            # magnitude past the bailout (or the tower guard) first, then
            # real part past the direct-exp range.  Leavers swap places with
            # the last staying direct pixels: the model set grows to
            # [nd, npix) and no state is copied beyond the swapped entries.
            guard = (az > spec.bailout) | (az >= MAG_GUARD)
            reov = ~guard & (z.real > RE_OVERFLOW)
            leave = guard | reov
            if leave.any():
                nd -= int(np.count_nonzero(leave))
                holes = np.flatnonzero(leave[:nd])
                fill = nd + np.flatnonzero(~leave[nd:])
                swap, into = np.concatenate([holes, fill]), np.concatenate([fill, holes])
                for state in (pixel, exits, offset, lv, mt, z, reov):
                    state[swap] = state[into]
            over = nd + np.flatnonzero(reov[nd:])
            over_re = z.real[over]
            z = np.exp(z[:nd]) + a
            az = np.abs(z)
            if n >= depth:
                continue  # towers only feed the verdicts, which stop at depth

            lv[nd:], mt[nd:] = exp_plus_array(lv[nd:], mt[nd:], abs(a))
            # log-magnitude of the unrepresentable exp(z) is exactly Re z
            lv[over], mt[over] = 1, over_re
            lv[:nd], mt[:nd] = from_real_array(np.maximum(az, _TINY))

        back = np.argsort(pixel)  # set order -> raster order
        exits, offset = exits[back], offset[back]
        escaped = exits >= 0
        tags = np.full(npix, TAG_BOUNDED, dtype=np.uint8)
        tags[escaped] = np.where(offset[escaped] <= depth - 3, TAG_FAST, TAG_SLOW)

        bounded = ~escaped  # basin detection on bounded pixels
        if bounded.any():
            z_depth, z_total = tail[depth - tail_from], tail[-1]
            assigned = np.zeros(npix, dtype=bool)
            for q in range(1, min(32, depth) + 1):
                close = (
                    bounded
                    & ~assigned
                    & (np.abs(z_depth - tail[depth - tail_from - q]) < CYCLE_DETECT_TOL)
                    & (np.abs(z_total - tail[-1 - q]) < CYCLE_DETECT_TOL)
                )
                if not close.any():
                    continue
                # Ascending sequential window sum, matching the scalar
                # classifier's summation order term for term.
                acc = tail[-1 - q].real.copy()
                for row in tail[-q:-1]:
                    acc = acc + row.real
                close &= acc < ATTRACT_CUT
                tags[close] = TAG_BASIN
                assigned |= close

    return tags.reshape(-1, spec.width), exits.reshape(-1, spec.width)


def _fatou_block(spec: RenderSpec, y_start: int, y_stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Classify one row block of a drift-map raster.

    Only the live set is iterated: per live pixel its raster index, point,
    drift run and running ``max |z|``.  A pixel leaves it on underflow
    (``Undecided``) or when its drift run certifies escape (exit recorded);
    the pass ends at ``max_iter`` or when the set is empty.
    """
    depth = spec.max_iter
    xs, ys = _pixel_centers(spec, y_start, y_stop)
    z = (xs[None, :] + 1j * ys[:, None]).reshape(-1).astype(np.complex128)
    npix = z.size

    pixel = np.arange(npix)
    run = np.zeros(npix, dtype=np.int64)
    max_abs = np.abs(z)
    exits = np.full(npix, -1, dtype=np.int64)

    with np.errstate(all="ignore"):
        for n in range(1, depth + 1):
            under = z.real < _RE_UNDERFLOW
            if under.any():
                live = ~under
                pixel, z, run, max_abs = pixel[live], z[live], run[live], max_abs[live]
            if not pixel.size:
                break
            w = z + 1.0 + np.exp(-z)
            drifting = (w.real > DRIFT_THRESHOLD) & (w.real > z.real)
            run = np.where(drifting, run + 1, 0)
            hit = run == DRIFT_WINDOW
            if hit.any():
                exits[pixel[hit]] = n - DRIFT_WINDOW + 1
                live = ~hit
                pixel, w, run, max_abs = pixel[live], w[live], run[live], max_abs[live]
            z = w
            max_abs = np.maximum(max_abs, np.abs(z))

    tags = np.full(npix, TAG_UNDECIDED, dtype=np.uint8)
    tags[exits >= 0] = TAG_SLOW
    tags[pixel[max_abs <= BOUNDED_BOX]] = TAG_BOUNDED
    rows = y_stop - y_start
    return tags.reshape(rows, spec.width), exits.reshape(rows, spec.width)


def _classify_block(args: tuple[RenderSpec, int, int]) -> tuple[int, np.ndarray, np.ndarray]:
    spec, y_start, y_stop = args
    if spec.map_kind == "exponential":
        tags, exits = _exp_block(spec, y_start, y_stop)
    else:
        tags, exits = _fatou_block(spec, y_start, y_stop)
    return y_start, tags, exits


def classify_grid(spec: RenderSpec, workers: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel classification tags and first-exit steps for a raster.

    Returns (tags, exits) of shape (height, width); exits hold -1 where
    the orbit never crossed the bailout.  ``workers`` affects speed only,
    never output bytes.
    """
    if workers is None:
        try:
            workers = len(os.sched_getaffinity(0))
        except AttributeError:  # no CPU affinity on this platform
            workers = os.cpu_count() or 1
    rows = _block_rows(spec)
    blocks = [(spec, y, min(y + rows, spec.height)) for y in range(0, spec.height, rows)]
    tags = np.empty((spec.height, spec.width), dtype=np.uint8)
    exits = np.empty((spec.height, spec.width), dtype=np.int64)
    if workers <= 1 or len(blocks) == 1:
        results = map(_classify_block, blocks)
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(min(workers, len(blocks))) as pool:
            results = pool.map(_classify_block, blocks, chunksize=1)
    for y_from, btags, bexits in results:
        tags[y_from : y_from + btags.shape[0]] = btags
        exits[y_from : y_from + bexits.shape[0]] = bexits
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
