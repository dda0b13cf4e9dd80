"""Tests for the deterministic classification rasterizer."""

import cmath
import hashlib
import math
import os
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expbouquet import classify, expmap
from expbouquet.classify import CYCLE_DETECT_TOL
from expbouquet.expmap import Params
from expbouquet.render import (
    TAG_BASIN,
    TAG_BOUNDED,
    TAG_FAST,
    TAG_NAMES,
    TAG_SLOW,
    TAG_UNDECIDED,
    ImageGrid,
    RenderSpec,
    classification_csv,
    classify_grid,
    colorize,
    csv_text,
    default_viewport,
    escape_fraction,
    render,
    write_pgm,
    _block_rows,
    _trapping_discs,
)
from expbouquet.towerfloat import exp_plus_array
from expbouquet.verify import differential_row
from test_classify import REPELLING_FP, _classify_point_eager

SMALL = RenderSpec(
    map_kind="exponential",
    a=-2 + 0j,
    viewport=(-4.0, 4.0, -3.0, 3.0),
    width=8,
    height=6,
    max_iter=50,
)


def _exp_spec(a, max_iter=20, size=24, **kw):
    return RenderSpec(
        map_kind="exponential", a=a, width=size, height=size, max_iter=max_iter, **kw
    )


def _around(c, half):
    return (c.real - half, c.real + half, c.imag - half, c.imag + half)


def _circle_seeds():
    """``{(bailout, i): z}``: 40 seeds on ``|z| = bailout`` per bailout, from ``default_rng(5)``."""
    rng = np.random.default_rng(5)
    return {
        (bailout, i): complex(bailout * math.cos(t), bailout * math.sin(t))
        for bailout in (1e10, 1e15, 300.0)
        for i, t in enumerate(rng.uniform(0.0, 2.0 * math.pi, 40))
    }


def _centred_on(z):
    """A viewport whose one cell centre is ``z`` exactly: ``z`` four ulps from each edge."""
    hx, hy = 4.0 * math.ulp(z.real), 4.0 * math.ulp(z.imag)
    return (z.real - hx, z.real + hx, z.imag - hy, z.imag + hy)


CIRCLE_SEEDS = _circle_seeds()

# A drift-map seed whose fifth iterate 45 + 999999.9989875001i lies on the box
# |z| = 1e6: NumPy's complex abs rounds its modulus to 1e6, libm hypot to one
# ulp past it, so fatou_classify calls it Undecided at max_iter 5.
BOX_SEED = complex(40.0, 999999.9989875001)


def _box_seeds():
    """``{(max_iter, i): z}``: drift seeds whose ``z_max_iter`` is near ``|z| = 1e6``.

    From ``Re z >= 36`` the real part steps by exactly 1 and ``Im z`` stays
    put (``|e^{-z}| <= e^{-36}`` is below half an ulp of either part), so
    ``z_N = (x + N) + iy``.  Per depth ``N``, six ``x`` from
    ``default_rng(6)`` keep ``x + N < 50``, where no drift run starts, and
    ``y`` runs over the double nearest ``sqrt(1e12 - (x + N)^2)`` and its two
    neighbours, of either sign.  Plus ``BOX_SEED`` at depth 5.
    """
    rng = np.random.default_rng(6)
    seeds = {(5, "seed"): BOX_SEED}
    for depth in (1, 5, 12):
        xs, signs = rng.uniform(36.0, 49.0 - depth, 6), rng.choice([-1.0, 1.0], 6)
        for i, (x, sign) in enumerate(zip(xs, signs)):
            y = sign * math.sqrt(1e12 - (x + depth) ** 2)
            for k in (-1, 0, 1):
                seeds[depth, 3 * i + k + 1] = complex(x, y + k * math.ulp(y))
    return seeds


BOX_SEEDS = _box_seeds()


# Centres of the largest trapping discs: the attracting fixed point of a = -2
# and the cycle point of 5+3.14i that is not a itself.
C_MINUS_2 = complex(-1.8414056604369606)
C_5_314 = complex(-143.41297087425414, 3.3763706506897426)
# The centre of the largest level-1 disc of the 26-cycle of 1.004+2.9i.
C_26 = complex(-9.565668510316987, -0.4809847589928222)
# A cycle point two steps after a, for a 5-cycle that also visits -3.7e13+8.6e13i.
A_FAR_LEFT = complex(4.082025805900676, -4.651131102089052)
C_FAR_LEFT = complex(3.362369758871525, -6.051336572262661)
FIGURE_PARAMS = (-2 + 0j, 5 + 3.14j, 2.06 + 1.57j, 1.004 + 2.9j)
# e^z = -800 here, so z_1 = a - 800 and e^{z_1} + a = a: z_2 is the singular
# value exactly (the real part of z_1 is far below the underflow of exp)
SINGULAR_SEED = complex(math.log(800), math.pi)


# Scalar/grid differential: SMALL, 24x24 grids of the four figure parameters
# and four more at two depths, plus edge grids at the branch boundaries.
DIFFERENTIAL_SPECS = {
    "small": SMALL,
    **{
        f"a={a}-iter{max_iter}": _exp_spec(a, max_iter)
        for a in (-2, 5 + 3.14j, 2.06 + 1.57j, 1.004 + 2.9j, 0.3, -0.5 + 1j, 2, -1.5)
        for max_iter in (20, 60)
    },
    # seeds on both sides of Re z = 700
    "seed-re-700": _exp_spec(-2, viewport=(690.0, 710.0, -5.0, 5.0), size=12),
    # first iterates on both sides of Re z = 700 (e^z - 2 = 700 at z = ln 702)
    "iterate-re-700": _exp_spec(
        -2,
        viewport=(math.log(702) - 0.02, math.log(702) + 0.02, -0.02, 0.02),
        size=12,
        bailout=1e15,
    ),
    "bailout-0.5": _exp_spec(-2, bailout=0.5, size=12),
    "bailout-34.5": _exp_spec(5 + 3.14j, bailout=34.5, size=12),
    "bailout-1e15": _exp_spec(1.004 + 2.9j, bailout=1e15, size=12),
    "iter-1": _exp_spec(-2, max_iter=1, size=12),
    "iter-2": _exp_spec(5 + 3.14j, max_iter=2, size=12),
    "iter-3": _exp_spec(2.06 + 1.57j, max_iter=3, size=12),
    # every seed has Re z > 700: the direct set is empty from step 1
    "all-leave-at-0": _exp_spec(-2, viewport=(701.0, 709.0, -1.0, 1.0), size=12),
    # inside the basin of the attracting fixed point -1.8414: no pixel leaves
    "never-leave": _exp_spec(-2, max_iter=200, viewport=(-3.0, 0.0, -0.5, 0.5), size=12),
    # right of the repelling fixed point 1.1462: bailout crossed at steps
    # 11-13, in the ten steps after max_iter; left of it, the basin
    "leave-after-depth": _exp_spec(
        -2, max_iter=8, viewport=(1.1462, 1.1463, -1e-5, 1e-5), size=12
    ),
    # within 1e-10 of the repelling fixed point: every seed passes the q = 1
    # test at max_iter, so the cut at max_iter keeps all of them, and fails
    # it at max_iter + 10 (NonEscapingBounded, by the scalar track)
    "cut-keeps-repelling-fixed-point": _exp_spec(
        -2, max_iter=4, viewport=_around(REPELLING_FP, 1e-10), size=12
    ),
    # the cell centre is R = 4, past the bailout at step 0: the model tower
    # e^4 + |a| equals M(R) exactly, so fast only with the growth model's |a|
    "model-adds-abs-a": _exp_spec(
        0.5, max_iter=3, viewport=(3.5, 4.5, -0.5, 0.5), size=1, bailout=0.5
    ),
    # the seed 1e15 + 2 is past a 1e15 bailout although log(1e15 + 2) rounds
    # to ln(1e15): it exits at step 0
    "bailout-1e15-tie": _exp_spec(
        0.5, max_iter=2, viewport=(1e15 + 1, 1e15 + 3, -1.0, 1.0), size=1, bailout=1e15
    ),
    # the parabolic fixed point 0 of a = -1 never exceeds a subnormal bailout
    "subnormal-bailout-zero": _exp_spec(
        -1, max_iter=20, viewport=(-1.0, 1.0, -1.0, 1.0), size=1, bailout=1e-320
    ),
    # Trapping discs.  Seeds straddling the edge of the largest disc (radius
    # 2.5e-7) of the 2-cycle of 5+3.14i: at max_iter = p those inside retire
    # at step 0; at max_iter < p there are no discs.
    **{
        f"disc-seeds-iter-{max_iter}": _exp_spec(
            5 + 3.14j, max_iter=max_iter, size=12, viewport=_around(C_5_314, 4e-7)
        )
        for max_iter in (1, 2)
    },
    # the same about the fixed point of a = -2, at max_iter = p and deeper
    **{
        f"disc-fixed-point-iter-{max_iter}": _exp_spec(
            -2, max_iter=max_iter, size=12, viewport=_around(C_MINUS_2, 4e-7)
        )
        for max_iter in (1, 60)
    },
    # seeds 2*pi*i above the fixed point land in its disc at step 1 > max_iter
    # - p: they stay NonEscapingBounded (|z_1 - z_0| = 2*pi), not Basin
    "disc-preimage-iter-1": _exp_spec(
        -2, max_iter=1, size=12, viewport=_around(C_MINUS_2 + 2j * math.pi, 1e-6)
    ),
    # Seeds 0.99e-6 to 1e-6 from C_26, inside its level-1 disc (radius 1e-6),
    # at max_iter = p = 26: the multiplier is -0.0096-0.042i, so z_26 - z_0
    # is about 1.01 (z_0 - C_26) and the q = 26 test fails at max_iter.
    # They stay NonEscapingBounded; retiring them one level early (level 1
    # at step 0, which reaches level 0 only at max_iter) would tag them Basin.
    "disc-level-1-edge-iter-26": _exp_spec(
        1.004 + 2.9j, max_iter=26, size=12,
        viewport=(C_26.real + 0.99e-6, C_26.real + 1e-6, C_26.imag - 5e-9, C_26.imag + 5e-9),
    ),
    # a uniform disc radius retires pixels here that stay NonEscapingBounded
    **{
        f"a=1.004+2.9i-iter200-bailout-{bailout:g}": _exp_spec(
            1.004 + 2.9j, max_iter=200, bailout=bailout
        )
        for bailout in (1e10, 1e15)
    },
    # the fixed point -1.8414 of a = -2 is past a bailout of 1: no discs, and
    # seeds about it exit at step 0
    "disc-past-bailout": _exp_spec(
        -2, max_iter=60, size=12, bailout=1.0, viewport=_around(C_MINUS_2, 4e-7)
    ),
    # parabolic: no discs
    "parabolic": _exp_spec(-1, max_iter=60),
    # pixels leave in the basin-detection tail window (steps 28-70) while
    # others stay to the end and turn Basin by the q = 26 test, not in a
    # disc: their tail rows must be compacted with the set
    "a=1.004+2.9i-leave-in-tail": _exp_spec(
        1.004 + 2.9j, max_iter=60, size=40, viewport=(0.5, 0.6, -1.2, -1.1)
    ),
    # Seeds whose z_2 is the singular value a exactly.  From step 2 on they
    # follow the singular orbit: at a = 1.004+2.9i the kernel cuts them at
    # step 2 when 2 <= max_iter - 32 (iter 34), and iterates them at iter 33;
    # a = -2-0i has a signed zero; the singular orbit of 0.3 escapes, so
    # there is no table and they are iterated.
    **{
        f"singular-value-{name}": _exp_spec(
            a, max_iter=max_iter, size=12, viewport=_around(SINGULAR_SEED, 0.01)
        )
        for name, a, max_iter in (
            ("iter-34", 1.004 + 2.9j, 34),
            ("iter-33", 1.004 + 2.9j, 33),
            ("signed-zero", complex(-2, -0.0), 60),
            ("escapes", 0.3, 60),
        )
    },
    # an attracting 5-cycle with a point at Re c = -3.7e13: its disc radii
    # grow past the range of expm1, so there are no discs; at a 1e15
    # bailout half the seeds about c_2 are Basin
    "cycle-far-left": _exp_spec(
        A_FAR_LEFT, max_iter=60, size=12, bailout=1e15, viewport=_around(C_FAR_LEFT, 0.1)
    ),
    # 1x1 grids on the circle |z| = bailout, where NumPy's complex abs and
    # libm hypot can round to opposite sides of the bailout: scalar and grid
    # must decide the switch on one modulus.  They check agreement only; on
    # the left half of the 1e10 and 1e15 circles e^z underflows and f(z) = a,
    # so a shared FastEscaping there is wrong on both sides.
    **{
        f"circle-{bailout:g}-{i}": _exp_spec(
            -2, max_iter=60, size=1, bailout=bailout, viewport=_centred_on(z)
        )
        for (bailout, i), z in CIRCLE_SEEDS.items()
    },
    # |z_0| < R = 4 (c(0) = 0, an offset term of 1 = max_iter - 2) while
    # |z_1| ~ 55 reaches M(R) as the table holds it: z_1 is past the bailout,
    # so the pixel leaves at step 1 = max_iter - 2 with no later term past
    # 0.  It is EscapingSlow only through the term of step max_iter - 3.
    "offset-window-edge": _exp_spec(
        0.5j, max_iter=3, size=1, bailout=10.0,
        viewport=_centred_on(complex(3.999832560033123, 0.0365990669125697)),
    ),
    # 1x1 drift grids whose last iterate lies on the box |z| = 1e6, where
    # NumPy's complex abs and libm hypot can round to opposite sides of it:
    # the bounded test must read one modulus on both sides
    **{
        f"box-{depth}-{i}": RenderSpec(
            "fatou", viewport=_centred_on(z), width=1, height=1, max_iter=depth
        )
        for (depth, i), z in BOX_SEEDS.items()
    },
}


def _random_specs(count):
    """Seeded random grids of at most 12x12 for the scalar/grid differential.

    Parameters in [-6, 6]^2, bailouts log-uniform in [1e-3, 1e15], short and
    figure depths; a quarter of the viewports straddle Re z = 700.
    """
    rng = np.random.default_rng(0)
    specs = {}
    for i in range(count):
        if i % 4 == 3:
            half = 10 ** rng.uniform(-2, 1.5)
            x0, y0 = 700.0 - half * rng.uniform(0.1, 1.9), rng.uniform(-4, 4)
        else:
            half = 10 ** rng.uniform(-3, 1)
            x0, y0 = rng.uniform(-8, 12, size=2)
        specs[f"random-{i}"] = RenderSpec(
            map_kind="exponential",
            a=complex(*rng.uniform(-6, 6, size=2)),
            viewport=(x0, x0 + 2 * half, y0, y0 + 2 * half),
            width=int(rng.integers(1, 13)),
            height=int(rng.integers(1, 13)),
            max_iter=int(rng.choice([1, 2, 3, 5, 20, 60])),
            bailout=float(10 ** rng.uniform(-3, 15)),
        )
    return specs


RANDOM_SPECS = _random_specs(40)


# The exponential-map edge grids of DIFFERENTIAL_SPECS: all but the parameter
# grids (named a=...) and the drift grids (named box-...).
EDGE_SPECS = {
    name: spec for name, spec in DIFFERENTIAL_SPECS.items()
    if not name.startswith(("a=", "box-"))
}


def _cell_centres(spec):
    """(row, column, seed) of every pixel, seeded at its cell centre."""
    x0, x1, y0, y1 = spec.viewport
    dx = (x1 - x0) / spec.width
    dy = (y1 - y0) / spec.height
    for i in range(spec.height):
        for j in range(spec.width):
            yield i, j, complex(x0 + (j + 0.5) * dx, y1 - (i + 0.5) * dy)


class TestRenderSpec:
    def test_defaults(self):
        spec = RenderSpec(map_kind="exponential", a=-2 + 0j)
        assert spec.viewport == (-4.0, 8.0, -8.0, 8.0)
        assert (spec.width, spec.height) == (800, 800)
        assert (spec.max_iter, spec.bailout) == (60, 1e10)
        assert spec.coloring == "classification"

    def test_default_viewports(self):
        assert default_viewport("exponential", -2 + 0j) == (-4.0, 8.0, -8.0, 8.0)
        assert default_viewport("exponential", 5 + 3.14j) == (-4.0, 10.0, -12.0, 12.0)
        assert default_viewport("fatou") == (-4.0, 10.0, -12.0, 12.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RenderSpec(map_kind="mandelbrot")
        with pytest.raises(ValueError):
            RenderSpec(map_kind="exponential", viewport=(1.0, 1.0, 0.0, 2.0))
        with pytest.raises(ValueError):
            RenderSpec(map_kind="exponential", width=0)
        with pytest.raises(ValueError):
            RenderSpec(map_kind="exponential", width=20000, height=20000)
        # past this width one row would exceed a work block's memory budget
        assert _block_rows(RenderSpec(map_kind="exponential", width=300_000, height=1)) == 1
        with pytest.raises(ValueError, match="width <= 300000"):
            RenderSpec(map_kind="exponential", width=300_001, height=1)
        with pytest.raises(ValueError):
            RenderSpec(map_kind="exponential", max_iter=0)
        with pytest.raises(ValueError):
            RenderSpec(map_kind="exponential", bailout=1e16)
        with pytest.raises(ValueError):
            RenderSpec(map_kind="exponential", coloring="rainbow")
        # the exponential kernel's parameter is checked at construction;
        # the drift map ignores it
        with pytest.raises(ValueError, match="finite"):
            RenderSpec(map_kind="exponential", a=complex("nan"))
        RenderSpec(map_kind="fatou", a=complex("nan"))

    @pytest.mark.parametrize("map_kind", ["exponential", "fatou"])
    @pytest.mark.parametrize(
        "viewport",
        [
            (-math.inf, 1.0, -1.0, 1.0),
            (-1.0, 1.0, -1.0, math.inf),
            (-1.0, math.nan, -1.0, 1.0),
            (-1e308, 1e308, -1.0, 1.0),  # finite bounds, infinite width
            (-1.0, 1.0, -1e308, 1e308),
            # finite extents, but no seed has a finite |z|: the kernels
            # tagged every pixel FastEscaping or Undecided
            (1.4e308, 1.6e308, 1.4e308, 1.6e308),
        ],
        ids=["inf-bound", "inf-top", "nan-bound", "inf-width", "inf-height", "inf-modulus"],
    )
    def test_non_finite_viewport_rejected(self, map_kind, viewport):
        # Otherwise every pixel gets one tag from a NaN or infinite seed.
        with pytest.raises(ValueError, match="finite"):
            RenderSpec(map_kind=map_kind, viewport=viewport)


class TestClassificationColors:
    def test_reference_pixels(self):
        grid = render(SMALL, workers=1)
        img = np.frombuffer(grid.pixels, dtype=np.uint8).reshape(6, 8)
        # Cell (row 3, col 2) contains -2+0i: in the attracting basin.
        assert img[3, 2] == 255
        # Cell (row 3, col 7) contains 3+0i: fast escaping.
        assert img[3, 7] == 0

    def test_single_pixel_on_the_attracting_fixed_point(self):
        eps = 1e-3
        spec = RenderSpec(
            map_kind="exponential",
            a=-2 + 0j,
            viewport=(-1.8414 - eps, -1.8414 + eps, -eps, eps),
            width=1,
            height=1,
        )
        assert render(spec, workers=1).pixels == b"\xff"

    def test_color_table_round_trip(self):
        tags, _ = classify_grid(SMALL, workers=1)
        img = np.frombuffer(render(SMALL, workers=1).pixels, dtype=np.uint8)
        colors = {
            TAG_FAST: 0,
            TAG_SLOW: 96,
            TAG_BOUNDED: 192,
            TAG_BASIN: 255,
            TAG_UNDECIDED: 128,
        }
        want = np.array([colors[t] for t in tags.ravel()], dtype=np.uint8)
        assert np.array_equal(img, want)

    @pytest.mark.parametrize(
        "spec",
        [*DIFFERENTIAL_SPECS.values(), *RANDOM_SPECS.values()],
        ids=[*DIFFERENTIAL_SPECS, *RANDOM_SPECS],
    )
    def test_matches_scalar_classifier(self, spec):
        _, ok, detail = differential_row(spec)
        assert ok, detail

    @pytest.mark.parametrize(
        "spec",
        [*EDGE_SPECS.values(), *RANDOM_SPECS.values()],
        ids=[*EDGE_SPECS, *RANDOM_SPECS],
    )
    def test_matches_eager_oracle(self, spec):
        # classify_point and the kernel share their offset routines; this
        # oracle builds every tower and searches every offset instead.
        p = Params(a=spec.a)
        tags, exits = classify_grid(spec, workers=1)
        for i, j, z in _cell_centres(spec):
            got = _classify_point_eager(p, z, spec.max_iter, spec.bailout)
            zs, _ = expmap._track(p.a, z, spec.max_iter, spec.bailout)
            exit_step = next(
                (n for n, w in enumerate(zs) if w is None or abs(w) > spec.bailout), -1
            )
            assert (type(got).__name__, exit_step) == (TAG_NAMES[tags[i, j]], exits[i, j]), (
                i, j, z,
            )


def test_circle_grids_centre_on_their_seeds():
    for (bailout, i), z in CIRCLE_SEEDS.items():
        spec = DIFFERENTIAL_SPECS[f"circle-{bailout:g}-{i}"]
        assert [w for _, _, w in _cell_centres(spec)] == [z]


def test_box_grids_centre_on_their_seeds():
    from expbouquet.fatoufn import fatou_eval

    for (depth, i), z in BOX_SEEDS.items():
        spec = DIFFERENTIAL_SPECS[f"box-{depth}-{i}"]
        assert [w for _, _, w in _cell_centres(spec)] == [z]
        w = z
        for _ in range(depth):
            w = fatou_eval(w)
        assert w == complex(z.real + depth, z.imag)
        assert abs(abs(w) - 1e6) <= 2 * math.ulp(1e6)


def _render_module():
    # by module object: the package's ``render`` attribute is the function
    return sys.modules["expbouquet.render"]


def _assert_figures_unchanged(monkeypatch, workers, name, replacement):
    """The four figure parameters at 64² classify alike with render.<name> replaced."""
    specs = [_exp_spec(a, max_iter=60, size=64) for a in FIGURE_PARAMS]
    want = [classify_grid(spec, workers=workers) for spec in specs]
    monkeypatch.setattr(_render_module(), name, replacement)
    for spec, (tags, exits) in zip(specs, want):
        got_tags, got_exits = classify_grid(spec, workers=workers)
        assert np.array_equal(got_tags, tags) and np.array_equal(got_exits, exits), spec.a


class TestTrappingDiscs:
    @pytest.mark.parametrize("a", FIGURE_PARAMS)
    def test_every_figure_parameter_has_discs(self, a):
        cycle, levels = _trapping_discs(a, 60, 1e10)
        radii = levels[0]
        assert len(cycle) == {-2: 1, 5 + 3.14j: 2, 2.06 + 1.57j: 3, 1.004 + 2.9j: 26}[a]
        assert 2 * max(radii) < CYCLE_DETECT_TOL

    def test_largest_discs_are_the_documented_centres(self):
        for a, centre in ((-2 + 0j, C_MINUS_2), (5 + 3.14j, C_5_314)):
            cycle, levels = _trapping_discs(a, 60, 1e10)
            radii = levels[0]
            assert cycle[int(np.argmax(radii))] == centre
        cycle, levels = _trapping_discs(1.004 + 2.9j, 26, 1e10)
        assert cycle[int(np.argmax(levels[1]))] == C_26

    @pytest.mark.parametrize("a", [-2 + 0j, 2.06 + 1.57j])
    def test_levels_nest_by_factors_of_four(self, a):
        cycle, levels = _trapping_discs(a, 60, 1e10)
        assert len(levels) - 1 >= 5
        for j, radii in enumerate(levels):
            assert len(radii) == len(cycle)
            assert radii[0] == 4.0**j * levels[0][0]

    @pytest.mark.parametrize(
        "a, depth, bailout",
        [
            (5 + 3.14j, 1, 1e10),  # max_iter < p = 2
            (1.004 + 2.9j, 25, 1e10),  # max_iter < p = 26
            (-2 + 0j, 60, 1.0),  # the fixed point -1.8414 is past the bailout
            (5 + 3.14j, 60, 100.0),  # |c_1| = 143.45 is past the bailout
            (-1 + 0j, 60, 1e10),  # ParabolicSuspect
            (0.3 + 0j, 60, 1e10),  # SingularValueEscapes
            # 5-cycles with a point far left of the imaginary axis: the radius
            # chain grows past the range of expm1 before it could close
            (A_FAR_LEFT, 60, 1e10),
            (3.099670344045821 - 1.6825568820886776j, 60, 1e10),
        ],
        ids=[
            "iter<p", "iter<p-26", "bailout-1", "bailout-100", "parabolic", "escapes",
            "far-left-cycle", "far-left-cycle-2",
        ],
    )
    def test_no_discs(self, a, depth, bailout):
        assert _trapping_discs(a, depth, bailout) is None

    @pytest.mark.parametrize("at_cut", [True, False], ids=["at-cut", "one-ulp-below"])
    def test_window_sum_plus_rounding_must_stay_below_the_cut(self, monkeypatch, at_cut):
        # ATTRACT_CUT moved onto the level-0 window sum of a = -2 plus its
        # rounding term rejects the chain; one ulp above that sum keeps it.
        module = _render_module()
        cycle, levels = _trapping_discs(-2 + 0j, 60, 1e10)
        wide = [r * module._WIDEN for r in levels[0]]
        window = sum(c.real + r for c, r in zip(cycle, wide))
        size = sum(abs(c.real) + r for c, r in zip(cycle, wide))
        edge = window + 4.0 * (len(cycle) + 1) * 2.0**-53 * (size + 1.0)
        cut = edge if at_cut else math.nextafter(edge, math.inf)
        monkeypatch.setattr(module, "ATTRACT_CUT", cut)
        _trapping_discs.cache_clear()
        try:
            got = _trapping_discs(-2 + 0j, 60, 1e10)
        finally:
            _trapping_discs.cache_clear()
        assert (got is None) == at_cut

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(FIGURE_PARAMS),
        st.data(),
        st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(-math.pi, math.pi)),
            min_size=1, max_size=16,
        ),
    )
    def test_float_orbits_stay_in_their_discs(self, a, data, polar):
        # Points up to the edge of D_i, stepped as the kernel steps them, stay
        # in D_{i+1 mod p}: the radii carry the rounding of np.exp(w) + a.
        cycle, levels = _trapping_discs(a, 60, 1e10)
        radii = levels[0]
        p = len(cycle)
        i = data.draw(st.integers(0, p - 1))
        c, rho = cycle[i], radii[i]
        w = np.array([c + rho * r * cmath.exp(1j * t) for r, t in polar + [(1.0, 0.0)]])
        w = w[np.abs(w - c) <= rho]
        for n in range(1, 201):
            w = np.exp(w) + a
            j = (i + n) % p
            assert np.all(np.abs(w - cycle[j]) <= radii[j]), (n, j)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(FIGURE_PARAMS),
        st.data(),
        st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(-math.pi, math.pi)),
            min_size=1, max_size=16,
        ),
    )
    def test_float_orbits_close_into_the_level_below(self, a, data, polar):
        # Points up to the edge of D^(j)_i, j >= 1, stepped as the kernel
        # steps them, are in D^(j-1)_i after p steps.
        cycle, levels = _trapping_discs(a, 60, 1e10)
        p = len(cycle)
        j = data.draw(st.integers(1, len(levels) - 1))
        i = data.draw(st.integers(0, p - 1))
        c, rho = cycle[i], levels[j][i]
        w = np.array([c + rho * r * cmath.exp(1j * t) for r, t in polar + [(1.0, 0.0)]])
        w = w[np.abs(w - c) <= rho]
        for _ in range(p):
            w = np.exp(w) + a
        assert np.all(np.abs(w - c) <= levels[j - 1][i]), (j, i)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_level_zero_alone_gives_the_same_bytes(self, monkeypatch, workers):
        discs = _render_module()._trapping_discs

        def level_zero(a, depth, bailout):
            cycle, levels = discs(a, depth, bailout)
            return cycle, levels[:1]

        _assert_figures_unchanged(monkeypatch, workers, "_trapping_discs", level_zero)


class TestSingularValueShortcut:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_table_gives_the_same_bytes(self, monkeypatch, workers):
        _assert_figures_unchanged(
            monkeypatch, workers, "_singular_tags", lambda a, depth, bailout: None
        )

    @pytest.mark.parametrize("max_iter, taken", [(34, True), (33, False)])
    def test_cut_only_up_to_max_iter_minus_32(self, monkeypatch, max_iter, taken):
        # Every seed has z_2 == a.  A table of Undecided tags shows which
        # pixels the kernel cut on it: all of them at step 2 <= max_iter - 32.
        module = _render_module()
        table = module._singular_tags(1.004 + 2.9j, max_iter, 1e10)
        assert table is not None and table.size == max_iter - 31
        monkeypatch.setattr(
            module, "_singular_tags", lambda a, depth, bailout: np.full_like(table, TAG_UNDECIDED)
        )
        spec = DIFFERENTIAL_SPECS[f"singular-value-iter-{max_iter}"]
        tags, exits = classify_grid(spec, workers=1)
        assert np.all((tags == TAG_UNDECIDED) == taken)
        assert np.all(exits == -1)

    def test_no_table_when_the_singular_orbit_leaves(self):
        module = _render_module()
        assert module._singular_tags(0.3, 60, 1e10) is None  # escapes
        assert module._singular_tags(-2, 60, 1.0) is None  # |a| = 2 is past the bailout
        assert module._singular_tags(-2, 60, 1e10) is not None


class TestEscapeCountColoring:
    def test_bailout_1e15_tie_exits_at_step_0(self):
        spec = DIFFERENTIAL_SPECS["bailout-1e15-tie"]
        assert render(replace(spec, coloring="escape-count"), workers=1).pixels == b"\x00"

    @staticmethod
    def _one_pixel(x0: float, bailout: float) -> RenderSpec:
        return RenderSpec(
            map_kind="exponential",
            a=-2 + 0j,
            viewport=(x0 - 1e-6, x0 + 1e-6, -1e-6, 1e-6),
            width=1,
            height=1,
            max_iter=510,
            bailout=bailout,
            coloring="escape-count",
        )

    def test_rounds_half_to_even(self):
        # |z_1| crosses a 0.5 bailout at step 1: 255*1/510 = 0.5 -> 0.
        assert render(self._one_pixel(0.3, 0.5), workers=1).pixels == b"\x00"
        # Crossing a 2.0 bailout at step 3 gives 1.5 -> 2.
        assert render(self._one_pixel(1.2, 2.0), workers=1).pixels == b"\x02"

    def test_never_exiting_pixel_saturates(self):
        spec = RenderSpec(
            map_kind="exponential",
            a=-2 + 0j,
            viewport=(-2.001, -1.999, -0.001, 0.001),
            width=1,
            height=1,
            coloring="escape-count",
        )
        assert render(spec, workers=1).pixels == b"\xff"


class TestDeterminism:
    def test_worker_counts_agree_byte_for_byte(self):
        spec = RenderSpec(
            map_kind="exponential", a=-2 + 0j, width=96, height=128, max_iter=40
        )
        base = render(spec, workers=1).pixels
        assert render(spec, workers=3).pixels == base
        assert render(spec, workers=8).pixels == base

    def test_drift_worker_counts_agree_byte_for_byte(self):
        spec = RenderSpec(map_kind="fatou", width=96, height=160, max_iter=60)
        assert _block_rows(spec) == 64  # three blocks, the last one short
        base = classify_grid(spec, workers=1)
        for workers in (3, 8):
            got = classify_grid(spec, workers=workers)
            assert all(np.array_equal(g, b) for g, b in zip(got, base)), workers

    def test_repeated_runs_identical(self):
        assert render(SMALL, workers=2).pixels == render(SMALL, workers=2).pixels

    def test_sub_viewport_consistency(self):
        full = RenderSpec(
            map_kind="exponential", a=-2 + 0j, viewport=(-4, 8, -8, 8),
            width=96, height=128, max_iter=40,
        )
        sub = RenderSpec(
            map_kind="exponential", a=-2 + 0j, viewport=(-1, 5, -4, 4),
            width=48, height=64, max_iter=40,
        )
        ftags, fexits = classify_grid(full, workers=2)
        stags, sexits = classify_grid(sub, workers=2)
        assert np.array_equal(ftags[32:96, 24:72], stags)
        assert np.array_equal(fexits[32:96, 24:72], sexits)


class TestSharedResults:
    def test_block_error_propagates_and_workers_are_reaped(self, monkeypatch):
        module = _render_module()
        kernel = module._exp_block

        def failing(spec, y_start, y_stop):
            if y_start:
                raise RuntimeError(f"block at row {y_start}")
            return kernel(spec, y_start, y_stop)

        monkeypatch.setattr(module, "_exp_block", failing)
        spec = _exp_spec(-2, max_iter=20, size=128)  # two 64-row blocks
        before = threading.enumerate()
        with pytest.raises(RuntimeError, match="block at row 64"):
            classify_grid(spec, workers=2)
        assert threading.enumerate() == before

    def test_more_workers_than_cores_fill_every_block(self):
        # 16 blocks written into the result arrays by 8 threads: a lost or
        # misplaced block write changes the bytes.
        spec = _exp_spec(1.004 + 2.9j, max_iter=40, size=16, viewport=(-1.0, 3.0, -2.0, 14.0))
        spec = replace(spec, height=1024)
        want = classify_grid(spec, workers=1)
        got = classify_grid(spec, workers=8)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_pool_starts_no_process(self, monkeypatch):
        def no_fork():
            raise AssertionError("classify_grid started a process")

        monkeypatch.setattr(os, "fork", no_fork)
        spec = _exp_spec(-2, max_iter=20, size=128)  # two 64-row blocks
        assert classify_grid(spec, workers=2)[0].shape == (128, 128)


class TestKernelMemory:
    @staticmethod
    def _peak_per_pixel(spec):
        # An untraced call first fills the parameter's caches (trapping
        # discs, domination table), so only the kernel's own state is traced.
        classify_grid(spec, workers=1)
        tracemalloc.start()
        try:
            classify_grid(spec, workers=1)
            return tracemalloc.get_traced_memory()[1] / (spec.width * spec.height)
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_max_iter(self):
        def peak(max_iter):
            return self._peak_per_pixel(_exp_spec(-2, max_iter=max_iter, size=64))

        shallow, deep = peak(40), peak(400)
        assert deep < 1.5 * shallow
        assert max(shallow, deep) <= 400

    def test_moving_every_pixel_to_the_growth_model_copies_no_state(self):
        def peak(viewport):
            return self._peak_per_pixel(_exp_spec(-2, max_iter=60, size=64, viewport=viewport))

        all_escaping = (701.0, 709.0, -1.0, 1.0)  # every seed leaves at step 0
        all_basin = (-10.0, -8.0, -1.0, 1.0)
        assert peak(all_escaping) <= 400
        assert peak(all_basin) <= 400


class TestKernelWork:
    @pytest.mark.parametrize(
        "a, bailout",
        [(-2, 1e10), (5 + 3.14j, 1e10), (-2, 0.5), (0.3, 1e-3)],
        ids=["a=-2", "a=5+3.14i", "a=-2-bailout-0.5", "a=0.3-bailout-1e-3"],
    )
    def test_towers_stop_soon_after_the_exit(self, monkeypatch, a, bailout):
        # A leaving pixel's offset settles within a few growth-model steps,
        # so exp_plus_array sees each escaping pixel a few times, not once
        # per step up to max_iter.
        sizes = []

        def counting(level, mantissa, c):
            sizes.append(level.size)
            return exp_plus_array(level, mantissa, c)

        monkeypatch.setattr(classify, "exp_plus_array", counting)
        spec = _exp_spec(a, max_iter=60, size=64, bailout=bailout)
        _, exits = classify_grid(spec, workers=1)
        escaping = int(np.count_nonzero(exits >= 0))
        assert escaping > 0
        assert sum(sizes) <= 4 * escaping

    @pytest.mark.parametrize(
        "a, viewport",
        [*((a, None) for a in FIGURE_PARAMS), (-2, (701.0, 709.0, -1.0, 1.0))],
        ids=[*(f"a={a}" for a in FIGURE_PARAMS), "all-escaping"],
    )
    def test_one_settle_per_block(self, monkeypatch, a, viewport):
        # The pixels that exit within max_iter are settled together at the
        # end of their block, not in one call per step that has leavers.
        sizes = []
        settle = classify._settle_bound

        def counting(a, depth, n, z, alone, bound):
            sizes.append(z.size)
            return settle(a, depth, n, z, alone, bound)

        monkeypatch.setattr(_render_module(), "_settle_bound", counting)
        spec = _exp_spec(a, max_iter=60, size=64, viewport=viewport)
        _, exits = classify_grid(spec, workers=1)
        assert len(sizes) <= -(-spec.height // _block_rows(spec))
        assert sum(sizes) == np.count_nonzero(exits >= 0) > 0

    @pytest.mark.parametrize("a", [-2, 1.004 + 2.9j], ids=["a=-2", "a=1.004+2.9i"])
    def test_offset_bound_reads_the_last_three_direct_steps(self, monkeypatch, a):
        # A tag reads only whether the offset bound is <= max_iter - 3, and a
        # step k <= max_iter - 4 bounds it by k + 1 <= max_iter - 3: each
        # leaver's bound reads at most its points at steps >= max_iter - 3.
        # At a = -2 no pixel leaves that late; at 1.004+2.9i some do.
        steps, points = [], []
        direct_bound = classify._direct_bound

        def counting(a, depth, k, mag):
            steps.append(k)
            points.append(mag.size)
            return direct_bound(a, depth, k, mag)

        monkeypatch.setattr(_render_module(), "_direct_bound", counting)
        spec = _exp_spec(a, max_iter=60, size=64)
        tags, _ = classify_grid(spec, workers=1)
        escaping = int(np.count_nonzero((tags == TAG_FAST) | (tags == TAG_SLOW)))
        assert escaping > 0
        assert sum(points) <= 3 * escaping
        assert all(k >= spec.max_iter - 3 for k in steps)


# A drift-map seed whose first step lands on Re z = 2^53 - 9 exactly (run 1).
# With Im z = 0 no seed can: each ulp of Re z near -36.74 moves the image by
# about 64, and the image's real part is even.  Here Re z + 1 = -37 and
# Re e^{-z} rounds to 2^53 + 28.  It is the centre of cell (4, 5) of a 12x10
# grid whose cells are 2^-46 wide and 2^-51 high (2 ulps of each part).
BAND_SEED = complex(-38.0, 1.2841385745966045)
_BAND_VIEWPORT = (
    BAND_SEED.real - 5.5 * 2.0**-46,
    BAND_SEED.real + 6.5 * 2.0**-46,
    BAND_SEED.imag - 5.5 * 2.0**-51,
    BAND_SEED.imag + 4.5 * 2.0**-51,
)


class TestFatouRendering:
    def test_tags_in_expected_alphabet(self):
        spec = RenderSpec(
            map_kind="fatou", viewport=(-4.0, 10.0, -12.0, 12.0),
            width=32, height=32, max_iter=80,
        )
        tags, exits = classify_grid(spec, workers=2)
        assert set(np.unique(tags)) <= {TAG_SLOW, TAG_BOUNDED, TAG_UNDECIDED}
        assert np.any(tags == TAG_SLOW)
        # Slow escape records the start of the certified drift run.
        assert np.all((exits >= 1) == (tags == TAG_SLOW))

    @pytest.mark.parametrize(
        "viewport, max_iter",
        [
            ((-3.0, 9.0, -7.0, 7.0), 60),
            ((-3.0, 9.0, -7.0, 7.0), 5),
            # the cell centre (3, 4) is i*pi, a fixed point in floating point:
            # it stays bounded for 1000 steps, long after the last exit
            ((-3.5, 8.5, math.pi - 5.5, math.pi + 4.5), 1000),
            # Closed-form exits.  Seeds on both sides of Re z = 36 are decided
            # at step 1 or 2, and seeds on both sides of Re z = 50 exit at 1.
            ((35.5, 36.5, -3.0, 3.0), 60),
            ((49.5, 50.5, -3.0, 3.0), 60),
            # Seeds at 2^52 - 11 .. 2^52 + 11, in closed form on both sides of
            # 2^52 (where every double becomes an integer), all exit at 1
            ((2.0**52 - 12, 2.0**52 + 12, -3.0, 3.0), 60),
            # Seeds at 2^53 - 14 and - 10 exit at 1, those at - 6 and - 2 reach
            # the frozen 2^53 before their run ends; those past it move at most once
            ((2.0**53 - 16, 2.0**53 + 32, -3.0, 3.0), 60),
            # Seeds at every integer from 2^53 - 12 to - 6, with run 0: up to
            # 2^53 - 10 their run ends below 2^53 (exit 1), from - 9 on it stalls
            ((2.0**53 - 12, 2.0**53 - 6, -3.0, 3.0), 60),
            # BAND_SEED lands on 2^53 - 9 at step 1 with run 1, so its run ends
            # below 2^53 (exit 1); the other seeds land within 2^53 +- 832: those
            # below 2^53 - 9 exit at 1, the rest past 2^53, where they are frozen
            (_BAND_VIEWPORT, 60),
            # Seeds at Re z 40.25 .. 40.75 first pass 50 at step 10, so their
            # run ends at step 19: exit 10 at max_iter 19; bounded at 18
            ((40.25, 40.75, -3.0, 3.0), 19),
            ((40.25, 40.75, -3.0, 3.0), 18),
            # Seeds about -4 enter from below 36: the first step lands at
            # Re z ~ 51.6 with run 1, so the run ends at step 10: exit 1 at
            # max_iter 10; bounded at 9
            ((-4.01, -3.99, -0.01, 0.01), 10),
            ((-4.01, -3.99, -0.01, 0.01), 9),
        ],
        ids=[
            "60", "5", "fixed-point-1000", "straddle-36", "straddle-50", "straddle-2^52",
            "straddle-2^53", "run-0-at-2^53-10", "run-1-at-2^53-9", "run-ends-at-max-iter",
            "run-ends-past-max-iter", "run-1-from-below-36", "run-1-from-below-36-past-max-iter",
        ],
    )
    def test_matches_pointwise_classifier(self, viewport, max_iter):
        spec = RenderSpec(
            map_kind="fatou", viewport=viewport, width=12, height=10, max_iter=max_iter
        )
        _, ok, detail = differential_row(spec)
        assert ok, detail

    def test_band_seed_lands_on_the_run_boundary(self):
        # one step from Re z < 36 to x = 2^53 - 9 with run 1: the run ends iff
        # x <= 2^53 - 10 + run, here with equality
        from expbouquet.fatoufn import fatou_eval

        x0, x1, y0, y1 = _BAND_VIEWPORT
        assert x0 + 5.5 * ((x1 - x0) / 12) == BAND_SEED.real
        assert y1 - 4.5 * ((y1 - y0) / 10) == BAND_SEED.imag
        assert fatou_eval(BAND_SEED).real == 2.0**53 - 9
        spec = RenderSpec("fatou", viewport=_BAND_VIEWPORT, width=12, height=10)
        assert classify_grid(spec, workers=1)[1][4, 5] == 1

    def test_golden_drift_map(self):
        spec = RenderSpec(map_kind="fatou", width=200, height=200, max_iter=60)
        digest = hashlib.sha256(render(spec, workers=2).pixels).hexdigest()
        assert digest == "942abe5a696d2f625d54ba14b1ea86bf2531d23e733cb5f0f5ccc585d61c9750"


class TestEscapeFraction:
    def test_all_basin_viewport(self):
        spec = RenderSpec(
            map_kind="exponential", a=-2 + 0j, viewport=(-10.0, -8.0, -1.0, 1.0),
            width=8, height=8,
        )
        assert escape_fraction(spec, workers=1) == 0.0

    def test_single_escaping_pixel(self):
        spec = RenderSpec(
            map_kind="exponential", a=-2 + 0j,
            viewport=(3.0 - 1e-6, 3.0 + 1e-6, -1e-6, 1e-6), width=1, height=1,
        )
        assert escape_fraction(spec, workers=1) == 1.0


class TestPgmAndCsv:
    def test_pgm_layout(self, tmp_path):
        grid = render(SMALL, workers=1)
        path = tmp_path / "out.pgm"
        write_pgm(grid, str(path))
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n8 6\n255\n")
        assert len(blob) == 11 + 48

    def test_single_zero_pixel_file(self, tmp_path):
        path = tmp_path / "one.pgm"
        write_pgm(ImageGrid(width=1, height=1, pixels=b"\x00"), str(path))
        blob = path.read_bytes()
        assert blob == b"P5\n1 1\n255\n\x00"

    def test_rewrite_is_byte_identical(self, tmp_path):
        grid = render(SMALL, workers=1)
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_pgm(grid, str(p1))
        write_pgm(grid, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_grid_size_validation(self):
        with pytest.raises(ValueError):
            ImageGrid(width=2, height=2, pixels=b"\x00")

    def test_classification_csv(self):
        text = classification_csv(SMALL, workers=1)
        lines = text.splitlines()
        assert lines[0] == "x,y,tag,exit"
        assert len(lines) == 1 + 48
        # Row for pixel (row 3, col 2): basin, never exits -> blank exit.
        row = lines[1 + 3 * 8 + 2].split(",")
        assert row[2] == "Basin" and row[3] == ""
        # Fast pixels carry their first exit step.
        fast_row = lines[1 + 3 * 8 + 7].split(",")
        assert fast_row[2] == "FastEscaping" and int(fast_row[3]) >= 1


def _csv_oracle(spec, tags, exits):
    """The per-pixel loop over NumPy scalars that ``csv_text`` replaced, kept as its oracle."""
    lines = ["x,y,tag,exit"]
    for y in range(spec.height):
        trow = tags[y]
        erow = exits[y]
        for x in range(spec.width):
            e = erow[x]
            lines.append(f"{x},{y},{TAG_NAMES[trow[x]]},{e if e >= 0 else ''}")
    return "\n".join(lines) + "\n"


# Classified grids for the formatter: 1x1, 1xN and Nx1 shapes, exits of one to
# three digits and blank ones, and every tag.  The drift grid's Undecided
# pixels are orbits that crossed Re z = -700.
CSV_SPECS = [
    RenderSpec("exponential", a=-2, viewport=(-2.001, -1.999, -0.001, 0.001), width=1, height=1),
    RenderSpec("exponential", a=-2, width=9, height=1, max_iter=30),
    RenderSpec("fatou", width=1, height=9, max_iter=150),
    RenderSpec("exponential", a=1.004 + 2.9j, width=12, height=12, max_iter=120,
               coloring="escape-count"),
    RenderSpec("fatou", width=12, height=12, max_iter=60),
]


class TestCsvText:
    @pytest.mark.parametrize("spec", CSV_SPECS)
    def test_matches_oracle_on_classified_grids(self, spec):
        tags, exits = classify_grid(spec, workers=1)
        text = csv_text(spec, tags, exits)
        assert text == _csv_oracle(spec, tags, exits)
        assert text == classification_csv(spec, workers=1)
        assert colorize(spec, tags, exits) == render(spec, workers=1)

    def test_specs_cover_every_tag_and_exit_width(self):
        tags_seen, widths_seen = set(), set()
        for spec in CSV_SPECS:
            tags, exits = classify_grid(spec, workers=1)
            tags_seen.update(TAG_NAMES[t] for t in np.unique(tags))
            widths_seen.update(len(str(e)) if e >= 0 else 0 for e in np.unique(exits))
        assert tags_seen == set(TAG_NAMES)
        assert widths_seen == {0, 1, 2, 3}
        shapes = {(s.width, s.height) for s in CSV_SPECS}
        assert (1, 1) in shapes and (9, 1) in shapes and (1, 9) in shapes

    @given(st.integers(1, 7), st.integers(1, 7), st.data())
    def test_matches_oracle_on_arbitrary_grids(self, width, height, data):
        n = width * height
        tags = np.array(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)),
                        dtype=np.uint8).reshape(height, width)
        exits = np.array(data.draw(st.lists(st.integers(-3, 1500), min_size=n, max_size=n)),
                         dtype=np.int64).reshape(height, width)
        spec = RenderSpec("exponential", width=width, height=height)
        assert csv_text(spec, tags, exits) == _csv_oracle(spec, tags, exits)
