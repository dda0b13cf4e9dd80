"""Tests for the deterministic classification rasterizer."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expbouquet.classify import classify_point
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
)

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
    # the cell centre is R = 4, past the bailout at step 0: the model tower
    # e^4 + |a| equals M(R) exactly, so fast only with the growth model's |a|
    "model-adds-abs-a": _exp_spec(
        0.5, max_iter=3, viewport=(3.5, 4.5, -0.5, 0.5), size=1, bailout=0.5
    ),
}


def _scalar_verdict(p, z, depth, bailout):
    """(class name, exit step of EscapingSlow) by the scalar classifier."""
    got = classify_point(p, z, depth=depth, bailout=bailout)
    return type(got).__name__, getattr(got, "first_exit_step", None)


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
        with pytest.raises(ValueError):
            RenderSpec(map_kind="exponential", max_iter=0)
        with pytest.raises(ValueError):
            RenderSpec(map_kind="exponential", bailout=1e16)
        with pytest.raises(ValueError):
            RenderSpec(map_kind="exponential", coloring="rainbow")


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

    @pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS.values(), ids=DIFFERENTIAL_SPECS.keys())
    def test_matches_scalar_classifier(self, spec):
        p = Params(a=spec.a)
        tags, exits = classify_grid(spec, workers=1)
        x0, x1, y0, y1 = spec.viewport
        dx = (x1 - x0) / spec.width
        dy = (y1 - y0) / spec.height
        for i in range(spec.height):
            for j in range(spec.width):
                z = complex(x0 + (j + 0.5) * dx, y1 - (i + 0.5) * dy)
                name, exit_step = _scalar_verdict(p, z, spec.max_iter, spec.bailout)
                assert (name, exit_step) == (
                    TAG_NAMES[tags[i, j]],
                    exits[i, j] if tags[i, j] == TAG_SLOW else None,
                ), (i, j, z)


class TestEscapeCountColoring:
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


class TestKernelMemory:
    @staticmethod
    def _peak(spec):
        tracemalloc.start()
        try:
            classify_grid(spec, workers=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_max_iter(self):
        def peak(max_iter):
            return self._peak(_exp_spec(-2, max_iter=max_iter, size=64))

        assert peak(400) < 1.5 * peak(40)

    def test_moving_every_pixel_to_the_growth_model_copies_no_state(self):
        def peak(viewport):
            return self._peak(_exp_spec(-2, max_iter=60, size=64, viewport=viewport))

        all_escaping = (701.0, 709.0, -1.0, 1.0)  # every seed leaves at step 0
        all_basin = (-10.0, -8.0, -1.0, 1.0)
        assert peak(all_escaping) <= 1.5 * peak(all_basin)


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
        ],
        ids=["60", "5", "fixed-point-1000"],
    )
    def test_matches_pointwise_classifier(self, viewport, max_iter):
        from expbouquet.fatoufn import fatou_classify

        spec = RenderSpec(
            map_kind="fatou", viewport=viewport, width=12, height=10, max_iter=max_iter
        )
        tags, exits = classify_grid(spec, workers=1)
        x0, x1, y0, y1 = viewport
        dx = (x1 - x0) / 12
        dy = (y1 - y0) / 10
        for i in range(10):
            for j in range(12):
                z = complex(x0 + (j + 0.5) * dx, y1 - (i + 0.5) * dy)
                got = fatou_classify(z, depth=max_iter)
                assert (type(got).__name__, getattr(got, "first_exit_step", -1)) == (
                    TAG_NAMES[tags[i, j]],
                    exits[i, j],
                ), (i, j, z)

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
