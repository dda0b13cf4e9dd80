"""End-to-end tests for the command-line surface: grammar, exit codes,
config merging, and output formats."""

import importlib
import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from expbouquet import verify
from expbouquet.classify import ConvergenceError
from expbouquet.cli import main, parse_complex
from expbouquet.render import RenderSpec, _block_rows, default_viewport
from expbouquet.symbolic import ExternalAddress, PreconditionError

# the module (the package attribute ``expbouquet.render`` is the function)
raster = importlib.import_module("expbouquet.render")

ATTRACTING_MULT = 0.15859433956303937

# The differential suite's a = -2, max_iter 60 grid, cut down to 8x8.
SMALL_DIFFERENTIAL = RenderSpec("exponential", a=-2, width=8, height=8, max_iter=60)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parsed_fields(line):
    return dict(item.split("=", 1) for item in line.split())


class TestParseComplex:
    @pytest.mark.parametrize(
        "text,want",
        [
            ("-2", -2 + 0j),
            ("-2+0i", -2 + 0j),
            ("3i", 3j),
            ("i", 1j),
            ("-i", -1j),
            ("+i", 1j),
            ("2-i", 2 - 1j),
            (".5i", 0.5j),
            ("1.5e-3-2.9i", 1.5e-3 - 2.9j),
            ("1e+5i", 1e5j),
            (" 3 i ", 3j),
            ("0.3", 0.3 + 0j),
            ("-1.25-0.5i", -1.25 - 0.5j),
        ],
    )
    def test_accepts(self, text, want):
        assert parse_complex(text) == want

    @pytest.mark.parametrize(
        "text",
        ["", "i2", "2+", "2++3i", "2+3j", "1e+", "nan", "2,3", "--2", "+-2", "e5"],
    )
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_complex(text)

    @given(
        re_=st.floats(allow_nan=False, allow_infinity=False),
        im=st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_round_trips_formatted_literals(self, re_, im):
        assert parse_complex(f"{re_:.17g}{im:+.17g}i") == complex(re_, im)


class TestArgumentErrors:
    def test_no_subcommand(self, capsys):
        code, _, err = run([], capsys)
        assert code == 2
        assert len(err.strip().splitlines()) == 1

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(["frobnicate"], capsys)
        assert code == 2
        assert "invalid choice" in err

    def test_bad_complex_flag(self, capsys):
        code, _, err = run(["classify-point", "--a", "bogus", "--z", "1"], capsys)
        assert code == 2
        assert err.startswith("expbouquet") and "error:" in err
        assert len(err.strip().splitlines()) == 1

    def test_missing_required_flag(self, capsys):
        code, _, err = run(["classify-param"], capsys)
        assert code == 2
        assert "--a is required" in err

    def test_bad_viewport(self, capsys):
        code, _, err = run(
            ["render", "--viewport", "1,2,3", "--out", "x.pgm"], capsys
        )
        assert code == 2
        assert "viewport" in err

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--viewport", "0,1,x,2", "bad viewport '0,1,x,2'"),
            ("--map", "julia", "unknown map 'julia'"),
            ("--coloring", "rainbow", "unknown coloring 'rainbow'"),
            ("--width", "1.5", "bad integer '1.5'"),
            ("--height", "0", "value must be >= 1, got 0"),
            ("--bailout", "big", "bad real 'big'"),
        ],
        ids=["viewport", "map", "coloring", "non-integer", "zero", "float"],
    )
    def test_bad_option_value(self, option, value, message, tmp_path, capsys):
        out = tmp_path / "x.pgm"
        code, _, err = run(["render", "--a=-2", f"{option}={value}", "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("expbouquet render: error: argument")
        assert message in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_nonpositive_size(self, capsys):
        code, _, err = run(
            ["render", "--width", "0", "--a", "-2+0i", "--out", "x.pgm"], capsys
        )
        assert code == 2

    def test_spec_validation_maps_to_argument_error(self, capsys):
        code, _, err = run(
            ["render", "--bailout", "1e16", "--a", "-2+0i", "--out", "x.pgm"], capsys
        )
        assert code == 2
        assert "bailout" in err

    def test_module_precondition_maps_to_argument_error(self, capsys):
        code, _, err = run(
            ["classify-point", "--a", "-2+0i", "--z", "1", "--bailout", "2e15"], capsys
        )
        assert code == 2
        assert "bailout" in err

    def test_infinite_viewport_width_is_an_argument_error(self, capsys):
        code, _, err = run(
            ["render", "--viewport=-1e308,1e308,-1,1", "--out", "x.pgm"], capsys
        )
        assert code == 2
        assert "finite" in err

    @pytest.mark.parametrize(
        "map_kind, z",
        [("exp", "1e309"), ("fatou", "1e309"),
         # finite parts, but complex abs raised OverflowError: exit 1
         ("exp", "1.5e308+1.5e308i"), ("fatou", "1.5e308+1.5e308i")],
        ids=["exp", "fatou", "exp-inf-modulus", "fatou-inf-modulus"],
    )
    def test_overflowing_seed_is_an_argument_error(self, map_kind, z, capsys):
        code, out, err = run(
            ["classify-point", "--map", map_kind, "--a", "-2", "--z", z], capsys
        )
        assert (code, out) == (2, "")
        assert "finite" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify-param"],
            ["classify-point", "--z", "1"],
            ["trace-hair", "--address", "|0"],
            ["trace-hair", "--address", "|0", "--depth", "3"],
            ["render", "--width", "2", "--height", "2", "--out", "x.pgm"],
        ],
        ids=["classify-param", "classify-point", "trace-hair", "trace-hair-depth", "render"],
    )
    def test_overflowing_parameter_modulus_is_an_argument_error(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        code, out, err = run([*argv, "--a", "1.5e308+1.5e308i"], capsys)
        assert (code, out) == (2, "")
        assert "finite" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "x.pgm").exists()

    @pytest.mark.parametrize("map_kind", ["exp", "fatou"])
    def test_overflowing_viewport_modulus_is_an_argument_error(self, map_kind, tmp_path, capsys):
        out_path = tmp_path / "x.pgm"
        code, _, err = run(
            ["render", "--map", map_kind, "--viewport=1.4e308,1.6e308,1.4e308,1.6e308",
             "--width", "2", "--height", "2", "--out", str(out_path)],
            capsys,
        )
        assert code == 2
        assert "finite" in err
        assert not out_path.exists()

    def test_width_past_one_row_per_block_is_an_argument_error(self, capsys):
        # Rejected before any pixel is classified.
        code, _, err = run(
            ["render", "--width", "300001", "--height", "1", "--out", "x.pgm"], capsys
        )
        assert code == 2
        assert "width <= 300000" in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(["--help"], capsys)
        assert code == 0
        assert "render" in out


# Each subcommand's library call (module attribute patched) and its argv.
LIBRARY_CALLS = [
    ("render", None, ["render", "--width", "2", "--height", "2", "--out", "x.pgm"]),
    ("classify-point", "classify_point", ["classify-point", "--a", "-2", "--z", "1"]),
    ("classify-point-fatou", "fatou_classify", ["classify-point", "--map", "fatou", "--z", "1"]),
    ("classify-param", "classify_param", ["classify-param", "--a", "-2"]),
    ("trace-hair", "endpoint_estimate", ["trace-hair", "--a", "-2", "--address", "|0"]),
    ("trace-hair-depth", "trace_hair",
     ["trace-hair", "--a", "-2", "--address", "|0", "--depth", "3"]),
    ("verify", "run_suite", ["verify", "tower"]),
]


class TestExitCodeRule:
    """Every ``ValueError`` is an argument error (2); the runtime errors give 1."""

    @pytest.mark.parametrize(
        "exc, want",
        [
            (ValueError("boom"), 2),
            (PreconditionError("boom"), 2),
            (ConvergenceError("boom"), 1),
            (OverflowError("boom"), 1),
            (OSError("boom"), 1),
        ],
        ids=["ValueError", "PreconditionError", "ConvergenceError", "OverflowError", "OSError"],
    )
    @pytest.mark.parametrize("name, target, argv", LIBRARY_CALLS, ids=[c[0] for c in LIBRARY_CALLS])
    def test_library_error_maps_to_exit_code(
        self, name, target, argv, exc, want, tmp_path, monkeypatch, capsys
    ):
        def fail(*args, **kwargs):
            raise exc

        if target is None:
            monkeypatch.setattr(raster, "classify_grid", fail)
        else:
            monkeypatch.setattr(f"expbouquet.cli.{target}", fail)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (want, "", "expbouquet: error: boom\n")
        assert not (tmp_path / "x.pgm").exists()


class TestClassifyCommands:
    def test_attracting_param_line(self, capsys):
        code, out, _ = run(["classify-param", "--a", "-2+0i"], capsys)
        assert code == 0
        line = out.strip()
        assert line.startswith("class=Attracting period=1 multiplier=")
        re_str, im_str = line.split("multiplier=")[1].split(",")
        assert math.isclose(float(re_str), ATTRACTING_MULT, abs_tol=1e-6)
        assert float(im_str) == pytest.approx(0.0, abs=1e-6)

    def test_parabolic_param_line(self, capsys):
        code, out, _ = run(["classify-param", "--a", "-1+0i"], capsys)
        assert code == 0
        line = out.strip()
        assert line.startswith("class=ParabolicSuspect period=1 ")
        re_str, im_str = line.split("multiplier=")[1].split(",")
        assert abs(complex(float(re_str), float(im_str)) - 1.0) < 1e-6

    def test_period_three_param(self, capsys):
        code, out, _ = run(["classify-param", "--a", "2.06+1.57i"], capsys)
        assert code == 0
        assert "period=3" in out

    def test_fast_escaping_point(self, capsys):
        code, out, _ = run(["classify-point", "--a", "-2+0i", "--z", "10"], capsys)
        assert code == 0
        assert out.strip() == "class=FastEscaping ell=0"

    def test_fast_escaping_point_with_radius_iterate_past_direct_range(self, capsys):
        # M(R) for a = -1.5 lies in (MM_DIRECT_MAX, 700], where |f|^2 on the
        # circle exceeds the double range.
        code, out, _ = run(["classify-point", "--a=-1.5", "--z", "3"], capsys)
        assert code == 0
        assert out.strip() == "class=FastEscaping ell=1"

    def test_fatou_point_needs_no_parameter(self, capsys):
        code, out, _ = run(["classify-point", "--map", "fatou", "--z", "10"], capsys)
        assert code == 0
        assert out.strip() == "class=EscapingSlow exit=40"

    def test_fatou_undecided(self, capsys):
        code, out, _ = run(["classify-point", "--map", "fatou", "--z", "-800"], capsys)
        assert code == 0
        assert out.strip() == "class=Undecided"

    def test_negative_imaginary_literal_as_flag_value(self, capsys):
        code, out, _ = run(["classify-point", "--a", "-i", "--z", "-i"], capsys)
        assert code == 0
        assert out.startswith("class=")


# ``render --csv`` argument lists and the spec each one describes.
CSV_CASES = [
    (
        ["--a", "-2+0i", "--width", "4", "--height", "4", "--max-iter", "20"],
        RenderSpec("exponential", a=-2, width=4, height=4, max_iter=20),
    ),
    # 70 and 66 rows: taller than one 64-row block, so assembled from two
    (
        ["--a", "1.004+2.9i", "--width", "5", "--height", "70", "--max-iter", "40",
         "--coloring", "escape-count"],
        RenderSpec("exponential", a=1.004 + 2.9j, width=5, height=70, max_iter=40,
                   coloring="escape-count"),
    ),
    (
        ["--map", "fatou", "--width", "6", "--height", "66", "--max-iter", "30"],
        RenderSpec("fatou", width=6, height=66, max_iter=30),
    ),
    (
        ["--map", "fatou", "--width", "3", "--height", "5", "--max-iter", "30",
         "--coloring", "escape-count"],
        RenderSpec("fatou", width=3, height=5, max_iter=30, coloring="escape-count"),
    ),
]


class TestRenderCommand:
    def test_writes_pgm(self, tmp_path, capsys):
        out_path = tmp_path / "fig.pgm"
        code, _, _ = run(
            [
                "render", "--map", "exp", "--a", "-2+0i",
                "--width", "16", "--height", "12", "--max-iter", "30",
                "--out", str(out_path),
            ],
            capsys,
        )
        assert code == 0
        blob = out_path.read_bytes()
        header = b"P5\n16 12\n255\n"
        assert blob.startswith(header)
        assert len(blob) == len(header) + 16 * 12

    def test_writes_csv_alongside(self, tmp_path, capsys, monkeypatch):
        """``--csv`` reuses the render's one classification; bytes are unchanged."""
        classify_grid = raster.classify_grid
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return classify_grid(*args, **kwargs)

        monkeypatch.setattr(raster, "classify_grid", counting)
        for i, (flags, spec) in enumerate(CSV_CASES):
            want_pgm = tmp_path / f"want{i}.pgm"
            raster.write_pgm(raster.render(spec, workers=1), str(want_pgm))
            want_csv = raster.classification_csv(spec, workers=1)
            out_path = tmp_path / f"fig{i}.pgm"
            csv_path = tmp_path / f"fig{i}.csv"
            calls.clear()
            code, _, _ = run(
                ["render", *flags, "--threads", "1", "--out", str(out_path),
                 "--csv", str(csv_path)],
                capsys,
            )
            assert code == 0
            assert calls == [spec]
            assert out_path.read_bytes() == want_pgm.read_bytes()
            text = csv_path.read_text(encoding="utf-8")
            assert text == want_csv
            lines = text.splitlines()
            assert lines[0] == "x,y,tag,exit"
            assert len(lines) == 1 + spec.width * spec.height

    def test_csv_cases_span_two_blocks(self):
        for kind in ("exponential", "fatou"):
            assert any(
                spec.map_kind == kind and spec.height > _block_rows(spec) for _, spec in CSV_CASES
            )

    def test_missing_out_flag(self, capsys):
        code, _, err = run(["render", "--a", "-2+0i"], capsys)
        assert code == 2
        assert "--out is required" in err

    def test_unwritable_output_is_runtime_error(self, capsys):
        code, _, err = run(
            [
                "render", "--a", "-2+0i", "--width", "2", "--height", "2",
                "--max-iter", "10", "--out", "/nonexistent-dir-xyz/f.pgm",
            ],
            capsys,
        )
        assert code == 1
        assert err.startswith("expbouquet: error:")

    def test_thread_count_does_not_change_bytes(self, tmp_path, capsys):
        blobs = []
        for threads in ("1", "2"):
            out_path = tmp_path / f"t{threads}.pgm"
            code, _, _ = run(
                [
                    "render", "--a", "-2+0i", "--width", "32", "--height", "96",
                    "--max-iter", "30", "--threads", threads, "--out", str(out_path),
                ],
                capsys,
            )
            assert code == 0
            blobs.append(out_path.read_bytes())
        assert blobs[0] == blobs[1]


class TestConfigFile:
    def test_config_supplies_options(self, tmp_path, capsys):
        out_path = tmp_path / "fig.pgm"
        cfg = tmp_path / "render.cfg"
        cfg.write_text(
            "# raster settings\n"
            "a = -2+0i\n"
            "width = 40\n"
            "height = 30\n"
            "max-iter = 25\n"
            f"out = {out_path}\n"
        )
        code, _, _ = run(["render", "--config", str(cfg)], capsys)
        assert code == 0
        assert out_path.read_bytes().startswith(b"P5\n40 30\n255\n")

    def test_flags_override_config(self, tmp_path, capsys):
        out_path = tmp_path / "fig.pgm"
        cfg = tmp_path / "render.cfg"
        cfg.write_text(
            f"a = -2+0i\nwidth = 40\nheight = 30\nmax-iter = 25\nout = {out_path}\n"
        )
        code, _, _ = run(
            ["render", "--config", str(cfg), "--height", "20"], capsys
        )
        assert code == 0
        assert out_path.read_bytes().startswith(b"P5\n40 20\n255\n")

    def test_config_for_classifier(self, tmp_path, capsys):
        cfg = tmp_path / "param.cfg"
        cfg.write_text("a = -2+0i\n")
        code, out, _ = run(["classify-param", "--config", str(cfg)], capsys)
        assert code == 0
        assert out.startswith("class=Attracting period=1")

    def test_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("wobble = 3\n")
        code, _, err = run(["classify-param", "--config", str(cfg)], capsys)
        assert code == 2
        assert "unknown config key" in err

    def test_bad_value(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("a = -2+0i\nwidth = -3\n")
        code, _, err = run(
            ["render", "--config", str(cfg), "--out", "x.pgm"], capsys
        )
        assert code == 2
        assert "config key 'width'" in err

    def test_malformed_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        code, _, err = run(["classify-param", "--config", str(cfg)], capsys)
        assert code == 2
        assert "expected 'key = value'" in err

    def test_missing_file(self, capsys):
        code, _, err = run(
            ["classify-param", "--config", "/no/such/file.cfg"], capsys
        )
        assert code == 2


class TestTraceHair:
    def test_endpoint_line(self, capsys):
        code, out, _ = run(
            ["trace-hair", "--a", "-2+0i", "--address", "|0", "--tol", "1e-8"],
            capsys,
        )
        assert code == 0
        fields = parsed_fields(out.strip())
        assert fields["address"] == str(ExternalAddress.parse("|0"))
        re_str, im_str = fields["z"].split(",")
        assert math.isclose(float(re_str), 1.1461932206205827, abs_tol=1e-6)
        assert abs(float(im_str)) < 1e-6
        assert float(fields["residual"]) < 1e-8
        assert fields["converged"] == "true"

    def test_fixed_depth_line(self, capsys):
        code, out, _ = run(
            ["trace-hair", "--a", "-2+0i", "--address", "0,1|0", "--depth", "12"],
            capsys,
        )
        assert code == 0
        fields = parsed_fields(out.strip())
        assert fields["depth"] == "12"
        assert fields["converged"] in ("true", "false")

    @pytest.mark.parametrize("depth", [[], ["--depth", "3"]], ids=["endpoint", "fixed-depth"])
    def test_overflowing_anchor_is_an_argument_error(self, depth, capsys):
        code, out, err = run(
            ["trace-hair", "--a", "-2", "--address", "|0", "--anchor", "1e309", *depth], capsys
        )
        assert (code, out) == (2, "")
        assert "finite" in err

    def test_address_requires_pipe(self, capsys):
        code, _, err = run(
            ["trace-hair", "--a", "-2+0i", "--address", "0"], capsys
        )
        assert code == 2
        assert "address" in err


MAXMOD_PARAMS = ("-2+0i", "-1+0i", "5+3.14i", "2.06+1.57i", "1.004+2.9i")
RUNTIME_DETAIL = re.compile(r"\d+\.\d{3}s \(budget \d+s\)")


class TestVerifyCommand:
    @pytest.mark.parametrize(
        "suite, names",
        [
            ("maxmod", [f"maxmod-oracle[a={a}]" for a in MAXMOD_PARAMS] + ["maxmod-oracle-runtime"]
             + [f"maxmod-growth[a={a}]" for a in MAXMOD_PARAMS] + ["maxmod-growth-runtime"]),
            ("semiconj", ["semiconj-residual", "semiconj-periodicity",
                          "semiconj-fixed-points", "semiconj-runtime"]),
            ("separation", ["endpoint-zero-address", "endpoint-one-address", "endpoint-runtime",
                            "itinerary-prefixes", "pairwise-separation", "separation-runtime"]),
            ("lemma7", ["domination[kappa=1000]", "domination[kappa=30000]",
                        "domination-monotone", "domination-runtime",
                        "margin-exact", "margin-dominates-radius", "margin-runtime"]),
            ("tower", ["tower-roundtrip", "tower-monotone", "tower-ordinary-range",
                       "tower-runtime"]),
        ],
    )
    def test_suite_all_ok(self, suite, names, capsys):
        code, out, _ = run(["verify", suite], capsys)
        lines = out.strip().splitlines()
        assert code == 0
        assert all(": ok (" in line for line in lines)
        got = [line.split(":")[0] for line in lines]
        assert got == names
        # Each timed group of rows ends in the one runtime row that times it.
        runtime = [i for i, name in enumerate(got) if name.endswith("-runtime")]
        assert runtime[-1] == len(got) - 1
        assert all(j - i > 1 for i, j in zip([-1] + runtime, runtime))
        for i in runtime:
            assert RUNTIME_DETAIL.fullmatch(lines[i].split(": ok (")[1][:-1])

    def test_differential_row_on_a_small_drift_grid(self):
        spec = RenderSpec("fatou", width=8, height=6, max_iter=60)
        name, ok, detail = verify.differential_row(spec)
        assert (name, ok, detail) == (
            "differential[fatou,iter=60]", True, "0 of 48 pixels disagree"
        )

    @pytest.mark.parametrize("spec", verify.DIFFERENTIAL_GRIDS, ids=verify.differential_name)
    def test_differential_grid_agrees(self, spec):
        name, ok, detail = verify.differential_row(spec)
        assert ok, f"{name}: {detail}"

    def test_seed_override_via_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("EXPBOUQUET_SEED", "7")
        code, out, _ = run(["verify", "tower"], capsys)
        assert code == 0
        assert all(": ok (" in line for line in out.strip().splitlines())

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "expbouquet.cli.run_suite",
            lambda suite, threads=None: [("fake-check", False, "boom")],
        )
        code, out, _ = run(["verify", "tower"], capsys)
        assert code == 1
        assert out.strip() == "fake-check: FAIL (boom)"

    def test_differential_suite_on_one_small_grid(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "DIFFERENTIAL_GRIDS", (SMALL_DIFFERENTIAL,))
        code, out, _ = run(["verify", "differential"], capsys)
        assert code == 0
        assert out == "differential[a=-2+0i,iter=60]: ok (0 of 64 pixels disagree)\n"

    def test_differential_row_names_are_unique(self):
        names = [verify.differential_name(spec) for spec in verify.DIFFERENTIAL_GRIDS]
        assert len(set(names)) == len(names)
        assert "differential[a=-2+0i,iter=60,bailout=0.5]" in names

    def test_differential_row_names_give_the_viewport(self):
        # exactly the grids off their default viewport name it, and bounds
        # 2e-10 apart still read back as the grid's own viewport
        for spec in verify.DIFFERENTIAL_GRIDS:
            name = verify.differential_name(spec)
            named = spec.viewport != default_viewport(spec.map_kind, spec.a)
            assert (",viewport=" in name) == named, name
            if named:
                bounds = name.rstrip("]").split(",viewport=")[1].split(":")
                assert tuple(map(float, bounds)) == spec.viewport

    def test_differential_suite_fails_on_a_wrong_pixel(self, capsys, monkeypatch):
        tags, exits = raster.classify_grid(SMALL_DIFFERENTIAL, workers=1)
        tags[3, 2] = raster.TAG_UNDECIDED
        monkeypatch.setattr(verify, "DIFFERENTIAL_GRIDS", (SMALL_DIFFERENTIAL,))
        monkeypatch.setattr(verify, "classify_grid", lambda spec, workers: (tags, exits))
        code, out, _ = run(["verify", "differential"], capsys)
        assert code == 1
        assert out.startswith(
            "differential[a=-2+0i,iter=60]: FAIL (1 of 64 pixels disagree; "
            "first (3,2) grid Undecided exit -1, scalar Basin(period=1))"
        )

    def test_invalid_suite_name(self, capsys):
        code, _, err = run(["verify", "nonsense"], capsys)
        assert code == 2
        assert "invalid choice" in err
