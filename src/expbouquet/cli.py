"""Command-line surface: render figures, classify orbits and parameters,
trace hairs, and run the verification suites.

Every subcommand is a thin adapter over the library: identical inputs via
the CLI and via direct calls produce identical results.  Exit codes: 0 on
success, 2 on argument errors (every ``ValueError``, so every library
precondition too), 1 on runtime errors; errors print a single diagnostic
line on stderr.  All reals print with 17 significant digits.

Options may also come from a ``--config`` file of plain ``key = value``
lines mirroring the long flag names; flags given on the command line
override the file.
"""

from __future__ import annotations

import argparse
import re
import sys
from importlib import import_module
from typing import Any, Callable, Sequence

from .classify import ConvergenceError, classify_param, classify_point, report_line
from .expmap import Params
from .fatoufn import fatou_classify
from .render import RenderSpec, colorize, csv_text, write_pgm

# Not called here; perfbench wraps ``cli.render`` and ``cli.classification_csv`` by name.
from .render import classification_csv, render  # noqa: F401
from .symbolic import (
    ExternalAddress,
    endpoint_estimate,
    trace_hair,
)
from .verify import SUITES, format_check, run_suite

# The render module itself (the package attribute ``expbouquet.render`` is the
# function), so ``_raster.classify_grid`` resolves at call time.
_raster = import_module(".render", __package__)

_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_RE_ONLY = re.compile(rf"^[+-]?{_NUM}$")
_IM_ONLY = re.compile(rf"^([+-]?)({_NUM})?i$")
_RE_IM = re.compile(rf"^([+-]?{_NUM})([+-])({_NUM})?i$")


def parse_complex(text: str) -> complex:
    """Parse the complex literal grammar ``<re>[+|-]<im>i`` (parts optional).

    Accepts e.g. ``-2``, ``-2+0i``, ``3i``, ``-i``, ``1.5e-3-2.9i``.
    """
    s = text.strip().replace(" ", "")
    if _RE_ONLY.match(s):
        return complex(float(s), 0.0)
    m = _IM_ONLY.match(s)
    if m:
        mag = float(m.group(2)) if m.group(2) else 1.0
        return complex(0.0, -mag if m.group(1) == "-" else mag)
    m = _RE_IM.match(s)
    if m:
        mag = float(m.group(3)) if m.group(3) else 1.0
        return complex(float(m.group(1)), -mag if m.group(2) == "-" else mag)
    raise ValueError(f"bad complex literal {text!r} (expected <re>[+|-]<im>i)")


def _arg_complex(text: str) -> complex:
    try:
        return parse_complex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _arg_viewport(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"viewport needs four comma-separated reals, got {text!r}"
        )
    try:
        x0, x1, y0, y1 = (float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad viewport {text!r}: {exc}") from exc
    return (x0, x1, y0, y1)


def _arg_address(text: str) -> ExternalAddress:
    try:
        return ExternalAddress.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _arg_map(text: str) -> str:
    t = text.strip().lower()
    if t in ("exp", "exponential"):
        return "exponential"
    if t == "fatou":
        return "fatou"
    raise argparse.ArgumentTypeError(f"unknown map {text!r} (choose exp or fatou)")


def _arg_coloring(text: str) -> str:
    t = text.strip().lower()
    if t in ("classification", "escape-count"):
        return t
    raise argparse.ArgumentTypeError(
        f"unknown coloring {text!r} (choose classification or escape-count)"
    )


def _arg_positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer {text!r}") from exc
    if n < 1:
        raise argparse.ArgumentTypeError(f"value must be >= 1, got {n}")
    return n


def _arg_float(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad real {text!r}") from exc


class _Parser(argparse.ArgumentParser):
    """Argument parser with single-line diagnostics on stderr."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # Complex literals like -2+0i or -i must pass as option values
        # instead of being mistaken for option names.
        self._negative_number_matcher = re.compile(r"^-(?:\d|\.\d|i$)")

    def error(self, message: str) -> None:  # noqa: D401 - argparse contract
        raise SystemExit(self._exit_with(message))

    def _exit_with(self, message: str) -> int:
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return 2


def _fmt_real(x: float) -> str:
    return f"{x:.17g}"


# --------------------------------------------------------------------------
# option registry and config file merging

# An option is (converter-from-string, hard default, help); the same table
# declares the --flag-name argument and converts --config values.
_Option = tuple[Callable[[str], Any], Any, str]

_THREADS: _Option = (_arg_positive_int, None, "worker threads")


def _load_config(path: str) -> dict[str, str]:
    """Read a plain ``key = value`` config file.

    A line whose first non-blank character is ``#`` is a comment; a later
    ``#`` is part of the value, since ``out`` and ``csv`` paths may hold one.
    """
    raw: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = text.partition("=")
            raw[key.strip().replace("-", "_")] = value.strip()
    return raw


def _merged(parser: argparse.ArgumentParser, args: argparse.Namespace) -> dict[str, Any]:
    """Resolve the subcommand's options: command line > config file > hard default."""
    registry: dict[str, _Option] = args.options
    from_file: dict[str, Any] = {}
    if getattr(args, "config", None):
        try:
            raw = _load_config(args.config)
        except OSError as exc:  # an unreadable config file is an argument error too
            parser.error(str(exc))
        for key, text in raw.items():
            if key not in registry:
                parser.error(f"unknown config key {key!r}")
            try:
                from_file[key] = registry[key][0](text)
            except argparse.ArgumentTypeError as exc:
                parser.error(f"config key {key!r}: {exc}")
    out: dict[str, Any] = {}
    for key, (_, default, _) in registry.items():
        value = getattr(args, key, None)
        if value is None:
            value = from_file.get(key, default)
        out[key] = value
    return out


def _require(parser: argparse.ArgumentParser, opts: dict[str, Any], key: str) -> Any:
    if opts[key] is None:
        parser.error(f"--{key.replace('_', '-')} is required")
    return opts[key]


# --------------------------------------------------------------------------
# subcommand handlers


def _cmd_render(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    opts = _merged(parser, args)
    out_path = _require(parser, opts, "out")
    spec = RenderSpec(
        map_kind=opts["map"],
        a=opts["a"],
        viewport=opts["viewport"],
        width=opts["width"],
        height=opts["height"],
        max_iter=opts["max_iter"],
        bailout=opts["bailout"],
        coloring=opts["coloring"],
    )
    # One classification feeds both outputs.  It is looked up on the module,
    # so a wrapper installed on ``render.classify_grid`` sees this call.
    tags, exits = _raster.classify_grid(spec, workers=opts["threads"])
    write_pgm(colorize(spec, tags, exits), out_path)
    if opts["csv"]:
        with open(opts["csv"], "w", encoding="utf-8") as fh:
            fh.write(csv_text(spec, tags, exits))
    return 0


def _cmd_classify_point(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    opts = _merged(parser, args)
    z = _require(parser, opts, "z")
    if opts["map"] == "fatou":
        result = fatou_classify(z, depth=opts["depth"])
    else:
        a = _require(parser, opts, "a")
        p = Params(a=a)
        result = classify_point(p, z, depth=opts["depth"], bailout=opts["bailout"])
    print(report_line(result))
    return 0


def _cmd_classify_param(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    opts = _merged(parser, args)
    a = _require(parser, opts, "a")
    p = Params(a=a)
    result = classify_param(p, max_period=opts["max_period"], depth=opts["depth"])
    print(report_line(result))
    return 0


def _cmd_trace_hair(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    opts = _merged(parser, args)
    a = _require(parser, opts, "a")
    address = _require(parser, opts, "address")
    p = Params(a=a)
    if opts["depth"] is not None:
        point = trace_hair(p, address, depth=opts["depth"], anchor=opts["anchor"])
    else:
        point = endpoint_estimate(
            p,
            address,
            tol=opts["tol"],
            max_depth=opts["max_depth"],
            anchor=opts["anchor"],
        )
    print(
        f"address={point.address} "
        f"z={_fmt_real(point.z.real)},{_fmt_real(point.z.imag)} "
        f"residual={_fmt_real(point.residual)} "
        f"depth={point.depth} "
        f"converged={'true' if point.converged else 'false'}"
    )
    return 0


def _cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    rows = run_suite(args.suite, threads=args.threads)
    for row in rows:
        print(format_check(row))
    return 0 if all(ok for _, ok, _ in rows) else 1


# --------------------------------------------------------------------------
# parser assembly


_COMMANDS: dict[str, tuple[str, Callable[..., int], dict[str, _Option]]] = {
    "render": (
        "rasterize a map to a PGM image",
        _cmd_render,
        {
            "map": (_arg_map, "exponential", "exp (default) or fatou"),
            "a": (_arg_complex, 0j, "parameter, e.g. -2+0i"),
            "viewport": (_arg_viewport, None, "x_min,x_max,y_min,y_max"),
            "width": (_arg_positive_int, 800, "pixels per row"),
            "height": (_arg_positive_int, 800, "pixel rows"),
            "max_iter": (_arg_positive_int, 60, "iteration depth per pixel"),
            "bailout": (_arg_float, 1e10, "escape radius, at most 1e15"),
            "coloring": (_arg_coloring, "classification", "classification or escape-count"),
            "out": (str, None, "output PGM path"),
            "csv": (str, None, "also dump per-pixel 'x,y,tag,exit' CSV here"),
            "threads": _THREADS,
        },
    ),
    "classify-point": (
        "classify one orbit",
        _cmd_classify_point,
        {
            "map": (_arg_map, "exponential", "exp (default) or fatou"),
            "a": (_arg_complex, None, "parameter (exp map)"),
            "z": (_arg_complex, None, "seed point"),
            "depth": (_arg_positive_int, 100, "orbit depth"),
            "bailout": (_arg_float, 1e10, "escape radius, at most 1e15"),
        },
    ),
    "classify-param": (
        "classify a parameter",
        _cmd_classify_param,
        {
            "a": (_arg_complex, None, "parameter"),
            "max_period": (_arg_positive_int, 32, "longest cycle period tried"),
            "depth": (_arg_positive_int, 2000, "singular orbit depth"),
        },
    ),
    "trace-hair": (
        "pull back a hair point",
        _cmd_trace_hair,
        {
            "a": (_arg_complex, None, "parameter"),
            "address": (_arg_address, None, "external address 'p1,p2|t1,t2'"),
            "tol": (_arg_float, 1e-10, "endpoint residual target"),
            "max_depth": (_arg_positive_int, 512, "deepest pullback tried"),
            "depth": (_arg_positive_int, None, "fixed pullback depth (skips deepening)"),
            "anchor": (_arg_complex, None, "pullback start point"),
        },
    ),
}


def _add_options(cmd: argparse.ArgumentParser, options: dict[str, _Option]) -> None:
    for dest, (convert, _, help_text) in options.items():
        cmd.add_argument("--" + dest.replace("_", "-"), dest=dest, type=convert, help=help_text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="expbouquet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (help_text, handler, options) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        _add_options(cmd, options)
        cmd.add_argument("--config", help="file of 'key = value' lines; flags override")
        cmd.set_defaults(handler=handler, options=options)

    verify = sub.add_parser("verify", help="run a self-check suite")
    verify.add_argument("suite", choices=sorted(SUITES))
    _add_options(verify, {"threads": _THREADS})
    verify.set_defaults(handler=_cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(parser, args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ValueError as exc:  # a library precondition (PreconditionError too)
        return parser._exit_with(str(exc))
    except (ConvergenceError, OverflowError, OSError) as exc:
        print(f"expbouquet: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
