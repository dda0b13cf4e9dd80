"""The benchmark's workloads: seeded inputs, timed operations and output checks.

Each workload is a list of operations that one pass runs in order; the
runner repeats passes in a closed loop from one process.  Operations call
the library through its public functions only, and return what the checks
need.  Every check runs outside the timed region.

* ``figures`` renders and writes the four paper parameters of ``e^z + a``
  on all CPUs: the render kernel and the fork pool do the work.
* ``serial_deep`` runs the in-process CLI on one worker with ``--csv``:
  deep, mostly bounded orbits, the drift-map kernel and text output.
* ``survey`` is scalar work with no raster: parameter classification,
  point classification and hair endpoints, where maximum modulus, tower
  arithmetic and the scalar classifiers do the work.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import importlib
import os
import random
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from expbouquet import (
    ExternalAddress,
    Params,
    RenderSpec,
    TowerReal,
    classify_param,
    classify_point,
    default_viewport,
    endpoint_estimate,
    fatou_classify,
    itinerary,
    max_modulus_iterates,
    render,
    report_line,
    trace_hair,
    write_pgm,
)
from expbouquet.render import TAG_NAMES
from expbouquet.towerfloat import LN_H

from tracing import Tracer, p50_tail

cli_mod = importlib.import_module("expbouquet.cli")
render_mod = importlib.import_module("expbouquet.render")
expmap_mod = importlib.import_module("expbouquet.expmap")

#: Seed whose survey verdicts are pinned by a golden digest.
DEFAULT_SEED = 0

#: The four parameters of the paper's figures.
FIGURE_PARAMS = (-2 + 0j, 5 + 3.14j, 2.06 + 1.57j, 1.004 + 2.9j)

#: Gray level of each classification tag, in ``TAG_NAMES`` order.
CLASS_GRAY = (0, 96, 192, 255, 128)

_NO_SPAN = contextlib.nullcontext()


def _spanner(tracer: Tracer | None) -> Callable[[str], Any]:
    return tracer.span if tracer is not None else (lambda name: _NO_SPAN)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _fmt_complex(a: complex) -> str:
    return f"{a.real!r}{a.imag:+}i"


def _pixel_center(spec: RenderSpec, ix: int, iy: int) -> complex:
    """Cell-center seed of pixel (ix, iy), as the rasterizer documents it."""
    x0, x1, y0, y1 = spec.viewport
    dx = (x1 - x0) / spec.width
    dy = (y1 - y0) / spec.height
    return complex(x0 + (ix + 0.5) * dx, y1 - (iy + 0.5) * dy)


def _scalar_verdict(spec: RenderSpec, p: Params | None, z: complex) -> Any:
    if spec.map_kind == "fatou":
        return fatou_classify(z, depth=spec.max_iter)
    return classify_point(p, z, depth=spec.max_iter, bailout=spec.bailout)


def _mpix_per_s(specs: dict[str, RenderSpec], medians: dict[str, float]) -> dict[str, float]:
    pixels = sum(s.width * s.height for s in specs.values())
    return {"render_mpix_per_s": pixels / sum(medians.values()) * 1e-6}


def install_boundaries(tracer: Tracer) -> None:
    """Span the public calls that one layer makes into another.

    ``classify_grid`` is seen through ``render``/``classification_csv``
    and its tags are captured for the per-pass counts; the CLI's render
    calls and ``Params``' maximum-modulus check get spans of their own.
    """
    tracer.patch(
        render_mod,
        "classify_grid",
        lambda spec, *_a, **_k: "render.classify_grid."
        + ("exp" if spec.map_kind == "exponential" else "fatou"),
        capture=True,
    )
    tracer.patch(cli_mod, "render", "render.render")
    tracer.patch(cli_mod, "write_pgm", "render.write_pgm")
    tracer.patch(cli_mod, "classification_csv", "render.classification_csv")
    tracer.patch(expmap_mod, "max_modulus", "expmap.max_modulus")


def grid_counts(captured: list[tuple[np.ndarray, np.ndarray]]) -> Counter:
    """Pixel, tag and exit-step counts of captured ``classify_grid`` results."""
    c: Counter = Counter()
    for tags, exits in captured:
        c["render.pixels"] += int(tags.size)
        for name, n in zip(TAG_NAMES, np.bincount(tags.ravel(), minlength=len(TAG_NAMES))):
            c[f"render.tag.{name}"] += int(n)
        escaped = exits[exits >= 0]
        c["_exit_sum"] += int(escaped.sum())
        c["_exit_n"] += int(escaped.size)
    return c


@dataclass
class Op:
    """One timed operation of a pass; ``run`` gets the tracer or None."""

    key: str
    run: Callable[[Tracer | None], Any]


class Workload:
    """Inputs made from ``seed``; ``quick`` shrinks them for the self-test.

    The raster specs are fixed, so ``seed`` picks the pixels the
    differential checks sample; the survey draws all its inputs from it.
    """

    name = ""
    #: Processes the workload keeps busy, and so runs the reference kernel on.
    procs = 1

    def __init__(self, seed: int, quick: bool, outdir: Path, goldens: dict[str, str]):
        self.seed = seed
        self.quick = quick
        self.outdir = outdir
        self.goldens = goldens
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ops: list[Op] = []

    def warm_up(self) -> list[tuple[str, Any]]:
        """Pay first-call costs; returns (key, output) of operations to check."""
        return []

    def outputs(self, key: str, out: Any) -> dict[str, Path]:
        """Output files of one operation, by golden name."""
        return {}

    def check(self, key: str, out: Any) -> list[str]:
        """Mismatches in one operation's output."""
        problems = []
        for name, path in self.outputs(key, out).items():
            want = self.goldens.get(name)
            got = sha256_file(path)
            if got != want:
                problems.append(f"{name}: sha256 {got} != golden {want}")
        return problems

    def counts(self, key: str, out: Any) -> Counter:
        """Counts of one operation that must repeat exactly across passes."""
        return Counter(
            {"render.bytes_out": sum(p.stat().st_size for p in self.outputs(key, out).values())}
        )

    def final_checks(self) -> tuple[int, list[str]]:
        """Checks made once per run: (number attempted, mismatches)."""
        return 0, []

    def throughput(self, medians: dict[str, float]) -> dict[str, float]:
        """Per-layer throughputs from the median time of each operation."""
        return {}

    def probe(self) -> dict[str, float]:
        """Layer measurements the traced run makes after the timed loop."""
        return {}


class Figures(Workload):
    """``render`` + ``write_pgm`` of the four figures, on all CPUs."""

    name = "figures"

    def __init__(self, seed: int, quick: bool, outdir: Path, goldens: dict[str, str]):
        super().__init__(seed, quick, outdir, goldens)
        size = 48 if quick else 512
        self.workers = self.procs = len(os.sched_getaffinity(0))
        self.specs = {
            f"fig_a={_fmt_complex(a)}": RenderSpec(
                "exponential", a=a, width=size, height=size, max_iter=60
            )
            for a in FIGURE_PARAMS
        }
        self.ops = [Op(key, self._op(key, spec)) for key, spec in self.specs.items()]

    def _op(self, key: str, spec: RenderSpec) -> Callable[[Tracer | None], Path]:
        path = self.outdir / f"{key}.pgm"

        def run(tracer: Tracer | None) -> Path:
            span = _spanner(tracer)
            with span("render.render"):
                grid = render(spec, workers=self.workers)
            with span("render.write_pgm"):
                write_pgm(grid, str(path))
            return path

        return run

    def warm_up(self) -> list[tuple[str, Any]]:
        for spec in self.specs.values():
            max_modulus_iterates(spec.a, Params(spec.a).radius, spec.max_iter)
        first = self.ops[0]
        return [(first.key, first.run(None))]

    def outputs(self, key: str, out: Path) -> dict[str, Path]:
        return {f"{key}.pgm": out}

    def final_checks(self) -> tuple[int, list[str]]:
        """Scalar ``classify_point`` against the tag each sampled pixel shows."""
        samples = 16 if self.quick else 128
        attempted, problems = 0, []
        for key, spec in self.specs.items():
            data = (self.outdir / f"{key}.pgm").read_bytes()
            pixels = data[len(data) - spec.width * spec.height :]
            p = Params(spec.a)
            for idx in self.rng.sample(range(len(pixels)), samples):
                iy, ix = divmod(idx, spec.width)
                attempted += 1
                gray = pixels[idx]
                tag = TAG_NAMES[CLASS_GRAY.index(gray)] if gray in CLASS_GRAY else f"gray {gray}"
                got = type(_scalar_verdict(spec, p, _pixel_center(spec, ix, iy))).__name__
                if got != tag:
                    problems.append(f"{key} pixel ({ix},{iy}): grid {tag}, scalar {got}")
        return attempted, problems

    def throughput(self, medians: dict[str, float]) -> dict[str, float]:
        return _mpix_per_s(self.specs, medians)

    def probe(self) -> dict[str, float]:
        """Worker scaling of a = -2: 1-worker time over N x the N-worker time."""
        spec = next(s for s in self.specs.values() if s.a == -2)
        t = time.perf_counter()
        render_mod.classify_grid(spec, workers=1)
        one = time.perf_counter() - t
        t = time.perf_counter()
        render_mod.classify_grid(spec, workers=self.workers)
        many = time.perf_counter() - t
        return {"render.scaling_eff": one / (self.workers * many)}


class SerialDeep(Workload):
    """The in-process CLI: ``render --threads 1 --csv`` of a deep and a drift spec."""

    name = "serial_deep"

    def __init__(self, seed: int, quick: bool, outdir: Path, goldens: dict[str, str]):
        super().__init__(seed, quick, outdir, goldens)
        size = 24 if quick else 100
        self.specs = {
            "deep": RenderSpec("exponential", a=1.004 + 2.9j, width=size, height=size,
                               max_iter=200, coloring="escape-count"),
            "drift": RenderSpec("fatou", width=size, height=size, max_iter=200),
        }
        self.ops = [Op(key, self._op(key, spec)) for key, spec in self.specs.items()]

    def _argv(self, spec: RenderSpec, stem: str) -> list[str]:
        argv = [
            "render", "--map", "exp" if spec.map_kind == "exponential" else "fatou",
            "--width", str(spec.width), "--height", str(spec.height),
            "--max-iter", str(spec.max_iter), "--coloring", spec.coloring,
            "--threads", "1",
            "--out", str(self.outdir / f"{stem}.pgm"),
            "--csv", str(self.outdir / f"{stem}.csv"),
        ]
        if spec.map_kind == "exponential":
            argv += ["--a", _fmt_complex(spec.a)]
        return argv

    def _op(self, key: str, spec: RenderSpec) -> Callable[[Tracer | None], int]:
        argv = self._argv(spec, key)

        def run(tracer: Tracer | None) -> int:
            with _spanner(tracer)("cli.main"):
                return cli_mod.main(argv)

        return run

    def warm_up(self) -> list[tuple[str, Any]]:
        for key, spec in self.specs.items():
            max_modulus_iterates(spec.a, Params(spec.a).radius, spec.max_iter)
            small = RenderSpec(spec.map_kind, a=spec.a, width=16, height=16,
                               max_iter=spec.max_iter, coloring=spec.coloring)
            if cli_mod.main(self._argv(small, f"warm_{key}")) != 0:
                raise RuntimeError(f"warm-up CLI render of {key} failed")
        return []

    def outputs(self, key: str, out: int) -> dict[str, Path]:
        return {f"cli_{key}.{ext}": self.outdir / f"{key}.{ext}" for ext in ("pgm", "csv")}

    def check(self, key: str, out: int) -> list[str]:
        if out != 0:
            return [f"{key}: CLI exit code {out}"]
        return super().check(key, out)

    def final_checks(self) -> tuple[int, list[str]]:
        """Scalar classifiers against the tag and exit step of sampled CSV rows."""
        samples = 16 if self.quick else 128
        attempted, problems = 0, []
        for key, spec in self.specs.items():
            rows = (self.outdir / f"{key}.csv").read_text(encoding="utf-8").splitlines()[1:]
            p = Params(spec.a) if spec.map_kind == "exponential" else None
            for idx in self.rng.sample(range(len(rows)), samples):
                iy, ix = divmod(idx, spec.width)
                attempted += 1
                x, y, tag, exit_step = rows[idx].split(",")
                got = _scalar_verdict(spec, p, _pixel_center(spec, ix, iy))
                name = type(got).__name__
                want_exit = str(got.first_exit_step) if name == "EscapingSlow" else exit_step
                if (int(x), int(y)) != (ix, iy) or name != tag or want_exit != exit_step:
                    problems.append(
                        f"{key} pixel ({ix},{iy}): grid {tag} exit {exit_step or '-'}, "
                        f"scalar {report_line(got)}"
                    )
        return attempted, problems

    def throughput(self, medians: dict[str, float]) -> dict[str, float]:
        return _mpix_per_s(self.specs, medians)


class Survey(Workload):
    """Seeded scalar work: parameters, points and hair endpoints."""

    name = "survey"

    #: Parameters per pass, by verdict.  Fixed quotas keep the cost of a
    #: pass the same for every seed: an ``Undetermined`` parameter costs
    #: about fifty times the median one.
    PARAM_QUOTAS = {"Attracting": 32, "SingularValueEscapes": 32, "Undetermined": 8}
    #: A box across the bifurcation locus, where all three verdicts occur.
    PARAM_BOX = (0.5, 1.5, 1.5, 3.5)
    POINT_DEPTH = 100
    HAIR_A = -2 + 0j
    HAIR_DEPTH = 24
    TOWER_BATCH = 256

    def __init__(self, seed: int, quick: bool, outdir: Path, goldens: dict[str, str]):
        super().__init__(seed, quick, outdir, goldens)
        quotas = {k: min(v, 2) for k, v in self.PARAM_QUOTAS.items()} if quick else self.PARAM_QUOTAS
        drawn = self._draw_params(quotas)
        self.params = [a for a, _ in drawn]
        self.setup_lines = self._param_lines([v for _, v in drawn])
        per_figure = 4 if quick else 300
        self.point_params = {a: Params(a) for a in FIGURE_PARAMS}
        self.points = []
        for a in FIGURE_PARAMS:
            x0, x1, y0, y1 = default_viewport("exponential", a)
            self.points += [
                (a, complex(self.rng.uniform(x0, x1), self.rng.uniform(y0, y1)))
                for _ in range(per_figure)
            ]
        self.hair_params = Params(self.HAIR_A)
        self.hairs = [self._draw_address() for _ in range(8 if quick else 1200)]
        self.ops = [Op("params", self._params), Op("points", self._points),
                    Op("hairs", self._hairs)]
        self.lines: dict[str, list[str]] = {}

    def _draw_params(self, quotas: dict[str, int]) -> list[tuple[complex, Any]]:
        """(parameter, verdict) from ``PARAM_BOX`` until each verdict's quota is met."""
        x0, x1, y0, y1 = self.PARAM_BOX
        taken: dict[str, list[tuple[complex, Any]]] = {k: [] for k in quotas}
        for _ in range(100_000):
            a = complex(self.rng.uniform(x0, x1), self.rng.uniform(y0, y1))
            verdict = classify_param(Params(a))
            kind = type(verdict).__name__
            if len(taken.get(kind, ())) < quotas.get(kind, 0):
                taken[kind].append((a, verdict))
            if all(len(taken[k]) == n for k, n in quotas.items()):
                break
        else:
            raise RuntimeError(f"parameter quotas {quotas} not met")
        drawn = [pair for k in quotas for pair in taken[k]]
        self.rng.shuffle(drawn)
        return drawn

    def _draw_address(self) -> ExternalAddress:
        rng = self.rng
        prefix = tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 3)))
        tail = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 3)))
        return ExternalAddress(prefix, tail)

    def _params(self, tracer: Tracer | None) -> list[Any]:
        span = _spanner(tracer)
        out = []
        for a in self.params:
            with span("expmap.params_init"):
                p = Params(a)
            with span("classify.classify_param"):
                out.append(classify_param(p))
        return out

    def _points(self, tracer: Tracer | None) -> list[Any]:
        span = _spanner(tracer)
        out = []
        for a, z in self.points:
            p = self.point_params[a]
            with span("classify.classify_point"):
                out.append(classify_point(p, z, depth=self.POINT_DEPTH))
        return out

    def _hairs(self, tracer: Tracer | None) -> list[Any]:
        span = _spanner(tracer)
        p = self.hair_params
        out = []
        for s in self.hairs:
            with span("symbolic.endpoint_estimate"):
                end = endpoint_estimate(p, s)
            with span("symbolic.trace_hair"):
                hair = trace_hair(p, s, depth=self.HAIR_DEPTH)
            out.append((end, hair))
        return out

    def warm_up(self) -> list[tuple[str, Any]]:
        for p in self.point_params.values():
            max_modulus_iterates(p.a, p.radius, self.POINT_DEPTH)
        for a, z in self.points[:: max(1, len(self.points) // 8)]:
            classify_point(self.point_params[a], z, depth=self.POINT_DEPTH)
        for s in self.hairs[:8]:
            endpoint_estimate(self.hair_params, s)
        return []

    def _param_lines(self, verdicts: list[Any]) -> list[str]:
        return [f"a={_fmt_complex(a)} {report_line(v)}" for a, v in zip(self.params, verdicts)]

    def _lines(self, key: str, out: list[Any]) -> list[str]:
        if key == "params":
            return self._param_lines(out)
        if key == "points":
            return [f"a={_fmt_complex(a)} z={_fmt_complex(z)} {report_line(v)}"
                    for (a, z), v in zip(self.points, out)]
        return [
            f"address={h.address} z={h.z.real!r},{h.z.imag!r} residual={h.residual!r} "
            f"depth={h.depth} converged={h.converged}"
            for pair in out for h in pair
        ]

    def check(self, key: str, out: list[Any]) -> list[str]:
        """Same verdicts on every pass; invariants on the first."""
        lines = self._lines(key, out)
        if key in self.lines:
            return [] if lines == self.lines[key] else [f"{key}: verdicts differ from the first pass"]
        self.lines[key] = lines
        problems = self._invariants(key, out)
        if key == "params" and lines != self.setup_lines:
            problems.append("params: verdicts differ from the set-up classification")
        return problems

    def _invariants(self, key: str, out: list[Any]) -> list[str]:
        problems = []
        if key == "params":
            for a, v in zip(self.params, out):
                if type(v).__name__ != "Attracting":
                    continue
                cyc = v.cycle
                residual = max(
                    abs(cmath.exp(c) + a - cyc[(i + 1) % len(cyc)]) for i, c in enumerate(cyc)
                )
                if not (residual < 1e-10 and abs(v.multiplier) < 1.0):
                    problems.append(f"a={a}: Attracting with residual {residual:.3e}, "
                                    f"|multiplier| {abs(v.multiplier):.6f}")
        elif key == "hairs":
            for end, _ in out:
                s = end.address
                if not end.converged:
                    continue
                n = len(s.prefix) + len(s.tail)
                try:
                    route = itinerary(self.hair_params, end.z, n)
                except OverflowError:
                    route = None
                if route != s.entries(n):
                    problems.append(f"endpoint of {s}: itinerary {route} != {s.entries(n)}")
        return problems

    def digest(self) -> str:
        text = "\n".join(line for key in ("params", "points", "hairs") for line in self.lines[key])
        return hashlib.sha256(text.encode()).hexdigest()

    def final_checks(self) -> tuple[int, list[str]]:
        if self.seed != DEFAULT_SEED:
            return 0, []
        got, want = self.digest(), self.goldens.get("survey_digest")
        return 1, [] if got == want else [f"survey digest {got} != golden {want}"]

    def counts(self, key: str, out: list[Any]) -> Counter:
        c: Counter = Counter()
        if key == "hairs":
            for end, _ in out:
                c["_endpoint_depth_sum"] += end.depth
                c["_endpoints"] += 1
                c["_converged"] += int(end.converged)
            return c
        for v in out:
            kind = type(v).__name__
            c[f"classify.verdict.{kind}"] += 1
            if kind == "FastEscaping":
                c["_offset_sum"] += v.offset
        return c

    def throughput(self, medians: dict[str, float]) -> dict[str, float]:
        return {
            "params_per_s": len(self.params) / medians["params"],
            "points_per_s": len(self.points) / medians["points"],
            "hairs_per_s": len(self.hairs) / medians["hairs"],
        }

    def probe(self) -> dict[str, float]:
        """Per-call cost of tower operations near the branch boundaries.

        Arguments cluster around ``ln H``, 700 and ``H = 1e15``, where
        ``from_real`` promotes and ``exp_plus`` switches branch.
        """
        rng = self.rng
        xs = [b * (1.0 + rng.uniform(-1e-3, 1e-3))
              for _ in range(self.TOWER_BATCH // 3 + 1) for b in (LN_H, 700.0, 1e15)]
        xs = xs[: self.TOWER_BATCH]
        towers = [TowerReal.from_real(x) for x in xs]
        pairs = list(zip(towers, towers[1:] + towers[:1]))
        c = abs(self.HAIR_A)
        batches = {
            "from_real": lambda: [TowerReal.from_real(x) for x in xs],
            "exp_plus": lambda: [t.exp_plus(c) for t in towers],
            "cmp": lambda: [t.cmp(u) for t, u in pairs],
        }
        metrics = {}
        for op, batch in batches.items():
            samples = []
            for _ in range(5 if self.quick else 200):
                t = time.perf_counter_ns()
                batch()
                samples.append((time.perf_counter_ns() - t) / len(xs))
            p50, tail, n = p50_tail(samples)
            metrics.update({f"towerfloat.{op}_ns.p50": p50, f"towerfloat.{op}_ns.tail": tail,
                            f"towerfloat.{op}_ns.n": n})
        return metrics


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Figures, SerialDeep, Survey)}
