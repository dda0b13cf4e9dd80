"""Self-check suites behind the ``verify`` CLI subcommand.

Each suite returns a list of ``(name, ok, detail)`` rows, one row per
check; the CLI prints one line per row and exits 0 iff every row passed.
Pseudo-random checks draw from a generator seeded by the environment
variable ``EXPBOUQUET_SEED`` (default 0), so runs are reproducible.

The suites mirror the package's acceptance checks: ``tower`` covers the
arithmetic laws of the tower representation, ``maxmod`` the circle
maximum-modulus closed form and its growth bounds, ``lemma7`` the orbit
domination index and the half-plane margin formula, ``semiconj`` the
exponential semiconjugacy of the drift map, ``separation`` hair
endpoints and strip separation, ``figures`` the reference renders
(including their golden SHA-256 digests), and ``differential`` the
rasterizer against the scalar classifiers, pixel by pixel.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import os
import time
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .classify import FastEscaping, classify_point, find_cycle
from .expmap import Params, eval_map, max_modulus
from .fatoufn import fatou_classify, fatou_eval, semiconj_residual
from .render import (
    TAG_BASIN,
    TAG_FAST,
    TAG_NAMES,
    TAG_SLOW,
    RenderSpec,
    classify_grid,
    colorize,
    default_viewport,
    escape_fraction,
    render,
)
from .symbolic import (
    ExternalAddress,
    SeparationConfig,
    endpoint_estimate,
    find_domination_index,
    itinerary,
    real_part_margin,
    separation_index,
)
from .towerfloat import H, TowerReal

Check = tuple[str, bool, str]

#: The five parameters exercised by the maximum-modulus checks.
ORACLE_PARAMS = (-2 + 0j, -1 + 0j, 5 + 3.14j, 2.06 + 1.57j, 1.004 + 2.9j)

#: The four parameters with reference figures.
FIGURE_PARAMS = (-2 + 0j, 5 + 3.14j, 2.06 + 1.57j, 1.004 + 2.9j)

ORACLE_RADII = (math.pi, 4.0, 7.0, 12.0, 20.0)

#: SHA-256 of the pixel bytes of each figure's 800x800 classification
#: render (default viewport, ``max_iter`` 60, bailout 1e10).
FIGURE_SHA256 = {
    -2 + 0j: "8b07a45af85cafa2443350210c1edbe8cbdf7c46c45aa33363feeb404e13073f",
    5 + 3.14j: "7c096d421675e539de1be2211d326aea2d6bcfafc9fbd4593efaf08542092a34",
    2.06 + 1.57j: "4df3f72cd77dd5139879dcd34454de66a51f7e7fd6fee5bd3a167b71edddf805",
    1.004 + 2.9j: "255250638eb3b64d9a20484078e80f3b14f7cb8dcd4e758cb9c0d1bd57290c77",
}


# Seeded values behind the tower suite's arithmetic laws.
_TOWER_VALUES = 100_000


def _seed() -> int:
    return int(os.environ.get("EXPBOUQUET_SEED", "0") or "0")


def _fmt_complex(a: complex) -> str:
    return f"{a.real:g}{a.imag:+g}i"


def format_check(row: Check) -> str:
    name, ok, detail = row
    line = f"{name}: {'ok' if ok else 'FAIL'}"
    return f"{line} ({detail})" if detail else line


@contextmanager
def _runtime(rows: list[Check], name: str, budget: float) -> Iterator[None]:
    """Time the block, then append row ``<name>-runtime``: ok under ``budget`` seconds."""
    t0 = time.perf_counter()
    yield
    dt = time.perf_counter() - t0
    rows.append((f"{name}-runtime", dt < budget, f"{dt:.3f}s (budget {budget:g}s)"))


# ---------------------------------------------------------------------------
# tower: arithmetic laws of the level/mantissa representation


def suite_tower() -> list[Check]:
    """Round-trip, monotonicity, and ordinary-range laws over seeded values."""
    rng = np.random.default_rng(_seed())
    # Mixed-scale sample: signed log-uniform magnitudes plus a plain
    # uniform band.  Negative values stay above -H (unrepresentable below).
    n_log = _TOWER_VALUES - _TOWER_VALUES // 4
    u = rng.uniform(-40.0, 700.0, n_log)
    sign = rng.choice(np.array([-1.0, 1.0]), n_log)
    u[sign < 0] = np.minimum(u[sign < 0], 34.0)
    xs = np.concatenate([sign * np.exp(u), rng.uniform(-1e3, 1e3, _TOWER_VALUES // 4)])
    rng.shuffle(xs)
    values = xs.tolist()
    n = len(values)

    rows: list[Check] = []
    with _runtime(rows, "tower", 2.0):
        from_real = TowerReal.from_real
        exp_fn = math.exp
        rt_fail = mono_fail = ord_fail = 0
        prev_x = values[0]
        prev_t = from_real(prev_x)
        prev_e = prev_t.exp()
        for x in values:
            t = from_real(x)
            e = t.exp()
            # Ordinary range: from_real is exact below H, exp agrees with the
            # float exponential while that stays finite.
            if abs(x) < H and t.value() != x:
                ord_fail += 1
            if x <= 700.0:
                ev = e.value()
                if not math.isfinite(ev) or abs(ev - exp_fn(x)) > 1e-12 * exp_fn(x):
                    ord_fail += 1
            # Round-trip: ln(exp(t)) recovers t (ln needs a positive value, so
            # stay above the underflow floor of exp).
            if x > -700.0:
                r = e.ln()
                if r.level != t.level or abs(r.mantissa - t.mantissa) > 1e-12 * max(
                    1.0, abs(t.mantissa)
                ):
                    rt_fail += 1
            # Monotonicity: comparisons follow the float order, and exp never
            # inverts order.  (Strictness can be lost to rounding: distinct
            # inputs near 0 or below the underflow floor share an exponential.)
            want = (x > prev_x) - (x < prev_x)
            if t.cmp(prev_t) != want:
                mono_fail += 1
            elif want != 0 and e.cmp(prev_e) == -want:
                mono_fail += 1
            prev_x, prev_t, prev_e = x, t, e
        rows += [
            ("tower-roundtrip", rt_fail == 0, f"{rt_fail} failures over {n} values"),
            ("tower-monotone", mono_fail == 0, f"{mono_fail} failures over {n} values"),
            ("tower-ordinary-range", ord_fail == 0, f"{ord_fail} failures over {n} values"),
        ]
    return rows


# ---------------------------------------------------------------------------
# maxmod: circle maximum against a brute-force oracle, and growth bounds


def circle_max_oracle(a: complex, r: float, n: int = 1 << 18) -> float:
    """Brute-force maximum of ``|e^z + a|`` on ``|z| = r``.

    Dense sampling plus one parabolic refinement of the winning node;
    accurate to ~1e-10 relative, far below the 1e-6 comparison band.
    """
    theta = np.linspace(-math.pi, math.pi, n, endpoint=False)
    u = r * np.cos(theta)
    v = r * np.sin(theta)
    e = np.exp(u)
    re = e * np.cos(v) + a.real
    im = e * np.sin(v) + a.imag
    m2 = re * re + im * im
    k = int(np.argmax(m2))
    f0, f1, f2 = m2[(k - 1) % n], m2[k], m2[(k + 1) % n]
    denom = f0 - 2.0 * f1 + f2
    best = f1
    if denom < 0.0:
        step = theta[1] - theta[0]
        t_star = theta[k] + 0.5 * step * (f0 - f2) / denom
        uu = r * math.cos(t_star)
        vv = r * math.sin(t_star)
        w = complex(math.exp(uu) * math.cos(vv) + a.real, math.exp(uu) * math.sin(vv) + a.imag)
        best = max(best, abs(w) ** 2)
    return math.sqrt(best)


def suite_maxmod() -> list[Check]:
    """Closed-form circle maximum vs. brute force, then growth inequalities."""
    rows: list[Check] = []
    with _runtime(rows, "maxmod-oracle", 5.0):
        for a in ORACLE_PARAMS:
            worst = 0.0
            for r in ORACLE_RADII:
                got = max_modulus(a, r)
                want = circle_max_oracle(a, r)
                worst = max(worst, abs(got - want) / want)
            rows.append(
                (
                    f"maxmod-oracle[a={_fmt_complex(a)}]",
                    worst < 1e-6,
                    f"max rel err {worst:.3e} over 5 radii",
                )
            )

    with _runtime(rows, "maxmod-growth", 1.0):
        for a in ORACLE_PARAMS:
            big = 3.0 + 2.0 * abs(a)
            ok = True
            for k in range(101):
                r = big + k
                m = max_modulus(a, r)
                if not (m > r and m - r >= math.exp(r - 1.0) - r):
                    ok = False
                    break
            rows.append(
                (
                    f"maxmod-growth[a={_fmt_complex(a)}]",
                    ok,
                    "M(r) > r and M(r)-r >= e^(r-1)-r on 101 radii",
                )
            )
    return rows


# ---------------------------------------------------------------------------
# lemma7: orbit domination index and half-plane margin formula


def suite_growth_domination() -> list[Check]:
    """Domination indices for a=-2 and the separating-margin formula."""
    rows: list[Check] = []
    p = Params(a=-2 + 0j)

    with _runtime(rows, "domination", 1.0):
        cycle, _ = find_cycle(p, -1.8 + 0j, 1)
        fp = cycle[0]
        kappas = (1e2, 1e3, 1e4, 3e4, 1e5)
        ns = [find_domination_index(p, 10 + 0j, fp, k, depth=64) for k in kappas]
        rows.append(("domination[kappa=1000]", ns[1] == 1, f"n={ns[1]}"))
        rows.append(("domination[kappa=30000]", ns[3] == 2, f"n={ns[3]}"))
        finite = all(n is not None for n in ns)
        monotone = finite and all(ns[i] <= ns[i + 1] for i in range(len(ns) - 1))
        rows.append(
            (
                "domination-monotone",
                monotone,
                "n(kappa)=" + ",".join(str(n) for n in ns) + " over kappa=1e2..1e5",
            )
        )

    with _runtime(rows, "margin", 1.0):
        margin = real_part_margin(p, SeparationConfig(c=3.0, delta=2.0 * math.pi + 1.0))
        rows.append(("margin-exact", margin == 13.0, f"margin={margin!r} (want 13.0)"))
        rng = np.random.default_rng(_seed())
        bad = 0
        for _ in range(100):
            a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            cfg = SeparationConfig(
                c=float(rng.uniform(1.0, 20.0)),
                delta=2.0 * math.pi + float(rng.uniform(0.0, 20.0)),
            )
            q = Params(a=a)
            if not real_part_margin(q, cfg) >= q.radius + 6.0:
                bad += 1
        rows.append(("margin-dominates-radius", bad == 0, f"{bad} failures over 100 configs"))
    return rows


# ---------------------------------------------------------------------------
# semiconj: the drift map's exponential semiconjugacy


def suite_semiconj() -> list[Check]:
    """Scaled residual, 2*pi*i periodicity, and odd-multiple fixed points."""
    rows: list[Check] = []
    rng = np.random.default_rng(_seed())
    pts = rng.uniform(-5.0, 5.0, (10_000, 2))

    with _runtime(rows, "semiconj", 2.0):
        worst = 0.0
        for x, y in pts:
            z = complex(x, y)
            scale = max(1.0, abs(cmath.exp(-fatou_eval(z))))
            worst = max(worst, semiconj_residual(z) / scale)
        rows.append(("semiconj-residual", worst < 1e-12, f"max scaled residual {worst:.3e}"))

        two_pi_i = complex(0.0, 2.0 * math.pi)
        worst = 0.0
        for x, y in pts[:2000]:
            z = complex(x, y)
            worst = max(worst, abs(fatou_eval(z + two_pi_i) - (fatou_eval(z) + two_pi_i)))
        rows.append(("semiconj-periodicity", worst < 1e-12, f"max defect {worst:.3e}"))

        worst = 0.0
        for k in range(-2, 3):
            z = complex(0.0, (2 * k + 1) * math.pi)
            worst = max(worst, abs(fatou_eval(z) - z))
        rows.append(("semiconj-fixed-points", worst < 1e-12, f"max defect {worst:.3e} for |k|<=2"))
    return rows


# ---------------------------------------------------------------------------
# separation: hair endpoints, itineraries, and strip separation


def _bisect_real_fixed_point(a_real: float, lo: float, hi: float) -> float:
    """Bisection root of ``e^x + a = x`` on ``[lo, hi]`` (sign change assumed)."""
    g = lambda x: math.exp(x) + a_real - x
    glo = g(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (gm < 0.0) == (glo < 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


SEPARATION_ADDRESSES = (
    ExternalAddress((), (0,)),
    ExternalAddress((), (1,)),
    ExternalAddress((0, 1), (0,)),
    ExternalAddress((0, -1), (0,)),
    ExternalAddress((0, 0, 2), (0,)),
)


def suite_separation() -> list[Check]:
    """Endpoint oracles, itinerary prefixes, and pairwise separation indices."""
    rows: list[Check] = []
    p = Params(a=-2 + 0j)

    with _runtime(rows, "endpoint", 5.0):
        ep0 = endpoint_estimate(p, SEPARATION_ADDRESSES[0], tol=1e-8)
        want = _bisect_real_fixed_point(-2.0, 1.0, 2.0)
        err = abs(ep0.z - want)
        rows.append(
            (
                "endpoint-zero-address",
                ep0.converged and err <= 1e-8,
                f"|z - bisection root| = {err:.3e}",
            )
        )

        ep1 = endpoint_estimate(p, SEPARATION_ADDRESSES[1], tol=1e-8)
        defect = abs(eval_map(p.a, ep1.z) - ep1.z)
        rows.append(
            ("endpoint-one-address", ep1.converged and defect < 1e-7, f"|f(z)-z| = {defect:.3e}")
        )

    with _runtime(rows, "separation", 5.0):
        endpoints = [endpoint_estimate(p, s, tol=1e-8) for s in SEPARATION_ADDRESSES]
        bad = sum(
            1
            for ep in endpoints
            if itinerary(p, ep.z, 5) != ep.address.entries(5)
        )
        rows.append(("itinerary-prefixes", bad == 0, f"{bad} mismatches over 5 addresses"))

        bad = 0
        pairs = 0
        for i in range(len(endpoints)):
            for j in range(i + 1, len(endpoints)):
                pairs += 1
                si, sj = SEPARATION_ADDRESSES[i], SEPARATION_ADDRESSES[j]
                expected = next(k for k in range(64) if si.entry(k) != sj.entry(k))
                got = separation_index(p, endpoints[i].z, endpoints[j].z, depth=16)
                if got != expected:
                    bad += 1
        rows.append(
            ("pairwise-separation", bad == 0, f"{bad} mismatches over {pairs} pairs")
        )
    return rows


# ---------------------------------------------------------------------------
# figures: reference renders (timing, determinism, stability, interleaving)


def _dilate(mask: np.ndarray, radius: int) -> np.ndarray:
    """``mask``'s square maximum filter of Chebyshev radius ``radius``, with zero padding."""
    win = 2 * radius + 1
    cols = sliding_window_view(np.pad(mask, radius), win, axis=0).any(-1)
    return sliding_window_view(cols, win, axis=1).any(-1)


def suite_figures(threads: int | None = None) -> list[Check]:
    """Render the four reference parameters and check the figure contracts."""
    rows: list[Check] = []
    workers = threads if threads else 4

    specs = [
        RenderSpec(map_kind="exponential", a=a, width=800, height=800)
        for a in FIGURE_PARAMS
    ]
    t0 = time.perf_counter()
    classified = [classify_grid(s, workers=workers) for s in specs]
    grids = [colorize(s, *c) for s, c in zip(specs, classified)]
    dt = time.perf_counter() - t0
    rows.append(
        (
            "figures-timing",
            dt < 30.0,
            f"{dt:.2f}s for four 800x800 renders on {workers} workers (budget 30s)",
        )
    )

    same = all(render(specs[0], workers=w).pixels == grids[0].pixels for w in (1, 7))
    rows.append(
        ("figures-identity[a=-2+0i]", same, "byte-identical across 1, 7 workers")
    )

    for spec, (tags, _), grid in zip(specs, classified, grids):
        digest = hashlib.sha256(grid.pixels).hexdigest()
        rows.append(
            (
                f"figures-sha256[a={_fmt_complex(spec.a)}]",
                digest == FIGURE_SHA256[spec.a],
                f"pixel bytes sha256 {digest}",
            )
        )
        small = RenderSpec(
            map_kind=spec.map_kind, a=spec.a, width=400, height=400
        )
        f400 = escape_fraction(small, workers=workers)
        f800 = float(np.mean((tags == TAG_FAST) | (tags == TAG_SLOW)))
        diff = abs(f400 - f800)
        rows.append(
            (
                f"figures-escape-fraction[a={_fmt_complex(spec.a)}]",
                diff < 0.02,
                f"|{f400:.5f} - {f800:.5f}| = {diff:.5f}",
            )
        )

    tags = classified[0][0]
    near_basin = _dilate(tags == TAG_BASIN, 8)
    violations = int(np.count_nonzero(((tags == TAG_FAST) & ~near_basin)[:, 200:]))
    rows.append(
        (
            "figures-interleaving",
            violations == 0,
            f"{violations} FastEscaping pixels outside the left quarter "
            "lack a Basin pixel within Chebyshev distance 8",
        )
    )
    return rows


# ---------------------------------------------------------------------------
# differential: the rasterizer against the scalar classifiers, pixel by pixel

#: 48x48 grids: seven parameters of the exponential map and the drift map
#: on their default viewports, each at three depths, then edge grids at the
#: track's branch boundaries: seeds on both sides of ``Re z = 700``, first
#: iterates on both sides of it (``e^z - 2 = 700`` at ``z = ln 702``), a
#: bailout below ``R`` (towers take several steps to settle) and ``1e15``,
#: seeds within 1e-10 of the repelling fixed point of ``a = -2`` that all
#: pass the period-1 test at ``max_iter`` 4 and fail it 10 steps later, and
#: seeds about ``ln 800 + i pi`` whose ``z_2`` is the singular value ``a``
#: exactly: the kernel cuts them at step 2 by the singular orbit's tag at
#: ``a = 1.004+2.9i``, ``max_iter`` 34 and at ``a = -2-0i`` (a signed zero),
#: and iterates them at ``a = 0.3``, whose singular orbit escapes.  Last,
#: drift-map grids for its closed-form exits: seeds straddling ``Re z =
#: 36`` (decided at step 1 or 2), ``Re z = 50`` (exit 1 on both sides) and
#: ``2^53 - 10`` and ``2^53`` (the seeds less than 10 below ``2^53`` never
#: complete a run, those past it are frozen), seeds at ``Re z`` 40.25 to
#: 40.75, whose run ends at step 19: they exit at ``max_iter`` 19 and stay
#: ``NonEscapingBounded`` at 18, and seeds about ``-38 + 1.2841i`` whose
#: first step lands within 3 400 of ``2^53`` with run 1 (three of them
#: stall in the band ``(2^53 - 9, 2^53)``): the seed
#: ``-38 + 1.2841385745966045i`` lands on ``2^53 - 9``, where a run of 1
#: still ends below ``2^53`` (exit 1), and seeds about ``-4``, whose first
#: step lands at ``Re z ~ 51.6`` with run 1 (the run the kernel derives for
#: a pixel entering from below 36): they exit at 1 at ``max_iter`` 10.
DIFFERENTIAL_GRIDS = tuple(
    RenderSpec(map_kind=kind, a=a, width=48, height=48, max_iter=depth)
    for kind, params in (
        ("exponential", (-2, 5 + 3.14j, 2.06 + 1.57j, 1.004 + 2.9j, 0.3, -0.5 + 1j, 2)),
        ("fatou", (0,)),
    )
    for a in params
    for depth in (20, 60, 200)
) + tuple(
    RenderSpec(
        "exponential", a=a, viewport=viewport, width=48, height=48, max_iter=depth,
        bailout=bailout,
    )
    for a, viewport, depth, bailout in (
        (-2, (690.0, 710.0, -5.0, 5.0), 60, 1e10),
        (-2, (math.log(702) - 0.02, math.log(702) + 0.02, -0.02, 0.02), 60, 1e15),
        (-2, None, 60, 0.5),
        (1.004 + 2.9j, None, 60, 1e15),
        (-2, (1.1461932206205827 - 1e-10, 1.1461932206205827 + 1e-10, -1e-10, 1e-10), 4, 1e10),
        *(
            (a, (math.log(800) - 0.01, math.log(800) + 0.01, math.pi - 0.01, math.pi + 0.01),
             depth, 1e10)
            for a, depth in ((1.004 + 2.9j, 34), (complex(-2, -0.0), 60), (0.3, 60))
        ),
    )
) + tuple(
    RenderSpec("fatou", viewport=viewport, width=48, height=48, max_iter=depth)
    for viewport, depth in (
        ((35.5, 36.5, -3.0, 3.0), 60),
        ((49.5, 50.5, -3.0, 3.0), 60),
        ((2.0**53 - 40, 2.0**53 + 56, -3.0, 3.0), 60),
        ((40.25, 40.75, -3.0, 3.0), 19),
        ((40.25, 40.75, -3.0, 3.0), 18),
        # cells 2^-46 by 2^-51; cell (23, 23) is centred on -38 + 1.2841385745966045i
        ((-38.0 - 23.5 * 2.0**-46, -38.0 + 24.5 * 2.0**-46,
          1.2841385745966045 - 24.5 * 2.0**-51, 1.2841385745966045 + 23.5 * 2.0**-51), 60),
        ((-4.01, -3.99, -0.01, 0.01), 10),
    )
)


def differential_name(spec: RenderSpec) -> str:
    """Row name of a grid: map or parameter, depth, and any non-default bailout or viewport.

    Viewport bounds print in full (shortest round-trip ``repr``), so grids
    a few ulps wide keep distinct names.
    """
    where = f"a={_fmt_complex(spec.a)}," if spec.map_kind == "exponential" else "fatou,"
    name = f"differential[{where}iter={spec.max_iter}"
    if spec.bailout != RenderSpec.bailout:
        name += f",bailout={spec.bailout:g}"
    if spec.viewport != default_viewport(spec.map_kind, spec.a):
        name += ",viewport=" + ":".join(repr(float(v)) for v in spec.viewport)
    return name + "]"


def differential_row(spec: RenderSpec) -> Check:
    """Compare each pixel of ``spec`` with the scalar verdict on its cell centre.

    The verdict is ``classify_point`` (``fatou_classify`` for the drift
    map).  A pixel agrees when its tag names the verdict and its exit step
    is the verdict's ``first_exit_step``; a verdict without one agrees with
    an exit (any step) exactly when it is ``FastEscaping``.
    """
    tags, exits = classify_grid(spec, workers=1)
    x0, x1, y0, y1 = spec.viewport
    dx, dy = (x1 - x0) / spec.width, (y1 - y0) / spec.height
    p = Params(spec.a)
    bad: list[str] = []
    for (i, j), tag in np.ndenumerate(tags):
        z = complex(x0 + (j + 0.5) * dx, y1 - (i + 0.5) * dy)
        if spec.map_kind == "fatou":
            got = fatou_classify(z, depth=spec.max_iter)
        else:
            got = classify_point(p, z, depth=spec.max_iter, bailout=spec.bailout)
        want = getattr(got, "first_exit_step", None)
        exit_ok = (
            exits[i, j] == want if want is not None
            else (exits[i, j] >= 0) == isinstance(got, FastEscaping)
        )
        if type(got).__name__ != TAG_NAMES[tag] or not exit_ok:
            bad.append(f"({i},{j}) grid {TAG_NAMES[tag]} exit {exits[i, j]}, scalar {got}")
    detail = f"{len(bad)} of {tags.size} pixels disagree" + (f"; first {bad[0]}" if bad else "")
    return (differential_name(spec), not bad, detail)


def suite_differential() -> list[Check]:
    """One row per grid of :data:`DIFFERENTIAL_GRIDS`."""
    return [differential_row(spec) for spec in DIFFERENTIAL_GRIDS]


SUITES: dict[str, Callable[..., list[Check]]] = {
    "tower": suite_tower,
    "maxmod": suite_maxmod,
    "lemma7": suite_growth_domination,
    "semiconj": suite_semiconj,
    "separation": suite_separation,
    "figures": suite_figures,
    "differential": suite_differential,
}


def run_suite(name: str, threads: int | None = None) -> list[Check]:
    """Run one named suite; ``threads`` only affects the figures suite."""
    if name not in SUITES:
        raise ValueError(f"unknown verify suite {name!r}")
    if name == "figures":
        return suite_figures(threads=threads)
    return SUITES[name]()
