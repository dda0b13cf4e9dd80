"""Benchmark of expbouquet: one workload, one seed, one process.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``BENCHMARK.json`` and ``perfbench/README.md``).  Each metric is
printed by name with its unit; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The line
before it is the run record (machine, versions, commit, seed).
``--workload all`` runs every workload, each in a fresh process.
``--quick`` shrinks grids and samples for the self-test.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time counts from here: imports included

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import Reference  # noqa: E402
from tracing import Tracer, p50_tail  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("figures", "serial_deep", "survey")
SETUP_SAMPLES = 3
#: Nominal wall time of the reference kernel: end-to-end times are rescaled
#: to it (see reference.py).
REF_NOMINAL_S = 0.010
#: One reference sample per this much operation time (at least one per op).
REF_EVERY_S = 0.1

END_TO_END = {
    "setup_s": "s",
    "pass_norm_s": "s",
    "peak_rss_mb": "MB",
}

#: Latencies from spans: metric -> (span name, self time?, scale, unit).
LATENCIES = {
    "render.classify_grid_s.exp": ("render.classify_grid.exp", True, 1.0, "s"),
    "render.classify_grid_s.fatou": ("render.classify_grid.fatou", True, 1.0, "s"),
    "render.colorize_s": ("render.render", True, 1.0, "s"),
    "render.write_pgm_s": ("render.write_pgm", False, 1.0, "s"),
    "render.classification_csv_s": ("render.classification_csv", True, 1.0, "s"),
    "cli.overhead_s": ("cli.main", True, 1.0, "s"),
    "expmap.params_init_us": ("expmap.params_init", False, 1e6, "us"),
    "expmap.max_modulus_us": ("expmap.max_modulus", False, 1e6, "us"),
    "classify.classify_param_us": ("classify.classify_param", False, 1e6, "us"),
    "classify.classify_point_us": ("classify.classify_point", False, 1e6, "us"),
    "symbolic.endpoint_estimate_us": ("symbolic.endpoint_estimate", False, 1e6, "us"),
    "symbolic.trace_hair_us": ("symbolic.trace_hair", False, 1e6, "us"),
}
TOWER_OPS = ("from_real", "exp_plus", "cmp")
TAGS = ("FastEscaping", "EscapingSlow", "NonEscapingBounded", "Basin", "Undecided")
VERDICTS = TAGS + (
    "Attracting", "ParabolicSuspect", "PostsingularlyFinite", "SingularValueEscapes",
    "Undetermined",
)


def _per_layer_units() -> dict[str, str]:
    units = {}
    latencies = {k: v[3] for k, v in LATENCIES.items()}
    latencies.update({f"towerfloat.{op}_ns": "ns" for op in TOWER_OPS})
    for name, unit in latencies.items():
        units.update({f"{name}.p50": unit, f"{name}.tail": unit, f"{name}.n": "count"})
    units.update({
        "render.scaling_eff": "ratio",
        "render.worker_peak_rss_mb": "MB",
        "render.bytes_out": "bytes",
        "render.pixels": "count",
        **{f"render.tag.{t}": "count" for t in TAGS},
        "render.bounded_at_depth_ratio": "ratio",
        "render.exit_step_mean": "steps",
        "render_mpix_per_s": "Mpix/s",
        **{f"classify.verdict.{v}": "count" for v in VERDICTS},
        "classify.fast_offset_mean": "steps",
        "params_per_s": "1/s",
        "points_per_s": "1/s",
        "hairs_per_s": "1/s",
        "symbolic.endpoint_depth_mean": "count",
        "symbolic.converged_ratio": "ratio",
        "trace.overhead_s": "s",
        "pass_wall_s": "s",
        "ref_s": "s",
        "fail_ratio": "ratio",
    })
    return units


PER_LAYER = _per_layer_units()


def _parse(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny grids and few samples")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _git_commit() -> str:
    """Commit of the checkout from ``.git`` files, or "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def _peak_rss_mb() -> tuple[float, float]:
    """Peak RSS of this process and of its largest ended child, in MB."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)


def _self_command(args: argparse.Namespace, workload: str, extra: list[str]) -> list[str]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return cmd + (["--quick"] if args.quick else []) + extra


class Run:
    """One workload run: set-up, timed loop, checks and metrics."""

    def __init__(self, args: argparse.Namespace):
        import workloads  # needs src/ on sys.path

        self.args = args
        self.wl_mod = workloads
        self.outdir = OUT_ROOT / f"{args.workload}-{os.getpid()}"
        self.outdir.mkdir(parents=True, exist_ok=True)
        goldens = json.loads((BENCH_DIR / "goldens.json").read_text())
        mode = goldens["quick" if args.quick else "full"]
        self.wl = workloads.WORKLOADS[args.workload](args.seed, args.quick, self.outdir, mode)
        self.attempted = 0
        self.failed = 0
        for key, out in self.wl.warm_up():
            self._account(key, self.wl.check(key, out))
        self.setup_s = time.perf_counter() - _T0

    def _account(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"perfbench: FAILED {what}: {p}", file=sys.stderr)

    def measure(self, tracer: Tracer | None, ref: Reference) -> dict[str, dict[str, list[float]]]:
        """Closed loop of whole-pass rounds for ``--seconds`` seconds.

        Untraced ops always run; with a tracer, even-numbered passes are
        traced, so the traced and untraced times come from one run.  The
        reference kernel runs after every op.  Returns the op times per
        key, untraced and traced.
        """
        ops = self.wl.ops
        times = {"untraced": {op.key: [] for op in ops}, "traced": {op.key: [] for op in ops}}
        self.first_counts: dict[str, Counter] = {}
        self.rss_mb: tuple[float, float] | None = None
        start = time.perf_counter()
        i = 0
        while True:
            pass_no, k = divmod(i, len(ops))
            op = ops[k]
            i += 1
            traced = tracer is not None and pass_no % 2 == 0
            if traced:
                tracer.run_id = i
                tracer.captured.clear()
                self.wl_mod.install_boundaries(tracer)
            t = time.perf_counter()
            try:
                out = op.run(tracer if traced else None)
                error = None
            except Exception:  # one failed op must not end the run
                error = traceback.format_exc()
            dt = time.perf_counter() - t
            if traced:
                tracer.unpatch()
            if error is not None:
                self._account(op.key, [error])
            else:
                times["traced" if traced else "untraced"][op.key].append(dt)
                self._account(op.key, self._check(op.key, out, tracer if traced else None))
            ref.sample(repeats=max(1, int(dt / REF_EVERY_S)))
            if self.rss_mb is None and all(times["untraced"].values()):
                self.rss_mb = _peak_rss_mb()
            elapsed = time.perf_counter() - start
            complete = all(times["untraced"].values()) and (
                tracer is None or all(times["traced"].values())
            )
            if elapsed >= self.args.seconds and (complete or pass_no >= 3):
                self.rss_mb = self.rss_mb or _peak_rss_mb()
                return times

    def _check(self, key: str, out: object, tracer: Tracer | None) -> list[str]:
        """Output checks and per-pass counts of one op; an exception is a failure."""
        try:
            problems = self.wl.check(key, out)
            counts = self.wl.counts(key, out)
            if tracer is not None:
                counts.update(self.wl_mod.grid_counts(tracer.captured))
            return problems + self._repeat_counts(key, counts)
        except Exception:
            return [traceback.format_exc()]
        finally:
            if tracer is not None:
                tracer.captured.clear()

    def _repeat_counts(self, key: str, counts: Counter) -> list[str]:
        """Counts of an op must be the same on every pass that produces them."""
        first = self.first_counts.setdefault(key, Counter())
        problems = [f"count {name} = {v}, first pass {first[name]}"
                    for name, v in counts.items() if name in first and first[name] != v]
        for name, v in counts.items():
            first.setdefault(name, v)
        return problems

    def pass_counts(self) -> Counter:
        total: Counter = Counter()
        for c in self.first_counts.values():
            total.update(c)
        return total

    def final_checks(self) -> None:
        try:
            attempted, problems = self.wl.final_checks()
        except Exception:  # a crashing check is a failed one
            attempted, problems = 1, [traceback.format_exc()]
        self.attempted += attempted
        self.failed += len(problems)
        for p in problems:
            print(f"perfbench: FAILED final check: {p}", file=sys.stderr)

    def setup_samples(self) -> list[float]:
        """This process's set-up time plus fresh-process set-ups of the same inputs."""
        samples = [self.setup_s]
        for _ in range(SETUP_SAMPLES - 1):
            cmd = _self_command(self.args, self.args.workload, ["--setup-only"])
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
            self.attempted += 1
            try:
                samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
            except (IndexError, KeyError, ValueError):
                self.failed += 1
                print(f"perfbench: FAILED set-up sample: {proc.stderr}", file=sys.stderr)
        return samples


def _latency_metrics(tracer: Tracer) -> dict[str, float]:
    out = {}
    for metric, (span, self_time, scale, _unit) in LATENCIES.items():
        p50, tail, n = p50_tail([t * scale for t in tracer.times(span, self_time)])
        out.update({f"{metric}.p50": p50, f"{metric}.tail": tail, f"{metric}.n": n})
    return out


def _count_metrics(c: Counter) -> dict[str, float]:
    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {
        "render.bytes_out": c["render.bytes_out"],
        "render.pixels": c["render.pixels"],
        "render.bounded_at_depth_ratio": ratio(c["render.tag.NonEscapingBounded"], c["render.pixels"]),
        "render.exit_step_mean": ratio(c["_exit_sum"], c["_exit_n"]),
        "classify.fast_offset_mean": ratio(c["_offset_sum"], c["classify.verdict.FastEscaping"]),
        "symbolic.endpoint_depth_mean": ratio(c["_endpoint_depth_sum"], c["_endpoints"]),
        "symbolic.converged_ratio": ratio(c["_converged"], c["_endpoints"]),
    }
    out.update({f"render.tag.{t}": c[f"render.tag.{t}"] for t in TAGS})
    out.update({f"classify.verdict.{v}": c[f"classify.verdict.{v}"] for v in VERDICTS})
    return out


def run_workload(args: argparse.Namespace) -> int:
    import numpy as np
    import scipy

    run = Run(args)
    if args.setup_only:
        shutil.rmtree(run.outdir, ignore_errors=True)
        print(json.dumps({"setup_s": run.setup_s}))
        return 0
    tracer = Tracer() if args.trace else None
    ref = Reference(run.wl.procs)
    try:
        times = run.measure(tracer, ref)
        run.final_checks()
    finally:
        ref.close()
        shutil.rmtree(run.outdir, ignore_errors=True)
    medians = {k: _median(v) for k, v in times["untraced"].items()}
    pass_s = sum(medians.values())
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_ROOT / f"times-{stem}.json").write_text(json.dumps({**times, "ref": ref.samples}))
    if tracer is None:
        units = END_TO_END
        metrics = {
            "peak_rss_mb": sum(run.rss_mb),
            "pass_norm_s": pass_s * REF_NOMINAL_S / ref.median(),
            "setup_s": _median(run.setup_samples()) * REF_NOMINAL_S / ref.median(),
        }
    else:
        units = PER_LAYER
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(_latency_metrics(tracer))
        metrics.update(_count_metrics(run.pass_counts()))
        if all(medians.values()):
            metrics.update(run.wl.throughput(medians))
        metrics.update(run.wl.probe())
        metrics.update({
            "render.worker_peak_rss_mb": run.rss_mb[1],
            "trace.overhead_s": sum(_median(v) for v in times["traced"].values()) - pass_s,
            "pass_wall_s": pass_s,
            "ref_s": ref.median(),
            "fail_ratio": run.failed / max(1, run.attempted),
        })
        tracer.write(str(OUT_ROOT / f"spans-{stem}.jsonl"))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick,
        "passes": min(len(v) for v in times["untraced"].values()),
        "pass_wall_s": pass_s, "ref_s": ref.median(),
        "cpus": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "commit": _git_commit(),
    }
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print("run " + json.dumps(record))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh process, so each one's peak RSS is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(_self_command(args, workload, []), cwd=ROOT,
                              capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(f"[{workload}] {line}" for line in lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {workload} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "expbouquet" / "__init__.py").is_file():
        print(f"perfbench: no expbouquet sources under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
