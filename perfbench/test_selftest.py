"""Self-test of the benchmark in quick mode.

    python3 -m pytest -q perfbench/test_selftest.py

Checks that every metric named in ``BENCHMARK.json`` is printed with its
unit, that the per-pass counts repeat exactly across two same-seed runs,
that no check fails (``fail_ratio`` is 0), and that the benchmark refuses
to run without the library's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
#: Per-layer metrics that count work or outcomes, not time: they must repeat.
EXACT_UNITS = {"count", "bytes", "steps", "ratio"}
NOT_EXACT = {"render.scaling_eff", "fail_ratio"}


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(workload: str, trace: int) -> dict:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    return result


def _units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run(workload: str) -> None:
    untraced = _result(workload, 0)
    assert _units(untraced) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in untraced["metrics"].values())

    first, second = _result(workload, 1), _result(workload, 1)
    layer_units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert _units(first) == layer_units
    assert first["metrics"]["fail_ratio"]["value"] == 0
    exact = [name for name, unit in layer_units.items()
             if unit in EXACT_UNITS and not name.endswith(".n") and name not in NOT_EXACT]
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_without_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
