"""The package against its ``pyproject.toml``: NumPy as the one third-party
dependency, nothing it does not declare, and the same version."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import expbouquet
from expbouquet.verify import _dilate

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "expbouquet"


def test_no_command_loads_scipy():
    code = (
        "import sys\n"
        "import expbouquet, expbouquet.cli, expbouquet.verify\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _third_party_imports() -> set[str]:
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"expbouquet"}


def test_imports_match_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group(0) for req in project["dependencies"]}
    assert _third_party_imports() == declared


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert expbouquet.__version__ == project["version"]


def _dilate_by_window_max(mask: np.ndarray, radius: int) -> np.ndarray:
    """Brute force: the max over each cell's clipped ``(2r+1)``-square window."""
    h, w = mask.shape
    out = np.zeros_like(mask)
    for i in range(h):
        for j in range(w):
            out[i, j] = mask[max(0, i - radius) : i + radius + 1,
                             max(0, j - radius) : j + radius + 1].any()
    return out


class TestDilate:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_masks(self, seed):
        rng = np.random.default_rng(seed)
        h, w = rng.integers(1, 41, size=2)
        radius = int(rng.integers(0, 11))
        mask = rng.random((h, w)) < rng.choice([0.005, 0.02, 0.1, 0.5])
        assert np.array_equal(_dilate(mask, radius), _dilate_by_window_max(mask, radius))

    @pytest.mark.parametrize("radius", [0, 1, 3, 8, 10])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (5, 1), (9, 13), (17, 17), (30, 22)])
    def test_empty_full_and_edge_masks(self, shape, radius):
        h, w = shape
        edges = np.zeros(shape, dtype=bool)
        edges[0, w // 2] = edges[h - 1, 0] = edges[h // 2, w - 1] = edges[h - 1, w - 1] = True
        for mask in (np.zeros(shape, dtype=bool), np.ones(shape, dtype=bool), edges):
            got = _dilate(mask, radius)
            assert got.shape == shape and got.dtype == bool
            assert np.array_equal(got, _dilate_by_window_max(mask, radius))

    def test_radius_8_is_the_17_square(self):
        mask = np.zeros((40, 40), dtype=bool)
        mask[20, 20] = True
        want = np.zeros_like(mask)
        want[12:29, 12:29] = True
        assert np.array_equal(_dilate(mask, 8), want)
