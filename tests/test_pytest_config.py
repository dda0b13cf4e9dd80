"""The repository's pytest configuration: warnings that fail the suite."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = textwrap.dedent(
    """
    import warnings

    from hypothesis import given, settings
    from hypothesis import strategies as st


    @settings(database=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=10))
    def test_fails_on_some_example(n):
        assert n < 5


    def test_own_deprecation_is_an_error():
        warnings.warn("old call", DeprecationWarning)
    """
)


def test_failing_hypothesis_example_is_reported_not_internal_error(tmp_path):
    """A falsified ``@given`` test fails normally under the repo's warning filters.

    Hypothesis's failure report imports a third-party module that warns
    with ``DeprecationWarning``; that warning alone is ignored, while a
    deprecation raised by the tested code still fails its test.
    """
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    report = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in report
    assert proc.returncode == 1, report
    assert "Falsifying example" in report
    assert "2 failed" in report
