"""The suite's own pytest settings report a failure instead of crashing."""

from pathlib import Path
import subprocess
import sys

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 0
'''


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    # Reporting a failure loads hypothesis's patch writer, whose imports
    # warn of a deprecation in mypy_extensions; the suite's error filters
    # must not turn that warning into an INTERNALERROR of the report.
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY)
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(PYPROJECT), "test_probe.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    report = out.stdout + out.stderr
    assert out.returncode == 1, report
    assert "Falsifying example" in report
    assert "INTERNALERROR" not in report
