"""The suite's own tooling: its pytest settings report a failure instead of
crashing, its mutation check's list stays valid, and the tests read the
solver through its public API."""

import ast
from pathlib import Path
import subprocess
import sys

from cfota import aggregation

import mutants

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

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


def test_each_mutant_plants_its_mistake_once_in_its_function():
    # the mutation check (tests/mutants.py) replaces each target, so each
    # must name one spot of src, in the function the mutant says it hits
    sources = [path.read_text() for path in (ROOT / "src").rglob("*.py")]
    target = (ROOT / mutants.TARGET).read_text()
    for mutant in mutants.MUTANTS:
        assert sum(text.count(mutant.target) for text in sources) == 1, mutant
        assert mutants.enclosing(target, target.index(mutant.target)) == mutant.function, mutant
        assert mutant.replacement != mutant.target, mutant


def test_tests_read_no_private_name_of_the_solver():
    # the tests check the solver against independent oracles through its
    # public entry points, so none of them reads the private combiner core
    # or any other private name of cfota.aggregation
    private = {name for name in vars(aggregation) if name[0] == "_" and name[:2] != "__"}
    for path in (ROOT / "tests").glob("*.py"):
        names = {node.attr if isinstance(node, ast.Attribute) else node.name
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, (ast.Attribute, ast.alias))}
        assert names & private == set(), path.name
