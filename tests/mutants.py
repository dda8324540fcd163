"""Planted mistakes in the solver core, and which of them the aggregation
tests catch.

Each mutant replaces one piece of text in ``src/cfota/aggregation.py``:
in the core's ``__init__`` (the devices' second moments), ``combiners``,
``forms``, ``tco`` and ``group_mses``, in ``optimize_batch`` (its stop)
or in ``level1_batch``.  The text occurs exactly once in ``src`` and lies
in the function the mutant names; ``tests/test_tooling.py`` checks both,
so the list cannot rot silently.  For every mutant the script copies
``src`` and ``tests`` to a temporary directory, plants the mistake there
and runs ``SUBSET`` with ``-x``: a failing run kills the mutant, a
passing one lets it survive.  The working tree is never touched.  Run it from
anywhere, with no options:

    python tests/mutants.py

It prints one line per mutant (killed by which test, or survived), then
the counts and the time taken, and exits 1 if the unmutated subset fails.
The subset is a whole file, so that the same command measures the tests
of any revision.
"""

import ast
from collections import namedtuple
import os
from pathlib import Path
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = Path(__file__).resolve().parents[1]
TARGET = Path("src", "cfota", "aggregation.py")
SUBSET = ("tests/test_aggregation.py",)

Mutant = namedtuple("Mutant", "function mistake target replacement")

MUTANTS = (
    Mutant("__init__", "error covariance dropped from the second moments",
           "moment = cov[:, None, :, :, 0] + ", "moment = "),
    Mutant("__init__", "conjugate dropped from the outer products of the estimates",
           "h[..., None, :].conj()", "h[..., None, :]"),
    Mutant("combiners", "p dropped from the error blocks",
           "(p[..., None, :] @ self.cov_by_device)",
           "(p[..., None, :] ** 0 @ self.cov_by_device)"),
    Mutant("combiners", "conjugate of b in the right-hand side",
           "(self.target * b[..., None, :])", "(self.target * b.conj()[..., None, :])"),
    Mutant("combiners", "p dropped from the single-block system",
           "(p[..., None, :] @ self.moment_by_device)",
           "(p[..., None, :] ** 0 @ self.moment_by_device)"),
    Mutant("combiners", "noise dropped from the single-block system",
           "self.n_views, n_ant, n_ant) + self.noise_eye", "self.n_views, n_ant, n_ant)"),
    Mutant("combiners", "conjugated channels in the single-block right-hand side",
           "_lu_solve(mat, self.h_t @ coef)",
           "_lu_solve(mat, self.h_conj.swapaxes(-1, -2) @ coef)"),
    Mutant("combiners", "conjugate dropped from H^H D^-1 H",
           "small = self.h_conj @ x", "small = self.h_t.swapaxes(-1, -2) @ x"),
    Mutant("combiners", "P scales the columns of the K x K system, not its rows",
           "small = p[..., None, :, None] * small", "small = p[..., None, None, :] * small"),
    Mutant("combiners", "views and groups swapped in the combiners' layout",
           "v.transpose(0, 1, 4, 2, 3)", "v.transpose(0, 1, 2, 4, 3)"),
    Mutant("forms", "v for vh in the projections",
           "proj = (vh @ self.h_t)", "proj = (v @ self.h_t)"),
    Mutant("forms", "v for vh in the outer products",
           "(vh.reshape(*lead, n_blocks, n_ant, 1)", "(v.reshape(*lead, n_blocks, n_ant, 1)"),
    Mutant("forms", "v for vh in the energies",
           "np.add.reduce((vh * v).real, axis=-1)", "np.add.reduce((v * v).real, axis=-1)"),
    Mutant("tco", "priorities dropped from the denominator",
           "np.add.reduce(self.omega_col * (np.abs(proj) ** 2 + quad), axis=-2)",
           "np.add.reduce(np.abs(proj) ** 2 + quad, axis=-2)"),
    Mutant("tco", "+ for - in the KKT multiplier",
           "np.abs(own) / sqrt_power - denom)", "np.abs(own) / sqrt_power + denom)"),
    Mutant("tco", "conjugate dropped from the coefficient",
           "return self.gain_c * own.conj() / den, mu", "return self.gain_c * own / den, mu"),
    Mutant("tco", "conjugate dropped where a denominator is zero",
           "np.divide(self.gain_c * own.conj(), den,", "np.divide(self.gain_c * own, den,"),
    Mutant("group_mses", "p dropped from the inflation term",
           "np.add.reduce(p[..., None, :] * quad, axis=-1)", "np.add.reduce(quad, axis=-1)"),
    Mutant("group_mses", "+ for - in the signal mismatch",
           "proj * b[..., None, :] - self.target", "proj * b[..., None, :] + self.target"),
    Mutant("group_mses", "noise power dropped from the combined noise",
           "return signal + inflation + self.noise_power * energy",
           "return signal + inflation + energy"),
    Mutant("optimize_batch", "one iteration short of the cap",
           "for it in range(1, max_iters + 1):", "for it in range(1, max_iters):"),
    Mutant("level1_batch", "conjugate dropped from the projections",
           '"...gln,...kln->...gkl", combiners.conj(), channels',
           '"...gln,...kln->...gkl", combiners, channels'),
    Mutant("level1_batch", "noise averaged over L, not L^2",
           "energy / h[-2] ** 2", "energy / h[-2]"),
)


def enclosing(source, offset):
    """The name of the innermost function of ``source`` whose text holds
    the character at ``offset``."""
    line = source.count("\n", 0, offset) + 1
    spans = [(node.lineno, node.name) for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.FunctionDef) and node.lineno <= line <= node.end_lineno]
    return max(spans)[1] if spans else None


def run_subset(tree):
    """Run ``SUBSET`` with -x in a copy ``tree`` of the repository: None
    if it passes, else the first failing test's id."""
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *SUBSET],
        cwd=tree, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"})
    if out.returncode == 0:
        return None
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", out.stdout, re.MULTILINE)
    return failed.group(1) if failed else f"exit {out.returncode}"


def main():
    start = time.perf_counter()
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    original = (ROOT / TARGET).read_text()
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tree)
        failed = run_subset(tree)
        if failed:
            print(f"the unmutated subset fails: {failed}")
            return 1
        killed = 0
        for mutant in MUTANTS:
            if original.count(mutant.target) != 1:
                raise SystemExit(f"the target of {mutant} is not in {TARGET} exactly once")
            mutated = original.replace(mutant.target, mutant.replacement)
            ast.parse(mutated)
            (tree / TARGET).write_text(mutated)
            shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
            failed = run_subset(tree)
            killed += failed is not None
            print(f"{'killed' if failed else 'SURVIVED':8} {mutant.function}: {mutant.mistake}"
                  + (f" ({failed})" if failed else ""), flush=True)
    print(f"{killed} of {len(MUTANTS)} killed, {len(MUTANTS) - killed} survived, "
          f"in {time.perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
