"""Planted mistakes in the numeric core, and which of them the tests of
its module catch.

Each mutant replaces one piece of text in its target file: in
``src/cfota/aggregation.py``, the solver core's ``__init__`` (the devices'
second moments and the noise column), ``combiners``, ``forms``, ``tco``
and ``group_mses``, ``optimize_batch`` (its stop) or ``level1_batch``; in
``src/cfota/fl_engine.py``, the over-the-air round ``ota_block``.  The
text occurs exactly once in ``src`` and lies in the function the mutant
names; ``tests/test_tooling.py`` checks both, so the list cannot rot
silently.  For every mutant the script copies ``src`` and ``tests`` to a
temporary directory, plants the mistake there and runs the mutant's
subset with ``-x``: a failing run kills the mutant, a passing one lets it
survive.  The working tree is never touched.  Run it from anywhere, with
no options:

    python tests/mutants.py

It prints one line per mutant (killed by which test, or survived), then
the counts and the time taken, and exits 1 if an unmutated subset fails.
A subset is a whole file, so that the same command measures the tests of
any revision.
"""

import ast
from collections import namedtuple
from functools import partial
import os
from pathlib import Path
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = Path(__file__).resolve().parents[1]
Mutant = namedtuple("Mutant", "path subset function mistake target replacement")
_core = partial(Mutant, Path("src", "cfota", "aggregation.py"), ("tests/test_aggregation.py",))
_round = partial(Mutant, Path("src", "cfota", "fl_engine.py"), ("tests/test_fl_engine.py",))

MUTANTS = (
    _core("__init__", "error covariance dropped from the second moments",
          "moment = cov[:, None, :, :, 0] + ", "moment = "),
    _core("__init__", "conjugate dropped from the outer products of the estimates",
          "h[..., None, :].conj()", "h[..., None, :]"),
    _core("__init__", "all-ones for the identity in the noise column: |sum v|^2 for |v|^2",
          "np.eye(n_ant).ravel()", "np.ones(n_ant * n_ant)"),
    _core("__init__", "noise power dropped from the noise column",
          "problem.noise_power * np.eye(n_ant).ravel()", "np.eye(n_ant).ravel()"),
    _core("combiners", "p dropped from the error blocks",
          "(p[..., None, :] @ self.cov_by_device)",
          "(p[..., None, :] ** 0 @ self.cov_by_device)"),
    _core("combiners", "conjugate of b in the right-hand side",
          "(self.target * b[..., None, :])", "(self.target * b.conj()[..., None, :])"),
    _core("combiners", "p dropped from the single-block system",
          "(p[..., None, :] @ self.moment_by_device)",
          "(p[..., None, :] ** 0 @ self.moment_by_device)"),
    _core("combiners", "noise dropped from the single-block system",
          "self.n_views, n_ant, n_ant) + self.noise_eye", "self.n_views, n_ant, n_ant)"),
    _core("combiners", "conjugated channels in the single-block right-hand side",
          "_lu_solve(mat, self.h_t @ coef)",
          "_lu_solve(mat, self.h_conj.swapaxes(-1, -2) @ coef)"),
    _core("combiners", "conjugate dropped from H^H D^-1 H",
          "small = self.h_conj @ x", "small = self.h_t.swapaxes(-1, -2) @ x"),
    _core("combiners", "P scales the columns of the K x K system, not its rows",
          "small = p[..., None, :, None] * small", "small = p[..., None, None, :] * small"),
    _core("combiners", "views and groups swapped in the combiners' layout",
          "v.transpose(0, 1, 4, 2, 3)", "v.transpose(0, 1, 2, 4, 3)"),
    _core("forms", "v for vh in the projections",
          "proj = (vh @ self.h_t)", "proj = (v @ self.h_t)"),
    _core("forms", "v for vh in the outer products",
          "(vh.reshape(*lead, n_blocks, n_ant, 1)", "(v.reshape(*lead, n_blocks, n_ant, 1)"),
    _core("tco", "priorities dropped from the denominator",
          "self.omega @ (mag ** 2 + quad)", "np.add.reduce(mag ** 2 + quad, axis=-2)"),
    _core("tco", "+ for - in the KKT multiplier",
          "mag[..., self.gdev, self.devices] - denom)",
          "mag[..., self.gdev, self.devices] + denom)"),
    _core("tco", "conjugate dropped from the coefficient",
          "return self.gain_c * own.conj() / den, mu", "return self.gain_c * own / den, mu"),
    _core("tco", "conjugate dropped where a denominator is zero",
          "np.divide(self.gain_c * own.conj(), den,", "np.divide(self.gain_c * own, den,"),
    _core("group_mses", "p dropped from the inflation term",
          "+ p[..., None, :] * quad, axis=-1)", "+ quad, axis=-1)"),
    _core("group_mses", "+ for - in the signal mismatch",
          "proj * b[..., None, :] - self.target", "proj * b[..., None, :] + self.target"),
    _core("group_mses", "combined noise dropped",
          "quad, axis=-1) + noise", "quad, axis=-1)"),
    _core("optimize_batch", "one iteration short of the cap",
          "for it in range(1, max_iters + 1):", "for it in range(1, max_iters):"),
    _core("level1_batch", "the local combiners summed, not averaged: 1/L dropped",
          "combiners = stack.combiners(b, p) / h[-2]", "combiners = stack.combiners(b, p)"),
    _core("level1_batch", "the local combiners divided by L^2, not L",
          "combiners = stack.combiners(b, p) / h[-2]",
          "combiners = stack.combiners(b, p) / h[-2] ** 2"),
    _core("level1_batch", "scored on the estimates, not the true channels",
          "replace(problem, h_hat=channels,", "replace(problem, h_hat=problem.h_hat,"),
    _core("level1_batch", "the record's error blocks kept in the scorer",
          "error_cov=np.broadcast_to(0j, h + h[-1:])", "error_cov=problem.error_cov"),
    _round("ota_block", "conjugate dropped from the gains",
           "(v @ h).reshape(n_groups, -1)", "(v.conj() @ h).reshape(n_groups, -1)"),
    _round("ota_block", "noise combined without the conjugate",
           "(v @ z)", "(v.conj() @ z)"),
    _round("ota_block", "coefficients b dropped from the sent symbols",
           "@ (b_s[:, None] * x)", "@ x"),
    _round("ota_block", "mean offset dropped from the recovered parameters",
           "np.real(combined) + offset", "np.real(combined)"),
)


def enclosing(source, offset):
    """The name of the innermost function of ``source`` whose text holds
    the character at ``offset``."""
    line = source.count("\n", 0, offset) + 1
    spans = [(node.lineno, node.name) for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.FunctionDef) and node.lineno <= line <= node.end_lineno]
    return max(spans)[1] if spans else None


def run_subset(tree, subset):
    """Run ``subset`` with -x in a copy ``tree`` of the repository: None
    if it passes, else the first failing test's id."""
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *subset],
        cwd=tree, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"})
    if out.returncode == 0:
        return None
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", out.stdout, re.MULTILINE)
    return failed.group(1) if failed else f"exit {out.returncode}"


def main():
    start = time.perf_counter()
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tree)
        for subset in dict.fromkeys(mutant.subset for mutant in MUTANTS):
            failed = run_subset(tree, subset)
            if failed:
                print(f"the unmutated subset fails: {failed}")
                return 1
        killed = 0
        for mutant in MUTANTS:
            original = (ROOT / mutant.path).read_text()
            if original.count(mutant.target) != 1:
                raise SystemExit(f"the target of {mutant} is not in {mutant.path} exactly once")
            mutated = original.replace(mutant.target, mutant.replacement)
            ast.parse(mutated)
            (tree / mutant.path).write_text(mutated)
            shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
            failed = run_subset(tree, mutant.subset)
            (tree / mutant.path).write_text(original)
            killed += failed is not None
            print(f"{'killed' if failed else 'SURVIVED':8} {mutant.function}: {mutant.mistake}"
                  + (f" ({failed})" if failed else ""), flush=True)
    print(f"{killed} of {len(MUTANTS)} killed, {len(MUTANTS) - killed} survived, "
          f"in {time.perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
