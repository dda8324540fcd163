"""Rewrite the reference CSVs that ``run.py --trace 1`` compares against.

Each reference is the workload's job shrunk by ``ref_overrides`` at master
seed 0.  Only rewrite them on purpose: they record the output of the code
they were made with, and ``runner.ref_max_rel_diff`` measures later code
against them.

    python3 bench/make_refs.py
"""

import jobs
from run import BLAS_THREADS, REF_DIR


def main():
    jobs.set_blas_threads(BLAS_THREADS)
    REF_DIR.mkdir(exist_ok=True)
    for name, spec in jobs.WORKLOADS.items():
        text = jobs.execute(jobs.load(name, 0, spec.ref_overrides), spec.kind)
        (REF_DIR / f"{name}.csv").write_text(text, encoding="utf-8")
        print(f"wrote {name}.csv ({len(text.splitlines()) - 1} rows)")


if __name__ == "__main__":
    main()
