"""The benchmark's three reference jobs, rerun at master seed 0, reproduce
the stored CSVs in ``bench/ref`` (same rows, numbers within 1e-8 relative).
The CSV keeps 9 significant digits, so the tolerance admits a last-digit
change such as a reordered floating-point sum makes, and nothing larger.

Each job is the committed config with the size overrides the stored CSV
was made with; only the CSV files are read from ``bench``.
"""

import csv
from pathlib import Path

import pytest

from cfota import runner

ROOT = Path(__file__).resolve().parents[1]

JOBS = {
    "sweep": ("configs/desk-sweep.cfg", runner.run_mse_sweep,
              ("seeds = 2", "max_iters = 30")),
    "train": ("configs/desk-train.cfg", runner.run_fl_training,
              ("seeds = 1", "rounds = 10")),
    "scale": ("bench/scale.cfg", runner.run_mse_sweep, ()),
}


def _read(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _number(field):
    try:
        return float(field)
    except ValueError:
        return None


@pytest.mark.parametrize("name", sorted(JOBS))
def test_reference_job_reproduces_stored_csv(tmp_path, name):
    config, run, overrides = JOBS[name]
    cfg = runner.load_config(ROOT / config,
                             overrides=[*overrides, "master_seed = 0"])
    out = tmp_path / f"{name}.csv"
    runner.emit_csv(run(cfg), out, cfg.n_groups)
    got, want = _read(out), _read(ROOT / "bench" / "ref" / f"{name}.csv")
    assert got[0] == want[0]
    # same rows: the sort key (scenario, tco, seed, point) in the same order
    assert [row[:4] for row in got] == [row[:4] for row in want]
    for got_row, want_row in zip(got[1:], want[1:]):
        assert len(got_row) == len(want_row)
        for field, expected in zip(got_row, want_row):
            value = _number(expected)
            if value is None:
                assert field == expected
            else:
                assert float(field) == pytest.approx(value, rel=1e-8, abs=0.0)
