"""Tests of the benchmark itself: shrunken runs and the output check.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import jobs  # noqa: E402
import check  # noqa: E402
import host  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((jobs.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _names(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_declared_workloads_are_the_benchmarks():
    assert [w["name"] for w in SPEC["workloads"]] == list(jobs.WORKLOADS)


@pytest.mark.parametrize("name", list(jobs.WORKLOADS))
def test_smoke_run_emits_every_end_to_end_metric(name):
    spec = jobs.WORKLOADS[name]
    attempted, failed, metrics, _ = run.measure(name, 1, 0.0, spec.smoke)
    assert attempted > 0 and failed == 0
    assert {k: u for k, (_, u) in metrics.items()} == _names("end_to_end")
    assert all(math.isfinite(v) and v > 0 for v, _ in metrics.values())


@pytest.mark.parametrize("name", list(jobs.WORKLOADS))
def test_traced_run_emits_every_layer_metric(name):
    spec = jobs.WORKLOADS[name]
    attempted, failed, metrics, _ = run.traced(name, 1, spec.smoke)
    assert attempted > 0 and failed == 0
    assert {k: u for k, (_, u) in metrics.items()} == _names("per_layer")
    layers = sum(metrics[f"{layer}.self_s"][0] for layer in spans.LAYERS)
    wall = metrics["runner.traced_wall_s"][0]
    assert layers + metrics["runner.glue_s"][0] == pytest.approx(wall, rel=1e-9)
    # Same rows as the stored reference; the size of the difference is not gated.
    assert metrics["runner.ref_max_rel_diff"][0] < 1.0


def test_tracer_restores_every_function():
    from cfota import aggregation, runner
    before = (aggregation.tco_step, runner.sample_channels,
              jobs.cfota.fl_engine.Fnn.gradient)
    with spans.Tracer(jobs.cfota):
        assert aggregation.tco_step is not before[0]
        assert runner.sample_channels is not before[1]
    assert (aggregation.tco_step, runner.sample_channels,
            jobs.cfota.fl_engine.Fnn.gradient) == before


@pytest.fixture(scope="module")
def sweep_csv():
    cfg = jobs.load("sweep", 1, jobs.WORKLOADS["sweep"].smoke)
    return cfg, jobs.execute(cfg, "mse-sweep")


def _rewrite(text, match, column, value):
    """Set one cell of the first row whose leading cells equal ``match``."""
    lines = text.splitlines()
    header = lines[0].split(",")
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if cells[:len(match)] == list(match):
            cells[header.index(column)] = value
            lines[i] = ",".join(cells)
            return "\n".join(lines) + "\n"
    raise AssertionError(f"no row starts with {match}")


def _cell(text, match, column):
    for row in check.parse_csv(text):
        if [row["scenario"], row["tco"], row["seed"], row["point"]][:len(match)] == list(match):
            return row[column]
    raise AssertionError(f"no row starts with {match}")


def test_clean_sweep_passes(sweep_csv):
    cfg, text = sweep_csv
    assert check.count_failed(text, cfg, "mse-sweep") == (len(check.expected_keys(cfg, "mse-sweep")), 0)


@pytest.mark.parametrize("corrupt", [
    # tco=1 row above its tco=0 row
    lambda t: _rewrite(t, ("cellular", "1", "0", "30"), "wsum_mse",
                       repr(2 * float(_cell(t, ("cellular", "0", "0", "30"), "wsum_mse")))),
    # level 2 differs from level 3
    lambda t: _rewrite(t, ("level2", "0", "0", "0"), "mse_g1", "0.5"),
    # nonzero error-free MSE
    lambda t: _rewrite(t, ("errorfree", "0", "0", "0"), "wsum_mse", "1e-9"),
    # fronthaul count off by one
    lambda t: _rewrite(t, ("level1", "0", "0", "0"), "fh_pilot_data", "1"),
    # non-finite value
    lambda t: _rewrite(t, ("cellular", "0", "0", "30"), "mse_g0", "nan"),
    # a missing row
    lambda t: "\n".join(t.splitlines()[:1] + t.splitlines()[2:]) + "\n",
])
def test_corrupted_sweep_row_counts_as_failed(sweep_csv, corrupt):
    cfg, text = sweep_csv
    assert check.count_failed(corrupt(text), cfg, "mse-sweep")[1] == 1


def test_train_accuracy_outside_unit_interval_fails():
    cfg = jobs.load("train", 1, ("rounds = 1", "architectures = errorfree"))
    text = jobs.execute(cfg, "train")
    assert check.count_failed(text, cfg, "train")[1] == 0
    bad = _rewrite(text, ("errorfree", "0", "0", "1"), "metric_g0", "1.5")
    assert check.count_failed(bad, cfg, "train")[1] == 1


def test_max_rel_diff(sweep_csv):
    _, text = sweep_csv
    assert check.max_rel_diff(text, text) == 0.0
    value = float(_cell(text, ("level3", "1", "0", "30"), "wsum_mse"))
    nudged = _rewrite(text, ("level3", "1", "0", "30"), "wsum_mse", repr(value * (1 + 1e-6)))
    assert check.max_rel_diff(nudged, text) == pytest.approx(1e-6, rel=1e-3)
    assert check.max_rel_diff(text.splitlines()[0] + "\n", text) == 1.0


def test_times_at_reference_host_speed():
    ref = host.REF_S
    # The host ran at half speed around the second step and the step took
    # twice as long: at the reference speed both steps took one second.
    assert host.at_ref([1.0, 2.0, 1.0], [ref, ref, 3 * ref, ref]) == pytest.approx(1.0)
    assert host.at_ref([1.0, 2.0, 1.0], [ref, ref, 2 * ref, 2 * ref]) == pytest.approx(1.0)
    # A step that is slower on an unchanged host stays slower.
    assert host.at_ref([1.5, 1.5, 1.5], [ref] * 4) == pytest.approx(1.5)
    assert 0 < host.calibrate() < 60
