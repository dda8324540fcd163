import gzip
import importlib
import pkgutil
import struct
import threading
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import cfota
from cfota import fl_engine as fl
from cfota import runner
from cfota.cli import main as cli_main
from cfota.rng import substream

from oracles import (desired_global, desk_config, device_gradient_fn, group_metric,
                     local_update, seed_problem, train_rows)


# ---------------------------------------------------------------------------
# Config parsing and validation
# ---------------------------------------------------------------------------

def test_minimal_config_gets_defaults(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("# comment only\narchitectures = level3\n")
    cfg = runner.load_config(path)
    assert cfg.p_max_dbm == 20.0
    assert cfg.noise_dbm == -96.0
    assert cfg.pilot_power_dbm == 20.0
    assert cfg.learning_rate == 0.005
    assert cfg.epsilon == 1e-10
    assert cfg.max_iters == 500
    assert cfg.side_m == 500.0


@pytest.mark.parametrize(
    "path", sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg")),
    ids=lambda path: path.name)
def test_committed_config_loads(path):
    cfg = runner.load_config(path)
    assert cfg.architectures and cfg.out


# A config line and the value it must set, per field type.
CONFIG_SAMPLES = {bool: ("yes", True), int: ("7", 7), float: ("2.5", 2.5), str: ("abc", "abc"),
                  tuple[str, ...]: ("level1, level3", ("level1", "level3")),
                  tuple[float, ...]: ("1.5, -2", (1.5, -2.0))}


@pytest.mark.parametrize("field", [f for f in fields(runner.ScenarioConfig)
                                   if f.name != "idx_paths"], ids=lambda f: f.name)
def test_every_config_field_can_be_set_from_a_line(field):
    raw, want = CONFIG_SAMPLES[field.type]
    assert getattr(runner.ScenarioConfig(), field.name) != want
    got = getattr(runner.parse_config_lines([f"{field.name} = {raw}"]), field.name)
    assert got == want and type(got) is type(want)
    if isinstance(want, tuple):
        assert [type(item) for item in got] == [type(item) for item in want]


def test_unknown_key_is_parse_error(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("architectures = level3\nbogus_key = 3\n")
    with pytest.raises(runner.ParseError) as err:
        runner.load_config(path)
    assert err.value.lineno == 2


@pytest.mark.parametrize("key", ["idx_label_filtr_g0", "idx_train_image_g0", "idx_train_images_g",
                                 "idx_train_images_g01", "idx_train_images_gx", "idx_paths"])
def test_misspelt_idx_key_is_parse_error(tmp_path, key):
    # nothing reads a misspelt IDX key, so a misspelt label filter would
    # train on every label
    path = tmp_path / "scenario.cfg"
    path.write_text(f"task = idx\n{key} = 1,2\n")
    with pytest.raises(runner.ParseError, match=f"unknown key '{key}'") as err:
        runner.load_config(path)
    assert err.value.lineno == 2


@pytest.mark.parametrize("key", ["idx_train_images_g2", "idx_label_filter_g7"])
def test_idx_key_of_a_group_beyond_n_groups_is_named_error(tmp_path, key):
    path = tmp_path / "scenario.cfg"
    path.write_text(f"n_groups = 2\nidx_train_images_g1 = y\n{key} = y\n")
    with pytest.raises(runner.ValidationError, match=key):
        runner.load_config(path)


@pytest.mark.parametrize("line", ["sweep_dbm = 1,,2", "omega = ,",
                                  "architectures = level1,,level3", "sweep_dbm = 0, 10,"])
def test_list_with_an_empty_element_is_parse_error(line):
    # a wholly empty value is the empty list (see "sweep_dbm", "" above)
    key = line.split()[0]
    with pytest.raises(runner.ParseError, match=f"line 2: bad value for '{key}'"):
        runner.parse_config_lines(["seeds = 1", line])


def test_malformed_line_is_parse_error(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("just some words\n")
    with pytest.raises(runner.ParseError):
        runner.load_config(path)


def test_divisibility_validation(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("n_devices = 7\nn_groups = 3\ntau_p = 3\n")
    with pytest.raises(runner.ValidationError) as err:
        runner.load_config(path)
    assert "divisible" in str(err.value)


def test_fair_comparison_validation():
    with pytest.raises(runner.ValidationError):
        runner.validate_config(runner.ScenarioConfig(fair_comparison=True))
    ok = runner.validate_config(runner.ScenarioConfig(
        fair_comparison=True, n_bs_antennas=2))
    assert ok.cells * ok.n_bs_antennas == ok.n_aps * ok.n_ap_antennas


@pytest.mark.parametrize("key,value", [
    ("max_iters", "0"),
    ("epsilon", "-1e-12"),
    ("learning_rate", "0"),
    ("learning_rate", "inf"),
    ("hidden_units", "0"),
    ("samples_per_device", "0"),
    ("sweep_dbm", ""),
    ("sweep_dbm", "0, inf"),
    ("epsilon", "nan"),
    ("test_samples", "0"),
    ("n_classes", "0"),
    ("omega", "-1, 1"),
    ("noise_dbm", "nan"),
    ("p_max_dbm", "inf"),
    ("pilot_power_dbm", "-inf"),
    ("side_m", "0"),
    ("side_m", "inf"),
    ("n_features", "0"),
    # a second line of the file sets the task the bound depends on
    pytest.param("n_features", "1\ntask = ridge", id="n_features-1-ridge"),
    ("asd_deg", "-1"),
    ("asd_deg", "nan"),
    ("alpha", "0"),
    ("shadow_std_db", "-1"),
    ("decorr_m", "0"),
    ("d0_m", "0"),
    ("beta0_db", "nan"),
    ("beta0_db", "4000"),
    ("beta0_db", "-4000"),
    ("class_spread", "nan"),
    pytest.param("ridge", "nan\ntask = ridge", id="ridge-nan-ridge"),
    # finite dBm whose power in W overflows or underflows to 0
    ("p_max_dbm", "4000"),
    ("pilot_power_dbm", "4000"),
    ("noise_dbm", "4000"),
    ("sweep_dbm", "0, 4000"),
    ("noise_dbm", "-4000"),
    # a sweep point listed twice; -0 and 0 are one point
    ("sweep_dbm", "0, 10, 0"),
    ("sweep_dbm", "-0, 0"),
    # grid counts that are not perfect squares, one beyond float precision
    ("n_aps", "3"),
    ("cells", "8"),
    ("n_aps", str(10**20 + 1)),
])
def test_out_of_range_value_names_its_key(tmp_path, key, value):
    path = tmp_path / "scenario.cfg"
    path.write_text(f"{key} = {value}\n")
    with pytest.raises(runner.ValidationError) as err:
        runner.load_config(path)
    assert key in str(err.value)


# Keys whose values take any form their type allows.
FREE_FORM = {"fair_comparison", "out", "data_dir", "idx_paths"}


@pytest.mark.parametrize("field", fields(runner.ScenarioConfig), ids=lambda f: f.name)
def test_every_config_field_declares_rules_or_is_free_form(field):
    rules = field.metadata.get("rules", ())
    assert bool(rules) != (field.name in FREE_FORM)
    assert set(rules) <= set(runner._RULES)


# One value of each rule kind's config line that breaks it.
BREAKS = {"count": "0", "square": "3", "nonnegative": "-1", "finite_positive": "nan",
          "finite_nonnegative": "nan", "finite_square": "1e155", "wrap_side": "1e154",
          "dbm": "4000", "gain_db": "4000", "choice": "3", "stream_tag": str(2**127),
          "nonempty": ""}


@pytest.mark.parametrize("field,kind", [
    (f, kind) for f in fields(runner.ScenarioConfig) for kind in f.metadata.get("rules", ())],
    ids=lambda arg: getattr(arg, "name", arg))
def test_ruled_key_rejects_a_bad_value_by_name(field, kind):
    # a repeat lists the key's first default entry twice
    bad = f"{field.default[0]}, {field.default[0]}" if kind == "unique" else BREAKS[kind]
    with pytest.raises(runner.ValidationError, match=field.name):
        runner.validate_config(runner.parse_config_lines([f"{field.name} = {bad}"]))


@pytest.mark.parametrize("key,value", [("n_aps", 4.0), ("sweep_dbm", 20.0), ("seeds", "2"),
                                       ("architectures", "level3")])
def test_value_of_the_wrong_type_names_its_key(key, value):
    with pytest.raises(runner.ValidationError, match=f"^{key}={value!r} must be "):
        runner.validate_config(runner.ScenarioConfig(**{key: value}))


@pytest.mark.parametrize("key,value", [("learning_rate", 1), ("n_aps", np.int64(9)),
                                       ("p_max_dbm", np.float64(10.0)),
                                       ("sweep_dbm", (np.float64(0.0), 10))])
def test_int_for_a_float_and_numpy_scalars_validate(key, value):
    assert getattr(runner.validate_config(runner.ScenarioConfig(**{key: value})), key) == value


def test_repeated_architecture_is_named_error(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("architectures = level3, level1, level3\n")
    with pytest.raises(runner.ValidationError) as err:
        runner.load_config(path)
    assert "architectures" in str(err.value) and "'level3'" in str(err.value)


def test_master_seed_must_fit_a_stream_tag(tmp_path):
    # stream tags encode ints in 16 signed bytes, [-2**127, 2**127): a seed
    # at either end loads and keys a stream, one beyond fails validation
    path = tmp_path / "scenario.cfg"
    for seed in (-2**127, 2**127 - 1):
        path.write_text(f"master_seed = {seed}\n")
        assert runner.load_config(path).master_seed == seed
        substream(seed, 0, "geometry")
    for seed in (-2**127 - 1, 2**127):
        path.write_text(f"master_seed = {seed}\n")
        with pytest.raises(runner.ValidationError, match="master_seed"):
            runner.load_config(path)
        with pytest.raises(OverflowError):
            substream(seed, 0, "geometry")


IDX_KEYS = [f"idx_{split}_{part}_g{g}" for g in range(2)
            for split in ("train", "test") for part in ("images", "labels")]


@pytest.mark.parametrize("missing", [IDX_KEYS[:1], IDX_KEYS[3:4], IDX_KEYS[5:], IDX_KEYS])
def test_idx_task_without_a_file_key_is_named_error(tmp_path, missing):
    # validation names the first missing key, in the order groups then
    # train/test then images/labels, before any file is opened
    path = tmp_path / "scenario.cfg"
    path.write_text("task = idx\n" + "".join(f"{key} = absent.idx\n" for key in IDX_KEYS
                                             if key not in missing))
    with pytest.raises(runner.ValidationError) as err:
        runner.load_config(path)
    assert str(err.value) == f"task=idx requires key {missing[0]}"


def test_overrides_apply_after_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("rounds = 7\n")
    cfg = runner.load_config(path, overrides=["rounds = 3", "seeds = 2"])
    assert cfg.rounds == 3 and cfg.seeds == 2


# ---------------------------------------------------------------------------
# IDX datasets
# ---------------------------------------------------------------------------

def _write_idx_pair(tmp_path, images, labels, compress=False):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_bytes = struct.pack(">IIII", 0x803, n, rows, cols) + images.tobytes()
    lab_bytes = struct.pack(">II", 0x801, len(labels)) + labels.tobytes()
    opener = gzip.open if compress else open
    suffix = ".gz" if compress else ""
    img_path = tmp_path / f"images.idx{suffix}"
    lab_path = tmp_path / f"labels.idx{suffix}"
    with opener(img_path, "wb") as fh:
        fh.write(img_bytes)
    with opener(lab_path, "wb") as fh:
        fh.write(lab_bytes)
    return img_path, lab_path


def test_idx_roundtrip(tmp_path):
    rng = substream(0, "idx")
    images = rng.integers(0, 256, size=(10, 4, 3))
    labels = rng.integers(0, 10, size=10)
    img, lab = _write_idx_pair(tmp_path, images, labels)
    x, y = runner.load_idx_dataset(img, lab)
    assert x.shape == (10, 12)
    assert x.min() >= 0.0 and x.max() <= 1.0
    np.testing.assert_array_equal(y, labels)
    np.testing.assert_allclose(x[3], images[3].ravel() / 255.0)


def test_idx_gzip_transparent(tmp_path):
    images = np.zeros((2, 2, 2), dtype=np.uint8)
    img, lab = _write_idx_pair(tmp_path, images, [1, 2], compress=True)
    x, y = runner.load_idx_dataset(img, lab)
    assert x.shape == (2, 4)
    np.testing.assert_array_equal(y, [1, 2])


def test_idx_bad_magic(tmp_path):
    img, lab = _write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8),
                               [0])
    raw = img.read_bytes()
    img.write_bytes(b"\x00\x00\x09\x03" + raw[4:])
    with pytest.raises(runner.BadMagic):
        runner.load_idx_dataset(img, lab)


def test_idx_truncated(tmp_path):
    img, lab = _write_idx_pair(tmp_path, np.zeros((4, 3, 3), dtype=np.uint8),
                               [0, 1, 2, 3])
    img.write_bytes(img.read_bytes()[:-5])
    with pytest.raises(runner.TruncatedFile):
        runner.load_idx_dataset(img, lab)


def test_idx_header_beyond_any_read_is_truncated_file(tmp_path):
    # a corrupt header whose byte count no single read could hold: the
    # reader stops at the end of the 10 bytes the file holds
    img, lab = _write_idx_pair(tmp_path, np.zeros((1, 2, 2)), [0])
    img.write_bytes(struct.pack(">IIII", 0x803, 0xFFFFFFFF, 0xFFFF, 0xFFFF) + bytes(10))
    with pytest.raises(runner.TruncatedFile, match="got 10$"):
        runner.load_idx_dataset(img, lab)


def test_read_exact_joins_its_chunks(tmp_path):
    data = bytes(range(256)) * (5 * 2**12 + 1)  # more than one 4 MiB chunk
    path = tmp_path / "data.gz"
    with gzip.open(path, "wb") as fh:
        fh.write(data)
    with gzip.open(path, "rb") as fh:
        assert runner._read_exact(fh, len(data) - 3, path) == data[:-3]
    with gzip.open(path, "rb") as fh, pytest.raises(runner.TruncatedFile):
        runner._read_exact(fh, len(data) + 1, path)


def test_idx_label_filter_remaps_sorted(tmp_path):
    # letters 1..12; keep 1..10 and remap to 0..9 in sorted order
    labels = np.arange(12) + 1
    images = np.zeros((12, 2, 2), dtype=np.uint8)
    img, lab = _write_idx_pair(tmp_path, images, labels)
    x, y = runner.load_idx_dataset(img, lab, label_filter=range(1, 11),
                                   n_classes=10)
    assert len(x) == 10
    assert sorted(set(y)) == list(range(10))


def test_idx_label_out_of_range(tmp_path):
    img, lab = _write_idx_pair(tmp_path, np.zeros((3, 2, 2), dtype=np.uint8),
                               [0, 4, 11])
    with pytest.raises(runner.LabelOutOfRange):
        runner.load_idx_dataset(img, lab, n_classes=10)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _row(scenario="level3", tco=1, seed=0, point=0.0):
    return runner.ResultRow(scenario, tco, seed, point, 0.123456789123,
                            (0.1, 0.2), (0.9, 0.8), (10, 0, 24))


def test_emit_csv_header_only(tmp_path):
    path = tmp_path / "out.csv"
    runner.emit_csv([], path, n_groups=2)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("scenario,tco,seed,point,wsum_mse,mse_g0")


def test_emit_csv_one_row(tmp_path):
    path = tmp_path / "out.csv"
    runner.emit_csv([_row()], path, n_groups=2)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[4] == "0.123456789"  # nine significant digits


def test_emit_csv_deterministic_and_sorted(tmp_path):
    rows = [_row(seed=1), _row(seed=0), _row(scenario="cellular")]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    runner.emit_csv(rows, a, n_groups=2)
    runner.emit_csv(list(reversed(rows)), b, n_groups=2)
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[1].startswith("cellular")


def test_emit_csv_io_error(tmp_path):
    with pytest.raises(runner.IoError):
        runner.emit_csv([], tmp_path / "missing" / "out.csv", n_groups=1)


# ---------------------------------------------------------------------------
# MSE sweep
# ---------------------------------------------------------------------------

def test_sweep_single_point_rows_per_architecture():
    cfg = desk_config(seeds=1, sweep_dbm=(20.0,))
    rows = runner.run_mse_sweep(cfg)
    by_scenario = {}
    for row in rows:
        by_scenario.setdefault(row.scenario, []).append(row)
    # errorfree and level1 produce one row, tco-capable levels two
    assert len(by_scenario["errorfree"]) == 1
    assert len(by_scenario["level1"]) == 1
    assert len(by_scenario["level2"]) == 2
    assert len(by_scenario["level3"]) == 2
    assert len(by_scenario["cellular"]) == 2


def test_sweep_errorfree_is_zero():
    cfg = desk_config(seeds=1, architectures=("errorfree",),
                      sweep_dbm=(0.0, 20.0))
    rows = runner.run_mse_sweep(cfg)
    assert all(row.wsum_mse == 0.0 for row in rows)


def test_sweep_tco_never_worse_than_full_power():
    cfg = desk_config(seeds=2, architectures=("level3", "cellular"),
                      sweep_dbm=(0.0, 20.0))
    rows = runner.run_mse_sweep(cfg)
    table = {(r.scenario, r.tco, r.seed, r.point): r.wsum_mse for r in rows}
    for (scenario, tco, seed, point), wsm in table.items():
        if tco == 1:
            assert wsm <= table[(scenario, 0, seed, point)] + 1e-15


def test_sweep_level3_non_increasing_in_power_per_seed():
    cfg = desk_config(seeds=2, architectures=("level3",),
                      sweep_dbm=(-10.0, 0.0, 10.0, 20.0))
    rows = runner.run_mse_sweep(cfg)
    for seed in range(2):
        vals = [r.wsum_mse for r in rows
                if r.seed == seed and r.tco == 1]
        assert vals == sorted(vals, reverse=True)


def test_sweep_solves_level1_grid_in_one_batch_per_block(monkeypatch):
    cfg = desk_config(seeds=2, architectures=("level1",),
                      sweep_dbm=(-10.0, 10.0, 30.0))
    rows = runner.run_mse_sweep(cfg)
    batches = []
    level1_batch = runner.aggregation.level1_batch

    def counting(problem, power_limits, channels):
        batches.append((len(problem.h_hat), len(power_limits)))
        return level1_batch(problem, power_limits, channels)

    monkeypatch.setattr(runner.aggregation, "level1_batch", counting)
    assert runner.run_mse_sweep(cfg) == rows
    assert batches == [(cfg.seeds, len(cfg.sweep_dbm))]


def assert_problems_equal(got, want):
    assert type(got) is type(want)
    for name in ("h_hat", "error_cov", "group_of_device"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert (got.noise_power, got.cellular) == (want.noise_power, want.cellular)
    for name in ("gamma", "omega", "nu"):
        assert np.array_equal(getattr(got.weights, name), getattr(want.weights, name))


@pytest.mark.parametrize("n_seeds", [1, 2, 5])
@pytest.mark.parametrize("mode", [1, 2])
@pytest.mark.parametrize("archs", [("level1", "level3"),
                                   ("level1", "level2", "level3", "cellular")])
def test_sweep_block_equals_seeds_built_one_by_one(monkeypatch, n_seeds, mode,
                                                   archs):
    # the block path draws each seed from its own streams and runs the rest
    # over the seed axis; each seed's slice of the records it solves
    # (estimates, error blocks, weights, grouping, power limits) and its
    # level-1 rows equal, bit for bit, what the one-seed functions build
    cfg = desk_config(seeds=n_seeds + 1, distribution_mode=mode,
                      architectures=archs, master_seed=3)
    # (batch entry point, serving-BS record): solver kind
    solvers = {("level1_batch", False): "level1", ("optimize_batch", False): "level3",
               ("optimize_batch", True): "cellular"}
    batches = {}
    for name in ("level1_batch", "optimize_batch"):
        def recording(problem, power_limits, *channels, name=name,
                      batch=getattr(runner.aggregation, name), **kwargs):
            batches[(name, problem.cellular)] = problem, power_limits
            return batch(problem, power_limits, *channels, **kwargs)

        monkeypatch.setattr(runner.aggregation, name, recording)
    seeds = range(1, n_seeds + 1)
    rows = runner._sweep_seeds(cfg, seeds)
    monkeypatch.undo()
    kinds = {runner.ARCHITECTURES[arch].solver for arch in archs}
    assert sorted(solvers[key] for key in batches) == sorted(kinds)
    powers = np.stack([np.full(cfg.n_devices, runner.dbm_to_watt(p))
                       for p in cfg.sweep_dbm])
    for i, seed in enumerate(seeds):
        geometry = runner.build_geometry(cfg, substream(3, seed, "geometry"))
        stats = runner.build_statistics(cfg, geometry, substream(3, seed, "shadowing"))
        state = runner.draw_round(stats, (3, seed, "round", 0))
        w = runner.make_weights(cfg, runner._initial_round_stats(cfg, seed))
        for block, block_powers in batches.values():
            assert_problems_equal(seed_problem(block, i),
                                  runner.level3_problem(stats, state, w, block.cellular))
            assert np.array_equal(block_powers, powers)
        problem = runner.level3_problem(stats, state, w)
        mses = runner.aggregation.level1_batch(problem, powers, state.ap.h)[2][0]
        for p_dbm, alone in zip(cfg.sweep_dbm, mses):
            [row] = [r for r in rows if (r.scenario, r.seed, r.point) == ("level1", seed, p_dbm)]
            assert row.mse_per_group == tuple(alone)


def test_relabelling_groups_relabels_the_desk_sweep(monkeypatch):
    # the two groups swap labels and priorities while the devices, and so
    # every draw, stay: each row keeps its weighted sum and swaps its
    # per-group MSEs.  The cellular view is left out: its serving BSs would
    # swap with the groups, and the BS draws follow the receiver order.
    # eps = -inf runs every solve to the cap, so no stopping test can break
    # a tie.
    cfg = replace(runner.load_config(Path(__file__).resolve().parents[1] / "configs"
                                     / "desk-sweep.cfg"),
                  architectures=("errorfree", "level1", "level2", "level3"), seeds=2,
                  omega=(1.0, 3.0), epsilon=-np.inf, max_iters=30)
    want = runner.run_mse_sweep(cfg)
    build_geometry = runner.build_geometry

    def swapped(cfg, rng):
        geometry = build_geometry(cfg, rng)
        return replace(geometry, group_of_device=1 - geometry.group_of_device)

    monkeypatch.setattr(runner, "build_geometry", swapped)
    got = runner.run_mse_sweep(replace(cfg, omega=(3.0, 1.0)))
    assert [row.sort_key() for row in got] == [row.sort_key() for row in want]
    assert any(row.wsum_mse > 0.0 for row in want)
    for new, old in zip(got, want):
        assert new.wsum_mse == pytest.approx(old.wsum_mse, rel=1e-12, abs=0.0)
        assert new.mse_per_group == pytest.approx(old.mse_per_group[::-1], rel=1e-12, abs=0.0)


def test_sweep_solves_every_seed_in_one_batch_per_kind(monkeypatch):
    # 5 seeds split into min(threads, 5) contiguous blocks, unequal at 2 and
    # 3 threads and one seed each at 7; the rows never change, and serially
    # each solver kind solves every seed's whole grid in one batch
    cfg = desk_config(seeds=5, sweep_dbm=(-10.0, 10.0, 30.0))
    batches = []
    optimize_batch = runner.aggregation.optimize_batch

    def counting(problem, power_limits, **kwargs):
        batches.append((problem.cellular, len(problem.h_hat), len(power_limits)))
        return optimize_batch(problem, power_limits, **kwargs)

    monkeypatch.setattr(runner.aggregation, "optimize_batch", counting)
    rows = runner.run_mse_sweep(cfg, threads=1)
    assert sorted(batches) == [(False, 5, 3), (True, 5, 3)]
    monkeypatch.undo()
    sweep_seeds = runner._sweep_seeds
    for threads in (2, 3, 7):
        blocks = []

        def recording(cfg, seeds):
            blocks.append(list(seeds))
            return sweep_seeds(cfg, seeds)

        monkeypatch.setattr(runner, "_sweep_seeds", recording)
        assert runner.run_mse_sweep(cfg, threads=threads) == rows
        monkeypatch.undo()
        assert len(blocks) == min(threads, cfg.seeds)
        assert sorted(blocks) == [list(range(b[0], b[-1] + 1)) for b in sorted(blocks)]
        assert sorted(seed for block in blocks for seed in block) == list(range(cfg.seeds))


# ---------------------------------------------------------------------------
# Federated training
# ---------------------------------------------------------------------------

def _train_cfg(**overrides):
    base = dict(architectures=("errorfree",), rounds=3, seeds=1,
                samples_per_device=40, test_samples=60, hidden_units=8,
                n_features=6, n_classes=4)
    base.update(overrides)
    return desk_config(**base)


def test_training_zero_rounds_emits_initial_row():
    cfg = _train_cfg(rounds=0)
    rows = runner.run_fl_training(cfg)
    assert len(rows) == 1
    assert rows[0].point == 0.0
    assert len(rows[0].metric_per_group) == cfg.n_groups


def test_training_errorfree_matches_plain_fedsgd_bitwise():
    cfg = _train_cfg(rounds=4)
    rows = runner.run_fl_training(cfg)
    # the reference path: same primitives, no channel anywhere
    tasks = [runner._GroupTask(cfg, 0, g) for g in range(cfg.n_groups)]
    models = [runner._initial_model(cfg, 0, g) for g in range(cfg.n_groups)]
    gamma = np.full(cfg.group_size, 1.0 / cfg.group_size)
    metrics = [tuple(group_metric(cfg, tasks[g], models[g]) for g in range(cfg.n_groups))]
    for _ in range(cfg.rounds):
        new_models = []
        for g in range(cfg.n_groups):
            locals_g = np.stack([
                local_update(models[g], device_gradient_fn(cfg, tasks[g], i),
                             tasks[g].learning_rate(cfg))
                for i in range(cfg.group_size)])
            new_models.append(desired_global(locals_g, gamma))
        models = new_models
        metrics.append(tuple(group_metric(cfg, tasks[g], models[g])
                             for g in range(cfg.n_groups)))
    got = [row.metric_per_group for row in rows]
    assert got == metrics


def test_training_rows_and_determinism():
    cfg = _train_cfg(architectures=("errorfree", "level3"), rounds=2, seeds=2)
    rows1 = runner.run_fl_training(cfg, threads=1)
    rows2 = runner.run_fl_training(cfg, threads=2)
    assert rows1 == rows2
    per_arch = {}
    for row in rows1:
        per_arch.setdefault(row.scenario, []).append(row)
    assert len(per_arch["errorfree"]) == 2 * 3  # seeds * (rounds + 1)
    assert len(per_arch["level3"]) == 2 * 3


@pytest.mark.parametrize("run, overrides", [
    (runner.run_mse_sweep, dict(architectures=("level3", "level1"), sweep_dbm=(10.0,))),
    (runner.run_fl_training, dict(architectures=("level1", "level3"), rounds=2))],
    ids=["sweep", "train"])
def test_seed_blocks_run_in_order_on_the_calling_thread(monkeypatch, run, overrides):
    # three seeds in three blocks give the rows of one block, and no run
    # starts a thread
    def refuse(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    cfg = _train_cfg(seeds=3, **overrides)
    assert run(cfg, threads=3) == run(cfg, threads=1)


def test_training_shares_each_round_draw_across_architectures(monkeypatch):
    # one channel draw and one AP slot-noise draw per (seed, round) whatever
    # the number of channel architectures (cellular opens the slot stream
    # once more for its per-BS noise); each architecture's rows equal a run
    # configured with that architecture alone, at any thread count
    archs = ("errorfree", "level1", "level2", "level3", "cellular")
    cfg = _train_cfg(architectures=archs, rounds=2, seeds=2)
    draws, slots = [], []
    draw_block, substreams = runner.draw_block, runner.substreams

    def counting_draw(stats, round_tags):
        draws.extend(round_tags)
        return draw_block(stats, round_tags)

    def counting_streams(seed_tags, *tags):
        slots.extend(tuple(s) + tags for s in seed_tags if "slots" in tags)
        return substreams(seed_tags, *tags)

    monkeypatch.setattr(runner, "draw_block", counting_draw)
    monkeypatch.setattr(runner, "substreams", counting_streams)
    rows = runner.run_fl_training(cfg, threads=1)
    assert sorted(draws) == [(cfg.master_seed, seed, "round", t)
                             for seed in range(cfg.seeds)
                             for t in range(1, cfg.rounds + 1)]
    assert sorted(slots) == [(cfg.master_seed, seed, "slots", t)
                             for seed in range(cfg.seeds)
                             for t in range(1, cfg.rounds + 1) for _ in range(2)]
    monkeypatch.undo()
    assert runner.run_fl_training(cfg, threads=2) == rows
    for arch in archs:
        alone = runner.run_fl_training(_train_cfg(architectures=(arch,),
                                                  rounds=2, seeds=2))
        assert alone == [row for row in rows if row.scenario == arch]


def test_round_draws_share_read_only_seed_statistics(monkeypatch):
    # a draw holds only the block's channels and estimates; the problems of
    # every block of a seed read its views' covariance arrays, which cannot
    # be written, from the statistics, and the draws colour with its views'
    # read-only roots, with no eigendecomposition per round
    cfg = desk_config()
    geometry = runner.build_geometry(cfg, substream(4, "geometry"))
    stats = runner.build_statistics(cfg, geometry, substream(4, "shadowing"))
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigh", None)
        first, second = (runner.draw_round(stats, (4, "round", t)) for t in (1, 2))
    assert [f.name for f in fields(runner.ChannelState)] == ["h", "h_hat"]
    w = runner.make_weights(cfg, np.ones(cfg.n_devices))
    for view, cellular in (("ap", False), ("bs", True)):
        shared = getattr(stats, view)
        a, b = (runner.level3_problem(stats, state, w, cellular) for state in (first, second))
        assert np.shares_memory(a.error_cov, shared.error_cov)
        assert np.shares_memory(b.error_cov, shared.error_cov)
        assert not np.array_equal(getattr(first, view).h_hat, getattr(second, view).h_hat)
        for cov in (shared.draw_root, shared.estimate_cov, shared.error_cov):
            with pytest.raises(ValueError):
                cov[0, 0, 0, 0] = 0.0


def test_training_computes_mmse_statistics_once_per_seed_and_view(monkeypatch):
    archs = ("errorfree", "level1", "level2", "level3", "cellular")
    cfg = _train_cfg(architectures=archs, rounds=3, seeds=2)
    calls = []
    mmse_statistics = runner.estimation.mmse_statistics

    def counting(plan, correlations, noise_power):
        calls.append((correlations.shape[0], correlations.shape[-3]))
        return mmse_statistics(plan, correlations, noise_power)

    monkeypatch.setattr(runner.estimation, "mmse_statistics", counting)
    runner.run_fl_training(cfg, threads=1)
    # one call per view covers the block's seeds: the AP view (n_aps
    # receivers) and the serving-BS view (n_groups)
    assert calls == [(cfg.seeds, cfg.n_aps), (cfg.seeds, cfg.n_groups)]


def test_training_solves_every_seed_in_one_batch_per_round(monkeypatch):
    # serially, each round solves every seed of a solver kind in one batch
    # at the configured power, level 2 reading level 3's solve; the rows do
    # not depend on how the seeds split into blocks (at desk-train's
    # iteration cap)
    archs = ("errorfree", "level1", "level2", "level3", "cellular")
    cfg = _train_cfg(architectures=archs, rounds=2, seeds=5, max_iters=80)
    batches = []
    for name in ("level1_batch", "optimize_batch"):
        def counting(problem, power_limits, *channels, name=name,
                     batch=getattr(runner.aggregation, name), **kwargs):
            batches.append(((name, problem.cellular), len(problem.h_hat),
                            len(power_limits)))
            return batch(problem, power_limits, *channels, **kwargs)

        monkeypatch.setattr(runner.aggregation, name, counting)
    rows = runner.run_fl_training(cfg, threads=1)
    per_round = [("level1_batch", False), ("optimize_batch", False),
                 ("optimize_batch", True)]
    assert sorted(batches) == sorted((kind, cfg.seeds, 1)
                                     for kind in per_round * cfg.rounds)
    for threads in (2, 3, 7):
        assert runner.run_fl_training(cfg, threads=threads) == rows


@pytest.mark.parametrize("task", ["synthetic", "ridge"])
@pytest.mark.parametrize("threads", [1, 2])
def test_training_rows_equal_per_device_oracle(task, threads):
    # the block round (stacked local steps, one normalization, shared slot
    # noise, recovery from the combiners' projections) gives the rows of the
    # per-device, per-architecture round that combines every antenna's
    # received signal: keys, fronthaul and empty cells exactly, every float
    # cell to 1e-12, as the two associate the recovery differently
    archs = ("errorfree", "level1", "level2", "level3", "cellular")
    cfg = _train_cfg(architectures=archs, rounds=3, seeds=3, max_iters=80, task=task,
                     n_features=5 if task == "ridge" else 6)
    rows = runner.run_fl_training(cfg, threads=threads)
    expected = sorted((row for seed in range(cfg.seeds) for row in train_rows(cfg, seed)),
                      key=runner.ResultRow.sort_key)

    def cells(row):
        return (row.wsum_mse, *row.mse_per_group, *row.metric_per_group)

    def shape(row):  # the row without its float cells' values
        return (replace(row, wsum_mse=None, mse_per_group=None, metric_per_group=None),
                [x is None for x in cells(row)])

    assert list(map(shape, rows)) == list(map(shape, expected))
    got, want = ([x for row in r for x in cells(row) if x is not None] for r in (rows, expected))
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_training_level2_and_level3_rows_equal_runs_alone():
    # level 2 and level 3 solve on the same round draws
    cfg = _train_cfg(architectures=("level2", "level3"), rounds=3, seeds=2)
    rows = runner.run_fl_training(cfg, threads=1)
    for arch in cfg.architectures:
        alone = runner.run_fl_training(replace(cfg, architectures=(arch,)))
        assert [r for r in rows if r.scenario == arch] == alone


@pytest.mark.parametrize("task", ["synthetic", "ridge"])
def test_training_level2_rows_are_level3_rows(task):
    # level 2 applies level 3's combiners per AP and sums them at the CPU:
    # configured alone, it trains level 3's trajectory, and its rows differ
    # from level 3's only in the scenario name and the fronthaul columns
    cfg = _train_cfg(task=task, rounds=3, seeds=2, max_iters=80,
                     n_features=5 if task == "ridge" else 6)
    level2, level3 = (runner.run_fl_training(replace(cfg, architectures=(arch,)))
                      for arch in ("level2", "level3"))
    assert len(level2) == len(level3) == cfg.seeds * (cfg.rounds + 1)
    for row2, row3 in zip(level2, level3):
        assert (row2.scenario, row3.scenario) == ("level2", "level3")
        assert row2.fronthaul == runner.fronthaul_counts(cfg, 2) != row3.fronthaul
        assert replace(row2, scenario="level3", fronthaul=row3.fronthaul) == row3


def test_training_idx_task_end_to_end(tmp_path):
    rng = substream(7, "idxdata")
    cfg_lines = []
    for g in range(2):
        for split, count in (("train", 80), ("test", 30)):
            sub = tmp_path / f"g{g}{split}"
            sub.mkdir()
            images = rng.integers(0, 256, size=(count, 3, 3))
            labels = np.resize(np.arange(4), count)
            img, lab = _write_idx_pair(sub, images, labels)
            cfg_lines.append(
                f"idx_{split}_images_g{g} = {img.relative_to(tmp_path)}")
            cfg_lines.append(
                f"idx_{split}_labels_g{g} = {lab.relative_to(tmp_path)}")
    # the config's relative paths resolve against its data_dir
    cfg = _train_cfg(rounds=1, samples_per_device=20, test_samples=20, n_features=9,
                     data_dir=str(tmp_path))
    cfg = runner.validate_config(runner.parse_config_lines(["task = idx"] + cfg_lines,
                                                           base=cfg))
    rows = runner.run_fl_training(cfg)
    assert len(rows) == 2
    assert all(0.0 <= m <= 1.0 for row in rows for m in row.metric_per_group)


def test_sweep_idx_task_uses_dataset_input_width(tmp_path):
    # 5x3 images: the sweep's initial models must have the width training
    # uses (x_train.shape[1] = 15), so both report the same round-one stats
    rng = substream(8, "idxdata")
    cfg_lines = []
    for g in range(2):
        for split in ("train", "test"):
            sub = tmp_path / f"g{g}{split}"
            sub.mkdir()
            img, lab = _write_idx_pair(sub, rng.integers(0, 256, size=(12, 5, 3)),
                                       np.resize(np.arange(4), 12))
            cfg_lines += [f"idx_{split}_images_g{g} = {img}",
                          f"idx_{split}_labels_g{g} = {lab}"]
    cfg = _train_cfg(samples_per_device=2, test_samples=6)
    cfg = runner.validate_config(runner.parse_config_lines(["task = idx"] + cfg_lines,
                                                           base=cfg))
    nu = runner._initial_round_stats(cfg, 0)
    for g in range(cfg.n_groups):
        task = runner._GroupTask(cfg, 0, g)
        assert task.model.n_inputs == 15
        std = fl.normalize(runner._initial_model(cfg, 0, g))[2]
        members = slice(g * cfg.group_size, (g + 1) * cfg.group_size)
        np.testing.assert_array_equal(nu[members], std)
    rows = runner.run_mse_sweep(replace(cfg, sweep_dbm=(10.0,)))
    assert all(np.isfinite(r.wsum_mse) for r in rows)


def test_training_ridge_gap_below_bound():
    # seed-averaged optimality gap of a channel-trained ridge task stays
    # below the curvature bound fed with the measured per-round errors
    # (closed-form per-slot MSE times the parameter count)
    cfg = _train_cfg(task="ridge", architectures=("level3",), rounds=8,
                     seeds=30, n_features=5)
    rows = runner.run_fl_training(cfg)
    gaps = np.zeros((cfg.n_groups, cfg.seeds, cfg.rounds + 1))
    mses = np.zeros((cfg.n_groups, cfg.seeds, cfg.rounds + 1))
    for row in rows:
        for g in range(cfg.n_groups):
            gaps[g, row.seed, int(row.point)] = row.metric_per_group[g]
            if row.point > 0:
                mses[g, row.seed, int(row.point)] = row.mse_per_group[g]
    for g in range(cfg.n_groups):
        bounds = np.zeros((cfg.seeds, cfg.rounds + 1))
        for seed in range(cfg.seeds):
            task = runner._GroupTask(cfg, seed, g)
            errors = cfg.n_features * mses[g, seed, 1:]
            bounds[seed] = fl.optimality_gap_bound(
                task.ridge.chi, task.ridge.xi, gaps[g, seed, 0], errors)
        mean_gap = gaps[g].mean(axis=0)
        assert np.all(mean_gap <= bounds.mean(axis=0) + 1e-12)
        assert np.all(mean_gap >= -1e-12)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_validate_and_sweep(tmp_path, capsys):
    cfgfile = tmp_path / "scenario.cfg"
    cfgfile.write_text(
        "architectures = level3\nseeds = 1\nn_devices = 6\nn_groups = 2\n"
        "tau_p = 3\nsweep_dbm = 0\n")
    assert cli_main(["validate-config", "-c", str(cfgfile)]) == 0
    out = tmp_path / "rows.csv"
    code = cli_main(["mse-sweep", "-c", str(cfgfile), "--set", f"out={out}",
                     "--set", "sweep_dbm=0,10"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2  # header + 2 grid points x (tco, no-tco)


def test_cli_sweep_traces_grow_with_the_iterations_run(tmp_path, capsys):
    # a cap of 1e10 iterations is a valid config; every solve of this sweep
    # stops by the threshold, so the traces never approach the cap's length
    cfgfile = str(Path(__file__).resolve().parents[1] / "configs" / "desk-sweep.cfg")
    cap = ["--set", "max_iters=10000000000"]
    assert cli_main(["validate-config", "-c", cfgfile, *cap]) == 0
    out = tmp_path / "rows.csv"
    assert cli_main(["mse-sweep", "-c", cfgfile, "--set", f"out={out}", *cap,
                     "--set", "seeds=2", "--set", "distribution_mode=1",
                     "--set", "sweep_dbm=-20, -10"]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 32  # 2 seeds x 2 points x 8 (architecture, tco) pairs


def test_cli_names_a_shadowing_spread_beyond_the_float_range(tmp_path, capsys):
    # no finite bound on shadow_std_db excludes every overflowing draw, so
    # the config validates and the run stops at the first overflowing gain
    cfgfile = str(Path(__file__).resolve().parents[1] / "configs" / "desk-sweep.cfg")
    spread = ["--set", "shadow_std_db=1e5"]
    assert cli_main(["validate-config", "-c", cfgfile, *spread]) == 0
    capsys.readouterr()
    out = tmp_path / "rows.csv"
    assert cli_main(["mse-sweep", "-c", cfgfile, "--set", f"out={out}", *spread,
                     "--set", "seeds=1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("GainOverflow: ") and "shadow_std_db = 100000.0" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_shadowing_variances_beyond_the_float_range_stop_by_name():
    # shadow_std_db = 1e154 keeps its square finite, so it validates, but
    # the K variances sum beyond the float range: the run still stops at
    # the first overflowing gain, and warns of nothing on the way
    with pytest.raises(cfota.channel.GainOverflow):
        runner.run_mse_sweep(desk_config(seeds=1, shadow_std_db=1e154))


@pytest.mark.parametrize("command", ["mse-sweep", "train"])
def test_cli_names_an_indefinite_shadowing_kernel(tmp_path, capsys, command):
    # a decorrelation distance of twice the side makes the wrap-around
    # kernel indefinite on these drawn positions; no exact rule excludes it
    # at validation, so the config validates and the run stops by name
    cfgfile = str(Path(__file__).resolve().parents[1] / "configs" / "desk-sweep.cfg")
    keys = [f"--set={entry}" for entry in
            ("n_devices=20", "tau_p=10", "decorr_m=1000", "seeds=1", "max_iters=2")]
    assert cli_main(["validate-config", "-c", cfgfile, *keys]) == 0
    capsys.readouterr()
    out = tmp_path / "rows.csv"
    assert cli_main([command, "-c", cfgfile, "--set", f"out={out}", *keys]) == 1
    err = capsys.readouterr().err
    assert err.startswith("NotPSD: ") and err.count("\n") == 1
    assert "decorr_m = 1000.0" in err and "side_m = 500.0" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["mse-sweep", "train"])
def test_cli_without_an_output_path_runs_nothing(tmp_path, capsys, monkeypatch, command):
    # the missing path is named before any seed runs
    cfgfile = tmp_path / "scenario.cfg"
    cfgfile.write_text("architectures = level3\nseeds = 1\nrounds = 1\n")
    for name in ("run_mse_sweep", "run_fl_training"):
        monkeypatch.setattr(runner, name, None)
    assert cli_main([command, "-c", str(cfgfile)]) == 1
    err = capsys.readouterr().err
    assert err == ("ValidationError: no output path: "
                   "set 'out' in the config or with --set out=PATH\n")


def test_every_error_class_is_named():
    # the CLI prints what subclasses CfotaError as one line, so an error
    # class of the package cannot miss it; IoError is an OSError, which the
    # CLI prints too
    classes = set()
    for info in pkgutil.iter_modules(cfota.__path__):
        if info.name != "__main__":  # importing it runs the CLI
            module = importlib.import_module(f"cfota.{info.name}")
            classes |= {cls for cls in vars(module).values() if isinstance(cls, type)
                        and issubclass(cls, BaseException) and cls.__module__ == module.__name__}
    assert {runner.IoError, runner.ValidationError, fl.NonFiniteParameters} <= classes
    assert issubclass(cfota.CfotaError, ValueError)
    assert [cls for cls in classes - {runner.IoError}
            if not issubclass(cls, cfota.CfotaError)] == []


def test_cli_grid_with_negative_first_point(tmp_path, capsys):
    # the value of --set starts with its key, never with a minus sign, so
    # argparse passes a grid that starts with a negative point in either form
    cfgfile = tmp_path / "scenario.cfg"
    cfgfile.write_text(
        "architectures = level3\nseeds = 1\nn_devices = 6\nn_groups = 2\n"
        "tau_p = 3\nsweep_dbm = 20\n")
    out = tmp_path / "rows.csv"
    for grid in (["--set=sweep_dbm=-10,0"], ["--set", "sweep_dbm=-10,0"]):
        assert cli_main(["mse-sweep", "-c", str(cfgfile), f"--set=out={out}", *grid]) == 0
        points = sorted({float(line.split(",")[3])
                         for line in out.read_text().splitlines()[1:]})
        assert points == [-10.0, 0.0]


def test_cli_reports_named_errors(tmp_path, capsys):
    # a file that is not UTF-8 names its line and byte
    cfgfile = tmp_path / "bad.cfg"
    for text, error in ((b"n_devices = 7\nn_groups = 3\n", "ValidationError"),
                        (b"seeds = 1\nout = x\xff.csv\n",
                         "ParseError: line 2: byte 0xff is not UTF-8\n")):
        cfgfile.write_bytes(text)
        assert cli_main(["validate-config", "-c", str(cfgfile)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(error) and err.count("\n") == 1


def test_cli_config_directory_is_named_error(tmp_path, capsys):
    assert cli_main(["validate-config", "-c", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("IsADirectoryError") and err.count("\n") == 1


@pytest.mark.parametrize("sizes,error", [
    # g0's train labels one short of its images
    ({("g0", "train"): ((20, 3, 3), 19)}, "CountMismatch"),
    # g1's images 2x2, g0's 3x3: models of different parameter counts
    ({("g1", "train"): ((20, 2, 2), 20), ("g1", "test"): ((20, 2, 2), 20)},
     "ShapeMismatch"),
    # g1 holds fewer images than its 3 devices x 2 samples, or its 4 test
    # samples, need
    ({("g1", "train"): ((5, 3, 3), 5)},
     "ValidationError: group 1: the train split holds 5 images, needs 6"),
    ({("g1", "test"): ((3, 3, 3), 3)},
     "ValidationError: group 1: the test split holds 3 images, needs 4"),
    # g0's train images gzip-compressed, with bytes 10-30 of the stream
    # flipped, or cut to half its length
    ({("g0", "train"): ((20, 3, 3), 20, lambda raw: raw[:10] + bytes(
        c ^ 0xFF for c in raw[10:30]) + raw[30:])},
     "CorruptFile: {tmp}/g0train/images.idx.gz: damaged gzip stream: "),
    ({("g0", "train"): ((20, 3, 3), 20, lambda raw: raw[:len(raw) // 2])},
     "TruncatedFile: {tmp}/g0train/images.idx.gz: expected "),
])
def test_cli_bad_idx_task_is_named_error(tmp_path, capsys, sizes, error):
    lines = ["architectures = errorfree", "task = idx", "rounds = 1",
             "samples_per_device = 2", "test_samples = 4", "n_classes = 4",
             "hidden_units = 3"]
    for g in ("g0", "g1"):
        for split in ("train", "test"):
            shape, n_labels, *damage = sizes.get((g, split), ((20, 3, 3), 20))
            sub = tmp_path / f"{g}{split}"
            sub.mkdir()
            img, lab = _write_idx_pair(sub, np.zeros(shape), np.resize(np.arange(4), n_labels),
                                       compress=bool(damage))
            for harm in damage:
                img.write_bytes(harm(img.read_bytes()))
            lines += [f"idx_{split}_images_{g} = {img}",
                      f"idx_{split}_labels_{g} = {lab}"]
    cfgfile = tmp_path / "scenario.cfg"
    cfgfile.write_text("\n".join(lines) + "\n")
    out = tmp_path / "rows.csv"
    assert cli_main(["train", "-c", str(cfgfile), "--set", f"out={out}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(error.format(tmp=tmp_path)) and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("arch,grid,error", [
    ("level3", "nan,0", "ValidationError"),
    ("level3", "0,x", "ParseError"),
    ("level1", "nan", "ValidationError"),
    ("level3", "0,0", "ValidationError"),
])
def test_cli_bad_grid_is_named_error(tmp_path, capsys, arch, grid, error):
    cfgfile = tmp_path / "scenario.cfg"
    cfgfile.write_text(f"architectures = {arch}\nseeds = 1\n")
    out = tmp_path / "rows.csv"
    assert cli_main(["mse-sweep", "-c", str(cfgfile), "--set", f"out={out}",
                     "--set", f"sweep_dbm={grid}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(error) and "sweep_dbm" in err
    assert not out.exists()


@pytest.mark.parametrize("command,option,key", [
    ("validate-config", "--set=p_max_dbm=4000", "p_max_dbm"),
    ("mse-sweep", "--set=pilot_power_dbm=4000", "pilot_power_dbm"),
    ("mse-sweep", "--set=sweep_dbm=0,4000", "sweep_dbm"),
    ("train", "--set=noise_dbm=4000", "noise_dbm"),
])
def test_cli_dbm_overflow_is_named_error(tmp_path, capsys, command, option,
                                         key):
    cfgfile = tmp_path / "scenario.cfg"
    cfgfile.write_text("architectures = level3\nseeds = 1\nrounds = 1\n")
    out = tmp_path / "rows.csv"
    # validate-config writes no CSV
    writes = [] if command == "validate-config" else ["--set", f"out={out}"]
    assert cli_main([command, "-c", str(cfgfile), *writes, option]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ValidationError") and key in err
    assert not out.exists()


@pytest.mark.parametrize("text,key", [
    ("task = idx\n", "idx_train_images_g0"),
    ("task = idx\narchitectures = level1\n", "idx_train_images_g0"),
    (f"master_seed = {2**127}\n", "master_seed"),
    (f"master_seed = {-2**127 - 1}\n", "master_seed"),
])
def test_cli_validate_config_rejects_unusable_keys(tmp_path, capsys, text, key):
    # an IDX task without its files, or a master seed no stream tag holds,
    # fails validation in one named line rather than later in the run
    cfgfile = tmp_path / "scenario.cfg"
    cfgfile.write_text(text)
    assert cli_main(["validate-config", "-c", str(cfgfile)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ValidationError") and err.count("\n") == 1 and key in err


@pytest.mark.parametrize("command", ["validate-config", "train"])
def test_cli_malformed_label_filter_is_named_error(tmp_path, capsys, command):
    cfgfile = tmp_path / "scenario.cfg"
    cfgfile.write_text("task = idx\nidx_label_filter_g0 = 1, x\n")
    out = tmp_path / "rows.csv"
    writes = [] if command == "validate-config" else ["--set", f"out={out}"]
    assert cli_main([command, "-c", str(cfgfile), *writes]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ValidationError") and err.count("\n") == 1
    assert "idx_label_filter_g0" in err
    assert not out.exists()


def test_cli_diverging_training_is_named_error(tmp_path, capsys):
    # a finite learning rate so large that the local step overflows: the
    # normalization meets non-finite parameters, with or without a solver,
    # and the run ends in one error line and writes no rows
    cfgfile = Path(__file__).resolve().parents[1] / "configs" / "desk-train.cfg"
    out = tmp_path / "rows.csv"
    for archs in ("errorfree", "errorfree,level1,level3"):
        code = cli_main(["train", "-c", str(cfgfile), "--set", f"out={out}",
                         "--set", "seeds=1", "--set", "rounds=2",
                         "--set", "learning_rate=1e300", "--set", f"architectures={archs}"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("NonFiniteParameters: ") and err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("ridge,features,samples,rows", [("0", 2, 1, 1), ("1e-300", 8, 5, 5)])
def test_cli_singular_ridge_task_is_named_error(tmp_path, capsys, ridge, features, samples,
                                                rows):
    # a group of one device with fewer rows than features and a negligible
    # ridge has no unique optimum: one error line names the three, no rows
    cfgfile = Path(__file__).resolve().parents[1] / "configs" / "desk-train.cfg"
    out = tmp_path / "x.csv"
    sets = ["task=ridge", f"ridge={ridge}", f"n_features={features}",
            f"samples_per_device={samples}", "n_devices=2", "n_groups=2", "tau_p=1", "seeds=1",
            "rounds=1", f"out={out}"]
    argv = [arg for s in sets for arg in ("--set", s)]
    assert cli_main(["train", "-c", str(cfgfile), *argv]) == 1
    assert capsys.readouterr().err == (
        f"InvalidConstants: ridge={float(ridge)} with {rows} rows of {features} features "
        "leaves the Hessian singular\n")
    assert not out.exists()


def test_cli_non_finite_solve_is_named_error(tmp_path, capsys, monkeypatch):
    # weights with an infinite spread reach the solver, whose objective is
    # then not finite: the run ends in one error line and writes no rows
    cfgfile = Path(__file__).resolve().parents[1] / "configs" / "desk-train.cfg"
    out = tmp_path / "rows.csv"
    normalize = runner.fl_engine.normalize

    def infinite_spread(theta):
        symbols, mean, std = normalize(theta)
        return symbols, mean, np.full_like(std, np.inf)

    monkeypatch.setattr(runner.fl_engine, "normalize", infinite_spread)
    with np.errstate(all="ignore"):
        code = cli_main(["train", "-c", str(cfgfile), "--set", f"out={out}",
                         "--set", "seeds=1", "--set", "rounds=2",
                         "--set", "architectures=level3"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("NonFiniteSolve: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("run", [runner.run_mse_sweep, runner.run_fl_training])
@pytest.mark.parametrize("threads", [0, -1])
def test_threads_below_one_is_named_error(run, threads):
    with pytest.raises(runner.ValidationError, match=f"threads={threads} must be >= 1"):
        run(desk_config(seeds=2), threads=threads)


@pytest.mark.parametrize("rounds", ["0", "-3"])
def test_cli_rounds_per_block_below_one_is_named_error(tmp_path, capsys, rounds):
    cfgfile = tmp_path / "scenario.cfg"
    cfgfile.write_text("tau_p = 10\n")
    assert cli_main(["fronthaul", "-c", str(cfgfile),
                     "--rounds-per-block", rounds]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"ValidationError: --rounds-per-block={rounds} must be >= 1\n"
    assert "cheaper" not in captured.out


@pytest.mark.parametrize("command", ["fronthaul", "validate-config", "mse-sweep", "train"])
@pytest.mark.parametrize("option", [("--seed", "4"), ("--out", "fh.csv"),
                                    ("--threads", "9"), ("--grid", "0,10")])
def test_cli_run_options_are_usage_errors_elsewhere(tmp_path, capsys, monkeypatch,
                                                    command, option):
    # a run's values come from its config and --set alone: no verb takes a
    # second way to set the master seed, the CSV path or the grid, or a
    # thread count, and none runs or writes anything when given one
    cfgfile = tmp_path / "scenario.cfg"
    cfgfile.write_text("tau_p = 10\nseeds = 1\nrounds = 1\n")
    monkeypatch.chdir(tmp_path)
    for name in ("run_mse_sweep", "run_fl_training"):
        monkeypatch.setattr(runner, name, None)
    flag, value = option
    with pytest.raises(SystemExit) as exc:
        cli_main([command, "-c", str(cfgfile), flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["scenario.cfg"]


def test_cli_fronthaul(tmp_path, capsys):
    cfgfile = tmp_path / "scenario.cfg"
    cfgfile.write_text("tau_p = 10\ntau_u = 190\nn_ap_antennas = 4\n"
                       "n_aps = 16\nn_devices = 6\nn_groups = 2\n")
    assert cli_main(["fronthaul", "-c", str(cfgfile),
                     "--rounds-per-block", "47"]) == 0
    out = capsys.readouterr().out
    assert "level 3: pilot/data 12800" in out
    assert "LEVEL2" in out
