import gzip
import struct
from dataclasses import replace

import numpy as np
import pytest

from cfota import fl_engine as fl
from cfota import runner
from cfota.cli import main as cli_main
from cfota.rng import substream

from oracles import desk_config


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


def test_unknown_key_is_parse_error(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("architectures = level3\nbogus_key = 3\n")
    with pytest.raises(runner.ParseError) as err:
        runner.load_config(path)
    assert err.value.lineno == 2


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
])
def test_out_of_range_value_names_its_key(tmp_path, key, value):
    path = tmp_path / "scenario.cfg"
    path.write_text(f"{key} = {value}\n")
    with pytest.raises(runner.ValidationError) as err:
        runner.load_config(path)
    assert key in str(err.value)


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


def test_sweep_threads_do_not_change_results():
    cfg = desk_config(seeds=3, architectures=("level3", "level1"),
                      sweep_dbm=(10.0,))
    rows1 = runner.run_mse_sweep(cfg, threads=1)
    rows2 = runner.run_mse_sweep(cfg, threads=3)
    assert rows1 == rows2


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
    metrics = [tuple(tasks[g].metric(models[g]) for g in range(cfg.n_groups))]
    for _ in range(cfg.rounds):
        new_models = []
        for g in range(cfg.n_groups):
            locals_g = np.stack([
                fl.local_update(models[g], tasks[g].device_gradient_fn(i),
                                tasks[g].learning_rate(cfg))
                for i in range(cfg.group_size)])
            new_models.append(fl.desired_global(locals_g, gamma))
        models = new_models
        metrics.append(tuple(tasks[g].metric(models[g])
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


def test_training_shares_each_round_draw_across_architectures(monkeypatch):
    # one draw_round per (seed, round) whatever the number of channel
    # architectures; each architecture's rows equal a run configured with
    # that architecture alone, at any thread count
    archs = ("errorfree", "level1", "level2", "level3", "cellular")
    cfg = _train_cfg(architectures=archs, rounds=2, seeds=2)
    draws = []
    draw_round = runner.draw_round

    def counting_draw(stats, seed_tags):
        draws.append(seed_tags)
        return draw_round(stats, seed_tags)

    monkeypatch.setattr(runner, "draw_round", counting_draw)
    rows = runner.run_fl_training(cfg, threads=1)
    assert sorted(draws) == [(cfg.master_seed, seed, "round", t)
                             for seed in range(cfg.seeds)
                             for t in range(1, cfg.rounds + 1)]
    monkeypatch.undo()
    assert runner.run_fl_training(cfg, threads=2) == rows
    for arch in archs:
        alone = runner.run_fl_training(_train_cfg(architectures=(arch,),
                                                  rounds=2, seeds=2))
        assert alone == [row for row in rows if row.scenario == arch]


def test_training_idx_task_end_to_end(tmp_path, monkeypatch):
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
    monkeypatch.setenv(runner.DATA_DIR_ENV, str(tmp_path))
    cfg = _train_cfg(task="idx", rounds=1, samples_per_device=20,
                     test_samples=20, n_features=9)
    cfg = runner.parse_config_lines(cfg_lines, base=cfg)
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
    cfg = _train_cfg(task="idx", samples_per_device=2, test_samples=6)
    cfg = runner.parse_config_lines(cfg_lines, base=cfg)
    nu, theta_bar = runner._initial_round_stats(cfg, 0)
    for g in range(cfg.n_groups):
        task = runner._GroupTask(cfg, 0, g)
        assert task.x_train.shape[1] == 15
        _, st = fl.normalize(runner._initial_model(cfg, 0, g))
        members = slice(g * cfg.group_size, (g + 1) * cfg.group_size)
        np.testing.assert_array_equal(nu[members], st.std)
        np.testing.assert_array_equal(theta_bar[members], st.mean)
    rows = runner.run_mse_sweep(replace(cfg, sweep_dbm=(10.0,)))
    assert all(np.isfinite(r.wsum_mse) for r in rows)


def test_training_ridge_gap_below_bound():
    # seed-averaged optimality gap of a channel-trained ridge task stays
    # below the curvature bound fed with the measured per-round errors
    # (closed-form per-slot MSE times the parameter count)
    cfg = _train_cfg(task="ridge", architectures=("level3",), rounds=8,
                     seeds=30, n_features=5)
    rows = runner.run_fl_training(cfg, threads=4)
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
    code = cli_main(["mse-sweep", "-c", str(cfgfile), "--out", str(out),
                     "--grid", "0,10"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2  # header + 2 grid points x (tco, no-tco)


def test_cli_grid_with_negative_first_point(tmp_path, capsys):
    # argparse reads a bare "-10,0" as an option; the "=" form passes it
    cfgfile = tmp_path / "scenario.cfg"
    cfgfile.write_text(
        "architectures = level3\nseeds = 1\nn_devices = 6\nn_groups = 2\n"
        "tau_p = 3\nsweep_dbm = 20\n")
    out = tmp_path / "rows.csv"
    assert cli_main(["mse-sweep", "-c", str(cfgfile), "--out", str(out),
                     "--grid=-10,0"]) == 0
    points = sorted({float(line.split(",")[3])
                     for line in out.read_text().splitlines()[1:]})
    assert points == [-10.0, 0.0]


def test_cli_reports_named_errors(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("n_devices = 7\nn_groups = 3\n")
    assert cli_main(["validate-config", "-c", str(cfgfile)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ValidationError")


@pytest.mark.parametrize("arch,grid,error", [
    ("level3", "nan,0", "ValidationError"),
    ("level3", "0,x", "ParseError"),
    ("level1", "nan", "ValidationError"),
])
def test_cli_bad_grid_is_named_error(tmp_path, capsys, arch, grid, error):
    cfgfile = tmp_path / "scenario.cfg"
    cfgfile.write_text(f"architectures = {arch}\nseeds = 1\n")
    out = tmp_path / "rows.csv"
    assert cli_main(["mse-sweep", "-c", str(cfgfile), "--out", str(out),
                     "--grid", grid]) == 1
    err = capsys.readouterr().err
    assert err.startswith(error) and "sweep_dbm" in err
    assert not out.exists()


def test_cli_fronthaul(tmp_path, capsys):
    cfgfile = tmp_path / "scenario.cfg"
    cfgfile.write_text("tau_p = 10\ntau_u = 190\nn_ap_antennas = 4\n"
                       "n_aps = 16\nn_devices = 6\nn_groups = 2\n")
    assert cli_main(["fronthaul", "-c", str(cfgfile),
                     "--rounds-per-block", "47"]) == 0
    out = capsys.readouterr().out
    assert "level 3: pilot/data 12800" in out
    assert "LEVEL2" in out
