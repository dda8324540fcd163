"""Scenario orchestration: config, datasets, sweeps, training, CSV output.

A scenario is described by a flat key=value config file.  The runner
assembles the geometry, channel statistics, and per-round draws from
counter-based substreams keyed on (master seed, seed index, round,
purpose), so results are identical across runs and across thread counts.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
import csv
import gzip
import os
import struct

import numpy as np

from . import accounting, aggregation, estimation, fl_engine
from .channel import LargeScaleParams, correlation_matrices, sample_channels
from .rng import substream
from .topology import (Area, DistributionMode, NetworkGeometry, grid_points,
                       place_aps_grid, place_devices)

DATA_DIR_ENV = "CFOTA_DATA_DIR"


@dataclass(frozen=True)
class Architecture:
    """How the runner solves, scores, recovers and accounts one architecture.

    ``name`` is also the recovery level that ``RoundLink.level`` and
    ``aggregation.recover`` take.  ``solver`` is the kind of round solve:
    "level1" (local combiners at full power), "level3" (the alternating
    solver on the stacked AP view), "cellular" (the same solver on the
    serving-BS views) or None (error-free, no channel).  ``fronthaul`` is
    the accounting level (None: no AP fronthaul), ``tco`` is 1 when the
    transmit coefficients are optimized, and ``needs_bs`` says whether the
    serving-BS view is drawn.
    """

    name: str
    solver: str | None
    fronthaul: int | None
    tco: int
    needs_bs: bool = False


ARCHITECTURES = {arch.name: arch for arch in (
    Architecture("errorfree", None, None, 0),
    Architecture("level1", "level1", 1, 0),
    Architecture("level2", "level3", 2, 1),
    Architecture("level3", "level3", 3, 1),
    Architecture("cellular", "cellular", None, 1, needs_bs=True),
)}


class ParseError(ValueError):
    """Config file syntax error; carries the offending line number."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class ValidationError(ValueError):
    """A config invariant is violated; the message names it."""


class BadMagic(ValueError):
    """IDX file does not start with the expected magic number."""


class TruncatedFile(ValueError):
    """IDX file is shorter than its header promises."""


class LabelOutOfRange(ValueError):
    """A dataset label falls outside the declared class range."""


class IoError(OSError):
    """Failed to write result output."""


def dbm_to_watt(dbm):
    return 10.0 ** ((dbm - 30.0) / 10.0)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioConfig:
    architectures: tuple = ("level3",)
    side_m: float = 500.0
    cells: int = 4
    n_aps: int = 4
    n_ap_antennas: int = 2
    n_bs_antennas: int = 8
    n_devices: int = 6
    n_groups: int = 2
    tau_p: int = 3
    tau_u: int = 50
    distribution_mode: int = 2
    p_max_dbm: float = 20.0
    pilot_power_dbm: float = 20.0
    noise_dbm: float = -96.0
    omega: tuple = ()
    epsilon: float = 1e-10
    max_iters: int = 500
    learning_rate: float = 0.005
    rounds: int = 20
    seeds: int = 1
    master_seed: int = 0
    task: str = "synthetic"
    hidden_units: int = 20
    n_features: int = 16
    n_classes: int = 10
    samples_per_device: int = 150
    test_samples: int = 500
    class_spread: float = 0.15
    ridge: float = 0.1
    asd_deg: float = 15.0
    beta0_db: float = -30.5
    alpha: float = 3.67
    d0_m: float = 1.0
    shadow_std_db: float = 4.0
    decorr_m: float = 9.0
    fair_comparison: bool = False
    sweep_dbm: tuple = (-10.0, 0.0, 10.0, 20.0, 30.0, 40.0)
    out: str = ""
    data_dir: str = ""
    idx_paths: dict = field(default_factory=dict)

    @property
    def group_size(self):
        return self.n_devices // self.n_groups

    @property
    def noise_power(self):
        return dbm_to_watt(self.noise_dbm)

    @property
    def omega_or_default(self):
        if self.omega:
            return np.asarray(self.omega, dtype=float)
        return np.ones(self.n_groups)

    def large_scale_params(self):
        return LargeScaleParams(beta0_db=self.beta0_db, alpha=self.alpha,
                                d0_m=self.d0_m, shadow_std_db=self.shadow_std_db,
                                decorr_m=self.decorr_m)


def _parse_bool(raw):
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_str_tuple(raw):
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _parse_float_tuple(raw):
    return tuple(float(part) for part in raw.split(",") if part.strip())


_CASTERS = {
    "architectures": _parse_str_tuple,
    "side_m": float, "cells": int, "n_aps": int, "n_ap_antennas": int,
    "n_bs_antennas": int, "n_devices": int, "n_groups": int,
    "tau_p": int, "tau_u": int, "distribution_mode": int,
    "p_max_dbm": float, "pilot_power_dbm": float, "noise_dbm": float,
    "omega": _parse_float_tuple, "epsilon": float, "max_iters": int,
    "learning_rate": float, "rounds": int, "seeds": int, "master_seed": int,
    "task": str, "hidden_units": int, "n_features": int, "n_classes": int,
    "samples_per_device": int, "test_samples": int, "class_spread": float,
    "ridge": float, "asd_deg": float, "beta0_db": float, "alpha": float,
    "d0_m": float, "shadow_std_db": float, "decorr_m": float,
    "fair_comparison": _parse_bool, "sweep_dbm": _parse_float_tuple,
    "out": str, "data_dir": str,
}


def parse_config_lines(lines, base=None):
    """Parse key=value lines into a ScenarioConfig (no validation)."""
    cfg = base if base is not None else ScenarioConfig()
    updates = {}
    idx_paths = dict(cfg.idx_paths)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(lineno, f"expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key.startswith("idx_"):
            idx_paths[key] = value
            continue
        if key not in _CASTERS:
            raise ParseError(lineno, f"unknown key {key!r}")
        try:
            updates[key] = _CASTERS[key](value)
        except ValueError as exc:
            raise ParseError(lineno, f"bad value for {key!r}: {exc}") from None
    return replace(cfg, idx_paths=idx_paths, **updates)


def _is_perfect_square(n):
    root = int(np.sqrt(n))
    return root * root == n or (root + 1) ** 2 == n


def validate_config(cfg):
    """Raise ValidationError naming the first violated invariant."""
    if not cfg.architectures:
        raise ValidationError("architectures must not be empty")
    for arch in cfg.architectures:
        if arch not in ARCHITECTURES:
            raise ValidationError(f"unknown architecture {arch!r}")
    for name in ("n_aps", "n_ap_antennas", "n_bs_antennas", "n_devices",
                 "n_groups", "tau_p", "tau_u", "cells", "max_iters",
                 "hidden_units", "samples_per_device", "test_samples",
                 "n_classes"):
        if getattr(cfg, name) < 1:
            raise ValidationError(f"{name} must be positive")
    # Written so that NaN fails too.
    if not cfg.side_m > 0.0:
        raise ValidationError(f"side_m={cfg.side_m} must be > 0")
    if not cfg.epsilon >= 0.0:
        raise ValidationError(f"epsilon={cfg.epsilon} must be >= 0")
    if not cfg.learning_rate > 0.0:
        raise ValidationError(f"learning_rate={cfg.learning_rate} must be > 0")
    if not all(0.0 < w < np.inf for w in cfg.omega):
        raise ValidationError(f"omega={cfg.omega} must be finite and > 0")
    if not cfg.sweep_dbm:
        raise ValidationError("sweep_dbm must not be empty")
    for name in ("p_max_dbm", "pilot_power_dbm", "noise_dbm", "sweep_dbm"):
        if not np.isfinite(getattr(cfg, name)).all():
            raise ValidationError(f"{name} must be finite, got {getattr(cfg, name)}")
    if cfg.n_devices % cfg.n_groups != 0:
        raise ValidationError(
            f"n_devices={cfg.n_devices} must be divisible by n_groups={cfg.n_groups}")
    if not _is_perfect_square(cfg.n_aps):
        raise ValidationError(f"n_aps={cfg.n_aps} must be a perfect square")
    if not _is_perfect_square(cfg.cells):
        raise ValidationError(f"cells={cfg.cells} must be a perfect square")
    if cfg.distribution_mode not in (1, 2):
        raise ValidationError("distribution_mode must be 1 or 2")
    if cfg.distribution_mode == 1 and cfg.n_groups > cfg.cells:
        raise ValidationError(
            f"mode 1 needs a cell per group: {cfg.n_groups} groups, {cfg.cells} cells")
    if cfg.tau_p < cfg.group_size:
        raise ValidationError(
            f"tau_p={cfg.tau_p} below group size {cfg.group_size} causes pilot shortage")
    if cfg.omega and len(cfg.omega) != cfg.n_groups:
        raise ValidationError("omega must list one weight per group")
    if (any(ARCHITECTURES[a].needs_bs for a in cfg.architectures)
            and cfg.n_groups > cfg.cells):
        raise ValidationError("cellular needs one serving BS (cell) per group")
    if cfg.fair_comparison:
        total_cf = cfg.n_aps * cfg.n_ap_antennas
        total_cell = cfg.cells * cfg.n_bs_antennas
        if total_cf != total_cell:
            raise ValidationError(
                f"fair comparison requires n_aps*n_ap_antennas == cells*n_bs_antennas "
                f"({total_cf} != {total_cell})")
    if cfg.seeds < 1 or cfg.rounds < 0:
        raise ValidationError("seeds must be >= 1 and rounds >= 0")
    if cfg.task not in ("synthetic", "ridge", "idx"):
        raise ValidationError(f"unknown task {cfg.task!r}")
    return cfg


def load_config(path, overrides=()):
    """Read, override, and validate a scenario config file."""
    with open(path, "r", encoding="utf-8") as fh:
        cfg = parse_config_lines(fh.readlines())
    if overrides:
        cfg = parse_config_lines(list(overrides), base=cfg)
    return validate_config(cfg)


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def _open_maybe_gzip(path):
    with open(path, "rb") as fh:
        head = fh.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_exact(fh, count, path):
    data = fh.read(count)
    if len(data) != count:
        raise TruncatedFile(f"{path}: expected {count} more bytes, got {len(data)}")
    return data


def _read_images_header(fh, path):
    """(count, rows, cols) from an IDX image file's 16-byte header."""
    magic, n_images, rows, cols = struct.unpack(">IIII", _read_exact(fh, 16, path))
    if magic != IDX_IMAGES_MAGIC:
        raise BadMagic(f"{path}: magic {magic:#010x}, "
                       f"expected {IDX_IMAGES_MAGIC:#010x}")
    return n_images, rows, cols


def _idx_image_width(images_path):
    """Features per image (rows * cols) read from an IDX image file's header."""
    with _open_maybe_gzip(images_path) as fh:
        _, rows, cols = _read_images_header(fh, images_path)
    return rows * cols


def load_idx_dataset(images_path, labels_path, label_filter=None, n_classes=None):
    """Load an IDX image/label pair into ([0,1] features, integer labels).

    ``label_filter`` keeps only samples whose raw label is listed and remaps
    the kept labels to 0..len(filter)-1 in sorted order.  If ``n_classes``
    is given, any resulting label outside 0..n_classes-1 raises
    LabelOutOfRange.  Plain and gzip-compressed files are accepted.
    """
    with _open_maybe_gzip(images_path) as fh:
        n_images, rows, cols = _read_images_header(fh, images_path)
        raw = _read_exact(fh, n_images * rows * cols, images_path)
    images = np.frombuffer(raw, dtype=np.uint8).reshape(n_images, rows * cols)
    images = images.astype(float) / 255.0

    with _open_maybe_gzip(labels_path) as fh:
        magic, n_labels = struct.unpack(">II", _read_exact(fh, 8, labels_path))
        if magic != IDX_LABELS_MAGIC:
            raise BadMagic(f"{labels_path}: magic {magic:#010x}, "
                           f"expected {IDX_LABELS_MAGIC:#010x}")
        raw = _read_exact(fh, n_labels, labels_path)
    labels = np.frombuffer(raw, dtype=np.uint8).astype(int)
    if n_labels != n_images:
        raise ValueError(f"{n_images} images but {n_labels} labels")

    if label_filter is not None:
        wanted = sorted(set(int(v) for v in label_filter))
        remap = {old: new for new, old in enumerate(wanted)}
        keep = np.isin(labels, wanted)
        images = images[keep]
        labels = np.array([remap[v] for v in labels[keep]], dtype=int)
    if n_classes is not None and labels.size and (
            labels.min() < 0 or labels.max() >= n_classes):
        raise LabelOutOfRange(
            f"labels span {labels.min()}..{labels.max()}, expected 0..{n_classes - 1}")
    return images, labels


def make_synthetic_classification(n_classes, n_features, n_train, n_test, rng,
                                  spread=0.15):
    """Gaussian class clusters with features clipped to [0, 1]."""
    centers = rng.uniform(0.2, 0.8, size=(n_classes, n_features))

    def draw(count):
        labels = np.resize(np.arange(n_classes), count)
        rng.shuffle(labels)
        feats = centers[labels] + spread * rng.standard_normal((count, n_features))
        return np.clip(feats, 0.0, 1.0), labels

    x_train, y_train = draw(n_train)
    x_test, y_test = draw(n_test)
    return x_train, y_train, x_test, y_test


def make_synthetic_ridge(n_features, n_samples, n_devices, rng, ridge=0.1,
                         noise=0.1):
    """Random regression task sharded evenly over devices."""
    features = rng.standard_normal((n_samples, n_features))
    truth = rng.standard_normal(n_features)
    targets = features @ truth + noise * rng.standard_normal(n_samples)
    shards = np.array_split(np.arange(n_samples), n_devices)
    return fl_engine.RidgeTask(features, targets, ridge, shards)


# ---------------------------------------------------------------------------
# System assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemStatistics:
    """Static (per-seed) state: geometry, pilots, spatial correlations."""

    geometry: NetworkGeometry
    plan: estimation.PilotPlan
    ap_correlations: np.ndarray        # (K, L, N, N)
    bs_correlations: np.ndarray | None  # (K, G, M, M) serving BSs only
    noise_power: float
    power_limit: np.ndarray            # (K,)


@dataclass(frozen=True)
class ChannelState:
    """One coherence block: true channels and their MMSE estimates."""

    correlations: np.ndarray
    h: np.ndarray
    h_hat: np.ndarray
    estimate_cov: np.ndarray
    error_cov: np.ndarray


@dataclass(frozen=True)
class RoundState:
    ap: ChannelState
    bs: ChannelState | None


def build_geometry(cfg, rng):
    area = Area(cfg.side_m)
    device_positions, group_of_device = place_devices(
        DistributionMode(cfg.distribution_mode),
        [cfg.group_size] * cfg.n_groups, area, cfg.cells, rng)
    return NetworkGeometry(
        area=area,
        ap_positions=place_aps_grid(cfg.n_aps, area),
        bs_positions=grid_points(cfg.cells, area),
        device_positions=device_positions,
        group_of_device=group_of_device,
        cells=cfg.cells,
    )


def build_statistics(cfg, geometry, rng):
    """Spatial correlations for the AP (and, if needed, serving-BS) links."""
    params = cfg.large_scale_params()
    asd = np.deg2rad(cfg.asd_deg)
    ap_corr = correlation_matrices(
        geometry.device_positions, geometry.ap_positions,
        cfg.n_ap_antennas, geometry.area, params, asd, rng)
    bs_corr = None
    if any(ARCHITECTURES[a].needs_bs for a in cfg.architectures):
        serving = geometry.bs_positions[:cfg.n_groups]
        bs_corr = correlation_matrices(
            geometry.device_positions, serving,
            cfg.n_bs_antennas, geometry.area, params, asd, rng)
    plan = estimation.assign_pilots(
        geometry.group_of_device, cfg.tau_p, dbm_to_watt(cfg.pilot_power_dbm))
    return SystemStatistics(
        geometry=geometry, plan=plan, ap_correlations=ap_corr,
        bs_correlations=bs_corr, noise_power=cfg.noise_power,
        power_limit=np.full(cfg.n_devices, dbm_to_watt(cfg.p_max_dbm)),
    )


def _draw_view(correlations, plan, noise_power, rng_fading, rng_pilot):
    h = sample_channels(correlations, rng_fading)
    y = estimation.pilot_observation(h, plan, noise_power, rng_pilot)
    est = estimation.estimate_all(y, plan, correlations, noise_power)
    return ChannelState(correlations=correlations, h=h, h_hat=est.h_hat,
                        estimate_cov=est.estimate_cov, error_cov=est.error_cov)


def draw_round(stats, seed_tags):
    """Sample one coherence block and estimate it, from purpose-keyed streams.

    The serving-BS view is drawn exactly when the statistics include it.
    """
    ap = _draw_view(stats.ap_correlations, stats.plan, stats.noise_power,
                    substream(*seed_tags, "fading"),
                    substream(*seed_tags, "pilot-noise"))
    bs = None
    if stats.bs_correlations is not None:
        bs = _draw_view(stats.bs_correlations, stats.plan, stats.noise_power,
                        substream(*seed_tags, "fading-bs"),
                        substream(*seed_tags, "pilot-noise-bs"))
    return RoundState(ap=ap, bs=bs)


def level3_problem(stats, round_state, weights):
    h_stack, cov_stack = aggregation.stack_for_cpu(
        round_state.ap.h_hat, round_state.ap.error_cov)
    return aggregation.Level3Problem(
        h_hat=h_stack, error_cov=cov_stack,
        group_of_device=stats.geometry.group_of_device, weights=weights,
        noise_power=stats.noise_power, power_limit=stats.power_limit)


def level1_problem(stats, round_state, weights):
    return aggregation.Level1Problem(
        h_hat=round_state.ap.h_hat, error_cov=round_state.ap.error_cov,
        group_of_device=stats.geometry.group_of_device, weights=weights,
        noise_power=stats.noise_power, power_limit=stats.power_limit)


def cellular_problem(stats, round_state, weights):
    return aggregation.CellularProblem(
        h_hat=round_state.bs.h_hat.transpose(1, 0, 2),
        error_cov=round_state.bs.error_cov.transpose(1, 0, 2, 3),
        group_of_device=stats.geometry.group_of_device, weights=weights,
        noise_power=stats.noise_power, power_limit=stats.power_limit)


def make_weights(cfg, group_of_device, nu, theta_bar):
    gamma = np.full(len(group_of_device), 1.0 / (len(group_of_device) //
                                                 cfg.n_groups))
    return aggregation.AggregationWeights(
        gamma=gamma, omega=cfg.omega_or_default,
        nu=np.asarray(nu, dtype=float), theta_bar=np.asarray(theta_bar, dtype=float))


# ---------------------------------------------------------------------------
# Result rows and CSV emission
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResultRow:
    scenario: str
    tco: int
    seed: int
    point: float
    wsum_mse: float | None
    mse_per_group: tuple
    metric_per_group: tuple
    fronthaul: tuple  # (pilot_data, combiners, statistics)

    def sort_key(self):
        return (self.scenario, self.tco, self.seed, self.point)


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def emit_csv(rows, path, n_groups):
    """Write rows sorted by (scenario, tco, seed, point); 9 significant digits."""
    header = (["scenario", "tco", "seed", "point", "wsum_mse"]
              + [f"mse_g{g}" for g in range(n_groups)]
              + [f"metric_g{g}" for g in range(n_groups)]
              + ["fh_pilot_data", "fh_combiners", "fh_statistics"])
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in sorted(rows, key=ResultRow.sort_key):
                mses = list(row.mse_per_group) + [None] * (n_groups - len(row.mse_per_group))
                metrics = (list(row.metric_per_group)
                           + [None] * (n_groups - len(row.metric_per_group)))
                writer.writerow([_fmt(v) for v in
                                 [row.scenario, row.tco, row.seed, row.point,
                                  row.wsum_mse] + mses + metrics
                                 + list(row.fronthaul)])
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _fronthaul_counts(cfg, arch):
    if arch.fronthaul is None:
        return (0, 0, 0)
    rep = accounting.fronthaul_scalars(
        arch.fronthaul, cfg.tau_p, cfg.tau_u, cfg.n_ap_antennas, cfg.n_aps,
        cfg.n_groups, cfg.n_devices)
    return (rep.pilot_data_scalars, rep.combiner_scalars,
            rep.statistics_display())


# ---------------------------------------------------------------------------
# MSE sweep
# ---------------------------------------------------------------------------

def _initial_round_stats(cfg, seed):
    """Per-device (nu, theta_bar) from each group's initial model parameters."""
    nu = np.empty(cfg.n_devices)
    theta_bar = np.empty(cfg.n_devices)
    for g in range(cfg.n_groups):
        theta = _initial_model(cfg, seed, g)
        _, st = fl_engine.normalize(theta)
        members = slice(g * cfg.group_size, (g + 1) * cfg.group_size)
        nu[members] = st.std
        theta_bar[members] = st.mean
    return nu, theta_bar


def _initial_model(cfg, seed, group):
    rng = substream(cfg.master_seed, seed, "init", group)
    if cfg.task == "ridge":
        return rng.standard_normal(cfg.n_features)
    if cfg.task == "synthetic":
        width = cfg.n_features
    else:
        width = _idx_image_width(_idx_path(cfg, group, "idx_train_images"))
    model = fl_engine.Fnn(width, cfg.hidden_units, cfg.n_classes)
    return model.init_params(rng)


def _level1_round(stats, round_state, weights):
    """Level-1 solution (local combiners at full power) and its per-group MSEs."""
    problem = level1_problem(stats, round_state, weights)
    sol = aggregation.level1_solution(problem)
    proj = aggregation.channel_projections(sol.combiners, round_state.ap.h)
    mses = tuple(aggregation.mse_level1(problem, sol.b, sol.combiners, proj, g)
                 for g in range(problem.n_groups))
    return sol, mses


def _channel_problem(kind, stats, round_state, weights):
    """The problem the alternating solver of ``kind`` (level3, cellular) solves."""
    build = level3_problem if kind == "level3" else cellular_problem
    return build(stats, round_state, weights)


def _sweep_one_seed(cfg, seed):
    geometry = build_geometry(cfg, substream(cfg.master_seed, seed, "geometry"))
    stats = build_statistics(cfg, geometry,
                             substream(cfg.master_seed, seed, "shadowing"))
    round_state = draw_round(stats, (cfg.master_seed, seed, "round", 0))
    nu, theta_bar = _initial_round_stats(cfg, seed)
    weights = make_weights(cfg, geometry.group_of_device, nu, theta_bar)
    archs = [ARCHITECTURES[name] for name in cfg.architectures]
    kinds = {arch.solver for arch in archs}
    powers = np.stack([np.full(cfg.n_devices, dbm_to_watt(p)) for p in cfg.sweep_dbm])
    # traces[kind][i]: per-group MSEs at grid point i, first at full power
    # (tco=0), last after the solve (tco=1).  Each alternating kind solves
    # the whole grid in one lockstep batch; level 2 takes the level-3 trace.
    traces = {None: np.zeros((len(powers), 1, cfg.n_groups))}
    if "level1" in kinds:
        traces["level1"] = [
            [_level1_round(replace(stats, power_limit=p), round_state, weights)[1]]
            for p in powers]
    for kind in ("level3", "cellular"):
        if kind in kinds:
            solutions = aggregation.optimize_batch(
                _channel_problem(kind, stats, round_state, weights), powers,
                eps=cfg.epsilon, max_iters=cfg.max_iters)
            traces[kind] = [sol.history.group_values for sol in solutions]
    rows = []
    for arch in archs:
        fh = _fronthaul_counts(cfg, arch)
        for p_dbm, trace in zip(cfg.sweep_dbm, traces[arch.solver]):
            for tco in range(1 + arch.tco):
                mses = tuple(float(m) for m in trace[-1 if tco else 0])
                rows.append(ResultRow(arch.name, tco, seed, float(p_dbm),
                                      float(np.dot(weights.omega, mses)), mses,
                                      (), fh))
    return rows


def run_mse_sweep(cfg, threads=1):
    """Weighted sum-MSE of every configured architecture over ``sweep_dbm``.

    Uses one channel/estimate draw per seed (shared across grid points), the
    round-one parameter statistics of each group's initial model, and both
    the full-power and the optimized transmit coefficients where TCO applies.
    """
    seeds = range(cfg.seeds)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(lambda s: _sweep_one_seed(cfg, s), seeds))
    else:
        chunks = [_sweep_one_seed(cfg, s) for s in seeds]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=ResultRow.sort_key)
    return rows


# ---------------------------------------------------------------------------
# Federated training
# ---------------------------------------------------------------------------

class _GroupTask:
    """One group's learning task: model, device shards, and a test metric."""

    def __init__(self, cfg, seed, group):
        rng = substream(cfg.master_seed, seed, "data", group)
        self.kind = cfg.task
        size = cfg.group_size
        if cfg.task == "ridge":
            self.ridge = make_synthetic_ridge(
                cfg.n_features, size * cfg.samples_per_device, size, rng,
                ridge=cfg.ridge)
            self.optimal_value = self.ridge.optimal_value()
            return
        if cfg.task == "synthetic":
            x_train, y_train, x_test, y_test = make_synthetic_classification(
                cfg.n_classes, cfg.n_features, size * cfg.samples_per_device,
                cfg.test_samples, rng, spread=cfg.class_spread)
        else:  # idx
            x_train, y_train, x_test, y_test = _load_idx_task(cfg, group, rng,
                                                              size)
        self.model = fl_engine.Fnn(x_train.shape[1], cfg.hidden_units,
                                   cfg.n_classes)
        order = rng.permutation(len(x_train))
        self.shards = np.array_split(order, size)
        self.x_train, self.y_train = x_train, fl_engine.onehot(y_train,
                                                               cfg.n_classes)
        self.x_test, self.y_test = x_test, y_test

    def device_gradient_fn(self, device):
        if self.kind == "ridge":
            return lambda theta: self.ridge.device_gradient(theta, device)
        rows = self.shards[device]
        return lambda theta: self.model.gradient(theta, self.x_train[rows],
                                                 self.y_train[rows])

    def learning_rate(self, cfg):
        if self.kind == "ridge":
            return 1.0 / self.ridge.chi
        return cfg.learning_rate

    def metric(self, theta):
        """Test accuracy for classifiers, optimality gap for ridge."""
        if self.kind == "ridge":
            return self.ridge.loss(theta) - self.optimal_value
        return self.model.accuracy(theta, self.x_test, self.y_test)


def _idx_path(cfg, group, key):
    """Group's IDX file for ``key``, resolved against data_dir or CFOTA_DATA_DIR."""
    raw = cfg.idx_paths.get(f"{key}_g{group}")
    if raw is None:
        raise ValidationError(f"task=idx requires key {key}_g{group}")
    base = cfg.data_dir or os.environ.get(DATA_DIR_ENV, "")
    return raw if os.path.isabs(raw) or not base else os.path.join(base, raw)


def _load_idx_task(cfg, group, rng, group_size):
    filt = None
    raw_filter = cfg.idx_paths.get(f"idx_label_filter_g{group}")
    if raw_filter:
        filt = [int(v) for v in raw_filter.split(",")]
    x_train, y_train = load_idx_dataset(_idx_path(cfg, group, "idx_train_images"),
                                        _idx_path(cfg, group, "idx_train_labels"),
                                        label_filter=filt,
                                        n_classes=cfg.n_classes)
    x_test, y_test = load_idx_dataset(_idx_path(cfg, group, "idx_test_images"),
                                      _idx_path(cfg, group, "idx_test_labels"),
                                      label_filter=filt,
                                      n_classes=cfg.n_classes)
    need = group_size * cfg.samples_per_device
    pick = rng.permutation(len(x_train))[:need]
    test_pick = rng.permutation(len(x_test))[:cfg.test_samples]
    return x_train[pick], y_train[pick], x_test[test_pick], y_test[test_pick]


def _round_link(cfg, arch, stats, round_state, weights):
    """One architecture's uplink for a round and its closed-form per-group MSEs."""
    if arch.solver is None:
        return fl_engine.RoundLink(level=arch.name), (0.0,) * cfg.n_groups
    if arch.solver == "level1":
        sol, mses = _level1_round(stats, round_state, weights)
    else:
        # The one-problem entry points, which bench/spans.py counts as solves.
        optimize = (aggregation.alternating_optimize if arch.solver == "level3"
                    else aggregation.cellular_optimize)
        sol = optimize(_channel_problem(arch.solver, stats, round_state, weights),
                       eps=cfg.epsilon, max_iters=cfg.max_iters)
        mses = tuple(float(m) for m in sol.history.group_values[-1])
    return fl_engine.RoundLink(
        level=arch.name, noise_power=stats.noise_power, b=sol.b,
        combiners=sol.combiners, channels=round_state.ap.h,
        bs_channels=round_state.bs.h if arch.needs_bs else None), mses


def _train_one_seed(cfg, seed):
    geometry = build_geometry(cfg, substream(cfg.master_seed, seed, "geometry"))
    archs = [ARCHITECTURES[name] for name in cfg.architectures]
    stats = None
    if any(arch.solver for arch in archs):
        stats = build_statistics(cfg, geometry,
                                 substream(cfg.master_seed, seed, "shadowing"))
    tasks = [_GroupTask(cfg, seed, g) for g in range(cfg.n_groups)]
    init = [_initial_model(cfg, seed, g) for g in range(cfg.n_groups)]
    if len({len(v) for v in init}) != 1:
        raise fl_engine.ShapeMismatch(
            "all groups must train models of the same parameter count")
    gdev = geometry.group_of_device

    def metrics(models):
        return tuple(tasks[g].metric(models[g]) for g in range(cfg.n_groups))

    fronthaul = [_fronthaul_counts(cfg, arch) for arch in archs]
    models = [init] * len(archs)
    rows = [ResultRow(arch.name, arch.tco, seed, 0.0, None, (), metrics(init), fh)
            for arch, fh in zip(archs, fronthaul)]
    # Rounds outer, architectures inner: every architecture of a seed shares
    # the round's one channel draw.
    for t in range(1, cfg.rounds + 1):
        round_state = None
        if stats is not None:
            round_state = draw_round(stats, (cfg.master_seed, seed, "round", t))
        for i, arch in enumerate(archs):
            local_params = np.stack([
                fl_engine.local_update(
                    models[i][gdev[k]],
                    tasks[gdev[k]].device_gradient_fn(k % cfg.group_size),
                    tasks[gdev[k]].learning_rate(cfg))
                for k in range(cfg.n_devices)
            ])
            nu, theta_bar = zip(*[(st.std, st.mean) for st in
                                  (fl_engine.normalize(p)[1] for p in local_params)])
            weights = make_weights(cfg, gdev, nu, theta_bar)
            link, mses = _round_link(cfg, arch, stats, round_state, weights)
            result = fl_engine.ota_round(
                local_params, link, weights.gamma, weights.omega, gdev,
                substream(cfg.master_seed, seed, "slots", t))
            models[i] = list(result.recovered)
            rows.append(ResultRow(arch.name, arch.tco, seed, float(t),
                                  float(np.dot(weights.omega, mses)), mses,
                                  metrics(models[i]), fronthaul[i]))
    return rows


def run_fl_training(cfg, threads=1):
    """Federated training of every configured architecture, row per round.

    Initial models, data, geometry, and channel draws are shared across
    architectures within a seed so their trajectories are comparable.
    """
    seeds = range(cfg.seeds)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(lambda s: _train_one_seed(cfg, s), seeds))
    else:
        chunks = [_train_one_seed(cfg, s) for s in seeds]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=ResultRow.sort_key)
    return rows
