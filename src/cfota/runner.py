"""Scenario orchestration: config, datasets, sweeps, training, CSV output.

A scenario is described by a flat key=value config file.  The runner
assembles the geometry, channel statistics, and per-round draws from
counter-based substreams keyed on (master seed, seed index, round,
purpose), so results are identical across runs and across thread counts.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import partial
import csv
import gzip
import os
import struct

import numpy as np

from . import accounting, aggregation, estimation, fl_engine
from .channel import LargeScaleParams, correlation_matrices, sample_channels
from .rng import substream, substreams
from .topology import (Area, DistributionMode, NetworkGeometry, grid_points,
                       place_aps_grid, place_devices)

DATA_DIR_ENV = "CFOTA_DATA_DIR"


@dataclass(frozen=True)
class Architecture:
    """How the runner solves, scores, recovers and accounts one architecture.

    ``solver`` is the kind of round solve: "level1" (local combiners at full
    power), "level3" (the alternating solver on the view of all AP blocks),
    "cellular" (the same solver on the serving-BS views) or None (error-free,
    no channel).  ``fronthaul`` is the accounting level (None: no AP
    fronthaul), ``tco`` is 1 when the transmit coefficients are optimized,
    and ``needs_bs`` says whether the serving-BS view is drawn.
    ``recovery`` is how a group's combiner output is formed: "joint" (one
    combine over all the receive antennas), "sum" (per-AP combines summed
    at the CPU), "mean" (per-AP combines averaged) or None (error-free).
    """

    name: str
    solver: str | None
    fronthaul: int | None
    tco: int
    recovery: str | None
    needs_bs: bool = False


ARCHITECTURES = {arch.name: arch for arch in (
    Architecture("errorfree", None, None, 0, None),
    Architecture("level1", "level1", 1, 0, "mean"),
    Architecture("level2", "level3", 2, 1, "sum"),
    Architecture("level3", "level3", 3, 1, "joint"),
    Architecture("cellular", "cellular", None, 1, "joint", needs_bs=True),
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


class CountMismatch(ValueError):
    """An IDX image file and its label file hold different sample counts."""


class IoError(OSError):
    """Failed to write result output."""


def dbm_to_watt(dbm):
    return 10.0 ** ((dbm - 30.0) / 10.0)


def _watt_in_range(dbm):
    """Whether ``dbm_to_watt(dbm)`` is a finite power above 0 W.

    The bounds are about -3200 and +3110 dBm; beyond them the float power
    underflows to 0 or overflows.
    """
    try:
        return 0.0 < dbm_to_watt(dbm) < np.inf
    except OverflowError:
        return False


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioConfig:
    architectures: tuple[str, ...] = ("level3",)
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
    omega: tuple[float, ...] = ()
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
    sweep_dbm: tuple[float, ...] = (-10.0, 0.0, 10.0, 20.0, 30.0, 40.0)
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


# Each key's caster follows from its field's type; idx_* keys fill idx_paths.
_PARSERS = {bool: _parse_bool, tuple[str, ...]: _parse_str_tuple,
            tuple[float, ...]: _parse_float_tuple}
_CASTERS = {f.name: _PARSERS.get(f.type, f.type)
            for f in fields(ScenarioConfig) if f.name != "idx_paths"}


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
    for i, arch in enumerate(cfg.architectures):
        if arch not in ARCHITECTURES:
            raise ValidationError(f"unknown architecture {arch!r}")
        if arch in cfg.architectures[:i]:
            raise ValidationError(f"architectures lists {arch!r} twice")
    for name in ("n_aps", "n_ap_antennas", "n_bs_antennas", "n_devices",
                 "n_groups", "tau_p", "tau_u", "cells", "max_iters",
                 "hidden_units", "samples_per_device", "test_samples",
                 "n_classes", "n_features"):
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
        value = getattr(cfg, name)
        if not all(map(_watt_in_range, np.atleast_1d(value).tolist())):
            raise ValidationError(
                f"{name}={value} must convert to a finite power > 0 W")
    if not np.isfinite(cfg.beta0_db):
        raise ValidationError(f"beta0_db must be finite, got {cfg.beta0_db}")
    for name in ("alpha", "d0_m", "decorr_m"):
        if not 0.0 < getattr(cfg, name) < np.inf:
            raise ValidationError(f"{name}={getattr(cfg, name)} must be finite and > 0")
    for name in ("asd_deg", "shadow_std_db", "class_spread", "ridge"):
        if not 0.0 <= getattr(cfg, name) < np.inf:
            raise ValidationError(f"{name}={getattr(cfg, name)} must be finite and >= 0")
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
    # A ridge model is its feature vector, and normalizing needs 2 entries.
    if cfg.task == "ridge" and cfg.n_features < 2:
        raise ValidationError(
            f"n_features={cfg.n_features} must be >= 2 for task = ridge")
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
        raise CountMismatch(f"{images_path}: {n_images} images but "
                            f"{labels_path}: {n_labels} labels")

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
    """Static (per-seed) state: geometry and the MMSE statistics of each view.

    ``ap`` covers the (K, L) device-AP links; ``bs`` the (K, G) links to
    the serving BSs, present exactly when an architecture needs that view.
    A block of seeds has a leading seed axis on the device positions and
    on every array of the views.
    """

    geometry: NetworkGeometry
    ap: estimation.MmseStatistics
    bs: estimation.MmseStatistics | None
    noise_power: float
    power_limit: np.ndarray  # (K,)


@dataclass(frozen=True)
class ChannelState:
    """One coherence block: true channels and their MMSE estimates.

    ``correlations`` and the covariances are the per-seed arrays of the
    view's statistics, shared by every block.
    """

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
    """Spatial correlations and MMSE statistics of the AP (and, if needed,
    serving-BS) links."""
    params = cfg.large_scale_params()
    asd = np.deg2rad(cfg.asd_deg)
    plan = estimation.assign_pilots(
        geometry.group_of_device, cfg.tau_p, dbm_to_watt(cfg.pilot_power_dbm))

    def view(receivers, n_ant):
        corr = correlation_matrices(geometry.device_positions, receivers, n_ant,
                                    geometry.area, params, asd, rng)
        return estimation.mmse_statistics(plan, corr, cfg.noise_power)

    ap = view(geometry.ap_positions, cfg.n_ap_antennas)
    bs = None
    if any(ARCHITECTURES[a].needs_bs for a in cfg.architectures):
        bs = view(geometry.bs_positions[:cfg.n_groups], cfg.n_bs_antennas)
    return SystemStatistics(
        geometry=geometry, ap=ap, bs=bs, noise_power=cfg.noise_power,
        power_limit=np.full(cfg.n_devices, dbm_to_watt(cfg.p_max_dbm)),
    )


def _draw_view(mmse, rng_fading, rng_pilot):
    h = sample_channels(mmse.correlations, rng_fading)
    y = estimation.pilot_observation(h, mmse.plan, mmse.noise_power, rng_pilot)
    est = estimation.estimate_all(y, mmse)
    return ChannelState(correlations=mmse.correlations, h=h, h_hat=est.h_hat,
                        estimate_cov=est.estimate_cov, error_cov=est.error_cov)


def _draw(stats, streams):
    """Sample one coherence block and estimate it; ``streams(purpose)`` is
    the generator of each purpose.  The serving-BS view is drawn exactly
    when the statistics include it."""
    ap = _draw_view(stats.ap, streams("fading"), streams("pilot-noise"))
    bs = None
    if stats.bs is not None:
        bs = _draw_view(stats.bs, streams("fading-bs"), streams("pilot-noise-bs"))
    return RoundState(ap=ap, bs=bs)


def draw_round(stats, seed_tags):
    """Sample one seed's coherence block and estimate it, from streams keyed
    on ``seed_tags`` and the purpose."""
    return _draw(stats, partial(substream, *seed_tags))


def draw_block(stats, round_tags):
    """Sample and estimate one coherence block of every seed of a block's
    statistics, seed s from streams keyed on ``round_tags[s]`` and the
    purpose; each seed's draw equals its ``draw_round``."""
    return _draw(stats, partial(substreams, round_tags))


def _seed_state(state, i):
    """Seed i of a seed block's round state, as views."""
    return RoundState(*(None if view is None else ChannelState(
        *(getattr(view, f.name)[i] for f in fields(ChannelState)))
        for view in (state.ap, state.bs)))


def level3_problem(stats, round_state, weights):
    return aggregation.Level3Problem(
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


def _over_seeds(cfg, threads, run_seeds):
    """Rows of ``run_seeds(cfg, seeds)`` over every seed, in sort-key order.

    The seeds split into min(threads, seeds) contiguous blocks, each run on
    its own worker thread when there is more than one; every seed draws
    from its own substreams, so the rows do not depend on the thread count.
    """
    n_blocks = min(threads, cfg.seeds)
    blocks = [range(i * cfg.seeds // n_blocks, (i + 1) * cfg.seeds // n_blocks)
              for i in range(n_blocks)]
    if n_blocks > 1:
        with ThreadPoolExecutor(max_workers=n_blocks) as pool:
            chunks = list(pool.map(lambda seeds: run_seeds(cfg, seeds), blocks))
    else:
        chunks = [run_seeds(cfg, blocks[0])]
    return sorted((row for chunk in chunks for row in chunk), key=ResultRow.sort_key)


def _fronthaul_counts(cfg, arch):
    if arch.fronthaul is None:
        return (0, 0, 0)
    rep = accounting.fronthaul_scalars(
        arch.fronthaul, cfg.tau_p, cfg.tau_u, cfg.n_ap_antennas, cfg.n_aps,
        cfg.n_groups, cfg.n_devices)
    return (rep.pilot_data_scalars, rep.combiner_scalars,
            rep.statistics_display())


# ---------------------------------------------------------------------------
# Seed blocks: the preparation, draw and solve that both verbs share
# ---------------------------------------------------------------------------

def _prepare_block(cfg, seeds):
    """Seed tags and channel statistics of a block of seeds.

    Each seed draws its geometry and shadowing from its own streams, in the
    order and shapes it would alone; the statistics run once over the
    block's seed axis.
    """
    tags = [(cfg.master_seed, seed) for seed in seeds]
    geometries = [build_geometry(cfg, substream(*t, "geometry")) for t in tags]
    geometry = replace(geometries[0], device_positions=np.stack(
        [g.device_positions for g in geometries]))
    return tags, build_statistics(cfg, geometry, substreams(tags, "shadowing"))


def _solve_block(cfg, kind, stats, state, weights, powers):
    """Every seed of a block solved by solver ``kind`` at every row of
    ``powers`` (P, K), in one batch.

    ``state`` is the block's round state and weights[s] seed s's weights.
    Returns solutions[s][p] (None without a solver) and traces[s][p], the
    per-group MSEs first at full power (tco=0) and last after the solve
    (tco=1).  Levels 1 and 3 solve the same AP-side problems, level 1 per
    AP, and level 1 is scored on the true channels.
    """
    if kind is None:
        return None, np.zeros((len(weights), len(powers), 1, cfg.n_groups))
    build = cellular_problem if kind == "cellular" else level3_problem
    problems = [build(stats, _seed_state(state, s), w) for s, w in enumerate(weights)]
    if kind == "level1":
        solved = aggregation.level1_batch(problems, powers)
        b, v = (np.array([[getattr(sol, name) for sol in row] for row in solved])
                for name in ("b", "combiners"))
        proj = aggregation.channel_projections(v, state.ap.h[:, None])
        return solved, aggregation.level1_mses(problems, b, v, proj)[:, :, None]
    solved = aggregation.optimize_batch(problems, powers, eps=cfg.epsilon,
                                        max_iters=cfg.max_iters)
    return solved, [[sol.history.group_values for sol in row] for row in solved]


# ---------------------------------------------------------------------------
# MSE sweep
# ---------------------------------------------------------------------------

def _initial_round_stats(cfg, seed):
    """Per-device (nu, theta_bar) from each group's initial model parameters."""
    nu = np.empty(cfg.n_devices)
    theta_bar = np.empty(cfg.n_devices)
    for g in range(cfg.n_groups):
        _, mean, std = fl_engine.normalize(_initial_model(cfg, seed, g))
        members = slice(g * cfg.group_size, (g + 1) * cfg.group_size)
        nu[members] = std
        theta_bar[members] = mean
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


def _sweep_seeds(cfg, seeds):
    archs = [ARCHITECTURES[name] for name in cfg.architectures]
    powers = np.stack([np.full(cfg.n_devices, dbm_to_watt(p)) for p in cfg.sweep_dbm])
    tags, stats = _prepare_block(cfg, seeds)
    state = draw_block(stats, [t + ("round", 0) for t in tags])
    weights = [make_weights(cfg, stats.geometry.group_of_device,
                            *_initial_round_stats(cfg, seed)) for seed in seeds]
    # traces[kind][s][i]: seed s at grid point i, every seed's whole grid
    # solved in one batch per kind; level 2 takes the level-3 trace.
    traces = {kind: _solve_block(cfg, kind, stats, state, weights, powers)[1]
              for kind in dict.fromkeys(arch.solver for arch in archs)}
    rows = []
    for i, (seed, w) in enumerate(zip(seeds, weights)):
        for arch in archs:
            fh = _fronthaul_counts(cfg, arch)
            for p_dbm, trace in zip(cfg.sweep_dbm, traces[arch.solver][i]):
                for tco in range(1 + arch.tco):
                    mses = tuple(float(m) for m in trace[-1 if tco else 0])
                    rows.append(ResultRow(arch.name, tco, seed, float(p_dbm),
                                          float(np.dot(w.omega, mses)), mses,
                                          (), fh))
    return rows


def run_mse_sweep(cfg, threads=1):
    """Weighted sum-MSE of every configured architecture over ``sweep_dbm``.

    Uses one channel/estimate draw per seed (shared across grid points), the
    round-one parameter statistics of each group's initial model, and both
    the full-power and the optimized transmit coefficients where TCO applies.
    """
    return _over_seeds(cfg, threads, _sweep_seeds)


# ---------------------------------------------------------------------------
# Federated training
# ---------------------------------------------------------------------------

class _GroupTask:
    """One group's learning task: model, device shards, and test data.

    ``shards`` holds each device's training rows, (size, n, F) features and
    (size, n, C) one-hot labels or (size, n) regression targets.  A ridge
    task is scored by its optimality gap, a classifier by its accuracy on
    ``x_test`` and ``y_test``.
    """

    def __init__(self, cfg, seed, group):
        rng = substream(cfg.master_seed, seed, "data", group)
        self.kind = cfg.task
        size = cfg.group_size
        if cfg.task == "ridge":
            self.ridge = make_synthetic_ridge(
                cfg.n_features, size * cfg.samples_per_device, size, rng,
                ridge=cfg.ridge)
            self.optimal_value = self.ridge.optimal_value()
            rows = np.stack(self.ridge.shards)
            self.shards = (self.ridge.features[rows], self.ridge.targets[rows])
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
        rows = np.stack(np.array_split(rng.permutation(len(x_train)), size))
        self.shards = (x_train[rows], fl_engine.onehot(y_train, cfg.n_classes)[rows])
        self.x_test, self.y_test = x_test, y_test

    def learning_rate(self, cfg):
        if self.kind == "ridge":
            return 1.0 / self.ridge.chi
        return cfg.learning_rate


def _idx_path(cfg, group, key):
    """Group's IDX file for ``key``, resolved against data_dir or CFOTA_DATA_DIR."""
    raw = cfg.idx_paths.get(f"{key}_g{group}")
    if raw is None:
        raise ValidationError(f"task=idx requires key {key}_g{group}")
    base = cfg.data_dir or os.environ.get(DATA_DIR_ENV, "")
    return raw if os.path.isabs(raw) or not base else os.path.join(base, raw)


def _load_idx_task(cfg, group, rng, group_size):
    """Group's (train features, labels, test features, labels), drawn at
    random from its IDX files: exactly ``group_size * samples_per_device``
    training and ``test_samples`` test images."""
    filt = None
    raw_filter = cfg.idx_paths.get(f"idx_label_filter_g{group}")
    if raw_filter:
        filt = [int(v) for v in raw_filter.split(",")]
    picked = []
    for split, need in (("train", group_size * cfg.samples_per_device),
                        ("test", cfg.test_samples)):
        x, y = load_idx_dataset(_idx_path(cfg, group, f"idx_{split}_images"),
                                _idx_path(cfg, group, f"idx_{split}_labels"),
                                label_filter=filt, n_classes=cfg.n_classes)
        if len(x) < need:
            raise ValidationError(f"group {group}: the {split} split holds "
                                  f"{len(x)} images, needs {need}")
        pick = rng.permutation(len(x))[:need]
        picked += [x[pick], y[pick]]
    return picked


def _slot_noise(cfg, tags, t, bs, n_slots):
    """Receiver noise of round t over ``n_slots`` slots for a block of seeds,
    each seed from its own "slots" stream: (S, 1, L, N, n_slots) at the APs,
    or (S, G, M, n_slots) at the serving BSs, drawn group by group.

    Each block is sqrt(p/2) (x + 1j y) for standard normals x then y, built
    part by part with no complex temporaries.
    """
    rng = substreams(tags, "slots", t)
    rx = (cfg.n_bs_antennas,) if bs else (cfg.n_aps, cfg.n_ap_antennas)
    noise = np.empty((len(tags), cfg.n_groups if bs else 1, *rx, n_slots), complex)
    scale = np.sqrt(cfg.noise_power / 2.0)
    for block in noise.swapaxes(0, 1):
        block.real = scale * rng.standard_normal(block.shape)
        block.imag = scale * rng.standard_normal(block.shape)
    return noise


def _ota_round(cfg, arch, local, symbols, theta_bar, gamma, solved, state, noise):
    """Recovered parameters (S, G, D) of one round of ``arch`` for a block of
    seeds, and the realized squared errors (S, G).

    gamma (K,) holds the devices' shares, ``solved[s][0]`` seed s's solution,
    and noise[arch.needs_bs] the round's slot noise at the architecture's
    receivers.
    """
    gamma = gamma.reshape(cfg.n_groups, -1)
    if arch.recovery is None:
        return fl_engine.ota_block(local, symbols, theta_bar, gamma)
    n_seeds, n_dev, n_slots = symbols.shape
    # Group views Gs and receiver views V of the channels, noise and combiners.
    views = (cfg.n_groups if arch.needs_bs else 1,
             1 if arch.recovery == "joint" else cfg.n_aps)
    b, combiners = (np.array([row[0].b for row in solved]),
                    np.array([row[0].combiners for row in solved]))
    channels = (state.bs if arch.needs_bs else state.ap).h
    return fl_engine.ota_block(
        local, symbols, theta_bar, gamma, b,
        channels.reshape(n_seeds, n_dev, *views, -1),
        noise[arch.needs_bs].reshape(n_seeds, *views, -1, n_slots),
        combiners.reshape(n_seeds, cfg.n_groups, views[1], -1),
        average=arch.recovery == "mean")


def _train_seeds(cfg, seeds):
    """Training rows of a block of seeds.

    Rounds run in the outer loop and architectures in the inner one: every
    architecture shares a seed's one channel draw and slot noise per round.
    Each round runs over the block's (S, K) device stack: one local step,
    one normalization, one solve batch and one OTA round per architecture.
    """
    archs = [ARCHITECTURES[name] for name in cfg.architectures]
    tags, stats = _prepare_block(cfg, seeds)
    gdev = stats.geometry.group_of_device
    tasks = [[_GroupTask(cfg, seed, g) for g in range(cfg.n_groups)] for seed in seeds]
    init = [[_initial_model(cfg, seed, g) for g in range(cfg.n_groups)] for seed in seeds]
    if len({len(v) for models in init for v in models}) != 1:
        raise fl_engine.ShapeMismatch(
            "all groups must train models of the same parameter count")
    # Device k of seed s: its shard and step size, stacked (S, K, ...).
    data = [np.array(x).reshape(len(seeds), cfg.n_devices, *x[0].shape[1:])
            for x in zip(*(task.shards for row in tasks for task in row))]
    step = np.array([[task.learning_rate(cfg) for task in row] for row in tasks])[:, gdev, None]
    # The stacked local gradient, and metrics(models) scoring an architecture's
    # (S, G) models: optimality gap for ridge, test accuracy for classifiers.
    if cfg.task == "ridge":
        gradient = partial(fl_engine.ridge_gradient, ridge=cfg.ridge)

        def metrics(models):
            return [[task.ridge.loss(m) - task.optimal_value for task, m in zip(row, ms)]
                    for row, ms in zip(tasks, models)]
    else:
        gradient = tasks[0][0].model.gradient
        x_test, y_test = (np.array([[getattr(task, name) for task in row] for row in tasks])
                          for name in ("x_test", "y_test"))
        metrics = partial(tasks[0][0].model.accuracy, batch=x_test, labels=y_test)

    fronthaul = [_fronthaul_counts(cfg, arch) for arch in archs]
    models = [np.array(init)] * len(archs)  # (S, G, D) per architecture
    scores = metrics(models[0])
    rows = [ResultRow(arch.name, arch.tco, seed, 0.0, None, (), _floats(scores[s]), fh)
            for s, seed in enumerate(seeds) for arch, fh in zip(archs, fronthaul)]
    channel = any(arch.solver for arch in archs)
    for t in range(1, cfg.rounds + 1):
        state = draw_block(stats, [tg + ("round", t) for tg in tags]) if channel else None
        noise = {bs: _slot_noise(cfg, tags, t, bs, models[0].shape[-1])
                 for bs in {arch.needs_bs for arch in archs if arch.recovery}}
        for i, arch in enumerate(archs):
            theta = models[i][:, gdev]
            # One seed's (K, ...) device stack at a time stays in cache.
            local = theta - step * np.stack([gradient(*one) for one in zip(theta, *data)])
            symbols, mean, std = fl_engine.normalize(local)
            weights = [make_weights(cfg, gdev, *ms) for ms in zip(std, mean)]
            solved, traces = _solve_block(cfg, arch.solver, stats, state, weights,
                                          stats.power_limit[None])
            models[i] = _ota_round(cfg, arch, local, symbols, mean, weights[0].gamma,
                                   solved, state, noise)[0]
            scores = metrics(models[i])
            for s, (seed, w) in enumerate(zip(seeds, weights)):
                mses = _floats(traces[s][0][-1])
                rows.append(ResultRow(arch.name, arch.tco, seed, float(t),
                                      float(np.dot(w.omega, mses)), mses,
                                      _floats(scores[s]), fronthaul[i]))
    return rows


def _floats(values):
    return tuple(float(v) for v in values)


def run_fl_training(cfg, threads=1):
    """Federated training of every configured architecture, row per round.

    Initial models, data, geometry, and channel draws are shared across
    architectures within a seed so their trajectories are comparable.
    """
    return _over_seeds(cfg, threads, _train_seeds)
