"""Scenario orchestration: config, datasets, sweeps, training, CSV output.

A scenario is described by a flat key=value config file.  The runner
assembles the geometry, channel statistics, and per-round draws from
counter-based substreams keyed on (master seed, seed index, round,
purpose), so results are identical across runs and seed-block splits.
"""

from dataclasses import dataclass, field, fields, replace
from functools import partial
from numbers import Integral, Real
from typing import get_origin
import csv
import gzip
import math
import os
import re
import struct
import zlib

import numpy as np

from . import CfotaError, accounting, aggregation, estimation, fl_engine
from .channel import LargeScaleParams, correlation_matrices, sample_channels
from .rng import substream, substreams
from .topology import (Area, DistributionMode, NetworkGeometry, grid_points,
                       place_devices)

@dataclass(frozen=True)
class Architecture:
    """How the runner solves, scores and accounts one architecture.

    ``solver`` is the kind of round solve: "level1" (per-AP combiners at full
    power), "level3" (the alternating solver on all AP blocks), "cellular"
    (the same solver per serving BS) or None (error-free).  Level 2 is the
    "level3" kind, summing its per-AP combines at the CPU, with its own
    ``fronthaul`` accounting level (None: no AP fronthaul).
    """

    name: str
    solver: str | None
    fronthaul: int | None

    @property
    def tco(self):  # 1 when the transmit coefficients are optimized
        return int(self.solver not in (None, "level1"))

    @property
    def needs_bs(self):  # whether the serving-BS view is drawn
        return self.solver == "cellular"


ARCHITECTURES = {arch.name: arch for arch in (
    Architecture("errorfree", None, None),
    Architecture("level1", "level1", 1),
    Architecture("level2", "level3", 2),
    Architecture("level3", "level3", 3),
    Architecture("cellular", "cellular", None),
)}


class ParseError(CfotaError):
    """Config file syntax error; carries the offending line number."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class ValidationError(CfotaError):
    """A config invariant is violated; the message names it."""


class BadMagic(CfotaError):
    """IDX file does not start with the expected magic number."""


class TruncatedFile(CfotaError):
    """IDX file is shorter than its header promises."""


class CorruptFile(CfotaError):
    """A gzip-compressed IDX file's stream is damaged."""


class LabelOutOfRange(CfotaError):
    """A dataset label falls outside the declared class range."""


class CountMismatch(CfotaError):
    """An IDX image file and its label file hold different sample counts."""


class IoError(OSError):
    """Failed to write result output."""


def dbm_to_watt(dbm):
    return 10.0 ** ((dbm - 30.0) / 10.0)


def _gain_in_range(db):
    """Whether the gain ``10 ** (db / 10)`` is finite and > 0: db in about (-3230, 3080)."""
    try:
        return 0.0 < 10.0 ** (db / 10.0) < np.inf
    except OverflowError:
        return False


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _key(default, *rules, choices=()):
    """A config field that follows the single-key ``rules`` named in ``_RULES``."""
    return field(default=default, metadata={"rules": rules, "choices": choices})


@dataclass(frozen=True)
class ScenarioConfig:
    architectures: tuple[str, ...] = _key(("level3",), "nonempty", "choice", "unique",
                                            choices=tuple(ARCHITECTURES))
    side_m: float = _key(500.0, "finite_positive")
    cells: int = _key(4, "count", "square")
    n_aps: int = _key(4, "count", "square")
    n_ap_antennas: int = _key(2, "count")
    n_bs_antennas: int = _key(8, "count")
    n_devices: int = _key(6, "count")
    n_groups: int = _key(2, "count")
    tau_p: int = _key(3, "count")
    tau_u: int = _key(50, "count")
    distribution_mode: int = _key(2, "choice", choices=(1, 2))
    p_max_dbm: float = _key(20.0, "dbm")
    pilot_power_dbm: float = _key(20.0, "dbm")
    noise_dbm: float = _key(-96.0, "dbm")
    omega: tuple[float, ...] = _key((), "finite_positive")
    epsilon: float = _key(1e-10, "nonnegative")
    max_iters: int = _key(500, "count")
    learning_rate: float = _key(0.005, "finite_positive")
    rounds: int = _key(20, "nonnegative")
    seeds: int = _key(1, "count")
    master_seed: int = _key(0, "stream_tag")
    task: str = _key("synthetic", "choice", choices=("synthetic", "ridge", "idx"))
    hidden_units: int = _key(20, "count")
    n_features: int = _key(16, "count")
    n_classes: int = _key(10, "count")
    samples_per_device: int = _key(150, "count")
    test_samples: int = _key(500, "count")
    class_spread: float = _key(0.15, "finite_nonnegative")
    ridge: float = _key(0.1, "finite_nonnegative")
    asd_deg: float = _key(15.0, "finite_nonnegative")
    beta0_db: float = _key(-30.5, "gain_db")
    alpha: float = _key(3.67, "finite_positive")
    d0_m: float = _key(1.0, "finite_positive")
    shadow_std_db: float = _key(4.0, "finite_nonnegative")
    decorr_m: float = _key(9.0, "finite_positive")
    fair_comparison: bool = False
    sweep_dbm: tuple[float, ...] = _key((-10.0, 0.0, 10.0, 20.0, 30.0, 40.0),
                                        "nonempty", "dbm", "unique")
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
    """Comma-separated parts: an empty value is (), an empty part an error."""
    parts = tuple(part.strip() for part in raw.split(",")) if raw else ()
    if "" in parts:
        raise ValueError(f"empty element in {raw!r}")
    return parts


def _parse_float_tuple(raw):
    return tuple(float(part) for part in _parse_str_tuple(raw))


# Each key's caster follows from its field's type; the IDX keys of a group
# fill idx_paths.
_PARSERS = {bool: _parse_bool, tuple[str, ...]: _parse_str_tuple,
            tuple[float, ...]: _parse_float_tuple}
_CASTERS = {f.name: _PARSERS.get(f.type, f.type)
            for f in fields(ScenarioConfig) if f.name != "idx_paths"}
_IDX_KEY = re.compile(r"idx_(?:(?:train|test)_(?:images|labels)|label_filter)_g(0|[1-9][0-9]*)")


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
        if _IDX_KEY.fullmatch(key):
            idx_paths[key] = value
            continue
        if key not in _CASTERS:
            raise ParseError(lineno, f"unknown key {key!r}")
        try:
            updates[key] = _CASTERS[key](value)
        except ValueError as exc:
            raise ParseError(lineno, f"bad value for {key!r}: {exc}") from None
    return replace(cfg, idx_paths=idx_paths, **updates)


def _each(ok):
    """A rule on each entry: it finds the first entry that is not ``ok``."""
    return lambda entries, choices: next((x for x in entries if not ok(x)), None)


# Each single-key rule: a finder, given a key's entries and choices, of the
# entry that breaks it (None if none does; a list rule may find the list),
# and the message naming the key.  NaN breaks every rule it meets.
_RULES = {
    "count": (_each(lambda n: n >= 1), "{name} must be positive"),
    "square": (_each(lambda n: math.isqrt(n) ** 2 == n),
               "{name}={value} must be a perfect square"),
    "nonnegative": (_each(lambda x: x >= 0), "{name}={value} must be >= 0"),
    "finite_positive": (_each(lambda x: 0 < x < math.inf),
                        "{name}={value} must be finite and > 0"),
    "finite_nonnegative": (_each(lambda x: 0 <= x < math.inf),
                           "{name}={value} must be finite and >= 0"),
    "dbm": (_each(lambda dbm: _gain_in_range(dbm - 30.0)),
            "{name}={value} must convert to a finite power > 0 W"),
    "gain_db": (_each(_gain_in_range), "{name}={value} must give a finite reference gain > 0"),
    "choice": (lambda xs, choices: next((x for x in xs if x not in choices), None),
               "{name} allows {choices}, not {entry!r}"),
    "stream_tag": (_each(lambda n: -2**127 <= n < 2**127),  # 16 signed bytes
                   "{name}={value} must lie in [-2**127, 2**127)"),
    "nonempty": (lambda xs, _: None if xs else xs, "{name} must not be empty"),
    "unique": (lambda xs, _: next((x for i, x in enumerate(xs) if x in xs[:i]), None),
               "{name} lists {entry!r} twice"),
}


def validate_config(cfg):
    """Raise ValidationError naming the first violated invariant: field by
    field in declaration order, the value's type (an int or a numpy scalar
    passes for a float) and its single-key rules; then the cross-key rules."""
    for f in fields(ScenarioConfig):
        value = getattr(cfg, f.name)
        listed = get_origin(f.type) is tuple
        entry_type = f.type.__args__[0] if listed else f.type
        accepts = {int: Integral, float: Real}.get(entry_type, entry_type)
        entries = value if listed and isinstance(value, tuple) else (value,)
        if listed != isinstance(value, tuple) or not all(isinstance(x, accepts) for x in entries):
            raise ValidationError(f"{f.name}={value!r} must be "
                                  f"{'a tuple of' if listed else 'of type'} {entry_type.__name__}")
        choices = f.metadata.get("choices", ())
        for rule in f.metadata.get("rules", ()):
            find, message = _RULES[rule]
            if (bad := find(entries, choices)) is not None:
                raise ValidationError(message.format(name=f.name, value=value, entry=bad,
                                                     choices=", ".join(map(str, choices))))
    total_cf, total_cell = cfg.n_aps * cfg.n_ap_antennas, cfg.cells * cfg.n_bs_antennas
    for broken, message in (
            (cfg.n_devices % cfg.n_groups,
             f"n_devices={cfg.n_devices} must be divisible by n_groups={cfg.n_groups}"),
            (cfg.distribution_mode == 1 and cfg.n_groups > cfg.cells,
             f"mode 1 needs a cell per group: {cfg.n_groups} groups, {cfg.cells} cells"),
            (cfg.tau_p < cfg.group_size,
             f"tau_p={cfg.tau_p} below group size {cfg.group_size} causes pilot shortage"),
            (cfg.omega and len(cfg.omega) != cfg.n_groups, "omega must list one weight per group"),
            (any(ARCHITECTURES[a].needs_bs for a in cfg.architectures)
             and cfg.n_groups > cfg.cells, "cellular needs one serving BS (cell) per group"),
            (cfg.fair_comparison and total_cf != total_cell,
             "fair comparison requires n_aps*n_ap_antennas == cells*n_bs_antennas "
             f"({total_cf} != {total_cell})"),
            # A ridge model is its feature vector, and normalizing needs 2 entries.
            (cfg.task == "ridge" and cfg.n_features < 2,
             f"n_features={cfg.n_features} must be >= 2 for task = ridge")):
        if broken:
            raise ValidationError(message)
    for key in cfg.idx_paths:
        match = _IDX_KEY.fullmatch(key)
        if match is None or int(match[1]) >= cfg.n_groups:
            raise ValidationError(
                f"{key} is not an IDX key of a group below n_groups={cfg.n_groups}")
    if cfg.task == "idx":
        for group in range(cfg.n_groups):
            _label_filter(cfg, group)
            for key in ("train_images", "train_labels", "test_images", "test_labels"):
                _idx_path(cfg, group, f"idx_{key}")
    return cfg


def load_config(path, overrides=()):
    """Read, override, and validate a scenario config file."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        lines = fh.readlines()
    for lineno, line in enumerate(lines, start=1):
        if bad := re.search("[\udc80-\udcff]", line):
            raise ParseError(lineno, f"byte {ord(bad[0]) - 0xdc00:#04x} is not UTF-8")
    cfg = parse_config_lines(lines)
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
    """``count`` bytes of ``fh``, read in chunks of at most 4 MiB, so that a
    corrupt header's count ends in TruncatedFile at the file's end, as does
    a gzip stream cut short; a damaged one raises CorruptFile."""
    data = bytearray()
    while len(data) < count:
        try:
            chunk = fh.read(min(count - len(data), 1 << 22))
        except EOFError:
            chunk = b""
        except (zlib.error, gzip.BadGzipFile) as exc:
            raise CorruptFile(f"{path}: damaged gzip stream: {exc}") from None
        if not chunk:
            raise TruncatedFile(f"{path}: expected {count} more bytes, got {len(data)}")
        data += chunk
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


@dataclass(frozen=True)
class ChannelState:
    """One coherence block: true channels and their MMSE estimates.

    The covariances are the view's statistics, which every block shares.
    """

    h: np.ndarray
    h_hat: np.ndarray


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
        ap_positions=grid_points(cfg.n_aps, area),
        bs_positions=grid_points(cfg.cells, area),
        device_positions=device_positions,
        group_of_device=group_of_device,
    )


def build_statistics(cfg, geometry, rng):
    """Spatial correlations, draw roots and MMSE statistics of the AP (and,
    if needed, serving-BS) links."""
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
    return SystemStatistics(geometry=geometry, ap=ap, bs=bs)


def _draw_view(mmse, rng_fading, rng_pilot):
    h = sample_channels(mmse.draw_root, rng_fading)
    y = estimation.pilot_observation(h, mmse.plan, mmse.noise_power, rng_pilot)
    return ChannelState(h=h, h_hat=estimation.estimate_all(y, mmse))


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


def level3_problem(stats, round_state, weights, cellular=False):
    """The record of a round over the AP links or, ``cellular``, over the
    serving-BS links, which the record then says: one seed's, or, from a
    seed block's statistics and draw, the block's with its seed axis."""
    mmse, state = (stats.bs, round_state.bs) if cellular else (stats.ap, round_state.ap)
    return aggregation.Level3Problem(
        h_hat=state.h_hat, error_cov=mmse.error_cov,
        group_of_device=stats.geometry.group_of_device, weights=weights,
        noise_power=mmse.noise_power, cellular=cellular)


def make_weights(cfg, nu):
    """Weights of per-device standard deviations (K,), or (S, K) for a seed block."""
    nu = np.asarray(nu, dtype=float)
    return aggregation.AggregationWeights(
        gamma=np.full(cfg.n_devices, 1.0 / cfg.group_size), omega=cfg.omega_or_default, nu=nu)


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
                mses, metrics = (list(v) + [None] * (n_groups - len(v))
                                 for v in (row.mse_per_group, row.metric_per_group))
                writer.writerow([_fmt(v) for v in
                                 [row.scenario, row.tco, row.seed, row.point,
                                  row.wsum_mse] + mses + metrics
                                 + list(row.fronthaul)])
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _over_seeds(cfg, threads, run_seeds):
    """Rows of ``run_seeds(cfg, seeds)`` over every seed, in sort-key order.

    The seeds split into min(threads, seeds) contiguous blocks, run in order
    on the calling thread; every seed draws from its own substreams, so the
    rows do not depend on the split.
    """
    if threads < 1:
        raise ValidationError(f"threads={threads} must be >= 1")
    n_blocks = min(threads, cfg.seeds)
    rows = [row for i in range(n_blocks) for row in run_seeds(
        cfg, range(i * cfg.seeds // n_blocks, (i + 1) * cfg.seeds // n_blocks))]
    return sorted(rows, key=ResultRow.sort_key)


def fronthaul_counts(cfg, level):
    """The (pilot/data, combiner, statistics) scalars of accounting level ``level``."""
    if level is None:
        return (0, 0, 0)
    rep = accounting.fronthaul_scalars(
        level, cfg.tau_p, cfg.tau_u, cfg.n_ap_antennas, cfg.n_aps,
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

    ``state`` is the block's round state and ``weights`` its (S, K) weights.
    Returns b (S, P, K), the combiners (S, P, G, ...) and the per-group
    MSEs (S, P, 2, G) at full power (tco=0) and after the solve (tco=1);
    None, None and zeros without a solver.  Every solver kind is one call.
    Levels 1 and 3 solve the same AP-side record, level 1 per AP, and
    ``level1_batch`` scores level 1 on the block's true channels; the
    cellular baseline solves the serving-BS record, one view per BS.
    """
    if kind is None:
        return None, None, np.zeros((len(weights.nu), len(powers), 2, cfg.n_groups))
    problem = level3_problem(stats, state, weights, kind == "cellular")
    if kind == "level1":
        b, v, mses = aggregation.level1_batch(problem, powers, state.ap.h)
        return b, v, np.stack([mses, mses], axis=2)
    sol = aggregation.optimize_batch(problem, powers, eps=cfg.epsilon,
                                     max_iters=cfg.max_iters)
    solved = np.take_along_axis(sol.group_values, sol.iterations[..., None, None], axis=2)
    return sol.b, sol.combiners, np.concatenate([sol.group_values[:, :, :1], solved], axis=2)


# ---------------------------------------------------------------------------
# MSE sweep
# ---------------------------------------------------------------------------

def _initial_round_stats(cfg, seed):
    """Per-device nu from each group's initial model parameters."""
    nu = np.empty(cfg.n_devices)
    for g in range(cfg.n_groups):
        nu[g * cfg.group_size:(g + 1) * cfg.group_size] = fl_engine.normalize(
            _initial_model(cfg, seed, g))[2]
    return nu


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
    weights = make_weights(cfg, [_initial_round_stats(cfg, seed) for seed in seeds])
    # mses[kind][s, j, tco]: seed s at grid point j, every seed's whole grid
    # solved in one batch per kind; level 2 takes the level-3 MSEs.  wsums
    # holds their weighted sums, each the dot of omega with its row (np.dot
    # adds each row as that dot does; @ may round differently).
    mses = {kind: _solve_block(cfg, kind, stats, state, weights, powers)[2]
            for kind in dict.fromkeys(arch.solver for arch in archs)}
    wsums = {kind: np.dot(group, weights.omega).tolist() for kind, group in mses.items()}
    mses = {kind: group.tolist() for kind, group in mses.items()}
    fronthaul = [fronthaul_counts(cfg, arch.fronthaul) for arch in archs]
    rows = []
    for i, seed in enumerate(seeds):
        for arch, fh in zip(archs, fronthaul):
            for j, p_dbm in enumerate(cfg.sweep_dbm):
                for tco in range(1 + arch.tco):
                    rows.append(ResultRow(arch.name, tco, seed, float(p_dbm),
                                          wsums[arch.solver][i][j][tco],
                                          tuple(mses[arch.solver][i][j][tco]), (), fh))
    return rows


def run_mse_sweep(cfg, threads=1):
    """Weighted sum-MSE of every configured architecture over ``sweep_dbm``.

    Uses one channel/estimate draw per seed (shared across grid points), the
    round-one parameter statistics of each group's initial model, and both
    the full-power and the optimized transmit coefficients where TCO applies.
    ``threads`` counts the seed blocks run in order (``_over_seeds``); only
    the benchmark's ``bench/jobs.py`` passes it, until ROADMAP item 1.
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
    """Group's IDX file for ``key``; a relative path resolves against data_dir."""
    raw = cfg.idx_paths.get(f"{key}_g{group}")
    if raw is None:
        raise ValidationError(f"task=idx requires key {key}_g{group}")
    return os.path.join(cfg.data_dir, raw)


def _label_filter(cfg, group):
    """Group's ``idx_label_filter_g<group>`` labels, or None if it has none."""
    key = f"idx_label_filter_g{group}"
    raw = cfg.idx_paths.get(key)
    if not raw:
        return None
    try:
        return [int(v) for v in raw.split(",")]
    except ValueError:
        raise ValidationError(f"{key}={raw!r} must list integer labels") from None


def _load_idx_task(cfg, group, rng, group_size):
    """Group's (train features, labels, test features, labels), drawn at
    random from its IDX files: exactly ``group_size * samples_per_device``
    training and ``test_samples`` test images."""
    filt = _label_filter(cfg, group)
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


def _ota_round(cfg, kind, local, symbols, theta_bar, gamma, b, combiners, state, noise):
    """Recovered parameters (S, G, D) of one round of solver ``kind`` for a
    block of seeds, and the realized squared errors (S, G).

    gamma (K,) holds the devices' shares, b[s, 0] (K,) and combiners[s, 0]
    seed s's solution at its one power row, and noise[bs] the round's slot
    noise at the serving BSs (bs) or the APs.
    """
    gamma = gamma.reshape(cfg.n_groups, -1)
    if kind is None:
        return fl_engine.ota_block(local, symbols, theta_bar, gamma)
    n_seeds, n_dev, n_slots = symbols.shape
    bs = kind == "cellular"
    # Group views Gs and receiver views V of the channels, noise and combiners:
    # level 1 averages one view per AP, every other kind combines one view.
    views = (cfg.n_groups if bs else 1, cfg.n_aps if kind == "level1" else 1)
    channels = (state.bs if bs else state.ap).h
    return fl_engine.ota_block(
        local, symbols, theta_bar, gamma, b[:, 0],
        channels.reshape(n_seeds, n_dev, *views, -1),
        noise[bs].reshape(n_seeds, *views, -1, n_slots),
        combiners[:, 0].reshape(n_seeds, cfg.n_groups, views[1], -1),
        average=kind == "level1")


def _train_seeds(cfg, seeds):
    """Training rows of a block of seeds.

    Rounds run in the outer loop and solver kinds, sharing each round's
    draws, in the inner one.  A kind trains one trajectory over the (S, K)
    device stack (per round one local step, normalization, solve batch and
    OTA round), and its architectures' rows differ only in fronthaul.
    """
    archs = [ARCHITECTURES[name] for name in cfg.architectures]
    tags, stats = _prepare_block(cfg, seeds)
    gdev = stats.geometry.group_of_device
    power = np.full((1, cfg.n_devices), dbm_to_watt(cfg.p_max_dbm))
    tasks = [[_GroupTask(cfg, seed, g) for g in range(cfg.n_groups)] for seed in seeds]
    init = [[_initial_model(cfg, seed, g) for g in range(cfg.n_groups)] for seed in seeds]
    if len({len(v) for models in init for v in models}) != 1:
        raise fl_engine.ShapeMismatch(
            "all groups must train models of the same parameter count")
    # Device k of seed s: its shard and step size, stacked (S, K, ...).
    data = [np.array(x).reshape(len(seeds), cfg.n_devices, *x[0].shape[1:])
            for x in zip(*(task.shards for row in tasks for task in row))]
    step = np.array([[task.learning_rate(cfg) for task in row] for row in tasks])[:, gdev, None]
    # The stacked local gradient, and metrics(models) scoring a kind's
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

    fronthaul = [fronthaul_counts(cfg, arch.fronthaul) for arch in archs]
    models = {arch.solver: np.array(init) for arch in archs}  # (S, G, D) per kind
    scores = metrics(np.array(init))
    rows = [ResultRow(arch.name, arch.tco, seed, 0.0, None, (), _floats(scores[s]), fh)
            for s, seed in enumerate(seeds) for arch, fh in zip(archs, fronthaul)]
    for t in range(1, cfg.rounds + 1):
        state = draw_block(stats, [tg + ("round", t) for tg in tags]) if any(models) else None
        noise = {bs: _slot_noise(cfg, tags, t, bs, np.shape(init)[-1])
                 for bs in {kind == "cellular" for kind in models if kind}}
        results = {}  # kind: (per-group MSEs, scores)
        for kind in models:
            theta = models[kind][:, gdev]
            # One seed's (K, ...) device stack at a time stays in cache.
            local = theta - step * np.stack([gradient(*one) for one in zip(theta, *data)])
            symbols, mean, std = fl_engine.normalize(local)
            weights = make_weights(cfg, std)
            b, combiners, mses = _solve_block(cfg, kind, stats, state, weights, power)
            models[kind] = _ota_round(cfg, kind, local, symbols, mean, weights.gamma,
                                      b, combiners, state, noise)[0]
            results[kind] = mses, metrics(models[kind])
        for arch, fh in zip(archs, fronthaul):
            group_mses, scores = results[arch.solver]
            for s, seed in enumerate(seeds):
                mses = _floats(group_mses[s, 0, 1])
                rows.append(ResultRow(arch.name, arch.tco, seed, float(t),
                                      float(np.dot(cfg.omega_or_default, mses)), mses,
                                      _floats(scores[s]), fh))
    return rows


def _floats(values):
    return tuple(float(v) for v in values)


def run_fl_training(cfg, threads=1):
    """Federated training of every configured architecture, row per round.

    Initial models, data, geometry, and channel draws are shared across
    architectures within a seed so their trajectories are comparable.
    ``threads`` counts the seed blocks run in order (``_over_seeds``); only
    the benchmark's ``bench/jobs.py`` passes it, until ROADMAP item 1.
    """
    return _over_seeds(cfg, threads, _train_seeds)
