"""Output check of a job's CSV: which expected rows are missing or wrong.

For an MSE sweep every (architecture, tco, seed, point) row must be present
once, with finite values and fronthaul columns equal to
``accounting.fronthaul_scalars``.  Error-free rows have zero MSE; each
``tco=1`` row is no worse than its ``tco=0`` row, because the solver
descends monotonically from full power; level-2 rows equal level-3 rows.
For training every (architecture, seed, round) row must be present once,
with finite values, accuracies in [0, 1] and zero error-free MSE.
"""

import csv
import io
import math

import jobs  # noqa: F401  (puts the checkout's src on sys.path)
from cfota import accounting

TCO_ARCHS = ("level2", "level3", "cellular")
LEVELS = {"level1": 1, "level2": 2, "level3": 3}
# CSV cells carry 9 significant digits.
REL_TOL = 1e-8


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def _num(cell):
    return float(cell) if cell != "" else None


def _key(row):
    return (row["scenario"], int(row["tco"]), int(row["seed"]), float(row["point"]))


def _fronthaul(cfg, arch):
    if arch not in LEVELS:
        return (0, 0, 0)
    rep = accounting.fronthaul_scalars(
        LEVELS[arch], cfg.tau_p, cfg.tau_u, cfg.n_ap_antennas, cfg.n_aps,
        cfg.n_groups, cfg.n_devices)
    return (rep.pilot_data_scalars, rep.combiner_scalars, rep.statistics_display())


def expected_keys(cfg, kind):
    keys = []
    for arch in cfg.architectures:
        for seed in range(cfg.seeds):
            if kind == "train":
                tco = int(arch not in ("errorfree", "level1"))
                keys += [(arch, tco, seed, float(t)) for t in range(cfg.rounds + 1)]
                continue
            for point in cfg.sweep_dbm:
                keys.append((arch, 0, seed, float(point)))
                if arch in TCO_ARCHS:
                    keys.append((arch, 1, seed, float(point)))
    return keys


def _row_ok(row, cfg, kind):
    arch = row["scenario"]
    mses = [_num(row[f"mse_g{g}"]) for g in range(cfg.n_groups)]
    wsum = _num(row["wsum_mse"])
    fh = tuple(_num(row[c]) for c in ("fh_pilot_data", "fh_combiners", "fh_statistics"))
    values = [v for v in mses + [wsum] if v is not None]
    if kind == "train" and float(row["point"]) == 0.0:
        ok = wsum is None and not any(v is not None for v in mses)
    else:
        ok = wsum is not None and all(v is not None for v in mses)
    ok = ok and all(math.isfinite(v) and v >= 0.0 for v in values)
    ok = ok and fh == tuple(float(v) for v in _fronthaul(cfg, arch))
    if arch == "errorfree":
        ok = ok and all(v == 0.0 for v in values)
    if kind == "train":
        accs = [_num(row[f"metric_g{g}"]) for g in range(cfg.n_groups)]
        ok = ok and all(a is not None and 0.0 <= a <= 1.0 for a in accs)
    return ok


def count_failed(text, cfg, kind):
    """(rows expected, rows failed) for one job's CSV text.

    A row fails when it is missing, duplicated, unexpected, or breaks one of
    the checks in the module docstring.
    """
    expected = expected_keys(cfg, kind)
    wanted = set(expected)
    by_key = {}
    failed = set()
    extra = 0
    for row in parse_csv(text):
        try:
            key = _key(row)
            ok = _row_ok(row, cfg, kind)
        except (KeyError, ValueError, TypeError):
            extra += 1
            continue
        if key not in wanted or key in by_key:
            extra += 1
            continue
        by_key[key] = row
        if not ok:
            failed.add(key)
    failed |= wanted - set(by_key)
    if kind != "train":
        for (arch, tco, seed, point), row in by_key.items():
            if tco == 1:
                base = by_key.get((arch, 0, seed, point))
                if base is not None and (float(row["wsum_mse"]) >
                                         float(base["wsum_mse"]) * (1 + REL_TOL)):
                    failed.add((arch, tco, seed, point))
            if arch == "level2":
                twin = by_key.get(("level3", tco, seed, point))
                cols = ["wsum_mse"] + [f"mse_g{g}" for g in range(cfg.n_groups)]
                if twin is None or any(row[c] != twin[c] for c in cols):
                    failed.add((arch, tco, seed, point))
    return len(expected), len(failed) + extra


def max_rel_diff(text, ref_text):
    """Largest relative difference of any numeric cell; 1.0 if the rows differ."""
    rows, ref = parse_csv(text), parse_csv(ref_text)
    if len(rows) != len(ref) or any(r.keys() != s.keys() for r, s in zip(rows, ref)):
        return 1.0
    worst = 0.0
    for row, base in zip(rows, ref):
        for col, cell in row.items():
            if col == "scenario":
                if cell != base[col]:
                    return 1.0
                continue
            if (cell == "") != (base[col] == ""):
                return 1.0
            if cell == "":
                continue
            a, b = float(cell), float(base[col])
            scale = max(abs(a), abs(b))
            if scale > 0.0:
                worst = max(worst, abs(a - b) / scale)
    return worst
