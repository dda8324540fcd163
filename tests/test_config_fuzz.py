"""Every config either fails validation by name or runs to finite rows.

A derandomized generative fuzz over the numeric config keys, starting from
the desk configs.  A config passes if ``validate_config`` rejects it with a
``ValidationError`` or ``ParseError``, or if both verbs finish on it: with
finite rows, or with a named error (a ``CfotaError``).  Any other
exception, or any ``RuntimeWarning`` (an error in this suite), fails it.

Valid configs stay tiny: one seed, one round, at most 20 solver iterations,
at most 9 APs of 4 antennas and 20 devices, one thread.
"""

import math
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cfota import CfotaError, runner

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# Values that have broken validation before: zero, negative, non-finite,
# huge and tiny.
EDGES = ["0", "-1", "nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "1e5"]


def real(lo, hi):
    return st.one_of(st.sampled_from(EDGES), st.floats(lo, hi).map(repr))


def count(lo, hi):
    """An int key: a small count, zero, negative, or a value that the int
    parser rejects."""
    return st.one_of(st.sampled_from(["0", "-1", "1.5", "1e5"]), st.integers(lo, hi).map(str))


def reals(lo, hi, max_size):
    return st.lists(real(lo, hi), max_size=max_size).map(", ".join)


DBM = (-40.0, 60.0)
KEYS = {
    "side_m": real(1.0, 1000.0),
    "decorr_m": real(1.0, 5000.0),
    "shadow_std_db": real(0.0, 20.0),
    "beta0_db": real(-60.0, 0.0),
    "alpha": real(1.0, 6.0),
    "d0_m": real(0.1, 10.0),
    "asd_deg": real(0.0, 90.0),
    "p_max_dbm": real(*DBM),
    "pilot_power_dbm": real(*DBM),
    "noise_dbm": real(-130.0, -50.0),
    "sweep_dbm": reals(*DBM, max_size=3),
    "omega": reals(0.1, 10.0, max_size=3),
    "epsilon": real(0.0, 1e-2),
    "learning_rate": real(1e-3, 10.0),
    "class_spread": real(0.0, 1.0),
    "ridge": real(0.0, 1.0),
    "n_aps": st.sampled_from(["0", "1", "2", "4", "9"]),
    "cells": st.sampled_from(["0", "1", "2", "4"]),
    "n_ap_antennas": count(-1, 4),
    "n_bs_antennas": count(-1, 8),
    "n_groups": count(-1, 4),
    "n_devices": count(-1, 20),
    "tau_p": count(-1, 10),
    "max_iters": count(-1, 20),
    "tau_u": count(-1, 60),
    "distribution_mode": count(0, 3),
    "n_features": count(-1, 8),
    "n_classes": count(-1, 6),
    "hidden_units": count(-1, 8),
    "samples_per_device": count(-1, 20),
    "test_samples": count(-1, 40),
}

# What every example sets, in range: a geometry, and the iteration cap.
# The devices come in groups of the desk configs' count, 2, with a pilot
# length from one short of the group size to two above it.  Seeds, rounds
# and threads stay at 1.
geometry = st.builds(
    lambda side, decorr, size, spare: {"side_m": repr(side), "decorr_m": repr(decorr),
                                       "n_devices": str(2 * size), "tau_p": str(size + spare)},
    st.floats(1.0, 1000.0), st.floats(1.0, 5000.0), st.integers(1, 10), st.integers(-1, 2))
max_iters = st.integers(1, 20).map(str)
# Then one to three keys, each in range or at an edge, which may override
# the above.
overrides = st.lists(st.sampled_from(sorted(KEYS)), min_size=1, max_size=3,
                     unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({key: KEYS[key] for key in keys}))


def finite_rows(rows):
    values = [v for row in rows
              for v in (row.point, row.wsum_mse, *row.mse_per_group, *row.metric_per_group)
              if v is not None]
    return bool(rows) and all(math.isfinite(v) for v in values)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(base=st.sampled_from(["desk-sweep.cfg", "desk-train.cfg"]), sizes=geometry,
       cap=max_iters, keys=overrides)
def test_every_config_fails_by_name_or_runs_to_finite_rows(base, sizes, cap, keys):
    entries = {"seeds": "1", "rounds": "1", "max_iters": cap, **sizes, **keys}
    try:
        cfg = runner.parse_config_lines((CONFIGS / base).read_text().splitlines())
        cfg = runner.validate_config(runner.parse_config_lines(
            [f"{key} = {value}" for key, value in entries.items()], base=cfg))
    except (runner.ParseError, runner.ValidationError):
        return
    for run in (runner.run_mse_sweep, runner.run_fl_training):
        try:
            rows = run(cfg, threads=1)
        except CfotaError:
            continue
        assert finite_rows(rows), run.__name__
