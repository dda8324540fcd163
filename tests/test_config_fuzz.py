"""Every config either fails validation by name or runs to finite rows.

A derandomized generative fuzz over every config key that declares a rule,
starting from the desk configs.  Each key is drawn from its rule kinds, in
range or at an edge, so a new key joins the fuzz by declaring its rules.
A config passes if ``validate_config`` rejects it with a ``ValidationError``
or ``ParseError``, or if both verbs finish on it: with finite rows, or with
a named error (a ``CfotaError``).  Any other exception, or any
``RuntimeWarning`` (an error in this suite), fails it.

The only per-key knowledge here is the budget that keeps valid runs tiny:
at most 2 seeds, 2 rounds and 20 solver iterations, and at most 9 APs of
4 antennas, 4 BSs of 8 and 20 devices when drawn; one thread.
"""

from dataclasses import fields
import math
from pathlib import Path
from typing import get_origin

from hypothesis import given, settings
from hypothesis import strategies as st

from cfota import CfotaError, runner

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# Values that have broken validation before: zero, negative, non-finite,
# huge and tiny.
EDGES = ["0", "-1", "nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "1e5"]

# The largest count each key draws in range; every other count stops at
# OTHER_CAP.  Every example draws the first three in range.
CAPS = {"seeds": 2, "rounds": 2, "max_iters": 20, "n_aps": 9, "n_ap_antennas": 4,
        "cells": 4, "n_bs_antennas": 8, "n_devices": 20}
OTHER_CAP = 10

# The values each numeric rule kind accepts: a closed range, where None
# stands for the key's cap.  A "choice" key draws from its choices.
RANGES = {"count": (1, None), "nonnegative": (0, None), "stream_tag": (-2**127, 2**127 - 1),
          "finite_positive": (1e-3, 1e3), "finite_nonnegative": (0.0, 20.0),
          "dbm": (-130.0, 60.0), "gain_db": (-100.0, 0.0)}
# Rules that take no values of their own: counts reach squares and others,
# and lists of 0-3 entries reach the empty list and repeats.
SHAPE_RULES = {"square", "nonempty", "unique"}

FIELDS = {f.name: f for f in fields(runner.ScenarioConfig)}


def in_range(f, kind):
    """Config values of field ``f`` that follow its rule ``kind``."""
    if kind == "choice":
        return st.sampled_from(f.metadata["choices"]).map(str)
    lo, hi = RANGES[kind]
    if f.type is int:
        return st.integers(lo, CAPS.get(f.name, OTHER_CAP) if hi is None else hi).map(str)
    return st.floats(lo, hi).map(repr)


def drawn(f):
    """Config values of field ``f``: in range of one of its rules, or an
    edge; a list key lists 0-3 of them, and a bool key is a bool."""
    if f.type is bool:
        return st.booleans().map(str)
    entry = st.one_of(st.sampled_from(EDGES), *(
        in_range(f, kind) for kind in f.metadata["rules"] if kind not in SHAPE_RULES))
    if get_origin(f.type) is tuple:
        return st.lists(entry, max_size=3).map(", ".join)
    return entry


KEYS = {name: drawn(f) for name, f in FIELDS.items() if f.metadata.get("rules") or f.type is bool}
# What every example sets in range: its seeds, rounds and iteration cap.
budget = st.fixed_dictionaries({name: in_range(FIELDS[name], FIELDS[name].metadata["rules"][0])
                                for name in ("seeds", "rounds", "max_iters")})
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
@given(base=st.sampled_from(["desk-sweep.cfg", "desk-train.cfg"]), sizes=budget, keys=overrides)
def test_every_config_fails_by_name_or_runs_to_finite_rows(base, sizes, keys):
    entries = {**sizes, **keys}
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
