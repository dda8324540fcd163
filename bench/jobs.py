"""Workload definitions and one timed job through the public runner API.

Importing this module puts the checkout's ``src`` first on ``sys.path`` and
refuses a ``cfota`` imported from anywhere else, so the benchmark always
measures the source tree it sits in.
"""

from dataclasses import dataclass
from pathlib import Path
import ctypes
import os
import sys
import tempfile
import time

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import cfota  # noqa: E402
from cfota import runner  # noqa: E402

if Path(cfota.__file__).resolve().parent != SRC / "cfota":
    raise ImportError(f"cfota was imported from {cfota.__file__}, not from {SRC}")


@dataclass(frozen=True)
class Workload:
    """A committed config, what the runner does with it, and size overrides.

    ``overrides`` fix the job that one timed pass runs; ``ref_overrides``
    shrink it for the stored reference CSV (master seed 0); ``smoke``
    shrinks it further for the benchmark's own tests.
    """

    config: str
    kind: str  # "mse-sweep" or "train"
    overrides: tuple = ()
    ref_overrides: tuple = ()
    smoke: tuple = ()


# Why each workload exists is in BENCHMARK.json; the comments give the sizes.
WORKLOADS = {
    # One channel draw per seed shared by 24 solves.  Uncapped, the seeds'
    # iteration counts differ so much that the 20 committed seeds vary by
    # 10-20% in time from one master seed to the next, and 4 seeds capped
    # at 60 iterations still by 15%.  At 30 iterations nearly every solve
    # stops at the cap, so 8 seeds do the same work (+-3%) on every master
    # seed, in a pass of about a second.
    "sweep": Workload("configs/desk-sweep.cfg", "mse-sweep",
                      overrides=("seeds = 8", "max_iters = 30"),
                      ref_overrides=("seeds = 2",),
                      smoke=("seeds = 1", "sweep_dbm = 0, 30")),
    # One seed of the committed config: 3 architectures x 20 rounds, every
    # level-3 solve stops at its 80-iteration cap.  The host's speed changes
    # within seconds; the 50 committed rounds made a 3 s pass that the
    # calibration around it (run.py) tracked too coarsely, and shorter
    # passes are also more of them to take the median over.
    "train": Workload("configs/desk-train.cfg", "train",
                      overrides=("seeds = 1", "rounds = 20"),
                      ref_overrides=("seeds = 1", "rounds = 10"),
                      smoke=("seeds = 1", "rounds = 3")),
    "scale": Workload("bench/scale.cfg", "mse-sweep",
                      smoke=("max_iters = 3",)),
}


def _openblas_libraries():
    """Every OpenBLAS loaded in this process, as ctypes handles by file name."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return {}
    return {os.path.basename(p): ctypes.CDLL(p) for p in sorted(paths)}


def _blas_call(lib, verb, *args):
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            fn = getattr(lib, f"{prefix}{verb}_num_threads{suffix}", None)
            if fn is not None:
                fn.restype = ctypes.c_int if verb == "get" else None
                return fn(*[ctypes.c_int(a) for a in args])
    return None


def blas_threads():
    """Current thread count of every loaded OpenBLAS."""
    return {name: _blas_call(lib, "get") for name, lib in _openblas_libraries().items()}


def set_blas_threads(count):
    for lib in _openblas_libraries().values():
        _blas_call(lib, "set", count)


# numpy and scipy (through cfota) have loaded their OpenBLAS by now.
DEFAULT_BLAS_THREADS = max((n for n in blas_threads().values() if n), default=1)


def load(name, seed, extra=()):
    """Validated config of a workload's job with master_seed = seed."""
    spec = WORKLOADS[name]
    lines = list(spec.overrides) + list(extra) + [f"master_seed = {seed}"]
    return runner.load_config(ROOT / spec.config, overrides=lines)


def setup_code(name):
    """Python source for a fresh interpreter: import cfota, load the config."""
    return (f"import sys; sys.path.insert(0, {str(SRC)!r}); import cfota; "
            f"cfota.runner.load_config({str(ROOT / WORKLOADS[name].config)!r})")


@dataclass(frozen=True)
class JobRun:
    text: str     # the CSV as written by runner.emit_csv
    wall_s: float
    cpu_s: float  # user + system time of the whole process, all threads


def _cpu():
    t = os.times()
    return t.user + t.system


def execute(cfg, kind, threads=1):
    """Run one job and return its CSV as ``cfota mse-sweep``/``train`` writes it."""
    if kind == "train":
        rows = runner.run_fl_training(cfg, threads=threads)
    else:
        rows = runner.run_mse_sweep(cfg, threads=threads)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as tmp:
        path = Path(tmp) / "job.csv"
        runner.emit_csv(rows, path, cfg.n_groups)
        return path.read_text(encoding="utf-8")


def run_job(cfg, kind, threads=1):
    wall0, cpu0 = time.perf_counter(), _cpu()
    text = execute(cfg, kind, threads)
    return JobRun(text, time.perf_counter() - wall0, _cpu() - cpu0)
