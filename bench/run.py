"""cfota benchmark: three batch jobs through the public ``cfota.runner`` API.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads (see ``jobs.WORKLOADS``) are single-process closed loops: the
next pass of a job starts when the previous one has ended.  Every job runs
with ``threads=1`` and one OpenBLAS thread (``BLAS_THREADS``); ``--seed``
is the job's ``master_seed``.

``--trace 0`` measures end to end.  After timing interpreter start-up,
``import cfota`` and ``load_config`` in fresh interpreters, it runs the job
once untimed to warm caches, then repeats it while the next pass still fits
in ``--seconds`` (at least once) and reports medians over the passes.

A shared host runs the same code at speeds that differ by 15-30% for tens
of seconds at a time, which is longer than a pass and as long as a run.  So
every timed step is bracketed by a fixed calibration kernel (``host``), and
each time is reported at the reference host speed: the step's seconds times
``host.REF_S`` over the kernel's seconds around it.  A change to the program
moves the step and not the kernel; a slow spell of the host moves both.
The raw seconds are printed on the ``notes`` line.

``--trace 1`` runs the job untraced at ``threads=1`` and ``threads=2``
(their CSVs must be byte-identical) and with the default OpenBLAS thread
count, then once with every public function of every layer wrapped by
``spans.Tracer`` (bracketed by two untraced passes for the tracing
overhead), then the reference job, and reports per-layer figures; their
times are raw seconds.

Each pass's CSV goes through ``check.count_failed``; ``attempted`` and
``failed`` in the result count rows.  The last line of standard output is
the JSON result; the line before it records the machine and libraries.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import jobs
import check
import host
import spans

SETUP_REPS = 7
# Two OpenBLAS threads on a shared 2-vCPU VM spin against each other and
# against neighbours, which widened the run-to-run spread of the desk
# training job from 0.22 to 0.32 of its median; the traced run reports what
# the default thread count gains instead (runner.blas_default_speedup).
BLAS_THREADS = 1
REF_DIR = jobs.ROOT / "bench" / "ref"


def environment():
    """Machine, library versions and BLAS threading behind the figures."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": jobs.blas_threads(),
        "blas_threads_default": jobs.DEFAULT_BLAS_THREADS,
        "calibration_ref_s": host.REF_S,
        "thread_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
    }


def setup_seconds(name):
    """Raw wall times of fresh interpreters that import cfota and load the config,
    and the calibration times around them."""
    times, cal = [], [host.calibrate()]
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", jobs.setup_code(name)],
                       check=True, cwd=jobs.ROOT, timeout=120)
        times.append(time.perf_counter() - t0)
        cal.append(host.calibrate())
    return times, cal


def neg_wsum_mse_db(text, kind):
    """Mean of -10 log10 wsum_mse over the optimized (tco=1) solver rows."""
    rows = check.parse_csv(text)
    if kind == "train":
        picked = [r for r in rows if r["scenario"] == "level3" and float(r["point"]) > 0]
    else:
        picked = [r for r in rows if r["tco"] == "1"
                  and r["scenario"] in ("level3", "cellular")]
    return statistics.fmean(-10.0 * math.log10(max(float(r["wsum_mse"]), 1e-300))
                            for r in picked)


def final_acc(text, cfg):
    rows = [r for r in check.parse_csv(text) if float(r["point"]) == cfg.rounds]
    return statistics.fmean(float(r[f"metric_g{g}"]) for r in rows
                            for g in range(cfg.n_groups))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name, seed, seconds, extra=()):
    """End-to-end figures: (attempted, failed, metrics, notes).

    ``extra`` are config overrides that shrink the job (tests only).
    """
    spec = jobs.WORKLOADS[name]
    setup, setup_cal = setup_seconds(name)
    cfg = jobs.load(name, seed, extra)
    passes = [jobs.run_job(cfg, spec.kind)]  # warm-up, checked but not timed
    cal = [host.calibrate()]
    start = time.perf_counter()
    while True:
        passes.append(jobs.run_job(cfg, spec.kind))
        cal.append(host.calibrate())
        typical = statistics.median(p.wall_s + c for p, c in zip(passes[1:], cal[1:]))
        if time.perf_counter() - start + typical > seconds:
            break
    attempted = failed = 0
    for p in passes:
        n, bad = check.count_failed(p.text, cfg, spec.kind)
        attempted += n
        failed += bad if p.text == passes[0].text else n
    timed = passes[1:]
    metrics = {
        "wall_s": (host.at_ref([p.wall_s for p in timed], cal), "s"),
        "cpu_s": (host.at_ref([p.cpu_s for p in timed], cal), "s"),
        "setup_s": (host.at_ref(setup, setup_cal), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "neg_wsum_mse_db": (neg_wsum_mse_db(passes[0].text, spec.kind), "dB"),
    }
    notes = {"passes": len(timed),
             "raw_wall_s": statistics.median(p.wall_s for p in timed),
             "raw_cpu_s": statistics.median(p.cpu_s for p in timed),
             "raw_setup_s": statistics.median(setup),
             "calibration_s": statistics.median(cal),
             "pass_wall_s": [round(p.wall_s, 4) for p in timed]}
    if spec.kind == "train":
        notes["final_acc"] = final_acc(passes[0].text, cfg)
    return attempted, failed, metrics, notes


def _differing_rows(text, base):
    a, b = text.splitlines(), base.splitlines()
    return sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))


def traced(name, seed, extra=()):
    """Per-layer figures: (attempted, failed, metrics, notes)."""
    spec = jobs.WORKLOADS[name]
    cfg = jobs.load(name, seed, extra)
    plain = jobs.run_job(cfg, spec.kind)  # warms caches; the byte-identity base
    single = jobs.run_job(cfg, spec.kind)
    paired = jobs.run_job(cfg, spec.kind, threads=2)
    jobs.set_blas_threads(jobs.DEFAULT_BLAS_THREADS)
    try:
        blas_default = jobs.run_job(cfg, spec.kind)
    finally:
        jobs.set_blas_threads(BLAS_THREADS)
    tracer = spans.Tracer(jobs.cfota)
    with tracer:
        traced_text = jobs.execute(cfg, spec.kind)
    after = jobs.run_job(cfg, spec.kind)
    ref_cfg = jobs.load(name, 0, spec.ref_overrides)
    ref_run = jobs.run_job(ref_cfg, spec.kind)
    ref_text = (REF_DIR / f"{name}.csv").read_text(encoding="utf-8")

    attempted = failed = 0
    for text, c in ((plain.text, cfg), (single.text, cfg), (paired.text, cfg),
                    (blas_default.text, cfg), (traced_text, cfg), (after.text, cfg),
                    (ref_run.text, ref_cfg)):
        n, bad = check.count_failed(text, c, spec.kind)
        attempted += n
        failed += bad
    # Thread count and tracing must not change a single byte of the output.
    for text in (single.text, paired.text, traced_text, after.text):
        failed += _differing_rows(text, plain.text)

    metrics = layer_metrics(tracer, cfg, spec.kind, traced_text)
    untraced = (single.wall_s + after.wall_s) / 2  # brackets the traced pass
    metrics["runner.trace_overhead_frac"] = (tracer.wall_s / untraced - 1, "1")
    metrics["runner.thread_speedup"] = (single.wall_s / paired.wall_s, "1")
    metrics["runner.blas_default_speedup"] = (single.wall_s / blas_default.wall_s, "1")
    metrics["runner.ref_max_rel_diff"] = (check.max_rel_diff(ref_run.text, ref_text), "1")
    notes = {"untraced_wall_s": [single.wall_s, after.wall_s],
             "threads2_wall_s": paired.wall_s, "blas_default_wall_s": blas_default.wall_s}
    return attempted, failed, metrics, notes


def _quantile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(math.ceil(q * len(ordered))) - 1)]


def layer_metrics(tr, cfg, kind, text):
    agg = "aggregation"
    solves = tr.solves
    iters = [s[1] for s in solves]
    caps = sum(s[2] == "max_iters" for s in solves)
    solve_ms = [1e3 * s[3] for s in solves]
    level3_solves = sum(s[0] == "level3" for s in solves)
    combiners = tr.matching(agg, lambda n: n.startswith("combiner"))
    mse = tr.matching(agg, lambda n: "mse" in n)
    tco = tr.matching(agg, lambda n: n.startswith("tco_step"))
    errs = [e for arr in tr.round_errors for e in arr]

    def frac(num, den):
        return num / den if den else 0.0

    m = {f"{layer}.self_s": (tr.layer_self_s(layer), "s") for layer in spans.LAYERS}
    m.update({
        "aggregation.solve_level3.self_s": (tr.fn(agg, "alternating_optimize").self_s, "s"),
        "aggregation.solve_level3.total_s": (tr.fn(agg, "alternating_optimize").total_s, "s"),
        "aggregation.solve_cellular.self_s": (tr.fn(agg, "cellular_optimize").self_s, "s"),
        "aggregation.solve_level1.self_s": (tr.fn(agg, "level1_solution").self_s, "s"),
        "aggregation.combiners.calls": (combiners.calls, "count"),
        "aggregation.combiners.self_s": (combiners.self_s, "s"),
        "aggregation.mse.calls": (mse.calls, "count"),
        "aggregation.mse.self_s": (mse.self_s, "s"),
        "aggregation.tco_step.calls": (tco.calls, "count"),
        "aggregation.tco_step.self_s": (tco.self_s, "s"),
        "aggregation.stack_for_cpu.self_s": (tr.fn(agg, "stack_for_cpu").self_s, "s"),
        "aggregation.iters_total": (sum(iters), "count"),
        "aggregation.iters_p50": (statistics.median(iters) if iters else 0.0, "count"),
        "aggregation.iters_max": (max(iters, default=0), "count"),
        "aggregation.cap_hits": (caps, "count"),
        "aggregation.cap_hit_frac": (frac(caps, len(solves)), "1"),
        "aggregation.solve_count": (len(solves), "count"),
        "aggregation.solve_ms_p50": (statistics.median(solve_ms) if solve_ms else 0.0, "ms"),
        "aggregation.solve_ms_p95": (_quantile(solve_ms, 0.95), "ms"),
        "aggregation.unique_solve_frac": (frac(len({(s[0], s[4]) for s in solves}),
                                               len(solves)), "1"),
        "aggregation.builds_per_solve": (frac(tr.level3_builds, level3_solves), "1"),
        "aggregation.error_cov_mb": (tr.error_cov_bytes / 1e6, "MB"),
        "channel.correlation_matrices.self_s": (tr.fn("channel", "correlation_matrices").self_s, "s"),
        "channel.sample_channels.calls": (tr.fn("channel", "sample_channels").calls, "count"),
        "channel.sample_channels.self_s": (tr.fn("channel", "sample_channels").self_s, "s"),
        "estimation.pilot_observation.self_s": (tr.fn("estimation", "pilot_observation").self_s, "s"),
        "estimation.estimate_all.calls": (tr.fn("estimation", "estimate_all").calls, "count"),
        "estimation.estimate_all.self_s": (tr.fn("estimation", "estimate_all").self_s, "s"),
        "fl_engine.local_update.calls": (tr.fn("fl_engine", "local_update").calls, "count"),
        "fl_engine.local_update.self_s": (tr.fn("fl_engine", "local_update").self_s, "s"),
        "fl_engine.gradient.self_s": (tr.fn("fl_engine", "Fnn.gradient").self_s, "s"),
        "fl_engine.ota_round.calls": (tr.fn("fl_engine", "ota_round").calls, "count"),
        "fl_engine.ota_round.self_s": (tr.fn("fl_engine", "ota_round").self_s, "s"),
        "fl_engine.accuracy.self_s": (tr.fn("fl_engine", "Fnn.accuracy").self_s
                                      + tr.fn("fl_engine", "Fnn.forward").self_s, "s"),
        "fl_engine.realized_err_sq_mean": (statistics.fmean(errs) if errs else 0.0, "1"),
        "fl_engine.final_acc": (final_acc(text, cfg) if kind == "train" else 0.0, "1"),
        "topology.build_geometry.self_s": (tr.scoped_self.get(("topology", "build_geometry"), 0.0), "s"),
        "accounting.fronthaul_scalars.calls": (tr.fn("accounting", "fronthaul_scalars").calls, "count"),
        "rng.substream.calls": (tr.fn("rng", "substream").calls, "count"),
        "rng.substream.self_s": (tr.fn("rng", "substream").self_s, "s"),
        "runner.emit_csv.self_s": (tr.fn("runner", "emit_csv").self_s, "s"),
        "runner.csv_bytes": (len(text.encode("utf-8")), "B"),
        "runner.glue_s": (tr.glue_s, "s"),
        "runner.traced_wall_s": (tr.wall_s, "s"),
    })
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    jobs.set_blas_threads(BLAS_THREADS)
    if args.trace:
        attempted, failed, metrics, notes = traced(args.workload, args.seed)
    else:
        attempted, failed, metrics, notes = measure(args.workload, args.seed, args.seconds)
    print("notes: " + json.dumps(notes))
    print("env: " + json.dumps(environment()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
