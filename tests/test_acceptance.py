"""Acceptance suite: one test per criterion, printing a PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import numpy as np
import pytest

from cfota import accounting
from cfota import aggregation as agg
from cfota import fl_engine as fl
from cfota import runner
from cfota.rng import substream

from oracles import (dense_cpu_view, desired_global, desk_config,
                     draw_instance, mc_mse_level1, mc_mse_level3,
                     mmse_estimate, recover, shard_fractions,
                     row, total_per_block)

N_SOUNDNESS_INSTANCES = 50


def _report(num, name):
    print(f"\n[ACCEPTANCE] criterion {num} ({name}): PASS")


@pytest.fixture(scope="module")
def soundness_solutions():
    """50 desk instances with both alternating solvers run to termination.

    Clustered drops at P_max = -30 dBm: the family on which the absolute
    1e-10 decrease threshold is reachable inside the 500-iteration cap
    (higher budgets leave interior coefficients crawling past the cap).
    """
    cfg = desk_config(distribution_mode=1, p_max_dbm=-30.0)
    out = []
    for seed in range(N_SOUNDNESS_INSTANCES):
        inst = draw_instance(1000 + seed, cfg=cfg)
        out.append({
            "inst": inst,
            "level3": row(agg.optimize_batch(inst["level3"], inst["power"][None])),
            "cellular": row(agg.optimize_batch(inst["cellular"], inst["power"][None])),
        })
    return out


def test_criterion_1_mse_oracle_equivalence():
    """The closed-form MSEs that the solvers report, and the CSV prints,
    match 1e5-draw Monte Carlo within 2% (20 instances per level: 1, 3,
    cellular)."""
    n_draws = 100_000
    for seed in range(100, 120):
        inst = draw_instance(seed)
        p3, power = inst["level3"], inst["power"]
        for kind, tag in (("level3", "acc1-l3"), ("cellular", "acc1-cell")):
            problem = inst[kind]
            sol = row(agg.optimize_batch(problem, power[None], max_iters=60))
            closed = sol.group_values[-1]
            for g in range(problem.n_groups):
                mc = mc_mse_level3(problem, sol.b, sol.combiners[g], g, n_draws,
                                   substream(seed, tag, g))
                assert abs(mc - closed[g]) <= 0.02 * closed[g]

        h_true = inst["state"].ap.h
        b1, v1, closed = (a[0, 0] for a in agg.level1_batch(p3, power[None], h_true))
        for g in range(p3.n_groups):
            mc = mc_mse_level1(p3, b1, v1, h_true, g, n_draws,
                               substream(seed, "acc1-l1", g))
            assert abs(mc - closed[g]) <= 0.02 * closed[g]
    _report(1, "MSE oracle equivalence")


def test_criterion_2_alternating_soundness(soundness_solutions):
    """Histories are non-increasing (1e-12 slack) and terminate by the
    1e-10 threshold within 500 iterations on all 50 instances."""
    for entry in soundness_solutions:
        for key in ("level3", "cellular"):
            sol = entry[key]
            assert np.all(np.diff(sol.values) <= 1e-12)
            assert sol.terminated_by == "threshold"
            assert sol.iterations <= 500
    _report(2, "alternating-optimization soundness")


def test_criterion_3_level_equivalences_and_ordering(soundness_solutions):
    """Level-2 recovery equals level-3 within 1e-10 relative; level-3
    weighted sum-MSE never exceeds level-1's."""
    n_slots = 16
    for i, entry in enumerate(soundness_solutions):
        inst = entry["inst"]
        sol3 = entry["level3"]
        p3 = inst["level3"]
        rng = substream(4000 + i, "slots")
        symbols = rng.standard_normal((len(sol3.b), n_slots))
        y = np.einsum("kln,kd->lnd", inst["state"].ap.h,
                      sol3.b[:, None] * symbols)
        noise = (rng.standard_normal(y.shape)
                 + 1j * rng.standard_normal(y.shape))
        y = y + np.sqrt(p3.noise_power / 2.0) * noise
        for g in range(p3.n_groups):
            r3 = recover("level3", y, sol3.combiners[g], p3.weights,
                         inst["theta_bar"], p3.group_of_device, g)
            r2 = recover("level2", y, sol3.combiners[g], p3.weights,
                         inst["theta_bar"], p3.group_of_device, g)
            scale = np.maximum(np.abs(r3), 1e-300)
            assert np.max(np.abs(r2 - r3) / scale) <= 1e-10

        mses1 = agg.level1_batch(p3, inst["power"][None], inst["state"].ap.h)[2][0, 0]
        assert sol3.values[-1] <= p3.weights.omega @ mses1
    _report(3, "level equivalences and ordering")


def test_criterion_4_kkt_correctness(soundness_solutions):
    """|b|^2 <= P with complementary slackness within 1e-8; interior
    solutions match the stationarity formula with mu = 0 to 1e-10."""
    for entry in soundness_solutions:
        for key in ("level3", "cellular"):
            inst = entry["inst"]
            problem = inst[key]
            sol = entry[key]
            w = problem.weights
            n_dev = len(sol.b)
            for k in range(n_dev):
                p_k = inst["power"][k]
                assert abs(sol.b[k]) ** 2 <= p_k * (1.0 + 1e-12)
                assert abs(sol.mu[k] * (abs(sol.b[k]) ** 2 - p_k)) <= 1e-8
                if sol.mu[k] > 0.0:
                    continue
                g = int(problem.group_of_device[k])
                # group p's combiner sees all APs, or its own serving BS
                h_hat, error_cov = ((problem.h_hat, problem.error_cov) if problem.cellular
                                    else dense_cpu_view(problem))
                vh = sol.combiners.conj()[:, None]
                proj = (vh @ h_hat[k][..., None])[:, 0, 0]
                quad = (vh @ error_cov[k] @ sol.combiners[..., None])[:, 0, 0].real
                denom = float(np.dot(w.omega, np.abs(proj) ** 2 + quad))
                expected = (w.omega[g] * w.gamma[k] * w.nu[k]
                            * proj[g].conjugate() / denom)
                assert abs(sol.b[k] - expected) <= 1e-10 * max(abs(expected),
                                                               1e-30)
    _report(4, "KKT correctness")


def test_criterion_5_power_sweep_shape():
    """Per-seed level-3 MSE is non-increasing over -10..40 dBm with a
    strictly positive floor under imperfect CSI; with perfect CSI a single
    interference-free device drops by more than 1000x over the sweep."""
    grid = (-10.0, 0.0, 10.0, 20.0, 30.0, 40.0)
    cfg = desk_config(seeds=3, architectures=("level3",), sweep_dbm=grid)
    rows = runner.run_mse_sweep(cfg)
    eps = np.finfo(float).eps
    for seed in range(cfg.seeds):
        vals = [r.wsum_mse for r in rows if r.seed == seed and r.tco == 1]
        assert len(vals) == len(grid)
        assert all(b <= a * (1.0 + 1e-12) for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 10.0 * eps

    # perfect CSI, one device, no interference: noise-limited all the way
    inst = draw_instance(5000)
    h = inst["state"].ap.h[0].reshape(1, 1, -1)
    weights = agg.AggregationWeights(gamma=np.array([1.0]),
                                     omega=np.array([1.0]),
                                     nu=np.array([1.0]))
    mses = {}
    for p_dbm in (-10.0, 40.0):
        power = np.array([runner.dbm_to_watt(p_dbm)])
        problem = agg.Level3Problem(
            h_hat=h, error_cov=np.zeros((1, 1, h.shape[2], h.shape[2]),
                                        dtype=complex),
            group_of_device=np.array([0]), weights=weights,
            noise_power=inst["level3"].noise_power)
        # the solver's start: full power and its combiners there
        mses[p_dbm] = agg.optimize_batch(problem, power[None], max_iters=0).values[0, 0, 0]
    assert mses[40.0] < 1e-3 * mses[-10.0]
    _report(5, "power-sweep shape")


def test_criterion_6_tco_gain(soundness_solutions):
    """Optimized coefficients never lose to full power (G = 2) on any
    instance."""
    for entry in soundness_solutions:
        values = entry["level3"].values
        assert values[-1] <= values[0] * (1.0 + 1e-15)
    _report(6, "transmit-coefficient optimization gain")


def test_criterion_7_convergence_bound_harness():
    """Two-group ridge task with injected fixed-norm aggregation noise:
    the 100-seed average optimality gap obeys the bound at every round;
    with zero errors the per-round contraction never exceeds lam."""
    n_seeds, n_rounds, n_feat = 100, 30, 6
    for group in range(2):
        data_rng = substream(6000, "data", group)
        x = data_rng.standard_normal((90, n_feat))
        truth = data_rng.standard_normal(n_feat)
        y = x @ truth + 0.05 * data_rng.standard_normal(90)
        task = fl.RidgeTask(x, y, ridge=0.15,
                            shards=np.array_split(np.arange(90), 3))
        lam = 1.0 - task.xi / task.chi
        opt = task.optimal_value()
        theta0 = substream(6000, "init", group).standard_normal(n_feat)
        gap0 = task.loss(theta0) - opt
        err_norm2 = 2e-3

        gaps = np.zeros((n_seeds, n_rounds))
        for s in range(n_seeds):
            rng = substream(6000, "noise", group, s)
            theta = theta0.copy()
            for t in range(n_rounds):
                grads = [fl.ridge_gradient(theta, task.features[rows], task.targets[rows],
                                           task.ridge) for rows in task.shards]
                locals_ = [theta - (1.0 / task.chi) * gr for gr in grads]
                desired = desired_global(np.stack(locals_),
                                         shard_fractions(task))
                e = rng.standard_normal(n_feat)
                e *= np.sqrt(err_norm2) / np.linalg.norm(e)
                theta = desired - e
                gaps[s, t] = task.loss(theta) - opt
        bounds = fl.optimality_gap_bound(task.chi, task.xi, gap0,
                                         np.full(n_rounds, err_norm2))
        assert np.all(gaps.mean(axis=0) <= bounds[1:] + 1e-12)

        # zero-error contraction, exact for the quadratic objective
        theta = theta0.copy()
        gap = gap0
        for _ in range(n_rounds):
            grads = [fl.ridge_gradient(theta, task.features[rows], task.targets[rows],
                                       task.ridge) for rows in task.shards]
            locals_ = [theta - (1.0 / task.chi) * gr for gr in grads]
            theta = desired_global(np.stack(locals_),
                                   shard_fractions(task))
            new_gap = task.loss(theta) - opt
            assert new_gap <= lam * gap * (1.0 + 1e-12) + 1e-15
            gap = new_gap
    _report(7, "convergence bound harness")


def test_criterion_8_fl_ordering():
    """Synthetic 10-class training, 2 groups x 3 devices, hidden-20 model,
    50 rounds, 10 seeds: error-free >= level 3 >= level 1 mean final
    accuracy, and level 3 within 5 points of error-free.

    Runs with 16 APs and a quiet receiver: the combining dimension must
    dominate the device count for the aggregation error to stay small
    enough to train through."""
    cfg = desk_config(architectures=("errorfree", "level3", "level1"),
                      rounds=50, seeds=10, task="synthetic", hidden_units=20,
                      n_features=16, n_classes=10, samples_per_device=150,
                      test_samples=500, max_iters=80, learning_rate=1.0,
                      n_aps=16, noise_dbm=-106.0)
    rows = runner.run_fl_training(cfg)
    final = {}
    for row in rows:
        if row.point == cfg.rounds:
            final.setdefault(row.scenario, []).append(
                float(np.mean(row.metric_per_group)))
    mean_acc = {arch: float(np.mean(vals)) for arch, vals in final.items()}
    assert len(final["errorfree"]) == cfg.seeds
    assert mean_acc["errorfree"] >= mean_acc["level3"] >= mean_acc["level1"]
    assert mean_acc["errorfree"] - mean_acc["level3"] <= 0.05
    print(f"\n  final accuracies: {mean_acc}")
    _report(8, "federated-learning ordering")


def test_criterion_9_fronthaul_accounting():
    """Counts match the signaling table exactly in integer arithmetic and
    the level-2/3 preference flips exactly at the 47.5-round break-even."""
    kw = dict(tau_p=10, tau_u=190, n_ant=4, n_aps=16, n_groups=2, n_devices=6)
    three = accounting.fronthaul_scalars(3, **kw)
    assert three.pilot_data_scalars == (10 + 190) * 4 * 16 == 12_800
    assert three.combiner_scalars == 0
    assert three.statistics_scalars == 6 * 16 * 16 // 2 == 768
    two = accounting.fronthaul_scalars(2, **kw)
    assert two.pilot_data_scalars == 10 * 4 * 16 + 190 * 2 * 16 == 6_720
    assert two.combiner_scalars == 2 * 4 * 16 == 128
    assert two.statistics_scalars == 768
    one = accounting.fronthaul_scalars(1, **kw)
    assert one.pilot_data_scalars == 190 * 2 * 16 == 6_080
    assert one.combiner_scalars == 0 and one.statistics_scalars == 0

    assert accounting.cheaper_level(190, 4, 2, 47) is accounting.PreferredLevel.LEVEL2
    assert accounting.cheaper_level(190, 4, 2, 48) is accounting.PreferredLevel.LEVEL3
    # direct comparison agrees on both sides of 47.5
    assert total_per_block(two, 47) < total_per_block(three, 47)
    assert total_per_block(two, 48) > total_per_block(three, 48)
    _report(9, "fronthaul accounting")


def test_criterion_10_estimation_and_gradient_statistics():
    """Estimate + error covariances reconstruct the correlation to 1e-8;
    the empirical estimate covariance matches its covariance within 2%
    over 1e5 draws; the classifier gradient matches finite differences to
    1e-5 on sampled coordinates."""
    inst = draw_instance(7000)
    state = inst["stats"].ap
    scale = np.max(np.abs(state.correlations))
    total = state.estimate_cov + state.error_cov
    assert np.max(np.abs(total - state.correlations)) <= 1e-8 * scale

    # empirical covariance of the estimate over 1e5 pipeline-law draws
    from cfota.channel import psd_root, sample_channels
    cfg = inst["cfg"]
    plan = inst["stats"].ap.plan
    corr = state.correlations
    k, ap = 0, 1
    pilot = plan.pilot_of_device[k]
    sharers = plan.devices_on_pilot(pilot)
    amp = np.sqrt(plan.pilot_power * plan.tau_p)
    n = 100_000
    n_ant = cfg.n_ap_antennas
    cols = [mmse_estimate(np.eye(n_ant, dtype=complex)[j], plan, corr, k, ap,
                          state.noise_power).h_hat
            for j in range(n_ant)]
    a_mat = np.column_stack(cols)
    rng = substream(7000, "draws")
    h = sample_channels(np.broadcast_to(psd_root(corr[sharers, ap]),
                                        (n, len(sharers), n_ant, n_ant)), rng)
    w = rng.standard_normal((n, n_ant)) + 1j * rng.standard_normal((n, n_ant))
    y = np.tensordot(h, amp[sharers], axes=(1, 0)) \
        + np.sqrt(state.noise_power / 2.0) * w
    hats = y @ a_mat.T
    emp = np.einsum("mi,mj->ij", hats, hats.conj()) / n
    expected = state.estimate_cov[k, ap]
    assert (np.linalg.norm(emp - expected)
            <= 0.02 * np.linalg.norm(state.correlations[k, ap]))

    # classifier gradient against central finite differences
    model = fl.Fnn(16, 20, 10)
    rng = substream(7000, "fd")
    theta = model.init_params(rng)
    x = rng.random((40, 16))
    y_onehot = fl.onehot(rng.integers(0, 10, 40), 10)
    grad = model.gradient(theta, x, y_onehot)
    step = 1e-5
    for c in rng.choice(model.n_params, size=10, replace=False):
        up, down = theta.copy(), theta.copy()
        up[c] += step
        down[c] -= step
        fd = (model.loss(up, x, y_onehot)
              - model.loss(down, x, y_onehot)) / (2 * step)
        assert abs(fd - grad[c]) <= 1e-5 * max(abs(grad[c]), abs(fd), 1e-6)
    _report(10, "estimation and gradient statistics")
