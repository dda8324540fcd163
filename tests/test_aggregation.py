from dataclasses import replace
from functools import partial
import inspect
import re
import tracemalloc
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from cfota import aggregation as agg
from cfota.rng import substream

import oracles
from oracles import (block_problem, cn_noise, dense_cpu_view, desk_config, draw_instance,
                     mc_mse_level1, mc_mse_level3, mse_level1, mse_level3, recover, row,
                     seed_problem)


def scalar_problem(h_hat=1.0, error_cov=0.0, noise=1.0, gamma_nu=1.0):
    """Single device, single group, one scalar antenna."""
    weights = agg.AggregationWeights(
        gamma=np.array([1.0]), omega=np.array([1.0]), nu=np.array([gamma_nu]))
    return agg.Level3Problem(
        h_hat=np.array([[[h_hat]]], dtype=complex),
        error_cov=np.array([[[[error_cov]]]], dtype=complex),
        group_of_device=np.array([0]), weights=weights, noise_power=noise)


def solver_combiners(problem, b):
    """The solver's combiners (G, D) of one record without a seed axis at
    coefficients b (K,): its start at ``b_init=b``, which runs no
    iteration, so no power limit enters."""
    return agg.optimize_batch(problem, np.ones((1, len(b))), b_init=b, max_iters=0).combiners[0, 0]


def test_mse_level3_zero_combiner_leaves_target():
    inst = draw_instance(0)
    problem = inst["level3"]
    v = np.zeros((problem.n_groups, problem.h_hat[0].size), dtype=complex)
    b = np.ones(len(problem.h_hat), dtype=complex)
    target = np.bincount(problem.group_of_device,
                         (problem.weights.gamma * problem.weights.nu) ** 2)
    assert mse_level3(problem, b, v) == pytest.approx(target)


def test_mse_level3_scalar_hand_value():
    # |0.5*1*1 - 1|^2 + 1 * |0.5|^2 = 0.25 + 0.25
    problem = scalar_problem()
    [mse] = mse_level3(problem, np.array([1.0 + 0j]),
                           np.array([[0.5 + 0j]]))
    assert mse == pytest.approx(0.5)


def test_mse_level3_matches_monte_carlo():
    inst = draw_instance(1)
    problem = inst["level3"]
    b = np.sqrt(inst["power"]).astype(complex)
    combiners = oracles.combiners(problem, b)
    closed = mse_level3(problem, b, combiners)
    for g in range(problem.n_groups):
        mc = mc_mse_level3(problem, b, combiners[g], g, 100_000,
                           substream(1, "mc", g))
        assert mc == pytest.approx(closed[g], rel=0.02)


def test_combiner_level3_zero_coefficients():
    inst = draw_instance(2)
    problem = inst["level3"]
    v = solver_combiners(problem, np.zeros(len(problem.h_hat), complex))[0]
    np.testing.assert_allclose(v, 0.0)


def test_combiner_level3_scalar_hand_value():
    # (|b|^2 (h h^H + C) + noise)^{-1} gamma b nu h = (1 + 1)^{-1} * 1
    problem = scalar_problem()
    v = solver_combiners(problem, np.array([1.0 + 0j]))[0]
    assert v[0] == pytest.approx(0.5)


def test_combiner_level3_is_minimizer():
    # random perturbations (relative scale) never decrease the group MSE
    inst = draw_instance(3)
    problem = inst["level3"]
    b = np.sqrt(inst["power"]).astype(complex)
    rng = substream(3, "perturb")
    v_opt = solver_combiners(problem, b)
    base = mse_level3(problem, b, v_opt)
    for g in range(problem.n_groups):
        scale = np.linalg.norm(v_opt[g])
        for eps in (1e-3, 1e-2):
            for _ in range(100):
                direction = rng.standard_normal(v_opt.shape[1]) \
                    + 1j * rng.standard_normal(v_opt.shape[1])
                direction /= np.linalg.norm(direction)
                perturbed = v_opt.copy()
                perturbed[g] += eps * scale * direction
                assert mse_level3(problem, b, perturbed)[g] >= base[g] * (1.0 - 1e-12)


def test_tco_step_interior_hand_values():
    # v = 1, h_hat = 1, C = 0: denominator 1, large P -> mu = 0, b = 1
    problem, power = scalar_problem(), np.array([100.0])
    v = np.array([[1.0 + 0j]])
    [b], [mu] = agg.tco_step(problem, power, v)
    assert mu == 0.0
    assert b == pytest.approx(1.0)
    # adding v^H C v = 1 doubles the denominator
    problem2 = scalar_problem(error_cov=1.0)
    [b2], [mu2] = agg.tco_step(problem2, power, v)
    assert mu2 == 0.0
    assert b2 == pytest.approx(0.5)


def test_tco_step_boundary_clamps_to_power():
    # unconstrained solution 10 exceeds sqrt(P) = 1 -> mu > 0, |b| = sqrt(P)
    problem = scalar_problem(gamma_nu=10.0)
    v = np.array([[1.0 + 0j]])
    [b], [mu] = agg.tco_step(problem, np.array([1.0]), v)
    assert mu > 0
    assert abs(b) == pytest.approx(1.0, rel=1e-12)
    assert mu * (abs(b) ** 2 - 1.0) == pytest.approx(0.0, abs=1e-8)


def test_tco_step_zero_denominator():
    problem = scalar_problem(h_hat=0.0, error_cov=0.0)
    [b], [mu] = agg.tco_step(problem, np.array([100.0]), np.array([[1.0 + 0j]]))
    assert b == 0.0 and mu == 0.0


def test_zero_spread_device_gets_zero_coefficient():
    # nu_k = 0: the device's share rides entirely on the mean offset, so
    # the solver hands it a zero coefficient and drops it from the target
    inst = draw_instance(18)
    problem = inst["level3"]
    w = problem.weights
    nu = w.nu.copy()
    nu[2] = 0.0
    problem = agg.Level3Problem(
        h_hat=problem.h_hat, error_cov=problem.error_cov,
        group_of_device=problem.group_of_device,
        weights=agg.AggregationWeights(w.gamma, w.omega, nu),
        noise_power=problem.noise_power)
    sol = row(agg.optimize_batch(problem, inst["power"][None], max_iters=50))
    assert sol.b[2] == 0.0
    assert np.all(np.diff(sol.values) <= 1e-12)


def test_kkt_conditions_on_random_instances():
    for seed in range(5):
        inst = draw_instance(10 + seed)
        problem = inst["level3"]
        sol = row(agg.optimize_batch(problem, inst["power"][None]))
        w = problem.weights
        h_hat, error_cov = dense_cpu_view(problem)
        for k in range(len(problem.h_hat)):
            p_k = inst["power"][k]
            assert abs(sol.b[k]) ** 2 <= p_k * (1.0 + 1e-12)
            assert abs(sol.mu[k] * (abs(sol.b[k]) ** 2 - p_k)) < 1e-8
            if sol.mu[k] == 0.0:
                # interior solution must match the stationarity formula
                g = problem.group_of_device[k]
                proj = sol.combiners.conj() @ h_hat[k]
                quad = np.einsum("pi,ij,pj->p", sol.combiners.conj(),
                                 error_cov[k], sol.combiners).real
                denom = float(np.dot(w.omega, np.abs(proj) ** 2 + quad))
                expected = (w.omega[g] * w.gamma[k] * w.nu[k]
                            * proj[g].conjugate() / denom)
                assert abs(sol.b[k] - expected) <= 1e-10 * max(abs(expected), 1e-30)


def fast_family_config():
    """Clustered drops at low power: every desk instance reaches the
    termination threshold well inside the iteration cap (higher power
    budgets leave interior coefficients crawling past it)."""
    return desk_config(distribution_mode=1, p_max_dbm=-20.0)


def test_alternating_histories_non_increasing_and_terminate():
    cfg = fast_family_config()
    for seed in range(10):
        inst = draw_instance(30 + seed, cfg=cfg)
        sol = row(agg.optimize_batch(inst["level3"], inst["power"][None]))
        values = sol.values
        assert np.all(np.diff(values) <= 1e-12)
        assert sol.terminated_by == "threshold"
        assert sol.iterations <= 500
        # optimized coefficients never lose to the full-power start
        assert values[-1] <= values[0] + 1e-15


def test_histories_monotone_at_default_power():
    # at 20 dBm termination may take longer than the cap, but descent
    # must stay monotone
    for seed in range(5):
        inst = draw_instance(300 + seed)
        sol = row(agg.optimize_batch(inst["level3"], inst["power"][None], max_iters=100))
        assert np.all(np.diff(sol.values) <= 1e-12)


def test_alternating_fixed_point_single_iteration():
    inst = draw_instance(4, cfg=fast_family_config())
    problem, power = inst["level3"], inst["power"]
    warm = row(agg.optimize_batch(problem, power[None], eps=1e-16, max_iters=5000))
    again = row(agg.optimize_batch(problem, power[None], b_init=warm.b))
    assert again.iterations == 1
    assert again.terminated_by == "threshold"
    assert again.values[0] - again.values[-1] < 1e-10


def test_combiner_level1_single_ap_equals_level3():
    cfg = desk_config(n_aps=1, tau_p=3)
    inst = draw_instance(5, cfg=cfg)
    problem = inst["level3"]
    b, v1, _ = (a[0, 0] for a in level1_on_estimates(problem, inst["power"][None]))
    v3 = solver_combiners(problem, b)
    for g in range(problem.n_groups):
        np.testing.assert_allclose(v1[g, 0], v3[g], rtol=1e-10)


def test_combiner_level1_zero_coefficients_and_scalar_value():
    # level 1 runs at full power: devices whose parameters do not spread
    # (nu = 0) send a zero target, which leaves every local combiner zero
    inst = draw_instance(6)
    problem = inst["level3"]
    w = problem.weights
    silent = replace(problem, weights=replace(w, nu=np.zeros_like(w.nu)))
    v = level1_on_estimates(silent, inst["power"][None])[1][0, 0]
    np.testing.assert_allclose(v, 0.0)

    weights = agg.AggregationWeights(gamma=np.array([1.0]),
                                     omega=np.array([1.0]),
                                     nu=np.array([1.0]))
    scalar = agg.Level3Problem(
        h_hat=np.ones((1, 1, 1), dtype=complex),
        error_cov=np.zeros((1, 1, 1, 1), dtype=complex),
        group_of_device=np.array([0]), weights=weights, noise_power=1.0)
    v = level1_on_estimates(scalar, np.ones((1, 1)))[1][0, 0, 0, 0]
    assert v[0] == pytest.approx(0.5)


def test_mse_level1_zero_coefficients():
    # level 1 always runs at full power, so the oracle alone scores b = 0
    inst = draw_instance(7)
    problem = inst["level3"]
    v = agg.level1_batch(problem, inst["power"][None], inst["state"].ap.h)[1][0, 0]
    b0 = np.zeros(len(problem.h_hat), dtype=complex)
    n_aps = problem.h_hat.shape[1]
    target = np.bincount(problem.group_of_device,
                         (problem.weights.gamma * problem.weights.nu) ** 2)
    z_term = problem.noise_power * (np.abs(v) ** 2).sum(axis=(1, 2)) / n_aps**2
    assert mse_level1(problem, b0, v, inst["state"].ap.h) == pytest.approx(target + z_term)


def test_mse_level1_matches_the_formula_oracle():
    # the batch arithmetic against the per-group formula, on the true
    # channels and on the estimates: both add the same few dozen terms in
    # other orders, so they agree to rounding
    for seed in range(5):
        inst = draw_instance(40 + seed)
        problem = inst["level3"]
        for channels in (inst["state"].ap.h, problem.h_hat):
            b, v, mses = (a[0, 0] for a in
                          agg.level1_batch(problem, inst["power"][None], channels))
            np.testing.assert_allclose(mses, mse_level1(problem, b, v, channels),
                                       rtol=1e-12, atol=0.0)


def test_mse_level1_single_ap_conditional_form():
    # with one AP the averaged recovery reduces to the centralized formula
    # evaluated on the combined true channels with no error-inflation term
    cfg = desk_config(n_aps=1, tau_p=3)
    inst = draw_instance(8, cfg=cfg)
    problem = inst["level3"]
    h_true = inst["state"].ap.h
    b, v, got = (a[0, 0] for a in agg.level1_batch(problem, inst["power"][None], h_true))
    for g in range(problem.n_groups):
        own = problem.group_of_device == g
        target = np.where(own, problem.weights.gamma * problem.weights.nu, 0.0)
        gains = h_true[:, 0] @ v[g, 0].conj()
        expected = float((np.abs(gains * b - target) ** 2).sum()
                         + problem.noise_power * np.linalg.norm(v[g, 0]) ** 2)
        assert got[g] == pytest.approx(expected, rel=1e-12)


def test_mse_level1_matches_monte_carlo():
    inst = draw_instance(9)
    problem = inst["level3"]
    h_true = inst["state"].ap.h
    b, v, closed = (a[0, 0] for a in agg.level1_batch(problem, inst["power"][None], h_true))
    for g in range(problem.n_groups):
        mc = mc_mse_level1(problem, b, v, h_true, g, 100_000,
                           substream(9, "mc1", g))
        assert mc == pytest.approx(closed[g], rel=0.02)


def test_recover_level2_equals_level3():
    inst = draw_instance(12)
    problem = inst["level3"]
    cfg = inst["cfg"]
    sol = row(agg.optimize_batch(problem, inst["power"][None]))
    rng = substream(12, "slots")
    n_aps, n_ant = cfg.n_aps, cfg.n_ap_antennas
    signals = cn_noise((n_aps, n_ant, 16), 1e-9, rng) \
        + np.einsum("kln,kd->lnd", inst["state"].ap.h,
                    (sol.b[:, None] * rng.standard_normal((cfg.n_devices, 16))))
    for g in range(problem.n_groups):
        r3 = recover("level3", signals, sol.combiners[g], problem.weights,
                     inst["theta_bar"], problem.group_of_device, g)
        r2 = recover("level2", signals, sol.combiners[g], problem.weights,
                     inst["theta_bar"], problem.group_of_device, g)
        np.testing.assert_allclose(r2, r3, rtol=1e-10, atol=1e-18)


def test_recover_level1_averages_local_combines():
    inst = draw_instance(17)
    problem = inst["level3"]
    cfg = inst["cfg"]
    v = agg.level1_batch(problem, inst["power"][None], problem.h_hat)[1][0, 0]
    rng = substream(17, "slots")
    signals = (rng.standard_normal((cfg.n_aps, cfg.n_ap_antennas, 8))
               + 1j * rng.standard_normal((cfg.n_aps, cfg.n_ap_antennas, 8)))
    w, theta_bar = problem.weights, inst["theta_bar"]
    for g in range(problem.n_groups):
        got = recover("level1", signals, v[g], w, theta_bar, problem.group_of_device, g)
        per_ap = np.stack([
            np.einsum("n,nd->d", v[g, ap].conj(), signals[ap])
            for ap in range(cfg.n_aps)])
        own = problem.group_of_device == g
        expected = per_ap.mean(axis=0).real + float(
            np.dot(w.gamma[own], theta_bar[own]))
        np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_recover_zero_signals_returns_offset():
    inst = draw_instance(13)
    problem = inst["level3"]
    cfg = inst["cfg"]
    v = np.ones(cfg.n_aps * cfg.n_ap_antennas, dtype=complex)
    signals = np.zeros((cfg.n_aps, cfg.n_ap_antennas))
    w, theta_bar = problem.weights, inst["theta_bar"]
    for g in range(problem.n_groups):
        own = problem.group_of_device == g
        offset = float(np.dot(w.gamma[own], theta_bar[own]))
        got = recover("level3", signals, v, w, theta_bar, problem.group_of_device, g)
        assert got == pytest.approx(offset)


def test_recover_noiseless_single_device_inverts():
    # perfect CSI, vanishing noise: the combiner inverts the channel so the
    # recovered value approaches gamma*nu*s + gamma*theta_bar
    h = np.array([[0.8 - 0.3j, 0.1 + 0.5j]])      # one device, 1 AP, 2 antennas
    weights = agg.AggregationWeights(gamma=np.array([1.0]),
                                     omega=np.array([1.0]),
                                     nu=np.array([0.7]))
    problem = agg.Level3Problem(
        h_hat=h.reshape(1, 1, 2), error_cov=np.zeros((1, 1, 2, 2), dtype=complex),
        group_of_device=np.array([0]), weights=weights, noise_power=1e-10)
    b = np.array([2.0 + 0j])
    v = solver_combiners(problem, b)[0]
    s = 1.3
    signals = (h[0] * b[0] * s).reshape(1, 2)
    got = recover("level3", signals, v, weights, np.array([0.2]), np.array([0]), 0)
    assert got == pytest.approx(0.7 * s + 0.2, abs=1e-8)


def test_cellular_single_group_colocated_equals_level3():
    inst = draw_instance(14)
    problem3 = inst["level3"]
    weights = agg.AggregationWeights(
        gamma=problem3.weights.gamma, omega=np.array([1.0]), nu=problem3.weights.nu)
    merged = agg.Level3Problem(
        h_hat=problem3.h_hat, error_cov=problem3.error_cov,
        group_of_device=np.zeros(len(problem3.h_hat), dtype=int),
        weights=weights, noise_power=problem3.noise_power)
    h_hat, error_cov = dense_cpu_view(problem3)
    colocated = replace(merged, h_hat=h_hat[:, None], error_cov=error_cov[:, None],
                        cellular=True)
    sol3 = row(agg.optimize_batch(merged, inst["power"][None]))
    solc = row(agg.optimize_batch(colocated, inst["power"][None]))
    np.testing.assert_allclose(solc.b, sol3.b, rtol=1e-9)
    np.testing.assert_allclose(solc.combiners[0], sol3.combiners[0], rtol=1e-9)
    np.testing.assert_allclose(solc.values, sol3.values,
                               rtol=1e-9)


def test_cellular_histories_non_increasing_and_terminate():
    cfg = fast_family_config()
    for seed in range(5):
        inst = draw_instance(40 + seed, cfg=cfg)
        sol = row(agg.optimize_batch(inst["cellular"], inst["power"][None]))
        assert np.all(np.diff(sol.values) <= 1e-12)
        assert sol.terminated_by == "threshold"
        assert sol.iterations <= 500


def test_cellular_mse_matches_monte_carlo():
    inst = draw_instance(15)
    problem = inst["cellular"]
    sol = row(agg.optimize_batch(problem, inst["power"][None]))
    closed = mse_level3(problem, sol.b, sol.combiners)
    for g in range(problem.n_groups):
        mc = mc_mse_level3(problem, sol.b, sol.combiners[g], g, 100_000,
                           substream(15, "mcc", g))
        assert mc == pytest.approx(closed[g], rel=0.02)


def test_level3_beats_level1_weighted_sum():
    for seed in range(10):
        inst = draw_instance(60 + seed)
        sol3 = row(agg.optimize_batch(inst["level3"], inst["power"][None]))
        mses1 = agg.level1_batch(inst["level3"], inst["power"][None],
                                 inst["state"].ap.h)[2][0, 0]
        assert sol3.values[-1] <= inst["level3"].weights.omega @ mses1


# ---------------------------------------------------------------------------
# Batched lockstep solver: properties on small random instances
# ---------------------------------------------------------------------------

def random_problem(seed, cellular, n_groups, per_group, dim, n_aps=1):
    """Random estimates, PSD error covariances and weights: n_aps blocks of
    dim antennas, or, ``cellular``, one serving BS per group."""
    rng = np.random.default_rng(seed)
    n_dev = n_groups * per_group
    lead = (n_dev, n_groups if cellular else n_aps)

    def cn(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)

    root = cn(*lead, dim, dim) * rng.uniform(0.05, 0.5)
    weights = agg.AggregationWeights(
        gamma=np.full(n_dev, 1.0 / per_group),
        omega=rng.uniform(0.5, 2.0, n_groups),
        nu=rng.uniform(0.5, 1.5, n_dev))
    return agg.Level3Problem(h_hat=cn(*lead, dim),
                             error_cov=root @ root.conj().swapaxes(-1, -2),
                             group_of_device=np.arange(n_dev) % n_groups, weights=weights,
                             noise_power=10.0 ** rng.uniform(-2.0, 0.0), cellular=cellular)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), cellular=st.booleans(),
       n_groups=st.integers(1, 3), per_group=st.integers(1, 3),
       dim=st.integers(1, 4), n_aps=st.integers(1, 4),
       power_db=st.lists(st.floats(-30.0, 20.0), min_size=1, max_size=5))
def test_lockstep_batch_properties(seed, cellular, n_groups, per_group, dim,
                                   n_aps, power_db):
    # Low powers stop in a few iterations and high ones run to the cap, so
    # the batch shrinks while the rest keep iterating.
    problem = random_problem(seed, cellular, n_groups, per_group, dim, n_aps)
    n_dev = len(problem.group_of_device)
    powers = 10.0 ** (np.asarray(power_db)[:, None] / 10.0) * np.ones(n_dev)
    batch = agg.optimize_batch(problem, powers, max_iters=40)
    assert batch.b.shape == (1, len(powers), n_dev)
    for i, power in enumerate(powers):
        sol = row(batch, 0, i)
        one = row(agg.optimize_batch(problem, power[None], max_iters=40))
        assert sol.iterations == one.iterations
        assert sol.terminated_by == one.terminated_by
        np.testing.assert_allclose(sol.values, one.values,
                                   rtol=1e-12, atol=0.0)
        values = sol.values
        assert np.all(np.diff(values) <= 1e-12 * values[0])
        np.testing.assert_allclose(sol.group_values @ problem.weights.omega,
                                   values, rtol=1e-12)
        assert np.all(np.isfinite(sol.b)) and np.all(np.isfinite(sol.combiners))
        assert np.all(np.abs(sol.b) ** 2 <= power * (1.0 + 1e-12))
        boundary = np.isclose(np.abs(sol.b) ** 2, power, rtol=1e-9)
        assert np.all(sol.mu >= 0.0)
        assert np.all(boundary[sol.mu > 0.0])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), cellular=st.booleans(),
       n_groups=st.integers(1, 3), per_group=st.integers(1, 3),
       dim=st.integers(1, 4), n_aps=st.integers(1, 4),
       power_db=st.floats(-30.0, 20.0))
def test_tco_step_matches_vectorized_step(seed, cellular, n_groups, per_group,
                                          dim, n_aps, power_db):
    # One coefficient step of the solver, from full power, and tco_step at
    # the combiners it read, against the formula.  Near the boundary mu_k is
    # the difference of two nearly equal terms, whose size is d_k + mu_k.
    problem = random_problem(seed, cellular, n_groups, per_group, dim, n_aps)
    power = np.ones(len(problem.group_of_device)) * 10.0 ** (power_db / 10.0)
    step = agg.optimize_batch(problem, power[None], eps=-np.inf, max_iters=1)
    combiners = step.combiners[0, 0]
    want_b, want_mu, denom = oracles.tco(problem, power, combiners)
    for b, mu in ((step.b[0, 0], step.mu[0, 0]), agg.tco_step(problem, power, combiners)):
        assert np.linalg.norm(b - want_b) <= 1e-9 * np.linalg.norm(want_b)
        assert np.all(np.abs(mu - want_mu) <= 1e-9 * (denom + want_mu))


@pytest.mark.parametrize("kind", ["level3", "cellular"])
def test_solved_rows_hold_the_coefficient_step_at_their_combiners(kind):
    # A solve ends on a coefficient step, so each row's recorded b and mu
    # are tco_step's at its recorded combiners, whether the row stopped by
    # the threshold or at the cap; in the cellular view, seed 1's rows all
    # stop long before the cap, and it leaves the rectangle while seed 0
    # runs on.
    insts = [draw_instance(seed) for seed in (0, 50)]
    block = block_problem([inst[kind] for inst in insts])
    powers = np.outer([1.0, 1e-3, 1e-6], insts[0]["power"])
    sol = agg.optimize_batch(block, powers, max_iters=200)
    assert set(sol.terminated_by.ravel()) == {"threshold", "max_iters"}
    for s in range(2):
        for i, power in enumerate(powers):
            problem = seed_problem(block, s)
            b, mu = agg.tco_step(problem, power, sol.combiners[s, i])
            _, _, denom = oracles.tco(problem, power, sol.combiners[s, i])
            assert np.linalg.norm(b - sol.b[s, i]) <= 1e-9 * np.linalg.norm(sol.b[s, i])
            assert np.all(np.abs(mu - sol.mu[s, i]) <= 1e-9 * (denom + sol.mu[s, i]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_groups=st.integers(1, 3),
       per_group=st.integers(1, 3), dim=st.integers(1, 4),
       power_db=st.lists(st.floats(-30.0, 40.0), min_size=9, max_size=9),
       log_noise=st.floats(-12.0, 0.0))
def test_cellular_group_equals_one_bs_level3_view(seed, n_groups, per_group, dim,
                                                  power_db, log_noise):
    # group g of a cellular system is served as a one-BS level-3 system built
    # from its own view: the same combiner and the same conditional MSE.
    # Down to a noise of 1e-12 and up to 40 dB, where p |h|^2 dominates the
    # noise, both meet the formula's combiners.
    problem = replace(random_problem(seed, True, n_groups, per_group, dim),
                      noise_power=10.0 ** log_noise)
    n_dev = len(problem.group_of_device)
    phase = np.exp(2j * np.pi * np.random.default_rng(seed).uniform(size=n_dev))
    b = 10.0 ** (np.asarray(power_db[:n_dev]) / 20.0) * phase
    cellular = solver_combiners(problem, b)
    want = oracles.combiners(problem, b)
    assert np.linalg.norm(cellular - want) <= 1e-10 * np.linalg.norm(want)
    mses = mse_level3(problem, b, cellular)
    for g in range(n_groups):
        one_bs = replace(problem, h_hat=problem.h_hat[:, g:g + 1],
                         error_cov=problem.error_cov[:, g:g + 1], cellular=False)
        v = solver_combiners(one_bs, b)
        assert np.linalg.norm(cellular[g] - v[g]) <= 1e-12 * np.linalg.norm(v[g])
        assert mses[g] == pytest.approx(mse_level3(one_bs, b, v)[g], rel=1e-12, abs=0.0)


symmetry_shapes = dict(
    seed=st.integers(0, 2**32 - 1), n_groups=st.integers(1, 3), per_group=st.integers(1, 3),
    dim=st.integers(1, 4), n_aps=st.integers(2, 4),
    power_db=st.lists(st.floats(-30.0, 20.0), min_size=1, max_size=3))


def assert_rows_close(got, want, axes=-1):
    """Each row, over ``axes``, of ``got`` is within 1e-12 of ``want``'s,
    relative to its norm."""
    err = np.linalg.norm(got - want, axis=axes)
    assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=axes))


def assert_same_solve(got, want, order, b_scale=1.0):
    """Two full-length solves agree to 1e-12 relative: every objective trace
    entry, and each row's coefficients, those of ``want`` taken in ``order``
    and scaled by ``b_scale``."""
    np.testing.assert_allclose(got.values, want.values, rtol=1e-12, atol=0.0)
    assert_rows_close(got.b, b_scale * want.b[..., order])


def assert_same_group_mses(got, want, groups=slice(None)):
    """Every per-group trace entry of two solves agrees to 1e-12 relative,
    those of ``want`` taken in ``groups``."""
    np.testing.assert_allclose(got.group_values, want.group_values[..., groups],
                               rtol=1e-12, atol=0.0)


# The relations below hold to rounding, which a 40-iteration trajectory can
# amplify without bound: of 600 random records of 3 one-device groups, dim 1
# and 2 APs at 9 dB, one leaves a group's MSE 2.4e-12 apart once the groups
# are relabelled.  They run a fixed set of examples, so no run fails on a
# draw that the last one did not make.
symmetric = settings(max_examples=50, deadline=None, derandomize=True, database=None)
# eps = -inf runs every row to the cap, so no stopping test can break a tie.
capped = partial(agg.optimize_batch, eps=-np.inf, max_iters=40)


def symmetry_case(seed, cellular, n_groups, per_group, dim, n_aps, power_db):
    """A random record, its per-device power rows and the generator that
    draws the relabelling."""
    problem = random_problem(seed, cellular, n_groups, per_group, dim, n_aps)
    rng = np.random.default_rng(seed)
    powers = (10.0 ** (np.asarray(power_db)[:, None] / 10.0)
              * rng.uniform(0.5, 2.0, len(problem.group_of_device)))
    return problem, powers, rng


@symmetric
@given(cellular=st.booleans(), **symmetry_shapes)
def test_relabelling_devices_within_groups_relabels_the_solve(cellular, seed, n_groups,
                                                              per_group, dim, n_aps, power_db):
    # devices of one group are interchangeable: their coefficients follow
    # them, and no objective changes
    problem, powers, rng = symmetry_case(seed, cellular, n_groups, per_group, dim, n_aps, power_db)
    perm = np.arange(len(powers[0]))
    for g in range(n_groups):
        own = perm[problem.group_of_device == g]
        perm[own] = rng.permutation(own)
    w = problem.weights
    relabelled = replace(problem, h_hat=problem.h_hat[perm], error_cov=problem.error_cov[perm],
                         weights=replace(w, gamma=w.gamma[perm], nu=w.nu[perm]))
    assert_same_solve(capped(relabelled, powers[:, perm]), capped(problem, powers), perm)


@symmetric
@given(**symmetry_shapes)
def test_relabelling_aps_leaves_the_level3_solve(seed, n_groups, per_group, dim, n_aps,
                                                power_db):
    # the CPU combines every AP jointly, so the order of the APs is no input
    problem, powers, rng = symmetry_case(seed, False, n_groups, per_group, dim, n_aps, power_db)
    aps = rng.permutation(n_aps)
    relabelled = replace(problem, h_hat=problem.h_hat[:, aps], error_cov=problem.error_cov[:, aps])
    assert_same_solve(capped(relabelled, powers), capped(problem, powers), slice(None))


@symmetric
@given(**symmetry_shapes)
def test_relabelling_aps_relabels_the_level1_combiners(seed, n_groups, per_group, dim, n_aps,
                                                       power_db):
    # each AP combines its own signals, so its combiners follow it, and the
    # averaged estimate, scored here on the estimates as channels, stays
    problem, powers, rng = symmetry_case(seed, False, n_groups, per_group, dim, n_aps, power_db)
    aps = rng.permutation(n_aps)
    relabelled = replace(problem, h_hat=problem.h_hat[:, aps], error_cov=problem.error_cov[:, aps])
    (_, got, got_mses), (_, want, want_mses) = (agg.level1_batch(p, powers, p.h_hat)
                                                for p in (relabelled, problem))
    assert_rows_close(got, want[..., aps, :], axes=(-2, -1))
    np.testing.assert_allclose(got_mses, want_mses, rtol=1e-12, atol=0.0)


@symmetric
@given(cellular=st.booleans(), log4_c=st.integers(-5, 5), **symmetry_shapes)
def test_scaling_the_channel_gains_leaves_the_solve(cellular, log4_c, seed, n_groups, per_group,
                                                    dim, n_aps, power_db):
    # channels by c, error blocks and noise by c^2: every SNR stays, so do
    # the coefficients and every MSE, and the combiners shrink by 1/c.  A
    # power of 4 scales every float exactly: at other c the rounding grows
    # over the iterations to 6e-13 on some records, near the tolerance.
    problem, powers, _ = symmetry_case(seed, cellular, n_groups, per_group, dim, n_aps, power_db)
    c = 4.0 ** log4_c
    scaled = replace(problem, h_hat=c * problem.h_hat, error_cov=c**2 * problem.error_cov,
                     noise_power=c**2 * problem.noise_power)
    got, want = capped(scaled, powers), capped(problem, powers)
    assert_same_solve(got, want, slice(None))
    assert_same_group_mses(got, want)
    assert_rows_close(c * got.combiners, want.combiners)


@symmetric
@given(cellular=st.booleans(), log4_c=st.integers(-5, 5), **symmetry_shapes)
def test_scaling_the_power_against_the_channels_scales_b(cellular, log4_c, seed, n_groups,
                                                         per_group, dim, n_aps, power_db):
    # powers by c and channels by 1/sqrt(c): every received power stays, so
    # do the combiners and every MSE, and the coefficients grow by sqrt(c);
    # c is a power of 4, as above
    problem, powers, _ = symmetry_case(seed, cellular, n_groups, per_group, dim, n_aps, power_db)
    c = 4.0 ** log4_c
    scaled = replace(problem, h_hat=problem.h_hat / np.sqrt(c), error_cov=problem.error_cov / c)
    got, want = capped(scaled, c * powers), capped(problem, powers)
    assert_same_solve(got, want, slice(None), b_scale=np.sqrt(c))
    assert_same_group_mses(got, want)
    assert_rows_close(got.combiners, want.combiners)


@symmetric
@given(cellular=st.booleans(), **symmetry_shapes)
def test_relabelling_groups_relabels_their_mses(cellular, seed, n_groups, per_group, dim,
                                                n_aps, power_db):
    # group g becomes group new[g], and its priority and, in the cellular
    # view, its serving BS go with it: the coefficients and the objective
    # stay, and the per-group MSEs follow the groups
    problem, powers, rng = symmetry_case(seed, cellular, n_groups, per_group, dim, n_aps, power_db)
    new = rng.permutation(n_groups)
    old = np.argsort(new)  # new group j is old group old[j]
    h_hat, error_cov = problem.h_hat, problem.error_cov
    if cellular:
        h_hat, error_cov = h_hat[:, old], error_cov[:, old]
    w = problem.weights
    relabelled = replace(problem, h_hat=h_hat, error_cov=error_cov,
                         group_of_device=new[problem.group_of_device],
                         weights=replace(w, omega=w.omega[old]))
    got, want = capped(relabelled, powers), capped(problem, powers)
    assert_same_solve(got, want, slice(None))
    assert_same_group_mses(got, want, old)


def test_lockstep_batch_compacts_mixed_termination():
    # the desk instance's power grid mixes early threshold stops with
    # solves that hit the cap; the batch must reproduce each one exactly
    inst = draw_instance(21)
    for kind in ("level3", "cellular"):
        problem = inst[kind]
        powers = np.outer(10.0 ** np.arange(-6.0, 3.0), np.ones(len(problem.group_of_device)))
        batch = agg.optimize_batch(problem, powers, max_iters=60)
        assert set(batch.terminated_by[0]) == {"threshold", "max_iters"}
        assert len(set(batch.iterations[0])) > 2
        for i, power in enumerate(powers):
            sol = row(batch, 0, i)
            one = row(agg.optimize_batch(problem, power[None], max_iters=60))
            assert sol.iterations == one.iterations
            np.testing.assert_array_equal(sol.values, one.values)
            np.testing.assert_array_equal(sol.b, one.b)
            np.testing.assert_array_equal(sol.combiners, one.combiners)


def varied_problems(seed, cellular, n_groups, per_group, dim, n_aps, n_problems):
    """One seed block's record: seeds of one kind, shape, grouping, random
    device shares gamma, priorities and noise power, each with its own
    estimates, error blocks and nu."""
    problems = [random_problem((seed + i) % 2**32, cellular, n_groups, per_group, dim, n_aps)
                for i in range(n_problems)]
    first = problems[0]
    gamma = np.random.default_rng([seed, 0]).uniform(0.2, 1.0, len(first.group_of_device))
    return block_problem([replace(p, noise_power=first.noise_power, weights=replace(
        p.weights, gamma=gamma, omega=first.weights.omega)) for p in problems])


# A seed block's record and its rows of power limits.
block_shapes = dict(
    seed=st.integers(0, 2**32 - 1), cellular=st.booleans(), n_groups=st.integers(1, 3),
    per_group=st.integers(1, 3), dim=st.integers(1, 4), n_aps=st.integers(1, 4),
    n_problems=st.integers(1, 3), power_db=st.lists(st.floats(-30.0, 20.0), min_size=1,
                                                    max_size=5))


@settings(max_examples=40, deadline=None)
@given(**block_shapes)
def test_seed_batch_rows_equal_single_solves(seed, cellular, n_groups, per_group,
                                             dim, n_aps, n_problems, power_db):
    # Every (seed, power) row of the rectangle, whether it stops early, hits
    # the cap, or keeps being computed after it stopped, equals the single
    # solve of the seed's slice of the record bit for bit.
    block = varied_problems(seed, cellular, n_groups, per_group, dim, n_aps,
                            n_problems)
    n_dev = len(block.group_of_device)
    powers = 10.0 ** (np.asarray(power_db)[:, None] / 10.0) * np.ones(n_dev)
    batch = agg.optimize_batch(block, powers, max_iters=40)
    assert batch.values.shape == (n_problems, len(powers), batch.iterations.max() + 1)
    for s in range(n_problems):
        for i, power in enumerate(powers):
            one = row(agg.optimize_batch(seed_problem(block, s), power[None], max_iters=40))
            assert batch.iterations[s, i] == one.iterations
            assert batch.terminated_by[s, i] == one.terminated_by
            for name in ("b", "combiners", "mu"):
                assert np.array_equal(getattr(batch, name)[s, i], getattr(one, name))
            # each trace equals the one-row solve up to the row's own stop
            # and is NaN after it
            stop = one.iterations + 1
            for name in ("values", "group_values"):
                trace = getattr(batch, name)[s, i]
                assert np.array_equal(trace[:stop], getattr(one, name))
                assert np.isnan(trace[stop:]).all()


def test_seed_batch_holds_error_blocks_once_per_problem():
    # 2 seeds x 40 power rows of a cellular system with 8 BS antennas: one
    # copy of each seed's error blocks per power row would take 80 copies
    block = varied_problems(0, True, 2, 6, 8, 1, 2)
    powers = 10.0 ** np.linspace(-3.0, 1.0, 40)[:, None] * np.ones(12)
    per_row_copies = 2 * 40 * block.error_cov[0].nbytes
    tracemalloc.start()
    try:
        agg.optimize_batch(block, powers, max_iters=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < per_row_copies


def assert_matches_alternation(block, powers, iters):
    """Every (seed, power) row of a solve run to ``iters`` iterations, with
    no stopping test, agrees with the plain alternation of the formula
    oracles: its coefficients and combiners to 1e-9 relative, and each
    entry of its traces to 1e-10."""
    batch = agg.optimize_batch(block, powers, eps=-np.inf, max_iters=iters)
    for s in range(len(block.h_hat)):
        for i, power in enumerate(powers):
            got = row(batch, s, i)
            want = oracles.alternate(seed_problem(block, s), power, iters)
            assert (got.iterations, got.terminated_by) == (iters, "max_iters")
            for name in ("b", "combiners"):
                err = np.linalg.norm(getattr(got, name) - getattr(want, name))
                assert err <= 1e-9 * np.linalg.norm(getattr(want, name))
            for name in ("values", "group_values"):
                np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                           rtol=1e-10, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(silent=st.booleans(), **block_shapes)
def test_solver_matches_plain_alternation(silent, seed, cellular, n_groups, per_group, dim,
                                          n_aps, n_problems, power_db):
    # The joint view has several blocks (Woodbury) when n_aps > 1, the
    # cellular view one block per BS.  A silent device (zero estimate and
    # error) has a zero denominator in every coefficient step.
    block = varied_problems(seed, cellular, n_groups, per_group, dim, n_aps, n_problems)
    if silent:
        h_hat, error_cov = block.h_hat.copy(), block.error_cov.copy()
        h_hat[:, 0], error_cov[:, 0] = 0.0, 0.0
        block = replace(block, h_hat=h_hat, error_cov=error_cov)
    powers = 10.0 ** (np.asarray(power_db)[:, None] / 10.0) * np.ones(len(block.group_of_device))
    assert_matches_alternation(block, powers, 20)


def test_desk_solves_match_plain_alternation():
    # two desk seeds of each kind at full power and far below it, where the
    # coefficients reach their limits at once or crawl in the interior
    insts = [draw_instance(seed) for seed in (21, 24)]
    powers = np.outer([1.0, 1e-4, 1e-8], insts[0]["power"])
    for kind in ("level3", "cellular"):
        assert_matches_alternation(block_problem([inst[kind] for inst in insts]), powers, 60)


@settings(max_examples=40, deadline=None)
@given(**block_shapes)
def test_rows_stop_by_the_rule(seed, cellular, n_groups, per_group, dim, n_aps, n_problems,
                               power_db):
    # A row stops by "threshold" at the first iteration that lowers its
    # objective by less than eps, and by "max_iters" only when none did.
    block = varied_problems(seed, cellular, n_groups, per_group, dim, n_aps, n_problems)
    powers = 10.0 ** (np.asarray(power_db)[:, None] / 10.0) * np.ones(len(block.group_of_device))
    eps = 1e-10
    batch = agg.optimize_batch(block, powers, eps=eps, max_iters=40)
    for s in range(n_problems):
        for i in range(len(powers)):
            sol = row(batch, s, i)
            small = np.flatnonzero(sol.values[:-1] - sol.values[1:] < eps) + 1
            if sol.terminated_by == "threshold":
                assert small.tolist() == [sol.iterations]
            else:
                assert (sol.terminated_by, sol.iterations, small.size) == ("max_iters", 40, 0)


def singular_record(problem):
    """The record with every estimate 1, no estimation error and no noise:
    its combiner systems are finite and exactly singular."""
    return replace(problem, h_hat=np.ones_like(problem.h_hat),
                   error_cov=np.zeros_like(problem.error_cov), noise_power=0.0)


@pytest.mark.parametrize("view", ["joint", "cellular", "level1"])
def test_singular_combiner_system_raises_named_error(view):
    # LAPACK leaves NaN rows for a singular system: the solve must stop with
    # a named error instead of returning them, and warn about nothing
    problem = singular_record(random_problem(3, view == "cellular", 2, 2, 2, n_aps=3))
    powers = np.ones((2, len(problem.group_of_device)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((agg.NonFiniteSolve, np.linalg.LinAlgError)):
            if view == "level1":
                agg.level1_batch(problem, powers, problem.h_hat)
            else:
                agg.optimize_batch(problem, powers)


def level1_on_estimates(problem, power_limits):
    """``level1_batch`` scoring on the record's own estimates."""
    return agg.level1_batch(problem, power_limits, problem.h_hat)


# Level 1 reads the AP-side record per AP, level 3 reads it jointly, and
# the cellular baseline reads the serving-BS record per BS.
SOLVERS = (("level3", level1_on_estimates), ("level3", agg.optimize_batch),
           ("cellular", agg.optimize_batch))


def assert_power_limit_is_named(bad):
    # a bad limit in any row is named at the entry point, before a solve
    # could emit a sqrt warning or a NonFiniteSolve
    inst = draw_instance(22)
    match = re.escape(f"power_limits holds [{bad}], expected finite limits > 0")
    for kind, solve in SOLVERS:
        power = inst["power"].copy()
        power[1] = bad
        for rows in (power[None], np.stack([inst["power"], power])):
            with pytest.raises(ValueError, match=match):
                solve(inst[kind], rows)


def test_infinite_power_limit_raises_named_error():
    assert_power_limit_is_named(np.inf)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
def test_zero_negative_or_nan_power_limit_raises_named_error(bad):
    assert_power_limit_is_named(bad)


def test_nan_estimate_raises_named_error():
    inst = draw_instance(23)
    for kind, solve in SOLVERS:
        problem = inst[kind]
        h_hat = problem.h_hat.copy()
        h_hat[..., 0, 0] = np.nan
        with pytest.raises(agg.NonFiniteSolve):
            solve(replace(problem, h_hat=h_hat), inst["power"][None])


def test_nan_channel_raises_named_error():
    # level 1 scores on the true channels, which the combiners never see
    inst = draw_instance(23)
    h = inst["state"].ap.h.copy()
    h[0, 0, 0] = np.nan
    with pytest.raises(agg.NonFiniteSolve, match="level-1 MSE is not finite"):
        agg.level1_batch(inst["level3"], inst["power"][None], h)


# ---------------------------------------------------------------------------
# Level 1: per-AP views of the combiner core
# ---------------------------------------------------------------------------

def random_ap_problem(seed, n_dev, n_aps, n_ant, n_groups):
    """Random per-AP estimates, PSD error covariances and weights."""
    rng = np.random.default_rng(seed)

    def cn(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)

    root = cn(n_dev, n_aps, n_ant, n_ant) * rng.uniform(0.05, 0.5)
    weights = agg.AggregationWeights(
        gamma=rng.uniform(0.2, 1.0, n_dev), omega=rng.uniform(0.5, 2.0, n_groups),
        nu=rng.uniform(0.5, 1.5, n_dev))
    return agg.Level3Problem(
        h_hat=cn(n_dev, n_aps, n_ant),
        error_cov=root @ root.conj().swapaxes(-1, -2),
        group_of_device=np.arange(n_dev) % n_groups, weights=weights,
        noise_power=10.0 ** rng.uniform(-2.0, 0.0))


level1_shapes = dict(
    seed=st.integers(0, 2**32 - 1), n_dev=st.integers(1, 5),
    n_aps=st.integers(1, 4), n_ant=st.integers(1, 3), n_groups=st.integers(1, 3),
    power_db=st.lists(st.lists(st.floats(-30.0, 20.0), min_size=5, max_size=5),
                      min_size=1, max_size=4))


def power_rows(power_db, n_dev):
    """(B, K) power limits, each device with its own power in every row."""
    return 10.0 ** (np.asarray(power_db)[:, :n_dev] / 10.0)


@settings(max_examples=40, deadline=None)
@given(log_noise=st.floats(-12.0, 0.0), **level1_shapes)
def test_level1_combiners_match_per_ap_reference(log_noise, seed, n_dev, n_aps, n_ant,
                                                 n_groups, power_db):
    # down to a noise of 1e-12, where p |h|^2 dominates the noise
    problem = replace(random_ap_problem(seed, n_dev, n_aps, n_ant, n_groups),
                      noise_power=10.0 ** log_noise)
    powers = power_rows(power_db, n_dev)
    b, combiners, _ = level1_on_estimates(problem, powers)
    for b_row, got in zip(b[0], combiners[0]):
        want = oracles.combiners(problem, b_row, per_ap=True)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@settings(max_examples=40, deadline=None)
@given(**level1_shapes)
def test_level1_batch_equals_single_solutions(seed, n_dev, n_aps, n_ant,
                                              n_groups, power_db):
    problem = random_ap_problem(seed, n_dev, n_aps, n_ant, n_groups)
    powers = power_rows(power_db, n_dev)
    batch = level1_on_estimates(problem, powers)[1][0]
    assert len(batch) == len(powers)
    for power, combiners in zip(powers, batch):
        one = level1_on_estimates(problem, power[None])[1][0, 0]
        assert np.array_equal(combiners, one)


@settings(max_examples=40, deadline=None)
@given(n_problems=st.integers(1, 4), **level1_shapes)
def test_level1_seed_batch_equals_single_solutions(n_problems, seed, n_dev, n_aps,
                                                   n_ant, n_groups, power_db):
    # seeds that share one random gamma and differ in estimates, error
    # blocks and nu: every (seed, power) row's solution and level-1 MSEs on
    # true channels equal those of the one-problem solve of the seed's
    # slice, bit for bit
    def draw(i):
        return random_ap_problem((seed + i) % 2**32, n_dev, n_aps, n_ant, n_groups)

    first = draw(0)
    block = block_problem([first] + [
        replace(other, noise_power=first.noise_power, weights=replace(
            other.weights, gamma=first.weights.gamma, omega=first.weights.omega))
        for other in map(draw, range(1, n_problems))])
    channels = np.stack([draw(-1 - i).h_hat for i in range(n_problems)])
    powers = power_rows(power_db, n_dev)
    batch = agg.level1_batch(block, powers, channels)
    assert batch[2].shape == (n_problems, len(powers), n_groups)
    for s in range(n_problems):
        for i, power in enumerate(powers):
            one = agg.level1_batch(seed_problem(block, s), power[None], channels[s])
            for got, want in zip(batch, one):
                assert np.array_equal(got[s, i], want[0, 0])


# ---------------------------------------------------------------------------
# Level 3 on per-AP error blocks against the dense stacked system
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_dev=st.integers(1, 6),
       n_aps=st.integers(1, 5), n_ant=st.integers(1, 4), n_groups=st.integers(1, 3),
       power_db=st.lists(st.floats(-30.0, 20.0), min_size=6, max_size=6))
def test_block_core_matches_dense_oracles(seed, n_dev, n_aps, n_ant, n_groups, power_db):
    # The combiners at fixed coefficients, their MSEs and a coefficient
    # step at them read the block core's combiner solves and forms.
    problem = random_ap_problem(seed, n_dev, n_aps, n_ant, n_groups)
    phase = np.exp(2j * np.pi * np.random.default_rng(seed).uniform(size=n_dev))
    b = 10.0 ** (np.asarray(power_db[:n_dev]) / 20.0) * phase
    power = np.abs(b) ** 2
    start = agg.optimize_batch(problem, power[None], b_init=b, max_iters=0)
    got, want = start.combiners[0, 0], oracles.combiners(problem, b)
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    np.testing.assert_allclose(start.group_values[0, 0, 0], mse_level3(problem, b, got),
                               rtol=1e-10, atol=0.0)
    want_b, want_mu, denom = oracles.tco(problem, power, got)
    got_b, got_mu = agg.tco_step(problem, power, got)
    assert np.linalg.norm(got_b - want_b) <= 1e-9 * np.linalg.norm(want_b)
    assert np.all(np.abs(got_mu - want_mu) <= 1e-9 * (denom + want_mu))


def test_level3_solve_forms_no_stacked_matrix():
    # 100 APs of 4 antennas: one dense LN x LN matrix is 2.56 MB, far more
    # than the block solve allocates
    problem = random_ap_problem(0, 4, 100, 4, 2)
    powers = np.ones((3, 4))
    tracemalloc.start()
    try:
        agg.optimize_batch(problem, powers, max_iters=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (100 * 4) ** 2 * 16


def test_level3_problem_names_the_stacked_layout():
    problem = draw_instance(24)["level3"]
    h, cov = dense_cpu_view(problem)
    with pytest.raises(ValueError, match=re.escape(
            "Level3Problem.h_hat has shape (6, 8), expected (K, L, N)")):
        replace(problem, h_hat=h, error_cov=cov)
    with pytest.raises(ValueError, match=re.escape(
            "Level3Problem.error_cov has shape (6, 8, 8), expected (6, 4, 2, 2)")):
        replace(problem, error_cov=cov)


def test_level3_problem_names_inconsistent_shapes():
    problem = draw_instance(25)["level3"]
    with pytest.raises(ValueError, match=re.escape(
            "Level3Problem.error_cov has shape (4, 6, 2, 2), expected (6, 4, 2, 2)")):
        replace(problem, error_cov=problem.error_cov.swapaxes(0, 1))
    with pytest.raises(ValueError, match=re.escape(
            "Level3Problem.group_of_device holds [-1, 2], expected group ids in 0..1")):
        replace(problem, group_of_device=np.array([0, 2, 1, -1, 2, 0]))
    w = problem.weights
    for name in ("gamma", "nu"):
        with pytest.raises(ValueError, match=re.escape(
                f"Level3Problem.weights.{name} has shape (5,), expected (6,)")):
            replace(problem, weights=replace(w, **{name: getattr(w, name)[:5]}))
    # a negative or non-finite noise power, and a priority that is not
    # finite and > 0, would solve to a number; a noiseless record is legal
    for noise in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=re.escape(
                f"Level3Problem.noise_power is {noise}, expected finite >= 0")):
            replace(problem, noise_power=noise)
    replace(problem, noise_power=0.0)
    for omega in ([1.0, -1.0], [0.0, 1.0], [1.0, np.nan], [np.inf, 1.0]):
        with pytest.raises(ValueError, match=re.escape(
                f"Level3Problem.weights.omega is {omega}, expected finite priorities > 0")):
            replace(problem, weights=replace(w, omega=np.array(omega)))
    # a seed block's nu carries the estimates' seed axis, and its shares
    # are held once
    block = block_problem([problem, problem])
    w = block.weights
    for name, value, want in (("gamma", np.stack([w.gamma, w.gamma]), (6,)),
                              ("nu", np.ones((3, 6)), (2, 6)), ("nu", w.nu[0], (2, 6))):
        with pytest.raises(ValueError, match=re.escape(
                f"Level3Problem.weights.{name} has shape {value.shape}, expected {want} "
                f"for h_hat of shape (2, 6, 4, 2)")):
            replace(block, weights=replace(w, **{name: value}))
    # the power limits enter with the solve: P >= 1 rows of K, one per power point
    for record, h in ((problem, "(6, 4, 2)"), (block, "(2, 6, 4, 2)")):
        for shape in ((1, 5), (6,), (2, 1, 6), (0, 6)):
            for solve in (agg.optimize_batch, level1_on_estimates):
                with pytest.raises(ValueError, match=re.escape(
                        f"power_limits has shape {shape}, expected (P, 6) "
                        f"for h_hat of shape {h}")):
                    solve(record, np.ones(shape))


def test_cellular_problem_names_inconsistent_shapes():
    # the serving-BS record of a round: 2 BSs of 8 antennas
    cellular = draw_instance(26)["cellular"]
    with pytest.raises(ValueError, match=re.escape(
            "Level3Problem.group_of_device holds [2], expected group ids in 0..1")):
        replace(cellular, group_of_device=np.arange(6) % 3)
    with pytest.raises(ValueError, match=re.escape(
            "Level3Problem.weights.nu has shape (7,), expected (6,)")):
        replace(cellular, weights=replace(cellular.weights, nu=np.ones(7)))
    with pytest.raises(ValueError, match=re.escape(
            "Level3Problem.error_cov has shape (2, 6, 8, 8), expected (6, 2, 8, 8)")):
        replace(cellular, error_cov=cellular.error_cov.swapaxes(0, 1))
    with pytest.raises(ValueError, match=re.escape(
            "Level3Problem.group_of_device has shape (7,), expected (6,)")):
        replace(cellular, group_of_device=np.arange(7) % 2)
    with pytest.raises(ValueError, match=re.escape(
            "Level3Problem.noise_power is -1.0, expected finite >= 0")):
        replace(cellular, noise_power=-1.0)
    with pytest.raises(ValueError, match=re.escape(
            "Level3Problem.weights.omega is [1.0, -1.0], expected finite priorities > 0")):
        replace(cellular, weights=replace(cellular.weights, omega=np.array([1.0, -1.0])))
    block = block_problem([cellular] * 3)
    with pytest.raises(ValueError, match=re.escape(
            "Level3Problem.weights.nu has shape (2, 6), expected (3, 6)")):
        replace(block, weights=replace(block.weights, nu=block.weights.nu[1:]))
    # one BS for two groups is not a serving-BS record, and an AP-side one
    # of one AP is
    with pytest.raises(ValueError, match=re.escape(
            "Level3Problem.h_hat has shape (6, 1, 8), expected one serving BS "
            "per group (2) in the cellular view")):
        replace(cellular, h_hat=cellular.h_hat[:, :1], error_cov=cellular.error_cov[:, :1])
    replace(cellular, h_hat=cellular.h_hat[:, :1], error_cov=cellular.error_cov[:, :1],
            cellular=False)


def test_level1_rejects_a_serving_bs_record():
    inst = draw_instance(0)
    cellular = inst["cellular"]
    with pytest.raises(ValueError, match="level 1 reads an AP-side record, not a serving-BS"):
        agg.level1_batch(cellular, inst["power"][None], cellular.h_hat)


def test_level1_batch_names_channels_of_another_shape():
    # the AP count and the seed axis come from the record, not from the
    # channels: 3 of the 4 APs, or a seed axis the record lacks or has,
    # fail by name instead of scoring a short average
    inst = draw_instance(0)
    problem, power, h = inst["level3"], inst["power"][None], inst["state"].ap.h
    block = block_problem([problem, problem])
    for record, channels, want in ((problem, h[:, :3], "(6, 4, 2)"),
                                   (problem, h[None], "(6, 4, 2)"),
                                   (block, h, "(2, 6, 4, 2)")):
        with pytest.raises(ValueError, match=re.escape(
                f"channels has shape {channels.shape}, expected {want}, the shape of h_hat")):
            agg.level1_batch(record, power, channels)


def test_wrong_length_combiner_raises_named_error():
    # the joint view stacks 4 APs of 2 antennas, and a serving BS has 8
    inst = draw_instance(0)
    match = re.escape("combiners has shape (2, 5), expected (2, 8) for the record's view")
    for problem in (inst["level3"], inst["cellular"]):
        with pytest.raises(ValueError, match=match):
            agg.tco_step(problem, inst["power"], np.ones((2, 5)))


def test_references_read_one_solver_row():
    # a seed block's record, a third group's combiner, a short power row, a
    # power limit that is not finite and > 0, a solved row's combiners with
    # a NaN or infinite entry, a b_init that does not broadcast to the
    # (S, P, K) rows, an iteration cap that is not an int >= 0, and a NaN
    # threshold
    inst = draw_instance(0)
    problem, power = inst["level3"], inst["power"]
    block, v = block_problem([problem, problem]), np.ones((2, 8))
    solved = agg.optimize_batch(problem, power[None], max_iters=5).combiners[0, 0]
    one_entry = np.eye(1, solved.size, 3).reshape(solved.shape) > 0
    for call, match in (
            (lambda: agg.tco_step(block, power, v),
             "problem.h_hat has shape (2, 6, 4, 2), expected (6, 4, 2)"),
            (lambda: agg.tco_step(problem, power, np.ones((3, 8))),
             "combiners has shape (3, 8), expected (2, 8)"),
            (lambda: agg.tco_step(problem, power[:5], v), "power has shape (5,), expected (6,)"),
            *((partial(agg.tco_step, problem, np.r_[power[:5], bad], v),
               f"power is {[*power[:5].tolist(), bad]}, expected finite limits > 0")
              for bad in (-1.0, 0.0, np.nan, np.inf)),
            *((partial(agg.tco_step, problem, power, np.where(one_entry, bad, solved)),
               "combiners hold entries that are not finite, expected finite entries")
              for bad in (np.nan, np.inf)),
            (lambda: agg.optimize_batch(problem, power[None], b_init=np.ones(3)),
             "b_init has shape (3,), expected (S, P, K) = (1, 1, 6)"),
            *((partial(agg.optimize_batch, problem, power[None], max_iters=cap),
               f"max_iters is {cap}, expected an int >= 0") for cap in (-1, -70, 2.5)),
            (lambda: agg.optimize_batch(problem, power[None], eps=np.nan),
             "eps is nan, expected a number")):
        with pytest.raises(ValueError, match=re.escape(match)):
            call()
    # no iteration returns the start
    start = agg.optimize_batch(problem, power[None], max_iters=0)
    assert start.iterations.tolist() == [[0]] and start.values.shape == (1, 1, 1)
    assert np.array_equal(start.b[0, 0], np.sqrt(power).astype(complex))


@pytest.mark.parametrize("kind", ["level3", "cellular"])
def test_mse_level3_of_a_solved_row_is_its_stop_value(kind):
    # the per-group MSEs the solver reports, and the CSV prints, are the
    # formula's at the row's own coefficients and combiners
    for seed in range(5):
        inst = draw_instance(seed)
        problem = inst[kind]
        sol = agg.optimize_batch(problem, inst["power"][None], max_iters=50)
        stop = sol.iterations[0, 0]
        np.testing.assert_allclose(mse_level3(problem, sol.b[0, 0], sol.combiners[0, 0]),
                                   sol.group_values[0, 0, stop], rtol=1e-12, atol=0.0)


def test_no_solver_entry_point_takes_a_view_flag():
    # the record says which receivers it holds, so no call can contradict
    # it, and a reference reads a whole row, so no index can wrap; no
    # test-only helper lives in src
    public = [f for name, f in vars(agg).items()
              if inspect.isfunction(f) and name[0] != "_" and f.__module__ == agg.__name__]
    assert set(public) == {agg.optimize_batch, agg.tco_step, agg.level1_batch}
    assert [f.__name__ for f in public
            if {"cellular", "g", "k"} & set(inspect.signature(f).parameters)] == []
    assert str(inspect.signature(agg.tco_step)) == "(problem, power, combiners)"
    # level 1 solves and scores in one call, from the record and the true
    # channels, so no caller passes its own combiners or projections
    assert str(inspect.signature(agg.level1_batch)) == "(problem, power_limits, channels)"
    assert {"channel_projections", "level1_mses"}.isdisjoint(vars(agg))
