from dataclasses import replace
import re
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from cfota import aggregation as agg
from cfota.rng import substream

from oracles import (cn_noise, combiners_level1, combiners_level3, dense_cpu_view,
                     desk_config, draw_instance, mc_mse_cellular, mc_mse_level1,
                     mc_mse_level3, mse_level1, recover, tco_steps,
                     weighted_sum_mse_level1)


def scalar_problem(h_hat=1.0, error_cov=0.0, noise=1.0, gamma_nu=1.0,
                   power=100.0):
    """Single device, single group, one scalar antenna."""
    weights = agg.AggregationWeights(
        gamma=np.array([1.0]), omega=np.array([1.0]),
        nu=np.array([gamma_nu]), theta_bar=np.array([0.0]))
    return agg.Level3Problem(
        h_hat=np.array([[[h_hat]]], dtype=complex),
        error_cov=np.array([[[[error_cov]]]], dtype=complex),
        group_of_device=np.array([0]), weights=weights,
        noise_power=noise, power_limit=np.array([power]))


def test_mse_level3_zero_combiner_leaves_target():
    inst = draw_instance(0)
    problem = inst["level3"]
    v = np.zeros(problem.h_hat[0].size, dtype=complex)
    b = np.ones(len(problem.h_hat), dtype=complex)
    for g in range(problem.n_groups):
        own = problem.group_of_device == g
        expected = float((problem.weights.gamma[own] ** 2
                          * problem.weights.nu[own] ** 2).sum())
        assert agg.mse_level3(problem, b, v, g) == pytest.approx(expected)


def test_mse_level3_scalar_hand_value():
    # |0.5*1*1 - 1|^2 + 1 * |0.5|^2 = 0.25 + 0.25
    problem = scalar_problem()
    mse = agg.mse_level3(problem, np.array([1.0 + 0j]),
                         np.array([0.5 + 0j]), 0)
    assert mse == pytest.approx(0.5)


def test_mse_level3_matches_monte_carlo():
    inst = draw_instance(1)
    problem = inst["level3"]
    b = np.sqrt(problem.power_limit).astype(complex)
    combiners = combiners_level3(problem, b)
    for g in range(problem.n_groups):
        closed = agg.mse_level3(problem, b, combiners[g], g)
        mc = mc_mse_level3(problem, b, combiners[g], g, 100_000,
                           substream(1, "mc", g))
        assert mc == pytest.approx(closed, rel=0.02)


def test_combiner_level3_zero_coefficients():
    inst = draw_instance(2)
    problem = inst["level3"]
    v = combiners_level3(problem, np.zeros(len(problem.h_hat), complex))[0]
    np.testing.assert_allclose(v, 0.0)


def test_combiner_level3_scalar_hand_value():
    # (|b|^2 (h h^H + C) + noise)^{-1} gamma b nu h = (1 + 1)^{-1} * 1
    problem = scalar_problem()
    v = combiners_level3(problem, np.array([1.0 + 0j]))[0]
    assert v[0] == pytest.approx(0.5)


def test_combiner_level3_is_minimizer():
    # random perturbations (relative scale) never decrease the group MSE
    inst = draw_instance(3)
    problem = inst["level3"]
    b = np.sqrt(problem.power_limit).astype(complex)
    rng = substream(3, "perturb")
    for g in range(problem.n_groups):
        v_opt = combiners_level3(problem, b)[g]
        base = agg.mse_level3(problem, b, v_opt, g)
        scale = np.linalg.norm(v_opt)
        for eps in (1e-3, 1e-2):
            for _ in range(100):
                direction = rng.standard_normal(len(v_opt)) \
                    + 1j * rng.standard_normal(len(v_opt))
                direction /= np.linalg.norm(direction)
                perturbed = agg.mse_level3(problem, b,
                                           v_opt + eps * scale * direction, g)
                assert perturbed >= base * (1.0 - 1e-12)


def test_tco_step_interior_hand_values():
    # v = 1, h_hat = 1, C = 0: denominator 1, large P -> mu = 0, b = 1
    problem = scalar_problem(power=100.0)
    v = np.array([[1.0 + 0j]])
    b, mu = agg.tco_step(problem, v, 0)
    assert mu == 0.0
    assert b == pytest.approx(1.0)
    # adding v^H C v = 1 doubles the denominator
    problem2 = scalar_problem(error_cov=1.0, power=100.0)
    b2, mu2 = agg.tco_step(problem2, v, 0)
    assert mu2 == 0.0
    assert b2 == pytest.approx(0.5)


def test_tco_step_boundary_clamps_to_power():
    # unconstrained solution 10 exceeds sqrt(P) = 1 -> mu > 0, |b| = sqrt(P)
    problem = scalar_problem(gamma_nu=10.0, power=1.0)
    v = np.array([[1.0 + 0j]])
    b, mu = agg.tco_step(problem, v, 0)
    assert mu > 0
    assert abs(b) == pytest.approx(1.0, rel=1e-12)
    assert mu * (abs(b) ** 2 - 1.0) == pytest.approx(0.0, abs=1e-8)


def test_tco_step_zero_denominator():
    problem = scalar_problem(h_hat=0.0, error_cov=0.0)
    b, mu = agg.tco_step(problem, np.array([[1.0 + 0j]]), 0)
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
        weights=agg.AggregationWeights(w.gamma, w.omega, nu, w.theta_bar),
        noise_power=problem.noise_power, power_limit=problem.power_limit)
    sol = agg.alternating_optimize(problem, max_iters=50)
    assert sol.b[2] == 0.0
    assert np.all(np.diff(sol.history.values) <= 1e-12)


def test_kkt_conditions_on_random_instances():
    for seed in range(5):
        inst = draw_instance(10 + seed)
        problem = inst["level3"]
        sol = agg.alternating_optimize(problem)
        w = problem.weights
        h_hat, error_cov = dense_cpu_view(problem)
        for k in range(len(problem.h_hat)):
            p_k = problem.power_limit[k]
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
        sol = agg.alternating_optimize(inst["level3"])
        values = sol.history.values
        assert np.all(np.diff(values) <= 1e-12)
        assert sol.history.terminated_by == "threshold"
        assert sol.history.iterations <= 500
        # optimized coefficients never lose to the full-power start
        assert values[-1] <= values[0] + 1e-15


def test_histories_monotone_at_default_power():
    # at 20 dBm termination may take longer than the cap, but descent
    # must stay monotone
    for seed in range(5):
        inst = draw_instance(300 + seed)
        sol = agg.alternating_optimize(inst["level3"], max_iters=100)
        assert np.all(np.diff(sol.history.values) <= 1e-12)


def test_alternating_fixed_point_single_iteration():
    inst = draw_instance(4, cfg=fast_family_config())
    problem = inst["level3"]
    warm = agg.alternating_optimize(problem, eps=1e-16, max_iters=5000)
    again = agg.alternating_optimize(problem, b_init=warm.b)
    assert again.history.iterations == 1
    assert again.history.terminated_by == "threshold"
    assert again.history.values[0] - again.history.values[-1] < 1e-10


def test_combiner_level1_single_ap_equals_level3():
    cfg = desk_config(n_aps=1, tau_p=3)
    inst = draw_instance(5, cfg=cfg)
    problem = inst["level3"]
    b = np.sqrt(problem.power_limit).astype(complex)
    for g in range(problem.n_groups):
        v3 = combiners_level3(problem, b)[g]
        v1 = combiners_level1(problem, b)[g, 0]
        np.testing.assert_allclose(v1, v3, rtol=1e-10)


def test_combiner_level1_zero_coefficients_and_scalar_value():
    inst = draw_instance(6)
    problem = inst["level3"]
    v = combiners_level1(problem,
                         np.zeros(len(problem.h_hat), complex))[0, 0]
    np.testing.assert_allclose(v, 0.0)

    weights = agg.AggregationWeights(gamma=np.array([1.0]),
                                     omega=np.array([1.0]),
                                     nu=np.array([1.0]),
                                     theta_bar=np.array([0.0]))
    scalar = agg.Level3Problem(
        h_hat=np.ones((1, 1, 1), dtype=complex),
        error_cov=np.zeros((1, 1, 1, 1), dtype=complex),
        group_of_device=np.array([0]), weights=weights, noise_power=1.0,
        power_limit=np.array([100.0]))
    v = combiners_level1(scalar, np.array([1.0 + 0j]))[0, 0]
    assert v[0] == pytest.approx(0.5)


def test_mse_level1_zero_coefficients():
    inst = draw_instance(7)
    problem = inst["level3"]
    sol = agg.level1_solution(problem)
    b0 = np.zeros(len(problem.h_hat), dtype=complex)
    proj = agg.channel_projections(sol.combiners, inst["state"].ap.h)
    n_aps = problem.h_hat.shape[1]
    for g in range(problem.n_groups):
        own = problem.group_of_device == g
        target = float((problem.weights.gamma[own] ** 2
                        * problem.weights.nu[own] ** 2).sum())
        z_term = problem.noise_power * (np.abs(sol.combiners[g]) ** 2).sum() \
            / n_aps**2
        got = mse_level1(problem, b0, sol.combiners, proj, g)
        assert got == pytest.approx(target + z_term)


def test_mse_level1_single_ap_conditional_form():
    # with one AP the averaged recovery reduces to the centralized formula
    # evaluated on the combined true channels with no error-inflation term
    cfg = desk_config(n_aps=1, tau_p=3)
    inst = draw_instance(8, cfg=cfg)
    problem = inst["level3"]
    sol = agg.level1_solution(problem)
    h_true = inst["state"].ap.h
    proj = agg.channel_projections(sol.combiners, h_true)
    for g in range(problem.n_groups):
        own = problem.group_of_device == g
        target = np.where(own, problem.weights.gamma * problem.weights.nu, 0.0)
        gains = proj[g, :, 0]
        expected = float((np.abs(gains * sol.b - target) ** 2).sum()
                         + problem.noise_power
                         * np.linalg.norm(sol.combiners[g, 0]) ** 2)
        got = mse_level1(problem, sol.b, sol.combiners, proj, g)
        assert got == pytest.approx(expected, rel=1e-12)


def test_mse_level1_matches_monte_carlo():
    inst = draw_instance(9)
    problem = inst["level3"]
    sol = agg.level1_solution(problem)
    h_true = inst["state"].ap.h
    proj = agg.channel_projections(sol.combiners, h_true)
    for g in range(problem.n_groups):
        closed = mse_level1(problem, sol.b, sol.combiners, proj, g)
        mc = mc_mse_level1(problem, sol.b, sol.combiners, h_true, g, 100_000,
                           substream(9, "mc1", g))
        assert mc == pytest.approx(closed, rel=0.02)


def test_recover_level2_equals_level3():
    inst = draw_instance(12)
    problem = inst["level3"]
    cfg = inst["cfg"]
    sol = agg.alternating_optimize(problem)
    rng = substream(12, "slots")
    n_aps, n_ant = cfg.n_aps, cfg.n_ap_antennas
    signals = cn_noise((n_aps, n_ant, 16), 1e-9, rng) \
        + np.einsum("kln,kd->lnd", inst["state"].ap.h,
                    (sol.b[:, None] * rng.standard_normal((cfg.n_devices, 16))))
    for g in range(problem.n_groups):
        r3 = recover("level3", signals, sol.combiners[g], problem.weights,
                     problem.group_of_device, g)
        r2 = recover("level2", signals, sol.combiners[g], problem.weights,
                     problem.group_of_device, g)
        np.testing.assert_allclose(r2, r3, rtol=1e-10, atol=1e-18)


def test_recover_level1_averages_local_combines():
    inst = draw_instance(17)
    problem = inst["level3"]
    cfg = inst["cfg"]
    sol = agg.level1_solution(problem)
    rng = substream(17, "slots")
    signals = (rng.standard_normal((cfg.n_aps, cfg.n_ap_antennas, 8))
               + 1j * rng.standard_normal((cfg.n_aps, cfg.n_ap_antennas, 8)))
    w = problem.weights
    for g in range(problem.n_groups):
        got = recover("level1", signals, sol.combiners[g], w,
                      problem.group_of_device, g)
        per_ap = np.stack([
            np.einsum("n,nd->d", sol.combiners[g, ap].conj(), signals[ap])
            for ap in range(cfg.n_aps)])
        own = problem.group_of_device == g
        expected = per_ap.mean(axis=0).real + float(
            np.dot(w.gamma[own], w.theta_bar[own]))
        np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_recover_zero_signals_returns_offset():
    inst = draw_instance(13)
    problem = inst["level3"]
    cfg = inst["cfg"]
    v = np.ones(cfg.n_aps * cfg.n_ap_antennas, dtype=complex)
    signals = np.zeros((cfg.n_aps, cfg.n_ap_antennas))
    w = problem.weights
    for g in range(problem.n_groups):
        own = problem.group_of_device == g
        offset = float(np.dot(w.gamma[own], w.theta_bar[own]))
        got = recover("level3", signals, v, w, problem.group_of_device, g)
        assert got == pytest.approx(offset)


def test_recover_noiseless_single_device_inverts():
    # perfect CSI, vanishing noise: the combiner inverts the channel so the
    # recovered value approaches gamma*nu*s + gamma*theta_bar
    h = np.array([[0.8 - 0.3j, 0.1 + 0.5j]])      # one device, 1 AP, 2 antennas
    weights = agg.AggregationWeights(gamma=np.array([1.0]),
                                     omega=np.array([1.0]),
                                     nu=np.array([0.7]),
                                     theta_bar=np.array([0.2]))
    problem = agg.Level3Problem(
        h_hat=h.reshape(1, 1, 2), error_cov=np.zeros((1, 1, 2, 2), dtype=complex),
        group_of_device=np.array([0]), weights=weights,
        noise_power=1e-10, power_limit=np.array([4.0]))
    b = np.array([2.0 + 0j])
    v = combiners_level3(problem, b)[0]
    s = 1.3
    signals = (h[0] * b[0] * s).reshape(1, 2)
    got = recover("level3", signals, v, weights, np.array([0]), 0)
    assert got == pytest.approx(0.7 * s + 0.2, abs=1e-8)


def test_cellular_single_group_colocated_equals_level3():
    inst = draw_instance(14)
    problem3 = inst["level3"]
    weights = agg.AggregationWeights(
        gamma=problem3.weights.gamma, omega=np.array([1.0]),
        nu=problem3.weights.nu, theta_bar=problem3.weights.theta_bar)
    merged = agg.Level3Problem(
        h_hat=problem3.h_hat, error_cov=problem3.error_cov,
        group_of_device=np.zeros(len(problem3.h_hat), dtype=int),
        weights=weights, noise_power=problem3.noise_power,
        power_limit=problem3.power_limit)
    h_hat, error_cov = dense_cpu_view(problem3)
    cellular = agg.CellularProblem(
        h_hat=h_hat[None, :, :], error_cov=error_cov[None],
        group_of_device=merged.group_of_device, weights=weights,
        noise_power=problem3.noise_power, power_limit=problem3.power_limit)
    sol3 = agg.alternating_optimize(merged)
    solc = agg.alternating_optimize(cellular)
    np.testing.assert_allclose(solc.b, sol3.b, rtol=1e-9)
    np.testing.assert_allclose(solc.combiners[0], sol3.combiners[0], rtol=1e-9)
    np.testing.assert_allclose(solc.history.values, sol3.history.values,
                               rtol=1e-9)


def test_cellular_histories_non_increasing_and_terminate():
    cfg = fast_family_config()
    for seed in range(5):
        inst = draw_instance(40 + seed, cfg=cfg)
        sol = agg.alternating_optimize(inst["cellular"])
        assert np.all(np.diff(sol.history.values) <= 1e-12)
        assert sol.history.terminated_by == "threshold"
        assert sol.history.iterations <= 500


def test_cellular_mse_matches_monte_carlo():
    inst = draw_instance(15)
    problem = inst["cellular"]
    sol = agg.alternating_optimize(problem)
    for g in range(problem.n_groups):
        closed = agg.mse_level3(problem, sol.b, sol.combiners[g], g)
        mc = mc_mse_cellular(problem, sol.b, sol.combiners[g], g, 100_000,
                             substream(15, "mcc", g))
        assert mc == pytest.approx(closed, rel=0.02)


def test_level3_beats_level1_weighted_sum():
    for seed in range(10):
        inst = draw_instance(60 + seed)
        sol3 = agg.alternating_optimize(inst["level3"])
        sol1 = agg.level1_solution(inst["level3"])
        proj = agg.channel_projections(sol1.combiners, inst["state"].ap.h)
        wsm1 = weighted_sum_mse_level1(inst["level3"], sol1.b, sol1.combiners,
                                       proj)
        assert sol3.history.values[-1] <= wsm1


# ---------------------------------------------------------------------------
# Batched lockstep solver: properties on small random instances
# ---------------------------------------------------------------------------

def random_problem(seed, cellular, n_groups, per_group, dim, n_aps=1):
    """Random estimates, PSD error covariances and weights; views per group
    for the cellular kind, n_aps blocks of dim antennas at level 3."""
    rng = np.random.default_rng(seed)
    n_dev = n_groups * per_group
    lead = (n_groups, n_dev) if cellular else (n_dev, n_aps)

    def cn(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)

    root = cn(*lead, dim, dim) * rng.uniform(0.05, 0.5)
    weights = agg.AggregationWeights(
        gamma=np.full(n_dev, 1.0 / per_group),
        omega=rng.uniform(0.5, 2.0, n_groups),
        nu=rng.uniform(0.5, 1.5, n_dev),
        theta_bar=np.zeros(n_dev))
    kind = agg.CellularProblem if cellular else agg.Level3Problem
    return kind(h_hat=cn(*lead, dim),
                error_cov=root @ root.conj().swapaxes(-1, -2),
                group_of_device=np.arange(n_dev) % n_groups, weights=weights,
                noise_power=10.0 ** rng.uniform(-2.0, 0.0),
                power_limit=np.ones(n_dev))


def single_solve(problem, power, **kwargs):
    return agg.alternating_optimize(replace(problem, power_limit=power), **kwargs)


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
    batch = agg.optimize_batch([problem], powers, max_iters=40)[0]
    assert len(batch) == len(powers)
    for power, sol in zip(powers, batch):
        one = single_solve(problem, power, max_iters=40)
        assert sol.history.iterations == one.history.iterations
        assert sol.history.terminated_by == one.history.terminated_by
        np.testing.assert_allclose(sol.history.values, one.history.values,
                                   rtol=1e-12, atol=0.0)
        values = sol.history.values
        assert np.all(np.diff(values) <= 1e-12 * values[0])
        np.testing.assert_allclose(sol.history.group_values @ problem.weights.omega,
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
    problem = random_problem(seed, cellular, n_groups, per_group, dim, n_aps)
    problem = replace(problem,
                      power_limit=problem.power_limit * 10.0 ** (power_db / 10.0))
    b0 = np.sqrt(problem.power_limit).astype(complex)
    combiners = combiners_level3(problem, b0)
    b, mu = tco_steps(problem, combiners)
    for k in range(len(b)):
        b_k, mu_k = agg.tco_step(problem, combiners, k)
        assert b[k] == pytest.approx(b_k, rel=1e-12, abs=1e-300)
        assert mu[k] == pytest.approx(mu_k, rel=1e-12, abs=1e-300)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_groups=st.integers(1, 3),
       per_group=st.integers(1, 3), dim=st.integers(1, 4),
       power_db=st.lists(st.floats(-30.0, 20.0), min_size=9, max_size=9))
def test_cellular_group_equals_one_bs_level3_view(seed, n_groups, per_group, dim,
                                                  power_db):
    # group g of a cellular system is served as a one-BS level-3 system built
    # from its own view: the same combiner and the same conditional MSE
    problem = random_problem(seed, True, n_groups, per_group, dim)
    n_dev = len(problem.group_of_device)
    phase = np.exp(2j * np.pi * np.random.default_rng(seed).uniform(size=n_dev))
    b = 10.0 ** (np.asarray(power_db[:n_dev]) / 20.0) * phase
    cellular = combiners_level3(problem, b)
    for g in range(n_groups):
        one_bs = agg.Level3Problem(
            h_hat=problem.h_hat[g][:, None], error_cov=problem.error_cov[g][:, None],
            group_of_device=problem.group_of_device, weights=problem.weights,
            noise_power=problem.noise_power, power_limit=problem.power_limit)
        v = combiners_level3(one_bs, b)[g]
        assert np.linalg.norm(cellular[g] - v) <= 1e-12 * np.linalg.norm(v)
        assert agg.mse_level3(problem, b, cellular[g], g) == pytest.approx(
            agg.mse_level3(one_bs, b, v, g), rel=1e-12, abs=0.0)


def test_lockstep_batch_compacts_mixed_termination():
    # the desk instance's power grid mixes early threshold stops with
    # solves that hit the cap; the batch must reproduce each one exactly
    inst = draw_instance(21)
    for kind in ("level3", "cellular"):
        problem = inst[kind]
        powers = np.outer(10.0 ** np.arange(-6.0, 3.0), np.ones(len(problem.power_limit)))
        batch = agg.optimize_batch([problem], powers, max_iters=60)[0]
        ended = {sol.history.terminated_by for sol in batch}
        assert ended == {"threshold", "max_iters"}
        assert len({sol.history.iterations for sol in batch}) > 2
        for power, sol in zip(powers, batch):
            one = single_solve(problem, power, max_iters=60)
            assert sol.history.iterations == one.history.iterations
            np.testing.assert_array_equal(sol.history.values, one.history.values)
            np.testing.assert_array_equal(sol.b, one.b)
            np.testing.assert_array_equal(sol.combiners, one.combiners)


def varied_problems(seed, cellular, n_groups, per_group, dim, n_aps, n_problems):
    """Problems of one kind, shape, grouping, priorities and noise power, each
    with its own estimates, error blocks, nu and gamma."""
    first = random_problem(seed, cellular, n_groups, per_group, dim, n_aps)
    problems = [first]
    for i in range(1, n_problems):
        other = random_problem((seed + i) % 2**32, cellular, n_groups, per_group,
                               dim, n_aps)
        gamma = np.random.default_rng([seed, i]).uniform(0.2, 1.0, len(other.weights.gamma))
        problems.append(replace(other, noise_power=first.noise_power,
                                weights=replace(other.weights, gamma=gamma,
                                                omega=first.weights.omega)))
    return problems


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), cellular=st.booleans(),
       n_groups=st.integers(1, 3), per_group=st.integers(1, 3),
       dim=st.integers(1, 4), n_aps=st.integers(1, 4), n_problems=st.integers(1, 3),
       power_db=st.lists(st.floats(-30.0, 20.0), min_size=1, max_size=5))
def test_seed_batch_rows_equal_single_solves(seed, cellular, n_groups, per_group,
                                             dim, n_aps, n_problems, power_db):
    # Every (problem, power) row of the rectangle, whether it stops early,
    # hits the cap, or keeps being computed after it stopped, equals its own
    # single solve bit for bit.
    problems = varied_problems(seed, cellular, n_groups, per_group, dim, n_aps,
                               n_problems)
    n_dev = len(problems[0].group_of_device)
    powers = 10.0 ** (np.asarray(power_db)[:, None] / 10.0) * np.ones(n_dev)
    batch = agg.optimize_batch(problems, powers, max_iters=40)
    assert len(batch) == len(problems)
    for problem, solutions in zip(problems, batch):
        assert len(solutions) == len(powers)
        for power, sol in zip(powers, solutions):
            one = single_solve(problem, power, max_iters=40)
            assert np.array_equal(sol.b, one.b)
            assert np.array_equal(sol.combiners, one.combiners)
            assert np.array_equal(sol.mu, one.mu)
            assert np.array_equal(sol.history.values, one.history.values)
            assert np.array_equal(sol.history.group_values, one.history.group_values)
            assert sol.history.iterations == one.history.iterations
            assert sol.history.terminated_by == one.history.terminated_by


MISMATCHES = {
    "group_of_device": lambda p: replace(p, group_of_device=p.group_of_device[::-1].copy()),
    "omega": lambda p: replace(p, weights=replace(p.weights, omega=2.0 * p.weights.omega)),
    "noise_power": lambda p: replace(p, noise_power=2.0 * p.noise_power),
    "shape": lambda p: random_problem(7, isinstance(p, agg.CellularProblem), 2, 2, 3),
}


@pytest.mark.parametrize("cellular", [False, True])
@pytest.mark.parametrize("field", sorted(MISMATCHES))
def test_seed_batch_names_the_field_problems_disagree_in(cellular, field):
    problems = varied_problems(5, cellular, 2, 2, 2, 3, 2)
    problems[1] = MISMATCHES[field](problems[1])
    with pytest.raises(ValueError, match=f"problem 1 differs from problem 0 in .*{field}"):
        agg.optimize_batch(problems, np.ones((2, 4)), max_iters=3)


def test_seed_batch_holds_error_blocks_once_per_problem():
    # 2 seeds x 40 power rows of a cellular system with 8 BS antennas: one
    # copy of each seed's error blocks per power row would take 80 copies
    problems = varied_problems(0, True, 2, 6, 8, 1, 2)
    powers = 10.0 ** np.linspace(-3.0, 1.0, 40)[:, None] * np.ones(12)
    per_row_copies = 2 * 40 * problems[0].error_cov.nbytes
    tracemalloc.start()
    try:
        agg.optimize_batch(problems, powers, max_iters=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < per_row_copies


def solve_batch(problem, powers):
    return agg.optimize_batch([problem], powers)[0]


def level1_batch(problem, powers):
    return agg.level1_batch([problem], powers)[0]


# Level 1 reads the AP-side record per AP, level 3 reads it jointly.
SOLVERS = (("level3", agg.level1_solution, level1_batch),
           ("level3", agg.alternating_optimize, solve_batch),
           ("cellular", agg.alternating_optimize, solve_batch))


def test_infinite_power_limit_raises_named_error():
    inst = draw_instance(22)
    for kind, solve, batch in SOLVERS:
        problem = inst[kind]
        power = problem.power_limit.copy()
        power[1] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(agg.NonFiniteSolve):
            solve(replace(problem, power_limit=power))
        with np.errstate(invalid="ignore"), pytest.raises(agg.NonFiniteSolve):
            batch(problem, np.stack([problem.power_limit, power]))


def test_nan_estimate_raises_named_error():
    inst = draw_instance(23)
    for kind, solve, _ in SOLVERS:
        problem = inst[kind]
        h_hat = problem.h_hat.copy()
        h_hat[..., 0, 0] = np.nan
        with pytest.raises(agg.NonFiniteSolve):
            solve(replace(problem, h_hat=h_hat))


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
        nu=rng.uniform(0.5, 1.5, n_dev), theta_bar=np.zeros(n_dev))
    return agg.Level3Problem(
        h_hat=cn(n_dev, n_aps, n_ant),
        error_cov=root @ root.conj().swapaxes(-1, -2),
        group_of_device=np.arange(n_dev) % n_groups, weights=weights,
        noise_power=10.0 ** rng.uniform(-2.0, 0.0), power_limit=np.ones(n_dev))


def per_ap_combiners(problem, b):
    """Each AP's Hermitian MMSE system, factored and solved on its own."""
    n_dev, n_aps, n_ant = problem.h_hat.shape
    w = problem.weights
    p = np.abs(b) ** 2
    out = np.empty((problem.n_groups, n_aps, n_ant), dtype=complex)
    for ap in range(n_aps):
        h = problem.h_hat[:, ap]
        mat = problem.noise_power * np.eye(n_ant, dtype=complex)
        for k in range(n_dev):
            mat += p[k] * (np.outer(h[k], h[k].conj()) + problem.error_cov[k, ap])
        factor = cho_factor(0.5 * (mat + mat.conj().T))
        for g in range(problem.n_groups):
            coef = np.where(problem.group_of_device == g, w.gamma * b * w.nu, 0.0)
            out[g, ap] = cho_solve(factor, h.T @ coef)
    return out


level1_shapes = dict(
    seed=st.integers(0, 2**32 - 1), n_dev=st.integers(1, 5),
    n_aps=st.integers(1, 4), n_ant=st.integers(1, 3), n_groups=st.integers(1, 3),
    power_db=st.lists(st.lists(st.floats(-30.0, 20.0), min_size=5, max_size=5),
                      min_size=1, max_size=4))


def power_rows(power_db, n_dev):
    """(B, K) power limits, each device with its own power in every row."""
    return 10.0 ** (np.asarray(power_db)[:, :n_dev] / 10.0)


@settings(max_examples=40, deadline=None)
@given(**level1_shapes)
def test_level1_combiners_match_per_ap_reference(seed, n_dev, n_aps, n_ant,
                                                 n_groups, power_db):
    problem = random_ap_problem(seed, n_dev, n_aps, n_ant, n_groups)
    phase = np.exp(2j * np.pi * np.random.default_rng(seed).uniform(size=n_dev))
    for power in power_rows(power_db, n_dev):
        b = np.sqrt(power) * phase
        got = combiners_level1(problem, b)
        want = per_ap_combiners(problem, b)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@settings(max_examples=40, deadline=None)
@given(**level1_shapes)
def test_level1_batch_equals_single_solutions(seed, n_dev, n_aps, n_ant,
                                              n_groups, power_db):
    problem = random_ap_problem(seed, n_dev, n_aps, n_ant, n_groups)
    powers = power_rows(power_db, n_dev)
    batch = agg.level1_batch([problem], powers)[0]
    assert len(batch) == len(powers)
    for power, sol in zip(powers, batch):
        one = agg.level1_solution(replace(problem, power_limit=power))
        assert np.array_equal(sol.b, one.b)
        assert np.array_equal(sol.combiners, one.combiners)
        assert np.array_equal(sol.mu, one.mu)
        assert sol.history.iterations == 0


@settings(max_examples=40, deadline=None)
@given(n_problems=st.integers(1, 4), **level1_shapes)
def test_level1_seed_batch_equals_single_solutions(n_problems, seed, n_dev, n_aps,
                                                   n_ant, n_groups, power_db):
    # problems that differ in estimates, error blocks, gamma and nu: every
    # (problem, power) row's solution and level-1 MSEs on true channels
    # equal those of its own one-problem solve, bit for bit
    def draw(i):
        return random_ap_problem((seed + i) % 2**32, n_dev, n_aps, n_ant, n_groups)

    first = draw(0)
    problems = [first] + [
        replace(other, noise_power=first.noise_power,
                weights=replace(other.weights, omega=first.weights.omega))
        for other in map(draw, range(1, n_problems))]
    channels = np.stack([draw(-1 - i).h_hat for i in range(n_problems)])
    powers = power_rows(power_db, n_dev)
    batch = agg.level1_batch(problems, powers)
    b = np.array([[sol.b for sol in row] for row in batch])
    v = np.array([[sol.combiners for sol in row] for row in batch])
    mses = agg.level1_mses(problems, b, v,
                           agg.channel_projections(v, channels[:, None]))
    assert mses.shape == (n_problems, len(powers), n_groups)
    for s, (problem, row) in enumerate(zip(problems, batch)):
        for i, (power, sol) in enumerate(zip(powers, row)):
            one = agg.level1_solution(replace(problem, power_limit=power))
            assert np.array_equal(sol.b, one.b)
            assert np.array_equal(sol.combiners, one.combiners)
            proj = agg.channel_projections(one.combiners, channels[s])
            for g in range(n_groups):
                assert mses[s, i, g] == mse_level1(problem, one.b, one.combiners,
                                                       proj, g)


# ---------------------------------------------------------------------------
# Level 3 on per-AP error blocks against the dense stacked system
# ---------------------------------------------------------------------------

def dense_reference(problem, b):
    """Combiners (G, LN), projections and quadratic forms (G, K), and
    per-group MSEs (G,) from the dense stacked system: block-diagonal error
    covariances and one dense solve per group."""
    h, cov = dense_cpu_view(problem)
    w = problem.weights
    p = np.abs(b) ** 2
    mat = (problem.noise_power * np.eye(h.shape[1])
           + np.einsum("k,ki,kj->ij", p, h, h.conj())
           + np.einsum("k,kij->ij", p, cov))
    target = np.where(problem.group_of_device == np.arange(problem.n_groups)[:, None],
                      w.gamma * w.nu, 0.0)
    v = np.stack([np.linalg.solve(mat, h.T @ (target[g] * b))
                  for g in range(problem.n_groups)])
    proj = v.conj() @ h.T
    quad = np.einsum("pi,kij,pj->pk", v.conj(), cov, v).real
    mses = ((np.abs(proj * b - target) ** 2).sum(axis=1) + quad @ p
            + problem.noise_power * np.linalg.norm(v, axis=1) ** 2)
    return v, proj, quad, mses


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_dev=st.integers(1, 6),
       n_aps=st.integers(1, 5), n_ant=st.integers(1, 4), n_groups=st.integers(1, 3),
       power_db=st.lists(st.floats(-30.0, 20.0), min_size=6, max_size=6))
def test_block_core_matches_dense_reference(seed, n_dev, n_aps, n_ant, n_groups,
                                            power_db):
    # Largest relative deviations seen over 2000 random instances: 6.2e-13
    # (combiners), 0 (projections), 2.7e-14 (quadratic forms), 1.8e-14 (MSEs).
    problem = random_ap_problem(seed, n_dev, n_aps, n_ant, n_groups)
    phase = np.exp(2j * np.pi * np.random.default_rng(seed).uniform(size=n_dev))
    b = 10.0 ** (np.asarray(power_db[:n_dev]) / 20.0) * phase
    v, proj, quad, mses = dense_reference(problem, b)
    got = combiners_level3(problem, b)
    assert got.shape == v.shape
    assert np.linalg.norm(got - v) <= 1e-10 * np.linalg.norm(v)
    got_proj, got_quad = agg._Stack([problem]).forms(v[None, None])
    assert np.linalg.norm(got_proj[0, 0] - proj) <= 1e-12 * np.linalg.norm(proj)
    assert np.all(np.abs(got_quad[0, 0] - quad) <= 1e-12 * np.abs(quad).max())
    got_mses = [agg.mse_level3(problem, b, got[g], g) for g in range(n_groups)]
    np.testing.assert_allclose(got_mses, mses, rtol=1e-10, atol=0.0)


def test_level3_solve_forms_no_stacked_matrix():
    # 100 APs of 4 antennas: one dense LN x LN matrix is 2.56 MB, far more
    # than the block solve allocates
    problem = random_ap_problem(0, 4, 100, 4, 2)
    powers = np.ones((3, 4))
    tracemalloc.start()
    try:
        agg.optimize_batch([problem], powers, max_iters=5)
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
            "Level3Problem.power_limit has shape (5,), expected (6,)")):
        replace(problem, power_limit=problem.power_limit[:5])
    with pytest.raises(ValueError, match=re.escape(
            "Level3Problem.group_of_device holds [-1, 2], expected group ids in 0..1")):
        replace(problem, group_of_device=np.array([0, 2, 1, -1, 2, 0]))
    w = problem.weights
    for name in ("gamma", "nu", "theta_bar"):
        with pytest.raises(ValueError, match=re.escape(
                f"Level3Problem.weights.{name} has shape (5,), expected (6,)")):
            replace(problem, weights=replace(w, **{name: getattr(w, name)[:5]}))


def test_level1_rejects_a_cellular_problem():
    problem = draw_instance(27)["cellular"]
    for solve in (agg.level1_solution, lambda p: agg.level1_batch([p], p.power_limit[None])):
        with pytest.raises(ValueError, match="not a CellularProblem"):
            solve(problem)


def test_cellular_problem_names_inconsistent_shapes():
    problem = draw_instance(26)["cellular"]
    with pytest.raises(ValueError, match=re.escape(
            "CellularProblem.group_of_device holds [2], expected group ids in 0..1")):
        replace(problem, group_of_device=np.arange(6) % 3)
    with pytest.raises(ValueError, match=re.escape(
            "CellularProblem.weights.nu has shape (7,), expected (6,)")):
        replace(problem, weights=replace(problem.weights, nu=np.ones(7)))
    with pytest.raises(ValueError, match=re.escape(
            "CellularProblem.h_hat has shape (1, 6, 8), expected one view per group (2)")):
        replace(problem, h_hat=problem.h_hat[:1], error_cov=problem.error_cov[:1])
    with pytest.raises(ValueError, match=re.escape(
            "CellularProblem.error_cov has shape (6, 2, 8, 8), expected (2, 6, 8, 8)")):
        replace(problem, error_cov=problem.error_cov.swapaxes(0, 1))
    with pytest.raises(ValueError, match=re.escape(
            "CellularProblem.group_of_device has shape (7,), expected (6,)")):
        replace(problem, group_of_device=np.arange(7) % 2)
