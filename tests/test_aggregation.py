from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from cfota import aggregation as agg
from cfota.rng import substream

from oracles import (cn_noise, desk_config, draw_instance, mc_mse_cellular,
                     mc_mse_level1, mc_mse_level3)


def scalar_problem(h_hat=1.0, error_cov=0.0, noise=1.0, gamma_nu=1.0,
                   power=100.0):
    """Single device, single group, one scalar antenna."""
    weights = agg.AggregationWeights(
        gamma=np.array([1.0]), omega=np.array([1.0]),
        nu=np.array([gamma_nu]), theta_bar=np.array([0.0]))
    return agg.Level3Problem(
        h_hat=np.array([[h_hat]], dtype=complex),
        error_cov=np.array([[[error_cov]]], dtype=complex),
        group_of_device=np.array([0]), weights=weights,
        noise_power=noise, power_limit=np.array([power]))


def test_mse_level3_zero_combiner_leaves_target():
    inst = draw_instance(0)
    problem = inst["level3"]
    v = np.zeros(problem.h_hat.shape[1], dtype=complex)
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
    combiners = agg.combiners_level3(problem, b)
    for g in range(problem.n_groups):
        closed = agg.mse_level3(problem, b, combiners[g], g)
        mc = mc_mse_level3(problem, b, combiners[g], g, 100_000,
                           substream(1, "mc", g))
        assert mc == pytest.approx(closed, rel=0.02)


def test_combiner_level3_zero_coefficients():
    inst = draw_instance(2)
    problem = inst["level3"]
    v = agg.combiners_level3(problem, np.zeros(len(problem.h_hat), complex))[0]
    np.testing.assert_allclose(v, 0.0)


def test_combiner_level3_scalar_hand_value():
    # (|b|^2 (h h^H + C) + noise)^{-1} gamma b nu h = (1 + 1)^{-1} * 1
    problem = scalar_problem()
    v = agg.combiners_level3(problem, np.array([1.0 + 0j]))[0]
    assert v[0] == pytest.approx(0.5)


def test_combiner_level3_is_minimizer():
    # random perturbations (relative scale) never decrease the group MSE
    inst = draw_instance(3)
    problem = inst["level3"]
    b = np.sqrt(problem.power_limit).astype(complex)
    rng = substream(3, "perturb")
    for g in range(problem.n_groups):
        v_opt = agg.combiners_level3(problem, b)[g]
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
        for k in range(len(problem.h_hat)):
            p_k = problem.power_limit[k]
            assert abs(sol.b[k]) ** 2 <= p_k * (1.0 + 1e-12)
            assert abs(sol.mu[k] * (abs(sol.b[k]) ** 2 - p_k)) < 1e-8
            if sol.mu[k] == 0.0:
                # interior solution must match the stationarity formula
                g = problem.group_of_device[k]
                proj = sol.combiners.conj() @ problem.h_hat[k]
                quad = np.einsum("pi,ij,pj->p", sol.combiners.conj(),
                                 problem.error_cov[k], sol.combiners).real
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
    problem3, problem1 = inst["level3"], inst["level1"]
    b = np.sqrt(problem1.power_limit).astype(complex)
    for g in range(problem1.n_groups):
        v3 = agg.combiners_level3(problem3, b)[g]
        v1 = agg.combiners_level1(problem1, b)[g, 0]
        np.testing.assert_allclose(v1, v3, rtol=1e-10)


def test_combiner_level1_zero_coefficients_and_scalar_value():
    inst = draw_instance(6)
    problem = inst["level1"]
    v = agg.combiners_level1(problem,
                             np.zeros(len(problem.h_hat), complex))[0, 0]
    np.testing.assert_allclose(v, 0.0)

    weights = agg.AggregationWeights(gamma=np.array([1.0]),
                                     omega=np.array([1.0]),
                                     nu=np.array([1.0]),
                                     theta_bar=np.array([0.0]))
    scalar = agg.Level1Problem(
        h_hat=np.ones((1, 1, 1), dtype=complex),
        error_cov=np.zeros((1, 1, 1, 1), dtype=complex),
        group_of_device=np.array([0]), weights=weights, noise_power=1.0,
        power_limit=np.array([100.0]))
    v = agg.combiners_level1(scalar, np.array([1.0 + 0j]))[0, 0]
    assert v[0] == pytest.approx(0.5)


def test_mse_level1_zero_coefficients():
    inst = draw_instance(7)
    problem = inst["level1"]
    sol = agg.level1_solution(problem)
    b0 = np.zeros(len(problem.h_hat), dtype=complex)
    proj = agg.channel_projections(sol.combiners, inst["state"].ap.h)
    n_aps = problem.n_aps
    for g in range(problem.n_groups):
        own = problem.group_of_device == g
        target = float((problem.weights.gamma[own] ** 2
                        * problem.weights.nu[own] ** 2).sum())
        z_term = problem.noise_power * (np.abs(sol.combiners[g]) ** 2).sum() \
            / n_aps**2
        got = agg.mse_level1(problem, b0, sol.combiners, proj, g)
        assert got == pytest.approx(target + z_term)


def test_mse_level1_single_ap_conditional_form():
    # with one AP the averaged recovery reduces to the centralized formula
    # evaluated on the combined true channels with no error-inflation term
    cfg = desk_config(n_aps=1, tau_p=3)
    inst = draw_instance(8, cfg=cfg)
    problem = inst["level1"]
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
        got = agg.mse_level1(problem, sol.b, sol.combiners, proj, g)
        assert got == pytest.approx(expected, rel=1e-12)


def test_mse_level1_matches_monte_carlo():
    inst = draw_instance(9)
    problem = inst["level1"]
    sol = agg.level1_solution(problem)
    h_true = inst["state"].ap.h
    proj = agg.channel_projections(sol.combiners, h_true)
    for g in range(problem.n_groups):
        closed = agg.mse_level1(problem, sol.b, sol.combiners, proj, g)
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
        r3 = agg.recover("level3", signals, sol.combiners[g], problem.weights,
                         problem.group_of_device, g)
        r2 = agg.recover("level2", signals, sol.combiners[g], problem.weights,
                         problem.group_of_device, g)
        np.testing.assert_allclose(r2, r3, rtol=1e-10, atol=1e-18)


def test_recover_level1_averages_local_combines():
    inst = draw_instance(17)
    problem = inst["level1"]
    cfg = inst["cfg"]
    sol = agg.level1_solution(problem)
    rng = substream(17, "slots")
    signals = (rng.standard_normal((cfg.n_aps, cfg.n_ap_antennas, 8))
               + 1j * rng.standard_normal((cfg.n_aps, cfg.n_ap_antennas, 8)))
    w = problem.weights
    for g in range(problem.n_groups):
        got = agg.recover("level1", signals, sol.combiners[g], w,
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
        got = agg.recover("level3", signals, v, w, problem.group_of_device, g)
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
        h_hat=h.reshape(1, 2), error_cov=np.zeros((1, 2, 2), dtype=complex),
        group_of_device=np.array([0]), weights=weights,
        noise_power=1e-10, power_limit=np.array([4.0]))
    b = np.array([2.0 + 0j])
    v = agg.combiners_level3(problem, b)[0]
    s = 1.3
    signals = (h[0] * b[0] * s).reshape(1, 2)
    got = agg.recover("level3", signals, v, weights, np.array([0]), 0)
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
    cellular = agg.CellularProblem(
        h_hat=problem3.h_hat[None, :, :], error_cov=problem3.error_cov[None],
        group_of_device=merged.group_of_device, weights=weights,
        noise_power=problem3.noise_power, power_limit=problem3.power_limit)
    sol3 = agg.alternating_optimize(merged)
    solc = agg.cellular_optimize(cellular)
    np.testing.assert_allclose(solc.b, sol3.b, rtol=1e-9)
    np.testing.assert_allclose(solc.combiners[0], sol3.combiners[0], rtol=1e-9)
    np.testing.assert_allclose(solc.history.values, sol3.history.values,
                               rtol=1e-9)


def test_cellular_histories_non_increasing_and_terminate():
    cfg = fast_family_config()
    for seed in range(5):
        inst = draw_instance(40 + seed, cfg=cfg)
        sol = agg.cellular_optimize(inst["cellular"])
        assert np.all(np.diff(sol.history.values) <= 1e-12)
        assert sol.history.terminated_by == "threshold"
        assert sol.history.iterations <= 500


def test_cellular_mse_matches_monte_carlo():
    inst = draw_instance(15)
    problem = inst["cellular"]
    sol = agg.cellular_optimize(problem)
    for g in range(problem.n_groups):
        closed = agg.mse_cellular(problem, sol.b, sol.combiners[g], g)
        mc = mc_mse_cellular(problem, sol.b, sol.combiners[g], g, 100_000,
                             substream(15, "mcc", g))
        assert mc == pytest.approx(closed, rel=0.02)


def test_level3_beats_level1_weighted_sum():
    for seed in range(10):
        inst = draw_instance(60 + seed)
        sol3 = agg.alternating_optimize(inst["level3"])
        problem1 = inst["level1"]
        sol1 = agg.level1_solution(problem1)
        proj = agg.channel_projections(sol1.combiners, inst["state"].ap.h)
        wsm1 = agg.weighted_sum_mse_level1(problem1, sol1.b, sol1.combiners,
                                           proj)
        assert sol3.history.values[-1] <= wsm1


def test_stack_for_cpu_shapes_and_blocks():
    inst = draw_instance(16)
    state = inst["state"].ap
    flat, cov = agg.stack_for_cpu(state.h_hat, state.error_cov)
    cfg = inst["cfg"]
    dim = cfg.n_aps * cfg.n_ap_antennas
    assert flat.shape == (cfg.n_devices, dim)
    assert cov.shape == (cfg.n_devices, dim, dim)
    n = cfg.n_ap_antennas
    np.testing.assert_allclose(cov[2, n:2 * n, n:2 * n],
                               state.error_cov[2, 1])
    np.testing.assert_allclose(cov[2, :n, n:2 * n], 0.0)


# ---------------------------------------------------------------------------
# Batched lockstep solver: properties on small random instances
# ---------------------------------------------------------------------------

def random_problem(seed, cellular, n_groups, per_group, dim):
    """Random estimates, PSD error covariances and weights; views per group
    for the cellular kind, one shared view otherwise."""
    rng = np.random.default_rng(seed)
    n_dev = n_groups * per_group
    views = (n_groups,) if cellular else ()

    def cn(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)

    root = cn(*views, n_dev, dim, dim) * rng.uniform(0.05, 0.5)
    weights = agg.AggregationWeights(
        gamma=np.full(n_dev, 1.0 / per_group),
        omega=rng.uniform(0.5, 2.0, n_groups),
        nu=rng.uniform(0.5, 1.5, n_dev),
        theta_bar=np.zeros(n_dev))
    kind = agg.CellularProblem if cellular else agg.Level3Problem
    return kind(h_hat=cn(*views, n_dev, dim),
                error_cov=root @ root.conj().swapaxes(-1, -2),
                group_of_device=np.arange(n_dev) % n_groups, weights=weights,
                noise_power=10.0 ** rng.uniform(-2.0, 0.0),
                power_limit=np.ones(n_dev))


def single_solve(problem, power, **kwargs):
    solve = (agg.cellular_optimize if isinstance(problem, agg.CellularProblem)
             else agg.alternating_optimize)
    return solve(replace(problem, power_limit=power), **kwargs)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), cellular=st.booleans(),
       n_groups=st.integers(1, 3), per_group=st.integers(1, 3),
       dim=st.integers(1, 4),
       power_db=st.lists(st.floats(-30.0, 20.0), min_size=1, max_size=5))
def test_lockstep_batch_properties(seed, cellular, n_groups, per_group, dim,
                                   power_db):
    # Low powers stop in a few iterations and high ones run to the cap, so
    # the batch shrinks while the rest keep iterating.
    problem = random_problem(seed, cellular, n_groups, per_group, dim)
    n_dev = len(problem.group_of_device)
    powers = 10.0 ** (np.asarray(power_db)[:, None] / 10.0) * np.ones(n_dev)
    batch = agg.optimize_batch(problem, powers, max_iters=40)
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
       dim=st.integers(1, 4), power_db=st.floats(-30.0, 20.0))
def test_tco_step_matches_vectorized_step(seed, cellular, n_groups, per_group,
                                          dim, power_db):
    problem = random_problem(seed, cellular, n_groups, per_group, dim)
    problem = replace(problem,
                      power_limit=problem.power_limit * 10.0 ** (power_db / 10.0))
    b0 = np.sqrt(problem.power_limit).astype(complex)
    combiners = agg.combiners_level3(problem, b0)
    b, mu = agg.tco_steps(problem, combiners)
    for k in range(len(b)):
        b_k, mu_k = agg.tco_step(problem, combiners, k)
        assert b[k] == pytest.approx(b_k, rel=1e-12, abs=1e-300)
        assert mu[k] == pytest.approx(mu_k, rel=1e-12, abs=1e-300)


def test_lockstep_batch_compacts_mixed_termination():
    # the desk instance's power grid mixes early threshold stops with
    # solves that hit the cap; the batch must reproduce each one exactly
    inst = draw_instance(21)
    for kind in ("level3", "cellular"):
        problem = inst[kind]
        powers = np.outer(10.0 ** np.arange(-6.0, 3.0), np.ones(len(problem.power_limit)))
        batch = agg.optimize_batch(problem, powers, max_iters=60)
        ended = {sol.history.terminated_by for sol in batch}
        assert ended == {"threshold", "max_iters"}
        assert len({sol.history.iterations for sol in batch}) > 2
        for power, sol in zip(powers, batch):
            one = single_solve(problem, power, max_iters=60)
            assert sol.history.iterations == one.history.iterations
            np.testing.assert_array_equal(sol.history.values, one.history.values)
            np.testing.assert_array_equal(sol.b, one.b)
            np.testing.assert_array_equal(sol.combiners, one.combiners)


def test_infinite_power_limit_raises_named_error():
    inst = draw_instance(22)
    for kind, solve in (("level3", agg.alternating_optimize),
                        ("cellular", agg.cellular_optimize)):
        problem = inst[kind]
        power = problem.power_limit.copy()
        power[1] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(agg.NonFiniteSolve):
            solve(replace(problem, power_limit=power))
        with np.errstate(invalid="ignore"), pytest.raises(agg.NonFiniteSolve):
            agg.optimize_batch(problem, np.stack([problem.power_limit, power]))


def test_nan_estimate_raises_named_error():
    inst = draw_instance(23)
    for kind, solve in (("level3", agg.alternating_optimize),
                        ("cellular", agg.cellular_optimize)):
        problem = inst[kind]
        h_hat = problem.h_hat.copy()
        h_hat[..., 0, 0] = np.nan
        with pytest.raises(agg.NonFiniteSolve):
            solve(replace(problem, h_hat=h_hat))
