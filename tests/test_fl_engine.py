from functools import partial
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from cfota import aggregation as agg
from cfota import fl_engine as fl
from cfota.rng import substream

from oracles import (cn_noise, combiners_level3, denormalize, desired_global,
                     draw_instance, local_update, normalize_vector, row, sqrt_psd)


def test_normalize_hand_example():
    s, mean, std = fl.normalize([1.0, 2.0, 3.0])
    assert mean == pytest.approx(2.0)
    assert std == pytest.approx(np.sqrt(2.0 / 3.0))
    np.testing.assert_allclose(s, [-1.22474487, 0.0, 1.22474487])
    assert s.mean() == pytest.approx(0.0, abs=1e-9)
    assert np.mean(s**2) == pytest.approx(1.0, rel=1e-9)


def test_normalize_constant_vector_rejected():
    with pytest.raises(fl.DegenerateVariance):
        fl.normalize(np.full(5, 3.3))


def test_normalize_rows_equal_per_vector_scaling():
    # each row of a (S, K, D) stack scales bit for bit as it would alone,
    # and one constant row anywhere in the stack is rejected
    theta = substream(0, "stack").standard_normal((3, 6, 550)) * 0.3 + 0.1
    s, mean, std = fl.normalize(theta)
    for idx in np.ndindex(theta.shape[:2]):
        one, one_mean, one_std = normalize_vector(theta[idx])
        np.testing.assert_array_equal(s[idx], one)
        assert (mean[idx], std[idx]) == (one_mean, one_std)
    theta[2, 4] = 0.5
    with pytest.raises(fl.DegenerateVariance):
        fl.normalize(theta)


def test_normalize_non_finite_vector_is_named_error():
    # a row whose spread overflows, or that holds an inf or a NaN, raises
    # NonFiniteParameters, a DegenerateVariance, and warns of nothing
    theta = substream(0, "stack").standard_normal((2, 3, 50))
    for scale in (1e300, np.inf, np.nan):
        bad = theta.copy()
        bad[1, 2] *= scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(fl.NonFiniteParameters):
                fl.normalize(bad)
    assert issubclass(fl.NonFiniteParameters, fl.DegenerateVariance)


def test_stacked_gradients_equal_per_device_calls():
    # a (S, K) stack of devices, each with its own shard, gives every
    # device's gradient bit for bit
    rng = substream(0, "grads")
    model = fl.Fnn(16, 20, 10)
    theta = rng.standard_normal((2, 6, model.n_params)) * 0.3
    x = rng.random((2, 6, 150, 16))
    y = fl.onehot(rng.integers(0, 10, 2 * 6 * 150), 10).reshape(2, 6, 150, 10)
    feats, targets = rng.standard_normal((2, 6, 40, 5)), rng.standard_normal((2, 6, 40))
    w = rng.standard_normal((2, 6, 5))
    stacked = model.gradient(theta, x, y)
    ridge = fl.ridge_gradient(w, feats, targets, 0.1)
    for idx in np.ndindex(2, 6):
        np.testing.assert_array_equal(stacked[idx], model.gradient(theta[idx], x[idx], y[idx]))
        np.testing.assert_array_equal(ridge[idx],
                                      fl.ridge_gradient(w[idx], feats[idx], targets[idx], 0.1))


def test_normalize_round_trip():
    rng = substream(0, "theta")
    theta = rng.standard_normal(400) * 0.3 + 0.1
    s, mean, std = fl.normalize(theta)
    np.testing.assert_allclose(denormalize(s, mean, std), theta, rtol=1e-12)


def test_local_update_zero_gradient():
    theta = np.array([1.0, -2.0])
    out = local_update(theta, lambda t: np.zeros_like(t), 0.005)
    np.testing.assert_array_equal(out, theta)


def test_local_update_quadratic_exact_step():
    # F = (theta - 1)^2 / 2, gradient theta - 1, eta = 1 lands on the optimum
    out = local_update(np.array([0.0]), lambda t: t - 1.0, 1.0)
    np.testing.assert_allclose(out, [1.0])


def test_desired_global_examples():
    same = np.tile(np.arange(4.0), (3, 1))
    np.testing.assert_allclose(
        desired_global(same, np.full(3, 1 / 3)), np.arange(4.0))
    two = np.stack([np.zeros(5), np.full(5, 2.0)])
    np.testing.assert_allclose(
        desired_global(two, [0.5, 0.5]), np.ones(5))
    # equal dataset sizes give uniform weights
    sizes = np.array([500.0, 500.0, 500.0])
    np.testing.assert_allclose(sizes / sizes.sum(), np.full(3, 1 / 3))


def test_fnn_zero_params_uniform_output():
    model = fl.Fnn(8, 5, 10)
    theta = np.zeros(model.n_params)
    x = substream(2, "x").random((6, 8))
    y = fl.onehot(np.arange(6) % 10, 10)
    assert model.loss(theta, x, y) == pytest.approx(np.log(10.0), rel=1e-12)
    # uniform probabilities: the output bias gradient is 0.1 less each
    # class's share of the labels
    np.testing.assert_allclose(model.unpack(model.gradient(theta, x, y))[3],
                               0.1 - y.mean(axis=0), atol=1e-12)


def test_fnn_gradient_matches_finite_differences():
    model = fl.Fnn(12, 7, 10)
    rng = substream(3, "fd")
    theta = model.init_params(rng)
    x = rng.random((30, 12))
    y = fl.onehot(rng.integers(0, 10, 30), 10)
    grad = model.gradient(theta, x, y)
    h = 1e-5
    coords = rng.choice(model.n_params, size=10, replace=False)
    for c in coords:
        up, down = theta.copy(), theta.copy()
        up[c] += h
        down[c] -= h
        fd = (model.loss(up, x, y) - model.loss(down, x, y)) / (2 * h)
        assert abs(fd - grad[c]) <= 1e-5 * max(abs(grad[c]), abs(fd), 1e-6)


def test_fnn_shape_mismatch():
    model = fl.Fnn(8, 5, 10)
    theta = np.zeros(model.n_params)
    with pytest.raises(fl.ShapeMismatch):
        model.gradient(theta, np.zeros((4, 9)), np.zeros((4, 10)))
    with pytest.raises(fl.ShapeMismatch):
        model.accuracy(theta, np.zeros((4, 9)), np.zeros(4))
    with pytest.raises(fl.ShapeMismatch):
        model.unpack(np.zeros(model.n_params + 1))


def test_full_size_fnn_parameter_count():
    # 784*60 + 60 + 60*10 + 10
    assert fl.Fnn(784, 60, 10).n_params == 47_710


def test_gap_bound_one_step_convergence():
    # chi = xi -> lam = 0: with zero errors the bound collapses after 1 round
    bounds = fl.optimality_gap_bound(1.0, 1.0, 1.0, [0.0])
    np.testing.assert_allclose(bounds, [1.0, 0.0])


def test_gap_bound_geometric_decay():
    # lam = 0.5, zero errors, T = 3 -> 0.125
    bounds = fl.optimality_gap_bound(2.0, 1.0, 1.0, [0.0, 0.0, 0.0])
    np.testing.assert_allclose(bounds, [1.0, 0.5, 0.25, 0.125])


def test_gap_bound_rejects_bad_constants():
    with pytest.raises(fl.InvalidConstants):
        fl.optimality_gap_bound(1.0, 2.0, 1.0, [0.0])


def test_error_free_contraction_on_ridge():
    # gradient descent at step 1/chi contracts the gap by at least lam per
    # round when aggregation is exact
    rng = substream(4, "ridge")
    x = rng.standard_normal((60, 6))
    y = x @ rng.standard_normal(6) + 0.01 * rng.standard_normal(60)
    task = fl.RidgeTask(x, y, ridge=0.2, shards=[np.arange(60)])
    gradient = partial(fl.ridge_gradient, features=task.features, targets=task.targets,
                       ridge=task.ridge)
    lam = 1.0 - task.xi / task.chi
    opt = task.optimal_value()
    theta = rng.standard_normal(6)
    gap = task.loss(theta) - opt
    for _ in range(25):
        theta = local_update(theta, gradient, 1.0 / task.chi)
        new_gap = task.loss(theta) - opt
        assert new_gap <= lam * gap + 1e-12
        gap = new_gap


def test_gap_bound_holds_with_injected_noise():
    # fixed-norm isotropic injected errors over 100 seeds: the seed-averaged
    # gap stays below the bound at every round
    rng = substream(5, "ridge")
    x = rng.standard_normal((80, 5))
    y = x @ rng.standard_normal(5) + 0.05 * rng.standard_normal(80)
    task = fl.RidgeTask(x, y, ridge=0.1, shards=[np.arange(80)])
    gradient = partial(fl.ridge_gradient, features=task.features, targets=task.targets,
                       ridge=task.ridge)
    err_norm2 = 1e-3
    n_seeds, n_rounds = 100, 30
    theta0 = substream(5, "init").standard_normal(5)
    gap0 = task.loss(theta0) - task.optimal_value()
    gaps = np.zeros((n_seeds, n_rounds))
    for s in range(n_seeds):
        noise_rng = substream(5, "noise", s)
        theta = theta0.copy()
        for t in range(n_rounds):
            theta = local_update(theta, gradient, 1.0 / task.chi)
            direction = noise_rng.standard_normal(5)
            direction /= np.linalg.norm(direction)
            theta = theta - np.sqrt(err_norm2) * direction
            gaps[s, t] = task.loss(theta) - task.optimal_value()
    bounds = fl.optimality_gap_bound(task.chi, task.xi, gap0,
                                     np.full(n_rounds, err_norm2))
    mean_gaps = gaps.mean(axis=0)
    assert np.all(mean_gaps <= bounds[1:] + 1e-12)


def test_one_dimensional_quadratic_bound_is_tight():
    # chi = xi: the post-step gap equals chi/2 * ||e||^2 exactly, so with
    # fixed-norm errors the measurement meets the bound with equality
    task_x = np.ones((4, 1))
    task = fl.RidgeTask(task_x, np.array([1.0, 1.0, 1.0, 1.0]), ridge=0.0,
                        shards=[np.arange(4)])
    assert task.chi == pytest.approx(task.xi)
    theta = np.array([0.3])
    gap0 = task.loss(theta) - task.optimal_value()
    err = 0.01
    gradient = partial(fl.ridge_gradient, features=task.features, targets=task.targets,
                       ridge=task.ridge)
    theta = local_update(theta, gradient, 1.0 / task.chi) - np.sqrt(err)
    gap1 = task.loss(theta) - task.optimal_value()
    bound = fl.optimality_gap_bound(task.chi, task.xi, gap0, [err])[1]
    assert gap1 == pytest.approx(bound, rel=1e-9)


def _block_round(theta, gamma, solution=None, channels=None, noise_power=0.0,
                 rng=None, views=1):
    """``ota_block`` at S = 1 on AP channels (K, L, N): recovered (G, D)
    parameters and realized squared errors (G,) for device shares gamma
    (G, K/G).  ``views`` is 1 for the level-3 recovery and L for level 2;
    the slot noise is drawn as (L, N, D)."""
    symbols, mean, _ = fl.normalize(theta)
    if solution is None:
        out = fl.ota_block(theta[None], symbols[None], mean[None], gamma)
    else:
        n_dev, n_aps, n_ant = channels.shape
        noise = cn_noise((n_aps, n_ant, theta.shape[1]), noise_power, rng)
        out = fl.ota_block(theta[None], symbols[None], mean[None], gamma,
                           solution.b[None], channels.reshape(1, n_dev, 1, views, -1),
                           noise.reshape(1, 1, views, -1, theta.shape[1]),
                           solution.combiners.reshape(1, len(gamma), views, -1))
    return tuple(a[0] for a in out)


def test_ota_round_noiseless_perfect_csi_recovers_desired():
    h = np.array([[[0.8 - 0.3j, 0.1 + 0.5j]]])   # (K=1, L=1, N=2)
    b = np.array([2.0 + 0j])
    rng = substream(6, "theta")
    theta = rng.standard_normal((1, 50)) * 0.4 + 0.2
    std = fl.normalize(theta[0])[2]
    problem = agg.Level3Problem(
        h_hat=h.reshape(1, 1, 2), error_cov=np.zeros((1, 1, 2, 2), dtype=complex),
        group_of_device=np.array([0]),
        weights=agg.AggregationWeights(np.array([1.0]), np.array([1.0]), np.array([std])),
        noise_power=1e-12)
    v = combiners_level3(problem, b)
    sol = agg.AggregationSolution(b=b, combiners=v, mu=np.zeros(1), iterations=0,
                                  terminated_by="threshold", values=np.empty(0),
                                  group_values=np.empty((0, 1)))
    recovered, error_sq = _block_round(theta, np.ones((1, 1)), sol, h, 0.0,
                                       substream(6, "slots"))
    np.testing.assert_allclose(recovered, theta, atol=1e-8)
    assert error_sq[0] < 1e-14


def test_ota_round_errorfree_equals_desired_exactly():
    inst = draw_instance(20)
    gdev = inst["level3"].group_of_device
    rng = substream(20, "theta")
    theta = rng.standard_normal((6, 40)) * 0.2
    recovered, error_sq = _block_round(theta, np.full((2, 3), 1 / 3))
    desired = np.stack([desired_global(theta[gdev == g], np.full(3, 1 / 3))
                        for g in range(2)])
    np.testing.assert_array_equal(recovered, desired)
    np.testing.assert_array_equal(error_sq, 0.0)


def test_ota_round_realized_error_matches_closed_form():
    # per-slot squared error averaged over many conditional channel redraws
    # converges to the closed-form conditional MSE that the solver reports
    inst = draw_instance(21)
    problem = inst["level3"]
    cfg = inst["cfg"]
    n_dims = 50
    nu = problem.weights.nu
    theta_bar = inst["theta_bar"]
    gamma = problem.weights.gamma.reshape(cfg.n_groups, -1)
    sol = row(agg.optimize_batch(problem, inst["power"][None], max_iters=50))

    roots = np.stack([sqrt_psd(inst["stats"].ap.error_cov[k, l])
                      for k in range(cfg.n_devices)
                      for l in range(cfg.n_aps)]).reshape(
        cfg.n_devices, cfg.n_aps, cfg.n_ap_antennas, cfg.n_ap_antennas)
    h_hat_ap = inst["state"].ap.h_hat

    redraw_rng = substream(21, "redraw")
    total_sq = np.zeros(cfg.n_groups)
    n_redraws = 3000
    for i in range(n_redraws):
        # fresh conditional channel draw around the fixed estimates
        z = (redraw_rng.standard_normal(h_hat_ap.shape)
             + 1j * redraw_rng.standard_normal(h_hat_ap.shape)) / np.sqrt(2)
        h_true = h_hat_ap + np.einsum("klij,klj->kli", roots, z)
        # fresh symbols with the exact same per-device statistics, so the
        # solver outputs and the closed form stay matched across redraws
        raw = redraw_rng.standard_normal((cfg.n_devices, n_dims))
        raw = raw - raw.mean(axis=1, keepdims=True)
        raw = raw / np.sqrt(np.mean(raw**2, axis=1, keepdims=True))
        theta = theta_bar[:, None] + nu[:, None] * raw
        _, error_sq = _block_round(theta, gamma, sol, h_true, problem.noise_power,
                                   substream(21, "slots", i))
        total_sq += error_sq
    per_slot = total_sq / (n_redraws * n_dims)
    closed = sol.group_values[-1]
    for g in range(cfg.n_groups):
        assert per_slot[g] == pytest.approx(closed[g], rel=0.02)


def test_ota_round_level2_equals_level3_recovery():
    inst = draw_instance(22)
    problem = inst["level3"]
    cfg = inst["cfg"]
    sol = row(agg.optimize_batch(problem, inst["power"][None], max_iters=50))
    rng = substream(22, "theta")
    theta = rng.standard_normal((cfg.n_devices, 60)) * 0.2 + 0.05
    gamma = problem.weights.gamma.reshape(cfg.n_groups, -1)
    out = {views: _block_round(theta, gamma, sol, inst["state"].ap.h,
                               problem.noise_power, substream(22, "slots"),
                               views=views)[0]
           for views in (1, cfg.n_aps)}
    np.testing.assert_allclose(out[cfg.n_aps], out[1], rtol=1e-10, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_seeds=st.integers(1, 3),
       n_groups=st.integers(1, 3), per_group=st.integers(1, 3),
       n_aps=st.integers(1, 5), n_ant=st.integers(1, 4), n_dims=st.integers(2, 12))
def test_ota_block_per_ap_sum_equals_joint_view(seed, n_seeds, n_groups, per_group,
                                                n_aps, n_ant, n_dims):
    # level 2 combines each AP's slots with its block of the combiner and sums
    # the L outputs; level 3 combines the stacked L*N antennas at once
    rng = np.random.default_rng(seed)

    def cn(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)

    n_dev = n_groups * per_group
    local = rng.standard_normal((n_seeds, n_dev, n_dims)) * rng.uniform(0.1, 2.0) + 0.3
    symbols, mean, _ = fl.normalize(local)
    gamma = rng.uniform(0.2, 1.0, (n_groups, per_group))
    b = cn(n_seeds, n_dev)
    channels = cn(n_seeds, n_dev, n_aps, n_ant)
    noise = cn(n_seeds, n_aps, n_ant, n_dims) * 0.1
    combiners = cn(n_seeds, n_groups, n_aps, n_ant)
    out = {views: fl.ota_block(local, symbols, mean, gamma, b,
                               channels.reshape(n_seeds, n_dev, 1, views, -1),
                               noise.reshape(n_seeds, 1, views, -1, n_dims),
                               combiners.reshape(n_seeds, n_groups, views, -1))
           for views in (1, n_aps)}
    (joint, joint_sq), (summed, summed_sq) = out[1], out[n_aps]
    assert np.linalg.norm(summed - joint) <= 1e-12 * np.linalg.norm(joint)
    np.testing.assert_allclose(summed_sq, joint_sq, rtol=1e-12, atol=0.0)
