import os
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from cfota.channel import (LargeScaleParams, correlation_matrices,
                           local_scattering_R, psd_root, sample_channels)
from cfota.estimation import (PilotShortage, assign_pilots, estimate_all,
                              mmse_statistics, pilot_observation)
from cfota.rng import substream, substreams
from cfota.topology import Area

from oracles import (codevices, matrix_observation_oracle, mmse_estimate,
                     mmse_estimate_cholesky)


def test_assign_pilots_single_group_orthogonal():
    plan = assign_pilots([0, 0, 0, 0], tau_p=4, pilot_power=0.1)
    np.testing.assert_array_equal(plan.pilot_of_device, [0, 1, 2, 3])
    for k in range(4):
        np.testing.assert_array_equal(codevices(plan, k), [k])


def test_assign_pilots_two_groups_share_pilots():
    plan = assign_pilots([0, 0, 0, 1, 1, 1], tau_p=3, pilot_power=0.1)
    np.testing.assert_array_equal(plan.pilot_of_device, [0, 1, 2, 0, 1, 2])
    np.testing.assert_array_equal(codevices(plan, 0), [0, 3])
    np.testing.assert_array_equal(codevices(plan, 4), [1, 4])
    np.testing.assert_array_equal(codevices(plan, 5), [2, 5])


def test_assign_pilots_shortage():
    with pytest.raises(PilotShortage):
        assign_pilots([0] * 5, tau_p=4, pilot_power=0.1)


class _NoNoise:
    def standard_normal(self, shape):
        return np.zeros(shape)


def test_observation_noiseless_single_user():
    # p * tau_p = 1 so the despread observation is the channel itself
    h = (np.arange(6) + 1j).reshape(1, 2, 3)
    plan = assign_pilots([0], tau_p=2, pilot_power=0.5)
    y = pilot_observation(h, plan, noise_power=0.0, rng=_NoNoise())
    np.testing.assert_allclose(y[0], h[0])
    np.testing.assert_allclose(y[1], 0.0)


def test_observation_noise_variance():
    plan = assign_pilots([0], tau_p=1, pilot_power=1.0)
    h = np.zeros((1, 1, 1), dtype=complex)
    rng = substream(0, "obs")
    n = 100_000
    draws = np.array([pilot_observation(h, plan, 2.0, rng)[0, 0, 0]
                      for _ in range(n)])
    var = np.mean(np.abs(draws) ** 2)
    # |y|^2 is exponential with mean 2; std of the mean = 2/sqrt(n)
    assert abs(var - 2.0) < 3.0 * 2.0 / np.sqrt(n)


def test_observation_superposition_of_contaminators():
    h = np.array([[[1.0 + 0j, 2.0]], [[3.0, -1j]]])  # two devices, one AP
    plan = assign_pilots([0, 1], tau_p=1, pilot_power=1.0)
    y = pilot_observation(h, plan, 0.0, _NoNoise())
    np.testing.assert_allclose(y[0, 0], h[0, 0] + h[1, 0])


def test_mmse_scalar_example():
    # N=1, single user, p*tau_p = 1, R = 1, noise 1, y = 1  ->  0.5 everywhere
    corr = np.ones((1, 1, 1, 1), dtype=complex)
    plan = assign_pilots([0], tau_p=1, pilot_power=1.0)
    est = mmse_estimate(np.array([1.0 + 0j]), plan, corr, k=0, rx=0,
                        noise_power=1.0)
    assert est.h_hat[0] == pytest.approx(0.5)
    assert est.estimate_cov[0, 0] == pytest.approx(0.5)
    assert est.error_cov[0, 0] == pytest.approx(0.5)


def test_mmse_no_information_limit():
    corr = np.ones((1, 1, 1, 1), dtype=complex)
    plan = assign_pilots([0], tau_p=1, pilot_power=1e-18)
    est = mmse_estimate(np.array([1.0 + 0j]), plan, corr, 0, 0, noise_power=1.0)
    assert abs(est.h_hat[0]) < 1e-8
    assert est.error_cov[0, 0] == pytest.approx(1.0, rel=1e-9)


def test_mmse_perfect_estimation_limit():
    corr = local_scattering_R(2, 0.3, 0.2, 1.0).reshape(1, 1, 2, 2)
    plan = assign_pilots([0], tau_p=1, pilot_power=1.0)
    est = mmse_estimate(np.array([0.3 + 0.1j, -0.2j]), plan, corr, 0, 0,
                        noise_power=1e-12)
    np.testing.assert_allclose(est.estimate_cov, corr[0, 0], atol=1e-9)
    np.testing.assert_allclose(est.error_cov, 0.0, atol=1e-9)


def _toy_setup(seed, n_dev=4, n_rx=2, n_ant=2, tau_p=2, noise=0.5):
    rng = substream(seed, "setup")
    corr = np.empty((n_dev, n_rx, n_ant, n_ant), dtype=complex)
    for k in range(n_dev):
        for r in range(n_rx):
            corr[k, r] = local_scattering_R(
                n_ant, rng.uniform(-np.pi, np.pi), rng.uniform(0.05, 0.3),
                rng.uniform(0.5, 2.0))
    groups = np.repeat(np.arange(n_dev // tau_p), tau_p)
    plan = assign_pilots(groups, tau_p, pilot_power=0.8)
    return corr, plan, noise


def test_covariance_split_adds_to_R():
    corr, plan, noise = _toy_setup(0)
    stats = mmse_statistics(plan, corr, noise)
    total = stats.estimate_cov + stats.error_cov
    assert np.max(np.abs(total - corr)) / np.max(np.abs(corr)) < 1e-8


def _probe_estimator_matrix(plan, corr, k, r, noise):
    """Recover the linear map y -> h_hat of one link by probing basis vectors.

    The MMSE estimate is linear in the despread observation, so the map is
    fully determined by the package's single-link operation.
    """
    n_ant = corr.shape[-1]
    cols = [mmse_estimate(np.eye(n_ant, dtype=complex)[j], plan, corr, k, r,
                          noise).h_hat for j in range(n_ant)]
    return np.column_stack(cols)


def test_estimate_statistics_match_covariances():
    # empirical E{h_hat h_hat^H} -> estimate_cov and orthogonality of the
    # error, over 1e5 independent blocks (the linear estimator is probed
    # from the package, the blocks are generated from first principles)
    corr, plan, noise = _toy_setup(1, n_dev=2, n_rx=1, tau_p=1)
    n = 100_000
    k, r = 0, 0
    amp = np.sqrt(plan.pilot_power * plan.tau_p)
    sharers = codevices(plan, k)
    h = sample_channels(np.broadcast_to(psd_root(corr[:, r]), (n, 2, 2, 2)),
                        substream(1, "h"))        # (n, K, N)
    rng_n = substream(1, "n")
    w = rng_n.standard_normal((n, 2)) + 1j * rng_n.standard_normal((n, 2))
    y = np.tensordot(h[:, sharers], amp[sharers], axes=(1, 0)) \
        + np.sqrt(noise / 2.0) * w
    a_mat = _probe_estimator_matrix(plan, corr, k, r, noise)
    hats = y @ a_mat.T
    errs = h[:, k] - hats
    expected_b = mmse_statistics(plan, corr, noise).estimate_cov[k, r]
    emp_b = np.einsum("mi,mj->ij", hats, hats.conj()) / n
    scale = np.linalg.norm(corr[k, r])
    assert np.linalg.norm(emp_b - expected_b) / scale < 0.02
    cross = np.einsum("mi,mj->ij", hats, errs.conj()) / n
    assert np.linalg.norm(cross) / scale < 0.02


def test_despread_equals_matrix_form_in_distribution():
    # two-sample covariance check: estimates produced from the direct
    # despread observation and from the full tau_p-symbol matrix oracle
    # have the same second-order statistics
    corr, plan, noise = _toy_setup(2)
    n = 4_000
    k, r = 1, 0
    rng_h = substream(2, "h")
    rng_a = substream(2, "na")
    rng_b = substream(2, "nb")
    a_mat = _probe_estimator_matrix(plan, corr, k, r, noise)
    direct = np.empty((n, 2), dtype=complex)
    oracle = np.empty((n, 2), dtype=complex)
    t = plan.pilot_of_device[k]
    root = psd_root(corr)
    for i in range(n):
        h = sample_channels(root, rng_h)
        direct[i] = a_mat @ pilot_observation(h, plan, noise, rng_a)[t, r]
        oracle[i] = a_mat @ matrix_observation_oracle(h, plan, noise, rng_b)[t, r]
    cov_direct = np.einsum("mi,mj->ij", direct, direct.conj()) / n
    cov_oracle = np.einsum("mi,mj->ij", oracle, oracle.conj()) / n
    diff = np.linalg.norm(cov_direct - cov_oracle)
    assert diff / np.linalg.norm(cov_direct) < 0.05


def test_estimate_all_matches_single_link_op():
    # the per-seed statistics plus the per-block estimates reproduce the
    # single-link operation bit for bit on every link
    corr, plan, noise = _toy_setup(3)
    stats = mmse_statistics(plan, corr, noise)
    h = sample_channels(stats.draw_root, substream(3, "h"))
    y = pilot_observation(h, plan, noise, substream(3, "n"))
    h_hat = estimate_all(y, stats)
    for k in range(corr.shape[0]):
        for r in range(corr.shape[1]):
            single = mmse_estimate(y[plan.pilot_of_device[k], r], plan, corr,
                                   k, r, noise)
            np.testing.assert_array_equal(single.h_hat, h_hat[k, r])
            np.testing.assert_array_equal(single.estimate_cov,
                                          stats.estimate_cov[k, r])
            np.testing.assert_array_equal(single.error_cov,
                                          stats.error_cov[k, r])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), tau_p=st.integers(1, 4),
       n_groups=st.integers(1, 3), n_rx=st.integers(1, 4),
       n_ant=st.integers(1, 4), noise=st.floats(1e-3, 10.0))
def test_batched_estimates_match_cholesky_reference(seed, tau_p, n_groups,
                                                    n_rx, n_ant, noise):
    corr, plan, noise = _toy_setup(seed, n_dev=tau_p * n_groups, n_rx=n_rx,
                                   n_ant=n_ant, tau_p=tau_p, noise=noise)
    stats = mmse_statistics(plan, corr, noise)
    y = pilot_observation(sample_channels(stats.draw_root, substream(seed, "h")), plan,
                          noise, substream(seed, "n"))
    batch = estimate_all(y, stats)
    for k in range(corr.shape[0]):
        for r in range(n_rx):
            h_hat, est_cov, err_cov = mmse_estimate_cholesky(
                y[plan.pilot_of_device[k], r], plan, corr, k, r, noise)
            tol = 1e-12 * np.linalg.norm(corr[k, r])
            assert np.linalg.norm(stats.estimate_cov[k, r] - est_cov) <= tol
            assert np.linalg.norm(stats.error_cov[k, r] - err_cov) <= tol
            assert np.linalg.norm(batch[k, r] - h_hat) <= tol * max(
                1.0, np.linalg.norm(y[plan.pilot_of_device[k], r]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_seeds=st.integers(1, 4),
       tau_p=st.integers(1, 4), n_groups=st.integers(1, 3),
       n_rx=st.integers(1, 6), n_ant=st.integers(1, 4))
def test_seed_block_equals_each_seed_alone(seed, n_seeds, tau_p, n_groups,
                                           n_rx, n_ant):
    # correlations, statistics, channels, observations and estimates of a
    # block of seeds, each seed drawing from its own streams, equal what
    # each seed's own calls give, bit for bit
    area, params, asd, noise = Area(500.0), LargeScaleParams(), 0.2, 1e-3
    n_dev = tau_p * n_groups
    plan = assign_pilots(np.repeat(np.arange(n_groups), tau_p), tau_p, 0.8)
    devices = np.stack([substream(seed, s, "geom").random((n_dev, 2)) * 500.0
                        for s in range(n_seeds)])
    rxs = substream(seed, "rx").random((n_rx, 2)) * 500.0
    tags = [(seed, s) for s in range(n_seeds)]
    corr = correlation_matrices(devices, rxs, n_ant, area, params, asd,
                                substreams(tags, "shadow"))
    stats = mmse_statistics(plan, corr, noise)
    h = sample_channels(stats.draw_root, substreams(tags, "h"))
    y = pilot_observation(h, plan, noise, substreams(tags, "n"))
    h_hat = estimate_all(y, stats)
    for s in range(n_seeds):
        corr_s = correlation_matrices(devices[s], rxs, n_ant, area, params, asd,
                                      substream(seed, s, "shadow"))
        stats_s = mmse_statistics(plan, corr_s, noise)
        h_s = sample_channels(stats_s.draw_root, substream(seed, s, "h"))
        y_s = pilot_observation(h_s, plan, noise, substream(seed, s, "n"))
        for block, alone in ((corr, corr_s), (stats.draw_root, stats_s.draw_root),
                             (stats.despread_cov, stats_s.despread_cov),
                             (h, h_s), (y, y_s), (h_hat, estimate_all(y_s, stats_s)),
                             (stats.estimate_cov, stats_s.estimate_cov),
                             (stats.error_cov, stats_s.error_cov)):
            assert np.array_equal(block[s], alone)


def test_import_loads_no_scipy():
    # scipy is a test dependency only
    import cfota
    src = os.path.dirname(os.path.dirname(cfota.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); import cfota; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy'}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
