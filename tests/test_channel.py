from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest
from scipy.integrate import quad

from cfota.channel import (LargeScaleParams, local_scattering_R, pathloss_db,
                           psd_root, sample_channels, shadow_covariance,
                           correlation_matrices)
from cfota.rng import substream
from cfota.topology import Area

from oracles import (correlation_matrices_per_link, sample_shadowing,
                     sqrt_psd)

PARAMS = LargeScaleParams()
AREA = Area(500.0)


def test_pathloss_reference_distance():
    assert pathloss_db(1.0, PARAMS) == pytest.approx(-30.5)


def test_pathloss_hand_computed_at_100m():
    # -30.5 - 10 * 3.67 * log10(100) = -30.5 - 73.4
    assert pathloss_db(100.0, PARAMS) == pytest.approx(-103.9)


def test_pathloss_clamped_below_reference():
    assert pathloss_db(0.5, PARAMS) == pytest.approx(-30.5)


def test_shadow_covariance_values():
    # variance 4^2 at distance 0, halved at the decorrelation distance
    pts = np.array([[0.0, 0.0], [9.0, 0.0], [100.0, 40.0]])
    cov = shadow_covariance(pts, AREA, PARAMS)
    assert cov[0, 0] == pytest.approx(16.0)
    assert cov[0, 1] == pytest.approx(8.0)
    np.testing.assert_allclose(cov, cov.T)


def test_shadow_covariance_decreasing_in_distance():
    rng = substream(2, "pts")
    pts = rng.random((12, 2)) * 500.0
    cov = shadow_covariance(pts, AREA, PARAMS)
    from cfota.topology import wrap_distances
    dist = wrap_distances(pts, pts, AREA)
    order = np.argsort(dist[0])
    assert np.all(np.diff(cov[0][order]) <= 1e-12)


def test_sample_shadowing_zero_cov():
    out = sample_shadowing(np.zeros((5, 5)), substream(0, "sh"))
    np.testing.assert_allclose(out, 0.0)


def test_sample_shadowing_iid_variance():
    # sample variance of N(0, 16) over n draws concentrates within 3 sigma,
    # sigma = 16 * sqrt(2/n)
    rng = substream(1, "sh")
    n = 100_000
    draws = np.array([sample_shadowing(16.0 * np.eye(2), rng) for _ in
                      range(n // 2)]).ravel()
    var = draws.var()
    assert abs(var - 16.0) < 3.0 * 16.0 * np.sqrt(2.0 / len(draws))


def test_sample_shadowing_rank1_perfectly_correlated():
    cov = 16.0 * np.ones((3, 3))
    rng = substream(4, "sh")
    for _ in range(20):
        s = sample_shadowing(cov, rng)
        np.testing.assert_allclose(s, s[0], atol=1e-9)


def test_local_scattering_scalar_case():
    corr = local_scattering_R(1, 0.3, 0.1, 2.5)
    np.testing.assert_allclose(corr, [[2.5]])
    assert np.trace(corr).real == 2.5  # trace/N with N = 1


def test_local_scattering_zero_spread_is_rank1_steering():
    phi = 0.7
    corr = local_scattering_R(4, phi, 0.0, 2.0)
    steer = np.exp(1j * np.pi * np.arange(4) * np.sin(phi))
    expected = 2.0 * np.outer(steer, steer.conj())
    np.testing.assert_allclose(corr, expected, atol=1e-12)
    eigs = np.linalg.eigvalsh(corr)
    assert eigs[-1] == pytest.approx(8.0)
    assert np.all(eigs[:-1] < 1e-9)


def test_local_scattering_against_exact_integral():
    # oracle: exact Gaussian-scattering integral for the (1, 0) entry,
    # E{ exp(j pi sin(phi + delta)) }, delta ~ N(0, asd^2)
    asd = np.deg2rad(15.0)
    phi = 0.0

    def integrand_real(d):
        return np.cos(np.pi * np.sin(phi + d)) * np.exp(-d**2 / (2 * asd**2))

    def integrand_imag(d):
        return np.sin(np.pi * np.sin(phi + d)) * np.exp(-d**2 / (2 * asd**2))

    norm = 1.0 / (np.sqrt(2.0 * np.pi) * asd)
    re = norm * quad(integrand_real, -10 * asd, 10 * asd)[0]
    im = norm * quad(integrand_imag, -10 * asd, 10 * asd)[0]
    exact = re + 1j * im
    assert abs(exact) == pytest.approx(0.72591, abs=5e-4)

    # small-spread closed form: |entry| = exp(-(asd*pi*cos(phi))^2 / 2)
    corr = local_scattering_R(2, phi, asd, 1.0)
    approx = corr[1, 0]
    assert abs(approx) == pytest.approx(np.exp(-0.5 * (asd * np.pi) ** 2),
                                        rel=1e-12)
    assert abs(approx) == pytest.approx(0.7130, abs=1e-3)
    # approximation quality against the exact oracle (~1.8% at 15 degrees)
    assert abs(approx - exact) < 0.02 * abs(exact)


def test_local_scattering_invariants():
    rng = substream(6, "angles")
    for _ in range(25):
        n = int(rng.integers(1, 6))
        beta = rng.uniform(0.1, 3.0)
        mat = local_scattering_R(n, rng.uniform(-np.pi, np.pi),
                                 rng.uniform(0, 0.5), beta)
        np.testing.assert_allclose(mat, mat.conj().T, atol=1e-14)
        assert np.trace(mat).real / n == pytest.approx(beta, rel=1e-9)
        eigs = np.linalg.eigvalsh(mat)
        assert eigs[0] >= -1e-9 * np.trace(mat).real


def test_sample_channels_zero_correlation():
    h = sample_channels(psd_root(np.zeros((3, 2, 2))), substream(0, "h"))
    np.testing.assert_allclose(h, 0.0)


def test_sample_channels_identity_covariance():
    n = 100_000
    rng = substream(1, "h")
    draws = sample_channels(np.broadcast_to(psd_root(np.eye(2)), (n, 2, 2)), rng)
    emp = np.einsum("mi,mj->ij", draws, draws.conj()) / n
    assert np.linalg.norm(emp - np.eye(2)) / np.linalg.norm(np.eye(2)) < 0.02


def test_sample_channels_rank1_proportional_to_steering():
    steer = np.exp(1j * np.pi * np.arange(3) * np.sin(0.4))
    corr = np.outer(steer, steer.conj())
    rng = substream(2, "h")
    root = psd_root(corr)
    for _ in range(20):
        h = sample_channels(root, rng)
        # h must be a complex multiple of the steering vector, up to the
        # eigendecomposition's ~sqrt(eps) noise floor
        ratio = h / steer
        np.testing.assert_allclose(ratio, np.full(3, ratio[0]), atol=1e-6)


def test_empirical_covariance_matches_R():
    corr = local_scattering_R(2, 0.9, np.deg2rad(15.0), 1.7)
    n = 100_000
    draws = sample_channels(np.broadcast_to(psd_root(corr), (n, 2, 2)), substream(3, "h"))
    emp = np.einsum("mi,mj->ij", draws, draws.conj()) / n
    assert (np.linalg.norm(emp - corr) / np.linalg.norm(corr)) < 0.02


def test_sqrt_psd_squares_back():
    corr = local_scattering_R(3, 0.2, 0.2, 2.0)
    root = sqrt_psd(corr)
    np.testing.assert_allclose(root @ root.conj().T, corr, atol=1e-12)


def test_correlation_matrices_traces_match_pathloss_scale():
    rng = substream(8, "geom")
    devices = rng.random((5, 2)) * 500.0
    aps = rng.random((3, 2)) * 500.0
    out = correlation_matrices(devices, aps, 2, AREA, PARAMS,
                               np.deg2rad(15.0), substream(8, "shadow"))
    assert out.shape == (5, 3, 2, 2)
    for k in range(5):
        for r in range(3):
            mat = out[k, r]
            np.testing.assert_allclose(mat, mat.conj().T, atol=1e-18)
            beta = np.trace(mat).real / 2
            assert beta > 0
            # plausibly within shadowing range of the pure path loss
            from oracles import wrap_distance
            base = pathloss_db(wrap_distance(devices[k], aps[r], AREA), PARAMS)
            assert abs(10 * np.log10(beta) - base) < 6 * PARAMS.shadow_std_db


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_dev=st.integers(1, 8),
       n_rx=st.integers(1, 6), n_ant=st.integers(1, 4),
       side=st.floats(20.0, 2000.0), asd_deg=st.floats(0.0, 40.0))
def test_correlation_matrices_equal_per_link_reference(seed, n_dev, n_rx, n_ant,
                                                       side, asd_deg):
    # bit for bit: channel draws amplify any last-bit change (see
    # sample_channels)
    rng = substream(seed, "geom")
    devices = rng.random((n_dev, 2)) * side
    rxs = rng.random((n_rx, 2)) * side
    args = (devices, rxs, n_ant, Area(side), PARAMS, np.deg2rad(asd_deg))
    batched = correlation_matrices(*args, substream(seed, "shadow"))
    looped = correlation_matrices_per_link(*args, substream(seed, "shadow"))
    assert np.array_equal(batched, looped)
