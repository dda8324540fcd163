"""Large-scale fading, correlated shadowing, and correlated Rayleigh channels.

Path loss follows an urban-microcell power law with log-normal shadowing
that is spatially correlated across devices (and independent across
receivers, which sit far apart).  Per-antenna spatial correlation uses the
Gaussian local scattering model for a half-wavelength uniform linear array,
with the nominal angle per link given by the wrap-around bearing from the
receiver to the device.
"""

from dataclasses import dataclass

import numpy as np

from .topology import wrap_bearing, wrap_distances


class NotPSD(ValueError):
    """Raised when an assembled covariance is indefinite beyond tolerance."""


class GainOverflow(ValueError):
    """Raised when a drawn link gain exceeds the float range."""


@dataclass(frozen=True)
class LargeScaleParams:
    """Urban-microcell large-scale fading parameters (dB-domain)."""

    beta0_db: float = -30.5     # path loss at the reference distance
    alpha: float = 3.67         # path-loss exponent
    d0_m: float = 1.0           # reference distance
    shadow_std_db: float = 4.0  # shadowing standard deviation
    decorr_m: float = 9.0       # shadowing decorrelation distance

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("path-loss exponent must be positive")
        if self.shadow_std_db < 0:
            raise ValueError("shadowing std must be non-negative")


def pathloss_db(d, params=LargeScaleParams()):
    """Distance-dependent path gain in dB, excluding shadowing, elementwise.

    Distances below the reference distance are clamped to it, so the gain
    never exceeds the reference-point value.
    """
    d = np.maximum(np.asarray(d, dtype=float), params.d0_m)
    return params.beta0_db - 10.0 * params.alpha * np.log10(d / params.d0_m)


def shadow_covariance(device_positions, area, params=LargeScaleParams()):
    """Covariance (dB^2) of the shadow terms seen by one receiver.

    Entry (k, i) is ``sigma^2 * 2^(-x_ki/decorr)`` with x_ki the wrap
    distance between devices k and i.  Shadowing for different receivers is
    modeled as independent: one draw from this covariance per receiver.
    Positions (..., K, 2) give covariances (..., K, K).
    """
    x = wrap_distances(device_positions, device_positions, area)
    cov = params.shadow_std_db**2 * np.exp2(-x / params.decorr_m)
    min_eig = np.linalg.eigvalsh(cov).min(axis=-1)
    bound = -1e-8 * np.maximum(np.trace(cov, axis1=-2, axis2=-1), 1.0)
    if np.any(min_eig < bound):
        raise NotPSD(f"shadow covariance has eigenvalue {min_eig.min():.3e}")
    return cov


def psd_root(cov):
    """The root ``V sqrt(max(w, 0))`` of each ``cov = V diag(w) V^H``.

    It comes from ``eigh`` and is not continuous in cov: where eigenvalues
    nearly coincide, a last-bit change to cov can rotate the eigenvectors
    and change a draw coloured by the root by O(1).  Any change to how the
    correlations and shadow covariances are computed must therefore keep
    them bit-identical, or it changes every downstream number.
    """
    w, v = np.linalg.eigh(cov)
    return v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]


def local_scattering_R(n_antennas, nominal_angle, asd, beta):
    """Spatial correlation of a half-wavelength ULA under Gaussian scattering.

    Uses the standard small-angular-spread closed form: entry (m, n) is
    ``beta * exp(j*pi*(m-n)*sin(phi)) * exp(-(asd*pi*(m-n)*cos(phi))^2 / 2)``
    where phi is the nominal angle and asd the angular standard deviation,
    both in radians.  asd = 0 degenerates to the rank-1 steering outer
    product.  The result is Hermitian PSD with trace/N equal to beta.
    ``nominal_angle`` and ``beta`` broadcast together to the leading shape
    of the (..., N, N) result.
    """
    if n_antennas < 1:
        raise ValueError("need at least one antenna")
    if asd < 0:
        raise ValueError("angular spread must be non-negative")
    angle = np.asarray(nominal_angle)[..., None, None]
    beta = np.asarray(beta, dtype=float)
    diff = np.subtract.outer(np.arange(n_antennas), np.arange(n_antennas))
    phase = np.exp(1j * np.pi * diff * np.sin(angle))
    # A huge spread overflows the square to inf, and exp(-inf) = 0 is the
    # exact limit, so the overflow is no error.
    with np.errstate(over="ignore"):
        spread = np.exp(-0.5 * (asd * np.pi * diff * np.cos(angle)) ** 2)
    mat = beta[..., None, None] * phase * spread
    return 0.5 * (mat + mat.conj().swapaxes(-1, -2))


def sample_channels(root, rng):
    """Correlated Rayleigh draws h = R^(1/2) z, z circularly-symmetric CN(0, I).

    ``root`` (..., N, N) is ``psd_root(R)`` of the correlations R, which a
    caller computes once for all its draws; the result has shape (..., N).
    Draws are independent across the leading axes and across calls.  A
    block of S seeds, (S, ..., N, N), draws through a ``rng.SeedStreams``,
    each seed from its own stream as if alone.
    """
    root = np.asarray(root)
    z = rng.standard_normal(root.shape[:-1]) + 1j * rng.standard_normal(root.shape[:-1])
    z /= np.sqrt(2.0)
    return np.einsum("...ij,...j->...i", root, z)


def correlation_matrices(device_positions, rx_positions, n_antennas, area,
                         params, asd, rng):
    """Per-link correlation matrices R[k, r] for all device-receiver pairs.

    Combines path loss, per-receiver correlated shadowing (independent
    across receivers), and local scattering with the nominal angle set to
    the wrap-around bearing from the receiver to the device.  Returns an
    array of shape (K, n_rx, N, N).  Every link is computed at once, with
    the same floating-point operations (and so the same bits) as one link
    at a time.

    Device positions (S, K, 2) are a block of S seeds, drawn from
    ``rng.standard_normal`` of shape (S, n_rx, K) (a ``rng.SeedStreams``
    draws each seed's (n_rx, K) from its own stream); the result is then
    (S, K, n_rx, N, N), each seed's bit-identical to its own call.
    """
    device_positions = np.asarray(device_positions)
    rx_positions = np.asarray(rx_positions)
    *lead, n_dev, _ = device_positions.shape
    root = psd_root(shadow_covariance(device_positions, area, params))
    # One matvec per receiver on the stream of n_rx consecutive draws; a
    # single (n_rx, K) @ (K, K) product would move the last bit.
    normals = rng.standard_normal((*lead, len(rx_positions), n_dev))
    shadows = (root[..., None, :, :] @ normals[..., None])[..., 0]
    beta_db = (pathloss_db(wrap_distances(device_positions, rx_positions, area),
                           params) + shadows.swapaxes(-1, -2)) / 10.0
    # Scalar powers: numpy's vectorized power differs in the last bit.
    try:
        beta = np.array([10.0 ** x for x in beta_db.ravel().tolist()]).reshape(beta_db.shape)
    except OverflowError:
        raise GainOverflow(f"a link gain of {10.0 * beta_db.max():.4g} dB exceeds the float "
                           f"range; shadow_std_db = {params.shadow_std_db} is too large") from None
    angle = wrap_bearing(rx_positions, device_positions[..., :, None, :], area)
    return local_scattering_R(n_antennas, angle, asd, beta)
