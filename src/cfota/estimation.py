"""Pilot assignment and linear MMSE channel estimation.

Devices in the same group get mutually orthogonal pilots; the pilot set is
reused across groups, so estimates of devices in different groups that
share a pilot are contaminated.  Estimation works on the despread pilot
observation.

The covariances and the despread covariances depend only on the pilot
plan, the spatial correlations and the noise power, so ``mmse_statistics``
computes them once per deployment, along with the roots that colour the
channel draws; ``estimate_all`` then turns each coherence block's
observation into estimates.  Both work on every link at once, with batched
``numpy.linalg.solve`` calls.  They also take a block of seeds at once:
arrays with a leading seed axis give results with that axis, each seed's
bit-identical to its own call.
"""

from dataclasses import dataclass

import numpy as np

from . import CfotaError
from .channel import psd_root


class PilotShortage(CfotaError):
    """Raised when a group has more devices than there are pilots."""


@dataclass(frozen=True)
class PilotPlan:
    """Pilot index and pilot transmit power for every device."""

    tau_p: int
    pilot_of_device: np.ndarray  # (K,) int in 0..tau_p-1
    pilot_power: np.ndarray      # (K,) W

    def devices_on_pilot(self, t):
        return np.flatnonzero(self.pilot_of_device == t)


@dataclass(frozen=True)
class MmseStatistics:
    """What drawing and MMSE-estimating one receiver view needs, computed
    once per seed.

    draw_root[k, r] is ``channel.psd_root`` of correlations[k, r], which
    colours every channel draw of the link.  despread_cov[r, t] is the
    covariance of the despread observation of pilot t at receiver r
    (``noise I`` for an unused pilot).  The root and the covariance arrays
    are read-only.  For a block of seeds every array has a leading seed
    axis.
    """

    plan: PilotPlan
    correlations: np.ndarray  # (K, R, N, N)
    draw_root: np.ndarray     # (K, R, N, N)
    noise_power: float
    despread_cov: np.ndarray  # (R, tau_p, N, N)
    estimate_cov: np.ndarray  # (K, R, N, N)
    error_cov: np.ndarray     # (K, R, N, N)


def assign_pilots(group_of_device, tau_p, pilot_power):
    """Round-robin pilots within each group; groups reuse the same set.

    Devices in one group always get distinct pilots, which requires
    tau_p >= max group size.  Inter-group contamination exists by
    construction whenever there is more than one group.
    """
    group_of_device = np.asarray(group_of_device)
    n_dev = len(group_of_device)
    pilots = np.empty(n_dev, dtype=int)
    for g in np.unique(group_of_device):
        members = np.flatnonzero(group_of_device == g)
        if len(members) > tau_p:
            raise PilotShortage(
                f"group {g} has {len(members)} devices but only {tau_p} pilots"
            )
        pilots[members] = np.arange(len(members))
    power = np.broadcast_to(np.asarray(pilot_power, dtype=float), (n_dev,)).copy()
    if np.any(power <= 0):
        raise ValueError("pilot powers must be positive")
    return PilotPlan(tau_p=int(tau_p), pilot_of_device=pilots, pilot_power=power)


def pilot_observation(channels, plan, noise_power, rng):
    """Despread pilot observations, shape (tau_p, R, N).

    Entry (t, r) is ``sum_{i on pilot t} sqrt(p_i tau_p) h_ir + n`` with
    n ~ CN(0, noise_power I).  Built directly in despread form; the full
    tau_p-symbol matrix observation is statistically equivalent.  Channels
    (S, K, R, N) of a block give (S, tau_p, R, N), the noise drawn from
    ``rng`` in that shape (see ``rng.SeedStreams``).
    """
    channels = np.asarray(channels)
    *lead, _, n_rx, n_ant = channels.shape
    flat = channels.reshape(*lead, -1, n_rx * n_ant)
    amp = np.sqrt(plan.pilot_power * plan.tau_p)
    y = np.zeros((*lead, plan.tau_p, n_rx * n_ant), dtype=complex)
    for t in range(plan.tau_p):
        sharers = plan.devices_on_pilot(t)
        if sharers.size:
            # One product per seed: a single product over the whole block
            # would move the last bit.
            y[..., t, :] = amp[sharers] @ flat[..., sharers, :]
    y = y.reshape(*lead, plan.tau_p, n_rx, n_ant)
    noise = rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
    return y + np.sqrt(noise_power / 2.0) * noise


def _despread_covariances(plan, correlations, noise_power):
    """Despread covariance of every (receiver, pilot), shape (..., R, tau_p, N, N).

    Entry (r, t) is ``noise I + sum_{i on pilot t} p_i tau_p R_ir``, summed
    in device order.  An unused pilot's entry is ``noise I``.
    """
    *lead, _, n_rx, n_ant, _ = correlations.shape
    xi = np.tile(noise_power * np.eye(n_ant, dtype=complex),
                 (*lead, n_rx, plan.tau_p, 1, 1))
    contrib = (plan.pilot_power * plan.tau_p)[:, None, None, None] * correlations
    # Unbuffered, in index order: each sum runs over its sharers one by one.
    np.add.at(xi, (..., plan.pilot_of_device, slice(None), slice(None)),
              contrib.swapaxes(-4, -3))
    return xi


def _link_covariances(r_kl, xi, scale_sq):
    """Estimate and error covariances of links (..., N, N), both Hermitian.

    ``xi`` is each link's despread covariance and ``scale_sq`` its squared
    ``sqrt(p tau_p)``, shaped to broadcast against the matrices.
    """
    est_cov = scale_sq * (r_kl @ np.linalg.solve(xi, r_kl))
    est_cov = 0.5 * (est_cov + est_cov.conj().swapaxes(-1, -2))
    err_cov = r_kl - est_cov
    err_cov = 0.5 * (err_cov + err_cov.conj().swapaxes(-1, -2))
    return est_cov, err_cov


def _pilot_scale(plan):
    return np.sqrt(plan.pilot_power * plan.tau_p)


def _by_device(per_pilot, plan):
    """(..., R, tau_p, a, b) entries of every pilot, gathered (..., K, R, a, b)
    for every device's pilot."""
    return per_pilot[..., plan.pilot_of_device, :, :].swapaxes(-4, -3)


def mmse_statistics(plan, correlations, noise_power):
    """Draw-independent statistics of every (device, receiver) link: the
    draw roots and the MMSE statistics.

    Builds every (receiver, pilot) despread covariance once and derives all
    links' estimate and error covariances from one batched solve.  The
    arrays are read-only: every coherence block shares them.
    """
    correlations = np.asarray(correlations)
    root = psd_root(correlations)
    despread = _despread_covariances(plan, correlations, noise_power)
    est_cov, err_cov = _link_covariances(
        correlations, _by_device(despread, plan),
        np.square(_pilot_scale(plan))[:, None, None, None])
    for arr in (root, despread, est_cov, err_cov):
        arr.flags.writeable = False
    return MmseStatistics(plan=plan, correlations=correlations, draw_root=root,
                          noise_power=noise_power, despread_cov=despread,
                          estimate_cov=est_cov, error_cov=err_cov)


def estimate_all(y_pilot, statistics):
    """MMSE estimates h_hat (K, R, N) of every (device, receiver) pair of one
    coherence block.

    Solves every (receiver, pilot) observation against its despread
    covariance in one batch and applies each sharer's correlation in one
    matmul.  The estimates' covariances are the statistics' shared arrays.
    """
    plan = statistics.plan
    solved = np.linalg.solve(statistics.despread_cov,
                             np.swapaxes(y_pilot, -3, -2)[..., None])
    h_hat = (statistics.correlations @ _by_device(solved, plan))[..., 0]
    h_hat *= _pilot_scale(plan)[:, None, None]
    return h_hat
