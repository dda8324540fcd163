"""Pilot assignment and linear MMSE channel estimation.

Devices in the same group get mutually orthogonal pilots; the pilot set is
reused across groups, so estimates of devices in different groups that
share a pilot are contaminated.  Estimation works on the despread pilot
observation and produces, per link, the estimate together with its
covariance and the estimation-error covariance.

The covariances and the factorized despread covariances depend only on the
pilot plan, the spatial correlations and the noise power, so
``mmse_statistics`` computes them once per deployment; ``estimate_all``
then turns each coherence block's observation into estimates.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve


class PilotShortage(ValueError):
    """Raised when a group has more devices than there are pilots."""


@dataclass(frozen=True)
class PilotPlan:
    """Pilot index and pilot transmit power for every device."""

    tau_p: int
    pilot_of_device: np.ndarray  # (K,) int in 0..tau_p-1
    pilot_power: np.ndarray      # (K,) W

    def devices_on_pilot(self, t):
        return np.flatnonzero(self.pilot_of_device == t)

    def codevices(self, k):
        """All devices sharing device k's pilot (including k itself)."""
        return self.devices_on_pilot(self.pilot_of_device[k])


@dataclass(frozen=True)
class ChannelEstimate:
    """MMSE estimate of one device-receiver link.

    ``estimate_cov + error_cov`` equals the link's correlation matrix.
    """

    h_hat: np.ndarray        # (N,)
    estimate_cov: np.ndarray  # (N, N)
    error_cov: np.ndarray     # (N, N)


@dataclass(frozen=True)
class ChannelEstimateSet:
    """Estimates for every (device, receiver) pair, stacked into arrays."""

    h_hat: np.ndarray         # (K, R, N)
    estimate_cov: np.ndarray  # (K, R, N, N)
    error_cov: np.ndarray     # (K, R, N, N)


@dataclass(frozen=True)
class MmseStatistics:
    """What MMSE estimation of one receiver view needs besides the draw.

    factors[rx][t] is the Cholesky factor of the despread covariance of
    pilot t at receiver rx (None for an unused pilot).  The covariance
    arrays are read-only.
    """

    plan: PilotPlan
    correlations: np.ndarray  # (K, R, N, N)
    noise_power: float
    factors: tuple
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
    tau_p-symbol matrix observation is statistically equivalent.
    """
    channels = np.asarray(channels)
    _, n_rx, n_ant = channels.shape
    amp = np.sqrt(plan.pilot_power * plan.tau_p)
    y = np.zeros((plan.tau_p, n_rx, n_ant), dtype=complex)
    for t in range(plan.tau_p):
        sharers = plan.devices_on_pilot(t)
        if sharers.size:
            y[t] = np.tensordot(amp[sharers], channels[sharers], axes=(0, 0))
    noise = rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
    return y + np.sqrt(noise_power / 2.0) * noise


def _despread_covariance(plan, correlations, rx, pilot, noise_power):
    sharers = plan.devices_on_pilot(pilot)
    n_ant = correlations.shape[-1]
    xi = noise_power * np.eye(n_ant, dtype=complex)
    for i in sharers:
        xi = xi + plan.pilot_power[i] * plan.tau_p * correlations[i, rx]
    return xi


def _link_covariances(r_kl, factor, scale):
    """Estimate and error covariances of one link, both Hermitian."""
    est_cov = scale**2 * (r_kl @ cho_solve(factor, r_kl))
    est_cov = 0.5 * (est_cov + est_cov.conj().T)
    err_cov = r_kl - est_cov
    err_cov = 0.5 * (err_cov + err_cov.conj().T)
    return est_cov, err_cov


def mmse_estimate(y_kl, plan, correlations, k, rx, noise_power):
    """MMSE estimate of device k's channel at one receiver.

    ``y_kl`` is the despread observation for device k's pilot at that
    receiver.  Returns the estimate, its covariance, and the error
    covariance; the linear system is solved, never inverted.
    """
    correlations = np.asarray(correlations)
    r_kl = correlations[k, rx]
    xi = _despread_covariance(plan, correlations, rx, plan.pilot_of_device[k], noise_power)
    scale = np.sqrt(plan.pilot_power[k] * plan.tau_p)
    factor = cho_factor(xi)
    h_hat = scale * (r_kl @ cho_solve(factor, y_kl))
    est_cov, err_cov = _link_covariances(r_kl, factor, scale)
    return ChannelEstimate(h_hat=h_hat, estimate_cov=est_cov, error_cov=err_cov)


def mmse_statistics(plan, correlations, noise_power):
    """Draw-independent MMSE statistics of every (device, receiver) link.

    Factorizes each despread covariance once per (receiver, pilot) and
    derives every sharer's estimate and error covariances from it.  The
    covariance arrays are read-only: every coherence block shares them.
    """
    correlations = np.asarray(correlations)
    n_dev, n_rx, n_ant = correlations.shape[:3]
    scale = np.sqrt(plan.pilot_power * plan.tau_p)
    est_cov = np.zeros((n_dev, n_rx, n_ant, n_ant), dtype=complex)
    err_cov = np.zeros_like(est_cov)
    factors = []
    for rx in range(n_rx):
        row = []
        for t in range(plan.tau_p):
            sharers = plan.devices_on_pilot(t)
            factor = None
            if sharers.size:
                factor = cho_factor(
                    _despread_covariance(plan, correlations, rx, t, noise_power))
                for k in sharers:
                    est_cov[k, rx], err_cov[k, rx] = _link_covariances(
                        correlations[k, rx], factor, scale[k])
            row.append(factor)
        factors.append(tuple(row))
    est_cov.flags.writeable = False
    err_cov.flags.writeable = False
    return MmseStatistics(plan=plan, correlations=correlations,
                          noise_power=noise_power, factors=tuple(factors),
                          estimate_cov=est_cov, error_cov=err_cov)


def estimate_all(y_pilot, statistics):
    """MMSE estimates for every (device, receiver) pair of one block.

    Solves each (receiver, pilot) observation once against the per-seed
    factor and reuses it for all sharers of that pilot; the covariances
    are the statistics' shared arrays.
    """
    plan, correlations = statistics.plan, statistics.correlations
    scale = np.sqrt(plan.pilot_power * plan.tau_p)
    h_hat = np.zeros(correlations.shape[:3], dtype=complex)
    for rx, factors in enumerate(statistics.factors):
        for t, factor in enumerate(factors):
            if factor is None:
                continue
            solved_y = cho_solve(factor, y_pilot[t, rx])
            for k in plan.devices_on_pilot(t):
                h_hat[k, rx] = scale[k] * (correlations[k, rx] @ solved_y)
    return ChannelEstimateSet(h_hat=h_hat, estimate_cov=statistics.estimate_cov,
                              error_cov=statistics.error_cov)
