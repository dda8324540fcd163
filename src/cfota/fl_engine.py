"""Federated training over the simulated uplink.

Covers parameter normalization, local gradient steps, the desired weighted
aggregate, slot-by-slot over-the-air transmission, and a convergence
harness that bounds the optimality gap of strongly convex tasks in terms
of the per-round aggregation errors.  A small feedforward classifier with
a tanh hidden layer, softmax output, and analytic gradients is included
for end-to-end runs.
"""

from dataclasses import dataclass

import numpy as np

from . import aggregation


class DegenerateVariance(ValueError):
    """Raised when a parameter vector has zero variance and cannot be scaled."""


class InvalidConstants(ValueError):
    """Raised when curvature constants are inconsistent (xi > chi)."""


class ShapeMismatch(ValueError):
    """Raised when an input does not match the model's expected dimensions."""


@dataclass(frozen=True)
class NormalizationStats:
    """Mean and population standard deviation of one parameter vector."""

    mean: float
    std: float


def normalize(theta):
    """Zero-mean, unit-power scaling of a parameter vector.

    Uses the population convention (divisor D), so the scaled vector has
    sample mean 0 and sample second moment 1.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.size < 2:
        raise ValueError("expected a parameter vector with at least 2 entries")
    mean = theta.mean()
    std = np.sqrt(np.mean((theta - mean) ** 2))
    if std == 0.0:
        raise DegenerateVariance("constant parameter vector cannot be normalized")
    return (theta - mean) / std, NormalizationStats(mean=float(mean), std=float(std))


def denormalize(s, stats):
    """Invert ``normalize``."""
    return np.asarray(s) * stats.std + stats.mean


def local_update(theta, gradient_fn, eta):
    """One full-batch gradient step on the local loss."""
    return np.asarray(theta) - eta * gradient_fn(np.asarray(theta))


def desired_global(local_params, gamma):
    """Weighted sum of local parameter vectors; weights must sum to 1."""
    gamma = np.asarray(gamma, dtype=float)
    if abs(gamma.sum() - 1.0) > 1e-9:
        raise ValueError("aggregation weights must sum to 1")
    return np.tensordot(gamma, np.asarray(local_params), axes=(0, 0))


# ---------------------------------------------------------------------------
# Over-the-air round
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoundLink:
    """Channel state and solver outputs driving one round's uplink.

    ``level`` selects the architecture: "level1" | "level2" | "level3" use
    the AP channels with the matching combiner shape, "cellular" uses
    ``bs_channels`` (device k's channel to the BS serving group g at index
    [k, g]), and "errorfree" bypasses the channel entirely.
    """

    level: str
    noise_power: float = 0.0
    b: np.ndarray | None = None            # (K,) complex
    combiners: np.ndarray | None = None    # (G, LN), (G, L, N) or (G, M)
    channels: np.ndarray | None = None     # (K, L, N) true AP channels
    bs_channels: np.ndarray | None = None  # (K, G, M) true BS channels


@dataclass(frozen=True)
class OtaRoundResult:
    """Outcome of one uplink round.

    ``error_sq`` is the realized squared aggregation error of the complex
    combiner output (the quantity the closed-form MSE predicts); the
    returned parameters are its real projection, whose error never
    exceeds it.
    """

    recovered: np.ndarray   # (G, D)
    desired: np.ndarray     # (G, D)
    error_sq: np.ndarray    # (G,)
    stats: tuple            # per-device NormalizationStats


def ota_round(local_params, link, gamma, omega, group_of_device, rng):
    """Transmit all devices' parameters simultaneously and recover per group.

    Every device normalizes its parameter vector, scales it by its transmit
    coefficient, and sends one entry per slot; receiver noise is fresh per
    slot and per AP (or BS).  Recovery follows the link's cooperation
    level.
    """
    local_params = np.asarray(local_params, dtype=float)
    n_dev, n_dims = local_params.shape
    group_of_device = np.asarray(group_of_device)
    n_groups = int(group_of_device.max()) + 1

    desired = np.stack([
        desired_global(local_params[group_of_device == g],
                       np.asarray(gamma)[group_of_device == g])
        for g in range(n_groups)
    ])

    pairs = [normalize(local_params[k]) for k in range(n_dev)]
    symbols = np.stack([p[0] for p in pairs])          # (K, D)
    stats = tuple(p[1] for p in pairs)

    if link.level == "errorfree":
        recovered = desired.copy()
        return OtaRoundResult(recovered=recovered, desired=desired,
                              error_sq=np.zeros(n_groups), stats=stats)

    weights = aggregation.AggregationWeights(
        gamma=np.asarray(gamma, dtype=float),
        omega=np.asarray(omega, dtype=float),
        nu=np.array([s.std for s in stats]),
        theta_bar=np.array([s.mean for s in stats]),
    )
    sent = link.b[:, None] * symbols                   # (K, D)

    recovered = np.empty((n_groups, n_dims))
    error_sq = np.empty(n_groups)
    for g in range(n_groups):
        if link.level == "cellular":
            y = np.einsum("km,kd->md", link.bs_channels[:, g], sent)
            y = y + _cn_noise(y.shape, link.noise_power, rng)
        elif g == 0:
            y = np.einsum("kln,kd->lnd", link.channels, sent)
            y = y + _cn_noise(y.shape, link.noise_power, rng)
        combined = aggregation.combine_signals(link.level, y, link.combiners[g])
        offset = aggregation.group_offset(weights, group_of_device, g)
        recovered[g] = np.real(combined) + offset
        error_sq[g] = float(np.abs(desired[g] - (combined + offset)) ** 2
                            @ np.ones(n_dims))
    return OtaRoundResult(recovered=recovered, desired=desired,
                          error_sq=error_sq, stats=stats)


def _cn_noise(shape, power, rng):
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return np.sqrt(power / 2.0) * z


# ---------------------------------------------------------------------------
# Convergence harness for strongly convex tasks
# ---------------------------------------------------------------------------

class RidgeTask:
    """Regularized least squares split across devices.

    F(theta) = ||X theta - y||^2 / (2n) + ridge/2 ||theta||^2, with the
    rows sharded over devices so that the data-size-weighted average of the
    local losses reproduces F.  The gradient-Lipschitz constant ``chi`` and
    strong-convexity constant ``xi`` are the extreme eigenvalues of the
    Hessian, which is independent of theta.
    """

    def __init__(self, features, targets, ridge, shards):
        self.features = np.asarray(features, dtype=float)
        self.targets = np.asarray(targets, dtype=float)
        self.ridge = float(ridge)
        self.shards = [np.asarray(s) for s in shards]
        n = len(self.features)
        hess = self.features.T @ self.features / n + self.ridge * np.eye(
            self.features.shape[1])
        eigs = np.linalg.eigvalsh(hess)
        self.chi = float(eigs[-1])
        self.xi = float(eigs[0])
        self._hessian = hess

    @property
    def n_devices(self):
        return len(self.shards)

    def shard_fractions(self):
        sizes = np.array([len(s) for s in self.shards], dtype=float)
        return sizes / sizes.sum()

    def loss(self, theta):
        resid = self.features @ theta - self.targets
        return float(0.5 * np.mean(resid**2) + 0.5 * self.ridge * theta @ theta)

    def gradient(self, theta):
        resid = self.features @ theta - self.targets
        return self.features.T @ resid / len(self.features) + self.ridge * theta

    def device_gradient(self, theta, device):
        rows = self.shards[device]
        resid = self.features[rows] @ theta - self.targets[rows]
        return self.features[rows].T @ resid / len(rows) + self.ridge * theta

    def optimum(self):
        rhs = self.features.T @ self.targets / len(self.features)
        return np.linalg.solve(self._hessian, rhs)

    def optimal_value(self):
        return self.loss(self.optimum())


def optimality_gap_bound(chi, xi, initial_gap, error_sq):
    """Upper bound on the expected optimality gap after each round.

    For a chi-smooth, xi-strongly-convex objective trained with step size
    1/chi and per-round mean squared aggregation errors ``error_sq``, the
    gap after round t obeys the recursion
    ``bound_t = lam * bound_{t-1} + chi/2 * error_sq[t-1]`` with
    ``lam = 1 - xi/chi``.  Returns the trajectory for t = 0..T.
    """
    if xi > chi:
        raise InvalidConstants(f"strong convexity {xi} exceeds smoothness {chi}")
    if xi <= 0 or chi <= 0:
        raise InvalidConstants("curvature constants must be positive")
    lam = 1.0 - xi / chi
    bounds = np.empty(len(error_sq) + 1)
    bounds[0] = initial_gap
    for t, err in enumerate(np.asarray(error_sq, dtype=float), start=1):
        bounds[t] = lam * bounds[t - 1] + 0.5 * chi * err
    return bounds


# ---------------------------------------------------------------------------
# Feedforward classifier with analytic gradients
# ---------------------------------------------------------------------------

class Fnn:
    """One-hidden-layer classifier: tanh hidden, softmax output, cross-entropy.

    Parameters live in one flat vector (weights then biases per layer) so
    the network plugs directly into the transmission pipeline.
    """

    def __init__(self, n_inputs, n_hidden, n_outputs):
        self.n_inputs = n_inputs
        self.n_hidden = n_hidden
        self.n_outputs = n_outputs
        self.n_params = n_inputs * n_hidden + n_hidden + n_hidden * n_outputs + n_outputs

    def init_params(self, rng):
        """Uniform(+-sqrt(6/(fan_in+fan_out))) weights, zero biases."""
        lim1 = np.sqrt(6.0 / (self.n_inputs + self.n_hidden))
        lim2 = np.sqrt(6.0 / (self.n_hidden + self.n_outputs))
        w1 = rng.uniform(-lim1, lim1, size=(self.n_inputs, self.n_hidden))
        w2 = rng.uniform(-lim2, lim2, size=(self.n_hidden, self.n_outputs))
        return self.pack(w1, np.zeros(self.n_hidden), w2, np.zeros(self.n_outputs))

    def pack(self, w1, b1, w2, b2):
        return np.concatenate([w1.ravel(), b1, w2.ravel(), b2])

    def unpack(self, theta):
        if len(theta) != self.n_params:
            raise ShapeMismatch(
                f"expected {self.n_params} parameters, got {len(theta)}")
        i = self.n_inputs * self.n_hidden
        w1 = theta[:i].reshape(self.n_inputs, self.n_hidden)
        b1 = theta[i:i + self.n_hidden]
        j = i + self.n_hidden
        w2 = theta[j:j + self.n_hidden * self.n_outputs].reshape(
            self.n_hidden, self.n_outputs)
        b2 = theta[j + self.n_hidden * self.n_outputs:]
        return w1, b1, w2, b2

    def _check_batch(self, batch):
        batch = np.asarray(batch, dtype=float)
        if batch.ndim != 2 or batch.shape[1] != self.n_inputs:
            raise ShapeMismatch(
                f"expected inputs of width {self.n_inputs}, got {batch.shape}")
        return batch

    def forward(self, theta, batch):
        """Class probabilities per sample (rows sum to 1)."""
        batch = self._check_batch(batch)
        w1, b1, w2, b2 = self.unpack(theta)
        hidden = np.tanh(batch @ w1 + b1)
        logits = hidden @ w2 + b2
        logits = logits - logits.max(axis=1, keepdims=True)
        expl = np.exp(logits)
        return expl / expl.sum(axis=1, keepdims=True)

    def loss(self, theta, batch, onehot):
        """Cross-entropy averaged over the batch; labels are one-hot rows."""
        batch = self._check_batch(batch)
        w1, b1, w2, b2 = self.unpack(theta)
        onehot = np.asarray(onehot, dtype=float)
        if onehot.shape != (len(batch), self.n_outputs):
            raise ShapeMismatch(f"labels must be one-hot of shape "
                                f"({len(batch)}, {self.n_outputs})")
        hidden = np.tanh(batch @ w1 + b1)
        logits = hidden @ w2 + b2
        logz = np.log(np.exp(logits - logits.max(axis=1, keepdims=True))
                      .sum(axis=1, keepdims=True)) + logits.max(axis=1, keepdims=True)
        return float(-np.mean(((logits - logz) * onehot).sum(axis=1)))

    def gradient(self, theta, batch, onehot):
        """Exact backpropagation of the mean cross-entropy."""
        batch = self._check_batch(batch)
        w1, b1, w2, b2 = self.unpack(theta)
        onehot = np.asarray(onehot, dtype=float)
        n = len(batch)
        hidden = np.tanh(batch @ w1 + b1)
        logits = hidden @ w2 + b2
        logits = logits - logits.max(axis=1, keepdims=True)
        expl = np.exp(logits)
        probs = expl / expl.sum(axis=1, keepdims=True)

        dlogits = (probs - onehot) / n
        dw2 = hidden.T @ dlogits
        db2 = dlogits.sum(axis=0)
        dhidden = (dlogits @ w2.T) * (1.0 - hidden**2)
        dw1 = batch.T @ dhidden
        db1 = dhidden.sum(axis=0)
        return self.pack(dw1, db1, dw2, db2)

    def accuracy(self, theta, batch, labels):
        probs = self.forward(theta, batch)
        return float(np.mean(probs.argmax(axis=1) == np.asarray(labels)))


def onehot(labels, n_classes):
    labels = np.asarray(labels, dtype=int)
    out = np.zeros((len(labels), n_classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out
