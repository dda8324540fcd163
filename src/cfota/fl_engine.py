"""Federated training over the simulated uplink.

Covers parameter normalization, the over-the-air round of a block of
seeds (every device of every seed sends at once, and each group recovers
its weighted aggregate from the superposed slots with one combiner of the
antennas it hears, level 1's average of local combines included), and a
convergence harness that bounds the optimality gap of strongly convex
tasks in terms of the per-round aggregation errors.  A small feedforward
classifier with a tanh hidden layer, softmax output, and analytic
gradients is included for end-to-end runs.  Both gradients take a stack
of devices, each with its own shard, as well as a single one.
"""

import numpy as np

from . import CfotaError


class DegenerateVariance(CfotaError):
    """Raised when a parameter vector has zero variance and cannot be scaled."""


class NonFiniteParameters(DegenerateVariance):
    """Raised when a parameter vector's mean or spread is not finite, as
    after a diverging local update."""


class InvalidConstants(CfotaError):
    """Raised when curvature constants are inconsistent (xi > chi) or singular."""


class ShapeMismatch(CfotaError):
    """Raised when an input does not match the model's expected dimensions."""


def normalize(theta):
    """Zero-mean, unit-power scaling of each parameter vector (last axis).

    Returns the scaled vectors and each vector's mean and population
    standard deviation (divisor D), so every scaled vector has sample mean
    0 and sample second moment 1.  Leading axes index devices (and seeds),
    each row scaled exactly as it would be alone.  A vector whose mean or
    spread is not finite raises NonFiniteParameters, a constant one
    DegenerateVariance.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim < 1 or theta.shape[-1] < 2:
        raise ValueError("expected parameter vectors with at least 2 entries")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = theta.mean(axis=-1, keepdims=True)
        std = np.sqrt(np.mean((theta - mean) ** 2, axis=-1, keepdims=True))
    if not np.isfinite(std).all():  # a non-finite mean makes std NaN or inf
        raise NonFiniteParameters("parameter vector with a non-finite mean or spread "
                                  "cannot be normalized")
    if np.any(std == 0.0):
        raise DegenerateVariance("constant parameter vector cannot be normalized")
    return (theta - mean) / std, mean[..., 0], std[..., 0]


# ---------------------------------------------------------------------------
# Over-the-air round
# ---------------------------------------------------------------------------

def _group_sums(gamma, x):
    """Weighted sums (S, G, ...) of each group's rows of x (S, K, ...), whose
    devices are in group order; gamma[g] (G, K/G) weights group g's rows."""
    n_groups, size = gamma.shape
    return (gamma[:, None] @ x.reshape(len(x), n_groups, size, -1))[..., 0, :]


def ota_block(local, symbols, theta_bar, gamma, b=None, channels=None,
              noise=None, combiners=None):
    """One uplink round of a block of seeds: every device sends at once, and
    each group's aggregate is recovered from the superposed slots.

    ``local`` (S, K, D) holds seed s's device parameters in group order,
    ``symbols`` their normalized form and ``theta_bar`` (S, K) their means;
    gamma[g] (G, K/G) is the share of each of group g's devices in its
    target.  Device k sends b[s, k] * symbols[s, k], one entry per slot,
    through ``channels`` (S, K, Gs, R) to R receive antennas, and the
    receivers add ``noise`` (S, Gs, R, D).  Gs is 1 when every group hears
    the same receivers and G when group g hears its own.  Group g combines
    what it hears with combiners[s, g] (R,).  Without ``b`` the round is
    error-free.

    Combining is linear, so no receiver's signal is formed: group g's
    output is its gains u_gk = v_g^H h_k (G, K) applied to the sent
    symbols, plus its combined noise v_g^H z.  Each seed runs alone, so its
    products have one shape in any block.

    Returns the recovered parameters (S, G, D), the real combiner output
    plus the group's mean offset, and the realized squared error (S, G) of
    the complex output against the desired aggregate: the quantity the
    closed-form MSE predicts, which the recovered parameters' error never
    exceeds.
    """
    desired = _group_sums(gamma, local)
    if b is None:
        return desired, np.zeros(desired.shape[:2])
    n_seeds, n_groups, n_rx = combiners.shape
    vh = combiners.conj().reshape(n_seeds, channels.shape[2], -1, n_rx)  # (S, Gs, G/Gs, R)
    combined = np.stack([
        (v @ h).reshape(n_groups, -1) @ (b_s[:, None] * x) + (v @ z).reshape(n_groups, -1)
        for b_s, x, h, z, v in zip(b, symbols, channels.transpose(0, 2, 3, 1), noise, vh)])
    offset = _group_sums(gamma, theta_bar[..., None])
    return (np.real(combined) + offset,
            (np.abs(desired - (combined + offset)) ** 2).sum(axis=-1))


# ---------------------------------------------------------------------------
# Convergence harness for strongly convex tasks
# ---------------------------------------------------------------------------

class RidgeTask:
    """Regularized least squares split across devices.

    F(theta) = ||X theta - y||^2 / (2n) + ridge/2 ||theta||^2, with the
    rows sharded over devices so that the data-size-weighted average of the
    local losses reproduces F.  The gradient-Lipschitz constant ``chi`` and
    strong-convexity constant ``xi`` are the extreme eigenvalues of the
    Hessian, which is independent of theta.  A Hessian that is singular to
    working precision, xi <= F eps chi for F features (fewer rows than
    features and a negligible ridge, say), leaves no unique optimum and
    raises InvalidConstants.
    """

    def __init__(self, features, targets, ridge, shards):
        self.features = np.asarray(features, dtype=float)
        self.targets = np.asarray(targets, dtype=float)
        self.ridge = float(ridge)
        self.shards = [np.asarray(s) for s in shards]
        n, n_features = self.features.shape
        hess = self.features.T @ self.features / n + self.ridge * np.eye(n_features)
        eigs = np.linalg.eigvalsh(hess)
        self.chi = float(eigs[-1])
        self.xi = float(eigs[0])
        if self.xi <= n_features * np.finfo(float).eps * self.chi:
            raise InvalidConstants(f"ridge={self.ridge} with {n} rows of {n_features} features "
                                   "leaves the Hessian singular")
        self._hessian = hess

    def loss(self, theta):
        resid = self.features @ theta - self.targets
        return float(0.5 * np.mean(resid**2) + 0.5 * self.ridge * theta @ theta)

    def optimum(self):
        rhs = self.features.T @ self.targets / len(self.features)
        return np.linalg.solve(self._hessian, rhs)

    def optimal_value(self):
        return self.loss(self.optimum())


def ridge_gradient(theta, features, targets, ridge):
    """Gradient of ||X theta - y||^2 / (2n) + ridge/2 ||theta||^2.

    Leading axes of theta (..., F), features (..., n, F) and targets
    (..., n) index devices, each with its own shard of n rows.
    """
    resid = (features @ theta[..., None])[..., 0] - targets
    return ((features.swapaxes(-1, -2) @ resid[..., None])[..., 0]
            / features.shape[-2] + ridge * theta)


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
    the network plugs directly into the transmission pipeline.  Leading
    axes of the parameters and the batch index a stack of devices.
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
        lead = b1.shape[:-1]
        return np.concatenate([w1.reshape(*lead, -1), b1, w2.reshape(*lead, -1), b2],
                              axis=-1)

    def unpack(self, theta):
        """Weights (..., F, H), (..., H, C) and biases (..., H), (..., C)."""
        if theta.shape[-1] != self.n_params:
            raise ShapeMismatch(
                f"expected {self.n_params} parameters, got {theta.shape[-1]}")
        lead = theta.shape[:-1]
        i = self.n_inputs * self.n_hidden
        w1 = theta[..., :i].reshape(*lead, self.n_inputs, self.n_hidden)
        b1 = theta[..., i:i + self.n_hidden]
        j = i + self.n_hidden
        w2 = theta[..., j:j + self.n_hidden * self.n_outputs].reshape(
            *lead, self.n_hidden, self.n_outputs)
        b2 = theta[..., j + self.n_hidden * self.n_outputs:]
        return w1, b1, w2, b2

    def _check_batch(self, batch):
        batch = np.asarray(batch, dtype=float)
        if batch.ndim < 2 or batch.shape[-1] != self.n_inputs:
            raise ShapeMismatch(
                f"expected inputs of width {self.n_inputs}, got {batch.shape}")
        return batch

    def _logits(self, theta, batch):
        """Output logits per sample, before the softmax."""
        batch = self._check_batch(batch)
        w1, b1, w2, b2 = self.unpack(theta)
        return np.tanh(batch @ w1 + b1[..., None, :]) @ w2 + b2[..., None, :]

    def loss(self, theta, batch, onehot):
        """Cross-entropy averaged over the batch; labels are one-hot rows.

        Takes one device, for a float, or a stack of devices each with its
        own shard, for each one's mean: theta (..., P), batch (..., n, F)
        and onehot (..., n, C), of the logits' shape.
        """
        logits = self._logits(theta, batch)
        onehot = np.asarray(onehot, dtype=float)
        if onehot.shape != logits.shape:
            raise ShapeMismatch(f"labels must be one-hot of shape {logits.shape}")
        top = logits.max(axis=-1, keepdims=True)
        logz = np.log(np.exp(logits - top).sum(axis=-1, keepdims=True)) + top
        loss = -np.mean(((logits - logz) * onehot).sum(axis=-1), axis=-1)
        return float(loss) if loss.ndim == 0 else loss

    def gradient(self, theta, batch, onehot):
        """Exact backpropagation of the mean cross-entropy.

        Takes one device, or a stack of devices each with its own shard:
        theta (..., P), batch (..., n, F) and onehot (..., n, C).
        """
        batch = self._check_batch(batch)
        w1, b1, w2, b2 = self.unpack(theta)
        onehot = np.asarray(onehot, dtype=float)
        n = batch.shape[-2]
        hidden = np.tanh(batch @ w1 + b1[..., None, :])
        logits = hidden @ w2 + b2[..., None, :]
        logits = logits - logits.max(axis=-1, keepdims=True)
        expl = np.exp(logits)
        probs = expl / expl.sum(axis=-1, keepdims=True)

        dlogits = (probs - onehot) / n
        dw2 = hidden.swapaxes(-1, -2) @ dlogits
        db2 = dlogits.sum(axis=-2)
        dhidden = (dlogits @ w2.swapaxes(-1, -2)) * (1.0 - hidden**2)
        dw1 = batch.swapaxes(-1, -2) @ dhidden
        db1 = dhidden.sum(axis=-2)
        return self.pack(dw1, db1, dw2, db2)

    def accuracy(self, theta, batch, labels):
        """Share of correctly labelled samples, per device of a stack: the
        predicted class is the largest logit, as the softmax keeps order."""
        predicted = self._logits(theta, batch).argmax(axis=-1)
        return np.mean(predicted == np.asarray(labels), axis=-1)


def onehot(labels, n_classes):
    labels = np.asarray(labels, dtype=int)
    out = np.zeros((len(labels), n_classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out
