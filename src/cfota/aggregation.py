"""Aggregation-error minimization for over-the-air model uploads.

Implements the closed-form conditional MSE of the recovered weighted-sum
parameter, the MMSE receive combiners, the power-constrained transmit
coefficient update from the KKT conditions, and the alternating solver
that couples them, at three AP-cooperation levels plus a cellular
baseline:

* level 3: all AP signals are processed jointly (stacked combiners)
* level 2: identical combiners applied per AP, partial sums forwarded
  (same recovery as level 3, different fronthaul)
* level 1: per-AP combiners built from local estimates only, the
  recovery is a plain average of the per-AP estimates, full power
* cellular: each group is served by a single co-located array.

Level 3 and cellular share one solver core.  It sees the estimates through
channel views: one stacked view that every group's combiner uses at level
3, one view per serving BS in the cellular system.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag, cho_factor, cho_solve


class NonFiniteSolve(ValueError):
    """A solver system matrix or objective value is not finite."""


@dataclass(frozen=True)
class AggregationWeights:
    """Per-device and per-group quantities entering the MSE expressions.

    gamma[k] is device k's share of its own group's target (shares in a
    group sum to 1), omega[g] the group priority, nu[k] and theta_bar[k]
    the standard deviation and mean of the parameters device k transmits
    this round (the mean rides on the side channel).
    """

    gamma: np.ndarray      # (K,)
    omega: np.ndarray      # (G,)
    nu: np.ndarray         # (K,)
    theta_bar: np.ndarray  # (K,)


@dataclass(frozen=True)
class OptHistory:
    """Objective trace of one alternating-optimization run.

    values[0] is the weighted sum-MSE at the full-power initialization with
    matched combiners; values[i] the value after full iteration i.  The
    sequence is non-increasing (each half-step is an exact minimization).
    group_values[i] holds the per-group MSEs that values[i] weights.
    """

    values: np.ndarray
    iterations: int
    terminated_by: str  # "threshold" or "max_iters"
    group_values: np.ndarray  # (iterations + 1, G)


@dataclass(frozen=True)
class Level3Problem:
    """One coherence block seen by the central processor.

    h_hat[k] is device k's stacked estimate over all AP antennas and
    error_cov[k] the block-diagonal error covariance of the stack.
    """

    h_hat: np.ndarray          # (K, LN)
    error_cov: np.ndarray      # (K, LN, LN)
    group_of_device: np.ndarray
    weights: AggregationWeights
    noise_power: float
    power_limit: np.ndarray    # (K,)

    @property
    def n_groups(self):
        return len(self.weights.omega)


@dataclass(frozen=True)
class Level1Problem:
    """One coherence block seen per AP (local estimates only)."""

    h_hat: np.ndarray          # (K, L, N)
    error_cov: np.ndarray      # (K, L, N, N)
    group_of_device: np.ndarray
    weights: AggregationWeights
    noise_power: float
    power_limit: np.ndarray

    @property
    def n_groups(self):
        return len(self.weights.omega)

    @property
    def n_aps(self):
        return self.h_hat.shape[1]


@dataclass(frozen=True)
class CellularProblem:
    """One coherence block seen by the serving base stations.

    h_hat[g, k] is device k's estimate at the BS serving group g; every
    group has its own view of every device.
    """

    h_hat: np.ndarray          # (G, K, M)
    error_cov: np.ndarray      # (G, K, M, M)
    group_of_device: np.ndarray
    weights: AggregationWeights
    noise_power: float
    power_limit: np.ndarray

    @property
    def n_groups(self):
        return len(self.weights.omega)


@dataclass(frozen=True)
class AggregationSolution:
    """Transmit coefficients, combiners, multipliers, and solver history."""

    b: np.ndarray          # (K,) complex
    combiners: np.ndarray  # (G, dim) or (G, L, N)
    mu: np.ndarray         # (K,) KKT multipliers (zeros when no TCO ran)
    history: OptHistory


def stack_for_cpu(h_hat, error_cov):
    """Stack per-AP estimates into the centralized view.

    (K, L, N) estimates become (K, LN); per-AP error covariances become
    block-diagonal (K, LN, LN).
    """
    n_dev, n_aps, n_ant = h_hat.shape
    flat = h_hat.reshape(n_dev, n_aps * n_ant)
    cov = np.stack([block_diag(*error_cov[k]) for k in range(n_dev)])
    return flat, cov


def _target(problem, g):
    """gamma_k nu_k for devices of group g, zero elsewhere."""
    w = problem.weights
    own = problem.group_of_device == g
    return np.where(own, w.gamma * w.nu, 0.0)


def _system_matrix(h_hat, error_cov, b, noise_power):
    """sum_k |b_k|^2 (h_hat_k h_hat_k^H + C_k) + noise_power I, Hermitian."""
    p = np.abs(b) ** 2
    mat = np.einsum("k,ki,kj->ij", p, h_hat, h_hat.conj())
    mat = mat + np.tensordot(p, error_cov, axes=(0, 0))
    mat = mat + noise_power * np.eye(h_hat.shape[1])
    return 0.5 * (mat + mat.conj().T)


# ---------------------------------------------------------------------------
# Level 3 and cellular: one batched alternating solver
# ---------------------------------------------------------------------------

def _views(problem):
    """Estimates (Gv, K, D) and error covariances (Gv, K, D, D) per view.

    A level-3 problem has one view (Gv = 1) shared by every group; a
    cellular problem has one view per group (Gv = G).
    """
    if problem.h_hat.ndim == 2:
        return problem.h_hat[None], problem.error_cov[None]
    return problem.h_hat, problem.error_cov


class _Stack:
    """B problems that share estimates and weights and differ in power only.

    Every method takes and returns arrays with a leading problem axis B.
    Each problem's arithmetic is a separate matrix product or solve of the
    same shape whatever B is, so a problem gets bit-identical results alone
    and in any batch.
    """

    def __init__(self, problem):
        h, cov = _views(problem)
        n_views, n_dev, dim = h.shape
        w = problem.weights
        gdev = np.asarray(problem.group_of_device)
        self.n_groups = problem.n_groups
        self.n_views = n_views
        self.per_view = self.n_groups // n_views
        self.h_conj = h.conj()
        self.h_t = h.swapaxes(-1, -2)                                 # (Gv, D, K)
        self.cov = cov
        # Device axis first, so the error term is one product per problem
        # (a view, not a copy, of a level-3 or runner-built covariance).
        self.cov_by_device = cov.swapaxes(0, 1).reshape(n_dev, -1)    # (K, Gv*D*D)
        self.noise_power = problem.noise_power
        self.noise_eye = problem.noise_power * np.eye(dim)
        self.own = gdev == np.arange(self.n_groups)[:, None]          # (G, K)
        self.target = np.where(self.own, w.gamma * w.nu, 0.0)         # (G, K)
        self.gamma, self.nu, self.omega = w.gamma, w.nu, w.omega
        self.gain = w.omega[gdev] * w.gamma * w.nu                    # (K,)
        self.gdev, self.devices = gdev, np.arange(n_dev)

    def combiners(self, b):
        """MMSE combiners (B, G, D) of every group for coefficients b (B, K).

        One Hermitian system per problem and view, solved for all of the
        view's groups at once.
        """
        n_prob, n_dev = b.shape
        p = np.abs(b) ** 2
        mat = (self.h_t * p[:, None, None, :]) @ self.h_conj         # (B, Gv, D, D)
        mat = mat + (p[:, None, :] @ self.cov_by_device).reshape(mat.shape)
        mat = mat + self.noise_eye
        mat = 0.5 * (mat + mat.conj().swapaxes(-1, -2))
        if not np.isfinite(mat).all():
            raise NonFiniteSolve("combiner system matrix is not finite")
        coef = np.where(self.own, (self.gamma * b * self.nu)[:, None, :], 0.0)
        coef = coef.reshape(n_prob, self.n_views, self.per_view, n_dev)
        rhs = self.h_t @ coef.swapaxes(-1, -2)                        # (B, Gv, D, G/Gv)
        v = np.linalg.solve(mat, rhs)
        return v.swapaxes(-1, -2).reshape(n_prob, self.n_groups, -1)

    def forms(self, v):
        """proj[b, p, k] = v_p^H h_k and quad[b, p, k] = v_p^H C_k v_p, each
        in group p's view; shapes (B, G, K)."""
        n_prob, n_groups, dim = v.shape
        v = v.reshape(n_prob, self.n_views, self.per_view, dim)
        vh = v.conj()
        proj = (vh @ self.h_t).reshape(n_prob, n_groups, -1)
        left = vh[:, :, None] @ self.cov                              # (B, Gv, K, G/Gv, D)
        quad = (left * v[:, :, None]).sum(axis=-1).real
        return proj, quad.swapaxes(-1, -2).reshape(n_prob, n_groups, -1)

    def tco(self, proj, quad, sqrt_power):
        """Closed-form coefficient update of every device and its KKT multiplier.

        |b_k|^2 <= P_k always holds, and mu_k > 0 only on the boundary.
        """
        own = proj[:, self.gdev, self.devices]                        # (B, K)
        denom = (self.omega[:, None] * (np.abs(proj) ** 2 + quad)).sum(axis=1)
        mu = np.maximum(0.0, self.gain * np.abs(own) / sqrt_power - denom)
        den = denom + mu
        moving = den != 0.0
        b = np.zeros(den.shape, dtype=complex)
        np.divide(self.gain * own.conj(), den, out=b, where=moving)
        return b, np.where(moving, mu, 0.0)

    def group_mses(self, b, v, proj, quad):
        """Per-group conditional MSEs (B, G): signal mismatch, estimation-error
        inflation and combined noise."""
        bb = b[:, None, :]
        signal = (np.abs(proj * bb - self.target) ** 2).sum(axis=-1)
        inflation = (np.abs(bb) ** 2 * quad).sum(axis=-1)
        return signal + inflation + self.noise_power * (v.conj() * v).real.sum(axis=-1)

    def objective(self, mses):
        values = (mses * self.omega).sum(axis=-1)
        if not np.isfinite(values).all():
            raise NonFiniteSolve("weighted sum-MSE is not finite")
        return values


def _solve(stack, power_limits, eps, max_iters, b_init=None):
    """Lockstep block-coordinate descent over a stack of problems.

    Each iteration refreshes all combiners, then all coefficients; both are
    exact minimizations, so every problem's objective never increases.  A
    problem stops once an iteration decreases its objective by less than
    eps, and is dropped from the batch.
    """
    power = np.asarray(power_limits, dtype=float)
    n_prob = len(power)
    sqrt_power = np.sqrt(power)
    if b_init is None:
        b = sqrt_power.astype(complex)
    else:
        b = np.array(b_init, dtype=complex).reshape(power.shape)
    v = stack.combiners(b)
    proj, quad = stack.forms(v)
    mses = stack.group_mses(b, v, proj, quad)
    prev = stack.objective(mses)

    values = np.empty((n_prob, max_iters + 1))
    group_values = np.empty((n_prob, max_iters + 1, stack.n_groups))
    values[:, 0], group_values[:, 0] = prev, mses
    out_b, out_v, out_mu = b.copy(), v.copy(), np.zeros(power.shape)
    iterations = np.zeros(n_prob, dtype=int)
    ended = np.full(n_prob, "max_iters", dtype=object)
    live = np.arange(n_prob)
    for it in range(1, max_iters + 1):
        if it > 1:
            v = stack.combiners(b)
            proj, quad = stack.forms(v)
        b, mu = stack.tco(proj, quad, sqrt_power)
        mses = stack.group_mses(b, v, proj, quad)
        cur = stack.objective(mses)
        values[live, it], group_values[live, it] = cur, mses
        iterations[live] = it
        out_b[live], out_v[live], out_mu[live] = b, v, mu
        done = prev - cur < eps
        if done.any():
            ended[live[done]] = "threshold"
            keep = ~done
            live, b, sqrt_power, cur = live[keep], b[keep], sqrt_power[keep], cur[keep]
            if not live.size:
                break
        prev = cur

    solutions = []
    for i in range(n_prob):
        n = iterations[i] + 1
        history = OptHistory(values[i, :n].copy(), int(iterations[i]), ended[i],
                             group_values[i, :n].copy())
        solutions.append(AggregationSolution(b=out_b[i], combiners=out_v[i],
                                             mu=out_mu[i], history=history))
    return solutions


def _solve_one(problem, eps, max_iters, b_init):
    b0 = None if b_init is None else np.asarray(b_init)[None]
    return _solve(_Stack(problem), problem.power_limit[None], eps, max_iters, b0)[0]


def optimize_batch(problem, power_limits, eps=1e-10, max_iters=500):
    """Solve a stack of problems that differ only in their power limits.

    ``problem`` (level 3 or cellular) supplies the estimates and weights;
    row i of ``power_limits`` (B, K) replaces its power_limit in problem i.
    All problems iterate in lockstep from full power, each with its own
    stopping test, and each result equals that of ``alternating_optimize``
    (``cellular_optimize``) on the single problem.  Returns one
    AggregationSolution per row.
    """
    return _solve(_Stack(problem), power_limits, eps, max_iters)


def alternating_optimize(problem, eps=1e-10, max_iters=500, b_init=None):
    """Jointly tune level-3 combiners and transmit coefficients.

    Coefficients start at full power ``sqrt(P_k)`` unless b_init is given.
    """
    return _solve_one(problem, eps, max_iters, b_init)


def cellular_optimize(problem, eps=1e-10, max_iters=500, b_init=None):
    """Alternating combiner/coefficient optimization for the cellular system."""
    return _solve_one(problem, eps, max_iters, b_init)


def combiners_level3(problem, b):
    """All group combiners (G, D) for fixed coefficients, level 3 or cellular.

    Each is the global minimizer of its group's convex MSE.
    """
    return _Stack(problem).combiners(np.asarray(b, dtype=complex)[None])[0]


def tco_steps(problem, combiners):
    """Optimal coefficients and KKT multipliers of all devices, (K,) each,
    for fixed combiners: the vectorized update the solver runs."""
    stack = _Stack(problem)
    proj, quad = stack.forms(np.asarray(combiners)[None])
    b, mu = stack.tco(proj, quad, np.sqrt(problem.power_limit)[None])
    return b[0], mu[0]


def tco_step(problem, combiners, k):
    """Optimal transmit coefficient of device k for fixed combiners.

    Returns (b_k, mu_k) satisfying the stationarity and complementary
    slackness conditions of the power-constrained subproblem:
    |b_k|^2 <= P_k always holds, and mu_k > 0 only on the boundary.  A
    one-device reference for ``tco_steps``.
    """
    w = problem.weights
    g = int(problem.group_of_device[k])
    h, cov = _views(problem)
    per_view = len(combiners) // len(h)
    h_k = np.repeat(h[:, k], per_view, axis=0)       # device k in each group's view
    cov_k = np.repeat(cov[:, k], per_view, axis=0)
    proj = np.einsum("pi,pi->p", combiners.conj(), h_k)
    quad = np.einsum("pi,pij,pj->p", combiners.conj(), cov_k, combiners).real
    denom = float(np.dot(w.omega, np.abs(proj) ** 2 + quad))
    gain = w.omega[g] * w.gamma[k] * w.nu[k]
    mu = max(0.0, gain * abs(proj[g]) / np.sqrt(problem.power_limit[k]) - denom)
    if denom + mu == 0.0:
        return 0.0 + 0.0j, 0.0
    return gain * proj[g].conjugate() / (denom + mu), mu


def mse_level3(problem, b, v, g):
    """Conditional aggregation MSE of group g with combiner v.

    ``sum_k |v^H h_hat_k b_k - target_k|^2 + |b_k|^2 v^H C_k v`` plus the
    combined noise power, where target_k is gamma*nu for the group's own
    devices and 0 for interferers.  Takes a level-3 problem or a cellular
    one (the estimates at group g's serving BS).
    """
    stack = _Stack(problem)
    combiners = np.zeros((1, problem.n_groups, len(v)), dtype=complex)
    combiners[0, g] = v
    proj, quad = stack.forms(combiners)
    b = np.asarray(b, dtype=complex)[None]
    return float(stack.group_mses(b, combiners, proj, quad)[0, g])


mse_cellular = mse_level3


# ---------------------------------------------------------------------------
# Level 1: local combining, simple central averaging
# ---------------------------------------------------------------------------

def combiners_level1(problem, b):
    """Local combiners for every (group, AP); per-AP matrix factorized once."""
    n_groups, n_aps = problem.n_groups, problem.n_aps
    n_ant = problem.h_hat.shape[2]
    w = problem.weights
    out = np.empty((n_groups, n_aps, n_ant), dtype=complex)
    for ap in range(n_aps):
        mat = _system_matrix(problem.h_hat[:, ap], problem.error_cov[:, ap], b,
                             problem.noise_power)
        factor = cho_factor(mat)
        for g in range(n_groups):
            own = problem.group_of_device == g
            coef = np.where(own, w.gamma * b * w.nu, 0.0)
            out[g, ap] = cho_solve(factor, problem.h_hat[:, ap].T @ coef)
    return out


def channel_projections(combiners, channels):
    """Per-AP combined true channels u[g, k, l] = v_gl^H h_kl."""
    return np.einsum("gln,kln->gkl", combiners.conj(), channels)


def mse_level1(problem, b, combiners, projections, g):
    """Aggregation MSE of group g's averaged recovery, given combined channels.

    This conditions on the per-AP combined *true* channels (a simulation-side
    metric): with u fixed, only the symbols and noise are random, so there is
    no estimation-error inflation term.
    """
    n_aps = problem.n_aps
    mean_u = projections[g].mean(axis=1)            # (K,) averaged combined gains
    target = _target(problem, g)
    signal = np.abs(mean_u * b - target) ** 2
    noise = problem.noise_power * (np.abs(combiners[g]) ** 2).sum() / n_aps**2
    return float(signal.sum() + noise)


def weighted_sum_mse_level1(problem, b, combiners, projections):
    return float(sum(
        problem.weights.omega[g] * mse_level1(problem, b, combiners, projections, g)
        for g in range(problem.n_groups)
    ))


def level1_solution(problem):
    """Full-power coefficients and local combiners (no TCO at level 1)."""
    b = np.sqrt(problem.power_limit).astype(complex)
    combiners = combiners_level1(problem, b)
    history = OptHistory(np.array([]), 0, "threshold",
                         np.empty((0, problem.n_groups)))
    return AggregationSolution(b=b, combiners=combiners,
                               mu=np.zeros(len(b)), history=history)


# ---------------------------------------------------------------------------
# Recovery of one aggregated parameter from received signals
# ---------------------------------------------------------------------------

def combine_signals(level, signals, combiner):
    """Complex combiner output for one group, before the mean offset.

    ``signals`` is the per-AP receive tensor of shape (L, N) for a single
    slot or (L, N, D) for D slots (for the cellular level, the serving BS
    signal of shape (M,) or (M, D)).  ``level`` names the architecture,
    "level1" | "level2" | "level3" | "cellular", and the combiner matches
    it: stacked (LN,) for levels 3 and 2, per-AP (L, N) for level 1, (M,)
    for cellular.  Level 2 forms per-AP partial combines and sums them,
    which reproduces the level-3 value up to floating-point reassociation;
    level 1 averages the per-AP combines.
    """
    signals = np.asarray(signals)
    if level == "level3":
        flat = signals.reshape(-1, *signals.shape[2:])
        return np.tensordot(combiner.conj(), flat, axes=(0, 0))
    if level == "level2":
        per_ap = combiner.reshape(signals.shape[:2])
        partial = [np.tensordot(per_ap[ap].conj(), signals[ap], axes=(0, 0))
                   for ap in range(signals.shape[0])]
        return sum(partial)
    if level == "level1":
        per_ap = [np.tensordot(combiner[ap].conj(), signals[ap], axes=(0, 0))
                  for ap in range(signals.shape[0])]
        return sum(per_ap) / signals.shape[0]
    if level == "cellular":
        return np.tensordot(combiner.conj(), signals, axes=(0, 0))
    raise ValueError(f"unknown recovery level {level!r}")


def group_offset(weights, group_of_device, g):
    """Mean offset carried over the side channel for group g."""
    own = group_of_device == g
    return float(np.dot(weights.gamma[own], weights.theta_bar[own]))


def recover(level, signals, combiner, weights, group_of_device, g):
    """Recover group g's aggregated parameter(s) from received signals.

    The real part of the combined signal plus the group's mean offset; a
    scalar for single-slot signals, a length-D vector for (.., D) signals.
    See ``combine_signals`` for the accepted shapes per level.
    """
    combined = combine_signals(level, signals, combiner)
    return np.real(combined) + group_offset(weights, group_of_device, g)
