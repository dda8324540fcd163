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

Every receiver shares one combiner core.  It sees the estimates through
channel views of per-receiver blocks: one single-block view per AP at level
1 and one view of all L AP blocks at level 3, each serving every group, and
one single-block view per serving BS in the cellular system, serving its
own group only.  Level 3 and cellular also share the alternating solver
built on that core.
"""

from dataclasses import dataclass

import numpy as np


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


def _check_shapes(problem, views):
    """Raise ValueError, naming the field and both shapes, unless the
    estimates have the record's layout and the other fields agree with them.

    ``views`` is 1 if the device axis follows a view axis, 0 if it leads.
    """
    name = type(problem).__name__
    h = np.shape(problem.h_hat)
    if len(h) != 3:
        layout = "(G, K, M)" if views else "(K, L, N)"
        raise ValueError(f"{name}.h_hat has shape {h}, expected {layout}")
    cov = np.shape(problem.error_cov)
    if cov != h + h[-1:]:
        raise ValueError(f"{name}.error_cov has shape {cov}, expected {h + h[-1:]} "
                         f"for h_hat of shape {h}")
    n_dev = h[views]
    for field in ("group_of_device", "power_limit"):
        shape = np.shape(getattr(problem, field))
        if shape != (n_dev,):
            raise ValueError(f"{name}.{field} has shape {shape}, expected {(n_dev,)} "
                             f"for h_hat of shape {h}")
    if views and h[0] != problem.n_groups:
        raise ValueError(f"{name}.h_hat has shape {h}, expected one view per group "
                         f"({problem.n_groups})")


@dataclass(frozen=True)
class Level3Problem:
    """One coherence block seen by the central processor.

    h_hat[k, l] is device k's estimate at AP l and error_cov[k, l] its error
    covariance: the stacked error covariance is block diagonal, one N x N
    block per AP, and is never formed.  The CPU's combiners stack the APs'
    antennas, AP by AP, into L*N entries.
    """

    h_hat: np.ndarray          # (K, L, N)
    error_cov: np.ndarray      # (K, L, N, N)
    group_of_device: np.ndarray
    weights: AggregationWeights
    noise_power: float
    power_limit: np.ndarray    # (K,)

    def __post_init__(self):
        _check_shapes(self, 0)

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

    def __post_init__(self):
        _check_shapes(self, 0)

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

    def __post_init__(self):
        _check_shapes(self, 1)

    @property
    def n_groups(self):
        return len(self.weights.omega)


@dataclass(frozen=True)
class AggregationSolution:
    """Transmit coefficients, combiners, multipliers, and solver history."""

    b: np.ndarray          # (K,) complex
    combiners: np.ndarray  # (G, L*N), (G, M) or (G, L, N)
    mu: np.ndarray         # (K,) KKT multipliers (zeros when no TCO ran)
    history: OptHistory


def _target(problem, g):
    """gamma_k nu_k for devices of group g, zero elsewhere."""
    w = problem.weights
    own = problem.group_of_device == g
    return np.where(own, w.gamma * w.nu, 0.0)


# ---------------------------------------------------------------------------
# One combiner core; level 3 and cellular add the batched alternating solver
# ---------------------------------------------------------------------------

def _views(problem):
    """Estimates (Gv, K, nb, N), error blocks (Gv, K, nb, N, N), and whether
    every view serves every group.

    A view sees nb receivers of N antennas each, its combiners stack them
    into D = nb*N entries, and its error covariance is block diagonal.  A
    level-3 problem is one view of nb = L blocks and a level-1 problem L
    views of one block, each serving every group; a cellular problem has
    one single-block view per group (Gv = G), serving that group only.
    """
    if isinstance(problem, Level1Problem):
        return (problem.h_hat.swapaxes(0, 1)[:, :, None],
                problem.error_cov.swapaxes(0, 1)[:, :, None], True)
    if isinstance(problem, Level3Problem):
        return problem.h_hat[None], problem.error_cov[None], True
    return problem.h_hat[:, :, None], problem.error_cov[:, :, None], False


def _check_finite(mat):
    if not np.isfinite(mat).all():
        raise NonFiniteSolve("combiner system matrix is not finite")


class _Stack:
    """B problems that share estimates and weights and differ in power only.

    Every method takes and returns arrays with a leading problem axis B.
    Each problem's arithmetic is a separate matrix product or solve of the
    same shape whatever B is, so a problem gets bit-identical results alone
    and in any batch.  Level 1 uses ``combiners`` only.
    """

    def __init__(self, problem):
        h, cov, shared = _views(problem)
        n_views, n_dev, n_blocks, n_ant = h.shape
        w = problem.weights
        gdev = np.asarray(problem.group_of_device)
        self.n_groups = problem.n_groups
        self.n_views = n_views
        self.per_view = self.n_groups if shared else self.n_groups // n_views
        self.blocks = (n_blocks, n_ant)
        h = h.reshape(n_views, n_dev, n_blocks * n_ant)
        self.h_conj = h.conj()                                        # (Gv, K, D)
        self.h_t = h.swapaxes(-1, -2)                                 # (Gv, D, K)
        # Device axis first, so the error term of the combiner system is one
        # product per problem (a view, not a copy, of the problem's blocks).
        self.cov_by_device = cov.swapaxes(0, 1).reshape(n_dev, -1)    # (K, Gv*nb*N*N)
        # Blocks as columns, so the quadratic forms are one product per view.
        self.cov_cols = cov.reshape(n_views, n_dev, -1).swapaxes(-1, -2)  # (Gv, nb*N*N, K)
        self.noise_power = problem.noise_power
        self.noise_eye = problem.noise_power * np.eye(n_ant)
        self.own = gdev == np.arange(self.n_groups)[:, None]          # (G, K)
        self.target = np.where(self.own, w.gamma * w.nu, 0.0)         # (G, K)
        self.gamma, self.nu, self.omega = w.gamma, w.nu, w.omega
        self.gain = w.omega[gdev] * w.gamma * w.nu                    # (K,)
        self.gdev, self.devices = gdev, np.arange(n_dev)

    def combiners(self, b):
        """MMSE combiners of every group for coefficients b (B, K).

        One Hermitian system A = D + H P H^H per problem and view, solved
        for all of the view's groups at once; D = noise + sum_k p_k C_k is
        block diagonal.  A single-block view solves A directly.  A view of
        several blocks never forms A: by Woodbury, A^-1 H = D^-1 H (I + P
        H^H D^-1 H)^-1, one solve per N x N block and one K x K solve.  A
        group's combiner joins its part of every view: (B, G, D) at level 3
        and cellular, (B, G, L*N) at level 1.
        """
        n_prob, n_dev = b.shape
        n_blocks, n_ant = self.blocks
        p = np.abs(b) ** 2
        blocks = (p[:, None, :] @ self.cov_by_device).reshape(
            n_prob, self.n_views, n_blocks, n_ant, n_ant)
        coef = np.where(self.own, (self.gamma * b * self.nu)[:, None, :], 0.0)
        # (B, 1 or Gv, K, per_view): views that serve every group share one set.
        coef = coef.reshape(n_prob, -1, self.per_view, n_dev).swapaxes(-1, -2)
        if n_blocks == 1:
            mat = (self.h_t * p[:, None, None, :]) @ self.h_conj       # (B, Gv, D, D)
            mat = mat + blocks[:, :, 0] + self.noise_eye
            mat = 0.5 * (mat + mat.conj().swapaxes(-1, -2))
            _check_finite(mat)
            v = np.linalg.solve(mat, self.h_t @ coef)                 # (B, Gv, D, per_view)
        else:
            # A weighted sum of Hermitian blocks: LU needs no symmetrizing.
            blocks = blocks + self.noise_eye
            _check_finite(blocks)
            h_blocks = self.h_t.reshape(self.n_views, n_blocks, n_ant, n_dev)
            x = np.linalg.solve(blocks, h_blocks).reshape(
                n_prob, self.n_views, -1, n_dev)                      # D^-1 H: (B, Gv, D, K)
            small = self.h_conj @ x                                   # H^H D^-1 H: (B, Gv, K, K)
            small = p[:, None, :, None] * small + np.eye(n_dev)
            _check_finite(small)
            v = x @ np.linalg.solve(small, coef)
        return v.transpose(0, 3, 1, 2).reshape(n_prob, self.n_groups, -1)

    def forms(self, v):
        """proj[b, p, k] = v_p^H h_k and quad[b, p, k] = v_p^H C_k v_p, each
        in group p's view; shapes (B, G, K).

        quad sums the per-block forms: the flattened outer products of each
        block of v_p times the flattened error blocks.
        """
        n_prob, n_groups, dim = v.shape
        n_blocks, n_ant = self.blocks
        lead = (n_prob, self.n_views, self.per_view)
        v = v.reshape(*lead, dim)
        vh = v.conj()
        proj = (vh @ self.h_t).reshape(n_prob, n_groups, -1)
        outer = (vh.reshape(*lead, n_blocks, n_ant, 1)
                 * v.reshape(*lead, n_blocks, 1, n_ant))             # (B, Gv, G/Gv, nb, N, N)
        quad = (outer.reshape(*lead, -1) @ self.cov_cols).real
        return proj, quad.reshape(n_prob, n_groups, -1)

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
    one-device reference for the update in ``tco_steps``.  Device k's
    projections and quadratic forms come from the combiner core: near the
    boundary mu_k is the difference of two nearly equal terms, which a
    one-ulp change in those forms moves by more than 1e-12.
    """
    w = problem.weights
    g = int(problem.group_of_device[k])
    proj, quad = _Stack(problem).forms(np.asarray(combiners)[None])
    proj, quad = proj[0, :, k], quad[0, :, k]
    mag = np.abs(proj)
    denom = float((w.omega * (mag ** 2 + quad)).sum())
    gain = w.omega[g] * w.gamma[k] * w.nu[k]
    mu = max(0.0, gain * mag[g] / np.sqrt(problem.power_limit[k]) - denom)
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
    """Local combiners (G, L, N) of every group at every AP for coefficients b."""
    combiners = _Stack(problem).combiners(np.asarray(b, dtype=complex)[None])
    return combiners.reshape(problem.n_groups, problem.n_aps, -1)


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


def level1_batch(problem, power_limits):
    """Full-power coefficients and local combiners (no TCO at level 1) of a
    stack of problems that differ only in their power limits.

    Row i of ``power_limits`` (B, K) replaces the power_limit of ``problem``
    in problem i; each result equals ``level1_solution`` on that problem.
    Returns one AggregationSolution per row.
    """
    b = np.sqrt(np.asarray(power_limits, dtype=float)).astype(complex)
    combiners = _Stack(problem).combiners(b).reshape(len(b), problem.n_groups,
                                                     problem.n_aps, -1)
    no_steps = np.empty((0, problem.n_groups))
    return [AggregationSolution(b=b_i, combiners=v_i, mu=np.zeros(len(b_i)),
                                history=OptHistory(np.array([]), 0, "threshold", no_steps))
            for b_i, v_i in zip(b, combiners)]


def level1_solution(problem):
    """Full-power coefficients and local combiners (no TCO at level 1)."""
    return level1_batch(problem, problem.power_limit[None])[0]


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
