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
channel views of per-receiver blocks.  Levels 1 and 3 read the same AP-side
record: level 1 as one single-block view per AP and level 3 as one view of
all L AP blocks, each serving every group.  The cellular system has one
single-block view per serving BS, serving its own group only.  Level 3 and
cellular also share the alternating solver built on that core.
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
    """Raise ValueError, naming the field, unless the estimates have the
    record's layout and the other fields agree with them: per-device arrays
    of K entries and group ids in 0..G-1, G being the number of priorities.

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
    w = problem.weights
    for field, value in (("group_of_device", problem.group_of_device),
                         ("power_limit", problem.power_limit), ("weights.gamma", w.gamma),
                         ("weights.nu", w.nu), ("weights.theta_bar", w.theta_bar)):
        shape = np.shape(value)
        if shape != (n_dev,):
            raise ValueError(f"{name}.{field} has shape {shape}, expected {(n_dev,)} "
                             f"for h_hat of shape {h}")
    gdev = np.asarray(problem.group_of_device)
    stray = gdev[(gdev < 0) | (gdev >= problem.n_groups)]
    if stray.size:
        raise ValueError(f"{name}.group_of_device holds {np.unique(stray).tolist()}, "
                         f"expected group ids in 0..{problem.n_groups - 1}")
    if views and h[0] != problem.n_groups:
        raise ValueError(f"{name}.h_hat has shape {h}, expected one view per group "
                         f"({problem.n_groups})")


@dataclass(frozen=True)
class Level3Problem:
    """One coherence block seen by the APs, read per AP at level 1 and
    jointly by the central processor at levels 2 and 3.

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


# ---------------------------------------------------------------------------
# One combiner core; level 3 and cellular add the batched alternating solver
# ---------------------------------------------------------------------------

def _views(problem, per_ap):
    """Estimates (Gv, K, nb, N), error blocks (Gv, K, nb, N, N), and whether
    every view serves every group.

    A view sees nb receivers of N antennas each, its combiners stack them
    into D = nb*N entries, and its error covariance is block diagonal.  An
    AP-side record is one view of nb = L blocks, or L views of one block
    when read ``per_ap``, each serving every group; a cellular problem has
    one single-block view per group (Gv = G), serving that group only.
    """
    if isinstance(problem, CellularProblem):
        return problem.h_hat[:, :, None], problem.error_cov[:, :, None], False
    if per_ap:
        return (problem.h_hat.swapaxes(0, 1)[:, :, None],
                problem.error_cov.swapaxes(0, 1)[:, :, None], True)
    return problem.h_hat[None], problem.error_cov[None], True


def _stack_like(arrays):
    """Same-shape arrays stacked on a new leading axis, each laid out in
    memory as the first one is: a transposed view stays transposed.  One
    array is not copied.

    BLAS picks its kernel by operand layout, so a problem's products see
    the same layout alone and in any stack.
    """
    first = arrays[0]
    if len(arrays) == 1:
        return first[None]
    order = sorted(range(first.ndim), key=lambda axis: -first.strides[axis])
    dtype = np.result_type(*{array.dtype for array in arrays})
    out = np.empty((len(arrays),) + tuple(first.shape[axis] for axis in order), dtype=dtype)
    out = out.transpose(0, *(1 + order.index(axis) for axis in range(first.ndim)))
    for i, array in enumerate(arrays):
        out[i] = array
    return out


def _check_finite(mat, live):
    """Raise NonFiniteSolve unless every recorded row of ``mat`` is finite;
    ``live`` masks the (S, P) rows, None meaning all."""
    finite = np.isfinite(mat)
    if not finite.all() and (live is None or not finite[live].all()):
        raise NonFiniteSolve("combiner system matrix is not finite")


class _Stack:
    """S problems, each at the same P rows of power limits: a seeds x powers
    rectangle.

    Every method takes and returns arrays with leading axes (S, P).  A
    problem's estimates, error blocks and weights are held once, with a
    unit power axis that broadcasts over its rows.  Each row's arithmetic is
    a separate matrix product or solve of the same shape and operand layout
    whatever S and P are, so a row gets bit-identical results alone and in
    any rectangle.  Level 1 reads the AP-side records ``per_ap`` and uses
    ``combiners`` only.
    """

    def __init__(self, problems, per_ap=False):
        first = problems[0]
        views = [_views(problem, per_ap) for problem in problems]
        h, cov = (_stack_like([view[i] for view in views]) for i in (0, 1))
        shared = views[0][2]
        n_seeds, n_views, n_dev, n_blocks, n_ant = h.shape
        gdev = np.asarray(first.group_of_device)
        self.n_groups = first.n_groups
        self.n_views = n_views
        self.per_view = self.n_groups if shared else self.n_groups // n_views
        self.blocks = (n_blocks, n_ant)
        h = h.reshape(n_seeds, 1, n_views, n_dev, n_blocks * n_ant)
        self.h_conj = h.conj()                                        # (S, 1, Gv, K, D)
        self.h_t = h.swapaxes(-1, -2)                                 # (S, 1, Gv, D, K)
        self.h_blocks = self.h_t.reshape(n_seeds, 1, n_views, n_blocks, n_ant, n_dev)
        # Device axis first, so the error term of the combiner system is one
        # product per row (a view of the stacked blocks, not a copy per row).
        self.cov_by_device = cov.swapaxes(1, 2).reshape(n_seeds, 1, n_dev, -1)
        # Blocks as columns, so the quadratic forms are one product per view.
        self.cov_cols = cov.reshape(n_seeds, 1, n_views, n_dev, -1).swapaxes(-1, -2)
        self.noise_power = first.noise_power
        self.noise_eye = first.noise_power * np.eye(n_ant)
        self.own = gdev == np.arange(self.n_groups)[:, None]          # (G, K)
        gamma, nu = (np.stack([getattr(p.weights, name) for p in problems])[:, None]
                     for name in ("gamma", "nu"))                     # (S, 1, K)
        self.target = np.where(self.own, (gamma * nu)[..., None, :], 0.0)  # (S, 1, G, K)
        self.gamma, self.nu, self.omega = gamma, nu, first.weights.omega
        self.gain = self.omega[gdev] * gamma * nu                     # (S, 1, K)
        self.gdev, self.devices = gdev, np.arange(n_dev)

    def combiners(self, b, live=None):
        """MMSE combiners of every group for coefficients b (S, P, K).

        One Hermitian system A = D + H P H^H per row and view, solved for
        all of the view's groups at once; D = noise + sum_k p_k C_k is
        block diagonal.  A single-block view solves A directly.  A view of
        several blocks never forms A: by Woodbury, A^-1 H = D^-1 H (I + P
        H^H D^-1 H)^-1, one solve per N x N block and one K x K solve.  A
        group's combiner joins its part of every view: (S, P, G, D) at level
        3 and cellular, (S, P, G, L*N) at level 1.  Only the rows that
        ``live`` marks (None: all) are checked for finite systems.
        """
        rows, n_dev = b.shape[:2], b.shape[-1]
        n_blocks, n_ant = self.blocks
        p = np.abs(b) ** 2
        blocks = (p[..., None, :] @ self.cov_by_device).reshape(
            *rows, self.n_views, n_blocks, n_ant, n_ant)
        coef = np.where(self.own, (self.gamma * b * self.nu)[..., None, :], 0.0)
        # (S, P, 1 or Gv, K, per_view): views that serve every group share one set.
        coef = coef.reshape(*rows, -1, self.per_view, n_dev).swapaxes(-1, -2)
        if n_blocks == 1:
            mat = (self.h_t * p[..., None, None, :]) @ self.h_conj    # (S, P, Gv, D, D)
            mat = mat + blocks[..., 0, :, :] + self.noise_eye
            mat = 0.5 * (mat + mat.conj().swapaxes(-1, -2))
            _check_finite(mat, live)
            v = np.linalg.solve(mat, self.h_t @ coef)                 # (S, P, Gv, D, per_view)
        else:
            # A weighted sum of Hermitian blocks: LU needs no symmetrizing.
            blocks = blocks + self.noise_eye
            _check_finite(blocks, live)
            x = np.linalg.solve(blocks, self.h_blocks).reshape(
                *rows, self.n_views, -1, n_dev)                       # D^-1 H: (S, P, Gv, D, K)
            small = self.h_conj @ x                                   # H^H D^-1 H: (S, P, Gv, K, K)
            small = p[..., None, :, None] * small + np.eye(n_dev)
            _check_finite(small, live)
            v = x @ np.linalg.solve(small, coef)
        return v.transpose(0, 1, 4, 2, 3).reshape(*rows, self.n_groups, -1)

    def forms(self, v):
        """proj[s, r, p, k] = v_p^H h_k and quad[s, r, p, k] = v_p^H C_k v_p,
        each in group p's view; shapes (S, P, G, K).

        quad sums the per-block forms: the flattened outer products of each
        block of v_p times the flattened error blocks.
        """
        *rows, n_groups, dim = v.shape
        n_blocks, n_ant = self.blocks
        lead = (*rows, self.n_views, self.per_view)
        v = v.reshape(*lead, dim)
        vh = v.conj()
        proj = (vh @ self.h_t).reshape(*rows, n_groups, -1)
        outer = (vh.reshape(*lead, n_blocks, n_ant, 1)
                 * v.reshape(*lead, n_blocks, 1, n_ant))             # (S, P, Gv, G/Gv, nb, N, N)
        quad = (outer.reshape(*lead, -1) @ self.cov_cols).real
        return proj, quad.reshape(*rows, n_groups, -1)

    def tco(self, proj, quad, sqrt_power):
        """Closed-form coefficient update of every device and its KKT multiplier.

        |b_k|^2 <= P_k always holds, and mu_k > 0 only on the boundary.
        """
        own = proj[..., self.gdev, self.devices]                      # (S, P, K)
        denom = (self.omega[:, None] * (np.abs(proj) ** 2 + quad)).sum(axis=-2)
        mu = np.maximum(0.0, self.gain * np.abs(own) / sqrt_power - denom)
        den = denom + mu
        moving = den != 0.0
        b = np.zeros(den.shape, dtype=complex)
        np.divide(self.gain * own.conj(), den, out=b, where=moving)
        return b, np.where(moving, mu, 0.0)

    def group_mses(self, b, v, proj, quad):
        """Per-group conditional MSEs (S, P, G): signal mismatch,
        estimation-error inflation and combined noise."""
        bb = b[..., None, :]
        signal = (np.abs(proj * bb - self.target) ** 2).sum(axis=-1)
        inflation = (np.abs(bb) ** 2 * quad).sum(axis=-1)
        return signal + inflation + self.noise_power * (v.conj() * v).real.sum(axis=-1)

    def objective(self, mses, live=None):
        values = (mses * self.omega).sum(axis=-1)
        finite = np.isfinite(values)
        if not finite.all() and (live is None or not finite[live].all()):
            raise NonFiniteSolve("weighted sum-MSE is not finite")
        return values


def _solve(problems, power_limits, eps, max_iters, b_init=None):
    """Lockstep block-coordinate descent over a seeds x powers rectangle.

    Row (s, i) is problem s at power_limits[i].  Each iteration refreshes
    all combiners, then all coefficients; both are exact minimizations, so
    every row's objective never increases.  A row stops once an iteration
    decreases its objective by less than eps.  A problem leaves the
    rectangle once all its rows have stopped, and a power column once it
    has stopped in every remaining problem; a stopped row still inside the
    rectangle keeps being computed, but it is neither recorded nor checked.
    """
    power = np.asarray(power_limits, dtype=float)
    shape = (len(problems), len(power))
    sqrt_power = np.broadcast_to(np.sqrt(power), shape + power.shape[1:])
    if b_init is None:
        b = sqrt_power.astype(complex)
    else:
        b = np.array(b_init, dtype=complex).reshape(sqrt_power.shape)
    stack = _Stack(problems)
    v = stack.combiners(b)
    proj, quad = stack.forms(v)
    mses = stack.group_mses(b, v, proj, quad)
    prev = stack.objective(mses)

    values = np.empty(shape + (max_iters + 1,))
    group_values = np.empty(shape + (max_iters + 1, stack.n_groups))
    values[..., 0], group_values[..., 0, :] = prev, mses
    mu = np.zeros(b.shape)
    out_b, out_v, out_mu = (np.empty_like(a) for a in (b, v, mu))
    iterations = np.zeros(shape, dtype=int)
    ended = np.empty(shape, dtype=object)
    seeds, cols = np.arange(shape[0]), np.arange(shape[1])    # the rectangle
    at = (slice(None), slice(None))                           # its place in the grid
    active = np.ones(shape, dtype=bool)                       # its unstopped rows
    live = None                                               # active, or None if all are

    def record(rows, it, how):
        where = (seeds[rows[0]], cols[rows[1]])
        iterations[where], ended[where] = it, how
        out_b[where], out_v[where], out_mu[where] = b[rows], v[rows], mu[rows]

    for it in range(1, max_iters + 1):
        if it > 1:
            v = stack.combiners(b, live)
            proj, quad = stack.forms(v)
        b, mu = stack.tco(proj, quad, sqrt_power)
        mses = stack.group_mses(b, v, proj, quad)
        cur = stack.objective(mses, live)
        values[at + (it,)], group_values[at + (it,)] = cur, mses
        done = prev - cur < eps
        if live is not None:
            done &= live
        if done.any():
            record(np.nonzero(done), it, "threshold")
            active &= ~done
            keep_s, keep_c = active.any(axis=1), active.any(axis=0)
            if not keep_s.any():
                break
            if not keep_s.all():
                seeds = seeds[keep_s]
                stack = _Stack([problems[s] for s in seeds])
            kept = np.ix_(keep_s, keep_c)
            cols = cols[keep_c]
            at = np.ix_(seeds, cols)
            active, b, v, mu, sqrt_power, cur = (
                a[kept] for a in (active, b, v, mu, sqrt_power, cur))
            live = None if active.all() else active
        prev = cur
    else:
        record(np.nonzero(active), max_iters, "max_iters")

    return [[AggregationSolution(
                b=out_b[s, i], combiners=out_v[s, i], mu=out_mu[s, i],
                history=OptHistory(values[s, i, :iterations[s, i] + 1].copy(),
                                   int(iterations[s, i]), ended[s, i],
                                   group_values[s, i, :iterations[s, i] + 1].copy()))
             for i in range(shape[1])] for s in range(shape[0])]


def _check_batch(problems):
    """Raise ValueError, naming the field, unless the problems can share one
    rectangle: the same kind, shape, grouping, priorities and noise power."""
    first = problems[0]
    for i, problem in enumerate(problems[1:], start=1):
        if type(problem) is not type(first):
            raise ValueError(f"problem {i} is a {type(problem).__name__}, "
                             f"problem 0 a {type(first).__name__}")
        for field, mine, theirs in (
                ("h_hat shape", np.shape(problem.h_hat), np.shape(first.h_hat)),
                ("group_of_device", problem.group_of_device, first.group_of_device),
                ("weights.omega", problem.weights.omega, first.weights.omega),
                ("noise_power", problem.noise_power, first.noise_power)):
            if not np.array_equal(mine, theirs):
                raise ValueError(f"problem {i} differs from problem 0 in {field}: "
                                 f"{mine} != {theirs}")


def optimize_batch(problems, power_limits, eps=1e-10, max_iters=500):
    """Solve every problem at every row of power limits, all in lockstep.

    ``problems`` are AP-side or cellular problems of one kind that share
    their shape, grouping, priorities and noise power, and differ in their
    estimates, error blocks and weights: one channel draw each.  Row i of
    ``power_limits`` (P, K) replaces each problem's power_limit.  Every
    (problem, row) pair iterates from full power with its own stopping
    test, and its result equals that of ``alternating_optimize`` on the
    single problem.  Returns, per problem, one AggregationSolution per row.
    """
    _check_batch(problems)
    return _solve(problems, power_limits, eps, max_iters)


def alternating_optimize(problem, eps=1e-10, max_iters=500, b_init=None):
    """Jointly tune the combiners and transmit coefficients of one AP-side
    problem, viewed jointly at the CPU, or one cellular problem.

    Coefficients start at full power ``sqrt(P_k)`` unless b_init is given.
    """
    return _solve([problem], problem.power_limit[None], eps, max_iters, b_init)[0][0]


def tco_step(problem, combiners, k):
    """Optimal transmit coefficient of device k for fixed combiners.

    Returns (b_k, mu_k) satisfying the stationarity and complementary
    slackness conditions of the power-constrained subproblem:
    |b_k|^2 <= P_k always holds, and mu_k > 0 only on the boundary.  A
    one-device reference for the solver's vectorized update.  Device k's
    projections and quadratic forms come from the combiner core: near the
    boundary mu_k is the difference of two nearly equal terms, which a
    one-ulp change in those forms moves by more than 1e-12.
    """
    w = problem.weights
    g = int(problem.group_of_device[k])
    proj, quad = _Stack([problem]).forms(np.asarray(combiners)[None, None])
    proj, quad = proj[0, 0, :, k], quad[0, 0, :, k]
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
    devices and 0 for interferers.  Takes an AP-side problem, viewed jointly,
    or a cellular one (the estimates at group g's serving BS).
    """
    stack = _Stack([problem])
    combiners = np.zeros((1, 1, problem.n_groups, len(v)), dtype=complex)
    combiners[0, 0, g] = v
    proj, quad = stack.forms(combiners)
    b = np.asarray(b, dtype=complex)[None, None]
    return float(stack.group_mses(b, combiners, proj, quad)[0, 0, g])


# ---------------------------------------------------------------------------
# Level 1: local combining, simple central averaging
# ---------------------------------------------------------------------------

def channel_projections(combiners, channels):
    """Per-AP combined true channels u[..., g, k, l] = v_gl^H h_kl of
    combiners (..., G, L, N) and channels (..., K, L, N)."""
    return np.einsum("...gln,...kln->...gkl", combiners.conj(), channels)


def level1_mses(problems, b, combiners, projections):
    """Aggregation MSEs (S, P, G) of every group's averaged recovery, given
    combined channels: problem s at row p has coefficients b[s, p] (K,),
    combiners[s, p] (G, L, N) and projections[s, p] (G, K, L).

    This conditions on the per-AP combined *true* channels (a simulation-side
    metric): with u fixed, only the symbols and noise are random, so there is
    no estimation-error inflation term.
    """
    first = problems[0]
    n_aps = combiners.shape[-2]
    # Contiguous, so that each sum adds its terms in one order whatever the
    # layout of the arrays passed in.
    combiners, projections = map(np.ascontiguousarray, (combiners, projections))
    gamma_nu = np.stack([p.weights.gamma * p.weights.nu for p in problems])
    own = first.group_of_device == np.arange(first.n_groups)[:, None]
    target = np.where(own, gamma_nu[:, None, None, :], 0.0)       # (S, 1, G, K)
    mean_u = projections.mean(axis=-1)                             # averaged combined gains
    signal = (np.abs(mean_u * b[..., None, :] - target) ** 2).sum(axis=-1)
    power = np.abs(combiners) ** 2
    power = power.reshape(*power.shape[:-2], -1).sum(axis=-1)
    return signal + first.noise_power * power / n_aps**2


def level1_batch(problems, power_limits):
    """Full-power coefficients and local combiners (no TCO at level 1) of
    every problem at every row of power limits.

    ``problems`` are AP-side records, each viewed per AP, that share their
    shape, grouping, priorities and noise power, as for ``optimize_batch``.
    Row i of ``power_limits`` (P, K) replaces each problem's power_limit;
    each result equals ``level1_solution`` on that problem.  Returns, per
    problem, one AggregationSolution per row.
    """
    _check_batch(problems)
    first = problems[0]
    if isinstance(first, CellularProblem):
        raise ValueError("level 1 combines per AP and takes Level3Problem records, "
                         "not a CellularProblem")
    b = np.sqrt(np.asarray(power_limits, dtype=float)).astype(complex)
    combiners = _Stack(problems, per_ap=True).combiners(
        np.broadcast_to(b, (len(problems),) + b.shape))
    combiners = combiners.reshape(*combiners.shape[:3], first.h_hat.shape[1], -1)
    no_steps = np.empty((0, first.n_groups))
    return [[AggregationSolution(b=b_i, combiners=v_i, mu=np.zeros(len(b_i)),
                                 history=OptHistory(np.array([]), 0, "threshold", no_steps))
             for b_i, v_i in zip(b, row)] for row in combiners]


def level1_solution(problem):
    """Full-power coefficients and local combiners (no TCO at level 1) of
    one AP-side problem, viewed per AP."""
    return level1_batch([problem], problem.power_limit[None])[0][0]
