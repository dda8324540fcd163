"""Aggregation-error minimization for over-the-air model uploads.

Implements the closed-form conditional MSE of the recovered weighted-sum
parameter, the MMSE receive combiners, the power-constrained transmit
coefficient update from the KKT conditions, and the alternating solver
that couples them, at three AP-cooperation levels plus a cellular
baseline:

* level 3: all AP signals are processed jointly (stacked combiners)
* level 2: identical combiners applied per AP, partial sums forwarded
  (same estimate as level 3, different fronthaul)
* level 1: per-AP combiners built from local estimates only, the
  group's estimate is a plain average of the per-AP ones, full power
* cellular: each group is served by a single co-located array.

Every architecture reads one record, a ``Level3Problem`` of K devices
seen by L receivers, through channel views of its per-receiver blocks,
and shares one combiner core.  Level 3 reads the AP-side record as one
view of all L AP blocks and level 1 as one single-block view per AP, each
view serving every group.  The cellular baseline reads the serving-BS
record, which says so with ``cellular=True``, as one single-block view per
BS, serving its own group only.  Level 3 and cellular also share the
alternating solver built on that core.

A record holds one coherence block or, with a leading seed axis on its
estimates, error blocks and parameter spreads nu, one block of each seed of
a seed block; the batch entry points solve every seed of such a record at
once.  ``optimize_batch`` returns one solution record, scored by
``_Stack.group_mses``, the one level-3 and cellular scorer (the tests
check it against the formula in ``tests/oracles.mse_level3``), and
``level1_batch`` the coefficients, combiners and MSEs on the true
channels.  ``tco_step`` reads one solved row, a record without a seed axis
at power limits (K,) with ``sol.combiners[s, i]`` (G, D): the benchmark's
tests pin it.
"""

from dataclasses import dataclass, replace

import numpy as np
from numpy.linalg import _umath_linalg

from . import CfotaError


class NonFiniteSolve(CfotaError):
    """A solver system matrix or objective value is not finite, or a
    combiner system is singular."""


@dataclass(frozen=True)
class AggregationWeights:
    """Per-device and per-group quantities entering the MSE expressions.

    gamma[k] is device k's share of its own group's target (shares in a
    group sum to 1), omega[g] the group priority and nu[k] the standard
    deviation of the parameters device k transmits this round.
    """

    gamma: np.ndarray  # (K,)
    omega: np.ndarray  # (G,)
    nu: np.ndarray     # ([S,] K): per seed in a seed block's record


def _check_shapes(problem):
    """Raise ValueError, naming the field, unless the estimates have the
    record's layout, with or without a leading seed axis, and the other
    fields agree with them: K entries per device, per seed for nu, group
    ids in 0..G-1, G being the number of priorities, and, for a
    serving-BS record, G receivers.  The noise power must be finite and
    >= 0, and every priority finite and > 0.
    """
    name = type(problem).__name__
    h = np.shape(problem.h_hat)
    if len(h) not in (3, 4):
        raise ValueError(f"{name}.h_hat has shape {h}, expected (K, L, N) or (S, K, L, N)")
    cov = np.shape(problem.error_cov)
    if cov != h + h[-1:]:
        raise ValueError(f"{name}.error_cov has shape {cov}, expected {h + h[-1:]} "
                         f"for h_hat of shape {h}")
    seeds = h[:-3]
    n_dev = h[len(seeds)]
    w = problem.weights
    for field, value, lead in (
            ("group_of_device", problem.group_of_device, ()),
            ("weights.gamma", w.gamma, ()), ("weights.nu", w.nu, seeds)):
        shape = np.shape(value)
        if shape != lead + (n_dev,):
            raise ValueError(f"{name}.{field} has shape {shape}, expected "
                             f"{lead + (n_dev,)} for h_hat of shape {h}")
    gdev = np.asarray(problem.group_of_device)
    stray = gdev[(gdev < 0) | (gdev >= problem.n_groups)]
    if stray.size:
        raise ValueError(f"{name}.group_of_device holds {np.unique(stray).tolist()}, "
                         f"expected group ids in 0..{problem.n_groups - 1}")
    if not 0.0 <= problem.noise_power < np.inf:
        raise ValueError(f"{name}.noise_power is {problem.noise_power}, expected finite >= 0")
    if not all(0.0 < x < np.inf for x in w.omega):
        raise ValueError(f"{name}.weights.omega is {np.asarray(w.omega).tolist()}, "
                         "expected finite priorities > 0")
    if problem.cellular and h[-2] != problem.n_groups:
        raise ValueError(f"{name}.h_hat has shape {h}, expected one serving BS per "
                         f"group ({problem.n_groups}) in the cellular view")


@dataclass(frozen=True)
class Level3Problem:
    """One coherence block seen by L receivers of N antennas each: the APs,
    read per AP at level 1 and jointly by the central processor at levels 2
    and 3, or, ``cellular``, the serving BSs, one per group (L = G), read
    per BS by the cellular baseline.

    h_hat[k, l] is device k's estimate at receiver l and error_cov[k, l] its
    error covariance: the stacked error covariance is block diagonal, one
    N x N block per receiver, and is never formed.  The CPU's combiners
    stack the APs' antennas, AP by AP, into L*N entries.

    A seed block's record has a leading seed axis on h_hat (S, K, L, N),
    error_cov (S, K, L, N, N) and weights.nu (S, K); the grouping, shares,
    priorities and noise power are held once.
    """

    h_hat: np.ndarray          # ([S,] K, L, N)
    error_cov: np.ndarray      # ([S,] K, L, N, N)
    group_of_device: np.ndarray
    weights: AggregationWeights
    noise_power: float
    cellular: bool = False

    def __post_init__(self):
        _check_shapes(self)

    @property
    def n_groups(self):
        return len(self.weights.omega)


@dataclass(frozen=True)
class AggregationSolution:
    """Alternating solves of (seed, row of power limits) pairs:
    coefficients, combiners, KKT multipliers, how each solve ended, and its
    traces.  Every field leads with (S, P) axes.  values[s, i, j] is row
    (s, i)'s weighted sum-MSE after iteration j (j = 0: the start) and never
    increases; group_values holds the per-group MSEs it weights.  A row's
    traces are NaN after its own iterations.
    """

    b: np.ndarray             # (S, P, K) complex
    combiners: np.ndarray     # (S, P, G, L*N) or (S, P, G, M)
    mu: np.ndarray            # (S, P, K) KKT multipliers
    iterations: np.ndarray    # (S, P) int
    terminated_by: np.ndarray  # (S, P) "threshold" or "max_iters"
    values: np.ndarray        # (S, P, iterations.max() + 1)
    group_values: np.ndarray  # values' axes, then (G,)


# ---------------------------------------------------------------------------
# One combiner core; level 3 and cellular add the batched alternating solver
# ---------------------------------------------------------------------------

def _views(problem, per_receiver):
    """Estimates (S, Gv, K, nb, N) and error blocks (S, Gv, K, nb, N, N) of
    a record's Gv views.

    A view sees nb receivers of N antennas each, its combiners stack them
    into D = nb*N entries, and its error covariance is block diagonal.  A
    record is one view of all nb = L receivers or, ``per_receiver``, L views
    of one receiver each.  A record without a seed axis is a block of one
    seed.
    """
    h, cov = problem.h_hat, problem.error_cov
    if h.ndim == 3:
        h, cov = h[None], cov[None]
    if per_receiver:
        return h.swapaxes(1, 2)[:, :, :, None], cov.swapaxes(1, 2)[:, :, :, None]
    return h[:, None], cov[:, None]


def _take_seeds(problem, seeds):
    """The record of the given seeds of a seed block's record.

    Indexing the seed axis keeps each seed's memory layout (a transposed
    view stays transposed), and BLAS picks its kernel by operand layout, so
    a seed's products see the same layout in any rectangle.
    """
    w = problem.weights
    return replace(problem, h_hat=problem.h_hat[seeds], error_cov=problem.error_cov[seeds],
                   weights=replace(w, nu=w.nu[seeds]))


# The fill of the combiner coefficients: a complex zero spares np.where a cast.
_ZERO = np.zeros((), dtype=complex)


def _check_finite(arr, live, what):
    """Raise NonFiniteSolve, naming ``what``, unless every row of ``arr``
    that ``live`` marks is finite: the solver passes its (S, P) mask of the
    rows it will record, level 1 None, meaning all rows.

    Here and in the solver loop, ``count_nonzero`` tests all and any: at
    the solver's sizes it costs half a ufunc reduction.
    """
    finite = np.isfinite(arr)
    if np.count_nonzero(finite) < finite.size and (
            live is None or not finite[live].all()):
        raise NonFiniteSolve(f"{what} is not finite")


def _power_rows(problem, power_limits):
    """``power_limits`` as floats; ValueError unless they are P >= 1 rows
    of K finite limits > 0."""
    power, h = np.asarray(power_limits, dtype=float), np.shape(problem.h_hat)
    if power.ndim != 2 or power.shape[1] != h[-3] or not len(power):
        raise ValueError(f"power_limits has shape {power.shape}, expected (P, {h[-3]}) "
                         f"for h_hat of shape {h}")
    bad = power[~(np.isfinite(power) & (power > 0.0))]
    if bad.size:
        raise ValueError(f"power_limits holds {np.unique(bad).tolist()}, "
                         "expected finite limits > 0")
    return power


def _raise_not_finite(err, flag):
    raise NonFiniteSolve("a combiner system is singular or an iterate is not finite")


def _invalid_raises():
    """The floating-point handling that every combiner solve runs under: an
    invalid value, such as the NaN rows that LAPACK leaves for a singular
    system, raises NonFiniteSolve at once instead of a RuntimeWarning.  The
    entry points hold it for a whole solve."""
    return np.errstate(call=_raise_not_finite, invalid="call")


def _lu_solve(a, b):
    """x = a^-1 b of stacked complex systems a (..., M, M), b (..., M, R).

    This is the LAPACK gufunc behind ``numpy.linalg.solve``, so the same
    call and the same bits, without that function's per-call type checks
    and errstate, which cost more than the solve at the solver's sizes.
    Call it under ``_invalid_raises()``.
    """
    return _umath_linalg.solve(a, b, signature="DD->D")


class _Stack:
    """The S seeds of a record, each at the same P rows of power limits: a
    seeds x powers rectangle.

    Every method takes and returns arrays with leading axes (S, P).  A
    seed's estimates, error blocks and weights are held once, with a unit
    power axis that broadcasts over its rows.  Each row's arithmetic is a
    separate matrix product or solve of the same shape and operand layout
    whatever S and P are, so a row gets bit-identical results alone and in
    any rectangle.

    Level 3 reads the AP-side record as one view serving every group.
    Level 1 reads it ``per_ap``, one view per AP serving every group, and
    uses ``combiners`` only.  The cellular baseline's serving-BS record is
    read as one view per BS, view g serving group g only.
    """

    def __init__(self, problem, per_ap=False):
        h, cov = _views(problem, per_ap or problem.cellular)
        n_seeds, n_views, n_dev, n_blocks, n_ant = h.shape
        gdev = np.asarray(problem.group_of_device)
        self.n_seeds = n_seeds
        self.n_groups = problem.n_groups
        self.n_views = n_views
        self.per_view = 1 if problem.cellular else self.n_groups
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
        # The real constants that meet complex operands are held as complex:
        # numpy would cast them, to the same values, in every such operation.
        self.noise_power = problem.noise_power
        self.noise_eye = (problem.noise_power * np.eye(n_ant)).astype(complex)
        self.eye = np.eye(n_dev, dtype=complex)
        self.own = gdev == np.arange(self.n_groups)[:, None]          # (G, K)
        w = problem.weights
        gamma, nu = np.reshape(w.gamma, (1, 1, n_dev)), np.reshape(w.nu, (n_seeds, 1, n_dev))
        self.target = np.where(self.own, (gamma * nu)[..., None, :], 0.0).astype(
            complex)                                                  # (S, 1, G, K)
        self.gamma, self.nu = gamma.astype(complex), nu.astype(complex)
        self.omega = w.omega
        self.omega_col = self.omega[:, None]
        self.gain = self.omega[gdev] * gamma * nu                     # (S, 1, K)
        self.gain_c = self.gain.astype(complex)
        self.gdev, self.devices = gdev, np.arange(n_dev)

    def combiners(self, b, p, live=None):
        """MMSE combiners of every group for coefficients b (S, P, K) of
        powers p = |b|^2.

        One Hermitian system A = D + H P H^H per row and view, solved for
        all of the view's groups at once; D = noise + sum_k p_k C_k is
        block diagonal.  A single-block view solves A directly.  A view of
        several blocks never forms A: by Woodbury, A^-1 H = D^-1 H (I + P
        H^H D^-1 H)^-1, one solve per N x N block and one K x K solve.  A
        group's combiner joins its part of every view: (S, P, G, D) at level
        3 and cellular, (S, P, G, L*N) at level 1.  Only the rows that
        ``live`` marks (None: all) are checked for finite systems.  Call it
        under ``_invalid_raises()``.
        """
        rows, n_dev = b.shape[:2], b.shape[-1]
        n_blocks, n_ant = self.blocks
        blocks = (p[..., None, :] @ self.cov_by_device).reshape(
            *rows, self.n_views, n_blocks, n_ant, n_ant)
        coef = np.where(self.own, (self.gamma * b * self.nu)[..., None, :], _ZERO)
        # (S, P, 1 or Gv, K, per_view): views that serve every group share one set.
        coef = coef.reshape(*rows, -1, self.per_view, n_dev).swapaxes(-1, -2)
        if n_blocks == 1:
            mat = (self.h_t * p[..., None, None, :]) @ self.h_conj    # (S, P, Gv, D, D)
            mat = mat + blocks[..., 0, :, :] + self.noise_eye
            mat = 0.5 * (mat + mat.conj().swapaxes(-1, -2))
            _check_finite(mat, live, "combiner system matrix")
            v = _lu_solve(mat, self.h_t @ coef)                       # (S, P, Gv, D, per_view)
        else:
            # A weighted sum of Hermitian blocks: LU needs no symmetrizing.
            blocks = blocks + self.noise_eye
            _check_finite(blocks, live, "combiner system matrix")
            x = _lu_solve(blocks, self.h_blocks).reshape(
                *rows, self.n_views, -1, n_dev)                       # D^-1 H: (S, P, Gv, D, K)
            small = self.h_conj @ x                                   # H^H D^-1 H: (S, P, Gv, K, K)
            small = p[..., None, :, None] * small + self.eye
            _check_finite(small, live, "combiner system matrix")
            v = x @ _lu_solve(small, coef)
        return v.transpose(0, 1, 4, 2, 3).reshape(*rows, self.n_groups, -1)

    def forms(self, v):
        """proj[s, r, p, k] = v_p^H h_k and quad[s, r, p, k] = v_p^H C_k v_p,
        each in group p's view, shapes (S, P, G, K), and the combiners'
        energies |v_p|^2 (S, P, G).

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
        energy = np.add.reduce((vh * v).real, axis=-1)
        return proj, quad.reshape(*rows, n_groups, -1), energy.reshape(*rows, n_groups)

    def tco(self, proj, quad, sqrt_power):
        """Closed-form coefficient update of every device and its KKT multiplier.

        |b_k|^2 <= P_k always holds, and mu_k > 0 only on the boundary.
        """
        own = proj[..., self.gdev, self.devices]                      # (S, P, K)
        denom = np.add.reduce(self.omega_col * (np.abs(proj) ** 2 + quad), axis=-2)
        mu = np.maximum(0.0, self.gain * np.abs(own) / sqrt_power - denom)
        den = denom + mu
        if np.count_nonzero(den) == den.size:                        # no zero denominator
            return self.gain_c * own.conj() / den, mu
        moving = den != 0.0
        b = np.zeros(den.shape, dtype=complex)
        np.divide(self.gain_c * own.conj(), den, out=b, where=moving)
        return b, np.where(moving, mu, 0.0)

    def group_mses(self, b, p, proj, quad, energy):
        """Per-group conditional MSEs (S, P, G) of coefficients b of powers
        p = |b|^2, from the forms of the combiners: signal mismatch,
        estimation-error inflation and combined noise."""
        signal = np.add.reduce(np.abs(proj * b[..., None, :] - self.target) ** 2, axis=-1)
        inflation = np.add.reduce(p[..., None, :] * quad, axis=-1)
        return signal + inflation + self.noise_power * energy

    def objective(self, mses, live):
        values = np.add.reduce(mses * self.omega, axis=-1)
        _check_finite(values, live, "weighted sum-MSE")
        return values


def optimize_batch(problem, power_limits, eps=1e-10, max_iters=500, b_init=None):
    """Solve every seed of a record, viewed jointly (levels 2 and 3) or, if
    it is a serving-BS record, per BS, at every row of power limits, all in
    lockstep.

    Row (s, i) is seed s at row i of ``power_limits`` (P, K), which holds
    every device's power limit; a record without a seed axis is one seed.
    Each row's coefficients start at full power sqrt(P_k), or at ``b_init``
    (S, P, K) or broadcastable to it.  Lockstep block-coordinate descent:
    each iteration refreshes all combiners, then all coefficients; both are
    exact minimizations, so every row's objective never increases.  A row
    stops once an iteration decreases its objective by less than eps, and
    at the latest after ``max_iters`` (an int >= 0) iterations.  The
    rectangle holds the seeds with a row still running, each with all P
    rows: a seed leaves it once all its rows have stopped, and a stopped
    row of a remaining seed keeps being computed, but it is neither
    recorded nor checked.  Returns one AggregationSolution.
    """
    if not isinstance(max_iters, (int, np.integer)) or max_iters < 0:
        raise ValueError(f"max_iters is {max_iters!r}, expected an int >= 0")
    if np.isnan(eps):
        raise ValueError("eps is nan, expected a number")
    power = _power_rows(problem, power_limits)
    stack = _Stack(problem)
    shape = (stack.n_seeds, len(power))
    sqrt_power = np.sqrt(power)                               # (P, K), broadcast over seeds
    try:
        b = np.array(np.broadcast_to(sqrt_power if b_init is None else b_init,
                                     shape + power.shape[1:]), dtype=complex)
    except ValueError:
        raise ValueError(f"b_init has shape {np.shape(b_init)}, expected (S, P, K) = "
                         f"{shape + power.shape[1:]} or a shape that broadcasts to it") from None
    values = np.empty(shape + (min(max_iters, 64) + 1,))
    group_values = np.empty(values.shape + (stack.n_groups,))
    mu = np.zeros(b.shape)
    iterations = np.zeros(shape, dtype=int)
    ended = np.empty(shape, dtype=object)
    seeds = np.arange(shape[0])                               # the rectangle's seeds
    active = np.ones(shape, dtype=bool)                       # its unstopped rows

    def record(mask, it, how):
        s, i = np.nonzero(mask)
        where = (seeds[s], i)
        iterations[where], ended[where] = it, how
        out_b[where], out_v[where], out_mu[where] = b[s, i], v[s, i], mu[s, i]

    with _invalid_raises():
        # |b|^2 and the combiners' forms each serve an MSE step and the
        # refresh or update that follows it.
        p = np.abs(b) ** 2
        v = stack.combiners(b, p, active)
        proj, quad, energy = stack.forms(v)
        mses = stack.group_mses(b, p, proj, quad, energy)
        prev = stack.objective(mses, active)
        values[..., 0], group_values[..., 0, :] = prev, mses
        # C order: the last bits of the caller's products depend on the layout.
        out_b, out_v, out_mu = (np.empty_like(a, order="C") for a in (b, v, mu))
        for it in range(1, max_iters + 1):
            if it == values.shape[2]:  # the traces grow with the iterations run
                values, group_values = (np.concatenate([a, np.empty_like(a)], axis=2)
                                        for a in (values, group_values))
            if it > 1:
                v = stack.combiners(b, p, active)
                proj, quad, energy = stack.forms(v)
            b, mu = stack.tco(proj, quad, sqrt_power)
            p = np.abs(b) ** 2
            mses = stack.group_mses(b, p, proj, quad, energy)
            cur = stack.objective(mses, active)
            values[seeds, :, it], group_values[seeds, :, it] = cur, mses
            done = (prev - cur < eps) & active
            if np.count_nonzero(done):
                record(done, it, "threshold")
                active &= ~done
                keep = active.any(axis=1)
                if not keep.any():
                    break
                if not keep.all():
                    seeds = seeds[keep]
                    stack = _Stack(_take_seeds(problem, seeds))
                    active, b, p, v, mu, cur = (a[keep] for a in (active, b, p, v, mu, cur))
            prev = cur
        else:
            record(active, max_iters, "max_iters")

    stop = iterations.max() + 1
    values, group_values = values[:, :, :stop], group_values[:, :, :stop]
    after = np.arange(stop) > iterations[..., None]
    values[after], group_values[after] = np.nan, np.nan
    return AggregationSolution(out_b, out_v, out_mu, iterations, ended, values, group_values)


def tco_step(problem, power, combiners):
    """Optimal transmit coefficients and KKT multipliers, (K,) each, of
    every device for fixed combiners (G, D) of the record's view, joint or
    per serving BS, at power limits ``power`` (K,): one solver row.

    Device k's (b_k, mu_k) satisfy the stationarity and complementary
    slackness conditions of its power-constrained subproblem: |b_k|^2 <=
    P_k always holds, and mu_k > 0 only on the boundary.  Computed device
    by device, as the scalar reference for the solver's vectorized update.
    The projections and quadratic forms come from the combiner core: near
    the boundary mu_k is the difference of two nearly equal terms, which a
    one-ulp change in those forms moves by more than 1e-12.
    """
    h = np.shape(problem.h_hat)
    if len(h) != 3:
        raise ValueError(f"problem.h_hat has shape {h}, expected {h[1:]}: "
                         "a reference reads one seed's record")
    stack = _Stack(problem)
    dim = stack.blocks[0] * stack.blocks[1]
    for name, value, want in (("power", power, h[:1]),
                              ("combiners", combiners, (stack.n_groups, dim))):
        if np.shape(value) != want:
            raise ValueError(f"{name} has shape {np.shape(value)}, expected {want} "
                             "for the record's view")
    proj, quad, _ = stack.forms(np.asarray(combiners)[None, None])
    w = problem.weights
    b, mu = np.zeros(len(power), dtype=complex), np.zeros(len(power))
    for k, (g, proj_k, quad_k) in enumerate(
            zip(problem.group_of_device, proj[0, 0].T, quad[0, 0].T)):
        mag = np.abs(proj_k)
        denom = float((w.omega * (mag ** 2 + quad_k)).sum())
        gain = w.omega[g] * w.gamma[k] * w.nu[k]
        mu_k = max(0.0, gain * mag[g] / np.sqrt(power[k]) - denom)
        if denom + mu_k != 0.0:
            b[k], mu[k] = gain * proj_k[g].conjugate() / (denom + mu_k), mu_k
    return b, mu


# ---------------------------------------------------------------------------
# Level 1: local combining, simple central averaging
# ---------------------------------------------------------------------------

def level1_batch(problem, power_limits, channels):
    """Level 1 of every seed of an AP-side record, viewed per AP, at every
    row of power limits: the full-power coefficients b = sqrt(power_limits)
    (S, P, K) (no TCO at level 1), the local combiners (S, P, G, L, N) at
    them, and every group's MSE (S, P, G) of its averaged estimate.

    Row i of ``power_limits`` (P, K) holds every device's power limit, and
    ``channels`` holds the true channels in the layout of ``h_hat``.  The
    MSE conditions on the per-AP combined *true* channels u_gkl = v_gl^H
    h_kl (a simulation-side metric): with u fixed, only the symbols and
    noise are random, so there is no estimation-error inflation term.
    """
    if problem.cellular:
        raise ValueError("level 1 reads an AP-side record, not a serving-BS one (cellular=True)")
    power, h = _power_rows(problem, power_limits), np.shape(problem.h_hat)
    if np.shape(channels) != h:
        raise ValueError(f"channels has shape {np.shape(channels)}, expected {h}, "
                         "the shape of h_hat")
    stack = _Stack(problem, per_ap=True)
    b = np.broadcast_to(np.sqrt(power).astype(complex), (stack.n_seeds,) + power.shape)
    with _invalid_raises():
        combiners = stack.combiners(b, np.abs(b) ** 2)
    # C order, so that each sum adds its terms in one order, and the last
    # bits of the caller's products, which depend on the layout, are fixed.
    combiners = np.ascontiguousarray(combiners.reshape(*combiners.shape[:3], h[-2], -1))
    channels = np.reshape(channels, (stack.n_seeds, 1) + h[-3:])
    proj = np.ascontiguousarray(np.einsum("...gln,...kln->...gkl", combiners.conj(), channels))
    w = problem.weights
    own = problem.group_of_device == np.arange(problem.n_groups)[:, None]
    target = np.where(own, (w.gamma * w.nu)[..., None, None, :], 0.0)  # (S, 1, G, K)
    mean_u = proj.mean(axis=-1)                                    # averaged combined gains
    signal = (np.abs(mean_u * b[..., None, :] - target) ** 2).sum(axis=-1)
    energy = np.abs(combiners) ** 2
    energy = energy.reshape(*energy.shape[:-2], -1).sum(axis=-1)
    mses = signal + problem.noise_power * energy / h[-2] ** 2
    _check_finite(mses, None, "level-1 MSE")
    return b, combiners, mses
