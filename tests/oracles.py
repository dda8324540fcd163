"""Independent oracles and instance builders shared by the test suite.

The oracles never reuse the code paths they are checking:

* the Monte Carlo oracles re-simulate the transmission from first
  principles (draw symbols, noise, and, where the metric marginalizes it,
  the channel uncertainty around the estimates);
* the solver's formula oracles (``combiners``, ``tco``, ``alternate``,
  ``mse_level3`` and ``mse_level1``) evaluate the paper's formulas one
  group or one device at a time over dense views of a record, and call no
  ``aggregation`` code.  The tests reach the solver only through its
  public entry points;
* ``mmse_estimate`` assembles one link's estimate around ``estimation``'s
  covariance helpers, which ``mmse_estimate_cholesky`` checks in turn.
"""

from collections import namedtuple
from dataclasses import replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from cfota import estimation, runner
from cfota.channel import local_scattering_R, pathloss_db, shadow_covariance
from cfota.fl_engine import ridge_gradient
from cfota.rng import substream
from cfota.topology import wrap_bearing, wrap_displacement, wrap_distances


def cn_noise(shape, power, rng):
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return np.sqrt(power / 2.0) * z


def desk_config(**overrides):
    base = dict(architectures=("errorfree", "level1", "level2", "level3",
                               "cellular"),
                n_aps=4, n_ap_antennas=2, n_bs_antennas=8, n_devices=6,
                n_groups=2, tau_p=3, tau_u=50, cells=4, distribution_mode=2)
    base.update(overrides)
    return runner.validate_config(runner.ScenarioConfig(**base))


def draw_instance(seed, cfg=None, nu_scale=1.0):
    """One desk-scale instance drawn through the real pipeline.

    Geometry, correlations, channels, and MMSE estimates come from the
    package; the per-round parameter statistics (nu, theta_bar) are random
    O(1) stand-ins.  Returns a dict with the AP-side record ("level3",
    which level 1 reads per AP), the serving-BS record ("cellular", whose
    ``cellular`` field says so), the true channels, the weights, the means
    ("theta_bar") and every device's power limit ("power", the config's
    p_max).
    """
    cfg = cfg or desk_config()
    geometry = runner.build_geometry(cfg, substream(seed, "geometry"))
    stats = runner.build_statistics(cfg, geometry, substream(seed, "shadowing"))
    state = runner.draw_round(stats, (seed, "round", 0))
    rng = substream(seed, "weights")
    nu = nu_scale * rng.uniform(0.5, 1.5, cfg.n_devices)
    theta_bar = rng.uniform(-1.0, 1.0, cfg.n_devices)
    weights = runner.make_weights(cfg, nu)
    return {
        "cfg": cfg,
        "geometry": geometry,
        "stats": stats,
        "state": state,
        "weights": weights,
        "theta_bar": theta_bar,
        "power": np.full(cfg.n_devices, runner.dbm_to_watt(cfg.p_max_dbm)),
        "level3": runner.level3_problem(stats, state, weights),
        "cellular": runner.level3_problem(stats, state, weights, cellular=True),
    }


def mc_mse_conditional(h_hat, error_cov, b, v, target, noise_power, n_draws,
                       rng, chunk=20000):
    """Monte Carlo estimate of the aggregation MSE conditioned on estimates.

    Per draw: true channels are the estimates plus a fresh error draw from
    the error covariance, symbols are unit-variance reals, noise is fresh
    complex Gaussian.  Averages |sum_k (v^H h_k b_k - target_k) s_k + v^H n|^2.
    """
    n_dev, dim = h_hat.shape
    roots = np.stack([sqrt_psd(error_cov[k]) for k in range(n_dev)])
    base = h_hat @ v.conj()                       # v^H h_hat_k
    verr = np.einsum("i,kij->kj", v.conj(), roots)  # rows: v^H E_k^(1/2)
    total = 0.0
    done = 0
    while done < n_draws:
        m = min(chunk, n_draws - done)
        z = (rng.standard_normal((m, n_dev, dim))
             + 1j * rng.standard_normal((m, n_dev, dim))) / np.sqrt(2.0)
        gains = base[None, :] + np.einsum("kj,mkj->mk", verr, z)
        symbols = rng.standard_normal((m, n_dev))
        err = ((gains * b[None, :] - target[None, :]) * symbols).sum(axis=1)
        noise = cn_noise((m, dim), noise_power, rng)
        err = err + noise @ v.conj()
        total += float(np.abs(err) ** 2 @ np.ones(m))
        done += m
    return total / n_draws


def dense_cpu_view(problem):
    """A level-3 problem's stacked estimates (K, LN) and its dense
    block-diagonal error covariances (K, LN, LN)."""
    n_dev, n_aps, n_ant = problem.h_hat.shape
    cov = np.zeros((n_dev, n_aps, n_ant, n_aps, n_ant), dtype=complex)
    for ap in range(n_aps):
        cov[:, ap, :, ap] = problem.error_cov[:, ap]
    return problem.h_hat.reshape(n_dev, -1), cov.reshape(n_dev, n_aps * n_ant, -1)


def seed_problem(problem, s):
    """Seed s's record, without a seed axis, of a seed block's record."""
    w = problem.weights
    return replace(problem, h_hat=problem.h_hat[s], error_cov=problem.error_cov[s],
                   weights=replace(w, nu=w.nu[s]))


def block_problem(problems):
    """One seed block's record of same-kind records that share their
    grouping, shares, priorities and noise power."""
    first = problems[0]

    def stack(get):
        return np.stack([get(p) for p in problems])

    return replace(first, h_hat=stack(lambda p: p.h_hat),
                   error_cov=stack(lambda p: p.error_cov),
                   weights=replace(first.weights, nu=stack(lambda p: p.weights.nu)))


SolvedRow = namedtuple("SolvedRow",
                       "b combiners mu iterations terminated_by values group_values")


def row(solution, s=0, i=0):
    """Row (s, i) of an ``aggregation.AggregationSolution``, its traces cut
    at the row's own stop."""
    stop = int(solution.iterations[s, i]) + 1
    return SolvedRow(solution.b[s, i], solution.combiners[s, i], solution.mu[s, i],
                     stop - 1, solution.terminated_by[s, i], solution.values[s, i, :stop],
                     solution.group_values[s, i, :stop])


def mse_level1(problem, b, combiners, channels):
    """Level-1 MSEs (G,) of one record without a seed axis, from the
    formula, one group at a time: coefficients b (K,), combiners (G, L, N)
    and true channels (K, L, N).

    Group g's estimate averages its L local combines, so device k reaches
    it with the gain mean_l v_gl^H h_kl, and the noise of AP l with the
    weight v_gl / L: the MSE is sum_k |gain_k b_k - target_k|^2 plus
    sigma^2 sum_l |v_gl|^2 / L^2.
    """
    n_aps = problem.h_hat.shape[1]
    gamma_nu = problem.weights.gamma * problem.weights.nu
    mses = np.empty(problem.n_groups)
    for g, v in enumerate(combiners):
        gains = np.einsum("ln,kln->k", v.conj(), channels) / n_aps
        target = np.where(problem.group_of_device == g, gamma_nu, 0.0)
        noise = problem.noise_power * np.sum(np.abs(v) ** 2) / n_aps**2
        mses[g] = np.sum(np.abs(gains * b - target) ** 2) + noise
    return mses


def group_views(problem):
    """Each group's view of one level-3 or cellular record without a seed
    axis: G pairs of estimates (K, D) and dense error covariances
    (K, D, D), the stacked view of all APs for every group or, in a
    serving-BS record, the group's own BS."""
    if problem.cellular:
        return [(problem.h_hat[:, g], problem.error_cov[:, g]) for g in range(problem.n_groups)]
    return [dense_cpu_view(problem)] * problem.n_groups


def mse_level3(problem, b, combiners):
    """Conditional MSEs (G,) of one level-3 or cellular record without a
    seed axis, from the formula, one group at a time: coefficients b (K,)
    and combiners (G, D) of the record's view.

    Group g's combiner v_g sees the estimates h_k and error covariances C_k
    of its view: the MSE is sum_k |v_g^H h_k b_k - target_k|^2 + |b_k|^2
    v_g^H C_k v_g plus sigma^2 |v_g|^2, target_k being gamma_k nu_k for
    the group's own devices and 0 for the others.
    """
    gamma_nu = problem.weights.gamma * problem.weights.nu
    mses = np.empty(problem.n_groups)
    for g, (v, (h, cov)) in enumerate(zip(combiners, group_views(problem))):
        target = np.where(problem.group_of_device == g, gamma_nu, 0.0)
        signal = np.abs(h @ v.conj() * b - target) ** 2
        inflation = np.abs(b) ** 2 * np.einsum("i,kij,j->k", v.conj(), cov, v).real
        mses[g] = np.sum(signal + inflation) + problem.noise_power * np.sum(np.abs(v) ** 2)
    return mses


def _combiner(problem, b, g, h, cov):
    """Group g's MMSE combiner (D,) for coefficients b (K,) in a view of
    estimates h (K, D) and error covariances cov (K, D, D): v_g = (sigma^2
    I + sum_k |b_k|^2 (h_k h_k^H + C_k))^-1 sum_{k in g} h_k gamma_k nu_k
    b_k, the minimizer of the group's MSE."""
    p = np.abs(b) ** 2
    mat = (problem.noise_power * np.eye(h.shape[1]) + np.einsum("k,ki,kj->ij", p, h, h.conj())
           + np.einsum("k,kij->ij", p, cov))
    own = problem.group_of_device == g
    w = problem.weights
    return np.linalg.solve(mat, h[own].T @ (w.gamma * w.nu * b)[own])


def combiners(problem, b, per_ap=False):
    """MMSE combiners of one record without a seed axis for coefficients b
    (K,), from the formula, one group at a time: (G, D), each in its
    group's view (``group_views``), or, ``per_ap`` (level 1), (G, L, N),
    each AP's from its own estimates and error blocks alone."""
    groups = range(problem.n_groups)
    if per_ap:
        return np.array([[_combiner(problem, b, g, problem.h_hat[:, ap], problem.error_cov[:, ap])
                          for ap in range(problem.h_hat.shape[1])] for g in groups])
    return np.array([_combiner(problem, b, g, *view)
                     for g, view in zip(groups, group_views(problem))])


def tco(problem, power, combiners):
    """Optimal transmit coefficients, KKT multipliers and denominators, (K,)
    each, of one level-3 or cellular record without a seed axis at power
    limits power (K,) for fixed combiners (G, D) of the record's view, from
    the formula, one device at a time.

    Device k meets group g's combiner with the projection u_g = v_g^H h_k
    and the error form q_g = v_g^H C_k v_g of group g's view.  Its
    coefficient minimizes the weighted sum-MSE subject to |b_k|^2 <= P_k:
    with the denominator d = sum_g omega_g (|u_g|^2 + q_g) and the gain
    c = omega_o gamma_k nu_k of its own group o, the KKT multiplier is
    mu_k = max(0, c |u_o| / sqrt(P_k) - d) and b_k = c conj(u_o) / (d +
    mu_k), or 0 where d + mu_k = 0.
    """
    w = problem.weights
    views = group_views(problem)
    b, mu, denom = np.zeros(len(power), dtype=complex), np.zeros(len(power)), np.zeros(len(power))
    for k, own in enumerate(problem.group_of_device):
        u = np.array([v.conj() @ h[k] for v, (h, _) in zip(combiners, views)])
        q = np.array([(v.conj() @ cov[k] @ v).real for v, (_, cov) in zip(combiners, views)])
        denom[k] = w.omega @ (np.abs(u) ** 2 + q)
        gain = w.omega[own] * w.gamma[k] * w.nu[k]
        mu[k] = max(0.0, gain * abs(u[own]) / np.sqrt(power[k]) - denom[k])
        if denom[k] + mu[k] != 0.0:
            b[k] = gain * u[own].conjugate() / (denom[k] + mu[k])
    return b, mu, denom


def alternate(problem, power, iters):
    """Plain alternation of one level-3 or cellular record without a seed
    axis at power limits power (K,), from the formula oracles: from full
    power, ``iters`` iterations of a combiner refresh and a coefficient
    step, each scored by ``mse_level3``.  Returns a ``SolvedRow`` whose
    traces hold the start and every iteration, and whose combiners are the
    last iteration's, those its coefficient step read."""
    power = np.asarray(power, dtype=float)
    b, mu = np.sqrt(power).astype(complex), np.zeros(len(power))
    v = combiners(problem, b)
    group_values = [mse_level3(problem, b, v)]
    for it in range(iters):
        if it:
            v = combiners(problem, b)
        b, mu, _ = tco(problem, power, v)
        group_values.append(mse_level3(problem, b, v))
    group_values = np.array(group_values)
    return SolvedRow(b, v, mu, iters, "max_iters", group_values @ problem.weights.omega,
                     group_values)


def total_per_block(report, rounds_per_block=1):
    """Recurring fronthaul scalars per coherence block holding the given
    training rounds: the pilot and data signals plus one combiner exchange
    per round."""
    return report.pilot_data_scalars + rounds_per_block * report.combiner_scalars


def mc_mse_level3(problem, b, v, g, n_draws, rng):
    """Monte Carlo MSE of group g's combiner v over all APs jointly or, in a
    serving-BS record, over the group's own BS."""
    target = np.where(problem.group_of_device == g,
                      problem.weights.gamma * problem.weights.nu, 0.0)
    h_hat, error_cov = group_views(problem)[g]
    return mc_mse_conditional(h_hat, error_cov, b, v, target,
                              problem.noise_power, n_draws, rng)


def mc_mse_level1(problem, b, combiners, channels, g, n_draws, rng,
                  chunk=20000):
    """Monte Carlo level-1 MSE conditioned on the combined true channels.

    Only the symbols and the per-AP noise are random: the recovery is the
    plain average over APs of the locally combined signals.
    """
    n_aps = problem.h_hat.shape[1]
    u = np.einsum("ln,kln->kl", combiners[g].conj(), channels)
    mean_u = u.mean(axis=1)
    target = np.where(problem.group_of_device == g,
                      problem.weights.gamma * problem.weights.nu, 0.0)
    comb_noise_scale = np.sqrt((np.abs(combiners[g]) ** 2).sum(axis=1))  # (L,)
    total = 0.0
    done = 0
    n_dev = len(b)
    while done < n_draws:
        m = min(chunk, n_draws - done)
        symbols = rng.standard_normal((m, n_dev))
        err = ((mean_u * b - target)[None, :] * symbols).sum(axis=1)
        noise = cn_noise((m, n_aps), problem.noise_power, rng)
        err = err + (noise * comb_noise_scale[None, :]).sum(axis=1) / n_aps
        total += float(np.abs(err) ** 2 @ np.ones(m))
        done += m
    return total / n_draws


def matrix_observation_oracle(channels, plan, noise_power, rng):
    """Pilot observation built from the full tau_p-symbol matrix form.

    Transmits orthogonal unit-modulus pilot sequences over tau_p symbols,
    adds per-symbol noise, and despreads by correlating with each pilot.
    Statistically equivalent to the direct despread construction.
    """
    n_dev, n_rx, n_ant = channels.shape
    tau_p = plan.tau_p
    dft = np.exp(-2j * np.pi * np.outer(np.arange(tau_p), np.arange(tau_p))
                 / tau_p)
    out = np.zeros((tau_p, n_rx, n_ant), dtype=complex)
    for r in range(n_rx):
        y_mat = np.zeros((n_ant, tau_p), dtype=complex)
        for k in range(n_dev):
            pilot = dft[:, plan.pilot_of_device[k]]
            y_mat += np.sqrt(plan.pilot_power[k]) * np.outer(channels[k, r],
                                                             pilot.conj())
        y_mat += cn_noise((n_ant, tau_p), noise_power, rng)
        for t in range(tau_p):
            out[t, r] = y_mat @ dft[:, t] / np.sqrt(tau_p)
    return out


def wrap_distance(a, b, area):
    """Minimum distance between a and b over the 9 translated copies of b."""
    return float(np.linalg.norm(wrap_displacement(a, b, area)))


def brute_force_wrap_distance(a, b, side):
    best = np.inf
    for dx in (-side, 0.0, side):
        for dy in (-side, 0.0, side):
            best = min(best, float(np.hypot(b[0] + dx - a[0], b[1] + dy - a[1])))
    return best


def sqrt_psd(mat):
    """Hermitian square root with negative eigenvalues clamped to zero."""
    w, v = np.linalg.eigh(mat)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def sample_shadowing(cov, rng):
    """Zero-mean jointly Gaussian shadow terms (dB) with the given covariance.

    Uses the root ``V sqrt(max(w, 0))`` of ``cov = V diag(w) V^T``.
    """
    w, v = np.linalg.eigh(cov)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ rng.standard_normal(cov.shape[0])


def correlation_matrices_per_link(device_positions, rx_positions, n_antennas,
                                  area, params, asd, rng):
    """``channel.correlation_matrices`` one link at a time.

    One shadowing draw per receiver, then path loss, bearing and local
    scattering for each (device, receiver) pair in a Python loop.
    """
    n_dev, n_rx = len(device_positions), len(rx_positions)
    shadow_cov = shadow_covariance(device_positions, area, params)
    out = np.empty((n_dev, n_rx, n_antennas, n_antennas), dtype=complex)
    for r in range(n_rx):
        shadows = sample_shadowing(shadow_cov, rng)
        for k in range(n_dev):
            d = wrap_distances(device_positions[k:k + 1],
                               rx_positions[r:r + 1], area)[0, 0]
            beta_db = pathloss_db(d, params) + shadows[k]
            angle = wrap_bearing(rx_positions[r], device_positions[k], area)
            out[k, r] = local_scattering_R(
                n_antennas, angle, asd, 10.0 ** (beta_db / 10.0))
    return out


def codevices(plan, k):
    """All devices sharing device k's pilot (including k itself)."""
    return plan.devices_on_pilot(plan.pilot_of_device[k])


LinkEstimate = namedtuple("LinkEstimate", "h_hat estimate_cov error_cov")


def mmse_estimate(y_kl, plan, correlations, k, rx, noise_power):
    """MMSE estimate of device k's channel at one receiver, from the
    package's own despread covariance and link covariances.

    ``y_kl`` is the despread observation for device k's pilot at that
    receiver.  Returns the estimate, its covariance, and the error
    covariance; the linear system is solved, never inverted.
    """
    correlations = np.asarray(correlations)
    r_kl = correlations[k, rx]
    xi = estimation._despread_covariances(plan, correlations[:, rx:rx + 1],
                                          noise_power)[0, plan.pilot_of_device[k]]
    scale = estimation._pilot_scale(plan)[k]
    h_hat = scale * (r_kl @ np.linalg.solve(xi, y_kl))
    est_cov, err_cov = estimation._link_covariances(r_kl, xi, np.square(scale))
    return LinkEstimate(h_hat, est_cov, err_cov)


def mmse_estimate_cholesky(y_kl, plan, correlations, k, rx, noise_power):
    """Single-link MMSE estimate through a Cholesky factorization (scipy).

    Returns ``(h_hat, estimate_cov, error_cov)`` of device k at receiver
    rx; ``y_kl`` is the despread observation of device k's pilot there.
    """
    r_kl = correlations[k, rx]
    xi = noise_power * np.eye(r_kl.shape[0], dtype=complex)
    for i in plan.devices_on_pilot(plan.pilot_of_device[k]):
        xi = xi + plan.pilot_power[i] * plan.tau_p * correlations[i, rx]
    factor = cho_factor(xi)
    scale = np.sqrt(plan.pilot_power[k] * plan.tau_p)
    est_cov = scale**2 * (r_kl @ cho_solve(factor, r_kl))
    est_cov = 0.5 * (est_cov + est_cov.conj().T)
    err_cov = r_kl - est_cov
    err_cov = 0.5 * (err_cov + err_cov.conj().T)
    return scale * (r_kl @ cho_solve(factor, y_kl)), est_cov, err_cov


# ---------------------------------------------------------------------------
# Training, one device, one seed and one architecture at a time
# ---------------------------------------------------------------------------

def normalize_vector(theta):
    """Zero-mean, unit-power scaling of one parameter vector: (scaled, mean,
    population std), with Python float statistics."""
    theta = np.asarray(theta, dtype=float)
    mean = theta.mean()
    std = np.sqrt(np.mean((theta - mean) ** 2))
    return (theta - mean) / std, float(mean), float(std)


def denormalize(s, mean, std):
    """Invert ``normalize_vector``."""
    return np.asarray(s) * std + mean


def local_update(theta, gradient_fn, eta):
    """One full-batch gradient step on the local loss."""
    return np.asarray(theta) - eta * gradient_fn(np.asarray(theta))


def desired_global(local_params, gamma):
    """Weighted sum of local parameter vectors; weights must sum to 1."""
    gamma = np.asarray(gamma, dtype=float)
    if abs(gamma.sum() - 1.0) > 1e-9:
        raise ValueError("aggregation weights must sum to 1")
    return np.tensordot(gamma, np.asarray(local_params), axes=(0, 0))


def shard_fractions(task):
    """Each device's share of a ridge task's rows."""
    sizes = np.array([len(s) for s in task.shards], dtype=float)
    return sizes / sizes.sum()


def combine_signals(level, signals, combiner):
    """Complex combiner output for one group, before the mean offset.

    ``signals`` is the per-AP receive tensor (L, N) or (L, N, D) (for
    "cellular", the serving BS's (M,) or (M, D)); the combiner is stacked
    (LN,) for "level3" and "level2", per-AP (L, N) for "level1", (M,) for
    "cellular".  Level 2 sums per-AP partial combines, level 1 averages
    them.
    """
    signals = np.asarray(signals)
    if level == "level3":
        flat = signals.reshape(-1, *signals.shape[2:])
        return np.tensordot(combiner.conj(), flat, axes=(0, 0))
    if level == "level2":
        per_ap = combiner.reshape(signals.shape[:2])
        return sum(np.tensordot(per_ap[ap].conj(), signals[ap], axes=(0, 0))
                   for ap in range(signals.shape[0]))
    if level == "level1":
        return sum(np.tensordot(combiner[ap].conj(), signals[ap], axes=(0, 0))
                   for ap in range(signals.shape[0])) / signals.shape[0]
    if level == "cellular":
        return np.tensordot(combiner.conj(), signals, axes=(0, 0))
    raise ValueError(f"unknown recovery level {level!r}")


def group_offset(weights, theta_bar, group_of_device, g):
    """Mean offset carried over the side channel for group g, the devices'
    parameter means being theta_bar (K,)."""
    own = group_of_device == g
    return float(np.dot(weights.gamma[own], theta_bar[own]))


def recover(level, signals, combiner, weights, theta_bar, group_of_device, g):
    """Group g's aggregated parameter(s): the real combiner output plus the
    group's mean offset."""
    combined = combine_signals(level, signals, combiner)
    return np.real(combined) + group_offset(weights, theta_bar, group_of_device, g)


def ota_round(local_params, level, b, combiners, h_ap, h_bs, weights, theta_bar,
              group_of_device, noise_power, rng):
    """One seed's uplink round, group by group: recovered (G, D) parameters
    and realized squared errors (G,) of coefficients b (K,) and combiners
    (G, ...), the devices' parameter means being theta_bar (K,).  ``h_ap``
    (K, L, N) and ``h_bs`` (K, G, M) are the seed's true channels; the AP
    noise is drawn once, the serving BSs' per group."""
    n_groups = weights.omega.shape[0]
    desired = np.stack([
        desired_global(local_params[group_of_device == g],
                       weights.gamma[group_of_device == g])
        for g in range(n_groups)])
    if level == "errorfree":
        return desired.copy(), np.zeros(n_groups)
    symbols = np.stack([normalize_vector(p)[0] for p in local_params])
    sent = b[:, None] * symbols
    recovered = np.empty(desired.shape)
    error_sq = np.empty(n_groups)
    for g in range(n_groups):
        if level == "cellular":
            y = np.einsum("km,kd->md", h_bs[:, g], sent)
            y = y + cn_noise(y.shape, noise_power, rng)
        elif g == 0:
            y = np.einsum("kln,kd->lnd", h_ap, sent)
            y = y + cn_noise(y.shape, noise_power, rng)
        combined = combine_signals(level, y, combiners[g])
        offset = group_offset(weights, theta_bar, group_of_device, g)
        recovered[g] = np.real(combined) + offset
        error_sq[g] = float(np.abs(desired[g] - (combined + offset)) ** 2
                            @ np.ones(desired.shape[1]))
    return recovered, error_sq


def device_gradient_fn(cfg, task, device):
    """Gradient of one device's local loss, from its own shard."""
    features, labels = (shard[device] for shard in task.shards)
    if cfg.task == "ridge":
        return lambda theta: ridge_gradient(theta, features, labels, cfg.ridge)
    return lambda theta: task.model.gradient(theta, features, labels)


def group_metric(cfg, task, theta):
    """Test accuracy for classifiers, optimality gap for ridge."""
    if cfg.task == "ridge":
        return task.ridge.loss(theta) - task.optimal_value
    return float(task.model.accuracy(theta, task.x_test, task.y_test))


def train_rows(cfg, seed):
    """``runner.run_fl_training`` rows of one seed, computed one device and
    one architecture at a time, each architecture opening its own "slots"
    stream every round.  Level 2 runs the level-3 round: its per-AP sum
    equals the joint combine (criterion 3), so its rows are level 3's."""
    archs = [runner.ARCHITECTURES[name] for name in cfg.architectures]
    tags, stats = runner._prepare_block(cfg, [seed])
    gdev = stats.geometry.group_of_device
    power = np.full((1, cfg.n_devices), runner.dbm_to_watt(cfg.p_max_dbm))
    tasks = [runner._GroupTask(cfg, seed, g) for g in range(cfg.n_groups)]
    init = [runner._initial_model(cfg, seed, g) for g in range(cfg.n_groups)]

    def metrics(models):
        return tuple(group_metric(cfg, tasks[g], models[g])
                     for g in range(cfg.n_groups))

    fronthaul = [runner.fronthaul_counts(cfg, arch.fronthaul) for arch in archs]
    models = [list(init) for _ in archs]
    rows = [runner.ResultRow(arch.name, arch.tco, seed, 0.0, None, (),
                             metrics(init), fh)
            for arch, fh in zip(archs, fronthaul)]
    for t in range(1, cfg.rounds + 1):
        state = runner.draw_block(stats, [tags[0] + ("round", t)])
        for i, arch in enumerate(archs):
            local = np.stack([
                local_update(models[i][gdev[k]],
                             device_gradient_fn(cfg, tasks[gdev[k]], k % cfg.group_size),
                             tasks[gdev[k]].learning_rate(cfg))
                for k in range(cfg.n_devices)])
            stats_k = [normalize_vector(p) for p in local]
            nu, theta_bar = [st[2] for st in stats_k], np.array([st[1] for st in stats_k])
            weights = runner.make_weights(cfg, nu)
            b, combiners, group_mses = runner._solve_block(
                cfg, arch.solver, stats, state, runner.make_weights(cfg, [nu]), power)
            level = "level3" if arch.name == "level2" else arch.name
            recovered, _ = ota_round(
                local, level, None if b is None else b[0, 0],
                None if combiners is None else combiners[0, 0],
                state.ap.h[0], None if state.bs is None else state.bs.h[0],
                weights, theta_bar, gdev, cfg.noise_power,
                substream(cfg.master_seed, seed, "slots", t))
            models[i] = list(recovered)
            mses = tuple(float(m) for m in group_mses[0, 0, 1])
            rows.append(runner.ResultRow(arch.name, arch.tco, seed, float(t),
                                         float(np.dot(weights.omega, mses)), mses,
                                         metrics(models[i]), fronthaul[i]))
    return rows
