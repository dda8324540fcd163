"""Independent oracles and instance builders shared by the test suite.

The Monte Carlo oracles re-simulate the transmission from first principles
(draw symbols, noise, and, where the metric marginalizes it, the channel
uncertainty around the estimates) and never reuse the closed-form code
paths they are checking.
"""

import numpy as np

from cfota import aggregation, runner
from cfota.channel import sqrt_psd
from cfota.rng import substream


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
    O(1) stand-ins.  Returns a dict with the per-level problems, the true
    channels, and the weights.
    """
    cfg = cfg or desk_config()
    geometry = runner.build_geometry(cfg, substream(seed, "geometry"))
    stats = runner.build_statistics(cfg, geometry, substream(seed, "shadowing"))
    state = runner.draw_round(stats, (seed, "round", 0))
    rng = substream(seed, "weights")
    nu = nu_scale * rng.uniform(0.5, 1.5, cfg.n_devices)
    theta_bar = rng.uniform(-1.0, 1.0, cfg.n_devices)
    weights = runner.make_weights(cfg, geometry.group_of_device, nu, theta_bar)
    return {
        "cfg": cfg,
        "geometry": geometry,
        "stats": stats,
        "state": state,
        "weights": weights,
        "level3": runner.level3_problem(stats, state, weights),
        "level1": runner.level1_problem(stats, state, weights),
        "cellular": runner.cellular_problem(stats, state, weights),
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


def mc_mse_level3(problem, b, v, g, n_draws, rng):
    target = np.where(problem.group_of_device == g,
                      problem.weights.gamma * problem.weights.nu, 0.0)
    return mc_mse_conditional(problem.h_hat, problem.error_cov, b, v, target,
                              problem.noise_power, n_draws, rng)


def mc_mse_cellular(problem, b, w, g, n_draws, rng):
    target = np.where(problem.group_of_device == g,
                      problem.weights.gamma * problem.weights.nu, 0.0)
    return mc_mse_conditional(problem.h_hat[g], problem.error_cov[g], b, w,
                              target, problem.noise_power, n_draws, rng)


def mc_mse_level1(problem, b, combiners, channels, g, n_draws, rng,
                  chunk=20000):
    """Monte Carlo level-1 MSE conditioned on the combined true channels.

    Only the symbols and the per-AP noise are random: the recovery is the
    plain average over APs of the locally combined signals.
    """
    n_aps = problem.n_aps
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


def brute_force_wrap_distance(a, b, side):
    best = np.inf
    for dx in (-side, 0.0, side):
        for dy in (-side, 0.0, side):
            best = min(best, float(np.hypot(b[0] + dx - a[0], b[1] + dy - a[1])))
    return best
