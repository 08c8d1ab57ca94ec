"""Acceptance suite: one test per shipped guarantee.

Each test prints a single ``criterion NN: PASS/FAIL`` line with the measured
quantities; run with ``-s`` to see the lines for passing criteria (pytest
shows them for failing ones either way).  The numbered order mirrors the
package contract: pooling identities first, then the convergence and
robustness envelopes, the linear-Gaussian specialization, and finally the
full simulation scenarios.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from dbfnet.bounds import (
    ConvergenceParams,
    delta_max,
    estimate_theta_l,
    initial_disagreement,
    kappa,
    multiloop_bound,
    robust_delta_max,
    steady_state_delta,
)
from dbfnet.density import DensityGrid, StateGrid, kl_divergence, l1_distance, tv_distance
from dbfnet.engine import (
    AgentState,
    ChannelNoise,
    SensorModel,
    dbf_step,
    multiloop_fuse,
    normalized_likelihood,
    power_estimate,
)
from dbfnet.errors import ErrorBudgetExceeded
from dbfnet.infofilter import (
    InfoState,
    LinearModel,
    centralized_info_step,
    info_fuse,
    info_measurement,
    info_predict,
    info_update,
)
from dbfnet.pools import PoolWeights, bayes_update, joint_likelihood, kl_pool, logop
from dbfnet.scenarios import (
    BenchmarkConfig,
    FormationConfig,
    run_benchmark_scenario1,
    run_benchmark_scenario2,
    run_formation,
)
from dbfnet.topology import (
    AdjacencySchedule,
    Digraph,
    metropolis_weights,
    random_connected_graph,
    random_schedule,
    schedule_gamma,
    second_singular_value,
    sigma_m,
    sigma_m_bound,
)
from dbfnet.cli import write_metrics


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def _random_density(rng, grid) -> DensityGrid:
    return DensityGrid.from_log(grid, rng.uniform(-20.0, 3.0, grid.n_cells))


def grid_1d(lo=-6.0, hi=6.0, n=48):
    return StateGrid((lo,), (hi,), (n,))


# ------------------------------------------------------- pooling identities


def test_criterion_01_pool_commutes_with_update():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    g = StateGrid((0.0,), (8.0,), (64,))
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(2, 6))
        pdfs = [_random_density(rng, g) for _ in range(m)]
        lik = _random_density(rng, g)
        raw = rng.uniform(0.05, 1.0, m)
        w = PoolWeights(tuple(raw / raw.sum()))
        pool_then_update = bayes_update(logop(pdfs, w), lik)
        update_then_pool = logop([bayes_update(p, lik) for p in pdfs], w)
        rel = np.abs(pool_then_update.values - update_then_pool.values)
        rel /= np.maximum(update_then_pool.values, 1e-300)
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    _line(1, ok, f"max relative route difference {worst:.3e} over 200 triples, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_02_tv_is_half_l1():
    rng = np.random.default_rng(12)
    g = StateGrid((0.0,), (8.0,), (64,))
    worst = 0.0
    for _ in range(200):
        p, q = _random_density(rng, g), _random_density(rng, g)
        worst = max(worst, abs(tv_distance(p, q) - 0.5 * l1_distance(p, q)))
    _line(2, worst <= 1e-12, f"max |tv - l1/2| = {worst:.3e} over 200 pairs")
    assert worst <= 1e-12


def test_criterion_03_kl_pool_minimizes_divergence():
    rng = np.random.default_rng(13)
    g = StateGrid((0.0,), (8.0,), (64,))
    worst_gap = 0.0
    worst_eq = 0.0
    for _ in range(10):
        m = int(rng.integers(2, 7))
        pdfs = [_random_density(rng, g) for _ in range(m)]
        pool = kl_pool(pdfs)
        objective = sum(kl_divergence(pool, p) for p in pdfs)
        for _ in range(100):
            jitter = rng.uniform(-0.5, 0.5, g.n_cells)
            rho = DensityGrid.from_log(g, pool.log_values + jitter)
            perturbed = sum(kl_divergence(rho, p) for p in pdfs)
            worst_gap = max(worst_gap, objective - perturbed)
        uniform = logop(pdfs, PoolWeights.uniform(m))
        worst_eq = max(worst_eq, float(np.abs(pool.log_values - uniform.log_values).max()))
    ok = worst_gap <= 1e-12 and worst_eq <= 1e-12
    _line(3, ok, f"objective excess {worst_gap:.3e} over 10x100 perturbations, uniform-pool gap {worst_eq:.3e}")
    assert worst_gap <= 1e-12
    assert worst_eq <= 1e-12


def test_criterion_04_powered_pool_equals_joint():
    rng = np.random.default_rng(14)
    g = StateGrid((0.0,), (8.0,), (64,))
    worst = 0.0
    for n in (2, 3, 5, 10):
        for _ in range(5):
            pdfs = [_random_density(rng, g) for _ in range(n)]
            direct = joint_likelihood(pdfs)
            routed = power_estimate(kl_pool(pdfs), n)
            worst = max(worst, l1_distance(direct, routed))
    _line(4, worst <= 1e-9, f"max route distance {worst:.3e} over sizes 2,3,5,10")
    assert worst <= 1e-9


# ----------------------------------------------------- convergence envelope


def _drifting_sensors(rng, n):
    sigmas = rng.uniform(0.8, 1.4, n)
    centers = rng.uniform(-0.8, 0.8, n)
    phases = rng.uniform(0.0, 2.0 * np.pi, n)
    sensors = []
    for i in range(n):
        sigma = float(sigmas[i])

        def log_likelihood(y, grid, sigma=sigma):
            diff = grid.cells[:, 0] - y[0]
            return -0.5 * (diff / sigma) ** 2

        sensors.append(SensorModel(measure=None, log_likelihood=log_likelihood))

    def plan(k, dt):
        t = k * dt
        return [
            np.array([centers[i] + np.sin(0.5 * t + phases[i])]) for i in range(n)
        ]

    return sensors, plan


def _envelope_trial(seed, n, b, delta, eta, eps=0.0, noise_seed=None):
    """Run one measured-drift trial; returns (worst excess after kappa,
    worst final-window excess, effective steady envelope)."""
    rng = np.random.default_rng(seed)
    g = grid_1d()
    sensors, plan = _drifting_sensors(rng, n)

    if eps > 0.0:
        a = metropolis_weights(Digraph.undirected(n, [(0, 1), (1, 2), (0, 2)]))
        sched = AdjacencySchedule.static(a)
    else:
        slots = int(rng.integers(1, 4)) if b == 1 else 1
        sched = random_schedule(n, rng, b=b, slots=slots)

    # probe at a coarse interval over a full drift period, then pick the
    # admissible interval from the measured rate with a 5% safety factor
    probe_dt = 0.1
    pairs = []
    prev = None
    for k in range(1, 131):
        cur = [normalized_likelihood(sensors[i], plan(k, probe_dt)[i], g) for i in range(n)]
        if prev is not None:
            pairs.extend(zip(prev, cur))
        prev = cur
    theta = 1.05 * estimate_theta_l(pairs, probe_dt)

    sig = sigma_m(sched)
    if sig < 1e-12:
        # rank-deficient window products contract exactly; the measured
        # value is singular-value float dust and must read as zero, or the
        # transient-length formula claims sub-window convergence
        sig = 0.0
    p0 = ConvergenceParams(
        n=n, b=sched.b, theta_l=theta, sigma_m=sig,
        delta=delta, eta=eta, eps_u=eps, eps_l=eps,
    )
    dt_star = robust_delta_max(p0) if eps > 0.0 else delta_max(p0)
    first = [normalized_likelihood(sensors[i], plan(1, dt_star)[i], g) for i in range(n)]
    p = replace(p0, d1=initial_disagreement(first))
    k_stop = kappa(p)
    assert k_stop < 5000
    k_max = k_stop + 3 * p.window
    envelope = steady_state_delta(p, dt_star)

    noise = None if eps == 0.0 else ChannelNoise.from_seed(eps, eps, noise_seed)
    agents = [AgentState.initial(DensityGrid.uniform(g)) for _ in range(n)]
    max_err = np.empty(k_max)
    for k in range(1, k_max + 1):
        agents, diag = dbf_step(
            agents, sched.matrix_at(k - 1), k, None, sensors, plan(k, dt_star),
            channel_noise=noise,
        )
        max_err[k - 1] = float(diag.l1_to_joint.max())
    settled = max_err[k_stop - 1:]
    excess_settled = float(settled.max()) - (1.0 + eta) * envelope
    excess_final = float(max_err[-p.window:].max()) - envelope
    return excess_settled, excess_final, envelope


def test_criterion_05_fusion_tracks_joint_within_envelope():
    t0 = time.perf_counter()
    worst_settled = -np.inf
    worst_final = -np.inf
    for trial in range(20):
        n = (3, 5, 8)[trial % 3]
        b = 1 if n == 8 else (1, 2)[trial % 2]
        es, ef, _ = _envelope_trial(1000 + trial, n, b, delta=0.3, eta=0.1)
        worst_settled = max(worst_settled, es)
        worst_final = max(worst_final, ef)
    elapsed = time.perf_counter() - t0
    ok = worst_settled <= 1e-9 and worst_final <= 1e-9 and elapsed < 60.0
    _line(5, ok, f"settled excess {worst_settled:.3e}, final-window excess {worst_final:.3e}, 20 trials, {elapsed:.1f}s")
    assert worst_settled <= 1e-9
    assert worst_final <= 1e-9
    assert elapsed < 60.0


def test_criterion_06_window_contraction_bound():
    rng = np.random.default_rng(16)
    min_margin = np.inf
    for trial in range(50):
        n = int(rng.integers(3, 9))
        b = int(rng.integers(1, 4))
        slots = int(rng.integers(1, 4)) if b == 1 else 1
        sched = random_schedule(n, rng, b=b, slots=slots, require_gamma_below_half=True)
        bound = sigma_m_bound(n, schedule_gamma(sched))
        min_margin = min(min_margin, bound - sigma_m(sched))
    _line(6, min_margin > 0.0, f"min bound margin {min_margin:.6f} over 50 schedules")
    assert min_margin > 0.0


def test_criterion_07_noise_budget_envelope():
    worst_settled = -np.inf
    worst_final = -np.inf
    for trial in range(10):
        es, ef, _ = _envelope_trial(
            2000 + trial, 3, 1, delta=1.5, eta=0.1, eps=0.01, noise_seed=4000 + trial
        )
        worst_settled = max(worst_settled, es)
        worst_final = max(worst_final, ef)

    # a budget that exhausts the admissible interval must be refused
    p = ConvergenceParams(
        n=3, b=1, theta_l=6.0, sigma_m=0.0, delta=1.5, eta=0.1,
        eps_u=0.05, eps_l=0.01,
    )
    with pytest.raises(ErrorBudgetExceeded):
        robust_delta_max(p)
    ok = worst_settled <= 1e-9 and worst_final <= 1e-9
    _line(7, ok, f"settled excess {worst_settled:.3e}, final-window excess {worst_final:.3e}, 10 noisy trials; over-budget refused")
    assert worst_settled <= 1e-9
    assert worst_final <= 1e-9


def test_criterion_08_multiloop_spectral_decay():
    rng = np.random.default_rng(18)
    worst = -np.inf
    for trial in range(20):
        n = (3, 5, 8)[trial % 3]
        a = metropolis_weights(random_connected_graph(n, rng))
        sigma_a = second_singular_value(a)
        g = grid_1d(-4.0, 4.0, 32)
        liks = [
            DensityGrid.gaussian(g, float(rng.uniform(-2.0, 2.0)), [[float(rng.uniform(0.3, 2.0))]])
            for _ in range(n)
        ]
        res = multiloop_fuse(liks, a, 10)
        for loop, err in enumerate(res.error_norms, start=1):
            worst = max(worst, err - multiloop_bound(n, sigma_a, loop))
    _line(8, worst <= 1e-9, f"max bound excess {worst:.3e} over 20 graphs, loops 1..10")
    assert worst <= 1e-9


# ------------------------------------------- linear-Gaussian specialization


def test_criterion_09_information_filter_equivalence():
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(1, 5))
        obs = int(rng.integers(1, dim + 1))
        f = rng.standard_normal((dim, dim)) + 2.0 * np.eye(dim)
        q_half = rng.standard_normal((dim, dim))
        q = q_half @ q_half.T + dim * np.eye(dim)
        h = rng.standard_normal((obs, dim))
        r_half = rng.standard_normal((obs, obs))
        r = r_half @ r_half.T + obs * np.eye(obs)
        model = LinearModel(f=f, q=q, h=(h,), r=(r,))
        x = rng.standard_normal(dim)
        p_half = rng.standard_normal((dim, dim))
        p = p_half @ p_half.T + dim * np.eye(dim)
        y = rng.standard_normal(obs)

        s = info_predict(InfoState.from_moments(x, p), model)
        s = info_fuse(s, *info_measurement(y, model, 0), [], 1, n_agents=1)
        x_info, p_info, _ = info_update(s)

        x_pred, p_pred = f @ x, f @ p @ f.T + q
        gain = p_pred @ h.T @ np.linalg.inv(h @ p_pred @ h.T + r)
        x_ref = x_pred + gain @ (y - h @ x_pred)
        p_ref = (np.eye(dim) - gain @ h) @ p_pred
        worst = max(worst, float(np.abs(x_info - x_ref).max()), float(np.abs(p_info - p_ref).max()))

    # a lone agent must reproduce the centralized filter bit for bit
    model = LinearModel(
        f=0.9 * np.eye(2),
        q=0.3 * np.eye(2),
        h=(np.array([[1.0, 0.4]]),),
        r=(np.array([[0.8]]),),
    )
    solo = InfoState.from_moments(np.zeros(2), 4.0 * np.eye(2))
    central = InfoState.from_moments(np.zeros(2), 4.0 * np.eye(2))
    exact = True
    for k in range(1, 7):
        y = np.array([0.3 * k - 0.5])
        pred = info_predict(solo, model)
        received = [] if k == 1 else [(solo.u, solo.U, 1.0)]
        fused = info_fuse(pred, *info_measurement(y, model, 0), received, k, n_agents=1)
        x_solo, p_solo, solo = info_update(fused)
        x_c, p_c, central = centralized_info_step(central, model, [y])
        exact = exact and np.array_equal(x_solo, x_c) and np.array_equal(p_solo, p_c)

    ok = worst <= 1e-8 and exact
    _line(9, ok, f"max oracle deviation {worst:.3e} over 50 instances; lone-agent run exact: {exact}")
    assert worst <= 1e-8
    assert exact


# ------------------------------------------------------- simulation scenarios


def test_criterion_10_benchmark_tracking_accuracy():
    """Benchmark 1 tracks nearly as well as the centralized filter.

    Each agent's fused likelihood converges to an error ball around the
    joint likelihood of the centralized multi-sensor filter, so the gate
    measures the distributed error against that filter on the same truth,
    noise and seeds. The centralized reference scores 1.77, 3.66, 12.69,
    35.87 and 50.76 on seeds 1-5 at dt = 0.05 (median 12.69). With 100,000
    particles seeds 3-5 still give 13.15, 36.18 and 50.85, and with
    noise_tau = 0 all five fall to 0.5-2.9: the floor is set by the
    scenario's coloured measurement noise, not by particle count, so an
    absolute bound near 5 asks the distributed filter to beat the filter
    it converges to. The library's admissible-interval bound is about 1e-7 s
    at dt = 0.05, so the theory gives no factor either. Three times the
    centralized median fails a fused grid that loses the target (a grid
    fixed to the region gave 10.2 times) and passes one that follows it
    (2.4 times).
    """
    t0 = time.perf_counter()
    fine = []
    coarse = []
    for seed in range(1, 6):
        fine.append(run_benchmark_scenario1(BenchmarkConfig(seed=seed, dt=0.05)).summary)
        coarse.append(run_benchmark_scenario1(BenchmarkConfig(seed=seed, dt=0.5)).summary)
    med_fine = float(np.median([s["steady_state_mse"] for s in fine]))
    med_coarse = float(np.median([s["steady_state_mse"] for s in coarse]))
    med_central = float(np.median([s["steady_state_mse_central"] for s in fine]))
    elapsed = time.perf_counter() - t0
    verdicts = {
        "med_fine < 3.0 * med_central": med_fine < 3.0 * med_central,
        "med_coarse > med_fine": med_coarse > med_fine,
        "elapsed < 600.0": elapsed < 600.0,
    }
    ok = all(verdicts.values())
    _line(
        10,
        ok,
        f"median steady MSE {med_fine:.2f} at dt=0.05, centralized {med_central:.2f}, "
        f"ratio {med_fine / med_central:.2f}, {med_coarse:.2f} at dt=0.5, {elapsed:.0f}s",
    )
    assert ok, "failed: " + "; ".join(name for name, passed in verdicts.items() if not passed)


def test_criterion_11_linear_gap_shrinks_with_rate():
    t0 = time.perf_counter()
    gaps = []
    for dt in (0.5, 0.2, 0.1, 0.05):
        per_seed = []
        for seed in range(1, 6):
            s = run_benchmark_scenario2(BenchmarkConfig(seed=seed, dt=dt)).summary
            per_seed.append(abs(s["steady_state_mse"] - s["steady_state_mse_central"]))
        gaps.append(float(np.median(per_seed)))
    elapsed = time.perf_counter() - t0
    monotone = all(a > b for a, b in zip(gaps, gaps[1:]))
    ok = monotone and elapsed < 120.0
    _line(11, ok, "median gaps " + " > ".join(f"{g:.3f}" for g in gaps) + f", {elapsed:.0f}s")
    assert monotone
    assert elapsed < 120.0


def test_criterion_12_formation_geometry():
    t0 = time.perf_counter()
    center_gap = abs(FormationConfig(n_agents=4).center_spacing - 0.7071)
    summaries = {}
    details = []
    for n in (3, 4, 5):
        summaries[n] = run_formation(FormationConfig(n_agents=n, seed=1)).summary
        s = summaries[n]
        details.append(f"n={n} side {100 * s['max_side_deviation']:.1f}% center {100 * s['max_center_deviation']:.1f}%")
    elapsed = time.perf_counter() - t0
    ok = center_gap <= 5e-5 and elapsed < 180.0 and all(
        s["max_side_deviation"] <= 0.10 and s["max_center_deviation"] <= 0.10
        for s in summaries.values()
    )
    _line(12, ok, "; ".join(details) + f", {elapsed:.0f}s")
    assert center_gap <= 5e-5
    for s in summaries.values():
        assert s["max_side_deviation"] <= 0.10
        assert s["max_center_deviation"] <= 0.10
    assert elapsed < 180.0


def test_criterion_13_deterministic_metrics(tmp_path):
    runs = {
        "tracking": lambda: run_benchmark_scenario1(BenchmarkConfig(seed=1, dt=0.5)),
        "linear": lambda: run_benchmark_scenario2(BenchmarkConfig(seed=1, dt=0.1)),
        "formation": lambda: run_formation(FormationConfig(n_agents=4, seed=1)),
    }
    identical = True
    for name, make in runs.items():
        first = tmp_path / f"{name}_a.csv"
        second = tmp_path / f"{name}_b.csv"
        write_metrics(first, make())
        write_metrics(second, make())
        identical = identical and first.read_bytes() == second.read_bytes()
    _line(13, identical, "reruns byte-identical for tracking, linear, and formation metrics")
    assert identical
