import math

import numpy as np
import pytest

from dbfnet.density import StateGrid
from dbfnet.errors import ConfigInvalid
from dbfnet.scenarios import (
    BenchmarkConfig,
    FormationConfig,
    MultiloopConfig,
    _bank_step,
    _joint_log_likelihood,
    _observed_kappa,
    _scenario1_measurements,
    apf_term,
    bearing,
    benchmark_layout,
    doa_log_likelihood,
    master_trajectory,
    run_benchmark_scenario1,
    run_benchmark_scenario2,
    run_formation,
    run_multiloop,
    target_dynamics_cv,
    toa_log_likelihood,
)
from dbfnet.topology import AdjacencySchedule, check_assumption1


def tiny_benchmark(**kw):
    base = dict(
        seed=3,
        dt=0.1,
        duration=1.0,
        n_agents=4,
        n_toa=2,
        n_doa=1,
        particles=300,
        grid_cells=(24, 24),
        comm_radius=80.0,
    )
    base.update(kw)
    return BenchmarkConfig(**base)


# ----------------------------------------------------------------- dynamics


def test_cv_process_noise_block():
    _, q = target_dynamics_cv(1.0)
    np.testing.assert_allclose(q[:2, :2], [[1.0 / 3.0, 0.5], [0.5, 1.0]])
    np.testing.assert_allclose(q[2:, 2:], q[:2, :2])
    assert np.all(q[:2, 2:] == 0.0)


def test_cv_zero_velocity_is_fixed_point():
    f, _ = target_dynamics_cv(0.3)
    state = np.array([4.0, 0.0, -2.0, 0.0])
    np.testing.assert_allclose(f @ state, state)


def test_cv_transition_eigenvalues_are_one():
    f, _ = target_dynamics_cv(0.7)
    np.testing.assert_allclose(np.linalg.eigvals(f), np.ones(4))


def test_cv_rejects_bad_interval():
    with pytest.raises(ConfigInvalid):
        target_dynamics_cv(0.0)


# -------------------------------------------------------------- likelihoods


def grid_2d(half=50.0, n=80):
    return StateGrid((-half, -half), (half, half), (n, n))


def test_bearing_conventions():
    # printed order measures from the +y axis toward +x
    assert bearing(np.array(1.0), np.array(0.0), True) == pytest.approx(math.pi / 2)
    assert bearing(np.array(0.0), np.array(1.0), True) == pytest.approx(0.0)
    assert bearing(np.array(1.0), np.array(0.0), False) == pytest.approx(0.0)


def test_toa_mass_concentrates_on_range_circle():
    g = grid_2d()
    sensor = np.array([0.0, 0.0])
    y = 30.0
    sigma = 1.0
    logs = toa_log_likelihood(g.cells, sensor, y, sigma)
    p = np.exp(logs - logs.max())
    p /= p.sum()
    d = np.hypot(g.cells[:, 0], g.cells[:, 1])
    near_ring = np.abs(d - y) <= 3.0 * sigma
    assert p[near_ring].sum() >= 0.99
    peak_d = d[np.argmax(logs)]
    assert abs(peak_d - y) <= 2.0


def test_doa_wedge_follows_printed_axis():
    g = grid_2d()
    sensor = np.array([0.0, 0.0])
    sigma = math.radians(2.0)
    printed = doa_log_likelihood(g.cells, sensor, 0.0, sigma, True)
    top = g.cells[np.argsort(printed)[-50:]]
    # zero bearing in printed order points along +y
    assert np.all(top[:, 1] > 0)
    assert np.abs(top[:, 0]).max() <= np.abs(top[:, 1]).max()
    conventional = doa_log_likelihood(g.cells, sensor, 0.0, sigma, False)
    top_c = g.cells[np.argsort(conventional)[-50:]]
    assert np.all(top_c[:, 0] > 0)


def test_doa_residual_wraps():
    g = grid_2d()
    sigma = math.radians(2.0)
    # measurement just under +pi and displacement just over -pi agree modulo 2 pi
    near_pi = doa_log_likelihood(
        np.array([[0.1, -40.0]]), np.zeros(2), math.pi - 0.01, sigma, True
    )
    assert near_pi[0] > -10.0


# -------------------------------------------------------------------- config


def test_benchmark_config_validation():
    with pytest.raises(ConfigInvalid):
        tiny_benchmark(dt=0.033)
    with pytest.raises(ConfigInvalid):
        tiny_benchmark(n_toa=5, n_doa=0)
    with pytest.raises(ConfigInvalid):
        tiny_benchmark(particles=0)
    with pytest.raises(ConfigInvalid):
        tiny_benchmark(region=(10.0, 0.0, 0.0, 10.0))
    with pytest.raises(ConfigInvalid):
        tiny_benchmark(reset_period=-1.0)
    # the steady L1 target must leave (1 + eta) delta_target below the L1 bound of 2
    with pytest.raises(ConfigInvalid):
        tiny_benchmark(delta_target=1.5, eta=0.5)
    with pytest.raises(ConfigInvalid):
        tiny_benchmark(eta=1.0)
    cfg = tiny_benchmark()
    assert cfg.steps == 10
    assert cfg.stride == 10
    assert cfg.sigma_theta == pytest.approx(math.radians(2.0))
    g = cfg.position_grid()
    assert g.points == (24, 24)


def test_layout_is_connected_and_balanced():
    cfg = tiny_benchmark(n_agents=8, n_toa=3, n_doa=2, comm_radius=20.0)
    layout = benchmark_layout(cfg)
    assert layout.positions.shape == (8, 2)
    report = check_assumption1(AdjacencySchedule.static(layout.adjacency))
    assert report.connectivity_ok and report.doubly_stochastic_ok
    np.testing.assert_array_equal(layout.toa, [0, 1, 2])
    np.testing.assert_array_equal(layout.doa, [3, 4])


def test_master_trajectory_shared_across_intervals():
    coarse = tiny_benchmark(dt=0.1)
    fine = tiny_benchmark(dt=0.05)
    t_coarse, n_coarse = master_trajectory(coarse)
    t_fine, n_fine = master_trajectory(fine)
    np.testing.assert_array_equal(t_coarse, t_fine)
    np.testing.assert_array_equal(n_coarse, n_fine)
    assert t_coarse.shape == (101, 4)


def test_observed_kappa_cases():
    assert _observed_kappa(np.array([0.1, 0.1, 0.1]), 0.5) == 1
    assert _observed_kappa(np.array([1.0, 0.1, 0.1]), 0.5) == 2
    assert _observed_kappa(np.array([1.0, 1.0, 0.1]), 0.5) == 3
    assert _observed_kappa(np.array([0.1, 0.1, 1.0]), 0.5) is None


# ------------------------------------------------------------- scenario one


def test_scenario1_smoke_metrics():
    res = run_benchmark_scenario1(tiny_benchmark())
    metrics = {m for _, _, m, _ in res.rows}
    assert metrics == {"sq_err", "l1_to_joint"}
    for _, agent, metric, value in res.rows:
        if metric == "l1_to_joint":
            assert 0.0 <= value <= 2.0
        else:
            assert value >= 0.0
    assert res.estimates.shape == (10, 4, 2)
    assert res.truth.shape == (10, 4)
    s = res.summary
    assert s["steady_state_mse"] >= 0.0
    assert s["steady_state_mse_central"] >= 0.0
    assert 0.0 <= s["max_l1_final_window"] <= 2.0
    assert s["observed_kappa"] is None or s["observed_kappa"] >= 1


def _bank_inputs(count=200, seed=5):
    rng = np.random.default_rng(seed)
    bank = rng.standard_normal((4, count))
    f, q = target_dynamics_cv(0.1)
    rough = np.array([0.5, 0.1, 0.5, 0.1])
    return bank, np.zeros(count), f, np.linalg.cholesky(q), rough, np.empty((2, 4, count))


def test_bank_step_flat_increment_keeps_uniform_weights():
    bank, log_w, f, chol, rough, scratch = _bank_inputs()
    expected = f @ bank + chol @ np.random.default_rng(9).standard_normal(bank.shape)
    rng = np.random.default_rng(9)
    w = _bank_step(bank, log_w, lambda points: np.zeros(len(points)), f, chol, rng, rough, scratch)
    np.testing.assert_allclose(w, 1.0 / bank.shape[1], rtol=1e-12)
    # normalized in place, not reset: a resample would leave 0
    np.testing.assert_allclose(log_w, -np.log(bank.shape[1]), rtol=1e-12)
    # no resample: the bank is the propagated one and the stream drew only the noise
    np.testing.assert_allclose(bank, expected, rtol=1e-12, atol=1e-12)
    rest = np.random.default_rng(9)
    rest.standard_normal(bank.shape)
    assert rng.uniform() == rest.uniform()


def test_bank_step_collapse_resamples_in_place():
    bank, log_w, f, chol, rough, scratch = _bank_inputs()
    count = bank.shape[1]
    before = bank.copy()

    def collapse(points):
        inc = np.full(len(points), -1e3)
        inc[7] = 0.0
        return inc

    w = _bank_step(bank, log_w, collapse, f, chol, np.random.default_rng(2), rough, scratch)
    assert not np.array_equal(bank, before)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(w, 1.0 / count)
    np.testing.assert_array_equal(log_w, 0.0)
    # every particle is a roughened copy of the one that carried the weight
    propagated = f @ before + chol @ np.random.default_rng(2).standard_normal(bank.shape)
    spread = np.abs(bank - propagated[:, 7:8]).max(axis=1)
    assert np.all(spread < 8.0 * rough)


def test_joint_log_likelihood_is_the_agent_order_row_sum():
    # the centralized reference's increment must keep the bits of the sum over
    # a full (n_agents, points) array whose sensor-less rows are zero
    cfg = tiny_benchmark(n_agents=6, n_toa=2, n_doa=2)
    layout = benchmark_layout(cfg)
    truth, noise = master_trajectory(cfg)
    meas = _scenario1_measurements(cfg, layout, truth[5], noise[5])
    points = np.random.default_rng(11).uniform(-50.0, 150.0, (500, 2))
    full = np.zeros((cfg.n_agents, len(points)))
    for i, (kind, y) in meas.items():
        if kind == "toa":
            full[i] = toa_log_likelihood(points, layout.positions[i], y, cfg.sigma_r)
        else:
            full[i] = doa_log_likelihood(
                points, layout.positions[i], y, cfg.sigma_theta, cfg.doa_printed_order
            )
    np.testing.assert_array_equal(_joint_log_likelihood(cfg, layout, meas, points), full.sum(axis=0))


def test_scenario1_deterministic():
    a = run_benchmark_scenario1(tiny_benchmark())
    b = run_benchmark_scenario1(tiny_benchmark())
    assert a.rows == b.rows
    assert a.summary == b.summary
    np.testing.assert_array_equal(a.estimates, b.estimates)


def test_position_grid_moves_by_whole_cells():
    cfg = tiny_benchmark(region=(0.0, 48.0, 10.0, 34.0), grid_cells=(24, 12))
    base = cfg.position_grid()
    moved = cfg.position_grid((3, -2))
    assert moved.points == base.points
    np.testing.assert_allclose(moved.widths, base.widths, rtol=1e-12)
    np.testing.assert_allclose(np.subtract(moved.lower, base.lower), [6.0, -4.0])
    np.testing.assert_allclose(moved.cells[0] - base.cells[0], [6.0, -4.0])


def test_scenario1_follows_target_out_of_region():
    # the target leaves the 40 m box early and stays out through the steady
    # window; a fused grid fixed to the box pins every estimate to its edge
    # (median steady MSE near 1000 here), a window that follows the agents
    # keeps the error under the 10 m range noise
    steady_mse = []
    for seed in range(1, 6):
        cfg = tiny_benchmark(
            seed=seed,
            duration=8.0,
            n_agents=6,
            n_toa=3,
            n_doa=2,
            particles=2000,
            region=(0.0, 40.0, 0.0, 40.0),
            x0=(30.0, 4.0, 20.0, 0.0),
        )
        res = run_benchmark_scenario1(cfg)
        steady = res.truth[int(0.75 * cfg.steps):]
        assert (steady[:, 0] > 40.0).all()
        steady_mse.append(res.summary["steady_state_mse"])
    assert np.median(steady_mse) < cfg.sigma_r**2


def test_scenario1_single_agent_estimate_tracks_joint_exactly():
    # with one agent the fused power estimate is the joint likelihood itself
    cfg = tiny_benchmark(n_agents=1, n_toa=1, n_doa=0, particles=500)
    res = run_benchmark_scenario1(cfg)
    l1 = [v for _, _, m, v in res.rows if m == "l1_to_joint"]
    assert max(l1) <= 1e-9


# ------------------------------------------------------------- scenario two


def test_scenario2_smoke_metrics():
    cfg = tiny_benchmark(n_agents=6, n_toa=3, n_doa=0, duration=2.0)
    res = run_benchmark_scenario2(cfg)
    metrics = {m for _, _, m, _ in res.rows}
    assert metrics == {"sq_err", "trace_p"}
    traces = [v for _, _, m, v in res.rows if m == "trace_p"]
    assert min(traces) > 0.0
    agents = {a for _, a, _, _ in res.rows}
    assert -1 in agents and 0 in agents
    s = res.summary
    assert s["mse_gap"] == pytest.approx(
        abs(s["steady_state_mse"] - s["steady_state_mse_central"])
    )


def test_scenario2_deterministic():
    cfg = tiny_benchmark(n_agents=5, n_toa=2, n_doa=0)
    a = run_benchmark_scenario2(cfg)
    b = run_benchmark_scenario2(cfg)
    assert a.rows == b.rows


def test_scenario2_tiny_measurement_noise():
    # the centralized filter pins to the near-exact measurements; the consensus
    # filter keeps a floor set by one-tick-stale neighbor contributions, and
    # that floor shrinks with the tick length
    base = dict(n_agents=4, n_toa=2, n_doa=0, duration=2.0, r_linear=1e-8)
    res = run_benchmark_scenario2(tiny_benchmark(**base))
    assert res.summary["steady_state_mse_central"] <= 1e-6
    assert res.summary["steady_state_mse"] <= 1.0
    fine = run_benchmark_scenario2(tiny_benchmark(dt=0.05, **base))
    assert fine.summary["steady_state_mse"] < res.summary["steady_state_mse"]


# ---------------------------------------------------------------- formation


def test_formation_config_validation():
    with pytest.raises(ConfigInvalid):
        FormationConfig(n_agents=2)
    with pytest.raises(ConfigInvalid):
        FormationConfig(apf_gain=0.0)
    with pytest.raises(ConfigInvalid):
        FormationConfig(ticks=0)
    with pytest.raises(ConfigInvalid):
        FormationConfig(warmup=300)
    with pytest.raises(ConfigInvalid):
        FormationConfig(consensus_reset=0)
    cfg = FormationConfig(n_agents=4)
    assert cfg.half_width == 4.0
    assert cfg.position_grid().ndim == 2


def test_center_spacing_closed_form():
    assert FormationConfig(n_agents=4).center_spacing == pytest.approx(1.0 / math.sqrt(2.0))
    assert FormationConfig(n_agents=3).center_spacing == pytest.approx(1.0 / math.sqrt(3.0))
    assert FormationConfig(n_agents=6).center_spacing == pytest.approx(1.0)


def test_apf_term_zero_at_design_distance():
    out = apf_term(np.array([2.0, 0.0]), np.array([0.0, 0.0]), 2.0, 0.1)
    np.testing.assert_allclose(out, np.zeros(2), atol=1e-12)
    attract = apf_term(np.array([5.0, 0.0]), np.array([0.0, 0.0]), 2.0, 0.1)
    assert attract[0] > 0.0
    repel = apf_term(np.array([1.0, 0.0]), np.array([0.0, 0.0]), 2.0, 0.1)
    assert repel[0] < 0.0


def test_formation_smoke_run():
    cfg = FormationConfig(
        seed=5, n_agents=3, particles=200, ticks=30, grid_cells=(48, 48)
    )
    res = run_formation(cfg)
    assert len(res.summary["final_positions"]) == 3
    hw = cfg.half_width
    for x, y in res.summary["final_positions"]:
        assert -hw <= x <= hw and -hw <= y <= hw
    assert len(res.summary["final_sides"]) == 3
    assert {m for _, _, m, _ in res.rows} == {"self_sq_err"}
    assert len(res.rows) == 30 * 3


def test_formation_deterministic():
    cfg = FormationConfig(seed=5, n_agents=3, particles=150, ticks=15, grid_cells=(32, 32))
    a = run_formation(cfg)
    b = run_formation(cfg)
    assert a.summary == b.summary
    assert a.rows == b.rows


# ---------------------------------------------------------------- multiloop


def test_multiloop_run_respects_bounds():
    res = run_multiloop(MultiloopConfig(seed=2, n_agents=5, n_loop=6))
    norms = res.summary["error_norms"]
    bounds = res.summary["error_bounds"]
    assert len(norms) == 6
    for e, b in zip(norms, bounds):
        assert e <= b + 1e-9
    assert res.summary["sigma_a"] < 1.0


def test_multiloop_config_validation():
    with pytest.raises(ConfigInvalid):
        MultiloopConfig(n_agents=1)
    with pytest.raises(ConfigInvalid):
        MultiloopConfig(n_loop=0)
