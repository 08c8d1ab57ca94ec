import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from dbfnet import cli, scenarios
from dbfnet.density import StateGrid, normalize_rows, systematic_indices
from dbfnet.errors import ConfigInvalid, DbfError
from dbfnet.infofilter import (
    InfoState,
    LinearModel,
    centralized_info_step,
    info_fuse,
    info_measurement,
    info_predict,
    info_update,
)
from dbfnet.scenarios import (
    BenchmarkConfig,
    FormationConfig,
    MultiloopConfig,
    _BankScheduler,
    _MarginalMotion,
    _drift_motion,
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
from dbfnet.streams import named_stream
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
    # bearings are measured from the +y axis toward +x
    assert bearing(np.array(1.0), np.array(0.0)) == pytest.approx(math.pi / 2)
    assert bearing(np.array(0.0), np.array(1.0)) == pytest.approx(0.0)


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
    printed = doa_log_likelihood(g.cells, sensor, 0.0, sigma)
    top = g.cells[np.argsort(printed)[-50:]]
    # zero bearing points along +y
    assert np.all(top[:, 1] > 0)
    assert np.abs(top[:, 0]).max() <= np.abs(top[:, 1]).max()


def test_doa_residual_wraps():
    g = grid_2d()
    sigma = math.radians(2.0)
    # measurement just under +pi and displacement just over -pi agree modulo 2 pi
    near_pi = doa_log_likelihood(np.array([[0.1, -40.0]]), np.zeros(2), math.pi - 0.01, sigma)
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
    # the steady L1 target must leave (1 + eta) delta_target below the L1 bound of 2
    with pytest.raises(ConfigInvalid):
        tiny_benchmark(delta_target=1.5, eta=0.5)
    with pytest.raises(ConfigInvalid):
        tiny_benchmark(eta=1.0)
    for bad in ({"dt": 0.0}, {"duration": -1.0}):
        with pytest.raises(ConfigInvalid, match="dt and duration must be positive"):
            tiny_benchmark(**bad)
    with pytest.raises(ConfigInvalid, match="agent counts must be nonnegative"):
        tiny_benchmark(n_doa=-1)
    for name in ("sigma_r", "sigma_theta_deg", "r_linear"):
        with pytest.raises(ConfigInvalid, match="noise scales must be positive"):
            tiny_benchmark(**{name: 0.0})
    with pytest.raises(ConfigInvalid, match="at least 2 cells per axis"):
        tiny_benchmark(grid_cells=(24, 1))
    for name in ("noise_tau", "comm_radius", "prior_pos_sigma", "prior_vel_sigma"):
        with pytest.raises(ConfigInvalid, match=f"{name} must be nonnegative"):
            tiny_benchmark(**{name: -0.5})
        assert getattr(tiny_benchmark(**{name: 0.0}), name) == 0.0
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


@pytest.mark.parametrize("seed", [1, 2, 7, 40])
def test_layout_pairs_equal_the_pairwise_loop(seed, monkeypatch):
    cfg = BenchmarkConfig(seed=seed)
    seen = []
    monkeypatch.setattr(scenarios, "_bridge_components", lambda n, pairs, pos: seen.append(list(pairs)) or pairs)
    positions = benchmark_layout(cfg).positions
    expected = [
        (i, j)
        for i in range(cfg.n_agents)
        for j in range(i + 1, cfg.n_agents)
        if np.hypot(*(positions[i] - positions[j])) <= cfg.comm_radius
    ]
    assert seen == [expected]
    assert all(type(i) is int and type(j) is int for i, j in seen[0])


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


_CV_DT, _CV_ROUGH, _CV_VAR_V = 0.1, (0.5, 0.1), 9.0


def _cv_motion():
    """Benchmark 1's kind of motion at dt 0.1: roughening ``_CV_ROUGH`` (position,
    velocity) after a resample, velocity variance ``_CV_VAR_V`` at first."""
    _, q = target_dynamics_cv(_CV_DT)
    return _MarginalMotion(_CV_DT, q[:2, :2], *_CV_ROUGH, _CV_VAR_V)


def _conditioned_move(bank, w, s, rough=(0.0, 0.0)):
    """The marginal move of a (4, P) bank of rows (x, m_x, y, m_y), written out
    as Gaussian conditioning: per axis, (p', v') given a particle (p, m) is
    N(F1 (p, m), F1 diag(r_p^2, s + r_v^2) F1^T + Q1); p' is drawn from its
    marginal with the (2, P) noise ``w`` and v' conditioned on it. Returns
    the moved bank, the gain and the new velocity variance."""
    _, q = target_dynamics_cv(_CV_DT)
    f1 = np.array([[1.0, _CV_DT], [0.0, 1.0]])
    cov = f1 @ np.diag([rough[0] ** 2, s + rough[1] ** 2]) @ f1.T + q[:2, :2]
    gain = cov[1, 0] / cov[0, 0]
    out = np.empty_like(bank)
    for axis, noise in zip((0, 2), w):
        mean = f1 @ bank[axis : axis + 2]
        out[axis] = mean[0] + math.sqrt(cov[0, 0]) * noise
        out[axis + 1] = mean[1] + gain * (out[axis] - mean[0])
    return out, gain, cov[1, 1] - gain * cov[1, 0]


def _cv_bank(count=200, seed=5):
    """A (4, P) bank of rows (x, m_x, y, m_y) with its marginal motion, its
    position rows and its move written out for given (2, P) noise."""
    bank = np.random.default_rng(seed).standard_normal((4, count))
    return bank, _cv_motion(), slice(None, None, 2), lambda w: _conditioned_move(bank, w, _CV_VAR_V)[0]


def _drift_bank(count=200, seed=5):
    """A (2, P) drifting position bank, as formation steps, some of it pushed past the box edge."""
    bank = np.random.default_rng(seed).uniform(-2.0, 2.0, (2, count))
    drift = np.array([0.3, -0.2])
    motion = partial(_drift_motion, drift, 0.05, 2.0)
    move = lambda w: np.clip(bank + (0.05 * w + drift[:, None]), -2.0, 2.0)
    return bank, motion, slice(None), move


def _scheduler(particles, log_w, positions, rngs, pool=None, workers=1):
    """A scheduler over a (B, d, P) stack; its means start as NaN."""
    means = np.full(particles.shape[:2], np.nan)
    return _BankScheduler(particles, log_w, means, positions, rngs, pool, workers)


def _step_one(make_bank, likelihood, rng, count=200):
    """One tick of one bank on the calling thread: the bank, its log weights,
    its mean and the scheduler."""
    bank, motion, positions, _ = make_bank(count)
    log_w = np.zeros(count)
    banks = _scheduler(bank[None], log_w[None], positions, [rng])
    banks.move([motion])
    banks.weigh([likelihood])
    return bank, log_w, banks.means[0], banks


@pytest.mark.parametrize("make_bank", [_cv_bank, _drift_bank], ids=["cv", "drift"])
def test_bank_step_flat_increment_keeps_uniform_weights(make_bank):
    before, _, positions, move = make_bank()
    expected = move(np.random.default_rng(9).standard_normal(before[positions].shape))
    rng = np.random.default_rng(9)
    bank, log_w, mean, banks = _step_one(make_bank, _flat, rng)
    # normalized in place, not reset: a resample would leave 0
    np.testing.assert_allclose(log_w, -np.log(bank.shape[1]), rtol=1e-12)
    # no resample: the bank is the propagated one and the stream drew only the
    # noise of its position rows
    np.testing.assert_allclose(bank, expected, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(mean, bank.mean(axis=1), rtol=1e-12, atol=1e-12)
    assert banks.resampled == [False]
    rest = np.random.default_rng(9)
    rest.standard_normal(bank[positions].shape)
    assert rng.uniform() == rest.uniform()


def _flat(points):
    assert points.shape[1] == 2
    return np.zeros(len(points))


def _collapse(points):
    inc = np.full(len(points), -1e3)
    inc[7] = 0.0
    return inc


def test_bank_step_collapse_resamples_in_place():
    # the resample only copies and flags the bank, for either motion: the caller roughens it
    for make_bank in (_cv_bank, _drift_bank):
        before, _, positions, move = make_bank()
        propagated = move(np.random.default_rng(2).standard_normal(before[positions].shape))
        rng = np.random.default_rng(2)
        bank, log_w, mean, banks = _step_one(make_bank, _collapse, rng)
        count = bank.shape[1]
        np.testing.assert_array_equal(log_w, 0.0)
        # every particle is an exact copy of the one that carried the weight
        np.testing.assert_allclose(bank, np.broadcast_to(propagated[:, 7:8], bank.shape), rtol=1e-12, atol=1e-12)
        assert (bank == bank[:, :1]).all()
        # the mean weighs every particle alike
        np.testing.assert_array_equal(mean, bank @ np.full(count, 1.0 / count))
        assert banks.resampled == [True]
        # the stream drew rows(bank[positions]) x P normals for the move, then
        # the resample offset, and no jitter
        rest = np.random.default_rng(2)
        rest.standard_normal(bank[positions].shape)
        rest.uniform()
        assert rng.uniform() == rest.uniform()


@pytest.mark.parametrize("resampled", [False, True])
def test_marginal_move_is_the_conditioned_gaussian(resampled):
    # one move: p' drawn from its predictive law, v' conditioned on it; after
    # a resample, with the velocity variance inflated by r_v^2 and r_p^2 added
    # to p's variance
    bank, motion, _, _ = _cv_bank(count=500)
    before, w = bank.copy(), np.random.default_rng(3).standard_normal((2, 500))
    want, gain, var_v = _conditioned_move(before, w, _CV_VAR_V, _CV_ROUGH if resampled else (0.0, 0.0))
    motion(bank, w.copy(), np.empty_like(bank), resampled)
    np.testing.assert_allclose(bank, want, rtol=1e-12, atol=1e-12)
    assert motion.var_v == pytest.approx(var_v, rel=1e-12)
    # the velocity means moved by the gain times the position innovation
    innovation = bank[::2] - before[::2] - _CV_DT * before[1::2]
    np.testing.assert_allclose(bank[1::2] - before[1::2], gain * innovation, rtol=1e-9, atol=1e-12)
    # the same at a variance as small as the steady one and at none, which
    # stays positive
    for s in (0.0, 1e-6):
        motion.var_v = s
        got, w2 = before.copy(), w.copy()
        motion(got, w2, np.empty_like(bank), resampled)
        want, _, var_v = _conditioned_move(before, w, s, _CV_ROUGH if resampled else (0.0, 0.0))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert motion.var_v == pytest.approx(var_v, rel=1e-12) and motion.var_v > 0.0


def _full_state_move(bank, chol, rng, rough=None):
    """Benchmark 1's earlier full-state move of a (4, P) bank (x, vx, y, vy):
    jitter by ``rough`` after a resample, then F x + chol(Q) w."""
    if rough is not None:
        bank = bank + rough[:, None] * rng.standard_normal(bank.shape)
    f, _ = target_dynamics_cv(_CV_DT)
    return f @ bank + chol @ rng.standard_normal(bank.shape)


def test_marginal_moves_match_the_full_state_moments():
    # the marginal bank's positions have the law of the full-state bank's
    # whose velocities are drawn from N(m, s): over 200,000 particles and five
    # flat-weight moves, the first after a resample, both position means and
    # covariances agree within five standard errors of their difference
    count, moves = 200_000, 5
    start = np.random.default_rng(21).standard_normal((4, count)) * np.array([[3.0], [1.0], [2.0], [0.5]])
    marginal, motion = start.copy(), _cv_motion()
    banks = _scheduler(marginal[None], np.zeros((1, count)), slice(None, None, 2), [np.random.default_rng(22)])
    banks.resampled[0] = True
    for _ in range(moves):
        banks.move([motion])
        banks.weigh([_flat])
    assert banks.resampled == [False]

    rng = np.random.default_rng(23)
    full = start.copy()
    full[1::2] += math.sqrt(_CV_VAR_V) * rng.standard_normal((2, count))
    _, q = target_dynamics_cv(_CV_DT)
    chol = np.linalg.cholesky(q)
    rough = np.array([_CV_ROUGH[0], _CV_ROUGH[1], _CV_ROUGH[0], _CV_ROUGH[1]])
    for k in range(moves):
        full = _full_state_move(full, chol, rng, rough if k == 0 else None)

    got, want = marginal[::2], full[::2]
    cov = np.cov(want)
    # the two samples are independent: a mean differs by sqrt(2 var / N), a
    # Gaussian covariance entry by sqrt(2 (c_ii c_jj + c_ij^2) / N)
    se_mean = np.sqrt(2.0 * np.diag(cov) / count)
    se_cov = np.sqrt(2.0 * (np.outer(np.diag(cov), np.diag(cov)) + cov**2) / count)
    assert (np.abs(got.mean(axis=1) - want.mean(axis=1)) < 5.0 * se_mean).all()
    assert (np.abs(np.cov(got) - cov) < 5.0 * se_cov).all()
    # the velocity: the full bank's spread is the spread of the means plus s
    var_full = full[1::2].var(axis=1)
    var_marginal = marginal[1::2].var(axis=1) + motion.var_v
    assert (np.abs(var_marginal - var_full) < 5.0 * np.sqrt(2.0 * 2.0 * var_full**2 / count)).all()


def test_bank_step_after_collapse_moves_with_the_roughening():
    rng = np.random.default_rng(2)
    bank, motion, positions, _ = _cv_bank()
    banks = _scheduler(bank[None], np.zeros((1, bank.shape[1])), positions, [rng])
    banks.move([motion])
    banks.weigh([_collapse])
    var_v = _conditioned_move(bank, np.zeros((2, bank.shape[1])), _CV_VAR_V)[2]
    assert motion.var_v == pytest.approx(var_v, rel=1e-12)
    rest = np.random.default_rng(2)
    rest.standard_normal(bank[positions].shape)
    rest.uniform()
    # the move after the resample adds r_p^2 once and inflates s by r_v^2;
    # the one after it moves with the process noise alone
    for rough in (_CV_ROUGH, (0.0, 0.0)):
        copied, noise = bank.copy(), rest.standard_normal(bank[positions].shape)
        want, _, var_v = _conditioned_move(copied, noise, motion.var_v, rough)
        banks.move([motion])
        banks.weigh([_flat])
        np.testing.assert_allclose(bank, want, rtol=1e-12, atol=1e-12)
        assert motion.var_v == pytest.approx(var_v, rel=1e-12)
    # one move spends the flag
    assert banks.resampled == [False]


@pytest.mark.parametrize("dt", [0.05, 0.5])
def test_scenario1_motion_is_process_noise_plus_roughening(dt, monkeypatch):
    built, initial = [], []

    def record(*args):
        built.append((args, _MarginalMotion(*args)))
        return built[-1][1]

    bank_workers = scenarios._bank_workers

    @contextmanager
    def first_banks(particles, *args):
        initial.append(particles.copy())
        with bank_workers(particles, *args) as banks:
            yield banks

    monkeypatch.setattr(scenarios, "_MarginalMotion", record)
    monkeypatch.setattr(scenarios, "_bank_workers", first_banks)
    cfg = tiny_benchmark(dt=dt)
    run_benchmark_scenario1(cfg)
    # one motion per bank, each with its own velocity variance, at first
    # prior_vel_sigma^2
    assert len(built) == cfg.n_agents + 1 == len({id(m) for _, m in built})
    _, q = target_dynamics_cv(dt)
    rough_pos = 0.25 * float(cfg.position_grid().widths.min())
    for args, m in built:
        assert args[4] == cfg.prior_vel_sigma**2
        assert m.dt == dt and (m.q11, m.q12, m.q22) == (q[0, 0], q[0, 1], q[1, 1])
        assert (m.rough_pos2, m.rough_vel2) == (rough_pos**2, 0.1**2)
    # the prior draws positions only, from each bank's stream; the velocity
    # means start at x0's velocity
    x0 = master_trajectory(cfg)[0][0]
    rngs = [named_stream(cfg.seed, "pf", i) for i in range(cfg.n_agents)] + [named_stream(cfg.seed, "pf-central")]
    for bank, rng in zip(initial[0], rngs):
        want = x0[::2, None] + cfg.prior_pos_sigma * rng.standard_normal((2, cfg.particles))
        np.testing.assert_array_equal(bank[::2], want)
        np.testing.assert_array_equal(bank[1::2], np.broadcast_to(x0[1::2, None], (2, cfg.particles)))


_NON_FINITE = [(np.nan, False), (np.nan, True), (np.inf, False), (-np.inf, True)]


@pytest.mark.parametrize(
    "value, everywhere, make_bank",
    [pytest.param(v, e, _cv_bank, id=f"{v}-{e}") for v, e in _NON_FINITE]
    + [pytest.param(v, e, _drift_bank, id=f"{v}-{e}-drift") for v, e in _NON_FINITE],
)
def test_bank_step_non_finite_weights_raise(value, everywhere, make_bank):
    bank, motion, positions, _ = make_bank()
    particles = np.stack([bank] * 5)
    rngs = [np.random.default_rng(b) for b in range(5)]
    banks = _scheduler(particles, np.zeros((5, bank.shape[1])), positions, rngs)

    def increment(points):
        inc = np.zeros(len(points))
        inc[slice(None) if everywhere else 7] = value
        return inc

    banks.move([motion] * 5)
    with np.errstate(invalid="ignore"), pytest.raises(DbfError, match="particle bank 3 "):
        banks.weigh([_flat, _flat, _flat, increment, _flat])


def _oracle_bank_step(bank, log_w, log_likelihood, motion, positions, rng, scratch, index, resampled):
    """One bank moved and weighed in a single call, bank after bank: the
    reference for the scheduler's bits. ``scratch`` is the noise buffer of
    the position rows and a bank-sized spare; ``resampled[index]`` is the
    bank's flag for a resample whose roughening its next move carries."""
    count = bank.shape[1]
    noise, moved = scratch
    motion(bank, rng.standard_normal(out=noise), moved, resampled[index])
    resampled[index] = False
    log_w += log_likelihood(bank[positions].T)
    log_w -= log_w.max()
    w = np.exp(log_w)
    mass = w.sum()
    if not math.isfinite(mass):
        raise DbfError(f"particle bank {index} has weight mass {mass}")
    w /= mass
    log_w -= np.log(mass)
    if 1.0 / (w @ w) < 0.5 * count:
        idx = systematic_indices(w, count, rng)
        np.take(bank, idx, axis=1, out=moved)
        np.copyto(bank, moved)
        resampled[index] = True
        w[:] = 1.0 / count
        log_w[:] = 0.0
    return w


def _oracle_step_banks(particles, log_w, means, likelihoods, motions, positions, rngs, scratch, resampled):
    for b, bank in enumerate(particles):
        w = _oracle_bank_step(bank, log_w[b], likelihoods[b], motions[b], positions, rngs[b], scratch, b, resampled)
        means[b] = bank @ w


_BANKS, _COUNT = 12, 2000


def _bank_stack():
    """12 banks and their inputs, each with its own motion; banks 1, 2, 5, 6,
    9 and 10 resample, the others do not. Their next move roughens them."""
    particles = np.random.default_rng(13).standard_normal((_BANKS, 4, _COUNT))
    log_w = np.random.default_rng(14).uniform(-0.1, 0.0, (_BANKS, _COUNT))
    motions = [_cv_motion() for _ in range(_BANKS)]
    rngs = [np.random.default_rng(100 + b) for b in range(_BANKS)]
    likelihoods = [_collapse if b % 4 in (1, 2) else _flat for b in range(_BANKS)]
    return particles, log_w, motions, rngs, likelihoods


def _field_work():
    """Bank-free numpy work for the calling thread between the two phases."""
    return float(np.sort(np.random.default_rng(0).standard_normal(20_000)).sum())


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_step_banks_pool_is_bit_equal_to_serial(workers):
    particles, log_w, motions, rngs, _ = _bank_stack()
    # each bank collapses on two of the four ticks, so a bank's move follows
    # ticks with and without a resample
    ticks = [[_collapse if (b + t) % 4 in (1, 2) else _flat for b in range(_BANKS)] for t in range(4)]
    # three workers are more threads than a 2-core box has cores, and a short
    # switch interval makes them interleave often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(workers - 1) if workers > 1 else nullcontext() as pool:
            banks = _scheduler(particles, log_w, slice(None, None, 2), rngs, pool, workers)
            for likelihoods in ticks:
                banks.move(motions)
                _field_work()
                banks.weigh(likelihoods)
    finally:
        sys.setswitchinterval(interval)
    want, want_log_w, want_motions, rngs, _ = _bank_stack()
    want_means = np.empty((_BANKS, 4))
    scratch = np.empty((2, _COUNT)), np.empty((4, _COUNT))
    resampled = [False] * _BANKS
    for likelihoods in ticks:
        _oracle_step_banks(
            want, want_log_w, want_means, likelihoods, want_motions, slice(None, None, 2), rngs, scratch, resampled
        )
    np.testing.assert_array_equal(particles, want)
    assert [m.var_v for m in motions] == [m.var_v for m in want_motions]
    np.testing.assert_array_equal(log_w, want_log_w)
    np.testing.assert_array_equal(banks.means, want_means)
    assert [bool((row == 0.0).all()) for row in log_w] == [(b + 3) % 4 in (1, 2) for b in range(_BANKS)]
    assert banks.resampled == resampled


def _fail_on_pool(phase):
    """Step 12 banks one tick on two threads with the motions (``phase`` move)
    or the likelihoods (``phase`` weigh) raising on the pool thread alone."""
    # the calling thread waits until the pool thread has failed, so a bank is
    # sure to have been taken there
    particles, log_w, motions, rngs, likelihoods = _bank_stack()
    caller, failed = threading.get_ident(), threading.Event()

    def on_pool(work):
        def call(*args):
            if threading.get_ident() != caller:
                failed.set()
                raise RuntimeError(f"{phase} failed")
            # the calling thread weighs the last bank first; it holds it until
            # the pool thread has failed on another
            if phase == "weigh" and not failed.wait(10.0):
                raise AssertionError("the pool thread took no bank")
            return work(*args)

        return call

    if phase == "move":
        motions = [on_pool(m) for m in motions]
    else:
        likelihoods = [on_pool(lik) for lik in likelihoods]
    with ThreadPoolExecutor(1) as pool:
        banks = _scheduler(particles, log_w, slice(None, None, 2), rngs, pool, 2)
        banks.move(motions)
        if phase == "move":
            assert failed.wait(10.0)
        with pytest.raises(RuntimeError, match=f"{phase} failed"):
            banks.weigh(likelihoods)
        # every job has ended: nothing writes into the banks after the call
        assert all(job.done() for job in banks._jobs)
        snapshot = particles.copy(), log_w.copy()
        time.sleep(0.05)
        np.testing.assert_array_equal(particles, snapshot[0])
        np.testing.assert_array_equal(log_w, snapshot[1])


def test_step_banks_pool_error_reaches_caller():
    for phase in ("move", "weigh"):
        _fail_on_pool(phase)


def test_step_banks_caller_weighs_last_bank_first_and_waits_on_error():
    # the calling thread weighs the last bank, benchmark 1's reference, before
    # any other; when that fails, the call still waits for the pool thread
    particles, log_w, motions, rngs, _ = _bank_stack()
    caller, started = threading.get_ident(), threading.Event()
    on_caller = []

    def likelihood(b, points):
        if threading.get_ident() == caller:
            on_caller.append(b)
            if not started.wait(10.0):
                raise AssertionError("the pool thread took no bank")
            raise RuntimeError("weigh failed")
        started.set()
        time.sleep(0.005)
        return np.zeros(len(points))

    with ThreadPoolExecutor(1) as pool:
        banks = _scheduler(particles, log_w, slice(None, None, 2), rngs, pool, 2)
        banks.move(motions)
        with pytest.raises(RuntimeError, match="weigh failed"):
            banks.weigh([partial(likelihood, b) for b in range(_BANKS)])
        assert on_caller == [_BANKS - 1]
        assert all(job.done() for job in banks._jobs)
        snapshot = log_w.copy()
        time.sleep(0.05)
        np.testing.assert_array_equal(log_w, snapshot)
        # the pool thread weighed every other bank
        assert np.isfinite(banks.means[:-1]).all() and np.isnan(banks.means[-1]).all()


def test_step_banks_field_error_leaves_no_moves_running(monkeypatch):
    # two usable CPUs give the scheduler its pool thread on any box
    monkeypatch.setattr(scenarios.os, "sched_getaffinity", lambda pid: {0, 1})
    particles, log_w, motions, rngs, _ = _bank_stack()
    moves = []

    def slow(motion, *args):
        time.sleep(0.005)
        moves.append(threading.get_ident())
        return motion(*args)

    before = threading.active_count()
    with pytest.raises(RuntimeError, match="fields failed"):
        with scenarios._bank_workers(particles, log_w, np.empty((_BANKS, 4)), slice(None, None, 2), rngs) as banks:
            banks.move([partial(slow, m) for m in motions])
            raise RuntimeError("fields failed")
    assert threading.active_count() == before
    # the pool thread finished the moves it had queued before the block ended
    assert len(moves) == _BANKS and threading.get_ident() not in moves
    snapshot = particles.copy()
    time.sleep(0.05)
    np.testing.assert_array_equal(particles, snapshot)
    assert len(moves) == _BANKS


def test_scenario1_leaves_no_threads(monkeypatch):
    cfg = tiny_benchmark(dt=0.5, duration=2.0, n_agents=5)
    before = threading.active_count()
    run_benchmark_scenario1(cfg)
    assert threading.active_count() == before
    # the reference, bank 5, is weighed on the calling thread; agent 1's bank
    # on whichever thread takes it from the queue
    with monkeypatch.context() as patch:
        patch.setattr(scenarios, "_joint_log_likelihood", lambda cfg, layout, y, points: np.full(len(points), np.nan))
        with pytest.raises(DbfError, match="particle bank 5 "):
            run_benchmark_scenario1(cfg)
    assert threading.active_count() == before
    power_rows = scenarios.power_rows

    def broken(log_u, n_agents, cell_volume):
        log_t = power_rows(log_u, n_agents, cell_volume)
        log_t[1] = np.nan
        return log_t

    monkeypatch.setattr(scenarios, "power_rows", broken)
    with pytest.raises(DbfError, match="particle bank 1 "):
        run_benchmark_scenario1(cfg)
    assert threading.active_count() == before


def test_scenario1_metric_rows_per_tick():
    cfg = tiny_benchmark(n_agents=5)
    res = run_benchmark_scenario1(cfg)
    n = cfg.n_agents
    per_tick = [(i, m) for i in range(n) for m in ("sq_err", "l1_to_joint")] + [(-1, "sq_err")]
    assert [row[:3] for row in res.rows] == [(k, i, m) for k in range(1, cfg.steps + 1) for i, m in per_tick]
    assert all(type(k) is int and type(i) is int for k, i, _, _ in res.rows)
    # every value, the reference's too, is a Python float
    assert {type(row[3]) for row in res.rows} == {float}
    sq_err = ((res.estimates - res.truth[:, None, [0, 2]]) ** 2).sum(axis=-1)
    assert [row[3] for row in res.rows if row[1] >= 0 and row[2] == "sq_err"] == sq_err.ravel().tolist()


@pytest.mark.parametrize("n_toa, n_doa", [(0, 0), (2, 1), (3, 3)], ids=["m=0", "m=3", "m=n"])
def test_scenario1_log_likelihoods_equal_full_stack_normalize(n_toa, n_doa):
    # the relay rows are normalized once and copied: bit for bit the
    # normalize of the whole stack, with every relay row a zero field
    cfg = tiny_benchmark(n_agents=6, n_toa=n_toa, n_doa=n_doa, grid_cells=(64, 64))
    layout = benchmark_layout(cfg)
    truth, noise = master_trajectory(cfg)
    y = _scenario1_measurements(cfg, layout, truth[40], noise[40])
    grid = cfg.position_grid((3, -2))
    full = np.zeros((cfg.n_agents, grid.n_cells))
    full[: len(y)] = scenarios._sensor_log_likelihoods(cfg, layout, y, grid.cells)
    got = scenarios._scenario1_log_likelihoods(cfg, layout, y, grid)
    assert got.shape == full.shape
    assert got.tobytes() == normalize_rows(full, grid.cell_volume).tobytes()


def test_joint_log_likelihood_is_the_agent_order_row_sum():
    # the centralized reference's increment must keep the bits of the sum over
    # a full (n_agents, points) array whose sensor-less rows are zero
    cfg = tiny_benchmark(n_agents=6, n_toa=2, n_doa=2)
    layout = benchmark_layout(cfg)
    truth, noise = master_trajectory(cfg)
    y = _scenario1_measurements(cfg, layout, truth[5], noise[5])
    # agent i < n_toa measures a range, the next n_doa agents a bearing
    dx, dy = (truth[5, [0, 2]] - layout.positions[:4]).T
    expected = [
        float(np.hypot(dx[i], dy[i])) + cfg.sigma_r * noise[5, i, 0]
        if i < cfg.n_toa
        else float(bearing(dx[i], dy[i])) + cfg.sigma_theta * noise[5, i, 0]
        for i in range(4)
    ]
    np.testing.assert_array_equal(y, expected)
    points = np.random.default_rng(11).uniform(-50.0, 150.0, (500, 2))
    full = np.zeros((cfg.n_agents, len(points)))
    for i, y_i in enumerate(y):
        if i < cfg.n_toa:
            full[i] = toa_log_likelihood(points, layout.positions[i], y_i, cfg.sigma_r)
        else:
            full[i] = doa_log_likelihood(points, layout.positions[i], y_i, cfg.sigma_theta)
    np.testing.assert_array_equal(_joint_log_likelihood(cfg, layout, y, points), full.sum(axis=0))


@pytest.mark.parametrize("n_toa, n_doa", [(3, 2), (0, 4), (4, 0)])
def test_stacked_likelihood_rows_equal_one_sensor_calls(n_toa, n_doa):
    cfg = tiny_benchmark(n_agents=6, n_toa=n_toa, n_doa=n_doa)
    layout = benchmark_layout(cfg)
    truth, noise = master_trajectory(cfg)
    y = _scenario1_measurements(cfg, layout, truth[7], noise[7])
    points = np.random.default_rng(4).uniform(-50.0, 150.0, (300, 2))
    toa_rows = toa_log_likelihood(points, layout.positions[:n_toa], y[:n_toa], cfg.sigma_r)
    doa_rows = doa_log_likelihood(points, layout.positions[n_toa : n_toa + n_doa], y[n_toa:], cfg.sigma_theta)
    assert toa_rows.shape == (n_toa, 300)
    assert doa_rows.shape == (n_doa, 300)
    for i in range(n_toa):
        np.testing.assert_array_equal(
            toa_rows[i], toa_log_likelihood(points, layout.positions[i], float(y[i]), cfg.sigma_r)
        )
    for i in range(n_doa):
        one = doa_log_likelihood(points, layout.positions[n_toa + i], float(y[n_toa + i]), cfg.sigma_theta)
        np.testing.assert_array_equal(doa_rows[i], one)


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


def test_scenario2_runs_without_sensing_agents():
    cfg = tiny_benchmark(n_toa=0, n_doa=0, dt=0.5, duration=1.0)
    res = run_benchmark_scenario2(cfg)
    assert len(res.rows) == cfg.steps * (cfg.n_agents + 1) * 2 == 20
    assert all(math.isfinite(v) for _, _, _, v in res.rows)
    assert math.isfinite(res.summary["steady_state_mse"]) and res.summary["steady_state_mse_central"] > 0


def _scenario2_inputs(cfg):
    """Benchmark 2's truth, measurement noise, linear model and prior state."""
    truth_m, noise_m = master_trajectory(cfg)
    n_sensing = cfg.n_toa + cfg.n_doa
    f, q = target_dynamics_cv(cfg.dt)
    h_pos = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    sensing = [i < n_sensing for i in range(cfg.n_agents)]
    model = LinearModel(
        f=f,
        q=q,
        h=tuple(h_pos if s else None for s in sensing),
        r=tuple(cfg.r_linear * np.eye(2) if s else None for s in sensing),
    )
    p0 = np.diag([cfg.prior_pos_sigma**2, cfg.prior_vel_sigma**2] * 2)
    x0 = truth_m[0] + np.sqrt(np.diag(p0)) * named_stream(cfg.seed, "prior").standard_normal(4)
    return truth_m, noise_m, model, InfoState.from_moments(x0, p0)


@pytest.mark.parametrize("seed", [1, 2])
def test_scenario2_central_rows_are_centralized_info_step(seed):
    # the centralized filter rides in the agents' stack as its last row; it
    # must keep every bit of the separate multi-sensor filter
    cfg = tiny_benchmark(seed=seed, n_agents=9, n_toa=3, n_doa=2, dt=0.05, duration=1.5)
    res = run_benchmark_scenario2(cfg)
    truth_m, noise_m, model, state = _scenario2_inputs(cfg)
    n_sensing = cfg.n_toa + cfg.n_doa
    expected = []
    for k in range(1, cfg.steps + 1):
        truth_xy = truth_m[k * cfg.stride, [0, 2]]
        ys = truth_xy + math.sqrt(cfg.r_linear) * noise_m[k * cfg.stride, :n_sensing]
        x, p, state = centralized_info_step(state, model, ys)
        expected += [(k, -1, "sq_err", float(((x[::2] - truth_xy) ** 2).sum())), (k, -1, "trace_p", float(np.trace(p)))]
    assert [row for row in res.rows if row[1] == -1] == expected


@pytest.mark.parametrize("seed, n_toa, n_doa", [(1, 3, 2), (2, 3, 2), (3, 0, 0)])
def test_scenario2_agent_rows_equal_a_separate_consensus_stack(seed, n_toa, n_doa):
    # the reference keeps the agents' consensus pairs in their own n-row
    # stack mixed by A and gives row n of the filter stack a zero pair; one
    # (n + 1)-row stack mixed by [[A, 0], [0, 1]] must keep every bit of it
    cfg = tiny_benchmark(seed=seed, n_agents=9, n_toa=n_toa, n_doa=n_doa, dt=0.05, duration=1.5)
    res = run_benchmark_scenario2(cfg)
    truth_m, noise_m, model, prior = _scenario2_inputs(cfg)
    n, n_sensing = cfg.n_agents, n_toa + n_doa
    states = InfoState(z=np.tile(prior.z, (n + 1, 1)), Z=np.tile(prior.Z, (n + 1, 1, 1)))
    agents = InfoState(z=states.z[:n], Z=states.Z[:n])
    estimates, expected = [], []
    for k in range(1, cfg.steps + 1):
        truth_xy = truth_m[k * cfg.stride, [0, 2]]
        ys = truth_xy + math.sqrt(cfg.r_linear) * noise_m[k * cfg.stride, :n_sensing]
        i_new, big_i_new = np.zeros((n, 4)), np.zeros((n, 4, 4))
        i_new[:n_sensing], big_i_new[:n_sensing] = info_measurement(ys, model, np.arange(n_sensing))
        pred = info_predict(states, model)
        agents = info_fuse(agents, i_new, big_i_new, benchmark_layout(cfg).adjacency.values, k)
        pred.z[n] = np.add.reduce(np.concatenate((pred.z[n:], i_new[:n_sensing])))
        pred.Z[n] = np.add.reduce(np.concatenate((pred.Z[n:], big_i_new[:n_sensing])))
        u = np.concatenate((agents.u, np.zeros((1, 4))))
        big_u = np.concatenate((agents.U, np.zeros((1, 4, 4))))
        x, p, states = info_update(replace(pred, u=u, U=big_u), n)
        estimates.append(x[:n, ::2])
        sq_err = ((x[:n, ::2] - truth_xy) ** 2).sum(axis=1)
        trace_p = np.trace(p[:n], axis1=1, axis2=2)
        for i in range(n):
            expected += [(k, i, "sq_err", float(sq_err[i])), (k, i, "trace_p", float(trace_p[i]))]
    assert [row for row in res.rows if row[1] != -1] == expected
    np.testing.assert_array_equal(res.estimates, np.stack(estimates))


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
        FormationConfig(consensus_reset=0)
    for cells in ((1, 1), (64,), (64, 64, 64), (64, 1)):
        with pytest.raises(ConfigInvalid):
            FormationConfig(grid_cells=cells)
    with pytest.raises(ConfigInvalid):
        FormationConfig(process_noise=-0.01)
    for name in ("range_noise", "self_noise"):
        with pytest.raises(ConfigInvalid, match="noise scales must be positive"):
            FormationConfig(**{name: 0.0})
    for hw in (0.0, -2.0):
        with pytest.raises(ConfigInvalid, match="half_width must be positive"):
            FormationConfig(half_width=hw)
    for cap in (0.0, -1.0):
        with pytest.raises(ConfigInvalid):
            FormationConfig(control_cap=cap)
    assert FormationConfig(process_noise=0.0).process_noise == 0.0
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
    # a stack of targets against one position: one term per target, bit for bit
    targets = np.array([[[2.0, 0.0], [5.0, 0.0]], [[1.0, 0.0], [0.3, -1.7]]])
    stacked = apf_term(targets, np.zeros(2), 2.0, 0.1)
    assert stacked.shape == (2, 2, 2)
    for idx in np.ndindex(2, 2):
        np.testing.assert_array_equal(stacked[idx], apf_term(targets[idx], np.zeros(2), 2.0, 0.1))
    np.testing.assert_array_equal(stacked[0, 0], out)


@pytest.mark.parametrize("control_cap", [5.0, 0.05])
def test_formation_controls_are_the_per_pair_sums(control_cap):
    cfg = FormationConfig(n_agents=4, control_cap=control_cap)
    est = np.random.default_rng(2).uniform(-3.0, 3.0, (4, 4, 2))
    neighbors = [[1, 2], [0, 3], [0, 1], [1, 2]]
    controls = scenarios._formation_controls(est, neighbors, cfg)
    capped = 0
    for i in range(4):
        for j in range(4):
            own = est[i, j]
            u = np.zeros(2)
            for m in neighbors[j]:
                u += apf_term(est[i, m], own, cfg.spacing, cfg.apf_gain)
            u += apf_term(est[i].mean(axis=0), own, cfg.center_spacing, cfg.apf_gain)
            speed = float(np.hypot(*u))
            if speed > cfg.control_cap:
                u *= cfg.control_cap / speed
                capped += 1
            np.testing.assert_array_equal(controls[i, j], u)
    assert capped == (16 if control_cap < 1.0 else 0)


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


def test_formation_bridges_a_split_sensing_graph():
    # seed 7 starts six agents as two triangles, so the nearest-two graph
    # needs a bridge on tick 1; the bridge carries messages but takes no range
    cfg = FormationConfig(seed=7, n_agents=6, particles=100, ticks=2, grid_cells=(16, 16))
    res = run_formation(cfg)
    assert len(res.rows) == 2 * 6
    assert all(math.isfinite(v) for _, _, _, v in res.rows)


def test_formation_deterministic(monkeypatch):
    cfg = FormationConfig(seed=5, n_agents=3, particles=150, ticks=15, grid_cells=(32, 32))
    a = run_formation(cfg)
    b = run_formation(cfg)
    # one usable CPU: every bank on the calling thread, no pool thread
    monkeypatch.setattr(scenarios.os, "sched_getaffinity", lambda pid: {0})
    c = run_formation(cfg)
    assert a.summary == b.summary == c.summary
    assert a.rows == b.rows == c.rows


@pytest.mark.parametrize("scenario", ["benchmark1", "formation"])
def test_bank_workers_without_affinity_call(scenario, tmp_path, monkeypatch):
    # os.sched_getaffinity exists only on Linux; elsewhere the CPU count sets the workers
    small = {
        "benchmark1": ["--dt", "0.5", "--set", "duration=2", "--set", "particles=500", "--set", "n_agents=12"],
        "formation": ["--set", "n_agents=3", "--set", "ticks=8", "--set", "particles=200"],
    }[scenario]
    argv = ["run", "--scenario", scenario, "--seed", "2", *small, "--outdir"]
    assert cli.main([*argv, str(tmp_path / "affinity")]) == 0
    counted = []
    monkeypatch.delattr(scenarios.os, "sched_getaffinity")
    monkeypatch.setattr(scenarios.os, "cpu_count", lambda: counted.append(2) or 2)
    assert cli.main([*argv, str(tmp_path / "count")]) == 0
    assert counted
    for name in ("metrics.csv", "summary.json"):
        assert (tmp_path / "count" / name).read_bytes() == (tmp_path / "affinity" / name).read_bytes()


def test_formation_leaves_no_threads(monkeypatch):
    # bank 5, agent 1's filter of agent 1, is weighed on whichever thread takes it
    cfg = FormationConfig(seed=5, n_agents=4, particles=150, ticks=4, grid_cells=(32, 32))
    before = threading.active_count()
    run_formation(cfg)
    assert threading.active_count() == before
    power_rows = scenarios.power_rows

    def broken(log_u, n_agents, cell_volume):
        log_t = power_rows(log_u, n_agents, cell_volume)
        log_t[1, 1] = np.nan
        return log_t

    monkeypatch.setattr(scenarios, "power_rows", broken)
    with pytest.raises(DbfError, match="particle bank 5 "):
        run_formation(cfg)
    assert threading.active_count() == before


def test_formation_roughens_resampled_banks_in_place(monkeypatch):
    # every bank collapses onto its particle 7 on tick 1; formation then adds
    # a jitter drawn from the bank's stream after its resample offset
    cfg = FormationConfig(seed=5, n_agents=3, particles=200, ticks=1, grid_cells=(16, 16))
    monkeypatch.setattr(StateGrid, "log_interp", lambda grid, row, points: _collapse(points))
    schedulers, copies = [], []
    bank_workers = scenarios._bank_workers

    @contextmanager
    def record(*args):
        with bank_workers(*args) as banks:
            weigh = banks.weigh
            banks.weigh = lambda likelihoods: (weigh(likelihoods), copies.append(banks.particles.copy()))
            schedulers.append(banks)
            yield banks

    monkeypatch.setattr(scenarios, "_bank_workers", record)
    run_formation(cfg)
    (banks,), (copied,) = schedulers, copies
    rough = 0.25 * float(cfg.position_grid().widths.min())
    count = cfg.particles
    assert banks.resampled == [True] * 9
    for b, (bank, source) in enumerate(zip(banks.particles, copied)):
        np.testing.assert_array_equal(source, np.broadcast_to(source[:, :1], source.shape))
        rng = named_stream(cfg.seed, "formation-pf", b)
        rng.standard_normal(bank.shape)
        rng.uniform()
        np.testing.assert_array_equal(bank, source + rough * rng.standard_normal(bank.shape))
        # every particle is a distinct roughened copy of the one that carried the weight
        assert np.all(np.abs(bank - source).max(axis=1) < 8.0 * rough)
        assert len(np.unique(bank[0])) == count
        # the controls read the jittered mean
        np.testing.assert_array_equal(banks.means[b], bank @ np.full(count, 1.0 / count))


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
    with pytest.raises(ConfigInvalid, match="grid_points must be at least 2"):
        MultiloopConfig(grid_points=1)
