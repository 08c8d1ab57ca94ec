import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dbfnet.density import DensityGrid, StateGrid, floor_and_normalize_rows, l1_distance, l1_rows, normalize_rows
from dbfnet.engine import (
    AgentState,
    ChannelNoise,
    SensorModel,
    StepDiagnostics,
    TargetModel,
    consensus_update,
    dbf_step,
    fuse,
    move_fusion_state,
    multiloop_fuse,
    normalized_likelihood,
    power_estimate,
    power_rows,
    predict,
    update,
)
from dbfnet.errors import GridMismatch, KernelInvalid, WeightRowInvalid
from dbfnet.infofilter import InfoState, info_fuse
from dbfnet.pools import bayes_update, joint_likelihood, kl_pool, logop
from dbfnet.topology import (
    Digraph,
    local_degree_weights,
    metropolis_weights,
    random_connected_graph,
    second_singular_value,
    sigma_m,
    AdjacencySchedule,
)


def grid_1d(lo=-6.0, hi=6.0, n=48):
    return StateGrid((lo,), (hi,), (n,))


def gaussian_sensor(sigma):
    def measure(x, rng):
        return x + sigma * rng.standard_normal(x.shape)

    def log_likelihood(y, grid):
        diff = grid.cells[:, 0] - y[0]
        return -0.5 * (diff / sigma) ** 2

    return SensorModel(measure=measure, log_likelihood=log_likelihood)


# ------------------------------------------------------------------ predict


def test_predict_identity_kernel():
    g = grid_1d()
    post = DensityGrid.gaussian(g, 1.0, [[0.5]])
    out = predict(post, TargetModel(g, np.eye(g.n_cells) / g.cell_volume))
    assert l1_distance(out, post) <= 1e-12


def test_predict_doubly_stochastic_kernel_keeps_uniform():
    g = grid_1d(0.0, 4.0, 4)
    shift = np.roll(np.eye(4), 1, axis=1)
    k = (0.5 * np.eye(4) + 0.25 * shift + 0.25 * shift.T) / g.cell_volume
    tm = TargetModel(g, k)
    out = predict(DensityGrid.uniform(g), tm)
    assert l1_distance(out, DensityGrid.uniform(g)) <= 1e-12


def test_predict_gaussian_convolution():
    g = StateGrid((-8.0,), (8.0,), (160,))
    post = DensityGrid.gaussian(g, 0.0, [[0.5]])
    out = predict(post, TargetModel.gaussian_walk(g, [[0.3]]))
    assert l1_distance(out, DensityGrid.gaussian(g, 0.0, [[0.8]])) <= 1e-9


def test_kernel_validation():
    g = grid_1d(0.0, 4.0, 4)
    with pytest.raises(KernelInvalid):
        TargetModel(g, -np.eye(4))
    with pytest.raises(KernelInvalid):
        TargetModel(g, np.ones((2, 3)))
    with pytest.raises(KernelInvalid, match="4 x 4"):
        TargetModel(g, np.eye(5))
    # unit rows integrate to 1 on cells of volume 1, to 1/2 on cells of volume 1/2
    TargetModel(g, np.eye(4))
    with pytest.raises(KernelInvalid, match="integrate"):
        TargetModel(StateGrid((0.0,), (2.0,), (4,)), np.eye(4))


def test_target_model_kernel_is_read_only():
    g = grid_1d(0.0, 4.0, 4)
    k = np.eye(4)
    tm = TargetModel(g, k)
    with pytest.raises(ValueError, match="read-only"):
        tm.kernel[0, 0] = 2.0
    # the model keeps its own copy of the caller's array
    k[0, 0] = 2.0
    assert tm.kernel[0, 0] == 1.0
    # models compare and hash by identity, never by their kernel arrays
    assert tm != TargetModel(g, np.eye(4)) and len({tm, tm}) == 1


def test_predict_on_another_grid_is_grid_mismatch():
    g = grid_1d()
    tm = TargetModel(g, np.eye(g.n_cells) / g.cell_volume)
    with pytest.raises(GridMismatch):
        predict(DensityGrid.uniform(grid_1d(-5.0, 5.0)), tm)


# ------------------------------------------------------------- likelihoods


def test_no_sensor_gives_uniform():
    g = grid_1d()
    out = normalized_likelihood(None, None, g)
    assert l1_distance(out, DensityGrid.uniform(g)) <= 1e-15
    out = normalized_likelihood(gaussian_sensor(1.0), None, g)
    assert l1_distance(out, DensityGrid.uniform(g)) <= 1e-15


def test_constant_evaluator_gives_uniform():
    g = grid_1d()
    sm = SensorModel(
        measure=lambda x, rng: x,
        log_likelihood=lambda y, grid: np.full(grid.n_cells, -3.7),
    )
    out = normalized_likelihood(sm, np.zeros(1), g)
    assert l1_distance(out, DensityGrid.uniform(g)) <= 1e-12


def test_gaussian_sensor_likelihood_peaks_at_observation():
    g = grid_1d()
    out = normalized_likelihood(gaussian_sensor(0.5), np.array([1.5]), g)
    peak = g.cells[np.argmax(out.values), 0]
    assert abs(peak - 1.5) <= g.widths[0]


# --------------------------------------------------------------------- fuse


def test_fuse_first_tick_is_likelihood():
    g = grid_1d()
    lik = DensityGrid.gaussian(g, 0.5, [[1.0]])
    assert fuse(lik, None, [], 1) is lik


def test_fuse_needs_history_after_first_tick():
    g = grid_1d()
    lik = DensityGrid.gaussian(g, 0.5, [[1.0]])
    with pytest.raises(ValueError):
        fuse(lik, None, [(lik, 1.0)], 2)
    with pytest.raises(ValueError):
        fuse(lik, lik, [(lik, 1.0)], 0)


def test_fuse_rejects_bad_weight_rows():
    g = grid_1d()
    lik = DensityGrid.gaussian(g, 0.0, [[1.0]])
    with pytest.raises(WeightRowInvalid):
        fuse(lik, lik, [(lik, 0.7)], 2)
    with pytest.raises(WeightRowInvalid):
        fuse(lik, lik, [(lik, 1.5), (lik, -0.5)], 2)


def test_fuse_single_agent_telescopes():
    # with A = [1] the fusion state tracks the current likelihood exactly
    g = grid_1d()
    rng = np.random.default_rng(2)
    u = None
    prev = None
    for k in range(1, 6):
        lik = DensityGrid.from_log(g, rng.uniform(-6.0, 0.0, size=g.n_cells))
        u = fuse(lik, prev, [] if k == 1 else [(u, 1.0)], k)
        assert l1_distance(u, lik) <= 1e-12
        prev = lik


def test_fuse_complete_pair_reaches_pool_in_one_exchange():
    g = grid_1d()
    l1 = DensityGrid.gaussian(g, -1.0, [[0.6]])
    l2 = DensityGrid.gaussian(g, 1.0, [[1.2]])
    pool = kl_pool([l1, l2])
    joint = joint_likelihood([l1, l2])
    for own in (l1, l2):
        u2 = fuse(own, own, [(l1, 0.5), (l2, 0.5)], 2)
        assert l1_distance(u2, pool) <= 1e-9
        assert l1_distance(power_estimate(u2, 2), joint) <= 1e-9


def test_fuse_static_likelihood_reduces_to_logop():
    # with L_k = L_{k-1} a fusion step is the log pool of the received
    # states, and both run one kernel, so they agree bit for bit
    rng = np.random.default_rng(23)
    for _ in range(200):
        dims = int(rng.integers(1, 3))
        lower = rng.uniform(-10.0, 0.0, dims)
        g = StateGrid(tuple(lower), tuple(lower + rng.uniform(1.0, 20.0, dims)), tuple(rng.integers(2, 40, dims)))
        lik = DensityGrid.from_log(g, rng.uniform(-30.0, 5.0, g.n_cells))
        us = [DensityGrid.from_log(g, rng.uniform(-30.0, 5.0, g.n_cells)) for _ in range(rng.integers(1, 6))]
        w = rng.uniform(0.01, 1.0, len(us))
        w /= w.sum()
        out = fuse(lik, lik, list(zip(us, w)), 2)
        np.testing.assert_array_equal(out.log_values, logop(us, w).log_values)


# ----------------------------------------------------------- power / update


def test_power_single_agent_is_identity():
    g = grid_1d()
    u = DensityGrid.gaussian(g, 0.3, [[0.9]])
    assert l1_distance(power_estimate(u, 1), u) <= 1e-15
    with pytest.raises(ValueError):
        power_estimate(u, 0)


def test_power_uniform_stays_uniform():
    g = grid_1d()
    out = power_estimate(DensityGrid.uniform(g), 7)
    assert l1_distance(out, DensityGrid.uniform(g)) <= 1e-12


def test_power_of_pool_is_joint():
    g = grid_1d()
    rng = np.random.default_rng(4)
    liks = [
        DensityGrid.from_log(g, rng.uniform(-8.0, 0.0, size=g.n_cells)) for _ in range(4)
    ]
    out = power_estimate(kl_pool(liks), 4)
    assert l1_distance(out, joint_likelihood(liks)) <= 1e-9


def test_update_matches_bayes():
    g = grid_1d()
    s = DensityGrid.gaussian(g, 0.0, [[1.0]])
    t = DensityGrid.gaussian(g, 2.0, [[1.0]])
    assert l1_distance(update(s, DensityGrid.uniform(g)), s) <= 1e-12
    assert l1_distance(update(DensityGrid.uniform(g), t), t) <= 1e-12
    assert update is bayes_update
    assert l1_distance(update(s, t), DensityGrid.gaussian(g, 1.0, [[0.5]])) <= 1e-6


# ----------------------------------------------------------------- dbf_step


def run_steps(agents, schedule_matrix, k_max, tm, sms, measurement_plan):
    diags = []
    for k in range(1, k_max + 1):
        agents, d = dbf_step(agents, schedule_matrix, k, tm, sms, measurement_plan(k))
        diags.append(d)
    return agents, diags


def test_isolated_agents_exponentiate_their_own_likelihood():
    g = grid_1d()
    n = 3
    sms = [gaussian_sensor(1.0)] * n
    agents = [AgentState.initial(DensityGrid.uniform(g)) for _ in range(n)]
    ys = [np.array([-1.0]), np.array([0.5]), np.array([2.0])]
    agents, _ = dbf_step(agents, np.eye(n), 1, None, sms, ys)
    agents, _ = dbf_step(agents, np.eye(n), 2, None, sms, ys)
    for i in range(n):
        own = normalized_likelihood(sms[i], ys[i], g)
        assert l1_distance(agents[i].t, power_estimate(own, n)) <= 1e-9


def test_single_agent_run_equals_centralized_bayes():
    g = grid_1d()
    tm = TargetModel.gaussian_walk(g, [[0.2]])
    sm = gaussian_sensor(0.8)
    prior = DensityGrid.gaussian(g, 0.0, [[4.0]])
    agents = [AgentState.initial(prior)]
    reference = prior
    for k in range(1, 7):
        y = np.array([0.3 * k])
        agents, _ = dbf_step(agents, np.eye(1), k, tm, [sm], [y])
        reference = bayes_update(predict(reference, tm), normalized_likelihood(sm, y, g))
        assert l1_distance(agents[0].w, reference) <= 1e-12


def test_static_likelihoods_contract_toward_joint():
    # frozen likelihoods: disagreement between fusion states shrinks by at
    # least the window contraction rate, and the estimates reach the joint
    g = grid_1d(-4.0, 4.0, 24)
    n = 3
    a = metropolis_weights(Digraph.undirected(n, [(0, 1), (1, 2)]))
    rate = sigma_m(AdjacencySchedule.static(a))
    window = n - 1
    sms = [gaussian_sensor(1.0)] * n
    ys = [np.array([-1.5]), np.array([0.0]), np.array([1.5])]
    agents = [AgentState.initial(DensityGrid.uniform(g)) for _ in range(n)]

    def deviation(states):
        rows = np.stack([st.u.log_values - st.u.log_values[0] for st in states])
        return np.linalg.norm(rows - rows.mean(axis=0, keepdims=True))

    agents, diags = run_steps(agents, a, 1, None, sms, lambda k: ys)
    devs = [deviation(agents)]
    errs = [diags[-1].l1_to_joint.max()]
    tick = 1
    for m in range(18):
        for _ in range(window):
            tick += 1
            agents, d = dbf_step(agents, a, tick, None, sms, ys)
        devs.append(deviation(agents))
        errs.append(d.l1_to_joint.max())
    for before, after in zip(devs, devs[1:]):
        assert after <= rate * before * (1.0 + 1e-9) + 1e-12
    assert errs[-1] <= 1e-5
    assert errs[-1] < errs[0]


def test_channel_noise_bounded_log_perturbation():
    g = grid_1d()
    u = DensityGrid.gaussian(g, 0.0, [[1.0]])
    eps = 0.05
    noise = ChannelNoise.from_seed(eps, 0.0, 9)
    out = DensityGrid.rows(g, noise.corrupt(g, u.log_values[None], eps))[0]
    diff = out.log_values - u.log_values
    # renormalization shifts by a constant; the spread stays within 2 eps
    assert diff.max() - diff.min() <= 2 * eps
    assert diff.max() - diff.min() > 0.0
    assert abs(out.integral() - 1.0) <= 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1])
def test_channel_noise_rejects_non_finite_or_negative_bounds(bad):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        ChannelNoise.from_seed(bad, 0.0, 1)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        ChannelNoise.from_seed(0.0, bad, 1)


def test_noisy_step_stays_within_budget_envelope():
    g = grid_1d()
    n = 3
    a = metropolis_weights(Digraph.undirected(n, [(0, 1), (1, 2)]))
    sms = [gaussian_sensor(1.0)] * n
    ys = [np.array([-1.0]), np.array([0.0]), np.array([1.0])]
    noise = ChannelNoise.from_seed(0.02, 0.01, 3)
    agents = [AgentState.initial(DensityGrid.uniform(g)) for _ in range(n)]
    for k in range(1, 12):
        agents, diag = dbf_step(agents, a, k, None, sms, ys, channel_noise=noise)
        for st in agents:
            assert abs(st.w.integral() - 1.0) <= 1e-9
    assert np.all(np.isfinite(diag.l1_to_joint))


def test_step_diagnostics_deterministic():
    g = grid_1d()
    n = 2
    a = local_degree_weights(Digraph.undirected(n, [(0, 1)]))
    sms = [gaussian_sensor(1.0)] * n

    def once():
        noise = ChannelNoise.from_seed(0.01, 0.01, 7)
        agents = [AgentState.initial(DensityGrid.uniform(g)) for _ in range(n)]
        out = []
        for k in range(1, 5):
            ys = [np.array([0.2 * k]), np.array([-0.1 * k])]
            agents, d = dbf_step(agents, a, k, None, sms, ys, channel_noise=noise)
            out.append(d.l1_to_joint.copy())
        return np.stack(out)

    np.testing.assert_array_equal(once(), once())


# ------------------------------------------- stacked step against a reference


def reference_step(agents, a, k, tm, sms, ys, noise=None):
    """The per-agent loop over densities that dbf_step stacks into rows.

    Draws follow the stacked step's order: every agent's modeled likelihood
    first, then each received copy j != i with a[i, j] > 0, row by row.
    """
    n = len(agents)
    grid = agents[0].w.grid
    true_l = [normalized_likelihood(sms[i], ys[i], grid) for i in range(n)]
    used_l = true_l
    if noise is not None and noise.eps_l > 0:
        used_l = [
            DensityGrid.from_log(
                grid, l.log_values + noise.rng.uniform(-noise.eps_l, noise.eps_l, grid.n_cells)
            )
            for l in true_l
        ]
    out = []
    for i in range(n):
        s = agents[i].w if tm is None else predict(agents[i].w, tm)
        if k == 1:
            u = used_l[i]
        else:
            received = []
            for j in range(n):
                if a[i, j] <= 0.0:
                    continue
                u_j = agents[j].u
                if noise is not None and noise.eps_u > 0 and j != i:
                    u_j = DensityGrid.rows(grid, noise.corrupt(grid, u_j.log_values[None], noise.eps_u))[0]
                received.append((u_j, float(a[i, j])))
            u = fuse(used_l[i], agents[i].l, received, k)
        t = power_estimate(u, n)
        out.append(AgentState(w=update(s, t), l=used_l[i], u=u, t=t))
    joint = joint_likelihood(true_l)
    return out, np.array([l1_distance(x.t, joint) for x in out]), joint


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    moving=st.booleans(),
    noisy=st.booleans(),
    ticks=st.integers(1, 4),
)
def test_dbf_step_matches_per_agent_reference(n, seed, moving, noisy, ticks):
    rng = np.random.default_rng(seed)
    g = grid_1d(-4.0, 4.0, 24)
    a = metropolis_weights(random_connected_graph(n, rng)).values
    tm = TargetModel.gaussian_walk(g, [[0.3]]) if moving else None
    sms = [gaussian_sensor(float(s)) for s in rng.uniform(0.5, 2.0, n)]
    plan = rng.uniform(-2.0, 2.0, (ticks, n, 1))
    noise_seed = int(rng.integers(1 << 30))
    noise = ChannelNoise.from_seed(0.03, 0.02, noise_seed) if noisy else None
    ref_noise = ChannelNoise.from_seed(0.03, 0.02, noise_seed) if noisy else None
    prior = DensityGrid.gaussian(g, 0.0, [[2.0]])
    agents = [AgentState.initial(prior) for _ in range(n)]
    ref = list(agents)
    for k in range(1, ticks + 1):
        ys = list(plan[k - 1])
        agents, diag = dbf_step(agents, a, k, tm, sms, ys, channel_noise=noise)
        ref, ref_l1, ref_joint = reference_step(ref, a, k, tm, sms, ys, ref_noise)
        np.testing.assert_allclose(diag.l1_to_joint, ref_l1, atol=1e-9, rtol=0)
        np.testing.assert_allclose(diag.joint.log_values, ref_joint.log_values, atol=1e-9, rtol=0)
        for got, want in zip(agents, ref):
            for name in ("w", "l", "u", "t"):
                np.testing.assert_allclose(
                    getattr(got, name).log_values, getattr(want, name).log_values, atol=1e-9, rtol=0
                )


def _read_only_through(values):
    """True when an array and every array it views refuse writes."""
    while values is not None:
        if values.flags.writeable:
            return False
        values = values.base
    return True


@pytest.mark.parametrize("moving", [False, True])
def test_every_density_dbf_step_returns_is_read_only(moving):
    g = grid_1d(-4.0, 4.0, 24)
    n = 3
    a = metropolis_weights(Digraph.undirected(n, [(0, 1), (1, 2)])).values
    tm = TargetModel.gaussian_walk(g, [[0.3]]) if moving else None
    sms = [gaussian_sensor(1.0)] * n
    agents = [AgentState.initial(DensityGrid.uniform(g)) for _ in range(n)]
    for k in range(1, 4):
        ys = [np.array([0.3 * k - i]) for i in range(n)]
        agents, diag = dbf_step(agents, a, k, tm, sms, ys)
        returned = [diag.joint] + [getattr(st, name) for st in agents for name in ("w", "l", "u", "t")]
        assert all(_read_only_through(d.log_values) for d in returned)
        with pytest.raises(ValueError):
            agents[0].w.log_values.base[0, 0] = 0.0
    result = multiloop_fuse([st.l for st in agents], a, 3)
    assert all(_read_only_through(d.log_values) for d in result.fusion + result.estimates)


def _two_agents(g):
    sms = [gaussian_sensor(1.0)] * 2
    ys = [np.array([0.5]), np.array([-0.5])]
    agents = [AgentState.initial(DensityGrid.uniform(g)) for _ in range(2)]
    agents, _ = dbf_step(agents, np.full((2, 2), 0.5), 1, None, sms, ys)
    return agents, sms, ys


def test_dbf_step_errors():
    g = grid_1d()
    agents, sms, ys = _two_agents(g)
    with pytest.raises(ValueError, match="adjacency size"):
        dbf_step(agents, np.eye(3), 2, None, sms, ys)
    fresh = [AgentState.initial(DensityGrid.uniform(g)) for _ in range(2)]
    with pytest.raises(ValueError, match="fusion state missing"):
        dbf_step(fresh, np.full((2, 2), 0.5), 2, None, sms, ys)
    # every agent carries its fusion state and likelihood from tick 2 on, even
    # one no receiver takes weight from
    no_u = [agents[0], AgentState(w=agents[1].w, l=agents[1].l)]
    with pytest.raises(ValueError, match="fusion state missing"):
        dbf_step(no_u, np.array([[1.0, 0.0], [1.0, 0.0]]), 2, None, sms, ys)
    no_l = [agents[0], AgentState(w=agents[1].w, u=agents[1].u)]
    with pytest.raises(ValueError, match="previous likelihood required"):
        dbf_step(no_l, np.full((2, 2), 0.5), 2, None, sms, ys)
    with pytest.raises(WeightRowInvalid):
        dbf_step(agents, np.array([[0.5, 0.4], [0.5, 0.5]]), 2, None, sms, ys)
    with pytest.raises(WeightRowInvalid):
        dbf_step(agents, np.array([[0.0, 0.0], [0.5, 0.5]]), 2, None, sms, ys)
    # a negative entry is rejected even when the positive part sums to 1
    with pytest.raises(WeightRowInvalid):
        dbf_step(agents, np.array([[1.0, -0.5], [0.5, 0.5]]), 2, None, sms, ys)
    # at tick 1 no weights are read
    dbf_step(fresh, np.array([[0.5, 0.4], [0.5, 0.5]]), 1, None, sms, ys)
    h = grid_1d(-5.0, 5.0)
    elsewhere = TargetModel(h, np.eye(h.n_cells) / h.cell_volume)
    with pytest.raises(GridMismatch):
        dbf_step(agents, np.full((2, 2), 0.5), 2, elsewhere, sms, ys)
    # a rejected tick index draws no channel noise
    noise = ChannelNoise.from_seed(0.1, 0.1, 5)
    before = noise.rng.bit_generator.state
    with pytest.raises(ValueError, match="1 based"):
        dbf_step(agents, np.full((2, 2), 0.5), 0, None, sms, ys, noise)
    assert noise.rng.bit_generator.state == before


# row 0 of a two-agent weight matrix; row 1 is [0.5, 0.5]
_BAD_ROWS = {
    "nan": [np.nan, 1.0],
    "inf": [np.inf, 1.0],
    "negative": [1.0, -0.5],
    "sums-to-0.7": [0.4, 0.3],
}


def _fuse_with(a):
    lik = DensityGrid.gaussian(grid_1d(), 0.0, [[1.0]])
    fuse(lik, lik, [(lik, w) for w in a[0]], 2)


def _logop_with(a):
    lik = DensityGrid.gaussian(grid_1d(), 0.0, [[1.0]])
    logop([lik, lik], a[0])


def _dbf_step_with(a):
    agents, sms, ys = _two_agents(grid_1d())
    dbf_step(agents, a, 2, None, sms, ys)


def _multiloop_fuse_with(a):
    multiloop_fuse([DensityGrid.gaussian(grid_1d(), m, [[1.0]]) for m in (-1.0, 1.0)], a, 2)


def _info_fuse_with(a):
    s = info_fuse(InfoState.from_moments(np.zeros(1), np.eye(1)), np.ones(1), np.eye(1), [], 1)
    info_fuse(s, np.ones(1), np.eye(1), [(s.u, s.U, w) for w in a[0]], 2)


def _stacked_info_fuse_with(a):
    pairs = np.ones((2, 1)), np.ones((2, 1, 1))
    s = info_fuse(InfoState(z=np.zeros((2, 1)), Z=np.ones((2, 1, 1))), *pairs, np.full((2, 2), 0.5), 1)
    info_fuse(s, *pairs, a, 2)


@pytest.mark.parametrize("row", list(_BAD_ROWS.values()), ids=list(_BAD_ROWS))
@pytest.mark.parametrize(
    "entry",
    [_fuse_with, _logop_with, _dbf_step_with, _multiloop_fuse_with, _info_fuse_with, _stacked_info_fuse_with],
    ids=["fuse", "logop", "dbf_step", "multiloop_fuse", "info_fuse", "stacked-info_fuse"],
)
def test_every_fusion_entry_rejects_a_bad_weight_row(entry, row):
    a = np.array([row, [0.5, 0.5]])
    with pytest.raises(WeightRowInvalid):
        entry(a)


def test_dbf_step_rejects_agents_on_two_grids():
    g, h = grid_1d(), grid_1d(-5.0, 5.0)
    on_g, sms, ys = _two_agents(g)
    on_h, _, _ = _two_agents(h)
    fresh = [AgentState.initial(DensityGrid.uniform(g)), AgentState.initial(DensityGrid.uniform(h))]
    with pytest.raises(GridMismatch):
        dbf_step(fresh, np.full((2, 2), 0.5), 1, None, sms, ys)
    with pytest.raises(GridMismatch):
        dbf_step([on_g[0], on_h[1]], np.full((2, 2), 0.5), 2, None, sms, ys)
    stale = [on_g[0], AgentState(w=on_g[1].w, l=on_h[1].l, u=on_g[1].u)]
    with pytest.raises(GridMismatch):
        dbf_step(stale, np.full((2, 2), 0.5), 2, None, sms, ys)


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library use\s+```python\n(.*?)```", readme, re.S)
    assert block is not None, "README has no Library use code block"
    namespace: dict = {}
    exec(compile(block.group(1), "README.md", "exec"), namespace)
    diag = namespace["diag"]
    assert isinstance(diag, StepDiagnostics)
    assert diag.l1_to_joint.shape == (3,)
    assert np.all((diag.l1_to_joint >= 0.0) & (diag.l1_to_joint <= 2.0))
    assert capsys.readouterr().out.strip()


# ---------------------------------------------------------------- multiloop


def test_multiloop_first_loop_is_own_likelihood():
    g = grid_1d()
    liks = [DensityGrid.gaussian(g, m, [[1.0]]) for m in (-1.0, 0.0, 1.0)]
    a = metropolis_weights(Digraph.undirected(3, [(0, 1), (1, 2)]))
    res = multiloop_fuse(liks, a, 1)
    for u, lik in zip(res.fusion, liks):
        assert l1_distance(u, lik) <= 1e-15
    with pytest.raises(ValueError):
        multiloop_fuse(liks, a, 0)


def test_multiloop_complete_graph_two_loops_exact():
    g = grid_1d()
    n = 4
    liks = [DensityGrid.gaussian(g, m, [[0.8]]) for m in (-1.5, -0.5, 0.5, 1.5)]
    a = np.full((n, n), 1.0 / n)
    res = multiloop_fuse(liks, a, 2)
    joint = joint_likelihood(liks)
    for t in res.estimates:
        assert l1_distance(t, joint) <= 1e-9
    assert res.error_norms[-1] <= 1e-9


def test_multiloop_errors_within_spectral_bound():
    rng = np.random.default_rng(13)
    g = grid_1d(-4.0, 4.0, 24)
    for _ in range(5):
        n = int(rng.integers(3, 6))
        a = metropolis_weights(random_connected_graph(n, rng))
        sigma_a = second_singular_value(a)
        liks = [
            DensityGrid.gaussian(g, float(rng.uniform(-2, 2)), [[float(rng.uniform(0.3, 2.0))]])
            for _ in range(n)
        ]
        res = multiloop_fuse(liks, a, 6)
        for loop, err in enumerate(res.error_norms, start=1):
            assert err <= sigma_a ** (loop - 1) * 2.0 * np.sqrt(n) + 1e-9


@pytest.mark.parametrize("n, cells, loops", [(2, 8, 2), (3, 48, 5), (5, 64, 12), (7, 300, 6), (50, 200, 3)])
def test_multiloop_fuse_is_a_written_out_log_pool_loop(n, cells, loops):
    # every loop after the first is normalize_rows(mix @ U), bit for bit; 50
    # agents mix in several 64-column blocks
    rng = np.random.default_rng(n * 1000 + cells)
    g = grid_1d(-4.0, 4.0, cells)
    a = metropolis_weights(random_connected_graph(n, rng))
    liks = [DensityGrid.gaussian(g, float(rng.uniform(-2, 2)), [[float(rng.uniform(0.3, 2.0))]]) for _ in range(n)]
    res = multiloop_fuse(liks, a, loops)
    joint = joint_likelihood(liks).log_values
    log_u = np.stack([p.log_values for p in liks])
    for loop in range(1, loops + 1):
        if loop > 1:
            log_u = normalize_rows(a.values @ log_u, g.cell_volume)
        log_t = power_rows(log_u, n, g.cell_volume)
        norm = np.linalg.norm(l1_rows(log_t, joint, g.cell_volume))
        assert res.error_norms[loop - 1].tobytes() == norm.tobytes()
    np.testing.assert_array_equal(np.stack([u.log_values for u in res.fusion]), log_u, strict=True)
    np.testing.assert_array_equal(np.stack([t.log_values for t in res.estimates]), log_t, strict=True)


# ------------------------------------------------------------- stacked form


def test_consensus_update_matches_per_agent_fuse():
    g = grid_1d(-4.0, 4.0, 24)
    n = 3
    rng = np.random.default_rng(21)
    a = metropolis_weights(Digraph.undirected(n, [(0, 1), (1, 2)]))
    u_prev = [DensityGrid.from_log(g, rng.uniform(-6, 0, g.n_cells)) for _ in range(n)]
    l_prev = [DensityGrid.from_log(g, rng.uniform(-6, 0, g.n_cells)) for _ in range(n)]
    l_cur = [DensityGrid.from_log(g, rng.uniform(-6, 0, g.n_cells)) for _ in range(n)]
    stacked = consensus_update(
        np.stack([u.log_values for u in u_prev]),
        np.stack([l.log_values for l in l_cur]),
        np.stack([l.log_values for l in l_prev]),
        a.values,
        g.cell_volume,
    )
    for i in range(n):
        received = [(u_prev[j], float(a.values[i, j])) for j in range(n) if a.values[i, j] > 0]
        expected = fuse(l_cur[i], l_prev[i], received, 2)
        np.testing.assert_allclose(stacked[i], expected.log_values, atol=1e-9)


def test_consensus_update_first_tick_normalizes_likelihoods():
    g = grid_1d(-4.0, 4.0, 24)
    rng = np.random.default_rng(22)
    raw = rng.uniform(-6, 0, (2, g.n_cells))
    out = consensus_update(np.zeros_like(raw), raw, None, np.eye(2), g.cell_volume)
    for i in range(2):
        expected = DensityGrid.from_log(g, raw[i])
        np.testing.assert_allclose(out[i], expected.log_values, atol=1e-12)
    # one pass leaves a spike field's floored cells unrenormalized, which the
    # mass check must still accept, on the first tick and on the mixing path
    spike = np.full((2, g.n_cells), -1e5)
    spike[0, 3] = spike[1, 17] = 0.0
    mixed = np.full((2, 2), 0.5)
    for out in (
        consensus_update(spike, spike, None, mixed, g.cell_volume),
        consensus_update(spike, spike, raw, mixed, g.cell_volume),
    ):
        for row in out:
            DensityGrid(g, row)


@pytest.mark.parametrize(
    "n, cells",
    [
        pytest.param(50, 48, id="48"),
        pytest.param(50, 100, id="100"),
        pytest.param(50, 4096, id="4096"),
        pytest.param(4, 20000, id="n4-20000"),
    ],
)
def test_consensus_update_blocked_mix_matches_one_product(n, cells):
    # the mix runs in column blocks, 64 wide for 50 agents and 8,192 for 4;
    # cell counts below one block, with a partial last block and of
    # benchmark 1's 64 x 64 grid
    vol = 0.5
    rng = np.random.default_rng(cells)
    a = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.2) + np.eye(n)
    a /= a.sum(axis=1, keepdims=True)
    u_prev, l_cur, l_prev = (
        normalize_rows(rng.normal(0.0, 1.0, (n, cells)).cumsum(axis=1), vol) for _ in range(3)
    )
    expected = a @ u_prev
    expected += l_cur - l_prev
    normalize_rows(expected, vol)
    np.testing.assert_allclose(consensus_update(u_prev, l_cur, l_prev, a, vol), expected, rtol=1e-13)


@pytest.mark.parametrize("first_tick", [True, False])
def test_stacked_fields_match_one_call_per_field(first_tick):
    # an (n, m, cells) stack mixes on its (n, m * cells) view, whose column
    # blocks straddle fields when cells is not a multiple of the block width
    n, m, cells, vol = 5, 3, 100, 0.25
    rng = np.random.default_rng(31)
    a = rng.uniform(0.0, 1.0, (n, n)) + np.eye(n)
    a /= a.sum(axis=1, keepdims=True)
    u_prev, l_cur, l_prev = (
        normalize_rows(rng.normal(0.0, 1.0, (n, m, cells)).cumsum(axis=-1), vol) for _ in range(3)
    )
    stacked = consensus_update(u_prev, l_cur, None if first_tick else l_prev, a, vol)
    powered = power_rows(stacked, n, vol)
    assert stacked.shape == powered.shape == (n, m, cells)
    for f in range(m):
        one = consensus_update(u_prev[:, f], l_cur[:, f], None if first_tick else l_prev[:, f], a, vol)
        np.testing.assert_allclose(stacked[:, f], one, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(powered[:, f], power_rows(one, n, vol), rtol=1e-13, atol=0.0)


def _per_copy_correction(log_u, a, rng, eps, grid):
    """The change corrupted copies make to each receiver's row of a @ U.

    Every copy agent i receives from j != i with a[i, j] > 0 is corrupted
    and renormalized on its own; the draws run in row-major order of (i, j).
    """
    rows, cols = np.nonzero(a)
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    xi = rng.uniform(-eps, eps, size=(rows.size, grid.n_cells))
    sent = log_u[cols]
    change = floor_and_normalize_rows(grid, sent + xi)
    change -= sent
    change *= a[rows, cols][:, None]
    correction = np.zeros_like(log_u)
    np.add.at(correction, rows, change)
    return correction


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 7), cells=st.integers(2, 80), seed=st.integers(0, 2**16), eps=st.floats(0.01, 0.2))
def test_consensus_update_channel_matches_per_copy_correction(n, cells, seed, eps):
    rng = np.random.default_rng(seed)
    g = grid_1d(-4.0, 4.0, cells)
    a = metropolis_weights(random_connected_graph(n, rng)).values
    u_prev, l_cur, l_prev = (floor_and_normalize_rows(g, rng.uniform(-6, 0, (n, cells))) for _ in range(3))
    noise = ChannelNoise.from_seed(eps, 0.0, seed)
    got = consensus_update(u_prev, l_cur, l_prev, a, g.cell_volume, partial(noise.corrupt, g, eps=eps))
    oracle_rng = np.random.default_rng(seed)
    expected = a @ u_prev
    expected += (l_cur + _per_copy_correction(u_prev, a, oracle_rng, eps, g)) - l_prev
    normalize_rows(expected, g.cell_volume)
    np.testing.assert_array_equal(got, expected, strict=True)
    assert noise.rng.bit_generator.state == oracle_rng.bit_generator.state


def test_power_rows_matches_power_estimate():
    g = grid_1d(-4.0, 4.0, 24)
    rng = np.random.default_rng(23)
    u = [DensityGrid.from_log(g, rng.uniform(-6, 0, g.n_cells)) for _ in range(3)]
    rows = power_rows(np.stack([x.log_values for x in u]), 3, g.cell_volume)
    for i in range(3):
        np.testing.assert_allclose(rows[i], power_estimate(u[i], 3).log_values, atol=1e-9)


def test_move_fusion_state_zero_shift_is_identity():
    rng = np.random.default_rng(24)
    log_u, log_l = rng.uniform(-6, 0, (2, 3, 20))
    moved = move_fusion_state(log_u, log_l, log_l, (0, 0), (5, 4))
    np.testing.assert_allclose(moved, log_u, atol=1e-12, rtol=0)


def test_move_fusion_state_carries_correction_into_new_cells():
    rng = np.random.default_rng(25)
    log_u, log_l_old, log_l_new = rng.uniform(-6, 0, (3, 3, 20))
    moved = move_fusion_state(log_u, log_l_old, log_l_new, (2, -1), (5, 4))
    old = (log_u - log_l_old).reshape(3, 5, 4)
    new = (moved - log_l_new).reshape(3, 5, 4)
    # moved cell (i, j) lies over old cell (i + 2, j - 1); cells past the old
    # edge take the correction of the nearest old edge cell
    rows = np.minimum(np.arange(5) + 2, 4)
    cols = np.maximum(np.arange(4) - 1, 0)
    np.testing.assert_allclose(new, old[:, rows][:, :, cols], atol=1e-12)
    # so the agent mean of U - L, the part the recursion conserves, goes along
    np.testing.assert_allclose(new.mean(axis=0), old.mean(axis=0)[rows][:, cols], atol=1e-12)
