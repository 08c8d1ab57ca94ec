from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dbfnet.density import DensityGrid, StateGrid
from dbfnet.engine import SensorModel, TargetModel, predict as grid_predict, normalized_likelihood
from dbfnet.errors import (
    SingularF,
    SingularPosterior,
    SingularR,
    SingularSum,
    WeightRowInvalid,
)
from dbfnet.infofilter import (
    InfoState,
    LinearModel,
    centralized_info_step,
    info_fuse,
    info_measurement,
    info_predict,
    info_update,
)
from dbfnet.pools import bayes_update
from dbfnet.topology import Digraph, metropolis_weights, random_connected_graph


def random_spd(rng, dim, scale=1.0):
    a = rng.standard_normal((dim, dim))
    return scale * (a @ a.T + dim * np.eye(dim))


def scalar_model(f=1.0, q=1.0, h=1.0, r=1.0):
    return LinearModel(
        f=np.array([[f]]),
        q=np.array([[q]]),
        h=(np.array([[h]]),),
        r=(np.array([[r]]),),
    )


def covariance_predict(x, p, f, q):
    return f @ x, f @ p @ f.T + q


def covariance_update(x, p, y, h, r):
    s = h @ p @ h.T + r
    k = p @ h.T @ np.linalg.inv(s)
    x_post = x + k @ (y - h @ x)
    p_post = (np.eye(p.shape[0]) - k @ h) @ p
    return x_post, p_post


# ------------------------------------------------------------------- model


def test_model_validation():
    with pytest.raises(SingularF):
        LinearModel(f=np.zeros((2, 2)), q=np.eye(2), h=(None,), r=(None,))
    with pytest.raises(SingularSum):
        LinearModel(f=np.eye(2), q=np.zeros((2, 2)), h=(None,), r=(None,))
    with pytest.raises(SingularR):
        LinearModel(f=np.eye(1), q=np.eye(1), h=(np.eye(1),), r=(np.zeros((1, 1)),))
    with pytest.raises(ValueError):
        LinearModel(f=np.eye(1), q=np.eye(1), h=(np.eye(1),), r=(None,))
    with pytest.raises(ValueError):
        LinearModel(f=np.eye(1), q=np.eye(1), h=(np.eye(1),), r=())
    m = scalar_model()
    assert m.n_agents == 1 and m.dim == 1


def test_from_moments():
    s = InfoState.from_moments(np.array([2.0, -1.0]), np.diag([4.0, 0.25]))
    np.testing.assert_allclose(s.Z, np.diag([0.25, 4.0]))
    np.testing.assert_allclose(s.z, [0.5, -4.0])


# ----------------------------------------------------------------- predict


def test_predict_scalar_worked_example():
    s = InfoState.from_moments(np.array([0.0]), np.array([[1.0]]))
    out = info_predict(s, scalar_model(f=1.0, q=1.0))
    np.testing.assert_allclose(out.Z, [[0.5]], atol=1e-12)


def test_predict_noiseless_identity_keeps_information():
    s = InfoState.from_moments(np.array([1.5]), np.array([[2.0]]))
    out = info_predict(s, scalar_model(q=1e-12))
    np.testing.assert_allclose(out.Z, s.Z, atol=1e-9)
    np.testing.assert_allclose(out.z, s.z, atol=1e-9)


def test_predict_matches_covariance_oracle():
    rng = np.random.default_rng(41)
    for _ in range(50):
        dim = int(rng.integers(1, 5))
        p = random_spd(rng, dim)
        q = random_spd(rng, dim, scale=0.5)
        f = rng.standard_normal((dim, dim)) + 2.0 * np.eye(dim)
        x = rng.standard_normal(dim)
        model = LinearModel(f=f, q=q, h=(None,), r=(None,))
        out = info_predict(InfoState.from_moments(x, p), model)
        x_pred, p_pred = covariance_predict(x, p, f, q)
        np.testing.assert_allclose(np.linalg.inv(out.Z), p_pred, atol=1e-8)
        np.testing.assert_allclose(np.linalg.solve(out.Z, out.z), x_pred, atol=1e-8)


def test_predict_keeps_symmetry():
    rng = np.random.default_rng(43)
    s = InfoState.from_moments(rng.standard_normal(3), random_spd(rng, 3))
    f = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
    out = info_predict(s, LinearModel(f=f, q=random_spd(rng, 3), h=(None,), r=(None,)))
    np.testing.assert_array_equal(out.Z, out.Z.T)
    assert np.linalg.eigvalsh(out.Z).min() >= -1e-10


# ------------------------------------------------------------- measurement


def test_measurement_identity_sensor():
    m = LinearModel(f=np.eye(2), q=np.eye(2), h=(np.eye(2),), r=(np.eye(2),))
    iv, im = info_measurement(np.array([3.0, -1.0]), m, 0)
    np.testing.assert_allclose(iv, [3.0, -1.0])
    np.testing.assert_allclose(im, np.eye(2))


def test_measurement_missing_sensor_is_zero():
    m = LinearModel(f=np.eye(2), q=np.eye(2), h=(None,), r=(None,))
    iv, im = info_measurement(np.array([1.0]), m, 0)
    np.testing.assert_array_equal(iv, np.zeros(2))
    np.testing.assert_array_equal(im, np.zeros((2, 2)))
    # no sensing rows at all: the empty stacked pairs
    iv, im = info_measurement(np.zeros((0, 1)), m, np.arange(0))
    assert iv.shape == (0, 2) and im.shape == (0, 2, 2)


def test_measurement_position_only_sensor():
    h = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    m = LinearModel(f=np.eye(4), q=np.eye(4), h=(h,), r=(15.0 * np.eye(2),))
    iv, im = info_measurement(np.array([30.0, 45.0]), m, 0)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[2, 2] = 1.0 / 15.0
    np.testing.assert_allclose(im, expected)
    np.testing.assert_allclose(iv, [2.0, 0.0, 3.0, 0.0])
    assert np.linalg.matrix_rank(im) == 2


# ------------------------------------------------------------------- fuse


def test_fuse_single_agent_is_bitwise_exact():
    rng = np.random.default_rng(47)
    s = InfoState.from_moments(np.zeros(2), np.eye(2))
    for k in range(1, 6):
        iv = rng.standard_normal(2)
        im = random_spd(rng, 2)
        received = [] if k == 1 else [(s.u, s.U, 1.0)]
        s = info_fuse(s, iv, im, received, k)
        np.testing.assert_array_equal(s.u, iv)
        np.testing.assert_array_equal(s.U, im)


def test_fuse_complete_graph_reaches_sum_at_second_tick():
    rng = np.random.default_rng(53)
    n = 4
    infos = [(rng.standard_normal(3), random_spd(rng, 3)) for _ in range(n)]
    states = [InfoState.from_moments(np.zeros(3), np.eye(3)) for _ in range(n)]
    states = [
        info_fuse(s, iv, im, [], 1) for s, (iv, im) in zip(states, infos)
    ]
    w = 1.0 / n
    new = []
    for i, (iv, im) in enumerate(infos):
        received = [(states[j].u, states[j].U, w) for j in range(n)]
        new.append(info_fuse(states[i], iv, im, received, 2))
    total_i = sum(iv for iv, _ in infos)
    total_im = sum(im for _, im in infos)
    for s in new:
        np.testing.assert_allclose(n * s.u, total_i, atol=1e-10)
        np.testing.assert_allclose(n * s.U, total_im, atol=1e-10)


def test_fuse_conserves_information_sums():
    rng = np.random.default_rng(59)
    n = 5
    a = np.full((n, n), 1.0 / n) * 0.5 + 0.5 * np.eye(n)
    a = a / a.sum(axis=1, keepdims=True)
    # symmetric doubly stochastic by construction
    states = [InfoState.from_moments(np.zeros(2), np.eye(2)) for _ in range(n)]
    prev_infos = None
    for k in range(1, 7):
        infos = [(rng.standard_normal(2), random_spd(rng, 2)) for _ in range(n)]
        new = []
        for i in range(n):
            received = (
                []
                if k == 1
                else [(states[j].u, states[j].U, float(a[i, j])) for j in range(n)]
            )
            new.append(info_fuse(states[i], *infos[i], received, k))
        states = new
        sum_u = sum(s.u for s in states)
        sum_i = sum(iv for iv, _ in infos)
        np.testing.assert_allclose(sum_u, sum_i, atol=1e-10)
        sum_bu = sum(s.U for s in states)
        sum_bi = sum(im for _, im in infos)
        np.testing.assert_allclose(sum_bu, sum_bi, atol=1e-10)
        prev_infos = infos


def test_fuse_rejects_bad_rows_and_ticks():
    s = InfoState.from_moments(np.zeros(1), np.eye(1))
    s = info_fuse(s, np.ones(1), np.eye(1), [], 1)
    with pytest.raises(WeightRowInvalid):
        info_fuse(s, np.ones(1), np.eye(1), [(s.u, s.U, 0.5)], 2)
    with pytest.raises(ValueError):
        info_fuse(s, np.ones(1), np.eye(1), [], 0)
    bare = InfoState.from_moments(np.zeros(1), np.eye(1))
    with pytest.raises(ValueError):
        info_fuse(bare, np.ones(1), np.eye(1), [(np.ones(1), np.eye(1), 1.0)], 2)


# ------------------------------------------------------------------ update


def test_update_without_information_keeps_prior():
    s = InfoState.from_moments(np.array([1.0, -2.0]), np.diag([2.0, 0.5]))
    s = info_fuse(s, np.zeros(2), np.zeros((2, 2)), [], 1)
    x_hat, p, post = info_update(s, 1)
    np.testing.assert_allclose(x_hat, [1.0, -2.0], atol=1e-12)
    np.testing.assert_allclose(p, np.diag([2.0, 0.5]), atol=1e-12)


def test_update_requires_fuse_first():
    s = InfoState.from_moments(np.zeros(1), np.eye(1))
    with pytest.raises(ValueError):
        info_update(s, 1)


def test_update_singular_posterior():
    s = InfoState(z=np.zeros(2), Z=np.zeros((2, 2)), u=np.zeros(2), U=np.zeros((2, 2)))
    with pytest.raises(SingularPosterior):
        info_update(s, 1)


def test_single_agent_tick_matches_covariance_filter():
    rng = np.random.default_rng(61)
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        obs = int(rng.integers(1, dim + 1))
        f = rng.standard_normal((dim, dim)) + 2.0 * np.eye(dim)
        q = random_spd(rng, dim, scale=0.3)
        h = rng.standard_normal((obs, dim))
        r = random_spd(rng, obs, scale=0.5)
        model = LinearModel(f=f, q=q, h=(h,), r=(r,))
        x = rng.standard_normal(dim)
        p = random_spd(rng, dim)
        y = rng.standard_normal(obs)

        s = info_predict(InfoState.from_moments(x, p), model)
        s = info_fuse(s, *info_measurement(y, model, 0), [], 1)
        x_info, p_info, _ = info_update(s, 1)

        x_pred, p_pred = covariance_predict(x, p, f, q)
        x_ref, p_ref = covariance_update(x_pred, p_pred, y, h, r)
        np.testing.assert_allclose(x_info, x_ref, atol=1e-8)
        np.testing.assert_allclose(p_info, p_ref, atol=1e-8)


def test_centralized_step_matches_stacked_covariance_filter():
    rng = np.random.default_rng(67)
    dim, n = 3, 3
    f = np.eye(dim) * 0.9
    q = random_spd(rng, dim, scale=0.2)
    hs = tuple(rng.standard_normal((1, dim)) for _ in range(n))
    rs = tuple(random_spd(rng, 1) for _ in range(n))
    model = LinearModel(f=f, q=q, h=hs, r=rs)
    x = rng.standard_normal(dim)
    p = random_spd(rng, dim)
    ys = [rng.standard_normal(1) for _ in range(n)]

    x_hat, p_hat, _ = centralized_info_step(InfoState.from_moments(x, p), model, ys)

    h_stack = np.vstack(hs)
    r_stack = np.zeros((n, n))
    for i, r in enumerate(rs):
        r_stack[i, i] = r[0, 0]
    x_pred, p_pred = covariance_predict(x, p, f, q)
    x_ref, p_ref = covariance_update(x_pred, p_pred, np.concatenate(ys), h_stack, r_stack)
    np.testing.assert_allclose(x_hat, x_ref, atol=1e-8)
    np.testing.assert_allclose(p_hat, p_ref, atol=1e-8)


def test_complete_graph_converges_to_centralized_trajectory():
    # from tick 2 the fused pair equals the centralized information exactly;
    # the tick-1 discrepancy then washes out of the stable filter
    rng = np.random.default_rng(71)
    dim, n = 2, 3
    model = LinearModel(
        f=0.9 * np.eye(dim),
        q=0.3 * np.eye(dim),
        h=tuple(rng.standard_normal((1, dim)) for _ in range(n)),
        r=tuple(np.array([[1.0]]) for _ in range(n)),
    )
    ys = [rng.standard_normal(1) for _ in range(n)]
    x0, p0 = np.zeros(dim), 4.0 * np.eye(dim)
    agents = [InfoState.from_moments(x0, p0) for _ in range(n)]
    central = InfoState.from_moments(x0, p0)
    w = 1.0 / n
    gap = []
    for k in range(1, 121):
        x_c, _, central = centralized_info_step(central, model, ys)
        preds = [info_predict(s, model) for s in agents]
        infos = [info_measurement(ys[i], model, i) for i in range(n)]
        fused = []
        for i in range(n):
            received = (
                []
                if k == 1
                else [(agents[j].u, agents[j].U, w) for j in range(n)]
            )
            fused.append(info_fuse(preds[i], *infos[i], received, k))
        agents = []
        worst = 0.0
        for s in fused:
            if k >= 2:
                total_i = sum(iv for iv, _ in infos)
                np.testing.assert_allclose(n * s.u, total_i, atol=1e-10)
            x_hat, _, post = info_update(s, n)
            worst = max(worst, float(np.abs(x_hat - x_c).max()))
            agents.append(post)
        gap.append(worst)
    assert gap[-1] <= 1e-9
    assert gap[-1] < gap[1]


# ------------------------------------------------------------ grid bridge


def test_grid_and_information_forms_agree_in_one_dimension():
    grid = StateGrid((-10.0,), (10.0,), (400,))
    f, q, r = 1.0, 0.2, 0.5
    model = scalar_model(f=f, q=q, h=1.0, r=r)

    def sensor_log_likelihood(y, g):
        return -0.5 * (g.cells[:, 0] - y[0]) ** 2 / r

    sm = SensorModel(measure=lambda x, rng: x, log_likelihood=sensor_log_likelihood)
    tm = TargetModel.gaussian_walk(grid, [[q]])

    density = DensityGrid.gaussian(grid, 0.0, [[2.0]])
    info = InfoState.from_moments(np.array([0.0]), np.array([[2.0]]))

    for k, y in enumerate([np.array([0.4]), np.array([-0.2]), np.array([0.7])], start=1):
        density = bayes_update(
            grid_predict(density, tm), normalized_likelihood(sm, y, grid)
        )
        s = info_predict(info, model)
        s = info_fuse(s, *info_measurement(y, model, 0), [] if k == 1 else [(s.u, s.U, 1.0)], k)
        x_hat, p, info = info_update(s, 1)

        mean = density.mean()[0]
        var = float(
            np.sum(density.values * (grid.cells[:, 0] - mean) ** 2) * grid.cell_volume
        )
        assert abs(mean - x_hat[0]) <= 1e-3
        assert abs(var - p[0, 0]) <= 1e-3


# ------------------------------------------------------------- stacked tick


def test_model_caches_constant_information():
    rng = np.random.default_rng(73)
    f = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
    q = random_spd(rng, 3)
    h = rng.standard_normal((2, 3))
    r = random_spd(rng, 2)
    m = LinearModel(f=f, q=q, h=(h, None), r=(r, None))
    np.testing.assert_array_equal(m.f_inv, np.linalg.inv(f))
    np.testing.assert_allclose(m.q_inv @ q, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(m.hr[0], h.T @ np.linalg.inv(r), atol=1e-12)
    np.testing.assert_allclose(m.hrh[0], h.T @ np.linalg.inv(r) @ h, atol=1e-12)
    np.testing.assert_array_equal(m.hrh[0], m.hrh[0].T)
    assert m.hr[1] is None and m.hrh[1] is None


def _ref_sym(m):
    return 0.5 * (m + m.T)


def _ref_spd_inverse(m):
    inv = np.linalg.inv(np.linalg.cholesky(_ref_sym(m)))
    return inv.T @ inv


def reference_tick(agents, f, q, hs, rs, ys, a, k):
    """The per-agent loop the stacked tick replaces, one agent at a time.

    ``agents`` holds dicts of z, Z, u, U and the last measurement pair i, I;
    agent i mixes the pairs of the agents j with a[i, j] > 0 in order.
    """
    n, dim = len(agents), f.shape[0]
    f_inv, q_inv = np.linalg.inv(f), _ref_spd_inverse(q)
    out, estimates = [], []
    for i, s in enumerate(agents):
        big_m = _ref_sym(f_inv.T @ s["Z"] @ f_inv)
        shrink = np.eye(dim) - np.linalg.solve(big_m + q_inv, big_m.T).T
        z, z_mat = shrink @ (f_inv.T @ s["z"]), _ref_sym(shrink @ big_m)
        if hs[i] is None:
            iv, im = np.zeros(dim), np.zeros((dim, dim))
        else:
            hr = hs[i].T @ _ref_spd_inverse(rs[i])
            iv, im = hr @ ys[i], _ref_sym(hr @ hs[i])
        if k == 1:
            u, big_u = iv, im
        else:
            nbrs = [j for j in range(n) if a[i, j] > 0.0]
            u = iv + (sum(a[i, j] * agents[j]["u"] for j in nbrs) - s["i"])
            big_u = im + (sum(a[i, j] * agents[j]["U"] for j in nbrs) - s["I"])
        z_post, z_mat_post = z + n * u, _ref_sym(z_mat + n * big_u)
        estimates.append(_ref_spd_inverse(z_mat_post) @ z_post)
        out.append({"z": z_post, "Z": z_mat_post, "u": u, "U": big_u, "i": iv, "I": im})
    return out, np.array(estimates)


def stacked_tick(states, model, ys, sensing, a, k):
    """One benchmark-2 tick on a stack: predict, fill the sensing rows, mix, update."""
    n, dim = a.shape[0], model.dim
    i_new, big_i_new = np.zeros((n, dim)), np.zeros((n, dim, dim))
    if sensing.size:
        i_new[sensing], big_i_new[sensing] = info_measurement(ys[sensing], model, sensing)
    return info_update(info_fuse(info_predict(states, model), i_new, big_i_new, a, k), n)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    dim=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    ticks=st.integers(1, 4),
    metropolis=st.booleans(),
)
def test_stacked_tick_matches_per_agent_reference(n, dim, seed, ticks, metropolis):
    rng = np.random.default_rng(seed)
    obs = int(rng.integers(1, dim + 1))
    f_half = rng.standard_normal((dim, dim))
    f = 0.5 * np.eye(dim) + f_half @ f_half.T / np.linalg.norm(f_half @ f_half.T, 2)
    q = random_spd(rng, dim, scale=0.3)
    has_sensor = rng.random(n) < 0.6
    hs = tuple(rng.standard_normal((obs, dim)) if s else None for s in has_sensor)
    rs = tuple(random_spd(rng, obs) if s else None for s in has_sensor)
    model = LinearModel(f=f, q=q, h=hs, r=rs)
    sensing = np.flatnonzero(has_sensor)
    if metropolis:
        a = metropolis_weights(random_connected_graph(n, rng)).values
    else:
        # row stochastic but not symmetric, so a transposed mix shows
        a = rng.random((n, n)) * (rng.random((n, n)) < 0.7) + np.eye(n)
        a /= a.sum(axis=1, keepdims=True)
    prior = InfoState.from_moments(rng.standard_normal(dim), random_spd(rng, dim))

    states = InfoState(z=np.tile(prior.z, (n, 1)), Z=np.tile(prior.Z, (n, 1, 1)))
    ref = [{"z": prior.z, "Z": prior.Z} for _ in range(n)]
    for k in range(1, ticks + 1):
        ys = rng.standard_normal((n, obs))
        x_hat, _, states = stacked_tick(states, model, ys, sensing, a, k)
        ref, ref_x = reference_tick(ref, f, q, hs, rs, ys, a, k)
        np.testing.assert_allclose(x_hat, ref_x, atol=1e-10, rtol=0)
        for field, key in (("z", "z"), ("Z", "Z"), ("u", "u"), ("U", "U")):
            want = np.stack([r[key] for r in ref])
            np.testing.assert_allclose(getattr(states, field), want, atol=1e-10, rtol=0)


def test_stacked_lone_agent_is_bitwise_centralized():
    rng = np.random.default_rng(79)
    dim = 3
    model = LinearModel(
        f=rng.standard_normal((dim, dim)) + 2.0 * np.eye(dim),
        q=random_spd(rng, dim, scale=0.3),
        h=(rng.standard_normal((2, dim)),),
        r=(random_spd(rng, 2),),
    )
    central = InfoState.from_moments(rng.standard_normal(dim), random_spd(rng, dim))
    stack = InfoState(z=central.z[None], Z=central.Z[None])
    for k in range(1, 9):
        y = rng.standard_normal(2)
        x_s, p_s, stack = stacked_tick(stack, model, y[None], np.array([0]), np.eye(1), k)
        x_c, p_c, central = centralized_info_step(central, model, [y])
        np.testing.assert_array_equal(x_s[0], x_c)
        np.testing.assert_array_equal(p_s[0], p_c)
        np.testing.assert_array_equal(stack.z[0], central.z)
        np.testing.assert_array_equal(stack.Z[0], central.Z)


def _stack(n, dim=2):
    s = InfoState.from_moments(np.zeros(dim), np.eye(dim))
    return InfoState(z=np.tile(s.z, (n, 1)), Z=np.tile(s.Z, (n, 1, 1)))


def test_stacked_fuse_takes_an_adjacency_matrix():
    n, dim = 2, 2
    a = metropolis_weights(Digraph.undirected(n, [(0, 1)]))
    rng = np.random.default_rng(5)
    first = rng.standard_normal((n, dim)), np.tile(np.eye(dim), (n, 1, 1))
    second = rng.standard_normal((n, dim)), np.tile(2.0 * np.eye(dim), (n, 1, 1))
    s = info_fuse(_stack(n, dim), *first, a, 1)
    by_matrix, by_values = (info_fuse(s, *second, w, 2) for w in (a, a.values))
    for name in ("u", "U", "i_prev", "I_prev"):
        np.testing.assert_array_equal(getattr(by_matrix, name), getattr(by_values, name))


def test_stacked_errors():
    n, dim = 4, 2
    a = np.full((n, n), 1.0 / n)
    pairs = np.ones((n, dim)), np.tile(np.eye(dim), (n, 1, 1))
    s = info_fuse(_stack(n), *pairs, a, 1)
    bad = a.copy()
    bad[2, 3] += 0.1
    with pytest.raises(WeightRowInvalid):
        info_fuse(s, *pairs, bad, 2)
    bad = a.copy()
    bad[1, 0], bad[1, 1] = -0.25, 0.75
    with pytest.raises(WeightRowInvalid):
        info_fuse(s, *pairs, bad, 2)

    z_mat = s.Z.copy()
    z_mat[2] = -10.0 * np.eye(dim)
    with pytest.raises(SingularPosterior, match="agent row 2"):
        info_update(replace(s, Z=z_mat), n)

    model = LinearModel(f=np.eye(dim), q=np.eye(dim), h=(None,) * n, r=(None,) * n)
    z_mat = s.Z.copy()
    z_mat[1] = -np.eye(dim)
    with pytest.raises(SingularSum, match="agent row 1"):
        info_predict(replace(s, Z=z_mat), model)

    with pytest.raises(ValueError):
        InfoState(z=np.zeros((n, dim)), Z=np.zeros((n, dim + 1, dim + 1)))
    with pytest.raises(ValueError):
        replace(s, u=None)
