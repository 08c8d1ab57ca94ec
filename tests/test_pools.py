import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dbfnet.density import DensityGrid, StateGrid, kl_divergence, l1_distance
from dbfnet.errors import GridMismatch, WeightMismatch
from dbfnet.pools import bayes_update, joint_likelihood, kl_pool, logop


def grid_1d(lo=-6.0, hi=6.0, n=128):
    return StateGrid((lo,), (hi,), (n,))


def local_maxima(values):
    idx = []
    for i in range(1, len(values) - 1):
        if values[i] > values[i - 1] and values[i] > values[i + 1]:
            idx.append(i)
    return idx


@st.composite
def densities(draw, grid):
    logs = draw(
        st.lists(
            st.floats(min_value=-30.0, max_value=5.0),
            min_size=grid.n_cells,
            max_size=grid.n_cells,
        )
    )
    return DensityGrid.from_log(grid, np.array(logs))


@st.composite
def weight_tuples(draw, n):
    raw = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0), min_size=n, max_size=n
        )
    )
    total = sum(raw)
    return [x / total for x in raw]


SMALL = grid_1d(0.0, 8.0, 8)


# ------------------------------------------------------------------ weights


def test_weights_validation():
    p = DensityGrid.uniform(grid_1d())
    with pytest.raises(ValueError):
        logop([], [])
    with pytest.raises(ValueError):
        kl_pool([])
    with pytest.raises(WeightMismatch):
        logop([p], [])


def test_weight_count_mismatch():
    g = grid_1d()
    p = DensityGrid.uniform(g)
    with pytest.raises(WeightMismatch):
        logop([p, p], [1 / 3] * 3)
    with pytest.raises(WeightMismatch):
        logop([p], [0.5, 0.5])


def test_grid_mismatch():
    p = DensityGrid.uniform(grid_1d(n=64))
    q = DensityGrid.uniform(grid_1d(n=32))
    with pytest.raises(GridMismatch):
        logop([p, q], [0.5, 0.5])
    with pytest.raises(GridMismatch):
        joint_likelihood([p, q])
    with pytest.raises(GridMismatch):
        bayes_update(p, q)


# -------------------------------------------------------------------- logop


def test_logop_identical_inputs():
    g = grid_1d()
    p = DensityGrid.gaussian(g, -1.0, [[0.7]])
    out = logop([p, p], [0.5, 0.5])
    assert l1_distance(out, p) <= 1e-12


def test_logop_gaussian_geometric_mean():
    # equal-weight geometric mean of N(0,1) and N(2,1) is N(1,1)
    g = grid_1d(-5.0, 7.0, 256)
    p = DensityGrid.gaussian(g, 0.0, [[1.0]])
    q = DensityGrid.gaussian(g, 2.0, [[1.0]])
    out = logop([p, q], [0.5, 0.5])
    expected = DensityGrid.gaussian(g, 1.0, [[1.0]])
    assert l1_distance(out, expected) <= 1e-6


def test_logop_shared_modes_stay_bimodal():
    # mode locations chosen off cell boundaries so each peak is a single cell
    g = grid_1d(-8.0, 8.0, 256)
    a, b = DensityGrid.gaussian(g, -2.9, [[0.3]]), DensityGrid.gaussian(g, 3.1, [[0.3]])
    p = DensityGrid.from_values(g, 0.5 * (a.values + b.values))
    a, b = DensityGrid.gaussian(g, -2.9, [[0.4]]), DensityGrid.gaussian(g, 3.1, [[0.4]])
    q = DensityGrid.from_values(g, 0.5 * (a.values + b.values))
    out = logop([p, q], [0.5, 0.5])
    peaks = local_maxima(out.values)
    assert len(peaks) == 2


def test_logop_permutation_invariant():
    g = grid_1d()
    p = DensityGrid.gaussian(g, -1.0, [[0.5]])
    q = DensityGrid.gaussian(g, 1.0, [[2.0]])
    r = DensityGrid.gaussian(g, 0.0, [[1.0]])
    a = logop([p, q, r], [0.5, 0.3, 0.2])
    b = logop([r, p, q], [0.2, 0.5, 0.3])
    assert l1_distance(a, b) <= 1e-12


# ------------------------------------------------------------------ kl_pool


def test_kl_pool_single_input():
    g = grid_1d()
    p = DensityGrid.gaussian(g, 0.3, [[0.9]])
    assert l1_distance(kl_pool([p]), p) <= 1e-15


def test_kl_pool_equals_uniform_logop():
    g = grid_1d()
    p = DensityGrid.gaussian(g, -1.0, [[0.5]])
    q = DensityGrid.gaussian(g, 1.5, [[1.1]])
    a = kl_pool([p, q])
    b = logop([p, q], [0.5, 0.5])
    np.testing.assert_array_equal(a.log_values, b.log_values)


def test_kl_pool_sampled_minimality():
    # the pool should beat 100 random perturbations of itself on the summed
    # KL objective it minimizes
    g = grid_1d(-5.0, 5.0, 64)
    pdfs = [
        DensityGrid.gaussian(g, -1.0, [[0.6]]),
        DensityGrid.gaussian(g, 0.5, [[1.4]]),
        DensityGrid.gaussian(g, 2.0, [[0.9]]),
    ]
    pool = kl_pool(pdfs)
    objective = sum(kl_divergence(pool, p) for p in pdfs)
    rng = np.random.default_rng(7)
    for _ in range(100):
        jitter = rng.uniform(-0.5, 0.5, size=g.n_cells)
        rho = DensityGrid.from_log(g, pool.log_values + jitter)
        perturbed = sum(kl_divergence(rho, p) for p in pdfs)
        assert objective <= perturbed + 1e-12


# --------------------------------------------------------- joint_likelihood


def test_joint_single_input():
    g = grid_1d()
    p = DensityGrid.gaussian(g, 1.0, [[0.8]])
    assert l1_distance(joint_likelihood([p]), p) <= 1e-15


def test_joint_uninformative_sensor_drops_out():
    g = grid_1d()
    p = DensityGrid.gaussian(g, -0.5, [[0.7]])
    q = DensityGrid.gaussian(g, 1.0, [[1.3]])
    flat = DensityGrid.uniform(g)
    with_flat = joint_likelihood([p, flat, q])
    without = joint_likelihood([p, q])
    assert l1_distance(with_flat, without) <= 1e-12


def test_joint_gaussian_product():
    # product of unit Gaussians at 0 and 2 is N(1, 1/2)
    g = grid_1d(-4.0, 6.0, 256)
    p = DensityGrid.gaussian(g, 0.0, [[1.0]])
    q = DensityGrid.gaussian(g, 2.0, [[1.0]])
    out = joint_likelihood([p, q])
    expected = DensityGrid.gaussian(g, 1.0, [[0.5]])
    assert l1_distance(out, expected) <= 1e-9


def test_joint_equals_powered_pool():
    g = grid_1d()
    rng = np.random.default_rng(3)
    for n in (2, 3, 5):
        pdfs = [
            DensityGrid.from_log(g, rng.uniform(-8.0, 0.0, size=g.n_cells))
            for _ in range(n)
        ]
        direct = joint_likelihood(pdfs)
        pooled = kl_pool(pdfs)
        powered = DensityGrid.from_log(g, n * pooled.log_values)
        assert l1_distance(direct, powered) <= 1e-9


# ------------------------------------------------------------- bayes_update


def test_bayes_uniform_prior_returns_likelihood():
    g = grid_1d()
    lik = DensityGrid.gaussian(g, 0.8, [[0.6]])
    out = bayes_update(DensityGrid.uniform(g), lik)
    assert l1_distance(out, lik) <= 1e-12


def test_bayes_uniform_likelihood_keeps_prior():
    g = grid_1d()
    prior = DensityGrid.gaussian(g, -0.2, [[1.5]])
    out = bayes_update(prior, DensityGrid.uniform(g))
    assert l1_distance(out, prior) <= 1e-12


def test_bayes_conjugate_gaussian():
    # N(0,1) prior with N(2,1) likelihood gives N(1, 1/2)
    g = grid_1d(-4.0, 6.0, 256)
    prior = DensityGrid.gaussian(g, 0.0, [[1.0]])
    lik = DensityGrid.gaussian(g, 2.0, [[1.0]])
    out = bayes_update(prior, lik)
    expected = DensityGrid.gaussian(g, 1.0, [[0.5]])
    assert l1_distance(out, expected) <= 1e-9


# --------------------------------------------------- external Bayesianity


@settings(max_examples=40, deadline=None)
@given(
    p=densities(SMALL),
    q=densities(SMALL),
    lik=densities(SMALL),
    w=weight_tuples(2),
)
def test_logop_external_bayesianity(p, q, lik, w):
    update_then_pool = logop([bayes_update(p, lik), bayes_update(q, lik)], w)
    pool_then_update = bayes_update(logop([p, q], w), lik)
    assert l1_distance(update_then_pool, pool_then_update) <= 1e-9
