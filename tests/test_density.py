import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dbfnet.density import (
    DensityGrid,
    LOG_FLOOR,
    LogRatioField,
    StateGrid,
    find_psi,
    floor_and_normalize,
    floor_and_normalize_rows,
    kl_divergence,
    l1_distance,
    l1_rows,
    log_ratio,
    normalize,
    normalize_rows,
    systematic_indices,
    tv_distance,
)
from dbfnet.errors import AllZero, DbfError, GridMismatch, OutOfBounds


def grid_1d(lo=-6.0, hi=6.0, n=64):
    return StateGrid((lo,), (hi,), (n,))


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


SMALL = grid_1d(0.0, 8.0, 8)


# ---------------------------------------------------------------- StateGrid


def test_grid_geometry():
    g = StateGrid((0.0, 0.0), (2.0, 4.0), (2, 4))
    assert g.cell_volume == pytest.approx(1.0)
    assert g.n_cells == 8
    np.testing.assert_allclose(g.axes[0], [0.5, 1.5])
    np.testing.assert_allclose(g.axes[1], [0.5, 1.5, 2.5, 3.5])
    assert g.cells.shape == (8, 2)


def test_grid_validation():
    with pytest.raises(ValueError):
        StateGrid((0.0,), (1.0,), (1,))
    with pytest.raises(ValueError):
        StateGrid((1.0,), (0.0,), (4,))
    with pytest.raises(ValueError):
        StateGrid((0.0,), (float("inf"),), (4,))


def test_locate_and_out_of_bounds():
    g = grid_1d(0.0, 4.0, 4)
    assert g.locate(np.array([0.1])) == 0
    assert g.locate(np.array([3.9])) == 3
    with pytest.raises(OutOfBounds):
        g.locate(np.array([4.5]))


def test_log_interp_matches_field_at_centers():
    g = StateGrid((0.0, 0.0), (2.0, 4.0), (2, 4))
    field = np.arange(8.0)
    np.testing.assert_allclose(g.log_interp(field, g.cells), field)


def test_log_interp_midpoint_and_clamping():
    g = grid_1d(0.0, 4.0, 4)
    field = np.array([1.0, 3.0, -2.0, 5.0])
    # halfway between two cell centers the interpolant is their mean
    assert g.log_interp(field, np.array([1.0])) == pytest.approx(2.0)
    # outside the span of centers the nearest edge cell is read
    assert g.log_interp(field, np.array([-10.0])) == pytest.approx(1.0)
    assert g.log_interp(field, np.array([99.0])) == pytest.approx(5.0)


def test_log_interp_constant_field():
    g = StateGrid((0.0, 0.0), (1.0, 1.0), (8, 8))
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.0, 1.0, size=(50, 2))
    np.testing.assert_allclose(g.log_interp(np.full(64, -3.5), pts), -3.5)


# ---------------------------------------------------------------- normalize


def test_normalize_constant():
    g = StateGrid((0.0,), (4.0,), (4,))
    d = normalize(g, np.array([2.0, 2.0, 2.0, 2.0]))
    np.testing.assert_allclose(d.values, 0.25)


def test_normalize_two_cells():
    g = StateGrid((0.0,), (2.0,), (2,))
    d = normalize(g, np.array([1.0, 3.0]))
    np.testing.assert_allclose(d.values, [0.25, 0.75])


def test_normalize_scale_invariant():
    g = grid_1d()
    raw = np.exp(-0.5 * g.axes[0] ** 2)
    a = normalize(g, raw)
    b = normalize(g, 1e250 * raw)
    c = normalize(g, 1e-250 * raw)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.values, c.values)


def test_normalize_all_zero():
    g = SMALL
    with pytest.raises(AllZero):
        normalize(g, np.zeros(g.n_cells))


def test_normalize_rows_matches_floor_and_normalize():
    g = grid_1d()
    rng = np.random.default_rng(8)
    raw = rng.uniform(-900.0, 5.0, (3, g.n_cells))
    rows = normalize_rows(raw.copy(), g.cell_volume)
    for i in range(3):
        np.testing.assert_allclose(rows[i], DensityGrid.from_log(g, raw[i]).log_values, atol=1e-12)
    assert rows.min() >= LOG_FLOOR


def test_floor_and_normalize_all_minus_inf_has_no_mass():
    g = SMALL
    with pytest.raises(AllZero):
        floor_and_normalize(g, np.full(g.n_cells, -np.inf))
    rows = np.zeros((2, g.n_cells))
    rows[1] = -np.inf
    with pytest.raises(AllZero):
        floor_and_normalize_rows(g, rows)
    with pytest.raises(ValueError, match="NaN"):
        floor_and_normalize(g, np.full(g.n_cells, np.nan))
    with pytest.raises(ValueError, match="grid size"):
        floor_and_normalize(g, np.zeros(g.n_cells + 1))


def test_density_grid_checks():
    g = SMALL
    good = DensityGrid.uniform(g).log_values
    DensityGrid(g, good)
    with pytest.raises(ValueError, match="NaN"):
        DensityGrid(g, np.where(np.arange(g.n_cells) == 3, np.nan, good))
    below = good.copy()
    below[0] = LOG_FLOOR - 1e-6
    with pytest.raises(ValueError, match="floor"):
        DensityGrid(g, below)
    # the mass tolerance is 1e-9: a shift of 2e-9 in every cell fails it, 5e-10 passes
    DensityGrid(g, good + 5e-10)
    with pytest.raises(ValueError, match="log mass"):
        DensityGrid(g, good + 2e-9)
    with pytest.raises(ValueError, match="log mass"):
        DensityGrid(g, good - 2e-9)
    with pytest.raises(ValueError, match="log mass"):
        DensityGrid(g, np.full(g.n_cells, 800.0))
    with pytest.raises(ValueError, match="log mass"):
        DensityGrid(g, np.where(np.arange(g.n_cells) == 2, np.inf, good))


def test_l1_rows_clamps_rounding_overshoot_only():
    g = SMALL
    p = DensityGrid.from_values(g, np.eye(g.n_cells)[0])
    q = DensityGrid.from_values(g, np.eye(g.n_cells)[-1])
    rows = np.stack([p.log_values, q.log_values])
    np.testing.assert_allclose(l1_rows(rows, q.log_values, g.cell_volume), [2.0, 0.0], atol=1e-12)
    # a total mass one rounding step above 1 pushes the sum just past 2
    eps = np.finfo(float).eps
    lifted = p.log_values + np.log1p(4 * eps)
    assert np.abs(np.exp(lifted) - q.values).sum() * g.cell_volume > 2.0
    assert l1_rows(lifted[None], q.log_values, g.cell_volume)[0] == 2.0
    # an overshoot past the rounding allowance 2 * cells * eps is reported
    with pytest.raises(DbfError):
        l1_rows((p.log_values + 1e-9)[None], q.log_values, g.cell_volume)


def test_floor_applied():
    g = StateGrid((0.0,), (2.0,), (2,))
    d = normalize(g, np.array([1.0, 0.0]))
    assert d.values[1] >= 1e-300
    assert d.values[0] == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------- distances


def test_l1_identical_zero():
    d = DensityGrid.gaussian(grid_1d(), 0.0, [[1.0]])
    assert l1_distance(d, d) == 0.0


def test_l1_hand_value():
    g = StateGrid((0.0,), (2.0,), (2,))
    p = normalize(g, np.array([1.0, 0.0]))
    q = normalize(g, np.array([0.0, 1.0]))
    assert l1_distance(p, q) == pytest.approx(2.0, abs=1e-12)


def test_l1_near_disjoint_close_to_two():
    g = grid_1d(-10.0, 10.0, 400)
    p = DensityGrid.gaussian(g, -6.0, [[0.01]])
    q = DensityGrid.gaussian(g, 6.0, [[0.01]])
    assert l1_distance(p, q) == pytest.approx(2.0, abs=1e-6)


def test_grid_mismatch():
    p = DensityGrid.gaussian(grid_1d(), 0.0, [[1.0]])
    q = DensityGrid.gaussian(grid_1d(n=32), 0.0, [[1.0]])
    with pytest.raises(GridMismatch):
        l1_distance(p, q)


def test_kl_gaussian_offset():
    # KL(N(0,1) || N(1,1)) = 1/2
    g = grid_1d(-8.0, 9.0, 1700)
    p = DensityGrid.gaussian(g, 0.0, [[1.0]])
    q = DensityGrid.gaussian(g, 1.0, [[1.0]])
    assert kl_divergence(p, q) == pytest.approx(0.5, abs=1e-6)
    assert kl_divergence(p, p) == 0.0


def test_tv_is_half_l1():
    g = grid_1d()
    p = DensityGrid.gaussian(g, -1.0, [[2.0]])
    q = DensityGrid.gaussian(g, 1.5, [[0.5]])
    assert tv_distance(p, q) == 0.5 * l1_distance(p, q)


# ---------------------------------------------------------------- find_psi


def test_find_psi_identical_first_cell():
    g = grid_1d(0.0, 4.0, 4)
    d = DensityGrid.uniform(g)
    np.testing.assert_allclose(find_psi(d, d), g.point_at(0))


def test_find_psi_gaussian_crossing():
    # N(0,1) and N(2,1) cross at x = 1; the box is tight enough that the
    # tails never dip below the discretized crossing residual
    g = grid_1d(-2.0, 4.0, 64)
    p = DensityGrid.gaussian(g, 0.0, [[1.0]])
    q = DensityGrid.gaussian(g, 2.0, [[1.0]])
    psi = find_psi(p, q)
    assert abs(psi[0] - 1.0) <= g.widths[0]


def test_find_psi_residual_shrinks_with_resolution():
    last = None
    for n in (32, 64, 128, 256):
        g = grid_1d(-2.0, 4.0, n)
        p = DensityGrid.gaussian(g, 0.0, [[1.0]])
        q = DensityGrid.gaussian(g, 2.0, [[1.0]])
        idx = g.locate(find_psi(p, q))
        residual = abs(p.values[idx] - q.values[idx])
        if last is not None:
            assert residual < last
        last = residual


# ---------------------------------------------------------------- log ratio


def test_log_ratio_zero_at_anchor():
    g = grid_1d()
    p = DensityGrid.gaussian(g, 1.0, [[2.0]])
    field = log_ratio(p, np.array([0.0]))
    anchor = g.locate(np.array([0.0]))
    assert field.values[anchor] == 0.0


def test_log_ratio_roundtrip():
    g = grid_1d()
    p = DensityGrid.gaussian(g, -0.5, [[1.5]])
    back = log_ratio(p, np.array([2.0])).to_density()
    np.testing.assert_allclose(back.log_values, p.log_values, atol=1e-12)


def test_log_ratio_out_of_bounds():
    g = grid_1d()
    p = DensityGrid.uniform(g)
    with pytest.raises(OutOfBounds):
        log_ratio(p, np.array([100.0]))


def test_log_ratio_field_validates_anchor():
    g = grid_1d(0.0, 4.0, 4)
    with pytest.raises(ValueError):
        LogRatioField(g, np.array([1.0, 0.0, 0.0, 0.0]), (0.5,))


# ---------------------------------------------------------------- particles


def test_resample_deterministic():
    states = np.arange(10, dtype=float).reshape(-1, 1)
    a = states[systematic_indices(np.ones(10), 10, np.random.default_rng(7))]
    b = states[systematic_indices(np.ones(10), 10, np.random.default_rng(7))]
    np.testing.assert_array_equal(a, b)


def test_resample_even_split():
    states = np.array([[0.0], [1.0]])
    idx = systematic_indices(np.array([0.5, 0.5]), 1000, np.random.default_rng(3))
    assert idx.shape == (1000,)
    ones = int(states[idx].sum())
    assert abs(ones - 500) <= 1


def test_resample_concentrates_on_heavy_particle():
    states = np.array([[0.0], [1.0]])
    idx = systematic_indices(np.array([1e-12, 1.0]), 100, np.random.default_rng(0))
    assert states[idx].min() == 1.0


# ------------------------------------------------------------ property tests


@given(densities(SMALL))
@settings(max_examples=60, deadline=None)
def test_density_invariants(d):
    assert d.integral() == pytest.approx(1.0, abs=1e-9)
    assert d.values.min() >= 1e-300
    assert np.all(d.log_values >= LOG_FLOOR - 1e-12)


@given(densities(SMALL), densities(SMALL))
@settings(max_examples=60, deadline=None)
def test_l1_metric_properties(p, q):
    d = l1_distance(p, q)
    assert 0.0 <= d <= 2.0 + 1e-12
    assert d == pytest.approx(l1_distance(q, p), abs=1e-15)
    assert tv_distance(p, q) == 0.5 * d


@given(densities(SMALL), densities(SMALL), densities(SMALL))
@settings(max_examples=40, deadline=None)
def test_l1_triangle_inequality(p, q, r):
    assert l1_distance(p, r) <= l1_distance(p, q) + l1_distance(q, r) + 1e-12


@given(densities(SMALL))
@settings(max_examples=40, deadline=None)
def test_log_ratio_roundtrip_property(d):
    psi = find_psi(d, DensityGrid.uniform(d.grid))
    back = log_ratio(d, psi).to_density()
    np.testing.assert_allclose(back.log_values, d.log_values, atol=1e-9)


@given(densities(SMALL), densities(SMALL))
@settings(max_examples=40, deadline=None)
def test_kl_nonnegative(p, q):
    assert kl_divergence(p, q) >= 0.0
