import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dbfnet.density import (
    DensityGrid,
    LOG_FLOOR,
    StateGrid,
    floor_and_normalize,
    floor_and_normalize_rows,
    kl_divergence,
    l1_distance,
    l1_rows,
    normalize_rows,
    systematic_indices,
    tv_distance,
)
from dbfnet.errors import AllZero, DbfError, GridMismatch


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


# -------------------------------------------------------------- from_values


def test_normalize_constant():
    g = StateGrid((0.0,), (4.0,), (4,))
    d = DensityGrid.from_values(g, np.array([2.0, 2.0, 2.0, 2.0]))
    np.testing.assert_allclose(d.values, 0.25)


def test_normalize_two_cells():
    g = StateGrid((0.0,), (2.0,), (2,))
    d = DensityGrid.from_values(g, np.array([1.0, 3.0]))
    np.testing.assert_allclose(d.values, [0.25, 0.75])


def test_normalize_scale_invariant():
    g = grid_1d()
    # shifting a log field by +-250 ln 10 moves the normalized field by rounding
    # only; these fields stay above -162, so a shifted cell is below 1024 in
    # magnitude, where one ulp is 1.1e-13
    rng = np.random.default_rng(11)
    fields = [-0.5 * g.axes[0] ** 2]
    for mean, sigma in zip(rng.uniform(-3.0, 3.0, 200), rng.uniform(0.5, 3.0, 200)):
        fields.append(-0.5 * ((g.axes[0] - mean) / sigma) ** 2)
    shift = 250.0 * math.log(10.0)
    for log_field in fields:
        a = DensityGrid.from_log(g, log_field).log_values
        for sign in (1.0, -1.0):
            b = DensityGrid.from_log(g, log_field + sign * shift).log_values
            assert np.abs(b - a).max() <= 2e-13
    # scaling the values by 1e+-250 keeps them to 1e-12 relative
    raw = np.exp(fields[0])
    a = DensityGrid.from_values(g, raw)
    np.testing.assert_allclose(DensityGrid.from_values(g, 1e250 * raw).values, a.values, rtol=1e-12)
    np.testing.assert_allclose(DensityGrid.from_values(g, 1e-250 * raw).values, a.values, rtol=1e-12)


def test_normalize_all_zero():
    g = SMALL
    with pytest.raises(AllZero):
        DensityGrid.from_values(g, np.zeros(g.n_cells))


def _normalized_row(row, cell_volume):
    """One field normalized and floored cell by cell, its mass summed exactly by fsum."""
    top = max(row)
    log_mass = math.log(math.fsum(math.exp(v - top) for v in row) * cell_volume)
    return [max(v - top - log_mass, LOG_FLOOR) for v in row]


def test_normalize_rows_matches_floor_and_normalize():
    g = grid_1d()
    rng = np.random.default_rng(8)
    raw = rng.uniform(-900.0, 5.0, (3, g.n_cells))
    rows = normalize_rows(raw.copy(), g.cell_volume)
    for i in range(3):
        np.testing.assert_allclose(rows[i], DensityGrid.from_log(g, raw[i]).log_values, atol=1e-12)
    assert rows.min() >= LOG_FLOOR
    # a (2, 3, cells) stack with tied maxima and -inf cells, normalized in one pass
    stack = rng.uniform(-50.0, 5.0, (2, 3, g.n_cells))
    stack[0, 0, [4, 9]] = stack[0, 0].max() + 1.0
    stack[0, 1, :5] = stack[0, 1].max() + 1.0
    stack[1, 0, ::3] = -np.inf
    stack[1, 1, 1:] = -np.inf
    stack[1, 2, [0, 7, 60]] = 7.0
    stack[1, 2, 20:40] = -np.inf
    rows = normalize_rows(stack.copy(), g.cell_volume)
    assert rows.shape == stack.shape
    for field, raw_field in zip(rows.reshape(-1, g.n_cells), stack.reshape(-1, g.n_cells)):
        DensityGrid(g, field)
        np.testing.assert_allclose(field, DensityGrid.from_log(g, raw_field).log_values, atol=1e-12)
    # each row against the per-cell oracle, shifted by +-575 too
    for fields in (raw, stack, stack + 575.0, stack - 575.0):
        flat = fields.reshape(-1, g.n_cells)
        for field, raw_field in zip(normalize_rows(fields.copy(), g.cell_volume).reshape(flat.shape), flat):
            np.testing.assert_allclose(field, _normalized_row(raw_field.tolist(), g.cell_volume), rtol=0, atol=1e-13)


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


def test_a_plus_inf_cell_is_infinite_mass_not_no_mass():
    g = StateGrid((0.0,), (4.0,), (4,))
    with pytest.raises(ValueError, match=r"log mass inf: a cell is \+inf"):
        DensityGrid.from_log(g, np.array([np.inf, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match=r"log mass inf: a cell is \+inf"):
        DensityGrid.from_values(g, np.array([np.inf, 1.0, 1.0, 1.0]))


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
    with pytest.raises(ValueError, match="grid size"):
        DensityGrid(g, good[:-1])
    # the stack constructor takes only (m, n_cells) stacks
    with pytest.raises(ValueError, match="grid size"):
        DensityGrid.rows(g, np.zeros((2, g.n_cells + 1)))
    with pytest.raises(ValueError, match="grid size"):
        DensityGrid.rows(g, good.copy())


def test_density_grid_copies_the_callers_array():
    g = SMALL
    x = DensityGrid.uniform(g).log_values.copy()
    d = DensityGrid(g, x)
    x[:] = np.nan
    assert np.isfinite(d.log_values).all()


# each case of test_density_grid_checks, made from a good row
_ROW_CASES = {
    "good": lambda r: r,
    "mass+5e-10": lambda r: r + 5e-10,
    "nan": lambda r: np.where(np.arange(r.size) == 3, np.nan, r),
    "below-floor": lambda r: np.where(np.arange(r.size) == 0, LOG_FLOOR - 1e-6, r),
    "mass+2e-9": lambda r: r + 2e-9,
    "mass-2e-9": lambda r: r - 2e-9,
    "plus-inf": lambda r: np.where(np.arange(r.size) == 2, np.inf, r),
    "all-800": lambda r: np.full(r.size, 800.0),
}


@settings(max_examples=150, deadline=None)
@given(kinds=st.lists(st.sampled_from(sorted(_ROW_CASES)), min_size=1, max_size=6), seed=st.integers(0, 2**16))
def test_stack_check_rejects_exactly_what_the_row_check_rejects(kinds, seed):
    g = SMALL
    rng = np.random.default_rng(seed)
    stack = np.stack([_ROW_CASES[k](floor_and_normalize(g, rng.uniform(-20.0, 5.0, g.n_cells))) for k in kinds])
    errors = []
    for row in stack:
        try:
            DensityGrid(g, row)
        except ValueError as exc:
            errors.append(exc)
    if not errors:
        got = DensityGrid.rows(g, stack.copy())
        assert all(d.log_values.tobytes() == row.tobytes() for d, row in zip(got, stack, strict=True))
        return
    # the stack raises what its first failing row raises
    with pytest.raises(type(errors[0])) as raised:
        DensityGrid.rows(g, stack)
    assert str(raised.value) == str(errors[0])


@settings(max_examples=60, deadline=None)
@given(
    cells=st.sampled_from([24, 48, 257, 4096]),
    m=st.integers(1, 8),
    scale=st.sampled_from([1.0, 30.0, 300.0]),
    seed=st.integers(0, 2**16),
)
def test_floor_and_normalize_rows_of_a_merged_stack_is_bitwise_apart(cells, m, scale, seed):
    g = grid_1d(n=cells)
    raw = np.random.default_rng(seed).normal(0.0, scale, (m + 1, cells))
    merged = floor_and_normalize_rows(g, raw.copy())
    apart = [floor_and_normalize_rows(g, raw[:m].copy()), floor_and_normalize_rows(g, raw[m:].copy())]
    assert merged.tobytes() == np.concatenate(apart).tobytes()


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
    # so does a mass DensityGrid accepts, within 1e-9 of 1
    assert l1_rows((p.log_values + 1e-9)[None], q.log_values, g.cell_volume)[0] == 2.0
    # an overshoot past that allowance, 2e-9 plus 2 * cells * eps, is reported
    with pytest.raises(DbfError):
        l1_rows((p.log_values + 1e-8)[None], q.log_values, g.cell_volume)


def test_floor_applied():
    g = StateGrid((0.0,), (2.0,), (2,))
    d = DensityGrid.from_values(g, np.array([1.0, 0.0]))
    assert d.values[1] >= 1e-300
    assert d.values[0] == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------- distances


def test_l1_identical_zero():
    d = DensityGrid.gaussian(grid_1d(), 0.0, [[1.0]])
    assert l1_distance(d, d) == 0.0


def test_l1_hand_value():
    g = StateGrid((0.0,), (2.0,), (2,))
    p = DensityGrid.from_values(g, np.array([1.0, 0.0]))
    q = DensityGrid.from_values(g, np.array([0.0, 1.0]))
    assert l1_distance(p, q) == pytest.approx(2.0, abs=1e-12)


def test_l1_near_disjoint_close_to_two():
    g = grid_1d(-10.0, 10.0, 400)
    p = DensityGrid.gaussian(g, -6.0, [[0.01]])
    q = DensityGrid.gaussian(g, 6.0, [[0.01]])
    assert l1_distance(p, q) == pytest.approx(2.0, abs=1e-6)
    # a pair whose cell sum overshoots 2 by rounding reads 2, as in l1_rows
    g = StateGrid((0.0,), (1.0,), (48,))
    p = DensityGrid.gaussian(g, 0.2, [[0.02**2]])
    q = DensityGrid.gaussian(g, 0.8, [[0.02**2]])
    assert l1_distance(p, q) <= 2.0
    assert tv_distance(p, q) <= 1.0


def test_l1_disjoint_pair_within_mass_tolerance_reads_two():
    # DensityGrid accepts masses within 1e-9 of 1, so two disjoint ones at
    # mass 1 + 5e-10 have a cell sum of 2 + 1e-9, beyond the rounding clamp
    g = StateGrid((0.0,), (1.0,), (2,))
    top = math.log(2.0 * (1.0 + 5e-10))
    p = DensityGrid(g, np.array([top, LOG_FLOOR]))
    q = DensityGrid(g, np.array([LOG_FLOOR, top]))
    assert l1_distance(p, q) == 2.0
    assert tv_distance(p, q) == 1.0


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
    assert 0.0 <= d <= 2.0
    assert d == pytest.approx(l1_distance(q, p), abs=1e-15)
    assert tv_distance(p, q) == 0.5 * d


@given(densities(SMALL), densities(SMALL), densities(SMALL))
@settings(max_examples=40, deadline=None)
def test_l1_triangle_inequality(p, q, r):
    assert l1_distance(p, r) <= l1_distance(p, q) + l1_distance(q, r) + 1e-12


@given(densities(SMALL), densities(SMALL))
@settings(max_examples=40, deadline=None)
def test_kl_nonnegative(p, q):
    assert kl_divergence(p, q) >= 0.0
