"""Probability densities on uniform rectangular grids.

All density arithmetic happens in the log domain. A density is stored as log
values on the cell centers of a :class:`StateGrid`; sums of cell values times
the cell volume stand in for integrals (midpoint rule). Construction always
normalizes, then clamps every cell to a tiny positivity floor so that log
ratios stay finite everywhere. Stacks of fields, one row per agent, run
through one kernel: :func:`normalize_rows`, the fusion step
:func:`consensus_update` and the power step :func:`power_rows`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import AllZero, DbfError, GridMismatch

POSITIVITY_FLOOR = 1e-300
LOG_FLOOR = float(np.log(POSITIVITY_FLOOR))
_MASS_TOL = 1e-9


@dataclass(frozen=True)
class StateGrid:
    """Uniform rectangular grid over a box, with cell-centered points.

    Args:
        lower: lower bound per dimension.
        upper: upper bound per dimension.
        points: number of cells per dimension (at least 2 each).
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    points: tuple[int, ...]

    def __post_init__(self) -> None:
        lower = tuple(float(v) for v in self.lower)
        upper = tuple(float(v) for v in self.upper)
        points = tuple(int(n) for n in self.points)
        if not (len(lower) == len(upper) == len(points)) or len(lower) == 0:
            raise ValueError("lower, upper and points must share one nonzero length")
        if any(not np.isfinite(v) for v in lower + upper):
            raise ValueError("grid bounds must be finite")
        if any(u <= l for l, u in zip(lower, upper)):
            raise ValueError("each upper bound must exceed its lower bound")
        if any(n < 2 for n in points):
            raise ValueError("need at least 2 points per dimension")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "points", points)

    @property
    def ndim(self) -> int:
        return len(self.points)

    @cached_property
    def n_cells(self) -> int:
        return int(np.prod(self.points))

    @cached_property
    def widths(self) -> np.ndarray:
        return (np.asarray(self.upper) - np.asarray(self.lower)) / np.asarray(self.points)

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.widths))

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        out = []
        for lo, w, n in zip(self.lower, self.widths, self.points):
            out.append(lo + (np.arange(n) + 0.5) * w)
        return tuple(out)

    @cached_property
    def cells(self) -> np.ndarray:
        """All cell centers as an (n_cells, ndim) array in C order."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def log_interp(self, log_values: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Multilinear interpolation of a per-cell field at arbitrary points.

        Queries are clamped to the span of cell centers, so points at or past
        the boundary read the nearest edge cell.  Interpolating log values
        keeps a locally quadratic log-density smooth between cell centers.
        """
        p = np.atleast_2d(np.asarray(points, dtype=float))
        fields = np.asarray(log_values, dtype=float).reshape(-1)
        # flat index of each point's lower corner cell, per-axis fractions
        flat = np.zeros(p.shape[0], dtype=np.intp)
        stride = self.n_cells
        corner_offsets = [0]
        low, high = [], []
        for axis, n in enumerate(self.points):
            stride //= n
            rel = p[:, axis] - self.lower[axis]
            rel /= self.widths[axis]
            rel -= 0.5
            np.clip(rel, 0.0, n - 1.0, out=rel)
            base = rel.astype(np.intp)
            np.minimum(base, n - 2, out=base)
            rel -= base
            base *= stride
            flat += base
            corner_offsets = [c + bit * stride for bit in (0, 1) for c in corner_offsets]
            low.append(1.0 - rel)
            high.append(rel)
        out = np.zeros(p.shape[0])
        for corner, offset in enumerate(corner_offsets):
            weight = None
            for axis in range(self.ndim):
                g = high[axis] if (corner >> axis) & 1 else low[axis]
                weight = g if weight is None else weight * g
            out += weight * fields[offset:].take(flat)
        return out if np.asarray(points).ndim > 1 else out[0]


def _check_same_grid(*objs) -> None:
    g = objs[0].grid
    for o in objs[1:]:
        if o.grid != g:
            raise GridMismatch("operands live on different grids")


def _check_rows(grid: StateGrid, rows: np.ndarray) -> None:
    """Raise the first failing row's error unless each stack row is a density."""
    if rows.ndim != 2 or rows.shape[1] != grid.n_cells:
        raise ValueError("log_values length does not match grid size")
    # ufunc reductions skip the Python wrappers of ndarray.max and .sum
    tops = np.maximum.reduce(rows, axis=1)
    top_list = tops.tolist()
    if not math.isfinite(sum(top_list)):  # shift by finite values, never inf - inf
        np.clip(tops, -np.finfo(float).max, np.finfo(float).max, out=tops)
    shifted = rows - tops[:, None]
    totals = np.add.reduce(np.exp(shifted, out=shifted), axis=1)
    for low, top, total in zip(np.minimum.reduce(rows, axis=1).tolist(), top_list, totals.tolist()):
        if math.isnan(low):
            raise ValueError("log density contains NaN")
        if low < LOG_FLOOR - 1e-9:
            raise ValueError("density below positivity floor")
        # max-shifted log mass, compared through expm1 so +800 cannot overflow
        log_mass = top + math.log(total * grid.cell_volume)
        if not abs(math.expm1(min(log_mass, 1.0))) <= _MASS_TOL:
            raise ValueError(f"density has log mass {log_mass!r}, not 0")


@dataclass(frozen=True, eq=False, init=False)
class DensityGrid:
    """A normalized, floored probability density over a StateGrid."""

    grid: StateGrid
    log_values: np.ndarray = field(repr=False)

    def __init__(self, grid: StateGrid, log_values: np.ndarray) -> None:
        # a copy, so the density does not change with the caller's array
        lv = np.asarray(log_values, dtype=float).flatten()
        _check_rows(grid, lv[None])
        lv.setflags(write=False)
        self.__dict__.update(grid=grid, log_values=lv)

    @classmethod
    def rows(cls, grid: StateGrid, stack: np.ndarray) -> list["DensityGrid"]:
        """Densities viewing the rows of an (m, n_cells) stack, checked once; it turns read-only."""
        _check_rows(grid, stack)
        stack.setflags(write=False)
        out = [object.__new__(cls) for _ in range(len(stack))]
        for d, row in zip(out, stack):
            d.__dict__.update(grid=grid, log_values=row)
        return out

    @classmethod
    def from_log(cls, grid: StateGrid, log_values: np.ndarray) -> "DensityGrid":
        """Normalize unnormalized log values and apply the positivity floor."""
        return cls(grid, floor_and_normalize(grid, np.asarray(log_values, dtype=float)))

    @classmethod
    def from_values(cls, grid: StateGrid, values: np.ndarray) -> "DensityGrid":
        vals = np.asarray(values, dtype=float)
        if np.any(vals < 0) or np.any(np.isnan(vals)):
            raise ValueError("density values must be nonnegative and not NaN")
        with np.errstate(divide="ignore"):
            return cls.from_log(grid, np.log(vals))

    @classmethod
    def uniform(cls, grid: StateGrid) -> "DensityGrid":
        return cls.from_log(grid, np.zeros(grid.n_cells))

    @classmethod
    def gaussian(cls, grid: StateGrid, mean, cov) -> "DensityGrid":
        """Density proportional to a (possibly truncated) Gaussian on the grid."""
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        diff = grid.cells - mean
        sol = np.linalg.solve(cov, diff.T).T
        return cls.from_log(grid, -0.5 * np.einsum("ij,ij->i", diff, sol))

    @cached_property
    def values(self) -> np.ndarray:
        v = np.exp(self.log_values)
        v.flags.writeable = False
        return v

    def integral(self) -> float:
        return float(self.values.sum() * self.grid.cell_volume)

    def mean(self) -> np.ndarray:
        return (self.values[:, None] * self.grid.cells).sum(axis=0) * self.grid.cell_volume


def floor_and_normalize(grid: StateGrid, log_values: np.ndarray) -> np.ndarray:
    """Normalize log values on a grid, then clamp cells to the positivity floor.

    Returns a new array. Raises AllZero when no cell carries any mass.
    """
    return floor_and_normalize_rows(grid, np.array(log_values, dtype=float).reshape(1, -1))[0]


def floor_and_normalize_rows(grid: StateGrid, log_rows: np.ndarray) -> np.ndarray:
    """Checked :func:`floor_and_normalize` of stacked fields, in place.

    Each row of the (m, n_cells) float array goes through
    :func:`normalize_rows` twice. Raises ValueError on a wrong row length,
    a NaN or a +inf cell, and AllZero when a row carries no mass.
    """
    if log_rows.ndim != 2 or log_rows.shape[1] != grid.n_cells:
        raise ValueError("log_values length does not match grid size")
    top = log_rows.max(axis=1)
    if np.isnan(top).any():
        raise ValueError("log density contains NaN")
    if not np.isfinite(top).all():
        if np.isposinf(top).any():
            raise ValueError("density has log mass inf: a cell is +inf")
        raise AllZero("density has no mass to normalize")
    # the second pass keeps test_normalize_scale_invariant bit for bit
    normalize_rows(log_rows, grid.cell_volume)
    return normalize_rows(log_rows, grid.cell_volume)


def normalize_rows(log_values: np.ndarray, cell_volume: float) -> np.ndarray:
    """Normalize each field along the last axis of a stack in place, then floor it.

    The maximal cells are split out of each field's sum and the rest enters
    through ``log1p``, so the log mass keeps the precision of the small
    terms. Returns the array it was given.
    """
    top = log_values.max(axis=-1, keepdims=True)
    rest = log_values - top
    at_top = rest == 0.0
    np.exp(rest, out=rest)
    np.copyto(rest, 0.0, where=at_top)
    ties = at_top.sum(axis=-1, keepdims=True)
    log_mass = np.log1p(rest.sum(axis=-1, keepdims=True) / ties) + np.log(ties) + top
    log_values -= log_mass + np.log(cell_volume)
    np.maximum(log_values, LOG_FLOOR, out=log_values)
    return log_values


def l1_rows(log_p: np.ndarray, log_q: np.ndarray, cell_volume: float) -> np.ndarray:
    """Grid L1 distance of each row of ``log_p`` from ``log_q``, a row or a stack.

    The distance between two densities is at most 2, but it can overshoot 2
    by the masses ``DensityGrid`` accepts, each within ``_MASS_TOL`` of 1, and
    by the cell sum's rounding, at most ``2 * cells * eps``; such an overshoot
    is clamped to 2, and a larger one raises DbfError.
    """
    gap = np.exp(log_p)
    gap -= np.exp(log_q)
    l1 = np.abs(gap, out=gap).sum(axis=-1) * cell_volume
    top = l1.max(initial=0.0)
    if top > 2.0:
        allowance = 2.0 * _MASS_TOL + 2.0 * log_p.shape[-1] * np.finfo(float).eps
        if not top <= 2.0 + allowance:
            raise DbfError(f"L1 distance {top!r} exceeds 2 by more than rounding ({allowance:.2g})")
        np.minimum(l1, 2.0, out=l1)
    return l1


def consensus_update(
    log_u_prev: np.ndarray,
    log_l: np.ndarray,
    log_l_prev: np.ndarray | None,
    a: np.ndarray,
    cell_volume: float,
    channel: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """The one fusion step of the recursion, for all agents at once.

    Stacks are (n, ..., cells), one leading row per agent, and row i becomes
    ``normalize(sum_j a[i, j] U~^{ij} + log_l[i] - log_l_prev[i])``. The mix
    runs as one ``a @ U`` on the (n, -1) view, in column blocks small enough
    that BLAS runs each on the calling thread. ``channel`` maps the (m, cells)
    copies of ``log_u_prev`` rows sent over the edges j -> i, i != j and
    a[i, j] > 0 in row-major order, to the copies received; without it every
    copy arrives exact. Pass ``log_l_prev=None`` for tick 1 or a restart.
    """
    if log_l_prev is None:
        raw = log_l.copy()
    else:
        raw = np.empty(log_l.shape)
        flat = raw.reshape(len(raw), -1)
        flat_u = log_u_prev.reshape(len(log_u_prev), -1)
        # n*n*width stays under 262,144, OpenBLAS's gemm threading threshold;
        # power-of-two widths keep a @ U's bits
        width = 64
        while len(a) * len(a) * width * 2 < 262_144:
            width *= 2
        for c in range(0, flat.shape[1], width):
            block = slice(c, c + width)
            np.matmul(a, flat_u[:, block], out=flat[:, block])
        increment = log_l
        if channel is not None:
            # each received copy changes its receiver's row of a @ U
            rows, cols = np.nonzero(a * ~np.eye(len(a), dtype=bool))
            sent = log_u_prev[cols]
            change = channel(sent) - sent
            change *= a[rows, cols][:, None]
            correction = np.zeros_like(log_u_prev)
            np.add.at(correction, rows, change)
            increment = log_l + correction
        raw += increment - log_l_prev
    return normalize_rows(raw, cell_volume)


def power_rows(log_u: np.ndarray, n_agents: int, cell_volume: float) -> np.ndarray:
    """Stacked power estimate fields from stacked fusion fields of any leading shape."""
    return normalize_rows(n_agents * log_u, cell_volume)


def l1_distance(p: DensityGrid, q: DensityGrid) -> float:
    """Grid L1 distance, sum of absolute cell differences times cell volume,
    with ``l1_rows``' clamp of rounding overshoot above 2."""
    _check_same_grid(p, q)
    return float(l1_rows(p.log_values[None], q.log_values, p.grid.cell_volume)[0])


def tv_distance(p: DensityGrid, q: DensityGrid) -> float:
    """Total variation distance, exactly half the L1 distance."""
    return 0.5 * l1_distance(p, q)


def kl_divergence(p: DensityGrid, q: DensityGrid) -> float:
    """KL divergence of p from q on the grid, nonnegative."""
    _check_same_grid(p, q)
    val = float((p.values * (p.log_values - q.log_values)).sum() * p.grid.cell_volume)
    return max(0.0, val)


def systematic_indices(weights: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Systematic resampling index vector with a single uniform offset."""
    cum = np.cumsum(weights)
    cum = cum / cum[-1]
    positions = (rng.uniform() + np.arange(count)) / count
    return np.searchsorted(cum, positions, side="left")

