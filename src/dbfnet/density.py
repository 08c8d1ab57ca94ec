"""Probability densities on uniform rectangular grids.

All density arithmetic happens in the log domain. A density is stored as log
values on the cell centers of a :class:`StateGrid`; sums of cell values times
the cell volume stand in for integrals (midpoint rule). Construction always
normalizes, then clamps every cell to a tiny positivity floor so that log
ratios stay finite everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AllZero, DbfError, GridMismatch, OutOfBounds

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

    def contains(self, point: np.ndarray) -> bool:
        p = np.asarray(point, dtype=float)
        return bool(np.all(p >= self.lower) and np.all(p <= self.upper))

    def cell_index(self, points: np.ndarray) -> np.ndarray:
        """Flat cell indices for points, clipping to the boundary cells."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        rel = (p - np.asarray(self.lower)) / self.widths
        idx = np.clip(np.floor(rel).astype(int), 0, np.asarray(self.points) - 1)
        flat = np.ravel_multi_index(tuple(idx.T), self.points)
        return flat if np.asarray(points).ndim > 1 else flat[0]

    def locate(self, point: np.ndarray) -> int:
        """Flat cell index of a point, raising OutOfBounds outside the box."""
        if not self.contains(point):
            raise OutOfBounds(f"point {np.asarray(point)} outside grid box")
        return int(self.cell_index(np.asarray(point)))

    def point_at(self, flat_index: int) -> np.ndarray:
        return self.cells[int(flat_index)].copy()

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


@dataclass(frozen=True, eq=False)
class DensityGrid:
    """A normalized, floored probability density over a StateGrid."""

    grid: StateGrid
    log_values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        lv = np.asarray(self.log_values, dtype=float).reshape(-1)
        if lv.shape[0] != self.grid.n_cells:
            raise ValueError("log_values length does not match grid size")
        low = lv.min()
        if np.isnan(low):
            raise ValueError("log density contains NaN")
        if low < LOG_FLOOR - 1e-9:
            raise ValueError("density below positivity floor")
        # max-shifted log mass, compared through expm1 so +800 cannot overflow
        top = float(lv.max())
        log_mass = top
        if math.isfinite(top):
            log_mass += math.log(float(np.exp(lv - top).sum()) * self.grid.cell_volume)
        if not abs(math.expm1(min(log_mass, 1.0))) <= _MASS_TOL:
            raise ValueError(f"density has log mass {log_mass!r}, not 0")
        lv.flags.writeable = False
        object.__setattr__(self, "log_values", lv)

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

    def allclose(self, other: "DensityGrid", atol: float = 1e-12) -> bool:
        _check_same_grid(self, other)
        return bool(np.allclose(self.log_values, other.log_values, atol=atol, rtol=0))


def floor_and_normalize(grid: StateGrid, log_values: np.ndarray) -> np.ndarray:
    """Normalize log values on a grid, then clamp cells to the positivity floor.

    Returns a new array. Raises AllZero when no cell carries any mass.
    """
    return floor_and_normalize_rows(grid, np.array(log_values, dtype=float).reshape(1, -1))[0]


def floor_and_normalize_rows(grid: StateGrid, log_rows: np.ndarray) -> np.ndarray:
    """Checked :func:`floor_and_normalize` of stacked fields, in place.

    Each row of the (m, n_cells) float array is normalized, floored,
    renormalized and floored again. Raises ValueError on a wrong row length
    or a NaN, and AllZero when a row carries no mass.
    """
    if log_rows.ndim != 2 or log_rows.shape[1] != grid.n_cells:
        raise ValueError("log_values length does not match grid size")
    top = log_rows.max(axis=1)
    if np.isnan(top).any():
        raise ValueError("log density contains NaN")
    if not np.isfinite(top).all():
        raise AllZero("density has no mass to normalize")
    log_volume = np.log(grid.cell_volume)
    for _ in range(2):
        log_rows -= _log_mass_rows(log_rows) + log_volume
        np.maximum(log_rows, LOG_FLOOR, out=log_rows)
    return log_rows


def _log_mass_rows(log_rows: np.ndarray) -> np.ndarray:
    """Log of each row's summed exponentials, as a column.

    The maximal cells are split out of the sum and the rest enters through
    ``log1p``, so the result keeps the precision of the small terms: a
    rescaled field then normalizes to the same bits.
    """
    top = log_rows.max(axis=1, keepdims=True)
    rest = log_rows - top
    at_top = rest == 0.0
    np.exp(rest, out=rest)
    rest[at_top] = 0.0
    ties = at_top.sum(axis=1, keepdims=True)
    return np.log1p(rest.sum(axis=1, keepdims=True) / ties) + np.log(ties) + top


def normalize_rows(log_values: np.ndarray, cell_volume: float) -> np.ndarray:
    """Normalize each row of stacked log fields in place, then floor it.

    One max-shift pass per row stands in for ``logsumexp``; returns the
    array it was given.
    """
    top = log_values.max(axis=-1, keepdims=True)
    shifted = log_values - top
    mass = np.exp(shifted, out=shifted).sum(axis=-1, keepdims=True)
    log_values -= top + np.log(mass * cell_volume)
    np.maximum(log_values, LOG_FLOOR, out=log_values)
    return log_values


def l1_rows(log_p: np.ndarray, log_q: np.ndarray, cell_volume: float) -> np.ndarray:
    """Grid L1 distance of each row of ``log_p`` from ``log_q``, a row or a stack.

    The distance between two densities is at most 2, but the cell sum can
    overshoot it by its own rounding, at most ``2 * cells * eps``; such an
    overshoot is clamped to 2, and a larger one raises DbfError.
    """
    gap = np.exp(log_p)
    gap -= np.exp(log_q)
    l1 = np.abs(gap, out=gap).sum(axis=-1) * cell_volume
    top = l1.max(initial=0.0)
    if top > 2.0:
        allowance = 2.0 * log_p.shape[-1] * np.finfo(float).eps
        if not top <= 2.0 + allowance:
            raise DbfError(f"L1 distance {top!r} exceeds 2 by more than rounding ({allowance:.2g})")
        np.minimum(l1, 2.0, out=l1)
    return l1


def normalize(grid: StateGrid, raw_values: np.ndarray) -> DensityGrid:
    """Build a normalized density from raw nonnegative cell values."""
    return DensityGrid.from_values(grid, raw_values)


def l1_distance(p: DensityGrid, q: DensityGrid) -> float:
    """Grid L1 distance, sum of absolute cell differences times cell volume."""
    _check_same_grid(p, q)
    return float(np.abs(p.values - q.values).sum() * p.grid.cell_volume)


def tv_distance(p: DensityGrid, q: DensityGrid) -> float:
    """Total variation distance, exactly half the L1 distance."""
    return 0.5 * l1_distance(p, q)


def kl_divergence(p: DensityGrid, q: DensityGrid) -> float:
    """KL divergence of p from q on the grid, nonnegative."""
    _check_same_grid(p, q)
    val = float((p.values * (p.log_values - q.log_values)).sum() * p.grid.cell_volume)
    return max(0.0, val)


def find_psi(p: DensityGrid, q: DensityGrid) -> np.ndarray:
    """Cell center where p and q are closest, the anchor for log ratios.

    Ties resolve to the lowest flat cell index, so identical densities anchor
    at the first grid point.
    """
    _check_same_grid(p, q)
    idx = int(np.argmin(np.abs(p.values - q.values)))
    return p.grid.point_at(idx)


@dataclass(frozen=True, eq=False)
class LogRatioField:
    """Log of a density against its value at an anchor point psi."""

    grid: StateGrid
    values: np.ndarray = field(repr=False)
    psi: tuple[float, ...]

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if v.shape[0] != self.grid.n_cells:
            raise ValueError("values length does not match grid size")
        anchor = self.grid.locate(np.asarray(self.psi))
        if abs(v[anchor]) > 1e-9:
            raise ValueError("log ratio must vanish at the anchor cell")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "psi", tuple(float(x) for x in self.psi))

    def to_density(self) -> DensityGrid:
        """Invert the representation: exponentiate and renormalize."""
        return DensityGrid.from_log(self.grid, self.values)


def log_ratio(p: DensityGrid, psi: np.ndarray) -> LogRatioField:
    """Log ratio field of p anchored at the cell containing psi."""
    anchor = p.grid.locate(np.asarray(psi))
    vals = p.log_values - p.log_values[anchor]
    return LogRatioField(p.grid, vals, tuple(np.asarray(psi, dtype=float)))


def systematic_indices(weights: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Systematic resampling index vector with a single uniform offset."""
    cum = np.cumsum(weights)
    cum = cum / cum[-1]
    positions = (rng.uniform() + np.arange(count)) / count
    return np.searchsorted(cum, positions, side="left")

