"""Per-agent density fusion over a network.

Each tick every agent predicts its posterior through the target kernel, forms
a normalized likelihood from its own measurement, fuses the neighbors'
previous fusion states with its likelihood increment, raises the fusion state
to the agent count to approximate the joint likelihood, and runs the Bayes
update. The fusion recursion for agent i at tick k (k >= 2) is

    U_k^i = normalize( prod_j (U~_{k-1}^{ij})^{A[i, j]} * L_k^i / L_{k-1}^i ),

with U_1^i = L_1^i, where U~^{ij} is U^j as agent i received it, corrupted
within eps_u by a noisy channel (U~^{ii} = U^i). The power estimate T_k^i =
normalize((U_k^i)^n) tracks the normalized product of all agents' current
likelihoods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .density import (
    DensityGrid,
    StateGrid,
    _check_same_grid,
    consensus_update,
    floor_and_normalize_rows,
    l1_rows,
    power_rows,
)
from .errors import GridMismatch, KernelInvalid
from .pools import bayes_update as update, joint_likelihood
from .topology import _weight_rows

_KERNEL_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class TargetModel:
    """Target motion as a transition kernel on one grid.

    ``kernel[j, i]`` is the transition density from cell j to cell i, so each
    row integrates to one over the grid. The kernel is checked once and
    stored read-only.
    """

    grid: StateGrid
    kernel: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        k = np.array(self.kernel, dtype=float)
        cells = self.grid.n_cells
        if k.shape != (cells, cells):
            raise KernelInvalid(f"kernel must be {cells} x {cells} on its grid, got {k.shape}")
        if np.any(k < 0) or np.any(np.isnan(k)):
            raise KernelInvalid("kernel entries must be nonnegative")
        residual = np.abs(k.sum(axis=1) * self.grid.cell_volume - 1.0).max()
        if residual > _KERNEL_TOL:
            raise KernelInvalid(f"kernel rows integrate to 1 within {residual:.3g} > {_KERNEL_TOL}")
        k.flags.writeable = False
        object.__setattr__(self, "kernel", k)

    @classmethod
    def gaussian_walk(cls, grid: StateGrid, cov) -> "TargetModel":
        """Random walk with Gaussian increments, truncated to the grid box.

        Rows are renormalized so mass leaving the box is reflected back
        instead of lost.
        """
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        cells = grid.cells
        diff = cells[None, :, :] - cells[:, None, :]
        sol = np.einsum("abi,ij->abj", diff, np.linalg.inv(cov))
        log_k = -0.5 * np.einsum("abi,abi->ab", diff, sol)
        log_k -= log_k.max(axis=1, keepdims=True)
        k = np.exp(log_k)
        k /= k.sum(axis=1, keepdims=True) * grid.cell_volume
        return cls(grid, k)


@dataclass(frozen=True)
class SensorModel:
    """A measurement sampler plus a log likelihood evaluator on a grid."""

    measure: Callable[[np.ndarray, np.random.Generator], np.ndarray]
    log_likelihood: Callable[[np.ndarray, StateGrid], np.ndarray]


@dataclass(frozen=True)
class ChannelNoise:
    """Bounded multiplicative corruption of exchanged and modeled densities.

    Each corrupted cell picks up a factor in [exp(-eps), exp(eps)].
    """

    eps_u: float
    eps_l: float
    rng: np.random.Generator

    def __post_init__(self) -> None:
        if not (0.0 <= self.eps_u < np.inf and 0.0 <= self.eps_l < np.inf):
            raise ValueError("noise bounds must be finite and nonnegative")

    @classmethod
    def from_seed(cls, eps_u: float, eps_l: float, seed: int) -> "ChannelNoise":
        return cls(eps_u, eps_l, np.random.default_rng(seed))

    def corrupt(self, grid: StateGrid, rows: np.ndarray, eps: float) -> np.ndarray:
        """New (m, cells) log rows: each cell of ``rows`` shifted by a uniform draw
        in [-eps, eps], in row-major order, then renormalized and floored."""
        return floor_and_normalize_rows(grid, rows + self.rng.uniform(-eps, eps, size=rows.shape))


@dataclass(frozen=True)
class AgentState:
    """One agent's densities after a tick.

    ``w`` is the posterior, ``l`` the latest normalized likelihood, ``u``
    the fusion state, ``t`` the power estimate of the joint likelihood.
    """

    w: DensityGrid
    l: DensityGrid | None = None
    u: DensityGrid | None = None
    t: DensityGrid | None = None

    @classmethod
    def initial(cls, prior: DensityGrid) -> "AgentState":
        return cls(w=prior)


def _predict_rows(values: np.ndarray, tm: TargetModel, grid: StateGrid) -> np.ndarray:
    """Stacked posterior values pushed through the kernel, as log rows."""
    if tm.grid != grid:
        raise GridMismatch("target model and densities live on different grids")
    vals = values @ tm.kernel
    vals *= grid.cell_volume
    with np.errstate(divide="ignore"):
        return floor_and_normalize_rows(grid, np.log(vals))


def _likelihood_rows(
    sensor_models: Sequence[SensorModel | None],
    measurements: Sequence[np.ndarray | None],
    grid: StateGrid,
) -> np.ndarray:
    """Normalized log likelihood rows; a row without a sensor is uniform."""
    raw = [
        np.zeros(grid.n_cells) if sm is None or y is None
        else np.asarray(sm.log_likelihood(y, grid), dtype=float).reshape(-1)
        for sm, y in zip(sensor_models, measurements)
    ]
    return floor_and_normalize_rows(grid, np.stack(raw))


def predict(w: DensityGrid, tm: TargetModel) -> DensityGrid:
    """Push a posterior through the transition kernel (Chapman-Kolmogorov)."""
    return DensityGrid.rows(w.grid, _predict_rows(w.values[None], tm, w.grid))[0]


def normalized_likelihood(
    sm: SensorModel | None,
    y: np.ndarray | None,
    grid: StateGrid,
) -> DensityGrid:
    """Normalized likelihood of a measurement; uniform without a sensor."""
    return DensityGrid.rows(grid, _likelihood_rows([sm], [y], grid))[0]


def fuse(
    likelihood: DensityGrid,
    likelihood_prev: DensityGrid | None,
    received: Sequence[tuple[DensityGrid, float]],
    k: int,
) -> DensityGrid:
    """One fusion step; ``received`` holds (U_{k-1}^j, A[i, j]) incl. self.

    At k = 1 the fusion state is the likelihood itself.
    """
    if k < 1:
        raise ValueError("tick index is 1 based")
    if k == 1:
        return likelihood
    if likelihood_prev is None:
        raise ValueError("previous likelihood required after the first tick")
    weights = _weight_rows([[w for _, w in received]])
    _check_same_grid(likelihood, likelihood_prev, *[u for u, _ in received])
    return DensityGrid.rows(likelihood.grid, consensus_update(
        np.stack([u.log_values for u, _ in received]),
        likelihood.log_values[None],
        likelihood_prev.log_values[None],
        weights,
        likelihood.grid.cell_volume,
    ))[0]


def power_estimate(u: DensityGrid, n_agents: int) -> DensityGrid:
    """Normalize U^n, the estimate of the joint likelihood."""
    if n_agents < 1:
        raise ValueError("need at least one agent")
    return DensityGrid.rows(u.grid, power_rows(u.log_values[None], n_agents, u.grid.cell_volume))[0]


@dataclass(frozen=True)
class StepDiagnostics:
    joint: DensityGrid
    l1_to_joint: np.ndarray


def dbf_step(
    agents: Sequence[AgentState],
    adjacency,
    k: int,
    target_model: TargetModel | None,
    sensor_models: Sequence[SensorModel | None],
    measurements: Sequence[np.ndarray | None],
    channel_noise: ChannelNoise | None = None,
) -> tuple[list[AgentState], StepDiagnostics]:
    """Advance every agent one tick and report distances to the joint.

    ``adjacency`` is the weight matrix for this tick; row i gives agent i's
    fusion weights. Channel noise corrupts each received copy independently
    and the agent's own modeled likelihood, never the diagnostics reference.
    All agents run as stacked log rows, one row per agent; the rows become
    checked densities only at the end.
    """
    if k < 1:
        raise ValueError("tick index is 1 based")
    n = len(agents)
    if np.shape(getattr(adjacency, "values", adjacency)) != (n, n):
        raise ValueError("adjacency size does not match agent count")
    grid = agents[0].w.grid
    _check_same_grid(*[st.w for st in agents])
    vol = grid.cell_volume
    noise = channel_noise

    log_true = _likelihood_rows(
        [sensor_models[i] for i in range(n)], [measurements[i] for i in range(n)], grid
    )
    log_l = log_true
    if noise is not None and noise.eps_l > 0:
        log_l = noise.corrupt(grid, log_true, noise.eps_l)

    if target_model is None:
        log_s = np.stack([st.w.log_values for st in agents])
    else:
        log_s = _predict_rows(np.stack([st.w.values for st in agents]), target_model, grid)

    if k == 1:
        log_u = log_l
    else:
        a_pos = _weight_rows(adjacency)
        if any(st.u is None for st in agents):
            raise ValueError("fusion state missing; was tick 1 run?")
        if any(st.l is None for st in agents):
            raise ValueError("previous likelihood required after the first tick")
        _check_same_grid(agents[0].w, *[st.l for st in agents], *[st.u for st in agents])
        log_u_prev = np.stack([st.u.log_values for st in agents])
        log_l_prev = np.stack([st.l.log_values for st in agents])
        noisy = noise is not None and noise.eps_u > 0
        channel = partial(noise.corrupt, grid, eps=noise.eps_u) if noisy else None
        log_u = consensus_update(log_u_prev, log_l, log_l_prev, a_pos, vol, channel)

    log_t = power_rows(log_u, n, vol)
    # the posterior rows, then the joint row
    post = floor_and_normalize_rows(grid, np.vstack([log_s + log_t, log_true.sum(axis=0)]))
    l1 = l1_rows(log_t, post[n:], vol)

    # every returned density comes from one stack, checked once
    checked = DensityGrid.rows(grid, np.concatenate([log_l, log_u, log_t, post]))
    l, u, t, w = (checked[i * n:(i + 1) * n] for i in range(4))
    u = l if log_u is log_l else u
    new_agents = [AgentState(w=w[i], l=l[i], u=u[i], t=t[i]) for i in range(n)]
    return new_agents, StepDiagnostics(joint=checked[-1], l1_to_joint=l1)


@dataclass(frozen=True)
class MultiloopResult:
    fusion: list[DensityGrid]
    estimates: list[DensityGrid]
    error_norms: np.ndarray


def multiloop_fuse(
    likelihoods: Sequence[DensityGrid],
    adjacency,
    n_loop: int,
) -> MultiloopResult:
    """Repeated within-tick fusion loops toward the joint likelihood.

    Loop 1 sets each agent's fusion state to its own likelihood; every later
    loop applies the weighted log pool of the neighbors' states. Returns the
    per-loop L2 norms of the vector of per-agent L1 errors to the joint.
    """
    if n_loop < 1:
        raise ValueError("n_loop must be at least 1")
    n = len(likelihoods)
    mix = _weight_rows(adjacency)
    joint = joint_likelihood(likelihoods)
    grid = joint.grid
    log_u = np.stack([p.log_values for p in likelihoods])
    norms = []
    for loop in range(1, n_loop + 1):
        if loop > 1:
            # a zero likelihood increment: the rows are floored and finite
            log_u = consensus_update(log_u, log_u, log_u, mix, grid.cell_volume)
        log_t = power_rows(log_u, n, grid.cell_volume)
        norms.append(float(np.linalg.norm(l1_rows(log_t, joint.log_values, grid.cell_volume))))
    fusion = DensityGrid.rows(grid, log_u)
    estimates = DensityGrid.rows(grid, log_t)
    return MultiloopResult(fusion=fusion, estimates=estimates, error_norms=np.asarray(norms))


def move_fusion_state(
    log_u: np.ndarray,
    log_l_prev: np.ndarray,
    log_l_prev_moved: np.ndarray,
    shift,
    points: tuple[int, ...],
) -> np.ndarray:
    """Carry stacked fusion rows onto a grid moved by whole cells.

    Cell c of the moved grid lies over cell c + shift of the old one, so a
    zero shift is the identity. ``log_l_prev_moved`` is the previous
    likelihood evaluated on the moved grid. The difference-driven recursion
    keeps whatever error is written into a cell and conserves only the
    agent average of the consensus correction U - L, so the correction is
    what gets moved, and cells the old grid did not cover take the
    correction of its nearest edge cell. Extending U itself would write the
    old edge likelihood into those cells for good.
    """
    correction = (log_u - log_l_prev).reshape(log_u.shape[:-1] + tuple(points))
    index = np.ix_(*[np.clip(np.arange(n) + s, 0, n - 1) for n, s in zip(points, shift)])
    return log_l_prev_moved + correction[(Ellipsis, *index)].reshape(log_u.shape)
