"""Benchmark scenarios and the formation task.

Scenario 1 tracks a constant-velocity target with range and bearing sensors
through the full density fusion pipeline on a position grid, with a particle
filter carrying each agent's Bayes recursion and one more bank, stepped the
same way, carrying the centralized reference. Its particles sample position
only: the velocity is linear and Gaussian given the position path, so each
particle carries its velocity's mean and the bank one shared variance, as in
a marginalized particle filter (``_MarginalMotion``). Scenario 2 swaps the
sensors for linear position sensors and runs the information-filter
specialization. The formation task closes the loop: agents steer with
artificial potentials acting on fused position estimates of one another.
Benchmark 1 and formation share one fusion kernel
(``density.consensus_update`` and ``power_rows``) and one particle-bank
scheduler: the banks move on a pool thread while the calling thread fuses
the fields, then both threads weigh banks taken from one queue. A move draws
noise for a bank's position rows only, the rows its likelihood reads. Their
outputs do not depend on the thread count.

All scenarios replay one master trajectory generated at a fine reference
interval, so runs at different sampling intervals see the same physical
truth and the same measurement noise at shared instants.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields
from functools import partial
from queue import Empty, SimpleQueue
from typing import Callable, Iterator

import numpy as np

from .density import (
    DensityGrid,
    StateGrid,
    consensus_update,
    l1_rows,
    normalize_rows,
    power_rows,
    systematic_indices,
)
from .bounds import multiloop_bound
from .engine import move_fusion_state, multiloop_fuse
from .errors import ConfigInvalid, DbfError
from .infofilter import (
    InfoState,
    LinearModel,
    centralized_info_step,  # noqa: F401  perfbench's tracer wraps the name here
    info_fuse,
    info_measurement,
    info_predict,
    info_update,
)
from .streams import named_stream
from .topology import (
    AdjacencyMatrix,
    Digraph,
    local_degree_weights,
    metropolis_weights,
    random_connected_graph,
    second_singular_value,
)

DT_MASTER = 0.01
# draws of formation start positions before the box is taken as too small
_START_TRIES = 10_000


def _finite_real(value) -> bool:
    return isinstance(value, numbers.Real) and math.isfinite(value)


# field annotation -> what a value must be, and the test of it
_FIELD_TYPES = {
    "int": ("an integer", lambda v: isinstance(v, int)),
    "float": ("a finite real", _finite_real),
    "float | None": ("a finite real or null", lambda v: v is None or _finite_real(v)),
}


def _check_types(cfg) -> None:
    """Reject a field of ``cfg`` whose value does not fit its ``int`` or
    ``float`` annotation: an int, a finite real; a bool is neither."""
    for f in fields(cfg):
        what, fits = _FIELD_TYPES.get(f.type, (None, None))
        value = getattr(cfg, f.name)
        if fits is not None and (isinstance(value, bool) or not fits(value)):
            raise ConfigInvalid(f"{f.name} must be {what}, got {value!r}")


def _entries(name: str, value, size: int, kind: type) -> tuple:
    """``value`` as a tuple of ``size`` finite entries of ``kind``, none of them a bool."""
    entries = tuple(value) if np.iterable(value) else ()
    if len(entries) != size or not all(
        isinstance(v, kind) and not isinstance(v, bool) and (kind is int or math.isfinite(v)) for v in entries
    ):
        raise ConfigInvalid(f"{name} must list {size} finite numbers of type {kind.__name__}, got {value!r}")
    return entries


def target_dynamics_cv(dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Constant-velocity transition and process noise for state (x, vx, y, vy)."""
    if dt <= 0:
        raise ConfigInvalid("dt must be positive")
    f1 = np.array([[1.0, dt], [0.0, 1.0]])
    q1 = np.array([[dt**3 / 3.0, dt**2 / 2.0], [dt**2 / 2.0, dt]])
    # one block per axis; the 0/1 factors of kron leave every entry's bits
    return np.kron(np.eye(2), f1), np.kron(np.eye(2), q1)


def _wrap_angle(a: np.ndarray) -> np.ndarray:
    return np.arctan2(np.sin(a), np.cos(a))


def bearing(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Bearing of a displacement, measured from the +y axis toward +x."""
    return np.arctan2(dx, dy)


def toa_log_likelihood(
    points: np.ndarray, sensor_pos: np.ndarray, y: float | np.ndarray, sigma_r: float
) -> np.ndarray:
    """Unnormalized log likelihood of range measurements at (P, 2) points.

    Sensor positions (..., 2) and measurements (...) give one row of P values
    per sensor; one sensor gives (P,).
    """
    sensor_pos, y = np.asarray(sensor_pos), np.asarray(y)
    d = np.hypot(points[:, 0] - sensor_pos[..., 0, None], points[:, 1] - sensor_pos[..., 1, None])
    return -0.5 * ((y[..., None] - d) / sigma_r) ** 2


def doa_log_likelihood(
    points: np.ndarray, sensor_pos: np.ndarray, y: float | np.ndarray, sigma_theta: float
) -> np.ndarray:
    """Unnormalized log likelihood of bearing measurements at (P, 2) points,
    one row per sensor as in ``toa_log_likelihood``."""
    sensor_pos, y = np.asarray(sensor_pos), np.asarray(y)
    ang = bearing(points[:, 0] - sensor_pos[..., 0, None], points[:, 1] - sensor_pos[..., 1, None])
    return -0.5 * (_wrap_angle(y[..., None] - ang) / sigma_theta) ** 2


@dataclass(frozen=True)
class BenchmarkConfig:
    """Configuration shared by both benchmark scenarios."""

    seed: int = 1
    dt: float = 0.05
    duration: float = 30.0
    n_agents: int = 50
    n_toa: int = 5
    n_doa: int = 5
    sigma_r: float = 10.0
    sigma_theta_deg: float = 2.0
    r_linear: float = 15.0
    particles: int = 10000
    grid_cells: tuple[int, int] = (64, 64)
    region: tuple[float, float, float, float] = (0.0, 120.0, 0.0, 120.0)
    comm_radius: float = 40.0
    noise_tau: float = 2.0
    delta_target: float = 1.0
    eta: float = 0.5
    x0: tuple[float, float, float, float] = (25.0, 1.8, 30.0, 1.5)
    prior_pos_sigma: float = 20.0
    prior_vel_sigma: float = 3.0

    def __post_init__(self) -> None:
        _check_types(self)
        if self.dt <= 0 or self.duration <= 0:
            raise ConfigInvalid("dt and duration must be positive")
        if not math.isfinite(self.duration / self.dt):
            raise ConfigInvalid(f"duration / dt must give a finite step count, got {self.duration!r} / {self.dt!r}")
        stride = self.dt / DT_MASTER
        if not math.isfinite(stride) or round(stride) < 1 or abs(stride - round(stride)) > 1e-9:
            raise ConfigInvalid(f"dt must be a multiple of the master interval {DT_MASTER}")
        if self.n_agents < 1 or self.n_toa < 0 or self.n_doa < 0:
            raise ConfigInvalid("agent counts must be nonnegative")
        if self.n_toa + self.n_doa > self.n_agents:
            raise ConfigInvalid("more sensors than agents")
        if self.particles < 1:
            raise ConfigInvalid("need at least one particle")
        if self.sigma_r <= 0 or self.sigma_theta_deg <= 0 or self.r_linear <= 0:
            raise ConfigInvalid("noise scales must be positive")
        for name in ("noise_tau", "comm_radius", "prior_pos_sigma", "prior_vel_sigma"):
            if getattr(self, name) < 0:
                raise ConfigInvalid(f"{name} must be nonnegative, got {getattr(self, name)!r}")
        if not (0.0 < self.eta < 1.0 and 0.0 < self.delta_target < 2.0 / (1.0 + self.eta)):
            raise ConfigInvalid("need eta in (0, 1) and delta_target in (0, 2 / (1 + eta))")
        xmin, xmax, ymin, ymax = _entries("region", self.region, 4, numbers.Real)
        if xmin >= xmax or ymin >= ymax:
            raise ConfigInvalid("region must be a nonempty box")
        if min(_entries("grid_cells", self.grid_cells, 2, int)) < 2:
            raise ConfigInvalid("grid_cells must give at least 2 cells per axis")
        if self.steps < 1:
            raise ConfigInvalid("duration must cover at least one dt")
        object.__setattr__(self, "grid_cells", tuple(self.grid_cells))
        object.__setattr__(self, "region", tuple(float(v) for v in self.region))
        object.__setattr__(self, "x0", tuple(float(v) for v in _entries("x0", self.x0, 4, numbers.Real)))

    @property
    def steps(self) -> int:
        return int(round(self.duration / self.dt))

    @property
    def stride(self) -> int:
        return int(round(self.dt / DT_MASTER))

    @property
    def sigma_theta(self) -> float:
        return math.radians(self.sigma_theta_deg)

    def position_grid(self, offset: tuple[int, int] = (0, 0)) -> StateGrid:
        """The grid over ``region``, or that grid moved by whole cells."""
        xmin, xmax, ymin, ymax = self.region
        dx = offset[0] * (xmax - xmin) / self.grid_cells[0]
        dy = offset[1] * (ymax - ymin) / self.grid_cells[1]
        return StateGrid((xmin + dx, ymin + dy), (xmax + dx, ymax + dy), self.grid_cells)


@dataclass(frozen=True)
class RunMetrics:
    """Per-tick per-agent metric rows (tick, agent, metric, value; agent -1
    marks the centralized baseline) plus run-level summary values."""

    rows: list
    summary: dict
    estimates: np.ndarray | None = field(default=None, repr=False)
    truth: np.ndarray | None = field(default=None, repr=False)


@dataclass(frozen=True)
class Layout:
    positions: np.ndarray
    adjacency: AdjacencyMatrix


def _bridge_components(n: int, pairs: list, positions: np.ndarray) -> list:
    """Add closest cross-component pairs until the graph connects."""
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in pairs:
        parent[find(i)] = find(j)
    while len({find(i) for i in range(n)}) > 1:
        best = None
        for i in range(n):
            for j in range(i + 1, n):
                if find(i) == find(j):
                    continue
                d = float(np.hypot(*(positions[i] - positions[j])))
                if best is None or d < best[0]:
                    best = (d, i, j)
        _, i, j = best
        pairs.append((i, j))
        parent[find(i)] = find(j)
    return pairs


def benchmark_layout(cfg: BenchmarkConfig) -> Layout:
    """Seeded sensor placement and communication graph over the region."""
    rng = named_stream(cfg.seed, "layout")
    xmin, xmax, ymin, ymax = cfg.region
    positions = np.column_stack(
        [
            rng.uniform(xmin, xmax, cfg.n_agents),
            rng.uniform(ymin, ymax, cfg.n_agents),
        ]
    )
    diff = positions[:, None] - positions[None]
    i, j = np.nonzero(np.triu(np.hypot(diff[..., 0], diff[..., 1]) <= cfg.comm_radius, 1))
    pairs = _bridge_components(cfg.n_agents, list(zip(i.tolist(), j.tolist())), positions)
    graph = Digraph.undirected(cfg.n_agents, pairs)
    adjacency = local_degree_weights(graph) if cfg.n_agents > 1 else AdjacencyMatrix(np.eye(1))
    return Layout(positions=positions, adjacency=adjacency)


def master_trajectory(cfg: BenchmarkConfig) -> tuple[np.ndarray, np.ndarray]:
    """Reference truth and measurement noise at the master interval.

    Runs at any configured dt subsample these, so every sampling interval
    sees the same target path and the same noise at shared instants. The
    measurement noise is a stationary first-order process with unit marginal
    variance and correlation time noise_tau, so consecutive ticks at a short
    sampling interval observe a slowly drifting measurement stream, while a
    long interval sees nearly independent draws. noise_tau = 0 makes every
    master instant independent.
    """
    n_master = int(round(cfg.duration / DT_MASTER))
    f, q = target_dynamics_cv(DT_MASTER)
    chol = np.linalg.cholesky(q)
    rng = named_stream(cfg.seed, "trajectory")
    truth = np.empty((n_master + 1, 4))
    truth[0] = cfg.x0
    for t in range(n_master):
        truth[t + 1] = f @ truth[t] + chol @ rng.standard_normal(4)
    noise_rng = named_stream(cfg.seed, "measurement-noise")
    meas_noise = noise_rng.standard_normal((n_master + 1, cfg.n_agents, 2))
    if cfg.noise_tau > 0:
        rho = math.exp(-DT_MASTER / cfg.noise_tau)
        fresh = math.sqrt(1.0 - rho * rho)
        for t in range(1, n_master + 1):
            meas_noise[t] = rho * meas_noise[t - 1] + fresh * meas_noise[t]
    return truth, meas_noise


def _scenario1_measurements(
    cfg: BenchmarkConfig, layout: Layout, truth_row: np.ndarray, noise_row: np.ndarray
) -> np.ndarray:
    """The ranges of agents 0 .. n_toa - 1, then the bearings of the next n_doa agents."""
    toa = slice(0, cfg.n_toa)
    doa = slice(cfg.n_toa, cfg.n_toa + cfg.n_doa)
    dx, dy = (truth_row[[0, 2]] - layout.positions[: doa.stop]).T
    y = np.empty(doa.stop)
    y[toa] = np.hypot(dx[toa], dy[toa]) + cfg.sigma_r * noise_row[toa, 0]
    y[doa] = bearing(dx[doa], dy[doa]) + cfg.sigma_theta * noise_row[doa, 0]
    return y


def _observed_kappa(max_l1: np.ndarray, threshold: float) -> int | None:
    """First tick index (1 based) after which the series stays below threshold."""
    above = np.flatnonzero(max_l1 > threshold)
    if above.size == 0:
        return 1
    if above[-1] == max_l1.size - 1:
        return None
    return int(above[-1]) + 2


def _sensor_log_likelihoods(
    cfg: BenchmarkConfig, layout: Layout, y: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Unnormalized log likelihood of each measurement of ``y`` at (P, 2)
    points, one row per sensing agent in agent order: (m, P)."""
    n_toa, pos = cfg.n_toa, layout.positions[: len(y)]
    toa = toa_log_likelihood(points, pos[:n_toa], y[:n_toa], cfg.sigma_r)
    doa = doa_log_likelihood(points, pos[n_toa:], y[n_toa:], cfg.sigma_theta)
    return np.concatenate([toa, doa])


def _joint_log_likelihood(
    cfg: BenchmarkConfig, layout: Layout, y: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Sum of every measurement's log likelihood at (P, 2) points, added in agent order."""
    return _sensor_log_likelihoods(cfg, layout, y, points).sum(axis=0)


def _scenario1_log_likelihoods(
    cfg: BenchmarkConfig, layout: Layout, y: np.ndarray, grid: StateGrid
) -> np.ndarray:
    """Normalized, floored per-agent log likelihoods on the grid's cells.

    The relay agents' rows are one flat field: it is normalized once, as row
    m after the m sensing rows, and copied to the rest."""
    m = len(y)
    log_l = np.zeros((cfg.n_agents, grid.n_cells))
    log_l[:m] = _sensor_log_likelihoods(cfg, layout, y, grid.cells)
    normalize_rows(log_l[: m + 1], grid.cell_volume)
    log_l[m + 1 :] = log_l[m : m + 1]
    return log_l


class _MarginalMotion:
    """Benchmark 1's constant-velocity move of one bank, with the velocity
    integrated out as in a marginalized particle filter.

    The bank's rows are (x, m_x, y, m_y): each particle's position and the
    mean of its velocity given the particle's path. ``var_v`` is the velocity
    variance s, one value for every particle and both axes, because its
    Riccati recursion reads no particle. Per axis, with the process noise
    block Q1 = [[q11, q12], [q12, q22]], a move draws p' from its predictive
    law and conditions v' on it:

        var_p = dt^2 s + q11,  c = dt s + q12,  K = c / var_p,
        e = sqrt(var_p) w,  p <- p + dt m + e,  m <- m + K e,  s <- s + q22 - K c.

    The move after a resample carries the roughening of the copies: s first
    grows by ``rough_vel``^2 and var_p adds ``rough_pos``^2, the law of
    jittering (p, v) by (rough_pos w1, rough_vel w2) before the move. So only
    the position rows take noise, one (2, P) fill per move; ``moved`` is a
    spare (4, P) buffer.
    """

    def __init__(self, dt: float, q1: np.ndarray, rough_pos: float, rough_vel: float, var_v: float) -> None:
        self.dt = dt
        self.q11, self.q12, self.q22 = float(q1[0, 0]), float(q1[0, 1]), float(q1[1, 1])
        self.rough_pos2, self.rough_vel2 = rough_pos**2, rough_vel**2
        self.var_v = var_v

    def __call__(self, bank, noise, moved, resampled: bool) -> None:
        dt = self.dt
        s = self.var_v + (self.rough_vel2 if resampled else 0.0)
        var_p = dt * dt * s + self.q11 + (self.rough_pos2 if resampled else 0.0)
        c = dt * s + self.q12
        gain = c / var_p
        self.var_v = s + self.q22 - gain * c
        step = moved[::2]
        np.multiply(bank[1::2], dt, out=step)
        noise *= math.sqrt(var_p)
        step += noise
        bank[::2] += step
        noise *= gain
        bank[1::2] += noise


def _drift_motion(
    drift: np.ndarray, sigma: float, half_width: float, bank, noise, moved, resampled: bool
) -> None:
    """Move a bank by x <- x + drift + sigma w, clipped to +-half_width, in place;
    formation roughens its resampled banks after weighing, so ``resampled`` is unused."""
    noise *= sigma
    noise += drift[:, None]
    bank += noise
    np.clip(bank, -half_width, half_width, out=bank)


class _BankScheduler:
    """One tick of a stack of (d, P) particle banks, in two phases.

    ``move(motions)`` queues every bank's move, ``motions[b](bank, noise,
    moved, resampled)`` on standard normal noise of the shape of the bank's
    rows ``positions`` (benchmark 1's two position rows, all of a formation
    bank), and starts the pool's threads on the queue, so that the calling
    thread is free for other work until ``weigh(likelihoods)``. That takes
    the moves still queued and waits for the rest, then weighs every bank: it
    adds ``likelihoods[b]`` of the (P, k) particle positions to the log
    weights, normalizes them in place, and when the effective sample size
    falls below half the bank does a systematic resample; the weighted mean
    of every row goes into ``means``. A resample only copies the chosen
    particles and sets ``resampled[b]``, which the bank's next move receives
    and clears; the caller roughens the copies. The calling thread weighs the
    last bank (benchmark 1's reference, the heaviest) first and every thread
    takes the others from one queue. Worker 0 is the calling thread and
    worker w owns ``noise[w]`` and the (d, P) ``moved[w]``, so that a tick
    allocates no bank-sized temporaries. A bank's stream draws its move noise
    before its resample offset, so the results do not depend on which thread
    took which bank; numpy releases the GIL in the bank-sized calls. Weights
    with no finite mass (a NaN or +inf increment, or every particle at -inf)
    raise ``DbfError`` naming the bank.
    """

    def __init__(self, particles, log_w, means, positions, rngs, pool, workers) -> None:
        self.particles, self.log_w, self.means = particles, log_w, means
        self.positions, self.rngs, self.pool = positions, rngs, pool
        self.noise = np.empty((workers,) + particles[:, positions].shape[1:])
        self.moved = np.empty((workers,) + particles.shape[1:])
        self.resampled = [False] * len(particles)

    def move(self, motions: list) -> None:
        self._motions = motions
        self._start(range(len(motions)), self._move)

    def weigh(self, likelihoods: list) -> None:
        self._finish(self._move)
        self._likelihoods = likelihoods
        last = len(likelihoods) - 1
        self._start(range(last), self._weigh)
        self._finish(self._weigh, first=last)

    def _start(self, banks: range, work: Callable[[int, int], None]) -> None:
        self._queue = SimpleQueue()
        for b in banks:
            self._queue.put(b)
        workers = range(1, len(self.moved)) if self.pool is not None else ()
        self._jobs = [self.pool.submit(self._take, self._queue, work, w) for w in workers]

    def _finish(self, work: Callable[[int, int], None], first: int | None = None) -> None:
        try:
            if first is not None:
                work(first, 0)
            self._take(self._queue, work, 0)
        finally:
            # never leave a job writing into the banks after this returns
            wait(self._jobs)
        for job in self._jobs:
            job.result()

    @staticmethod
    def _take(queue: SimpleQueue, work: Callable[[int, int], None], worker: int) -> None:
        while True:
            try:
                b = queue.get_nowait()
            except Empty:
                return
            work(b, worker)

    def _move(self, b: int, worker: int) -> None:
        noise = self.noise[worker]
        self.rngs[b].standard_normal(out=noise)
        self._motions[b](self.particles[b], noise, self.moved[worker], self.resampled[b])
        self.resampled[b] = False

    def _weigh(self, b: int, worker: int) -> None:
        bank, log_w, rng = self.particles[b], self.log_w[b], self.rngs[b]
        count = bank.shape[1]
        log_w += self._likelihoods[b](bank[self.positions].T)
        log_w -= log_w.max()
        w = np.exp(log_w)
        mass = w.sum()
        if not math.isfinite(mass):
            raise DbfError(f"particle bank {b} has weight mass {mass}")
        w /= mass
        log_w -= np.log(mass)
        if 1.0 / (w @ w) < 0.5 * count:
            moved = self.moved[worker]
            np.take(bank, systematic_indices(w, count, rng), axis=1, out=moved)
            np.copyto(bank, moved)
            self.resampled[b] = True
            w[:] = 1.0 / count
            log_w[:] = 0.0
        self.means[b] = bank @ w


@contextmanager
def _bank_workers(particles, log_w, means, positions, rngs) -> Iterator[_BankScheduler]:
    """A ``_BankScheduler`` on the calling thread plus at most one pool thread,
    none when the process may use one CPU; the thread ends with the block."""
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(2, usable)
    with ThreadPoolExecutor(workers - 1) if workers > 1 else nullcontext() as pool:
        yield _BankScheduler(particles, log_w, means, positions, rngs, pool, workers)


def _prior_variance(cfg: BenchmarkConfig, name: str, invertible: bool) -> float:
    """The square of the prior spread ``name``. Raises ConfigInvalid naming
    the field unless it is finite and, for an ``invertible`` prior, its
    inverse, the prior information, is positive and finite too."""
    sigma = getattr(cfg, name)
    var = sigma * sigma
    if not var < math.inf or invertible and not (var > 0.0 and 1.0 / var < math.inf):
        need = f"a positive, finite prior information 1 / {name}^2" if invertible else f"a finite variance {name}^2"
        raise ConfigInvalid(f"{name} must give {need}, got {sigma!r}")
    return var


def run_benchmark_scenario1(cfg: BenchmarkConfig) -> RunMetrics:
    """Density fusion tracking run with range and bearing sensors.

    The fused log fields live on a window of ``grid_cells`` cells at the
    configured cell width, on the lattice of ``region`` extended without
    bound. Each tick the window is re-centred, snapped to whole cells, on the
    network mean of the agents' predicted means (posterior means pushed
    through the motion model), a frame every agent shares and that never
    reads the truth, so the window follows the target when it leaves
    ``region``. Moving the window re-evaluates the previous likelihood on it
    and carries the consensus correction across (``move_fusion_state``).
    """
    var_v = _prior_variance(cfg, "prior_vel_sigma", invertible=False)
    layout = benchmark_layout(cfg)
    truth_m, noise_m = master_trajectory(cfg)
    grid = cfg.position_grid()
    vol = grid.cell_volume
    n = cfg.n_agents
    a = layout.adjacency.values

    f, q = target_dynamics_cv(cfg.dt)
    # bank n is the centralized reference, weighted by every measurement
    rngs = [named_stream(cfg.seed, "pf", i) for i in range(n)]
    rngs.append(named_stream(cfg.seed, "pf-central"))
    x0 = truth_m[0]
    # banks are component major, (bank, row, particle), with rows (x, m_x, y,
    # m_y): positions drawn from the prior, velocity means at x0's velocity;
    # each bank's motion keeps its velocity variance, prior_vel_sigma^2 at first
    particles = np.empty((n + 1, 4, cfg.particles))
    particles[:, 1::2] = x0[1::2, None]
    for bank, rng in zip(particles, rngs):
        bank[::2] = x0[::2, None] + cfg.prior_pos_sigma * rng.standard_normal((2, cfg.particles))
    rough_pos = 0.25 * float(grid.widths.min())
    motions = [_MarginalMotion(cfg.dt, q[:2, :2], rough_pos, 0.1, var_v) for _ in range(n + 1)]
    positions = slice(None, None, 2)
    log_w = np.zeros((n + 1, cfg.particles))
    means = particles.mean(axis=2)

    region_lower = np.array(grid.lower)
    cell_width = grid.widths
    half_window = 0.5 * np.array(grid.points)
    offset = None

    log_u = None
    log_l_prev = None
    y_prev = None
    estimates = np.empty((cfg.steps, n, 2))
    truth_used = np.empty((cfg.steps, 4))
    sq_err, l1 = np.empty((cfg.steps, n)), np.empty((cfg.steps, n))
    c_sq_err = np.empty(cfg.steps)

    with _bank_workers(particles, log_w, means, positions, rngs) as banks:
        for k in range(1, cfg.steps + 1):
            t_idx = k * cfg.stride
            truth_row = truth_m[t_idx]
            truth_used[k - 1] = truth_row
            y = _scenario1_measurements(cfg, layout, truth_row, noise_m[t_idx])

            # re-centre the window, in whole cells, on the network mean of the
            # agents' predicted means; the banks then move on the pool thread
            # while this thread builds the fused fields
            frame = (f @ means[:n].mean(axis=0))[::2]
            banks.move(motions)
            # a frame past int range casts to a far-off window, reported below
            with np.errstate(invalid="ignore"):
                new_offset = np.rint((frame - region_lower) / cell_width - half_window).astype(int)
            if offset is None or (new_offset != offset).any():
                try:
                    grid = cfg.position_grid(tuple(new_offset))
                except ValueError as exc:
                    raise DbfError(f"tick {k}: the window on the agents' mean {frame.tolist()} "
                                   f"leaves float range: {exc}") from None
                if log_l_prev is not None:
                    moved = _scenario1_log_likelihoods(cfg, layout, y_prev, grid)
                    shift = new_offset - offset
                    log_u = move_fusion_state(log_u, log_l_prev, moved, shift, grid.points)
                    log_l_prev = moved
                offset = new_offset

            log_l = _scenario1_log_likelihoods(cfg, layout, y, grid)

            log_u = consensus_update(log_u, log_l, log_l_prev, a, vol)
            log_t = power_rows(log_u, n, vol)
            log_l_prev = log_l
            y_prev = y

            log_joint = normalize_rows(log_l.sum(axis=0), vol)
            l1[k - 1] = l1_rows(log_t, log_joint, vol)

            # particle filters: agents weight by their fused field, the
            # reference by the exact likelihoods of every measurement
            likelihoods = [partial(grid.log_interp, log_t[i]) for i in range(n)]
            likelihoods.append(partial(_joint_log_likelihood, cfg, layout, y))
            banks.weigh(likelihoods)
            est = means[:n, ::2]
            estimates[k - 1] = est
            sq_err[k - 1] = ((est - truth_row[[0, 2]]) ** 2).sum(axis=1)
            c_sq_err[k - 1] = float(((means[n, ::2] - truth_row[[0, 2]]) ** 2).sum())

    # per tick: each agent's sq_err and l1_to_joint, then the reference's sq_err
    width = 2 * n + 1
    ticks = np.repeat(np.arange(1, cfg.steps + 1), width).tolist()
    ids = np.tile(np.append(np.repeat(np.arange(n), 2), -1), cfg.steps).tolist()
    names = (["sq_err", "l1_to_joint"] * n + ["sq_err"]) * cfg.steps
    values = np.column_stack((np.stack((sq_err, l1), axis=-1).reshape(cfg.steps, -1), c_sq_err))
    values = values.ravel().tolist()
    rows = list(zip(ticks, ids, names, values))
    max_l1 = l1.max(axis=1)
    steady = slice(int(math.floor(0.75 * cfg.steps)), cfg.steps)
    summary = {
        "scenario": "benchmark1",
        "dt": cfg.dt,
        "seed": cfg.seed,
        "steps": cfg.steps,
        "steady_state_mse": float(sq_err[steady].mean()),
        "steady_state_mse_central": float(c_sq_err[steady].mean()),
        "max_l1_final_window": float(max_l1[steady].max()),
        "delta_target": cfg.delta_target,
        "observed_kappa": _observed_kappa(max_l1, (1.0 + cfg.eta) * cfg.delta_target),
    }
    return RunMetrics(rows=rows, summary=summary, estimates=estimates, truth=truth_used)


def run_benchmark_scenario2(cfg: BenchmarkConfig) -> RunMetrics:
    """Information-filter tracking run with linear position sensors.

    The agents and, in row n, the centralized filter step as one stack of
    information pairs: each tick is one batched predict, one measurement fill,
    one consensus mix and one batched update. Row n adds the measurement
    pairs to its predicted pair in agent order; it mixes only with itself and
    measures nothing, so its consensus pair stays zero and it keeps every bit
    of ``centralized_info_step``.
    """
    var_pos, var_vel = (_prior_variance(cfg, name, invertible=True) for name in ("prior_pos_sigma", "prior_vel_sigma"))
    if not 1.0 / cfg.r_linear < math.inf:
        raise ConfigInvalid(f"r_linear must give a finite measurement information 1 / r_linear, got {cfg.r_linear!r}")
    layout = benchmark_layout(cfg)
    truth_m, noise_m = master_trajectory(cfg)
    n = cfg.n_agents
    mix = np.eye(n + 1)
    mix[:n, :n] = layout.adjacency.values
    n_sensing = cfg.n_toa + cfg.n_doa

    f, q = target_dynamics_cv(cfg.dt)
    h_pos = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    h = tuple(h_pos if i < n_sensing else None for i in range(n))
    r = tuple(cfg.r_linear * np.eye(2) if i < n_sensing else None for i in range(n))
    model = LinearModel(f=f, q=q, h=h, r=r)

    prior_rng = named_stream(cfg.seed, "prior")
    p0 = np.diag([var_pos, var_vel] * 2)
    x0_hat = truth_m[0] + np.sqrt(np.diag(p0)) * prior_rng.standard_normal(4)
    with np.errstate(over="ignore", invalid="ignore"):
        prior = InfoState.from_moments(x0_hat, p0)
    # rows 0 and 2 of the state are positions, rows 1 and 3 velocities
    infinite = ~(np.isfinite(prior.z) & np.isfinite(prior.Z).all(axis=1))
    if infinite.any():
        name = ("prior_pos_sigma", "prior_vel_sigma")[int(np.argmax(infinite)) % 2]
        raise ConfigInvalid(f"{name} must give a finite prior information vector and matrix, got {getattr(cfg, name)!r}")
    states = InfoState(z=np.tile(prior.z, (n + 1, 1)), Z=np.tile(prior.Z, (n + 1, 1, 1)))
    sqrt_r = math.sqrt(cfg.r_linear)

    truth_used = truth_m[cfg.stride * np.arange(1, cfg.steps + 1)]
    estimates = np.empty((cfg.steps, n, 2))
    sq_err, trace_p = np.empty((cfg.steps, n + 1)), np.empty((cfg.steps, n + 1))
    for k in range(1, cfg.steps + 1):
        t_idx = k * cfg.stride
        truth_xy = truth_m[t_idx, [0, 2]]
        ys = truth_xy + sqrt_r * noise_m[t_idx, :n_sensing]
        i_new, big_i_new = np.zeros((n + 1, 4)), np.zeros((n + 1, 4, 4))
        i_new[:n_sensing], big_i_new[:n_sensing] = info_measurement(ys, model, np.arange(n_sensing))
        pred = info_predict(states, model)
        # axis-0 reductions add row by row, as centralized_info_step does
        pred.z[n] = np.add.reduce(np.concatenate((pred.z[n:], i_new[:n_sensing])))
        pred.Z[n] = np.add.reduce(np.concatenate((pred.Z[n:], big_i_new[:n_sensing])))
        x_hat, p, states = info_update(info_fuse(pred, i_new, big_i_new, mix, k), n)
        estimates[k - 1] = x_hat[:n, ::2]
        sq_err[k - 1] = ((x_hat[:, ::2] - truth_xy) ** 2).sum(axis=1)
        trace_p[k - 1] = np.trace(p, axis1=1, axis2=2)
    finite = np.isfinite(sq_err).all(axis=1) & np.isfinite(trace_p).all(axis=1)
    if not finite.all():
        raise DbfError(f"tick {int(np.argmin(finite)) + 1}: a squared error or covariance trace is not finite")

    ticks = np.repeat(np.arange(1, cfg.steps + 1), 2 * (n + 1)).tolist()
    ids = np.tile(np.repeat([*range(n), -1], 2), cfg.steps).tolist()
    values = np.stack((sq_err, trace_p), axis=-1).ravel().tolist()
    rows = list(zip(ticks, ids, ["sq_err", "trace_p"] * (cfg.steps * (n + 1)), values))
    steady = slice(int(math.floor(0.75 * cfg.steps)), cfg.steps)
    # a contiguous copy sums in the same order as an (steps, n) array would
    mse = float(sq_err[steady, :n].copy().mean())
    mse_c = float(sq_err[steady, n].mean())
    summary = {
        "scenario": "benchmark2",
        "dt": cfg.dt,
        "seed": cfg.seed,
        "steps": cfg.steps,
        "steady_state_mse": mse,
        "steady_state_mse_central": mse_c,
        "mse_gap": abs(mse - mse_c),
    }
    return RunMetrics(rows=rows, summary=summary, estimates=estimates, truth=truth_used)


@dataclass(frozen=True)
class FormationConfig:
    """Configuration of the potential-field formation task."""

    seed: int = 1
    n_agents: int = 4
    apf_gain: float = 0.1
    spacing: float = 1.0
    dt: float = 0.1
    particles: int = 1000
    half_width: float | None = None
    ticks: int = 300
    range_noise: float = 0.05
    self_noise: float = 0.05
    process_noise: float = 0.03
    grid_cells: tuple[int, int] = (128, 128)
    control_cap: float = 5.0
    consensus_reset: int = 10

    def __post_init__(self) -> None:
        _check_types(self)
        if self.n_agents < 3:
            raise ConfigInvalid("formation needs at least three agents")
        if self.apf_gain <= 0 or self.spacing <= 0 or self.dt <= 0:
            raise ConfigInvalid("gain, spacing and dt must be positive")
        if self.particles < 1 or self.ticks < 1:
            raise ConfigInvalid("particles and ticks must be positive")
        if self.range_noise <= 0 or self.self_noise <= 0:
            raise ConfigInvalid("noise scales must be positive")
        if self.process_noise < 0:
            raise ConfigInvalid("process_noise must be nonnegative")
        if self.control_cap <= 0:
            raise ConfigInvalid("control_cap must be positive")
        if self.consensus_reset < 1:
            raise ConfigInvalid("consensus_reset must be at least 1")
        hw = self.n_agents if self.half_width is None else self.half_width
        if hw <= 0:
            raise ConfigInvalid("half_width must be positive")
        if min(_entries("grid_cells", self.grid_cells, 2, int)) < 2:
            raise ConfigInvalid("grid_cells must give at least 2 cells per axis")
        object.__setattr__(self, "half_width", float(hw))
        object.__setattr__(self, "grid_cells", tuple(self.grid_cells))

    @property
    def center_spacing(self) -> float:
        """Distance to the centroid: the circumradius of the regular polygon."""
        return self.spacing / (2.0 * math.cos(math.pi / 2.0 - math.pi / self.n_agents))

    def position_grid(self) -> StateGrid:
        hw = self.half_width
        return StateGrid((-hw, -hw), (hw, hw), self.grid_cells)


def apf_term(target: np.ndarray, own: np.ndarray, dist: float, gain: float) -> np.ndarray:
    """Attractive/repulsive potential term, zero exactly at range ``dist``, over stacks of positions."""
    diff = target - own
    r = np.maximum(np.hypot(diff[..., 0], diff[..., 1]), 1e-9)[..., None]
    return (diff / r) * (gain * r - gain * dist**2 / r)


def _nearest_two(
    positions: np.ndarray,
    previous: list[list[int]] | None = None,
    margin: float = 1.2,
) -> list[list[int]]:
    """Two nearest neighbors per agent, with sticky reselection.

    A currently held neighbor is only displaced when the challenger is
    closer by the full hysteresis margin; without this, near-ties make the
    sensing pairs flicker and each flicker restarts the fused densities.
    """
    n = positions.shape[0]
    out = []
    for i in range(n):
        d = np.hypot(*(positions - positions[i]).T)
        d[i] = np.inf
        ranked = np.argsort(d, kind="stable")
        chosen: list[int] = []
        if previous is not None:
            cutoff = margin * d[ranked[1]]
            chosen = [j for j in previous[i] if d[j] <= cutoff][:2]
        for j in ranked:
            if len(chosen) == 2:
                break
            if int(j) not in chosen:
                chosen.append(int(j))
        out.append(sorted(chosen))
    return out


def _formation_controls(est: np.ndarray, neighbors: list[list[int]], cfg: FormationConfig) -> np.ndarray:
    """Every agent's control as each viewer computes it: entry (i, j) steers
    agent j by its neighbors ``neighbors[j]`` and the centroid, all read from
    viewer i's (n, 2) estimates ``est[i]``, capped at ``control_cap``."""
    u = apf_term(est[:, np.array(neighbors)], est[:, :, None], cfg.spacing, cfg.apf_gain).sum(axis=2)
    u += apf_term(est.mean(axis=1, keepdims=True), est, cfg.center_spacing, cfg.apf_gain)
    speed = np.hypot(u[..., 0], u[..., 1])
    fast = speed > cfg.control_cap
    u[fast] *= (cfg.control_cap / speed[fast])[:, None]
    return u


def run_formation(cfg: FormationConfig) -> RunMetrics:
    """Closed-loop formation with one fusion instance per tracked agent.

    Every agent runs one density fusion chain per agent in the team, fed by
    a noisy fix of its own position and by ranges to its two nearest
    neighbors, and steers with potential terms on the fused estimates.
    """
    n = cfg.n_agents
    grid = cfg.position_grid()
    cells = grid.cells
    vol = grid.cell_volume
    hw = cfg.half_width
    # the self density is inflated so that after the consensus power step it
    # still spans a couple of grid cells; a narrower peak aliases on the grid
    # and drops out whenever the fix jumps to the next cell
    self_sigma = max(cfg.self_noise, 2.0 * float(grid.widths.min()) * math.sqrt(n))
    if not self_sigma * self_sigma < math.inf:
        name = "self_noise" if self_sigma == cfg.self_noise else "half_width"
        raise ConfigInvalid(f"{name} gives a self-fix spread {self_sigma!r} whose square overflows")

    init_rng = named_stream(cfg.seed, "formation-init")
    for _ in range(_START_TRIES):
        pos = init_rng.uniform(-0.45 * hw, 0.45 * hw, (n, 2))
        d = np.hypot(*(pos[:, None, :] - pos[None, :, :]).T).T
        np.fill_diagonal(d, np.inf)
        if d.min() > 0.6 * cfg.spacing:
            break
    else:
        raise ConfigInvalid(
            f"no start positions 0.6 * spacing apart fit in a box 0.9 * half_width wide after {_START_TRIES} draws;"
            f" got spacing {cfg.spacing!r} and half_width {hw!r}"
        )

    meas_rng = named_stream(cfg.seed, "formation-meas")
    # bank i * n + j is agent i's filter of agent j, component major, (bank, axis, particle)
    rngs = [named_stream(cfg.seed, "formation-pf", b) for b in range(n * n)]
    particles = init_rng.uniform(-hw, hw, (n * n, 2, cfg.particles))
    log_w = np.zeros((n * n, cfg.particles))
    means = np.empty((n * n, 2))
    est = means.reshape(n, n, 2)
    diag = np.arange(n)

    log_u = None
    log_l_prev = None
    # entry (i, j): agent i's view of agent j's last control, which its
    # filter of agent j moves with; the diagonal is what the agents applied
    controls = np.zeros((n, n, 2))
    prev_neighbors: list[list[int]] | None = None
    # modest refresh jitter: interpolated scoring has no cell-boundary gaps
    # to cover, so the jitter only needs to restore cloud diversity. It is
    # added right after the resample, not folded into the next move as in
    # benchmark 1, because the controls read the resample tick's jittered means
    rough = np.full(2, 0.25 * float(grid.widths.min()))
    anchor = None

    rows: list = []
    with _bank_workers(particles, log_w, means, slice(None), rngs) as banks:
        for k in range(1, cfg.ticks + 1):
            # predict each instance with the control its target presumably
            # applied; the banks move on the pool thread while this thread
            # builds the fused fields
            banks.move(
                [partial(_drift_motion, cfg.dt * u, cfg.process_noise, hw) for u in controls.reshape(-1, 2)]
            )
            neighbors = _nearest_two(pos, prev_neighbors)
            # agent i ranges its two nearest neighbors; the bridges only carry messages
            sensing = [(i, j) for i in range(n) for j in neighbors[i]]
            viewer, ranged = np.array(sensing).T
            graph = Digraph.undirected(n, _bridge_components(n, list(sensing), pos))
            a = local_degree_weights(graph).values

            y_self = pos + cfg.self_noise * meas_rng.standard_normal((n, 2))
            true_d = np.hypot(*(pos[ranged] - pos[viewer]).T)
            ranges = true_d + cfg.range_noise * meas_rng.standard_normal(len(sensing))

            # the ring center is a plug-in nuisance parameter, so it uses a
            # smoothed fix: raw fixes jump a full noise width between ticks and
            # the jumps enter ring likelihoods with leverage 1/range_noise
            if anchor is None:
                anchor = y_self.copy()
            else:
                anchor += 0.25 * (y_self - anchor)

            log_l = np.zeros((n, n, grid.n_cells))
            log_l[diag, diag] = -0.5 * ((cells - y_self[:, None]) ** 2).sum(axis=-1) / self_sigma**2
            log_l[viewer, ranged] = toa_log_likelihood(cells, anchor[viewer], ranges, cfg.range_noise)
            normalize_rows(log_l, vol)

            # the difference-driven recursion conserves any error field shared by
            # all chains, so a disturbance that slips in uniformly would persist
            # forever; restarting the chains on a short cadence purges it, while
            # the particle clouds carry the posterior across each restart
            if k % cfg.consensus_reset == 1 or cfg.consensus_reset == 1:
                log_l_prev = None
            log_u = consensus_update(log_u, log_l, log_l_prev, a, vol)
            log_t = power_rows(log_u, n, vol)
            log_l_prev = log_l

            banks.weigh([partial(grid.log_interp, row) for row in log_t.reshape(n * n, -1)])
            for b in np.flatnonzero(banks.resampled):
                particles[b] += rough[:, None] * rngs[b].standard_normal(particles.shape[1:])
                means[b] = particles[b] @ np.full(cfg.particles, 1.0 / cfg.particles)

            controls = _formation_controls(est, neighbors, cfg)
            pos = np.clip(pos + cfg.dt * controls[diag, diag], -hw, hw)
            prev_neighbors = neighbors

            for i in range(n):
                rows.append((k, i, "self_sq_err", float(((est[i, i] - pos[i]) ** 2).sum())))

    center = pos.mean(axis=0)
    angles = np.arctan2(pos[:, 1] - center[1], pos[:, 0] - center[0])
    order = np.argsort(angles)
    ring = pos[order]
    sides = np.hypot(*(ring - np.roll(ring, -1, axis=0)).T)
    center_d = np.hypot(*(pos - center).T)
    summary = {
        "scenario": "formation",
        "seed": cfg.seed,
        "n_agents": n,
        "ticks": cfg.ticks,
        "spacing": cfg.spacing,
        "center_spacing": cfg.center_spacing,
        "final_sides": [float(s) for s in sides],
        "final_center_distances": [float(c) for c in center_d],
        "max_side_deviation": float(np.abs(sides - cfg.spacing).max() / cfg.spacing),
        "max_center_deviation": float(
            np.abs(center_d - cfg.center_spacing).max() / cfg.center_spacing
        ),
        "final_positions": [[float(x), float(y)] for x, y in pos],
    }
    return RunMetrics(rows=rows, summary=summary, estimates=est, truth=pos)


@dataclass(frozen=True)
class MultiloopConfig:
    """Configuration of the within-tick repeated fusion mode."""

    seed: int = 1
    n_agents: int = 5
    n_loop: int = 5
    grid_points: int = 64

    def __post_init__(self) -> None:
        _check_types(self)
        if self.n_agents < 2:
            raise ConfigInvalid("need at least two agents")
        if self.n_loop < 1:
            raise ConfigInvalid("n_loop must be at least 1")
        if self.grid_points < 2:
            raise ConfigInvalid("grid_points must be at least 2")


def run_multiloop(cfg: MultiloopConfig) -> RunMetrics:
    """One fusion instant resolved by repeated loops on a random graph."""
    rng = named_stream(cfg.seed, "multiloop")
    grid = StateGrid((-5.0,), (5.0,), (cfg.grid_points,))
    likelihoods = [
        DensityGrid.gaussian(grid, rng.uniform(-2.0, 2.0), [[rng.uniform(0.5, 2.0)]])
        for _ in range(cfg.n_agents)
    ]
    graph = random_connected_graph(cfg.n_agents, rng)
    adjacency = metropolis_weights(graph)
    sigma = second_singular_value(adjacency)
    result = multiloop_fuse(likelihoods, adjacency, cfg.n_loop)
    rows: list = []
    bounds_per_loop = []
    for loop, norm in enumerate(result.error_norms, start=1):
        bound = multiloop_bound(cfg.n_agents, sigma, loop)
        bounds_per_loop.append(bound)
        rows.append((loop, -1, "error_norm", float(norm)))
        rows.append((loop, -1, "error_bound", float(bound)))
    summary = {
        "scenario": "multiloop",
        "seed": cfg.seed,
        "n_agents": cfg.n_agents,
        "n_loop": cfg.n_loop,
        "sigma_a": float(sigma),
        "error_norms": [float(x) for x in result.error_norms],
        "error_bounds": [float(b) for b in bounds_per_loop],
    }
    return RunMetrics(rows=rows, summary=summary)
