"""Benchmark scenarios and the formation task.

Scenario 1 tracks a constant-velocity target with range and bearing sensors
through the full density fusion pipeline on a position grid, with a particle
filter carrying each agent's Bayes recursion and one more bank, stepped the
same way, carrying the centralized reference. Scenario 2 swaps the sensors
for linear position sensors and runs the information-filter specialization.
The formation task closes the loop: agents steer with artificial potentials
acting on fused position estimates of one another.

All scenarios replay one master trajectory generated at a fine reference
interval, so runs at different sampling intervals see the same physical
truth and the same measurement noise at shared instants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, NamedTuple

import numpy as np
from scipy.special import logsumexp

from .density import (
    DensityGrid,
    LOG_FLOOR,
    StateGrid,
    l1_rows,
    normalize_rows,
    systematic_indices,
)
from .engine import consensus_update, move_fusion_state, power_rows
from .errors import ConfigInvalid
from .infofilter import (
    InfoState,
    LinearModel,
    centralized_info_step,
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
)

DT_MASTER = 0.01


class MetricsRow(NamedTuple):
    """One line of the metrics table; agent -1 marks the centralized baseline."""

    tick: int
    agent: int
    metric: str
    value: float


def target_dynamics_cv(dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Constant-velocity transition and process noise for state (x, vx, y, vy)."""
    if dt <= 0:
        raise ConfigInvalid("dt must be positive")
    f1 = np.array([[1.0, dt], [0.0, 1.0]])
    q1 = np.array([[dt**3 / 3.0, dt**2 / 2.0], [dt**2 / 2.0, dt]])
    f = np.zeros((4, 4))
    q = np.zeros((4, 4))
    f[:2, :2] = f1
    f[2:, 2:] = f1
    q[:2, :2] = q1
    q[2:, 2:] = q1
    return f, q


def _wrap_angle(a: np.ndarray) -> np.ndarray:
    return np.arctan2(np.sin(a), np.cos(a))


def bearing(dx: np.ndarray, dy: np.ndarray, printed_order: bool = True) -> np.ndarray:
    """Bearing of a displacement; printed order measures from the +y axis."""
    if printed_order:
        return np.arctan2(dx, dy)
    return np.arctan2(dy, dx)


def toa_log_likelihood(
    points: np.ndarray, sensor_pos: np.ndarray, y: float, sigma_r: float
) -> np.ndarray:
    """Unnormalized log likelihood of a range measurement at given points."""
    d = np.hypot(points[:, 0] - sensor_pos[0], points[:, 1] - sensor_pos[1])
    return -0.5 * ((y - d) / sigma_r) ** 2


def doa_log_likelihood(
    points: np.ndarray,
    sensor_pos: np.ndarray,
    y: float,
    sigma_theta: float,
    printed_order: bool = True,
) -> np.ndarray:
    """Unnormalized log likelihood of a bearing measurement at given points."""
    ang = bearing(points[:, 0] - sensor_pos[0], points[:, 1] - sensor_pos[1], printed_order)
    return -0.5 * (_wrap_angle(y - ang) / sigma_theta) ** 2


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
    reset_period: float = 0.0
    doa_printed_order: bool = True
    delta_target: float = 1.0
    eta: float = 0.5
    x0: tuple[float, float, float, float] = (25.0, 1.8, 30.0, 1.5)
    prior_pos_sigma: float = 20.0
    prior_vel_sigma: float = 3.0

    def __post_init__(self) -> None:
        if self.dt <= 0 or self.duration <= 0:
            raise ConfigInvalid("dt and duration must be positive")
        stride = self.dt / DT_MASTER
        if abs(stride - round(stride)) > 1e-9:
            raise ConfigInvalid(f"dt must be a multiple of the master interval {DT_MASTER}")
        if self.n_agents < 1 or self.n_toa < 0 or self.n_doa < 0:
            raise ConfigInvalid("agent counts must be nonnegative")
        if self.n_toa + self.n_doa > self.n_agents:
            raise ConfigInvalid("more sensors than agents")
        if self.particles < 1:
            raise ConfigInvalid("need at least one particle")
        if self.sigma_r <= 0 or self.sigma_theta_deg <= 0 or self.r_linear <= 0:
            raise ConfigInvalid("noise scales must be positive")
        if self.noise_tau < 0:
            raise ConfigInvalid("noise_tau must be nonnegative")
        if self.reset_period < 0:
            raise ConfigInvalid("reset_period must be nonnegative")
        if not (0.0 < self.eta < 1.0 and 0.0 < self.delta_target < 2.0 / (1.0 + self.eta)):
            raise ConfigInvalid("need eta in (0, 1) and delta_target in (0, 2 / (1 + eta))")
        xmin, xmax, ymin, ymax = self.region
        if xmin >= xmax or ymin >= ymax:
            raise ConfigInvalid("region must be a nonempty box")
        if len(self.grid_cells) != 2 or any(c < 2 for c in self.grid_cells):
            raise ConfigInvalid("grid_cells must give at least 2 cells per axis")
        object.__setattr__(self, "grid_cells", tuple(int(c) for c in self.grid_cells))
        object.__setattr__(self, "region", tuple(float(v) for v in self.region))
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))

    @property
    def steps(self) -> int:
        return int(round(self.duration / self.dt))

    @property
    def stride(self) -> int:
        return int(round(self.dt / DT_MASTER))

    @property
    def reset_ticks(self) -> int:
        """Fusion restart cadence in ticks; 0 disables restarts."""
        if self.reset_period <= 0:
            return 0
        return max(1, int(round(self.reset_period / self.dt)))

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
    """Per-tick per-agent metric rows plus run-level summary values."""

    rows: list
    summary: dict
    estimates: np.ndarray | None = field(default=None, repr=False)
    truth: np.ndarray | None = field(default=None, repr=False)


@dataclass(frozen=True)
class Layout:
    positions: np.ndarray
    toa: np.ndarray
    doa: np.ndarray
    graph: Digraph
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
    pairs = []
    for i in range(cfg.n_agents):
        for j in range(i + 1, cfg.n_agents):
            if np.hypot(*(positions[i] - positions[j])) <= cfg.comm_radius:
                pairs.append((i, j))
    pairs = _bridge_components(cfg.n_agents, pairs, positions)
    graph = Digraph.undirected(cfg.n_agents, pairs)
    adjacency = local_degree_weights(graph) if cfg.n_agents > 1 else AdjacencyMatrix(np.eye(1))
    toa = np.arange(0, cfg.n_toa)
    doa = np.arange(cfg.n_toa, cfg.n_toa + cfg.n_doa)
    return Layout(positions=positions, toa=toa, doa=doa, graph=graph, adjacency=adjacency)


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


def _init_particles(cfg: BenchmarkConfig, center: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    p = np.empty((cfg.particles, 4))
    p[:, 0] = center[0] + cfg.prior_pos_sigma * rng.standard_normal(cfg.particles)
    p[:, 1] = center[1] + cfg.prior_vel_sigma * rng.standard_normal(cfg.particles)
    p[:, 2] = center[2] + cfg.prior_pos_sigma * rng.standard_normal(cfg.particles)
    p[:, 3] = center[3] + cfg.prior_vel_sigma * rng.standard_normal(cfg.particles)
    return p


def _ess(log_w: np.ndarray) -> float:
    w = np.exp(log_w - logsumexp(log_w))
    return 1.0 / float((w**2).sum())


def _scenario1_measurements(
    cfg: BenchmarkConfig, layout: Layout, truth_row: np.ndarray, noise_row: np.ndarray
) -> dict:
    out = {}
    pos = truth_row[[0, 2]]
    for i in layout.toa:
        d = float(np.hypot(*(pos - layout.positions[i])))
        out[int(i)] = ("toa", d + cfg.sigma_r * noise_row[i, 0])
    for i in layout.doa:
        ang = float(
            bearing(
                pos[0] - layout.positions[i][0],
                pos[1] - layout.positions[i][1],
                cfg.doa_printed_order,
            )
        )
        out[int(i)] = ("doa", ang + cfg.sigma_theta * noise_row[i, 0])
    return out


def _observed_kappa(max_l1: np.ndarray, threshold: float) -> int | None:
    """First tick index (1 based) after which the series stays below threshold."""
    above = np.flatnonzero(max_l1 > threshold)
    if above.size == 0:
        return 1
    if above[-1] == max_l1.size - 1:
        return None
    return int(above[-1]) + 2


def _measurement_log_likelihoods(
    cfg: BenchmarkConfig, layout: Layout, meas: dict, points: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """Each measuring agent's index and unnormalized log likelihood at (m, 2)
    points, in agent order."""
    for i in sorted(meas):
        kind, y = meas[i]
        if kind == "toa":
            yield i, toa_log_likelihood(points, layout.positions[i], y, cfg.sigma_r)
        else:
            yield i, doa_log_likelihood(
                points, layout.positions[i], y, cfg.sigma_theta, cfg.doa_printed_order
            )


def _joint_log_likelihood(
    cfg: BenchmarkConfig, layout: Layout, meas: dict, points: np.ndarray
) -> np.ndarray:
    """Sum of every measurement's log likelihood at (m, 2) points, added in agent order."""
    total = np.zeros(points.shape[0])
    for _, log_l in _measurement_log_likelihoods(cfg, layout, meas, points):
        total += log_l
    return total


def _scenario1_log_likelihoods(
    cfg: BenchmarkConfig, layout: Layout, meas: dict, grid: StateGrid
) -> np.ndarray:
    """Normalized, floored per-agent log likelihoods on the grid's cells."""
    log_l = np.zeros((cfg.n_agents, grid.n_cells))
    for i, row in _measurement_log_likelihoods(cfg, layout, meas, grid.cells):
        log_l[i] = row
    return normalize_rows(log_l, grid.cell_volume)


def _bank_step(
    bank: np.ndarray,
    log_w: np.ndarray,
    log_likelihood: Callable[[np.ndarray], np.ndarray],
    f: np.ndarray,
    chol: np.ndarray,
    rng: np.random.Generator,
    rough: np.ndarray,
    scratch: np.ndarray,
) -> np.ndarray:
    """One particle filter tick, in place on a (4, P) bank.

    Propagates with process noise, adds ``log_likelihood`` of the (P, 2)
    particle positions to the log weights, and when the effective sample
    size falls below half the bank does a systematic resample with a
    roughening jitter. ``log_w`` is updated in place and the normalized
    weights are returned. ``scratch`` is a (2, 4, P) buffer, so that a tick
    allocates no bank-sized temporaries.
    """
    count = bank.shape[1]
    noise, moved = scratch
    rng.standard_normal(out=noise)
    np.matmul(f, bank, out=moved)
    np.matmul(chol, noise, out=bank)
    bank += moved
    log_w += log_likelihood(bank[::2].T)
    log_w -= log_w.max()
    w = np.exp(log_w)
    mass = w.sum()
    w /= mass
    log_w -= np.log(mass)
    if 1.0 / (w @ w) < 0.5 * count:
        idx = systematic_indices(w, count, rng)
        rng.standard_normal(out=noise)
        noise *= rough[:, None]
        np.take(bank, idx, axis=1, out=moved)
        np.add(moved, noise, out=bank)
        w[:] = 1.0 / count
        log_w[:] = 0.0
    return w


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
    layout = benchmark_layout(cfg)
    truth_m, noise_m = master_trajectory(cfg)
    grid = cfg.position_grid()
    vol = grid.cell_volume
    n = cfg.n_agents
    a = layout.adjacency.values

    f, q = target_dynamics_cv(cfg.dt)
    chol = np.linalg.cholesky(q)

    # bank n is the centralized reference, weighted by every measurement
    rngs = [named_stream(cfg.seed, "pf", i) for i in range(n)]
    rngs.append(named_stream(cfg.seed, "pf-central"))
    x0 = truth_m[0]
    # banks are component major, (bank, state, particle)
    particles = np.stack([_init_particles(cfg, x0, rng).T for rng in rngs])
    log_w = np.zeros((n + 1, cfg.particles))
    means = particles.mean(axis=2)
    scratch = np.empty((2,) + particles.shape[1:])

    rough_pos = 0.25 * float(grid.widths.min())
    rough = np.array([rough_pos, 0.1, rough_pos, 0.1])
    region_lower = np.array(grid.lower)
    cell_width = grid.widths
    half_window = 0.5 * np.array(grid.points)
    offset = None

    log_u = None
    log_l_prev = None
    meas_prev = None
    rows: list = []
    estimates = np.empty((cfg.steps, n, 2))
    truth_used = np.empty((cfg.steps, 4))
    max_l1 = np.empty(cfg.steps)
    sq_err = np.empty((cfg.steps, n))
    c_sq_err = np.empty(cfg.steps)

    for k in range(1, cfg.steps + 1):
        t_idx = k * cfg.stride
        truth_row = truth_m[t_idx]
        truth_used[k - 1] = truth_row
        meas = _scenario1_measurements(cfg, layout, truth_row, noise_m[t_idx])

        # re-centre the window, in whole cells, on the network mean of the
        # agents' predicted means
        frame = (f @ means[:n].mean(axis=0))[::2]
        new_offset = np.rint((frame - region_lower) / cell_width - half_window).astype(int)
        if offset is None or (new_offset != offset).any():
            grid = cfg.position_grid(tuple(new_offset))
            if log_l_prev is not None:
                moved = _scenario1_log_likelihoods(cfg, layout, meas_prev, grid)
                shift = new_offset - offset
                log_u = move_fusion_state(log_u, log_l_prev, moved, shift, grid.points)
                log_l_prev = moved
            offset = new_offset

        log_l = _scenario1_log_likelihoods(cfg, layout, meas, grid)

        # restart the fusion chains on a fixed wall-clock cadence: the
        # difference-driven recursion cannot shed an error component shared
        # by every agent, so accumulated drift is purged periodically while
        # the particle filters carry the posterior across each restart
        if cfg.reset_ticks and (k - 1) % cfg.reset_ticks == 0:
            log_l_prev = None
        log_u = consensus_update(log_u, log_l, log_l_prev, a, vol)
        log_t = power_rows(log_u, n, vol)
        log_l_prev = log_l
        meas_prev = meas

        log_joint = normalize_rows(log_l.sum(axis=0), vol)
        l1 = l1_rows(log_t, log_joint, vol)
        max_l1[k - 1] = l1.max()

        # particle filters, one bank at a time so that its arrays stay in cache:
        # agents weight by their fused field, the reference by the exact
        # likelihoods of every measurement
        likelihoods = [partial(grid.log_interp, log_t[i]) for i in range(n)]
        likelihoods.append(partial(_joint_log_likelihood, cfg, layout, meas))
        for b, log_likelihood in enumerate(likelihoods):
            w = _bank_step(particles[b], log_w[b], log_likelihood, f, chol, rngs[b], rough, scratch)
            means[b] = particles[b] @ w
        est = means[:n, ::2]
        estimates[k - 1] = est
        sq_err[k - 1] = ((est - truth_row[[0, 2]]) ** 2).sum(axis=1)
        c_sq_err[k - 1] = float(((means[n, ::2] - truth_row[[0, 2]]) ** 2).sum())

        for i in range(n):
            rows.append((k, i, "sq_err", float(sq_err[k - 1, i])))
            rows.append((k, i, "l1_to_joint", float(l1[i])))
        rows.append((k, -1, "sq_err", c_sq_err[k - 1]))

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

    The agents step as one stack of information pairs: each tick is one
    batched predict, one measurement fill for the sensing rows, one consensus
    mix and one batched update.
    """
    layout = benchmark_layout(cfg)
    truth_m, noise_m = master_trajectory(cfg)
    n = cfg.n_agents
    a = layout.adjacency.values
    n_sensing = cfg.n_toa + cfg.n_doa

    f, q = target_dynamics_cv(cfg.dt)
    h_pos = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    h = tuple(h_pos if i < n_sensing else None for i in range(n))
    r = tuple(cfg.r_linear * np.eye(2) if i < n_sensing else None for i in range(n))
    model = LinearModel(f=f, q=q, h=h, r=r)

    prior_rng = named_stream(cfg.seed, "prior")
    p0 = np.diag([cfg.prior_pos_sigma**2, cfg.prior_vel_sigma**2] * 2)
    x0_hat = truth_m[0] + np.sqrt(np.diag(p0)) * prior_rng.standard_normal(4)
    central = InfoState.from_moments(x0_hat, p0)
    states = InfoState(z=np.tile(central.z, (n, 1)), Z=np.tile(central.Z, (n, 1, 1)))
    sqrt_r = math.sqrt(cfg.r_linear)

    truth_used = truth_m[cfg.stride * np.arange(1, cfg.steps + 1)]
    estimates = np.empty((cfg.steps, n, 2))
    sq_err = np.empty((cfg.steps, n))
    c_sq_err = np.empty(cfg.steps)
    rows = []
    for k in range(1, cfg.steps + 1):
        t_idx = k * cfg.stride
        truth_xy = truth_m[t_idx, [0, 2]]
        ys = truth_xy + sqrt_r * noise_m[t_idx, :n_sensing]
        i_new, big_i_new = np.zeros((n, 4)), np.zeros((n, 4, 4))
        i_new[:n_sensing], big_i_new[:n_sensing] = info_measurement(ys, model, np.arange(n_sensing))
        fused = info_fuse(info_predict(states, model), i_new, big_i_new, a, k, n)
        x_hat, p, states = info_update(fused)
        estimates[k - 1] = x_hat[:, ::2]
        sq_err[k - 1] = ((estimates[k - 1] - truth_xy) ** 2).sum(axis=1)
        tr = np.trace(p, axis1=1, axis2=2).tolist()
        for i, e in enumerate(sq_err[k - 1].tolist()):
            rows += ((k, i, "sq_err", e), (k, i, "trace_p", tr[i]))
        c_x, c_p, central = centralized_info_step(central, model, ys)
        c_sq_err[k - 1] = ((c_x[::2] - truth_xy) ** 2).sum()
        rows += ((k, -1, "sq_err", float(c_sq_err[k - 1])), (k, -1, "trace_p", float(np.trace(c_p))))

    steady = slice(int(math.floor(0.75 * cfg.steps)), cfg.steps)
    mse = float(sq_err[steady].mean())
    mse_c = float(c_sq_err[steady].mean())
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
    warmup: int = 0
    consensus_reset: int = 10

    def __post_init__(self) -> None:
        if self.n_agents < 3:
            raise ConfigInvalid("formation needs at least three agents")
        if self.apf_gain <= 0 or self.spacing <= 0 or self.dt <= 0:
            raise ConfigInvalid("gain, spacing and dt must be positive")
        if self.particles < 1 or self.ticks < 1:
            raise ConfigInvalid("particles and ticks must be positive")
        if self.range_noise <= 0 or self.self_noise <= 0:
            raise ConfigInvalid("noise scales must be positive")
        if self.warmup < 0 or self.warmup >= self.ticks:
            raise ConfigInvalid("warmup must be shorter than the run")
        if self.consensus_reset < 1:
            raise ConfigInvalid("consensus_reset must be at least 1")
        hw = self.n_agents if self.half_width is None else self.half_width
        if hw <= 0:
            raise ConfigInvalid("half_width must be positive")
        object.__setattr__(self, "half_width", float(hw))
        object.__setattr__(self, "grid_cells", tuple(int(c) for c in self.grid_cells))

    @property
    def center_spacing(self) -> float:
        """Distance to the centroid: the circumradius of the regular polygon."""
        return self.spacing / (2.0 * math.cos(math.pi / 2.0 - math.pi / self.n_agents))

    def position_grid(self) -> StateGrid:
        hw = self.half_width
        return StateGrid((-hw, -hw), (hw, hw), self.grid_cells)


def apf_term(target: np.ndarray, own: np.ndarray, dist: float, gain: float) -> np.ndarray:
    """Attractive/repulsive potential term, zero exactly at range ``dist``."""
    diff = target - own
    r = max(float(np.hypot(*diff)), 1e-9)
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


def _formation_control(
    est: np.ndarray, i: int, neighbors: list[int], cfg: FormationConfig
) -> np.ndarray:
    own = est[i]
    u = np.zeros(2)
    for j in neighbors:
        u += apf_term(est[j], own, cfg.spacing, cfg.apf_gain)
    cm = est.mean(axis=0)
    u += apf_term(cm, own, cfg.center_spacing, cfg.apf_gain)
    speed = float(np.hypot(*u))
    if speed > cfg.control_cap:
        u *= cfg.control_cap / speed
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

    init_rng = named_stream(cfg.seed, "formation-init")
    while True:
        pos = init_rng.uniform(-0.45 * hw, 0.45 * hw, (n, 2))
        d = np.hypot(*(pos[:, None, :] - pos[None, :, :]).T).T
        np.fill_diagonal(d, np.inf)
        if d.min() > 0.6 * cfg.spacing:
            break

    meas_rng = named_stream(cfg.seed, "formation-meas")
    pf_rng = named_stream(cfg.seed, "formation-pf")
    particles = init_rng.uniform(-hw, hw, (n, n, cfg.particles, 2))
    log_w = np.zeros((n, n, cfg.particles))
    est = np.zeros((n, n, 2))
    for i in range(n):
        for j in range(n):
            est[i, j] = particles[i, j].mean(axis=0)

    log_u = np.zeros((n, n, grid.n_cells))
    log_l_prev = None
    prev_controls = np.zeros((n, 2))
    prev_neighbors: list[list[int]] | None = None
    # modest refresh jitter: interpolated scoring has no cell-boundary gaps
    # to cover, so the jitter only needs to restore cloud diversity
    rough = 0.25 * float(grid.widths.min())
    # the self density is inflated so that after the consensus power step it
    # still spans a couple of grid cells; a narrower peak aliases on the grid
    # and drops out whenever the fix jumps to the next cell
    self_sigma = max(cfg.self_noise, 2.0 * float(grid.widths.min()) * math.sqrt(n))
    anchor = None

    rows: list = []
    self_err = np.empty((cfg.ticks, n))

    for k in range(1, cfg.ticks + 1):
        neighbors = _nearest_two(pos, prev_neighbors)
        pairs = []
        for i in range(n):
            for j in neighbors[i]:
                pairs.append((i, j))
        pairs = _bridge_components(n, pairs, pos)
        graph = Digraph.undirected(n, pairs)
        a = local_degree_weights(graph).values

        y_self = pos + cfg.self_noise * meas_rng.standard_normal((n, 2))
        ranges = {}
        for i in range(n):
            for j in neighbors[i]:
                true_d = float(np.hypot(*(pos[j] - pos[i])))
                ranges[(i, j)] = true_d + cfg.range_noise * meas_rng.standard_normal()

        # the ring center is a plug-in nuisance parameter, so it uses a
        # smoothed fix: raw fixes jump a full noise width between ticks and
        # the jumps enter ring likelihoods with leverage 1/range_noise
        if anchor is None:
            anchor = y_self.copy()
        else:
            anchor += 0.25 * (y_self - anchor)

        # rings join only once the self fixes have localized every bank and
        # the assembly motion has slowed; rings fired into a still-moving
        # swarm restart the fused densities faster than consensus can track
        log_l = np.zeros((n, n, grid.n_cells))
        for i in range(n):
            for j in range(n):
                if j == i:
                    diff = cells - y_self[i]
                    log_l[i, j] = -0.5 * (diff**2).sum(axis=1) / self_sigma**2
                elif k > cfg.warmup and j in neighbors[i]:
                    log_l[i, j] = toa_log_likelihood(
                        cells, anchor[i], ranges[(i, j)], cfg.range_noise
                    )
        log_l -= logsumexp(log_l, axis=2, keepdims=True) + np.log(vol)
        np.maximum(log_l, LOG_FLOOR, out=log_l)

        # the difference-driven recursion conserves any error field shared by
        # all chains, so a disturbance that slips in uniformly would persist
        # forever; restarting the chains on a short cadence purges it, while
        # the particle clouds carry the posterior across each restart
        if k % cfg.consensus_reset == 1 or cfg.consensus_reset == 1:
            raw = log_l.copy()
        else:
            raw = np.tensordot(a, log_u, axes=([1], [0])) + (log_l - log_l_prev)
        raw -= logsumexp(raw, axis=2, keepdims=True) + np.log(vol)
        np.maximum(raw, LOG_FLOOR, out=raw)
        log_u = raw
        log_t = n * log_u
        log_t -= logsumexp(log_t, axis=2, keepdims=True) + np.log(vol)
        np.maximum(log_t, LOG_FLOOR, out=log_t)
        log_l_prev = log_l

        # predict each instance with the control its target presumably applied
        for i in range(n):
            for j in range(n):
                if k == 1:
                    drift = np.zeros(2)
                elif j == i:
                    drift = cfg.dt * prev_controls[i]
                else:
                    drift = cfg.dt * _formation_control(est[i], j, prev_neighbors[j], cfg)
                particles[i, j] += drift + cfg.process_noise * pf_rng.standard_normal(
                    (cfg.particles, 2)
                )
        np.clip(particles, -hw, hw, out=particles)

        for i in range(n):
            for j in range(n):
                log_w[i, j] += grid.log_interp(log_t[i, j], particles[i, j])
        for i in range(n):
            for j in range(n):
                lw = log_w[i, j] - logsumexp(log_w[i, j])
                log_w[i, j] = lw
                if _ess(lw) < 0.5 * cfg.particles:
                    w = np.exp(lw - lw.max())
                    idx = systematic_indices(w, cfg.particles, pf_rng)
                    particles[i, j] = particles[i, j][idx]
                    particles[i, j] += rough * pf_rng.standard_normal((cfg.particles, 2))
                    log_w[i, j] = np.zeros(cfg.particles)
        w_all = np.exp(log_w - logsumexp(log_w, axis=2, keepdims=True))
        est = np.einsum("ijp,ijpd->ijd", w_all, particles)

        controls = np.empty((n, 2))
        for i in range(n):
            controls[i] = _formation_control(est[i], i, neighbors[i], cfg)
        pos = np.clip(pos + cfg.dt * controls, -hw, hw)
        prev_controls = controls
        prev_neighbors = neighbors

        for i in range(n):
            self_err[k - 1, i] = float(((est[i, i] - pos[i]) ** 2).sum())
            rows.append((k, i, "self_sq_err", self_err[k - 1, i]))

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
        if self.n_agents < 2:
            raise ConfigInvalid("need at least two agents")
        if self.n_loop < 1:
            raise ConfigInvalid("n_loop must be at least 1")
        if self.grid_points < 2:
            raise ConfigInvalid("grid_points must be at least 2")


def run_multiloop(cfg: MultiloopConfig) -> RunMetrics:
    """One fusion instant resolved by repeated loops on a random graph."""
    from .bounds import multiloop_bound
    from .engine import multiloop_fuse
    from .topology import second_singular_value

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
