"""Convergence and robustness bounds for logarithmic fusion by consensus.

The central trade is between the sampling interval and the steady-state L1
error of every agent's fused estimate against the centralized joint
likelihood. With n agents, window length w = b (n - 1), contraction rate
sigma_m over windows, and likelihood drift rate theta_L per unit time, the
error envelope is

    Xi_k = (sqrt(n) D1 - c) sigma_m^floor((k - 1) / w) + c,
    c    = 2 w sqrt(n) dt theta_L / (1 - sigma_m),

and the per-agent L1 error never exceeds exp(n Xi_k) - 1. Choosing the
sampling interval dt by ``delta_max`` pins the steady value of that envelope
at a chosen delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .density import DensityGrid
from .errors import DomainError, ErrorBudgetExceeded


@dataclass(frozen=True)
class ConvergenceParams:
    """Inputs of the error bounds.

    Args:
        n: number of agents (at least 2).
        b: connectivity period of the schedule.
        theta_l: likelihood drift rate per unit time, positive.
        sigma_m: contraction rate of b(n-1)-windows, in [0, 1).
        delta: target steady-state L1 error, in (0, 2 / (1 + eta)).
        eta: transient overshoot fraction, in (0, 1).
        d1: initial disagreement of the log likelihoods, finite, nonnegative.
        eps_u: per-message multiplicative communication error bound, finite, >= 0.
        eps_l: multiplicative likelihood modeling error bound, finite, >= 0.
    """

    n: int
    b: int
    theta_l: float
    sigma_m: float
    delta: float
    eta: float
    d1: float = 0.0
    eps_u: float = 0.0
    eps_l: float = 0.0

    def __post_init__(self) -> None:
        if int(self.n) != self.n or self.n < 2:
            raise DomainError("n must be an integer of at least 2")
        if int(self.b) != self.b or self.b < 1:
            raise DomainError("b must be a positive integer")
        if not (self.theta_l > 0 and math.isfinite(self.theta_l)):
            raise DomainError("theta_l must be positive and finite")
        if not (0.0 <= self.sigma_m < 1.0):
            raise DomainError("sigma_m must lie in [0, 1)")
        if not (0.0 < self.eta < 1.0):
            raise DomainError("eta must lie in (0, 1)")
        if not (0.0 < self.delta < 2.0 / (1.0 + self.eta)):
            raise DomainError("delta must lie in (0, 2 / (1 + eta))")
        for name in ("d1", "eps_u", "eps_l"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be finite and nonnegative")

    @property
    def window(self) -> int:
        return self.b * (self.n - 1)


def _max_interval(p: ConvergenceParams, window: int) -> float:
    # the sampling interval whose steady envelope, without error budgets, is delta
    rate = 2.0 * window * p.n * math.sqrt(p.n) * p.theta_l
    return (1.0 - p.sigma_m) * math.log(p.delta + 1.0) / rate


def _steady_delta(p: ConvergenceParams, window: int, delta_t: float) -> float:
    # exp(n c) - 1 with the error budgets in the drift; math.inf once it overflows
    if not 0 < delta_t < math.inf:
        raise DomainError(f"delta_t must be positive and finite, got {delta_t!r}")
    drift = delta_t * p.theta_l + 2.0 * p.eps_l + p.eps_u
    c = 2.0 * window * math.sqrt(p.n) * drift / (1.0 - p.sigma_m)
    try:
        return math.expm1(p.n * c)
    except OverflowError:
        return math.inf


def delta_max(p: ConvergenceParams) -> float:
    """Largest sampling interval whose steady-state envelope stays at delta."""
    return _max_interval(p, p.window)


def delta_min(p: ConvergenceParams, delta_t_min: float) -> float:
    """Smallest achievable steady error when dt cannot go below delta_t_min.

    ``steady_state_delta`` without the error budgets, so the inverse of
    ``delta_max`` up to rounding; ``math.inf`` when it overflows.
    """
    return _steady_delta(replace(p, eps_u=0.0, eps_l=0.0), p.window, delta_t_min)


def _kappa(window: int, sigma: float, n: int, delta: float, eta: float, d1: float) -> int:
    threshold = math.log(delta + 1.0) / n**1.5
    if d1 <= threshold:
        return 1
    if sigma == 0.0:
        # one full window wipes the initial disagreement
        return window + 1
    num = math.log(((1.0 + eta) * delta + 1.0) / (delta + 1.0))
    den = n**1.5 * d1 - math.log(delta + 1.0)
    ratio = num / den
    if ratio >= 1.0:
        return 1
    k = math.ceil(window / math.log(sigma) * math.log(ratio)) + 1
    return max(1, int(k))


def kappa(p: ConvergenceParams) -> int:
    """First tick index after which the envelope is within (1 + eta) delta."""
    return _kappa(p.window, p.sigma_m, p.n, p.delta, p.eta, p.d1)


def xi_trajectory(p: ConvergenceParams, delta_t: float, k_max: int) -> np.ndarray:
    """Envelope Xi_k for k = 1 .. k_max at sampling interval delta_t."""
    if not 0 < delta_t < math.inf:
        raise DomainError(f"delta_t must be positive and finite, got {delta_t!r}")
    if k_max < 1:
        raise DomainError("k_max must be at least 1")
    w = p.window
    c = 2.0 * w * math.sqrt(p.n) * delta_t * p.theta_l / (1.0 - p.sigma_m)
    k = np.arange(1, k_max + 1)
    expo = (k - 1) // w
    return (math.sqrt(p.n) * p.d1 - c) * p.sigma_m**expo + c


def l1_envelope(p: ConvergenceParams, delta_t: float, k_max: int) -> np.ndarray:
    """Per-agent L1 error bound exp(n Xi_k) - 1 for k = 1 .. k_max."""
    return np.expm1(p.n * xi_trajectory(p, delta_t, k_max))


def steady_state_delta(p: ConvergenceParams, delta_t: float) -> float:
    """Steady value of the L1 envelope at interval delta_t.

    Includes the communication and modeling error budgets when set, so with
    zero budgets this is the inverse of ``delta_max``. Saturates at
    ``math.inf`` when the envelope overflows a float.
    """
    return _steady_delta(p, p.window, delta_t)


@dataclass(frozen=True)
class StaticBounds:
    delta_t_max: float
    kappa: int
    delta_min: float | None


def static_bounds(p: ConvergenceParams, sigma_a: float, delta_t_min: float | None = None) -> StaticBounds:
    """Bounds for a static graph: window length 1 and rate sigma_a.

    The fixed matrix contracts every tick, so the same formulas apply with
    b (n - 1) replaced by 1 and sigma_m by the matrix's own second singular
    value.
    """
    if not (0.0 <= sigma_a < 1.0):
        raise DomainError("sigma_a must lie in [0, 1)")
    q = replace(p, sigma_m=sigma_a, eps_u=0.0, eps_l=0.0)
    k = _kappa(1, sigma_a, q.n, q.delta, q.eta, q.d1)
    dmin = None if delta_t_min is None else _steady_delta(q, 1, delta_t_min)
    return StaticBounds(delta_t_max=_max_interval(q, 1), kappa=k, delta_min=dmin)


def robust_delta_max(p: ConvergenceParams) -> float:
    """Sampling interval bound with communication and modeling error budgets.

    Subtracts (2 eps_l + eps_u) / theta_l from the noiseless bound; raises
    ErrorBudgetExceeded when the budgets alone exhaust the target delta.
    """
    slack = delta_max(p) - (2.0 * p.eps_l + p.eps_u) / p.theta_l
    if slack <= 0:
        raise ErrorBudgetExceeded(
            "communication and modeling error budgets leave no admissible sampling interval"
        )
    return slack


# the smallest steady error reachable under the error budgets is the steady envelope
robust_delta_min = steady_state_delta


def multiloop_bound(n: int, sigma_a: float, n_loop: int) -> float:
    """L2 bound on the per-agent error vector after n_loop fusion loops."""
    if n < 1:
        raise DomainError("need at least one agent")
    if not (0.0 <= sigma_a <= 1.0):
        raise DomainError("sigma_a must lie in [0, 1]")
    if n_loop < 1:
        raise DomainError("n_loop must be at least 1")
    return sigma_a ** (n_loop - 1) * 2.0 * math.sqrt(n)


def estimate_theta_l(pairs: Sequence[tuple[DensityGrid, DensityGrid]], delta_t: float) -> float:
    """Empirical drift rate: max cell-wise |log L_k - log L_{k-1}| / delta_t."""
    if not 0 < delta_t < math.inf:
        raise DomainError(f"delta_t must be positive and finite, got {delta_t!r}")
    if len(pairs) == 0:
        raise DomainError("need at least one consecutive pair")
    worst = 0.0
    for prev, cur in pairs:
        if prev.grid != cur.grid:
            raise DomainError("pair members live on different grids")
        worst = max(worst, float(np.abs(cur.log_values - prev.log_values).max()))
    return worst / delta_t


def initial_disagreement(likelihoods: Sequence[DensityGrid]) -> float:
    """Initial disagreement D1 = 2 log max over agents and cells of L^l / L^j."""
    if len(likelihoods) == 0:
        raise DomainError("need at least one likelihood")
    logs = np.stack([l.log_values for l in likelihoods])
    return 2.0 * float((logs.max(axis=0) - logs.min(axis=0)).max())
