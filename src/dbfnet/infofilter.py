"""Distributed linear-Gaussian filtering in information form.

The density fusion recursion specializes to a Kalman filter on information
pairs when dynamics and sensors are linear with Gaussian noise: the log
opinion pool of Gaussians is a weighted sum of information vectors and
matrices, so consensus runs directly on the measurement information and the
Bayes update is an addition.

Every step also takes a stack of n agents' (n, d) and (n, d, d) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import SingularF, SingularPosterior, SingularR, SingularSum
from .topology import AdjacencyMatrix, _weight_rows


def _t(m: np.ndarray) -> np.ndarray:
    return m.swapaxes(-1, -2)


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + _t(m))


def _mv(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector products over the leading axes."""
    return (m @ v[..., None])[..., 0]


def _checked(op, err: Exception, *operands: np.ndarray) -> np.ndarray:
    """``op(*operands)``, raising ``err`` on LinAlgError; only a failed stack is
    rechecked row by row, so that the message names the first failing row."""
    try:
        return op(*operands)
    except np.linalg.LinAlgError:
        if operands[0].ndim > 2:
            for row, mats in enumerate(zip(*(x.reshape(-1, *x.shape[-2:]) for x in operands))):
                try:
                    op(*mats)
                except np.linalg.LinAlgError:
                    raise type(err)(f"{err} in agent row {row}") from None
        raise err from None


def _spd_inverse(m: np.ndarray, err: Exception) -> np.ndarray:
    chol = _checked(np.linalg.cholesky, err, _sym(m))
    inv = np.linalg.inv(chol)
    return _t(inv) @ inv


@dataclass(frozen=True)
class LinearModel:
    """Linear dynamics x' = F x + w, w ~ N(0, Q), with per-agent sensors.

    ``h[i]`` may be None for an agent without a sensor; its information
    contribution is zero. F must be invertible and Q, R_i symmetric positive
    definite. Construction caches F^{-1}, Q^{-1} and, per sensor, H^T R^{-1}
    (``hr``) and H^T R^{-1} H (``hrh``).
    """

    f: np.ndarray
    q: np.ndarray
    h: tuple
    r: tuple
    f_inv: np.ndarray = field(init=False, repr=False, compare=False)
    q_inv: np.ndarray = field(init=False, repr=False, compare=False)
    hr: tuple = field(init=False, repr=False, compare=False)
    hrh: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        f = np.asarray(self.f, dtype=float)
        q = np.asarray(self.q, dtype=float)
        if f.ndim != 2 or f.shape[0] != f.shape[1]:
            raise ValueError("F must be square")
        if np.linalg.matrix_rank(f) < f.shape[0]:
            raise SingularF("state transition matrix is singular")
        q_inv = _spd_inverse(q, SingularSum("process noise covariance is not SPD"))
        h = tuple(None if hi is None else np.asarray(hi, dtype=float) for hi in self.h)
        r = tuple(None if ri is None else np.asarray(ri, dtype=float) for ri in self.r)
        if len(h) != len(r):
            raise ValueError("need one R per H")
        if any(hi is not None and ri is None for hi, ri in zip(h, r)):
            raise ValueError("sensor without noise covariance")
        r_err = SingularR("measurement noise covariance is not SPD")
        hr = tuple(None if hi is None else hi.T @ _spd_inverse(ri, r_err) for hi, ri in zip(h, r))
        hrh = tuple(None if hri is None else _sym(hri @ hi) for hri, hi in zip(hr, h))
        cached = {"f": f, "q": q, "h": h, "r": r, "f_inv": np.linalg.inv(f), "q_inv": q_inv, "hr": hr, "hrh": hrh}
        for name, value in cached.items():
            object.__setattr__(self, name, value)

    @property
    def n_agents(self) -> int:
        return len(self.h)

    @property
    def dim(self) -> int:
        return self.f.shape[0]


@dataclass(frozen=True)
class InfoState:
    """One agent's information-filter state, or a stack of agents' states.

    ``z``/``Z`` are the information vector and matrix (prior after predict,
    posterior after update); ``u``/``U`` the consensus pair;
    ``i_prev``/``I_prev`` the last measurement information, which the dynamic
    consensus differences against.
    Every pair present has the vectors' shape (d,) or (n, d) and the matching
    (d, d) or (n, d, d) matrices.
    """

    z: np.ndarray
    Z: np.ndarray
    u: np.ndarray | None = None
    U: np.ndarray | None = None
    i_prev: np.ndarray | None = None
    I_prev: np.ndarray | None = None

    def __post_init__(self) -> None:
        shape = np.shape(self.z)
        for v, mat in ((self.z, self.Z), (self.u, self.U), (self.i_prev, self.I_prev)):
            if (v is None) != (mat is None) or v is not None and not (
                shape and np.shape(v) == shape and np.shape(mat) == shape + shape[-1:]
            ):
                raise ValueError("information pairs need (..., d) vectors and (..., d, d) matrices")

    @classmethod
    def from_moments(cls, x0: np.ndarray, p0: np.ndarray) -> "InfoState":
        z_mat = _spd_inverse(np.asarray(p0, dtype=float), SingularPosterior("prior covariance is not SPD"))
        return cls(z=_mv(z_mat, np.asarray(x0, dtype=float)), Z=z_mat)


def info_predict(s: InfoState, m: LinearModel) -> InfoState:
    """Propagate the information pairs through the dynamics.

    M = F^{-T} Z F^{-1}; the predicted pair is (I - M (M + Q^{-1})^{-1})
    applied to M and to F^{-T} z.
    """
    big_m = _sym(_t(m.f_inv) @ s.Z @ m.f_inv)
    gain = _t(_checked(np.linalg.solve, SingularSum("M + Q^{-1} is singular"), big_m + m.q_inv, _t(big_m)))
    shrink = np.eye(m.dim) - gain
    return replace(s, z=_mv(shrink, _mv(_t(m.f_inv), s.z)), Z=_sym(shrink @ big_m))


def info_measurement(y: np.ndarray | None, m: LinearModel, agent: int | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Measurement information pair (H^T R^{-1} y, H^T R^{-1} H).

    ``agent`` is one index, or an index array of agents with sensors and ``y``
    their equal-size measurements row by row for stacked pairs. One agent
    without a sensor or a measurement gets the zero pair, an empty index
    array the empty (0, d) and (0, d, d) pairs.
    """
    if np.size(agent) == 0 or np.ndim(agent) == 0 and (y is None or m.h[agent] is None):
        return np.zeros((*np.shape(agent), m.dim)), np.zeros((*np.shape(agent), m.dim, m.dim))
    rows = np.atleast_1d(agent)
    iv = _mv(np.array([m.hr[i] for i in rows]), np.asarray(y, dtype=float).reshape(rows.size, -1))
    im = np.array([m.hrh[i] for i in rows])
    return iv.reshape(*np.shape(agent), m.dim), im.reshape(*np.shape(agent), m.dim, m.dim)


def info_fuse(
    s: InfoState, i_new: np.ndarray, big_i_new: np.ndarray, received: Sequence | np.ndarray, k: int
) -> InfoState:
    """Dynamic average consensus on measurement information.

    For one agent, ``received`` holds (u_{k-1}^j, U_{k-1}^j, A[i, j]) including
    the agent's own pair. For a stack it is the (n, n) weight matrix A, an
    array or an AdjacencyMatrix, which mixes the stack's own consensus pairs
    of the last tick. At k = 1 the consensus pair is the measurement pair
    itself.
    """
    if k < 1:
        raise ValueError("tick index is 1 based")
    if k == 1:
        u, big_u = i_new, big_i_new
    else:
        stacked = isinstance(received, (np.ndarray, AdjacencyMatrix))
        w = _weight_rows(received if stacked else [[a for _, _, a in received]])
        if s.i_prev is None or s.I_prev is None:
            raise ValueError("previous measurement information missing")
        u_prev = s.u if stacked else np.stack([uj for uj, _, _ in received])
        big_prev = s.U if stacked else np.stack([bj for _, bj, _ in received])
        mix_u = (w @ u_prev).reshape(np.shape(i_new))
        mix_big = (w @ big_prev.reshape(len(big_prev), -1)).reshape(np.shape(big_i_new))
        # associate so that the single-agent case telescopes exactly
        u = i_new + (mix_u - s.i_prev)
        big_u = big_i_new + (mix_big - s.I_prev)
    return replace(s, u=u, U=big_u, i_prev=i_new, I_prev=big_i_new)


def _posterior(z: np.ndarray, z_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(estimate, covariance, symmetrized information matrix) of a posterior pair."""
    z_mat = _sym(z_mat)
    p = _spd_inverse(z_mat, SingularPosterior("posterior information matrix is not invertible"))
    return _mv(p, z), p, z_mat


def info_update(s: InfoState, n_agents: int) -> tuple[np.ndarray, np.ndarray, InfoState]:
    """Add the consensus pair scaled by the agent count; returns (estimate,
    covariance, posterior state)."""
    if s.u is None:
        raise ValueError("fuse before updating")
    z_post = s.z + n_agents * s.u
    x_hat, p, z_mat_post = _posterior(z_post, s.Z + n_agents * s.U)
    return x_hat, p, replace(s, z=z_post, Z=z_mat_post)


def centralized_info_step(
    s: InfoState, m: LinearModel, measurements: Sequence[np.ndarray | None]
) -> tuple[np.ndarray, np.ndarray, InfoState]:
    """Centralized multi-sensor information filter tick: predict, then add the
    measurement information of every agent in agent order."""
    pred = info_predict(s, m)
    z, z_mat = pred.z, pred.Z
    for agent, y in enumerate(measurements):
        if y is not None and m.h[agent] is not None:
            z = z + _mv(m.hr[agent], np.asarray(y, dtype=float))
            z_mat = z_mat + m.hrh[agent]
    x_hat, p, z_mat = _posterior(z, z_mat)
    return x_hat, p, replace(pred, z=z, Z=z_mat)
