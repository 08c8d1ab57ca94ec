"""Opinion pools: combining several densities into one.

The logarithmic pool averages the inputs' logs and renormalizes. It is
externally Bayesian: pooling commutes with a shared Bayes update. With uniform
weights it minimizes the summed KL divergence to the inputs, and raising it to
the agent count recovers the product of the inputs (the joint likelihood under
conditional independence).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .density import DensityGrid, _check_same_grid
from .errors import WeightMismatch

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class PoolWeights:
    """Nonnegative weights summing to one."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        w = tuple(float(x) for x in self.weights)
        if len(w) == 0:
            raise ValueError("need at least one weight")
        if any(x < 0 or not np.isfinite(x) for x in w):
            raise ValueError("weights must be finite and nonnegative")
        if abs(sum(w) - 1.0) > _WEIGHT_TOL:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, n: int) -> "PoolWeights":
        return cls(tuple(1.0 / n for _ in range(n)))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.weights)


def _stack(pdfs: Sequence[DensityGrid], w: PoolWeights | None = None) -> np.ndarray:
    if len(pdfs) == 0:
        raise ValueError("need at least one density")
    if w is not None and len(w.weights) != len(pdfs):
        raise WeightMismatch(f"{len(w.weights)} weights for {len(pdfs)} densities")
    _check_same_grid(*pdfs)
    return np.stack([p.log_values for p in pdfs])


def logop(pdfs: Sequence[DensityGrid], w: PoolWeights) -> DensityGrid:
    """Normalized weighted geometric mean of densities (log opinion pool)."""
    logs = _stack(pdfs, w)
    return DensityGrid.from_log(pdfs[0].grid, w.as_array() @ logs)


def kl_pool(pdfs: Sequence[DensityGrid]) -> DensityGrid:
    """The pool minimizing the summed KL divergence to the inputs.

    Equals the log opinion pool with uniform weights 1/N.
    """
    return logop(pdfs, PoolWeights.uniform(len(pdfs)))


def joint_likelihood(pdfs: Sequence[DensityGrid]) -> DensityGrid:
    """Normalized product of the input densities."""
    logs = _stack(pdfs)
    return DensityGrid.from_log(pdfs[0].grid, logs.sum(axis=0))


def bayes_update(prior: DensityGrid, likelihood: DensityGrid) -> DensityGrid:
    """Posterior proportional to prior times likelihood."""
    _check_same_grid(prior, likelihood)
    return DensityGrid.from_log(prior.grid, prior.log_values + likelihood.log_values)
