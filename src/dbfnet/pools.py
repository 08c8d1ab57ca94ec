"""Opinion pools: combining several densities into one.

The logarithmic pool averages the inputs' logs and renormalizes. It is
externally Bayesian: pooling commutes with a shared Bayes update. With uniform
weights it minimizes the summed KL divergence to the inputs, and raising it to
the agent count recovers the product of the inputs (the joint likelihood under
conditional independence).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .density import DensityGrid, _check_same_grid, consensus_update
from .errors import WeightMismatch
from .topology import _weight_rows


def _stack(pdfs: Sequence[DensityGrid]) -> np.ndarray:
    if len(pdfs) == 0:
        raise ValueError("need at least one density")
    _check_same_grid(*pdfs)
    return np.stack([p.log_values for p in pdfs])


def logop(pdfs: Sequence[DensityGrid], weights: Sequence[float]) -> DensityGrid:
    """Normalized weighted geometric mean of densities (log opinion pool).

    The weights pass the fusion weight rule, and the mix is one fusion step
    with a zero likelihood increment.
    """
    logs = _stack(pdfs)
    if len(weights) != len(pdfs):
        raise WeightMismatch(f"{len(weights)} weights for {len(pdfs)} densities")
    grid = pdfs[0].grid
    zero = np.zeros((1, grid.n_cells))
    mixed = consensus_update(logs, zero, zero, _weight_rows([weights]), grid.cell_volume)
    return DensityGrid.rows(grid, mixed)[0]


def kl_pool(pdfs: Sequence[DensityGrid]) -> DensityGrid:
    """The pool minimizing the summed KL divergence to the inputs.

    Equals the log opinion pool with uniform weights 1/N.
    """
    return logop(pdfs, np.ones(len(pdfs)) / len(pdfs))


def joint_likelihood(pdfs: Sequence[DensityGrid]) -> DensityGrid:
    """Normalized product of the input densities."""
    logs = _stack(pdfs)
    return DensityGrid.from_log(pdfs[0].grid, logs.sum(axis=0))


def bayes_update(prior: DensityGrid, likelihood: DensityGrid) -> DensityGrid:
    """Posterior proportional to prior times likelihood."""
    _check_same_grid(prior, likelihood)
    return DensityGrid.from_log(prior.grid, prior.log_values + likelihood.log_values)
