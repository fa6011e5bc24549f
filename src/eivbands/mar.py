"""Effective noise model for covariates missing at random.

When design cells vanish independently with probability pi, zero-filling the
missing cells and rescaling by 1/(1 - pi) turns the observed matrix into an
unbiased-but-noisy design whose effective measurement noise has a diagonal
covariance that is estimable from the data itself:

    pi_hat      = fraction of missing cells
    z           = z_tilde / (1 - pi_hat)
    noise_var_j = mean_i(z_tilde_ij^2) * pi_hat / (1 - pi_hat)^2

The influence scores are the per-observation linear representation of each
noise_var_j and are what the bootstrap needs to account for the extra
variability of the estimated noise variances:

    influence_ij = (z_tilde_ij^2 - mean_i(z_tilde_ij^2)) * pi_hat / (1 - pi_hat)^2

Columns of `influence` have empirical mean zero by construction.  `estimate`
is the one function: it squares z_tilde once, and its column means of squares
serve both noise_var and the influence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .lasso import Dataset


@dataclass(frozen=True)
class MarEstimate:
    """Resolved missing-at-random noise model.

    design is the zero-filled, 1/(1 - miss_prob)-rescaled matrix the
    downstream pipeline treats as the observed noisy design.
    """

    miss_prob: float
    design: np.ndarray
    noise_var: np.ndarray
    influence: np.ndarray


def estimate(data: Dataset) -> MarEstimate:
    """Resolve the full missing-at-random noise model for a masked dataset."""
    if data.mask is None:
        raise InputError("missing-at-random mode requires an observation mask")
    pi_hat = 1.0 - float(np.count_nonzero(data.mask)) / data.mask.size
    if pi_hat >= 1.0:
        raise InputError("every design cell is missing")
    z_tilde = np.where(data.mask, data.Z, 0.0)
    sq = z_tilde ** 2
    second = sq.mean(axis=0)
    scale = pi_hat / (1.0 - pi_hat) ** 2
    return MarEstimate(
        miss_prob=pi_hat,
        design=z_tilde / (1.0 - pi_hat),
        noise_var=second * scale,
        influence=(sq - second) * scale,
    )
