"""Nodewise corrected-lasso regressions.

Step 2 of the inference pipeline regresses each target column of the noisy
design on all the others, with the same measurement-error Gram correction as
Step 1.  The fitted direction mu approximates the j-th column of the inverse
of E[xx'] up to scaling and is what makes the debiased score insensitive to
first-order pilot error.

Every regression is a row, pinned at its target j, of a
`fit_corrected_lasso_stack` stack on its design's corrected Gram G =
``corrected_gram(Z, noise_var)``, the Gram the pilot solves on: b is column
j of G with entry j read as 0 and beta_j stays 0, so the row solves the
(-j, -j) subproblem on G itself.  Only the regressors' noise variances
enter; the target's own sits on G[j, j], which the subproblem drops.
`fit_nodewise_jobs` cuts the stacks to `STACK_BUDGET_BYTES`.

A default l1-ball radius is deferred: each row carries the one-matvec
`radius_floor` instead of the eigendecomposition behind `default_radius`,
and the solver slices the subproblem's Gram to resolve the radius only if
a candidate's l1 norm exceeds that floor.  The fitted direction is the
same either way; a fit whose radius was never needed reports
``fit.radius == inf``.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .lasso import (
    FitResult,
    SolverConfig,
    corrected_gram,
    fit_corrected_lasso_stack,
    radius_floor,
    resolve_config,
)

# Bytes of the distinct Grams of one stack (38 of 29 columns, 2 of 120, 1 of
# 300) and of one p-vector per row, which bounds each (rows, p) array of the
# solver (1129 rows of 29 columns, 109 of 300, 16 of 2000).
STACK_BUDGET_BYTES = 1 << 18


@dataclass(frozen=True)
class NodewiseResult:
    """Direction for one target column.

    `mu` lives in the full p-dimensional coordinate system with mu[j] = 0
    exactly; `fit` is the underlying (p-1)-dimensional solver result.
    """

    j: int
    mu: np.ndarray
    fit: FitResult


def stack_size(p: int) -> int:
    """Distinct p x p Grams one stack holds, at least 1."""
    return max(1, STACK_BUDGET_BYTES // (8 * p * p))


def stack_rows(p: int) -> int:
    """Rows of length p one stack holds, at least 1."""
    return max(1, STACK_BUDGET_BYTES // (8 * p))


def fit_nodewise(Z: np.ndarray, noise_var: np.ndarray, j: int,
                 cfg: SolverConfig = SolverConfig()) -> NodewiseResult:
    """Corrected-lasso regression of column j on the remaining columns.

    With G = ``corrected_gram(Z, noise_var)``, the subproblem's Gram is the
    (-j, -j) block of G and b = Z_{-j}' z_j / n is G[-j, j].  The penalty
    default matches Step 1 (computed from the full problem size, not the
    subproblem's p - 1); the radius default is the subproblem's own ridge
    rule, deferred until a solver candidate can reach it (``fit.radius`` is
    inf if none could).
    """
    G = corrected_gram(Z, noise_var)
    return next(fit_nodewise_jobs([(G, noise_var, np.shape(Z)[0], j)], cfg))


def fit_nodewise_jobs(jobs, cfg: SolverConfig = SolverConfig()
                      ) -> Iterator[NodewiseResult]:
    """Yield ``fit_nodewise(Z, noise_var, j, cfg)`` for each job in order.

    `jobs` is an iterable of ``(G, noise_var, n, j)`` with G =
    ``corrected_gram(Z, noise_var)`` of an n-row design Z, pulled one job
    past the current stack.  Consecutive jobs whose Grams have one size p
    join a stack of at most `stack_size(p)` distinct Grams and
    `stack_rows(p)` jobs, and consecutive jobs given one Gram object share
    it; a change of size, one Gram or one row too many starts the next.  A
    stack is one `fit_corrected_lasso_stack` call, bit-identical to fitting
    its jobs one at a time.  A job whose solve fails raises its error when
    the iteration reaches it, after every earlier job was yielded; an
    invalid job raises when it is pulled.
    """
    batch, grams = [], []
    for G, noise_var, n, j in jobs:
        p = len(G)
        if not 0 <= j < p:
            raise InputError(f"target column {j} out of range for p={p}")
        shared = bool(grams) and G is grams[-1]
        if batch and (G.shape != grams[0].shape or len(batch) == stack_rows(p)
                      or not shared and len(grams) == stack_size(p)):
            yield from _solve_batch(batch, grams, cfg)
            batch, grams, shared = [], [], False
        if not shared:
            grams.append(G)
        batch.append((len(grams) - 1, noise_var, n, int(j)))
    if batch:
        yield from _solve_batch(batch, grams, cfg)


def _solve_batch(batch, grams, cfg):
    b = np.empty((len(batch), len(grams[0])))
    cfgs, floors = [], []
    for row, (g, noise_var, n, j) in zip(b, batch):
        G = grams[g]
        # column j of G without its entry j is the subproblem's b
        row[:] = G[:, j]
        row[j] = 0.0
        cfgs.append(resolve_config(cfg, n, len(G), G, row, defer_radius=True))
        floors.append(radius_floor(G, row, np.delete(noise_var, j)))
    fits = fit_corrected_lasso_stack(b, grams, cfgs, floors,
                                     pin=[job[3] for job in batch],
                                     gram=[job[0] for job in batch])
    for _, _, _, j in batch:
        fit = fits.pop(0)  # let each row be freed once it is consumed
        if isinstance(fit, NumericalError):
            raise fit
        yield NodewiseResult(j=j, mu=np.insert(fit.beta, j, 0.0), fit=fit)
