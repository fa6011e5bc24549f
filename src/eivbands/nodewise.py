"""Nodewise corrected-lasso regressions.

Step 2 of the inference pipeline regresses each target column of the noisy
design on all the others, with the same measurement-error Gram correction as
Step 1.  The fitted direction mu approximates the j-th column of the inverse
of E[xx'] up to scaling and is what makes the debiased score insensitive to
first-order pilot error.

Every regression is a row of a `fit_corrected_lasso_stack` stack on its
design's one corrected Gram G = ``corrected_gram(Z, noise_var)``, the Gram
the pilot solves on, pinned at its target j: b is column j of G with entry
j read as 0 and beta_j stays 0, so the row solves the (-j, -j) subproblem
on G itself.  Only the regressors' noise variances enter; the target's own
sits on G[j, j], which the subproblem drops.  A job may also name columns
of G that its design leaves out, such as a graph's source: the row pins
them too, so every regression of a node graph is a row of one Gram.
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

# Bytes of one p-vector per row of a stack, which bounds each (rows, p)
# array of the solver: 1092 rows of 30 columns (every edge of a 30-node
# graph), 109 of 300, 16 of 2000.
STACK_BUDGET_BYTES = 1 << 18


@dataclass(frozen=True)
class NodewiseResult:
    """Direction for one target column.

    `mu` lives in the design's p-dimensional coordinate system with mu[j] = 0
    exactly; `fit` is the underlying (p-1)-dimensional solver result.
    """

    j: int
    mu: np.ndarray
    fit: FitResult


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

    `jobs` is an iterable of ``(G, noise_var, n, j)`` or ``(G, noise_var, n,
    j, out)`` with G = ``corrected_gram(Z, noise_var)`` of an n-row design
    Z, pulled one job past the current stack.  `out` names columns of Z
    other than j that the job's design leaves out: the job regresses column
    j on Z without them, with the penalty of that design's width, and its
    result's `j` and `mu` are in that design's coordinates.  Consecutive
    jobs given one Gram object join a stack of at most `stack_rows(p)` rows;
    a new Gram or one row too many starts the next.  A stack is one
    `fit_corrected_lasso_stack` call, bit-identical to fitting its jobs one
    at a time.  A job whose solve fails raises its error when the iteration
    reaches it, after every earlier job was yielded; a job whose target is
    out of range raises when it is pulled.
    """
    batch = []
    for job in jobs:
        G, noise_var, n, j, out = job if len(job) == 5 else (*job, ())
        p = len(G)
        if not 0 <= j < p:
            raise InputError(f"target column {j} out of range for p={p}")
        if batch and (G is not batch[0][0] or len(batch) == stack_rows(p)):
            yield from _solve_batch(batch, cfg)
            batch = []
        batch.append((G, noise_var, n, int(j), tuple(out)))
    if batch:
        yield from _solve_batch(batch, cfg)


def _solve_batch(batch, cfg):
    G = batch[0][0]
    p = len(G)
    b = np.empty((len(batch), p))
    cfgs, floors, pins = [], [], []
    for row, (_, noise_var, n, j, out) in zip(b, batch):
        pin = (j, *out)
        # column j of G without its pinned entries is the subproblem's b
        row[:] = G[:, j]
        row[list(pin)] = 0.0
        cfgs.append(resolve_config(cfg, n, p - len(out), G, row,
                                   defer_radius=True))
        floors.append(radius_floor(G, row, np.delete(noise_var, pin)))
        pins.append(pin)
    fits = fit_corrected_lasso_stack(b, G, cfgs, floors, pins)
    for _, _, _, j, out in batch:
        fit = fits.pop(0)  # let each row be freed once it is consumed
        if isinstance(fit, NumericalError):
            raise fit
        j -= sum(c < j for c in out)  # the design's coordinates
        yield NodewiseResult(j=j, mu=np.insert(fit.beta, j, 0.0), fit=fit)
