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
sits on G[j, j], which the subproblem drops.  A job may pin more columns of
G, such as a graph's source, so every regression of a node graph, pilots
included, is a row of one Gram.  The coefficients never leave G's columns:
the fitted direction mu is the row's beta, of length p, exactly 0 at every
pin.  `fit_nodewise_jobs` streams the jobs of one Gram through stacks cut
to `STACK_BUDGET_BYTES`, all at the one resolved config its caller decided
for the design.  `run_inference` makes its targets one stream at the
penalty of p columns; a node graph (`debias.graph_tables`) streams its p
pilots first, then the edges that no pilot already solves, both at the
penalty of p - 1 columns.

Every row resolves its default l1-ball radius, the O(p) `default_radius`
of its b, before its first pass, so every fit reports the radius in force.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import InputError, NumericalError
from .lasso import (
    FitResult,
    SolverConfig,
    corrected_gram,
    fit_corrected_lasso_stack,
    resolve_config,
)

# Bytes of one p-vector per row of a stack, which bounds each (rows, p)
# array of the solver: 1092 rows of 30 columns (every edge of a 30-node
# graph), 109 of 300, 16 of 2000.
STACK_BUDGET_BYTES = 1 << 18


@dataclass(frozen=True)
class NodewiseResult:
    """Direction for one target column.

    `mu` is ``fit.beta``: indexed by the columns of the Gram the regression
    solved on, exactly 0 at the target j and at every column the job left
    out.
    """

    j: int
    mu: np.ndarray
    fit: FitResult


def stack_rows(p: int) -> int:
    """Rows of length p one stack holds, at least 1 (p = 0 counts as 1)."""
    return max(1, STACK_BUDGET_BYTES // (8 * max(p, 1)))


def fit_nodewise(Z: np.ndarray, noise_var: np.ndarray, j: int,
                 cfg: SolverConfig = SolverConfig()) -> NodewiseResult:
    """Corrected-lasso regression of column j on the remaining columns.

    With G = ``corrected_gram(Z, noise_var)``, the subproblem's Gram is the
    (-j, -j) block of G and b = Z_{-j}' z_j / n is G[-j, j].  The penalty
    default matches Step 1 (computed from the full problem size, not the
    subproblem's p - 1); the radius default is the subproblem's own
    `default_radius` up to rounding, resolved before the first pass, so
    ``fit.radius`` is finite unless `cfg` sets ``np.inf``.
    """
    G = corrected_gram(Z, noise_var)
    return next(fit_nodewise_jobs(G, [j], resolve_config(cfg, *np.shape(Z))))


def fit_nodewise_jobs(G: np.ndarray, jobs, cfg: SolverConfig,
                      raise_errors: bool = True
                      ) -> Iterator[NodewiseResult | NumericalError]:
    """Yield the nodewise regression of each job on G, in order.

    G is ``corrected_gram(Z, noise_var)`` of a design Z, and `cfg` the one
    resolved config (see `resolve_config`) of every job, which its design
    decides: the penalty of p columns for a regression's targets, of p - 1
    for a node graph's pilots and edges.  A job is a target column j, or a
    tuple ``(j, *pins)``: z_j regressed, as a row of G with b its column j,
    on the columns other than j and `pins`, which the row pins at 0.  So
    ``fit_nodewise(Z, noise_var, j, cfg)`` is job j, a graph's pilot of
    column t is job t, and its edge (t, k) job ``(t, k)``.  Every row
    resolves its default radius before its first pass, so even a fit that
    never leaves 0 reports it.  Every result is in G's columns.

    The jobs are pulled as needed and go in stacks of `stack_rows(p)` rows;
    a stack is one `fit_corrected_lasso_stack` call, equal to fitting its
    jobs one at a time up to rounding (the same jobs in the same stacks
    give the same bytes).  A job whose solve fails raises its
    error when the iteration reaches it, after every earlier job was
    yielded (with ``raise_errors=False`` that NumericalError is yielded in
    its place); a target out of range raises InputError as its stack is
    formed, and so does, from the stack, a pin out of range or repeated,
    or a config with no penalty.
    """
    p = len(G)
    jobs = iter(jobs)
    while batch := list(islice(jobs, stack_rows(p))):
        b = np.empty((len(batch), p))
        pins = [job if isinstance(job, tuple) else (job,) for job in batch]
        for row, (j, *_) in zip(b, pins):
            # a negative j would index G from the end
            if not 0 <= j < p:
                raise InputError(f"target column {j} out of range for p={p}")
            # column j of G is the subproblem's b once its pins read as 0
            row[:] = G[:, j]
        fits = fit_corrected_lasso_stack(b, G, cfg, pins)
        for pin in pins:
            fit = fits.pop(0)  # let each row be freed once it is consumed
            if isinstance(fit, NumericalError):
                if raise_errors:
                    raise fit
                yield fit
            else:
                yield NodewiseResult(j=int(pin[0]), mu=fit.beta, fit=fit)
