"""Nodewise corrected-lasso regressions.

Step 2 of the inference pipeline regresses each target column of the noisy
design on all the others, with the same measurement-error Gram correction as
Step 1.  The fitted direction mu approximates the j-th column of the inverse
of E[xx'] up to scaling and is what makes the debiased score insensitive to
first-order pilot error.

The regression of column j is read off the design's corrected Gram G =
``corrected_gram(Z, noise_var)``: its Gram is the (-j, -j) block of G and b
is column j of G without row j, so the Gram the pilot solves on serves every
target and no subproblem copies the design.  Only the noise variances of
the regressor columns enter the subproblem; the target column's own noise
variance sits on the diagonal entry G[j, j], which the subproblem drops.

Many targets can be fitted as stacks (`fit_nodewise_jobs`), which solve
same-size subproblems in lockstep and return exactly what `fit_nodewise`
returns one target at a time.  A job is ``(G, noise_var, n, j)``.  The jobs
of a stack need not share a Gram, only its size: the node graph feeds the
edge regressions of consecutive sources into one job stream, so at p = 30
its 870 edges go in 6 stacks instead of 30.  Stacking pays off only while
the subproblems are small enough for per-call overhead to dominate, so a
stack holds `stack_size(p)` rows, which stacks only when at least
`STACK_MIN` subproblem Grams fit in `STACK_BUDGET_BYTES`.

A default l1-ball radius is deferred: each subproblem computes the one-matvec
`radius_floor` instead of the eigendecomposition behind `default_radius`,
and the solver resolves the radius only if a candidate's l1 norm exceeds
that floor.  The fitted direction is the same either way; a fit whose
radius was never needed reports ``fit.radius == inf``.
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
    default_penalty,
    fit_corrected_lasso,
    fit_corrected_lasso_stack,
    radius_floor,
    resolve_config,
)

# Bytes of subproblem Grams one stack may hold, and the fewest subproblems
# worth stacking.  At 1 MiB a stack holds 8 or more Grams up to p = 129
# columns; wider designs solve one target at a time, where stacking measured
# slower per problem.
STACK_BUDGET_BYTES = 1 << 20
STACK_MIN = 8


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
    """Targets of a p-column design to fit per stack; 1 means one at a time."""
    if p < 2:
        return 1
    fits = STACK_BUDGET_BYTES // (8 * (p - 1) ** 2)
    return fits if fits >= STACK_MIN else 1


def _checked(G, noise_var, n, j):
    p = G.shape[0]
    if p < 1:
        raise InputError("nodewise regression needs at least 1 column")
    if not 0 <= j < p:
        raise InputError(f"target column {j} out of range for p={p}")
    return G, np.asarray(noise_var, dtype=np.float64), n, int(j)


def _subproblem(G, noise_var, n, j, cfg):
    """Column mask, b, corrected Gram, config and radius floor for target j.

    The subproblem's Gram is the (-j, -j) block of the design's Gram and b
    its column j.  A default radius is left unresolved for the solver to
    resolve past the floor.
    """
    p = G.shape[0]
    keep = np.arange(p) != j
    Gm = G[np.ix_(keep, keep)]
    b = G[keep, j]
    cfg = resolve_config(cfg, n, p, Gm, b, defer_radius=True)
    return keep, b, Gm, cfg, radius_floor(Gm, b, noise_var[keep])


def _direction(j, keep, fit):
    mu = np.zeros(keep.shape[0])
    mu[keep] = fit.beta
    return NodewiseResult(j=j, mu=mu, fit=fit)


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
    ``corrected_gram(Z, noise_var)`` of an n-row design Z, pulled only as
    far as the current stack needs.  Consecutive jobs whose Grams have the
    same size p join one stack of up to `stack_size(p)` rows, even when
    they come from different designs; a change of size starts a new stack.
    A stack is solved as one `fit_corrected_lasso_stack` call and a stack of
    one as one `fit_corrected_lasso` call, so the results are bit-identical
    to fitting the jobs one at a time.  A job whose solve fails raises its
    error when the iteration reaches it, after every earlier job was
    yielded; an invalid job raises when it is pulled.
    """
    batch = []
    for job in jobs:
        job = _checked(*job)
        p = job[0].shape[0]
        if batch and p != batch[0][0].shape[0]:
            yield from _solve_batch(batch, cfg)
            batch = []
        batch.append(job)
        if len(batch) == stack_size(p):
            yield from _solve_batch(batch, cfg)
            batch = []
    if batch:
        yield from _solve_batch(batch, cfg)


def _fit_one(G, noise_var, n, j, cfg):
    p = G.shape[0]
    if p == 1:
        # nothing to regress on; the projection direction is empty
        empty = FitResult(beta=np.zeros(0), objective=0.0, iterations=0,
                          converged=True, kkt_residual=0.0,
                          penalty=default_penalty(n, p) * cfg.penalty_scale,
                          radius=0.0, objective_trace=np.zeros(1))
        return NodewiseResult(j=j, mu=np.zeros(1), fit=empty)
    keep, b, Gm, cfg, floor = _subproblem(G, noise_var, n, j, cfg)
    return _direction(j, keep, fit_corrected_lasso(b, Gm, cfg, floor))


def _solve_batch(batch, cfg):
    if len(batch) == 1:
        yield _fit_one(*batch[0], cfg)
        return
    # fill the stack in place, so one stack and one subproblem are alive
    m = batch[0][0].shape[0] - 1
    b = np.empty((len(batch), m))
    G = np.empty((len(batch), m, m))
    keeps, cfgs, floors = [], [], []
    for i, job in enumerate(batch):
        keep, b[i], G[i], row_cfg, floor = _subproblem(*job, cfg)
        keeps.append(keep)
        cfgs.append(row_cfg)
        floors.append(floor)
    fits = fit_corrected_lasso_stack(b, G, cfgs, floors)
    for job, keep, fit in zip(batch, keeps, fits):
        if isinstance(fit, NumericalError):
            raise fit
        yield _direction(job[3], keep, fit)
