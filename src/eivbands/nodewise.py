"""Nodewise corrected-lasso regressions.

Step 2 of the inference pipeline regresses each target column of the noisy
design on all the others, with the same measurement-error Gram correction as
Step 1.  The fitted direction mu approximates the j-th column of the inverse
of E[xx'] up to scaling and is what makes the debiased score insensitive to
first-order pilot error.

Only the noise variances of the regressor columns enter the subproblem; the
target column's own noise variance cancels from the moment condition and is
never used here.

Many targets can be fitted as stacks (`fit_nodewise_jobs`), which solve
same-size subproblems in lockstep and return exactly what `fit_nodewise`
returns one target at a time.  The jobs of a stack need not share a design,
only its width: the node graph feeds the edge regressions of consecutive
sources into one job stream, so at p = 30 its 870 edges go in 6 stacks
instead of 30.  `fit_nodewise_stack` is the one-design case.  Stacking pays
off only while the subproblems are small enough for per-call overhead to
dominate, so a stack holds `stack_size(p)` rows, which stacks only when at
least `STACK_MIN` subproblem Grams fit in `STACK_BUDGET_BYTES`.

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


def _checked(Z, noise_var, targets):
    Z = np.asarray(Z, dtype=np.float64)
    noise_var = np.asarray(noise_var, dtype=np.float64)
    if Z.ndim != 2:
        raise InputError("Z must be a matrix")
    p = Z.shape[1]
    if p < 1:
        raise InputError("nodewise regression needs at least 1 column")
    if noise_var.shape != (p,):
        raise InputError(f"noise_var has shape {noise_var.shape}, expected ({p},)")
    for j in targets:
        if not 0 <= j < p:
            raise InputError(f"target column {j} out of range for p={p}")
    return Z, noise_var


def _subproblem(Z, noise_var, j, cfg):
    """Column mask, b, corrected Gram, config and radius floor for target j.

    A default radius is left unresolved for the solver to resolve past the
    floor.
    """
    n, p = Z.shape
    keep = np.arange(p) != j
    Zm = Z[:, keep]
    b = Zm.T @ Z[:, j] / n
    G = corrected_gram(Zm, noise_var[keep])
    cfg = resolve_config(cfg, n, p, G, b, defer_radius=True)
    return keep, b, G, cfg, radius_floor(G, b, noise_var[keep])


def _direction(j, keep, fit):
    mu = np.zeros(keep.shape[0])
    mu[keep] = fit.beta
    return NodewiseResult(j=j, mu=mu, fit=fit)


def fit_nodewise(Z: np.ndarray, noise_var: np.ndarray, j: int,
                 cfg: SolverConfig = SolverConfig()) -> NodewiseResult:
    """Corrected-lasso regression of column j on the remaining columns.

    The subproblem uses b = Z_{-j}' z_j / n and the corrected Gram of
    Z_{-j}.  The penalty default matches Step 1 (computed from the full
    problem size, not the subproblem's p - 1); the radius default is the
    subproblem's own ridge rule, deferred until a solver candidate can reach
    it (``fit.radius`` is inf if none could).
    """
    Z, noise_var = _checked(Z, noise_var, [j])
    n, p = Z.shape
    if p == 1:
        # nothing to regress on; the projection direction is empty
        empty = FitResult(beta=np.zeros(0), objective=0.0, iterations=0,
                          converged=True, kkt_residual=0.0,
                          penalty=default_penalty(n, p) * cfg.penalty_scale,
                          radius=0.0, objective_trace=np.zeros(1))
        return NodewiseResult(j=j, mu=np.zeros(1), fit=empty)

    keep, b, G, cfg, floor = _subproblem(Z, noise_var, j, cfg)
    return _direction(j, keep, fit_corrected_lasso(b, G, cfg, floor))


def fit_nodewise_jobs(jobs, cfg: SolverConfig = SolverConfig()
                      ) -> Iterator[NodewiseResult]:
    """Yield ``fit_nodewise(Z, noise_var, j, cfg)`` for each job in order.

    `jobs` is an iterable of ``(Z, noise_var, j)``, pulled only as far as
    the current stack needs.  Consecutive jobs whose designs have the same
    column count p join one stack of up to `stack_size(p)` rows, even when
    they come from different designs; a change of width starts a new stack.
    A stack is solved as one `fit_corrected_lasso_stack` call and a stack of
    one is `fit_nodewise` itself, so the results are bit-identical to
    fitting the jobs one at a time.  A job whose solve fails raises its
    error when the iteration reaches it, after every earlier job was
    yielded; an invalid job raises when it is pulled.
    """
    batch = []
    for Z, noise_var, j in jobs:
        Z, noise_var = _checked(Z, noise_var, [j])
        if batch and Z.shape[1] != batch[0][0].shape[1]:
            yield from _solve_batch(batch, cfg)
            batch = []
        batch.append((Z, noise_var, int(j)))
        if len(batch) == stack_size(Z.shape[1]):
            yield from _solve_batch(batch, cfg)
            batch = []
    if batch:
        yield from _solve_batch(batch, cfg)


def _solve_batch(batch, cfg):
    if len(batch) == 1:
        yield fit_nodewise(*batch[0], cfg)
        return
    # fill the stack in place, so one stack and one subproblem are alive
    m = batch[0][0].shape[1] - 1
    b = np.empty((len(batch), m))
    G = np.empty((len(batch), m, m))
    keeps, cfgs, floors = [], [], []
    for i, (Z, noise_var, j) in enumerate(batch):
        keep, b[i], G[i], row_cfg, floor = _subproblem(Z, noise_var, j, cfg)
        keeps.append(keep)
        cfgs.append(row_cfg)
        floors.append(floor)
    fits = fit_corrected_lasso_stack(b, G, cfgs, floors)
    for (_, _, j), keep, fit in zip(batch, keeps, fits):
        if isinstance(fit, NumericalError):
            raise fit
        yield _direction(j, keep, fit)


def fit_nodewise_stack(Z: np.ndarray, noise_var: np.ndarray, targets,
                       cfg: SolverConfig = SolverConfig()
                       ) -> Iterator[NodewiseResult]:
    """Yield ``fit_nodewise(Z, noise_var, j, cfg)`` for each target in order.

    The one-design case of `fit_nodewise_jobs`: the targets go in stacks of
    `stack_size(p)`, bit-identical to fitting them one at a time, and a
    failing target raises when the iteration reaches it.  Invalid input
    raises before the first result.
    """
    targets = [int(j) for j in targets]
    Z, noise_var = _checked(Z, noise_var, targets)
    yield from fit_nodewise_jobs(((Z, noise_var, j) for j in targets), cfg)
