"""Corrected lasso for linear regression with noisy covariates.

The observed design Z = X + W carries additive measurement noise with known
diagonal covariance ``noise_var``.  Subtracting that diagonal from the Gram
matrix Z'Z/n gives an unbiased estimate of E[xx'], and the corrected lasso

    minimize  0.5 b'G b - b'beta + penalty * ||beta||_1
    subject to ||beta||_1 <= radius

replaces the ordinary lasso.  Because the corrected Gram can be indefinite
when p > n, each step is a projected composite gradient step: a gradient
step on the quadratic part, the soft-threshold prox for the l1 penalty, then
Euclidean projection onto the l1 ball.  The l1-ball side constraint keeps the
iterates bounded on indefinite problems.  The steps are accelerated by
monotone FISTA (Beck & Teboulle 2009) with gradient restart (O'Donoghue &
Candes 2015): the step is taken from an extrapolated point y, the candidate
replaces the iterate x only if it does not raise the objective, and the
momentum restarts when the step turns against the last move.  Carrying G x
alongside x, G y is a combination of G x and G cand, so every iteration
(and every backtracking retry) makes one matrix-vector product, and a pass
over a stack of rows one matrix product.  The monotone and restart
decisions, like the backtracking test, allow a slack of 1e-12 relative to
the objective, so rounding in the last bits does not flip them.  A fit
stops on its KKT residual, checked every 25 iterations, on a tiny step and
at the iteration cap.

`fit_corrected_lasso` solves one problem (the `fit`, `infer` and `simulate`
pilots).  `fit_corrected_lasso_stack` solves many problems on one Gram, one
row each, at one config (only a default radius is a row's own); a row may
pin coordinates at 0, so a regression on a subset of the Gram's columns,
such as a nodewise regression (pinned at its target), a graph pilot
(pinned at its source) or a graph edge (pinned at its target and its
source), solves its subproblem without a copy, and its coefficients stay
in the Gram's columns with the pinned ones exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, NumericalError, check_integer, check_real

# Entries at or below this magnitude count as exactly zero after truncation.
DEFAULT_TRUNCATION = 1e-7

_POWER_ITERATIONS = 20
_MIN_STEP = 1e-30
_BACKTRACK_SLACK = 1e-12


@dataclass(frozen=True)
class Dataset:
    """Observed regression data.

    Parameters
    ----------
    y : ndarray, shape (n,)
        Response vector, all entries finite.
    Z : ndarray, shape (n, p)
        Observed covariates.  Entries must be finite wherever `mask` is True
        (everywhere when `mask` is None).  Missing cells are stored as 0.
    mask : ndarray of bool, shape (n, p), optional
        True marks an observed cell.  Present exactly when the noise model is
        missing-at-random.
    """

    y: np.ndarray
    Z: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.float64)
        Z = np.asarray(self.Z, dtype=np.float64)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "Z", Z)
        if y.ndim != 1 or Z.ndim != 2:
            raise InputError("y must be 1-d and Z 2-d")
        n, p = Z.shape
        if y.shape[0] != n:
            raise InputError(f"y has {y.shape[0]} rows but Z has {n}")
        if n < 2:
            raise InputError(f"need at least 2 observations, got {n}")
        if p < 1:
            raise InputError("Z has no columns")
        if not np.all(np.isfinite(y)):
            raise InputError("y contains non-finite entries")
        if self.mask is None:
            if not np.all(np.isfinite(Z)):
                raise InputError("Z contains non-finite entries")
        else:
            mask = np.asarray(self.mask)
            if mask.dtype != np.bool_ or mask.shape != Z.shape:
                raise InputError("mask must be boolean with the same shape as Z")
            object.__setattr__(self, "mask", mask)
            if not np.all(np.isfinite(Z), where=mask):
                raise InputError("Z contains non-finite observed entries")

    @property
    def n(self) -> int:
        return self.Z.shape[0]

    @property
    def p(self) -> int:
        return self.Z.shape[1]


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement-noise model for the covariates.

    kind "known" carries the diagonal of the noise covariance; kind "mar"
    states that covariates are missing at random and the effective noise
    diagonal must be estimated from the missingness itself.
    """

    kind: str
    noise_var: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("known", "mar"):
            raise InputError(f"unknown noise kind {self.kind!r}")
        if self.kind == "known":
            if self.noise_var is None:
                raise InputError("known-noise spec requires a variance vector")
            v = np.asarray(self.noise_var, dtype=np.float64)
            if v.ndim != 1:
                raise InputError("noise_var must be a vector")
            if not np.all(np.isfinite(v)) or np.any(v < 0):
                raise InputError("noise variances must be finite and nonnegative")
            object.__setattr__(self, "noise_var", v)
        elif self.noise_var is not None:
            raise InputError("missing-at-random spec carries no variance vector")

    @classmethod
    def known(cls, noise_var) -> "NoiseSpec":
        return cls("known", noise_var)

    @classmethod
    def mar(cls) -> "NoiseSpec":
        return cls("mar")


@dataclass(frozen=True)
class SolverConfig:
    """Tuning for the corrected-lasso solver.

    `penalty` and `radius` default to None, meaning "resolve from the data":
    penalty = sqrt(log(p / 0.05) / n) * penalty_scale, filled in by
    `resolve_config`, and radius = `default_radius` of the problem, which
    only the solvers resolve, before their first pass, so even a fit that
    never leaves 0 reports it.  An explicit radius is used as given.
    """

    penalty: float | None = None
    penalty_scale: float = 1.0
    radius: float | None = None
    tol: float = 1e-8
    max_iter: int = 20000
    truncation: float = DEFAULT_TRUNCATION

    def __post_init__(self):
        for name in ("penalty", "radius"):  # None: resolved from the data
            if getattr(self, name) is not None:
                check_real(name, getattr(self, name))
        for name in ("penalty_scale", "tol", "truncation"):
            check_real(name, getattr(self, name))
        check_integer("max_iter", self.max_iter)
        if self.penalty is not None and not (0 <= self.penalty < math.inf):
            raise InputError("penalty must be finite and nonnegative")
        if not (0 < self.penalty_scale < math.inf):
            raise InputError("penalty_scale must be finite and positive")
        if self.radius is not None and not (self.radius > 0):
            raise InputError("radius must be positive (np.inf allowed)")
        if not (0 < self.tol < math.inf):
            raise InputError("tol must be finite and positive")
        if self.max_iter < 1:
            raise InputError("max_iter must be at least 1")
        if not (self.truncation >= 0):
            raise InputError("truncation must be nonnegative")


@dataclass(frozen=True)
class FitResult:
    """Solver output.

    `beta` is indexed by the columns of the Gram the problem was solved on.
    Every entry is either exactly 0 or larger than `truncation` in
    magnitude, and a coordinate pinned at 0 (see `fit_corrected_lasso_stack`)
    is an exact +0.0.  `objective` and `kkt_residual` are evaluated at the
    final solver iterate before truncation.

    `radius` is the l1-ball radius that was in force: the configured one,
    or the default one the solver resolved (always finite).
    """

    beta: np.ndarray
    objective: float
    iterations: int
    converged: bool
    kkt_residual: float
    penalty: float
    radius: float


def default_penalty(n: int, p: int) -> float:
    """Theory-scaled l1 penalty sqrt(log(p / 0.05) / n)."""
    if n < 1 or p < 1:
        raise InputError("need n >= 1 and p >= 1 to scale the penalty")
    return math.sqrt(math.log(p / 0.05) / n)


def _radius_terms(G: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|b_k| / (max(G_kk, 0) + 1) for every entry of b, a (p,) vector or a
    (k, p) stack of rows: the terms of `default_radius`."""
    return np.abs(b) / (np.maximum(np.diagonal(G), 0.0) + 1.0)


def _default_radii(G: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`default_radius` of every row of a (k, p) stack b, one row sum each."""
    r = 2.0 * _radius_terms(G, b).sum(axis=1)
    return np.where(r > 0.0, r, 1.0)


def default_radius(G: np.ndarray, b: np.ndarray) -> float:
    """Data-driven l1-ball radius 2 * sum_k |b_k| / (max(G_kk, 0) + 1).

    Term k is the ridge pilot of coordinate k alone, with a negative
    diagonal entry of an indefinite corrected Gram floored at zero: the
    diagonal analogue of 2 * ||(G_psd + I)^-1 b||_1, in O(p).  An entry of
    b that is 0 adds nothing, so a problem pinned at 0 on some coordinates
    (see `fit_corrected_lasso_stack`) gets the radius of its free block, up
    to rounding, without slicing G.  Falls back to 1.0 when b = 0.
    """
    b = np.asarray(b, dtype=np.float64)
    return float(_default_radii(G, b[None])[0])


def resolve_config(cfg: SolverConfig, n: int, p: int) -> SolverConfig:
    """Fill in the default penalty of an n x p design; an explicit one wins.

    The radius is left as configured: the solvers resolve a default one
    (see `SolverConfig`).
    """
    if cfg.penalty is not None:
        return cfg
    return replace(cfg, penalty=default_penalty(n, p) * cfg.penalty_scale)


def corrected_gram(Z: np.ndarray, noise_var: np.ndarray) -> np.ndarray:
    """Measurement-error-corrected Gram matrix Z'Z/n - diag(noise_var).

    Output is exactly symmetric (enforced, not assumed).  The result is an
    unbiased estimate of E[xx'] and may be indefinite when p > n.
    """
    Z = np.asarray(Z, dtype=np.float64)
    v = np.asarray(noise_var, dtype=np.float64)
    if Z.ndim != 2:
        raise InputError("Z must be a matrix")
    n, p = Z.shape
    if v.shape != (p,):
        raise InputError(f"noise_var has shape {v.shape}, expected ({p},)")
    if n < 1:
        raise InputError("Z has no rows")
    G = Z.T @ Z
    # NumPy copies the overlapping G.T first, so each sum reads the originals
    G += G.T
    G /= 2.0 * n
    G[np.diag_indices_from(G)] -= v
    return G


def hard_threshold(beta: np.ndarray, threshold: float) -> np.ndarray:
    """Zero every entry with |beta_k| <= threshold, keep the rest exactly."""
    if not (threshold >= 0):
        raise InputError("threshold must be nonnegative")
    beta = np.asarray(beta, dtype=np.float64)
    return np.where(np.abs(beta) > threshold, beta, 0.0)


# ---------------------------------------------------------------------------
# solver primitives
#
# Both solver loops take the spectral bound, projection and KKT residual
# below, which work on (k, p) stacks of rows on one (p, p) Gram.  A pass
# forms every live row's G x as one product X @ G (G is exactly
# symmetric): one gemv for a single row, one gemm for several.  A gemm
# row's last bits may depend on how many rows share the call, so a row of
# a stack agrees with the row solved alone up to rounding, while the same
# stack of the same rows gives the same bytes.  Every dot product is one
# ddot per row, reductions run along the contiguous last axis, and the
# rest is elementwise.  The pins are one (k, p) boolean mask, True where a
# row holds a coordinate at 0.  Property tests pin the two loops to each
# other.


def _rowdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u[i] @ v[i] for every row of two (k, p) stacks: one ddot per row
    pair, with each row's own stride, as the 1-d product makes it."""
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def _matvec(G: np.ndarray, X: np.ndarray, pin: np.ndarray) -> np.ndarray:
    """G @ X[i] for every row, as the one product X @ G of the symmetric G,
    with the entries where the mask `pin` is True set to 0."""
    out = X @ G
    out[pin] = 0.0
    return out


def _spectral_bound_stack(G: np.ndarray, pin: np.ndarray) -> np.ndarray:
    """|Dominant eigenvalue| of G for every row of the (k, p) pin mask
    `pin`, by 20 power iterations from a fixed start; 1.0 where the iterate
    vanishes or overflows.

    A row holds its pinned coordinates at 0, bounding its subproblem's
    block of G; it starts at 1/sqrt(free coordinates), or 0 with none free.
    G must be finite.  Once a row's norm is 0 or not finite, its iterate
    holds a NaN (0/0 or inf/inf at once, or 0/0 one step after an
    overflow), which reaches every entry of G @ v; one test at the end finds
    the row.
    """
    start = np.array([f ** -0.5 if f else 0.0
                      for f in (len(G) - pin.sum(axis=1)).tolist()])
    v = np.where(pin, 0.0, start[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_POWER_ITERATIONS):
            w = _matvec(G, v, pin)
            nw = np.sqrt(_rowdot(w, w))
            v = w / nw[:, None]
    return np.where((nw > 0.0) & (nw < math.inf), nw, 1.0)


def _project_l1_ball_stack(v: np.ndarray, a: np.ndarray, l1: np.ndarray,
                           radius: np.ndarray) -> np.ndarray:
    """Euclidean projection of every row of v onto {x : ||x||_1 <= radius},
    in place; a is np.abs(v) and l1 its row sums.

    Sorting-based: the threshold theta is found from the sorted absolute
    values in O(p log p), then every entry shrinks toward zero by theta.
    Rows already inside their ball are left unchanged; radii are > 0.
    """
    over = ~(l1 <= radius)
    if over.any():
        a, r = a[over], radius[over]
        u = np.sort(a, axis=1)[:, ::-1]
        css = np.cumsum(u, axis=1) - r[:, None]
        idx = np.arange(1, u.shape[1] + 1)
        last = u > css / idx
        rho = idx[-1] - np.argmax(last[:, ::-1], axis=1)
        theta = css[np.arange(rho.shape[0]), rho - 1] / rho
        v[over] = np.sign(v[over]) * np.maximum(a - theta[:, None], 0.0)
    return v


def _kkt_residual_stack(beta: np.ndarray, grad: np.ndarray, penalty: float,
                        radius: np.ndarray) -> np.ndarray:
    """Infinity norm of the minimum-norm subgradient of every row's problem.

    With multiplier theta >= 0 on the ball's normal cone, a nonzero entry adds
    |a + theta| with a = sign(beta) grad + penalty, and a zero entry adds
    max(|grad| - penalty - theta, 0).  So the residual is the V shape
    max(theta + hi, lo - theta, 0), with hi = max a (-inf when beta = 0) and
    lo the larger of max(-a) and max(|grad| - penalty).  theta is 0 inside
    the ball and the V's minimum max((lo - hi) / 2, 0) on it.  Radii must be
    > 0, so a row on its ball has a nonzero entry and a finite hi.
    """
    nonzero = beta != 0.0
    d = np.sign(beta) * grad  # a - penalty; max(d) + penalty == max a
    hi = np.where(nonzero, d, -np.inf).max(axis=1) + penalty
    lo = np.where(nonzero, -d, np.abs(grad)).max(axis=1) - penalty
    on_ball = np.abs(beta).sum(axis=1) >= radius * (1.0 - 1e-9)
    theta = np.where(on_ball, np.maximum((lo - hi) / 2.0, 0.0), 0.0)
    return np.maximum(np.maximum(theta + hi, lo - theta), 0.0)


def fit_corrected_lasso(b: np.ndarray, G: np.ndarray,
                        cfg: SolverConfig) -> FitResult:
    """Solve the l1-ball-constrained corrected lasso.

    Parameters
    ----------
    b : ndarray, shape (p,)
        Linear term, typically Z'y/n.
    G : ndarray, shape (p, p)
        Corrected Gram matrix; symmetric, possibly indefinite.
    cfg : SolverConfig
        Must carry a concrete `penalty` (see `resolve_config`).  A radius
        of None is ``default_radius(G, b)``, resolved before the first pass.

    Returns
    -------
    FitResult
        Solution with entries at or below `cfg.truncation` zeroed.  Converged
        means the minimum-norm subgradient residual dropped to `cfg.tol`;
        hitting `max_iter` first returns converged=False, not an error.

    Notes
    -----
    Iterates start at 0 and stay feasible.  Unless 0 is already a KKT
    point, the initial step is 1 over a power-iteration estimate of the
    spectral radius of G, halved by backtracking until the usual quadratic
    upper bound holds at the extrapolated point.  The steps are monotone
    FISTA with gradient restart: a candidate replaces the iterate only if
    its objective is no larger (up to a 1e-12 relative slack), so the
    objective never rises, even on indefinite problems, and the momentum
    restarts once (y - cand)'(cand - x) exceeds the same slack times the
    step.  G y is formed from G cand and G x, so each iteration
    makes one matrix-vector product.  The KKT residual of the iterate is
    checked every 25 iterations, on a tiny step and at `max_iter`.
    """
    b = np.asarray(b, dtype=np.float64)
    G = np.asarray(G, dtype=np.float64)
    if b.ndim != 1 or G.shape != (b.shape[0], b.shape[0]):
        raise InputError("b must be a vector and G a matching square matrix")
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(G))):
        raise InputError("b and G must be finite")
    if cfg.penalty is None:
        raise InputError("penalty must be resolved before fitting")
    penalty = float(cfg.penalty)
    radius = default_radius(G, b) if cfg.radius is None else float(cfg.radius)

    def kkt_residual() -> float:
        return float(_kkt_residual_stack(x[None], (Gx - b)[None], penalty,
                                         np.array([radius]))[0])

    p = b.shape[0]
    # x: accepted iterate, Gx = G @ x; y: extrapolated point, gy its gradient
    x, Gx, F_x = np.zeros(p), np.zeros(p), 0.0
    kkt = kkt_residual()
    converged = kkt <= cfg.tol
    if not converged:
        step = 1.0 / max(float(_spectral_bound_stack(
            G, np.zeros((1, p), dtype=bool))[0]), 1e-12)
    y, gy, f_y, t = x, -b, 0.0, 1.0
    iterations = 0

    while iterations < cfg.max_iter and not converged:
        iterations += 1
        while True:
            v = y - step * gy
            # |soft-threshold of v at step * penalty| and its l1 norm
            mag = np.maximum(np.abs(v) - step * penalty, 0.0)
            l1 = mag.sum()
            cand = np.sign(v) * mag
            if not l1 <= radius:
                _project_l1_ball_stack(cand[None], mag[None], l1[None],
                                       np.array([radius]))
            delta = cand - y
            sq = float(delta @ delta)
            Gc = cand @ G  # the one-row product of a stack of one
            f_cand = 0.5 * float(cand @ Gc) - float(b @ cand)
            if sq == 0.0:
                break
            bound = f_y + float(gy @ delta) + sq / (2.0 * step)
            if f_cand <= bound + _BACKTRACK_SLACK * (1.0 + abs(f_y)):
                break
            step *= 0.5
            if step < _MIN_STEP:
                raise NumericalError("backtracking step size underflow")
        if not np.isfinite(f_cand):
            raise NumericalError("non-finite objective in solver")
        F_cand = f_cand + penalty * float(np.abs(cand).sum())
        slack = _BACKTRACK_SLACK * (1.0 + abs(F_x))
        took = F_cand <= F_x + slack
        D, GD = cand - x, Gc - Gx
        restart = float(delta @ D) < -(step * slack)
        t_next = 1.0 if restart else (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        m = 0.0 if restart else ((t - 1.0) if took else t) / t_next
        if took:
            x, Gx, F_x = cand, Gc, F_cand
        y, Gy, t = x + m * D, Gx + m * GD, t_next
        f_y = 0.5 * float(y @ Gy) - float(b @ y)
        gy = Gy - b
        fixed = sq == 0.0 and took
        if fixed or iterations % 25 == 0 or iterations == cfg.max_iter or \
                math.sqrt(sq) <= 0.1 * cfg.tol * step:
            kkt = kkt_residual()
            converged = kkt <= cfg.tol
            if fixed:
                break

    return FitResult(
        beta=hard_threshold(x, cfg.truncation),
        objective=F_x,
        iterations=iterations,
        converged=converged,
        kkt_residual=kkt,
        penalty=penalty,
        radius=radius,
    )


def _pin_index(j) -> int:
    # int() would truncate a fractional pin and read a bool as 0 or 1
    check_integer("pin", j)
    return int(j)


def fit_corrected_lasso_stack(b: np.ndarray, G: np.ndarray, cfg: SolverConfig,
                              pins=None) -> list[FitResult | NumericalError]:
    """Solve k corrected-lasso problems on one Gram as a single stack.

    Every problem keeps its own step size, momentum, backtracking,
    projection, KKT checks and stopping rule; one that stops leaves the
    live rows, so no later pass computes anything for it.  A pass forms
    G x of every live row as one matrix product.

    Parameters
    ----------
    b : ndarray, shape (k, p)
        Linear terms, one row per problem.
    G : ndarray, shape (p, p)
        The corrected Gram every problem solves on.
    cfg : SolverConfig
        The one configuration of every problem, with a concrete penalty
        (see `resolve_config`); a radius of None is each row's own.
    pins : sequence of k sequences of int, optional
        The coordinates each problem pins at 0, integers, distinct and in
        [0, p); none by default.  A pinned problem reads those entries of
        its b as 0 and zeroes them in its gradient after every update, so
        its beta holds them at exactly 0 and it solves the subproblem on the
        other coordinates without copying G.  Every default radius is resolved
        before the first pass, as one row sum per problem: problem i's is
        ``default_radius(G, b[i])`` with its pinned entries read as 0, which
        is the subproblem's up to rounding.

    Returns
    -------
    list of FitResult or NumericalError
        Every `beta` has length p, in G's columns, with an exact +0.0 at
        each pinned coordinate.  Entry i agrees with problem i solved alone
        (a stack of one, same Gram and pins) up to rounding: its penalty
        and radius are the same bits, but the last bits of its G x depend
        on how many rows share the pass's product, and so do those of its
        beta, objective and KKT residual.  The same stack gives the same
        bytes on every run.  A stack of one equals
        ``fit_corrected_lasso(b[0], G, cfg)`` bit for bit in every field
        when unpinned.  Pinned, its free entries and its radius agree with
        `fit_corrected_lasso` on the sliced subproblem up to rounding, as
        its sums run over p terms, not over the free ones.  A solve that
        would raise NumericalError returns the exception in place, so the
        caller decides in which order failures surface.
    """
    b = np.array(b, dtype=np.float64)
    G = np.ascontiguousarray(G, dtype=np.float64)
    k, p = b.shape if b.ndim == 2 else (-1, -1)
    pins = [()] * k if pins is None else [
        tuple(map(_pin_index, row)) for row in pins]
    if k < 0 or G.shape != (p, p) or len(pins) != k or any(
            len(set(row)) != len(row) or not all(0 <= j < p for j in row)
            for row in pins):
        raise InputError("need b of shape (k, p), a (p, p) Gram G, and for "
                         "each row of b distinct pins in [0, p)")
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(G))):
        raise InputError("b and G must be finite")
    if cfg.penalty is None:
        raise InputError("penalty must be resolved before fitting")

    # pin[i, j]: row i holds coordinate j at 0
    pin = np.zeros((k, p), dtype=bool)
    for row, js in zip(pin, pins):
        row[list(js)] = True
    b[pin] = 0.0
    penalty, tol, cap = float(cfg.penalty), cfg.tol, cfg.max_iter
    radius = _default_radii(G, b) if cfg.radius is None else \
        np.full(k, float(cfg.radius))

    beta = np.zeros_like(b)
    objective = np.zeros(k)
    kkt = _kkt_residual_stack(beta, -b, penalty, radius)
    converged = kkt <= tol
    iterations = np.zeros(k, dtype=np.int64)
    errors: list[NumericalError | None] = [None] * k

    # the live rows: positions `idx`, pin mask, step, momentum and working
    # state (x, G @ x, its objective; y, its gradient and f(y))
    idx = np.flatnonzero(~converged)
    step = 1.0 / np.maximum(_spectral_bound_stack(G, pin[idx]), 1e-12) \
        if idx.size else np.zeros(0)
    live = (idx, pin[idx], step, np.ones(idx.size), beta[idx],
            np.zeros_like(b[idx]), objective[idx], beta[idx], -b[idx],
            objective[idx], b[idx], iterations[idx], radius[idx])

    while live[0].size:
        idx, pinned, step, t, x, Gx, F_x, y, gy, f_y, bl, it, rad = live
        v = y - step[:, None] * gy
        # |soft-threshold of v at step * penalty| and its l1 norm, then the
        # soft-threshold itself in v's place
        mag = np.abs(v)
        mag -= (step * penalty)[:, None]
        np.maximum(mag, 0.0, out=mag)
        l1 = mag.sum(axis=1)
        cand = np.sign(v, out=v)
        cand *= mag
        over = ~(l1 <= rad)
        _project_l1_ball_stack(cand, mag, l1, rad)
        delta = cand - y
        sq = _rowdot(delta, delta)
        Gc = _matvec(G, cand, pinned)
        f_cand = 0.5 * _rowdot(cand, Gc) - _rowdot(bl, cand)
        bound = f_y + _rowdot(gy, delta) + sq / (2.0 * step)
        zero = sq == 0.0
        accept = zero | (
            f_cand <= bound + _BACKTRACK_SLACK * (1.0 + np.abs(f_y)))

        step[~accept] *= 0.5
        underflow = ~accept & (step < _MIN_STEP)
        nonfinite = accept & ~np.isfinite(f_cand)
        for i in np.flatnonzero(underflow | nonfinite):
            errors[idx[i]] = NumericalError(
                "backtracking step size underflow" if underflow[i]
                else "non-finite objective in solver")
        accept &= ~nonfinite

        # accepted rows take the candidate if it does not raise F, then
        # extrapolate (or restart at x); G @ y is a combination of G @ cand
        # and G @ x, so the pass needs no second matrix product.  A row the
        # projection left alone has |cand| = mag, whose row sum is l1.
        if over.any():
            l1[over] = np.abs(cand[over]).sum(axis=1)
        F_cand = f_cand + penalty * l1
        slack = _BACKTRACK_SLACK * (1.0 + np.abs(F_x))
        took = accept & (F_cand <= F_x + slack)
        D, GD = cand - x, Gc - Gx
        restart = _rowdot(delta, D) < -(step * slack)
        t_next = np.where(restart, 1.0,
                          (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0)
        m = np.where(restart, 0.0, np.where(took, t - 1.0, t) / t_next)
        # when every row moves, the new arrays replace the old ones whole
        if took.all():
            x, Gx, F_x = cand, Gc, F_cand
        else:
            np.copyto(x, cand, where=took[:, None])
            np.copyto(Gx, Gc, where=took[:, None])
            np.copyto(F_x, F_cand, where=took)
        D *= m[:, None]
        D += x
        GD *= m[:, None]
        GD += Gx
        f_D = 0.5 * _rowdot(D, GD) - _rowdot(bl, D)
        GD -= bl
        if accept.all():
            y, gy, f_y, t = D, GD, f_D, t_next
        else:
            np.copyto(y, D, where=accept[:, None])
            np.copyto(f_y, f_D, where=accept)
            np.copyto(gy, GD, where=accept[:, None])
            np.copyto(t, t_next, where=accept)
        it += accept
        live = (idx, pinned, step, t, x, Gx, F_x, y, gy, f_y, bl, it, rad)

        fixed = zero & took
        check = np.flatnonzero(accept & (fixed | (it % 25 == 0) | (it >= cap)
                               | (np.sqrt(sq) <= 0.1 * tol * step)))
        if check.size:
            kkt[idx[check]] = _kkt_residual_stack(
                x[check], Gx[check] - bl[check], penalty, rad[check])
            converged[idx[check]] = kkt[idx[check]] <= tol
        stop = underflow | nonfinite | converged[idx] | fixed | (it >= cap)
        if stop.any():
            done, keep = idx[stop], ~stop
            beta[done], objective[done], iterations[done] = \
                x[stop], F_x[stop], it[stop]
            live = tuple(a[keep] for a in live)

    return [errors[i] or FitResult(
        beta=hard_threshold(beta[i], cfg.truncation),
        objective=float(objective[i]),
        iterations=int(iterations[i]),
        converged=bool(converged[i]),
        kkt_residual=float(kkt[i]),
        penalty=penalty,
        radius=float(radius[i]),
    ) for i in range(k)]
