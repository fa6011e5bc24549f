"""Debiased estimation and pointwise inference per target coordinate.

The pilot corrected lasso converges too slowly for Gaussian inference, so
each target coordinate is re-estimated as the exact root of an orthogonalized
score.  With mu the nodewise direction for column j and beta the pilot with
its j-th entry zeroed, the per-observation score at parameter value theta is

    psi_i(theta) = (z_ij - z_i'mu) (y_i - z_ij theta - z_i'beta)
                   + noise_var_j * theta - mu'(noise_var * beta)

The noise_var terms cancel the measurement-error bias of the two cross
moments, and orthogonality to the nuisance direction makes the root
insensitive to first-order pilot error.  Since the mean score is affine in
theta, the root has the closed form

    theta_hat = [mean_i (z_ij - z_i'mu)(y_i - z_i'beta) - mu'(noise_var * beta)]
                / slope_j,
    slope_j   = mean_i (z_ij - z_i'mu) z_ij - noise_var_j,

and mean_i psi_i(theta_hat) = 0 holds exactly (to roundoff) by construction.
The plug-in variance is slope_j^{-2} mean_i psi_i(center)^2, with the center
at the debiased estimate by default ("debiased" convention; standardized
scores then have empirical variance exactly 1) or at the pilot estimate
("pilot" convention).

A table's m cells are one batch over (m, n) row arrays: the products Z mu
and Z beta are one stacked matmul, a gemv per row and never a gemm; every
dot is a ddot per row pair; the slopes, roots, scores and variances are row
operations; and the quantile is one `ndtri` per table.  Rows whose target
the pilot leaves at 0 share one y - Z beta.  The public `score_slope`,
`score_values` and `debias_coordinate` are one-row calls of the same batch.
Every cell equals the one-cell formulas bit for bit as long as two
conditions hold:

  * the slope's dot reads z_j with its own stride in Z.  On a C-ordered Z
    that stride is p, and a unit-stride copy of z_j (which `Z[:, js]`
    gives) makes a ddot that rounds differently;
  * each slope is squared as a Python float, by libm's pow.  NumPy's
    square is x * x, and the two differ in the last bit for some slopes.

In `graph_tables` the residual z_t - Z beta_t of every pilot t is formed
once, as one (p, n) array: it is the direction residual of every edge that
reuses pilot t, and source t's y-residual at every partner that pilot t
leaves at 0.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import mar as mar_mod
from .errors import DegeneracyError, EivbandsError, InputError, NumericalError
from .lasso import (
    Dataset,
    FitResult,
    NoiseSpec,
    SolverConfig,
    _radius_terms,
    corrected_gram,
    fit_corrected_lasso,
    resolve_config,
)
from .nodewise import fit_nodewise_jobs

# |slope| below this is treated as a statistical degeneracy.
DEGENERACY_TOL = 1e-10

VARIANCE_CONVENTIONS = ("debiased", "pilot")


@dataclass(frozen=True)
class DebiasCell:
    """Inference output for one target coordinate.

    `scores` holds the standardized per-observation scores
    -psi_i(estimate) / (sd * slope); they have mean 0 to roundoff, and
    empirical variance exactly 1 under the "debiased" variance convention.
    They are a row of the one (m, n) score array of the cell's table.
    `mu` is the nodewise direction used (full length p, mu[j] = 0).
    """

    j: int
    estimate: float
    slope: float
    sd: float
    ci_low: float
    ci_high: float
    scores: np.ndarray
    mu: np.ndarray


@dataclass(frozen=True)
class DebiasTable:
    """Inference results for a target set, plus everything a bootstrap needs.

    `scores` is the read-only (m, n) array whose row k is cells[k].scores.
    """

    cells: tuple[DebiasCell, ...]
    scores: np.ndarray
    alpha: float
    n: int
    noise_kind: str
    noise_var: np.ndarray
    pilot: FitResult
    variance_at: str
    mar: mar_mod.MarEstimate | None = None

    @property
    def targets(self) -> tuple[int, ...]:
        return tuple(c.j for c in self.cells)

    def score_matrix(self) -> np.ndarray:
        """The (n, m) scores, column k cell k's: a read-only view."""
        return self.scores.T


def _row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Entry i is A[i] @ B[i]: one ddot per row pair, with each row's own
    stride, as the 1-d product of the two rows makes it."""
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


def _residuals(lhs: np.ndarray, Z: np.ndarray,
               coefs: np.ndarray) -> np.ndarray:
    """Row i is lhs[i] - Z @ coefs[i]: one gemv per row, never a gemm, so
    each row is the product of its own 1-d call bit for bit."""
    out = np.matmul(Z, coefs[:, :, None])[:, :, 0]
    return np.subtract(lhs, out, out=out)


def _column_dots(R: np.ndarray, Z: np.ndarray, js: np.ndarray) -> np.ndarray:
    """Entry i is R[i] @ Z[:, js[i]], with z_j read at its own stride in Z:
    on a C-ordered Z a unit-stride copy of z_j rounds the dot differently.
    The rows of R go to a span of zero rows, one per column of Z from the
    first target to the last, so that row i meets z_j's own view."""
    lo = int(js.min())
    span = np.zeros((int(js.max()) + 1 - lo, R.shape[1]))
    span[js - lo] = R
    return _row_dots(span, Z.T[lo:lo + len(span)])[js - lo]


class _Scores:
    """The theta-free terms of m target scores, one row each, formed at once.

    Row i is target column js[i] along direction M[i]: `resid_dir` is
    z_j - Z mu and `slopes` the debias denominators.  Given y and the pilot,
    `resid_out` is y - Z beta and `consts` is mu'(noise_var * beta), with
    beta the pilot whose j-th entry is zeroed.  `dirs`, if given, holds a
    row's resid_dir where it is already known and None where it is not;
    every row whose target the pilot leaves at 0 shares one resid_out,
    y - Z pilot_beta, which `out0` gives if it is already known.
    """

    def __init__(self, Z, noise_var, js, M, dirs=None, y=None,
                 pilot_beta=None, out0=None):
        n = Z.shape[0]
        m = len(js)
        self.Z = Z
        self.js = js = np.asarray(js, dtype=np.intp)
        self.noise_var_j = noise_var[js]
        if dirs is None:
            self.resid_dir = _residuals(Z.T[js], Z, M)
        else:
            self.resid_dir = np.empty((m, n))
            for i, known in enumerate(dirs):
                if known is not None:
                    self.resid_dir[i] = known
            fresh = [i for i, known in enumerate(dirs) if known is None]
            if fresh:
                self.resid_dir[fresh] = _residuals(Z.T[js[fresh]], Z,
                                                   M[fresh])
        self.slopes = _column_dots(self.resid_dir, Z, js) / n - \
            self.noise_var_j
        if y is None:
            return
        beta = np.repeat(pilot_beta[None], m, axis=0)
        beta[np.arange(m), js] = 0.0
        own = pilot_beta[js] != 0.0
        self.resid_out = np.empty((m, n))
        if not own.all():
            if out0 is None:
                out0 = y - Z @ pilot_beta
            self.resid_out[~own] = out0
        if own.any():
            self.resid_out[own] = _residuals(y, Z, beta[own])
        self.consts = _row_dots(M, noise_var * beta)

    def roots(self) -> np.ndarray:
        dots = _row_dots(self.resid_dir, self.resid_out)
        return (dots / self.Z.shape[0] - self.consts) / self.slopes

    def values(self, thetas: np.ndarray) -> np.ndarray:
        """Row i holds psi(thetas[i]) of row i's score."""
        thetas = thetas[:, None]
        # in place in a gathered copy of the z_j, so only the result is
        # allocated
        out = self.Z.T[self.js]
        out *= thetas
        np.subtract(self.resid_out, out, out=out)
        out *= self.resid_dir
        out += self.noise_var_j[:, None] * thetas
        out -= self.consts[:, None]
        return out


def _check_slope(slope: float, j: int) -> None:
    if abs(slope) < DEGENERACY_TOL:
        raise DegeneracyError(
            f"score slope {slope:.3e} is numerically zero for column {j}",
            coordinate=j)


def _check_variance(var: float, coordinate: int | None) -> None:
    if not math.isfinite(var):
        raise NumericalError("non-finite plug-in variance")
    if var == 0.0:
        where = "" if coordinate is None else f" for column {coordinate}"
        raise DegeneracyError(f"plug-in variance is exactly zero{where}",
                              coordinate=coordinate)


def _variances(centred: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """Row i's slopes[i]^{-2} mean(centred[i]^2).  Each slope is squared as
    a Python float, by libm's pow: NumPy's square is x * x, and the two can
    differ in the last bit."""
    squares = np.array([s ** 2 for s in slopes.tolist()])
    return np.mean(centred ** 2, axis=1) / squares


def _one_row(Z, noise_var, mu, j, y=None, pilot_beta=None) -> _Scores:
    Z = np.asarray(Z, dtype=np.float64)
    noise_var = np.asarray(noise_var, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    if Z.ndim != 2:
        raise InputError("Z must be a matrix")
    n, p = Z.shape
    if noise_var.shape != (p,):
        raise InputError(f"noise_var has shape {noise_var.shape}, expected ({p},)")
    if mu.shape != (p,):
        raise InputError(f"mu has shape {mu.shape}, expected ({p},)")
    if not 0 <= j < p:
        raise InputError(f"target column {j} out of range for p={p}")
    if y is not None:
        y = np.asarray(y, dtype=np.float64)
        pilot_beta = np.asarray(pilot_beta, dtype=np.float64)
        if y.shape != (n,):
            raise InputError("y and Z have mismatched shapes")
        if pilot_beta.shape != (p,):
            raise InputError("pilot_beta length must match the column count of Z")
    return _Scores(Z, noise_var, [j], mu[None], y=y, pilot_beta=pilot_beta)


def score_slope(Z: np.ndarray, noise_var: np.ndarray, mu: np.ndarray,
                j: int) -> float:
    """Negative derivative of the mean score in theta (the debias denominator)."""
    return float(_one_row(Z, noise_var, mu, j).slopes[0])


def score_values(y, Z, noise_var, pilot_beta, mu, j, theta) -> np.ndarray:
    """Per-observation scores psi_i(theta) for target column j."""
    score = _one_row(Z, noise_var, mu, j, y, pilot_beta)
    return score.values(np.array([theta], dtype=np.float64))[0]


def debias_coordinate(y, Z, noise_var, pilot_beta, mu, j) -> float:
    """Exact root of the mean orthogonalized score for column j."""
    score = _one_row(Z, noise_var, mu, j, y, pilot_beta)
    _check_slope(float(score.slopes[0]), j)
    return float(score.roots()[0])


def plugin_variance(raw_scores: np.ndarray, slope: float,
                    coordinate: int | None = None) -> float:
    """Plug-in variance slope^{-2} * mean(psi^2) of the debiased estimate.

    `coordinate`, the target column if known, is named by a zero variance.
    """
    raw_scores = np.asarray(raw_scores, dtype=np.float64)
    if raw_scores.ndim != 1 or raw_scores.size == 0:
        raise InputError("raw_scores must be a nonempty vector")
    with np.errstate(all="ignore"):
        var = float(_variances(raw_scores[None],
                               np.array([slope], dtype=np.float64))[0])
    _check_variance(var, coordinate)
    return var


def _quantile(alpha: float) -> float:
    """The normal quantile q_{1-alpha/2}, finite for every alpha accepted."""
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    if 1.0 - alpha / 2.0 == 1.0:
        raise InputError(f"alpha {alpha} is too small: 1 - alpha/2 rounds to "
                         "1, where the normal quantile is infinite")
    return float(ndtri(1.0 - alpha / 2.0))


def pointwise_ci(estimate: float, sd: float, n: int,
                 alpha: float) -> tuple[float, float]:
    """Normal interval estimate -+ q_{1-alpha/2} * sd / sqrt(n)."""
    q = _quantile(alpha)
    if not sd > 0:
        raise InputError("sd must be positive")
    if n < 1:
        raise InputError("n must be at least 1")
    half = q * sd / math.sqrt(n)
    return estimate - half, estimate + half


def _check_settings(alpha: float, variance_at: str) -> None:
    _quantile(alpha)
    if variance_at not in VARIANCE_CONVENTIONS:
        raise InputError(f"variance_at must be one of {VARIANCE_CONVENTIONS}")


def _cells(y, design, noise_var, pilot_beta, directions, q, variance_at,
           resid_out=None) -> tuple[tuple[DebiasCell, ...], np.ndarray]:
    """The cells of the directions (j, mu, resid_dir), in one batch, and
    their (m, n) read-only scores, row k cell k's; a degenerate cell raises
    in direction order."""
    n = y.shape[0]
    if not directions:
        scores = np.empty((0, n))
        scores.flags.writeable = False
        return (), scores
    js, mus, dirs = zip(*directions)
    # a degenerate row divides by 0 here; it raises below, in its turn
    with np.errstate(all="ignore"):
        score = _Scores(design, noise_var, js, np.array(mus), dirs, y,
                        pilot_beta, resid_out)
        slopes = score.slopes
        thetas = score.roots()
        raw = score.values(thetas)
        centred = raw if variance_at == "debiased" else \
            score.values(pilot_beta[score.js])
        # the score's (m, n) terms are freed before the variance's square
        del score
        var = _variances(centred, slopes)
        sd = np.sqrt(var)
        # the scores -raw / (sd * slope), formed in raw's place
        scores = np.negative(raw, out=raw)
        scores /= (sd * slopes)[:, None]
        half = q * sd / math.sqrt(n)
    # read-only before its rows are taken, so that the rows are too
    scores.flags.writeable = False
    for j, slope, v in zip(js, slopes.tolist(), var.tolist()):
        _check_slope(slope, j)
        _check_variance(v, j)
    cells = tuple(
        DebiasCell(j=j, estimate=theta, slope=slope, sd=s, ci_low=lo,
                   ci_high=hi, scores=row, mu=mu)
        for j, theta, slope, s, lo, hi, row, mu in zip(
            js, thetas.tolist(), slopes.tolist(), sd.tolist(),
            (thetas - half).tolist(), (thetas + half).tolist(), scores, mus))
    return cells, scores


def _table(y, design, noise_var, pilot, directions, alpha, variance_at,
           noise_kind="known", mar=None, resid_out=None) -> DebiasTable:
    """One cell per direction (j, mu, resid_dir) of the regression of y on
    the design, in order, formed in one batch; resid_dir is z_j - Z mu
    where already known, else None, and `resid_out`, if given, is
    y - Z pilot.beta.  The directions are pulled first: an error in
    pulling one raises after the cells pulled before it are formed, so an
    earlier degenerate cell raises first."""
    q = _quantile(alpha)
    pulled = []
    try:
        for direction in directions:
            pulled.append(direction)
    except EivbandsError:
        _cells(y, design, noise_var, pilot.beta, pulled, q, variance_at,
               resid_out)
        raise
    cells, scores = _cells(y, design, noise_var, pilot.beta, pulled, q,
                           variance_at, resid_out)
    return DebiasTable(cells=cells, scores=scores, alpha=alpha, n=y.shape[0],
                       noise_kind=noise_kind, noise_var=noise_var,
                       pilot=pilot, variance_at=variance_at, mar=mar)


def run_inference(data: Dataset, noise: NoiseSpec, targets,
                  alpha: float = 0.05,
                  cfg: SolverConfig = SolverConfig(),
                  variance_at: str = "debiased") -> DebiasTable:
    """Full pipeline: pilot fit, nodewise directions, debiased cells.

    Parameters
    ----------
    data : Dataset
        Observations; `data.mask` must be present exactly when `noise` is
        missing-at-random.
    noise : NoiseSpec
        Known diagonal noise variances, or missing-at-random (estimated).
    targets : iterable of int
        Zero-based target columns, nonempty, unique, each in [0, p).
    alpha : float
        Pointwise confidence level is 1 - alpha.
    cfg : SolverConfig
        Solver tuning shared by the pilot and nodewise fits; unset penalty
        and radius resolve from the data.
    variance_at : {"debiased", "pilot"}
        Where the plug-in variance evaluates the scores.

    Notes
    -----
    The nodewise fits are one `nodewise.fit_nodewise_jobs` stream on the
    pilot's Gram, bit-identical to fitting them one at a time.
    """
    _check_settings(alpha, variance_at)
    targets = [int(j) for j in targets]
    if not targets:
        raise InputError("target set is empty")
    if len(set(targets)) != len(targets):
        raise InputError("target set has duplicates")
    p = data.p
    for j in targets:
        if not 0 <= j < p:
            raise InputError(f"target column {j} out of range for p={p}")
    prepared = prepare_pilot(data, noise, cfg)
    directions = fit_nodewise_jobs(prepared.gram, data.n, targets, cfg)
    return _table(data.y, prepared.design, prepared.noise_var, prepared.fit,
                  ((nw.j, nw.mu, None) for nw in directions), alpha,
                  variance_at, noise.kind, prepared.mar)


def _edges_solved_by_pilots(G: np.ndarray, pilots,
                            cfg: SolverConfig) -> np.ndarray:
    """(p, p) mask of the graph edges whose partner's pilot solves them.

    `pilots` holds the result or the error of every column's pilot, and
    `cfg` the penalty of the p - 1 columns every pilot and edge regresses on
    (see `resolve_config`).  Pilot t regresses z_t on Z without t, and edge
    (t, k) on Z without t and k, at the same penalty, so where pilot t's
    beta is 0 at k the two problems share every free coordinate but k.  Entry
    (t, k) is True when pilot t did not fail, its beta is 0 at k, its l1
    norm lies strictly below the edge's radius, and the edge's KKT residual
    there, which is pilot t's residual with entry k dropped, is at most
    ``cfg.tol``: that beta is then a stationary point of the edge's problem,
    strictly inside its ball.  Every step is an elementwise or row operation
    on (p, p) arrays.

    The residual takes each row's gradient by one gemv and reads it entry
    by entry as `lasso._kkt_residual_stack` does inside the ball, so it is
    the residual the edge's own row reports at that beta, bit for bit; the
    largest entry other than k is a top-2 lookup.  The edge's radius is an
    explicit ``cfg.radius``, or its `default_radius`: twice the sum of pilot
    t's radius terms less term k, since the edge's b is pilot t's with
    entry k zeroed.  That difference and the edge row's own sum, both over
    the same terms, differ by rounding of at most about p eps times the
    pilot's sum, so the pilot's l1 norm must stay below the difference by
    (2 p + 4) eps times the pilot's radius: no edge is taken unless its
    pilot lies strictly inside the radius its own row would compute.
    """
    failed = np.array([isinstance(nw, NumericalError) for nw in pilots])
    B = _pilot_betas(pilots)
    # row t is pilot t's b: G[:, t] with entry t read as 0 (G is symmetric)
    b = G.copy()
    np.fill_diagonal(b, 0.0)
    grad = np.matmul(G, B[:, :, None])[:, :, 0] - b
    np.fill_diagonal(grad, 0.0)
    resid = np.where(B != 0.0, np.abs(np.sign(B) * grad + cfg.penalty),
                     np.maximum(np.abs(grad) - cfg.penalty, 0.0))
    l1 = np.abs(B).sum(axis=1)
    if cfg.radius is None:
        terms = 2.0 * _radius_terms(G, b)
        pilot_radius = terms.sum(axis=1)[:, None]
        margin = (2 * len(G) + 4) * np.finfo(np.float64).eps * pilot_radius
        inside = l1[:, None] < pilot_radius - terms - margin
    else:
        inside = (l1 < cfg.radius)[:, None]
    return ~failed[:, None] & (B == 0.0) & inside & \
        (_max_but_one(resid) <= cfg.tol)


def _pilot_betas(pilots) -> np.ndarray:
    """Row t is pilot t's beta, or 0 where pilot t failed."""
    p = len(pilots)
    return np.array([np.zeros(p) if isinstance(nw, NumericalError) else nw.mu
                     for nw in pilots])


def _max_but_one(A: np.ndarray) -> np.ndarray:
    """Entry (t, k) is the largest entry of row t of A other than column k."""
    rows = np.arange(len(A))
    top = np.argmax(A, axis=1)
    first = A[rows, top]
    rest = A.copy()
    rest[rows, top] = -np.inf
    second = rest.max(axis=1)
    return np.where(np.arange(A.shape[1]) == top[:, None], second[:, None],
                    first[:, None])


def graph_tables(Z: np.ndarray, gamma: np.ndarray, sources,
                 alpha: float = 0.05, cfg: SolverConfig = SolverConfig(),
                 variance_at: str = "debiased") -> Iterator[DebiasTable]:
    """Yield the node graph's table of each source, in source order.

    Source k's table is ``run_inference(Dataset(y=Z[:, k], Z=Z[:, keep]),
    NoiseSpec.known(gamma[keep]), range(p - 1), alpha, cfg, variance_at)``
    with keep the columns other than k, in the columns of Z: its cells are
    indexed by partner column t != k, its `noise_var` is `gamma`, and its
    pilot's `beta` and every cell's `mu` have length p and are 0 at k.
    Every regression is a row of G = ``corrected_gram(Z, gamma)``.  The
    pilots ``(t, (t,))`` of all p columns are solved first, in one
    `fit_nodewise_jobs` stream.  Edge (t, k) takes pilot t's `beta` as its
    `mu` where that beta already solves the edge (see
    `_edges_solved_by_pilots`); every other edge is a job ``(t, (k,))`` of
    one more stream, fed across all sources in source and partner order.
    A refit edge and a pilot equal the regression solved alone, so they
    and the node rows differ from `run_inference` only by rounding, as the
    cells' sums run over the p columns of Z; a reused edge is a solution of
    its problem to the solver tolerance, not the solver's own iterate.
    Each pilot's residual z_t - Z beta_t is formed once for the whole
    graph; only a refit edge, and a partner inside its source's pilot
    support, forms a residual of its own.

    Errors surface in source order: source k's failed pilot raises when
    its table is due, after every earlier table, and a refit's or a cell's
    in partner order as its table forms.  A failed pilot of a column that
    is only a partner is never raised: its edges are refit.
    """
    _check_settings(alpha, variance_at)
    Z = np.asarray(Z, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    if Z.ndim != 2:
        raise InputError("Z must be a matrix")
    n, p = Z.shape
    if gamma.shape != (p,):
        raise InputError(f"gamma has shape {gamma.shape}, expected ({p},)")
    sources = [int(j) for j in sources]
    if len(set(sources)) != len(sources):
        raise InputError("source set has duplicates")
    for j in sources:
        if not 0 <= j < p:
            raise InputError(f"source column {j} out of range for p={p}")
    if not sources:
        return
    # every source's data and noise checks, as its first regression makes them
    Dataset(y=Z[:, sources[0]], Z=np.delete(Z, sources[0], axis=1))
    NoiseSpec.known(gamma)
    G = corrected_gram(Z, gamma)
    pilots = list(fit_nodewise_jobs(G, n, ((t, (t,)) for t in range(p)), cfg,
                                    raise_errors=False))
    reused = _edges_solved_by_pilots(G, pilots, resolve_config(cfg, n, p - 1))

    def partners(k):
        return (*range(k), *range(k + 1, p))

    refits = fit_nodewise_jobs(G, n, (
        (t, (k,)) for k in sources for t in partners(k) if not reused[t, k]),
        cfg)
    # column-major like a source's own design Z[:, keep], so the cells'
    # products round closest to that design's
    design = np.asfortranarray(Z)
    # row t is z_t - Z beta_t for pilot t, formed once: the resid_dir of
    # every edge that takes pilot t, and source t's resid_out at every
    # partner its pilot leaves at 0
    nodes = _residuals(design.T, design, _pilot_betas(pilots))
    for k in sources:
        if isinstance(pilots[k], NumericalError):
            raise pilots[k]
        directions = ((t, pilots[t].mu, nodes[t]) if reused[t, k]
                      else (t, next(refits).mu, None) for t in partners(k))
        yield _table(design[:, k], design, gamma, pilots[k].fit, directions,
                     alpha, variance_at, resid_out=nodes[k])


@dataclass(frozen=True)
class PreparedPilot:
    """Effective design, resolved noise variances, their Gram, the pilot fit.

    `gram` is ``corrected_gram(design, noise_var)``, the one corrected Gram
    of the regression: the pilot solves on it, and the nodewise regression
    of target j on its (-j, -j) block with b its column j.
    """

    design: np.ndarray
    noise_var: np.ndarray
    gram: np.ndarray
    fit: FitResult
    mar: mar_mod.MarEstimate | None


def prepare_pilot(data: Dataset, noise: NoiseSpec,
                  cfg: SolverConfig = SolverConfig()) -> PreparedPilot:
    """Resolve the noise model, form the corrected Gram, fit the pilot.

    In missing-at-random mode this estimates the missingness rate, rescales
    the zero-filled design, and estimates the noise variances; otherwise the
    known variances are validated against the design.  The returned fit is
    exactly the pilot used by `run_inference` under the same inputs.
    """
    p = data.p
    mar_est = None
    if noise.kind == "mar":
        if data.mask is None:
            raise InputError("missing-at-random inference requires a mask")
        mar_est = mar_mod.estimate(data)
        Z_eff = mar_est.design
        noise_var = mar_est.noise_var
    else:
        if data.mask is not None:
            raise InputError("mask is only meaningful in missing-at-random mode")
        if noise.noise_var.shape != (p,):
            raise InputError(
                f"noise_var has length {noise.noise_var.shape[0]}, expected {p}")
        Z_eff = data.Z
        noise_var = noise.noise_var
    G = corrected_gram(Z_eff, noise_var)
    b = Z_eff.T @ data.y / data.n
    pilot = fit_corrected_lasso(b, G, resolve_config(cfg, data.n, data.p))
    return PreparedPilot(design=Z_eff, noise_var=noise_var, gram=G, fit=pilot,
                         mar=mar_est)
