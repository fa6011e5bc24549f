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
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import mar as mar_mod
from .errors import DegeneracyError, InputError, NumericalError
from .lasso import (
    Dataset,
    FitResult,
    NoiseSpec,
    SolverConfig,
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
    """Inference results for a target set, plus everything a bootstrap needs."""

    cells: tuple[DebiasCell, ...]
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
        return np.column_stack([c.scores for c in self.cells])


class _Score:
    """The theta-free terms of the column-j score, validated and formed once.

    `resid_dir` is z_j - Z mu and `slope` the debias denominator.  Given y
    and the pilot, `resid_out` is y - Z beta and `const` is
    mu'(noise_var * beta), with beta the pilot whose j-th entry is zeroed.
    """

    def __init__(self, Z, noise_var, mu, j, y=None, pilot_beta=None):
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
        self.j = j
        self.z_j = Z[:, j]
        self.noise_var_j = noise_var[j]
        self.resid_dir = self.z_j - Z @ mu
        self.slope = float(self.resid_dir @ self.z_j / n - noise_var[j])
        if y is None:
            return
        y = np.asarray(y, dtype=np.float64)
        beta = np.array(pilot_beta, dtype=np.float64)
        if y.shape != (n,):
            raise InputError("y and Z have mismatched shapes")
        if beta.shape != (p,):
            raise InputError("pilot_beta length must match the column count of Z")
        beta[j] = 0.0
        self.resid_out = y - Z @ beta
        self.const = float(mu @ (noise_var * beta))

    def root(self) -> float:
        if abs(self.slope) < DEGENERACY_TOL:
            raise DegeneracyError(
                f"score slope {self.slope:.3e} is numerically zero for "
                f"column {self.j}", coordinate=self.j)
        n = self.z_j.shape[0]
        num = float(self.resid_dir @ self.resid_out) / n - self.const
        return num / self.slope

    def values(self, theta) -> np.ndarray:
        return (self.resid_dir * (self.resid_out - theta * self.z_j)
                + self.noise_var_j * theta - self.const)


def score_slope(Z: np.ndarray, noise_var: np.ndarray, mu: np.ndarray,
                j: int) -> float:
    """Negative derivative of the mean score in theta (the debias denominator)."""
    return _Score(Z, noise_var, mu, j).slope


def score_values(y, Z, noise_var, pilot_beta, mu, j, theta) -> np.ndarray:
    """Per-observation scores psi_i(theta) for target column j."""
    return _Score(Z, noise_var, mu, j, y, pilot_beta).values(theta)


def debias_coordinate(y, Z, noise_var, pilot_beta, mu, j) -> float:
    """Exact root of the mean orthogonalized score for column j."""
    return _Score(Z, noise_var, mu, j, y, pilot_beta).root()


def plugin_variance(raw_scores: np.ndarray, slope: float,
                    coordinate: int | None = None) -> float:
    """Plug-in variance slope^{-2} * mean(psi^2) of the debiased estimate.

    `coordinate`, the target column if known, is named by a zero variance.
    """
    raw_scores = np.asarray(raw_scores, dtype=np.float64)
    if raw_scores.ndim != 1 or raw_scores.size == 0:
        raise InputError("raw_scores must be a nonempty vector")
    var = float(np.mean(raw_scores ** 2)) / slope ** 2
    if not math.isfinite(var):
        raise NumericalError("non-finite plug-in variance")
    if var == 0.0:
        where = "" if coordinate is None else f" for column {coordinate}"
        raise DegeneracyError(f"plug-in variance is exactly zero{where}",
                              coordinate=coordinate)
    return var


def pointwise_ci(estimate: float, sd: float, n: int,
                 alpha: float) -> tuple[float, float]:
    """Normal interval estimate -+ q_{1-alpha/2} * sd / sqrt(n)."""
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    if not sd > 0:
        raise InputError("sd must be positive")
    if n < 1:
        raise InputError("n must be at least 1")
    half = float(ndtri(1.0 - alpha / 2.0)) * sd / math.sqrt(n)
    return estimate - half, estimate + half


def _target_cell(y, Z, noise_var, pilot_beta, j, mu, alpha,
                 variance_at) -> DebiasCell:
    score = _Score(Z, noise_var, mu, j, y, pilot_beta)
    theta = score.root()
    raw = score.values(theta)
    if variance_at == "debiased":
        centred = raw
    else:
        centred = score.values(float(pilot_beta[j]))
    sd = math.sqrt(plugin_variance(centred, score.slope, coordinate=j))
    scores = -raw / (sd * score.slope)
    lo, hi = pointwise_ci(theta, sd, Z.shape[0], alpha)
    return DebiasCell(j=j, estimate=theta, slope=score.slope, sd=sd,
                      ci_low=lo, ci_high=hi, scores=scores, mu=mu)


def _check_settings(alpha: float, variance_at: str) -> None:
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    if variance_at not in VARIANCE_CONVENTIONS:
        raise InputError(f"variance_at must be one of {VARIANCE_CONVENTIONS}")


def _table(y, design, noise_var, pilot, directions, alpha, variance_at,
           noise_kind="known", mar=None) -> DebiasTable:
    """One cell per nodewise direction (j, mu) of the regression of y on
    the design, in order."""
    cells = tuple(
        _target_cell(y, design, noise_var, pilot.beta, j, mu, alpha,
                     variance_at)
        for j, mu in directions)
    return DebiasTable(cells=cells, alpha=alpha, n=y.shape[0],
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
    directions = fit_nodewise_jobs(prepared.gram, prepared.noise_var, data.n,
                                   targets, cfg)
    return _table(data.y, prepared.design, prepared.noise_var, prepared.fit,
                  ((nw.j, nw.mu) for nw in directions), alpha, variance_at,
                  noise.kind, prepared.mar)


def _edges_solved_by_pilots(G: np.ndarray, gamma: np.ndarray, pilots,
                            cfg: SolverConfig) -> np.ndarray:
    """(p, p) mask of the graph edges whose partner's pilot solves them.

    `pilots` holds the result or the error of every column's pilot, and
    `cfg` the penalty of the p - 1 columns every pilot and edge regresses on
    (see `resolve_config`).  Pilot t regresses z_t on Z without t, and edge
    (t, k) on Z without t and k, at the same penalty, so where pilot t's
    beta is 0 at k the two problems share every free coordinate but k.  Entry
    (t, k) is True when pilot t did not fail, its beta is 0 at k, its l1
    norm lies strictly below the edge's radius (an explicit ``cfg.radius``,
    or a floor of the edge's default radius), and the edge's KKT residual
    there, which is pilot t's residual with entry k dropped, is at most
    ``cfg.tol``: that beta is then a stationary point of the edge's problem,
    strictly inside its ball.  Every step is an elementwise or row operation
    on (p, p) arrays.

    The residual takes each row's gradient by one gemv and reads it entry
    by entry as `lasso._kkt_residual_stack` does inside the ball, so it is
    the residual the edge's own row reports at that beta, bit for bit; the
    largest entry other than k is a top-2 lookup.  The floor is
    `radius_floor` of the edge's b, pilot t's b with entry k zeroed, by a
    rank-one update of pilot t's b'Gb, and stays a certified lower bound on
    the edge's default radius: its c is max(gamma) + 1, no less than the
    edge's own, and a larger c only shrinks the bound; b'b is summed
    without cancellation from prefix and suffix sums of the squares; and
    b'Gb gets an allowance of 2 (p + 4) eps |b|'|G||b|, which covers the
    update's rounding, so the denominator is an upper bound.  What rounding
    is left is relative of order p eps, inside the 1e-6 shrink.
    """
    p = len(G)
    failed = np.array([isinstance(nw, NumericalError) for nw in pilots])
    B = np.array([np.zeros(p) if bad else nw.mu
                  for nw, bad in zip(pilots, failed)])
    # row t is pilot t's b: G[:, t] with entry t read as 0 (G is symmetric)
    b = G.copy()
    np.fill_diagonal(b, 0.0)
    grad = np.matmul(G, B[:, :, None])[:, :, 0] - b
    np.fill_diagonal(grad, 0.0)
    resid = np.where(B != 0.0, np.abs(np.sign(B) * grad + cfg.penalty),
                     np.maximum(np.abs(grad) - cfg.penalty, 0.0))
    l1 = np.abs(B).sum(axis=1)
    if cfg.radius is None:
        inside = l1[:, None] < _edge_radius_floors(G, gamma, b)
    else:
        inside = (l1 < cfg.radius)[:, None]
    return ~failed[:, None] & (B == 0.0) & inside & \
        (_max_but_one(resid) <= cfg.tol)


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


def _edge_radius_floors(G: np.ndarray, gamma: np.ndarray,
                        b: np.ndarray) -> np.ndarray:
    """Entry (t, k) bounds the default radius of edge (t, k) from below;
    row t of b is pilot t's b.  See `_edges_solved_by_pilots`."""
    p = len(G)
    sq = b * b
    bb = np.zeros((p, p))
    bb[:, 1:] = np.cumsum(sq[:, :-1], axis=1)
    bb[:, :-1] += np.cumsum(sq[:, :0:-1], axis=1)[:, ::-1]
    a = np.abs(b)
    inf_norm = _max_but_one(a)
    Gb = b @ G
    bGb = (b * Gb).sum(axis=1)[:, None] - 2.0 * b * Gb + sq * np.diag(G)
    slack = np.finfo(np.float64).eps * (2 * p + 8) * \
        (a * (a @ np.abs(G))).sum(axis=1)
    c = float(np.max(gamma, initial=0.0)) + 1.0
    bAb = bGb + slack[:, None] + c * bb
    with np.errstate(divide="ignore", invalid="ignore"):
        floor = 2.0 * bb * bb / (inf_norm * bAb) * (1.0 - 1e-6)
    return np.where(bb > 0.0, floor, 0.0)


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
    pilots ``(t, (t,))`` of all p columns are solved first, the sources'
    in one `fit_nodewise_jobs` stream and, with a deferred radius, the
    other columns' in another.  Edge (t, k) takes pilot t's `beta` as its
    `mu` where that beta already solves the edge (see
    `_edges_solved_by_pilots`); every other edge is a job ``(t, (k,))`` of
    one more stream, fed across all sources in source and partner order.
    A refit edge and a pilot equal the regression solved alone, so they
    and the node rows differ from `run_inference` only by rounding, as the
    cells' sums run over the p columns of Z; a reused edge is a solution of
    its problem to the solver tolerance, not the solver's own iterate.

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
    # a source's pilot resolves its radius, which its node record prints;
    # the pilot of a column that is only a partner defers it, as an edge
    # does, and gives the same beta
    partners_only = sorted(set(range(p)) - set(sources))
    pilots = {}
    for columns, defer in ((sources, False), (partners_only, True)):
        pilots.update(zip(columns, fit_nodewise_jobs(
            G, gamma, n, ((t, (t,)) for t in columns), cfg,
            raise_errors=False, defer_pilots=defer)))
    pilots = [pilots[t] for t in range(p)]
    reused = _edges_solved_by_pilots(G, gamma, pilots,
                                     resolve_config(cfg, n, p - 1))

    def partners(k):
        return (*range(k), *range(k + 1, p))

    refits = fit_nodewise_jobs(G, gamma, n, (
        (t, (k,)) for k in sources for t in partners(k) if not reused[t, k]),
        cfg)
    # column-major like a source's own design Z[:, keep], so the cells'
    # products round closest to that design's
    design = np.asfortranarray(Z)
    for k in sources:
        if isinstance(pilots[k], NumericalError):
            raise pilots[k]
        directions = ((t, pilots[t].mu if reused[t, k] else next(refits).mu)
                      for t in partners(k))
        yield _table(design[:, k], design, gamma, pilots[k].fit, directions,
                     alpha, variance_at)


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
