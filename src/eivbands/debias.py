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

A table's m targets are one batch over (m, n) row arrays: the products Z mu
and Z beta are one stacked matmul, a gemv per row and never a gemm; every
dot is a ddot per row pair; the slopes, roots, scores and variances are row
operations; and the quantile is one `ndtri` per table.  Rows whose target
the pilot leaves at 0 share one y - Z beta.  The public `score_slope`,
`score_values` and `debias_coordinate` are one-row calls of the same batch.
One rule keeps the bits: every product is formed per row, on the row's own
operands (the gathered z_j among them), so a row does not depend on which
other rows share its table, and each one-row call equals its row of the
batch.  The table keeps the batch's arrays as they are formed: row k of
each is target k's.

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
from .errors import (DegeneracyError, EivbandsError, InputError,
                     NumericalError, check_integer)
from .lasso import (
    Dataset,
    FitResult,
    NoiseSpec,
    SolverConfig,
    _matvec,
    _radius_terms,
    _rowdot,
    corrected_gram,
    fit_corrected_lasso,
    resolve_config,
)
from .nodewise import fit_nodewise_jobs

# |slope| below this is treated as a statistical degeneracy.
DEGENERACY_TOL = 1e-10

VARIANCE_CONVENTIONS = ("debiased", "pilot")


@dataclass(frozen=True)
class DebiasTable:
    """Inference results for a target set, plus everything a bootstrap needs.

    Row k of each per-target array is target `targets[k]`'s: its debiased
    `estimates`, score `slopes`, `sds` and pointwise interval `ci_low` to
    `ci_high`, each of shape (m,); `mus`, the (m, p) nodewise directions
    (row k 0 at targets[k]); and `scores`, the (m, n) standardized
    per-observation scores -psi_i(estimate) / (sd * slope).  A score row has
    mean 0 to roundoff, and empirical variance exactly 1 under the
    "debiased" variance convention.  Every per-target array is read-only,
    and their counts must agree.
    """

    targets: tuple[int, ...]
    estimates: np.ndarray
    slopes: np.ndarray
    sds: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    scores: np.ndarray
    mus: np.ndarray
    alpha: float
    n: int
    noise_var: np.ndarray
    pilot: FitResult
    variance_at: str
    mar: mar_mod.MarEstimate | None = None

    def __post_init__(self):
        m = len(self.targets)
        shapes = dict.fromkeys(("estimates", "slopes", "sds", "ci_low",
                                "ci_high"), (m,))
        shapes.update(scores=(m, self.n), mus=(m, len(self.noise_var)))
        for name, shape in shapes.items():
            value = np.asarray(getattr(self, name), dtype=np.float64)
            if value.shape != shape:
                raise InputError(f"table {name} has shape {value.shape}, "
                                 f"expected {shape}")
            # a read-only view, so that no holder of the table can write it
            value = value.view()
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def noise_kind(self) -> str:
        return "known" if self.mar is None else "mar"


def _residuals(lhs: np.ndarray, Z: np.ndarray,
               coefs: np.ndarray) -> np.ndarray:
    """Row i is lhs[i] - Z @ coefs[i]: one gemv per row, never a gemm, so
    each row is the product of its own 1-d call bit for bit."""
    out = np.matmul(Z, coefs[:, :, None])[:, :, 0]
    return np.subtract(lhs, out, out=out)


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
        self.slopes = _rowdot(self.resid_dir, Z.T[js]) / n - \
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
        self.consts = _rowdot(M, noise_var * beta)

    def roots(self) -> np.ndarray:
        dots = _rowdot(self.resid_dir, self.resid_out)
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


def _check_variance(var: float, coordinate: int) -> None:
    if not math.isfinite(var):
        raise NumericalError("non-finite plug-in variance")
    if var == 0.0:
        raise DegeneracyError("plug-in variance is exactly zero for column "
                              f"{coordinate}", coordinate=coordinate)


def _variances(centred: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """Row i's slopes[i]^{-2} mean(centred[i]^2), every operation a row's
    own: each slope is squared exactly, as slope * slope."""
    return np.mean(centred ** 2, axis=1) / (slopes * slopes)


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


def _quantile(alpha: float) -> float:
    """The normal quantile q_{1-alpha/2}, finite for every alpha accepted."""
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    if 1.0 - alpha / 2.0 == 1.0:
        raise InputError(f"alpha {alpha} is too small: 1 - alpha/2 rounds to "
                         "1, where the normal quantile is infinite")
    return float(ndtri(1.0 - alpha / 2.0))


def _check_settings(alpha: float, variance_at: str) -> None:
    _quantile(alpha)
    if variance_at not in VARIANCE_CONVENTIONS:
        raise InputError(f"variance_at must be one of {VARIANCE_CONVENTIONS}")


def _cells(y, design, noise_var, pilot_beta, directions, q, variance_at,
           resid_out=None) -> dict:
    """The per-target fields of the `DebiasTable` of the nonempty
    directions (j, mu, resid_dir), formed in one batch; a degenerate target
    raises in direction order."""
    n = y.shape[0]
    js, mus, dirs = zip(*directions)
    M = np.array(mus)
    # a degenerate row divides by 0 here; it raises below, in its turn
    with np.errstate(all="ignore"):
        score = _Scores(design, noise_var, js, M, dirs, y, pilot_beta,
                        resid_out)
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
    for j, slope, v in zip(js, slopes.tolist(), var.tolist()):
        _check_slope(slope, j)
        _check_variance(v, j)
    return {"targets": js, "estimates": thetas, "slopes": slopes, "sds": sd,
            "ci_low": thetas - half, "ci_high": thetas + half,
            "scores": scores, "mus": M}


def _table(y, design, noise_var, pilot, directions, alpha, variance_at,
           mar=None, resid_out=None) -> DebiasTable:
    """One row per direction (j, mu, resid_dir) of the regression of y on
    the design, in order, formed in one batch; resid_dir is z_j - Z mu
    where already known, else None, and `resid_out`, if given, is
    y - Z pilot.beta.  The directions are pulled first: an error in
    pulling one raises after the rows pulled before it are formed, so an
    earlier degenerate row raises first."""
    q = _quantile(alpha)
    pulled = []
    try:
        for direction in directions:
            pulled.append(direction)
    except EivbandsError:
        if pulled:
            _cells(y, design, noise_var, pilot.beta, pulled, q, variance_at,
                   resid_out)
        raise
    return DebiasTable(**_cells(y, design, noise_var, pilot.beta, pulled, q,
                                variance_at, resid_out),
                       alpha=alpha, n=y.shape[0], noise_var=noise_var,
                       pilot=pilot, variance_at=variance_at, mar=mar)


def _columns(js, p: int, what: str) -> list[int]:
    """The distinct integer columns `js` of a p-column design, as ints."""
    js = list(js)
    for j in js:
        check_integer(f"{what} column", j)
    if len(set(js)) != len(js):
        raise InputError(f"{what} set has duplicates")
    for j in js:
        if not 0 <= j < p:
            raise InputError(f"{what} column {j} out of range for p={p}")
    return [int(j) for j in js]


def run_inference(data: Dataset, noise: NoiseSpec, targets,
                  alpha: float = 0.05,
                  cfg: SolverConfig = SolverConfig(),
                  variance_at: str = "debiased") -> DebiasTable:
    """Full pipeline: pilot fit, nodewise directions, debiased targets.

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
    The config is resolved once, for the n x p design.  The nodewise fits
    are one `nodewise.fit_nodewise_jobs` stream on the pilot's Gram, equal
    to fitting them one at a time up to rounding.
    """
    _check_settings(alpha, variance_at)
    targets = _columns(targets, data.p, "target")
    if not targets:
        raise InputError("target set is empty")
    cfg = resolve_config(cfg, data.n, data.p)
    prepared = prepare_pilot(data, noise, cfg)
    directions = fit_nodewise_jobs(prepared.gram, targets, cfg)
    return _table(data.y, prepared.design, prepared.noise_var, prepared.fit,
                  ((nw.j, nw.mu, None) for nw in directions), alpha,
                  variance_at, prepared.mar)


def _edges_solved_by_pilots(G: np.ndarray, pilots,
                            cfg: SolverConfig) -> np.ndarray:
    """(p, p) mask of the graph edges whose partner's pilot solves them.

    `pilots` holds the result or the error of every column's pilot, and
    `cfg` the graph's one resolved config, which every pilot and edge
    solves at (see `graph_tables`).  Pilot t regresses z_t on Z without t,
    and edge (t, k) on Z without t and k, so where pilot t's beta is 0 at
    k the two problems share every free coordinate but k.  Entry (t, k) is
    True when pilot t did not fail, its beta is 0 at k, its l1 norm lies
    strictly below the edge's radius, and the edge's KKT residual there,
    which is pilot t's residual with entry k dropped, is at most
    ``cfg.tol``: that beta is then a stationary point of the edge's
    problem, strictly inside its ball.  Every step is one matrix product or
    an elementwise or row operation on (p, p) arrays.

    The residual takes the p pilots' gradients by one matrix product and
    reads them entry by entry as `lasso._kkt_residual_stack` does inside
    the ball, so it is the residual the edge's own row reports at that
    beta up to the rounding of that product; the largest entry other than
    k is a top-2 lookup.  The edge's radius is an explicit ``cfg.radius``,
    or its `default_radius`: twice the sum of pilot t's radius terms less
    term k, since the edge's b is pilot t's with entry k zeroed.  That
    difference and the edge row's own sum, both over the same terms,
    differ by rounding of at most about p eps times the pilot's sum, so the
    pilot's l1 norm must stay below the difference by (2 p + 4) eps times
    the pilot's radius: no edge is taken unless its pilot lies strictly
    inside the radius its own row would compute.
    """
    failed = np.array([isinstance(nw, NumericalError) for nw in pilots])
    B = _pilot_betas(pilots)
    # row t is pilot t's b: G[:, t] with entry t read as 0 (G is symmetric)
    b = G.copy()
    np.fill_diagonal(b, 0.0)
    grad = _matvec(G, B, np.eye(len(G), dtype=bool)) - b
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
    with keep the columns other than k, in the columns of Z: its rows are
    indexed by partner column t != k, its `noise_var` is `gamma`, and its
    pilot's `beta` and every row of its `mus` have length p and are 0 at k.
    Every regression is a row of G = ``corrected_gram(Z, gamma)``, at one
    config resolved for p - 1 columns.  The pilots, jobs t of all p columns,
    are solved first, in one `fit_nodewise_jobs` stream.  Edge (t, k) takes
    pilot t's `beta` as its `mu` where that beta already solves the edge
    (see `_edges_solved_by_pilots`); every other edge is a job ``(t, k)`` of
    one more stream, fed across all sources in source and partner order.  A
    refit edge and a pilot equal the regression solved alone, so they and
    the node rows differ from `run_inference` only by rounding, as the
    tables' sums run over the p columns of Z; a reused edge is a solution of
    its problem to the solver tolerance, not the solver's own iterate.  Each
    pilot's residual z_t - Z beta_t is formed once for the whole graph; only
    a refit edge, and a partner inside its source's pilot support, forms a
    residual of its own.

    Errors surface in source order: source k's failed pilot raises when
    its table is due, after every earlier table, and a refit's or a row's
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
    sources = _columns(sources, p, "source")
    if not sources:
        return
    # every source's data and noise checks, as its first regression makes them
    Dataset(y=Z[:, sources[0]], Z=np.delete(Z, sources[0], axis=1))
    NoiseSpec.known(gamma)
    G = corrected_gram(Z, gamma)
    # every pilot and edge regresses on p - 1 columns, at one penalty
    cfg = resolve_config(cfg, n, p - 1)
    pilots = list(fit_nodewise_jobs(G, range(p), cfg, raise_errors=False))
    reused = _edges_solved_by_pilots(G, pilots, cfg)

    def partners(k):
        return (*range(k), *range(k + 1, p))

    refits = fit_nodewise_jobs(G, (
        (t, k) for k in sources for t in partners(k) if not reused[t, k]),
        cfg)
    # column-major like a source's own design Z[:, keep], so the rows'
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
