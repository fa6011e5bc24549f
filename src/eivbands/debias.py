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
from concurrent.futures import ProcessPoolExecutor
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
from .nodewise import fit_nodewise, fit_nodewise_stack, stack_size

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


def _design_args(Z, noise_var, mu, j):
    Z = np.asarray(Z, dtype=np.float64)
    noise_var = np.asarray(noise_var, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    if Z.ndim != 2:
        raise InputError("Z must be a matrix")
    p = Z.shape[1]
    if noise_var.shape != (p,):
        raise InputError(f"noise_var has shape {noise_var.shape}, expected ({p},)")
    if mu.shape != (p,):
        raise InputError(f"mu has shape {mu.shape}, expected ({p},)")
    if not 0 <= j < p:
        raise InputError(f"target column {j} out of range for p={p}")
    return Z, noise_var, mu


def _response_args(y, Z, pilot_beta):
    y = np.asarray(y, dtype=np.float64)
    pilot_beta = np.asarray(pilot_beta, dtype=np.float64)
    if y.shape != (Z.shape[0],):
        raise InputError("y and Z have mismatched shapes")
    if pilot_beta.shape != (Z.shape[1],):
        raise InputError("pilot_beta length must match the column count of Z")
    return y, pilot_beta


def score_slope(Z: np.ndarray, noise_var: np.ndarray, mu: np.ndarray,
                j: int) -> float:
    """Negative derivative of the mean score in theta (the debias denominator)."""
    Z, noise_var, mu = _design_args(Z, noise_var, mu, j)
    n = Z.shape[0]
    resid = Z[:, j] - Z @ mu
    return float(resid @ Z[:, j] / n - noise_var[j])


def _nuisance(pilot_beta: np.ndarray, j: int) -> np.ndarray:
    beta = np.asarray(pilot_beta, dtype=np.float64).copy()
    beta[j] = 0.0
    return beta


def score_values(y, Z, noise_var, pilot_beta, mu, j, theta) -> np.ndarray:
    """Per-observation scores psi_i(theta) for target column j."""
    Z, noise_var, mu = _design_args(Z, noise_var, mu, j)
    y, pilot_beta = _response_args(y, Z, pilot_beta)
    beta = _nuisance(pilot_beta, j)
    resid_dir = Z[:, j] - Z @ mu
    resid_out = y - Z @ beta
    const = float(mu @ (noise_var * beta))
    return (resid_dir * (resid_out - theta * Z[:, j])
            + noise_var[j] * theta - const)


def debias_coordinate(y, Z, noise_var, pilot_beta, mu, j) -> float:
    """Exact root of the mean orthogonalized score for column j."""
    Z, noise_var, mu = _design_args(Z, noise_var, mu, j)
    y, pilot_beta = _response_args(y, Z, pilot_beta)
    n = Z.shape[0]
    slope = score_slope(Z, noise_var, mu, j)
    if abs(slope) < DEGENERACY_TOL:
        raise DegeneracyError(
            f"score slope {slope:.3e} is numerically zero for column {j}",
            coordinate=j)
    beta = _nuisance(pilot_beta, j)
    resid_dir = Z[:, j] - Z @ mu
    num = float(resid_dir @ (y - Z @ beta)) / n - float(mu @ (noise_var * beta))
    return num / slope


def plugin_variance(raw_scores: np.ndarray, slope: float) -> float:
    """Plug-in variance slope^{-2} * mean(psi^2) of the debiased estimate."""
    raw_scores = np.asarray(raw_scores, dtype=np.float64)
    if raw_scores.ndim != 1 or raw_scores.size == 0:
        raise InputError("raw_scores must be a nonempty vector")
    var = float(np.mean(raw_scores ** 2)) / slope ** 2
    if not math.isfinite(var):
        raise NumericalError("non-finite plug-in variance")
    if var == 0.0:
        raise DegeneracyError("plug-in variance is exactly zero")
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


def _target_cell(y, Z, noise_var, pilot_beta, nw, alpha,
                 variance_at) -> DebiasCell:
    n, j = Z.shape[0], nw.j
    slope = score_slope(Z, noise_var, nw.mu, j)
    theta = debias_coordinate(y, Z, noise_var, pilot_beta, nw.mu, j)
    raw = score_values(y, Z, noise_var, pilot_beta, nw.mu, j, theta)
    if variance_at == "debiased":
        centred = raw
    else:
        centred = score_values(y, Z, noise_var, pilot_beta, nw.mu, j,
                               float(pilot_beta[j]))
    sd = math.sqrt(plugin_variance(centred, slope))
    scores = -raw / (sd * slope)
    lo, hi = pointwise_ci(theta, sd, n, alpha)
    return DebiasCell(j=j, estimate=theta, slope=slope, sd=sd,
                      ci_low=lo, ci_high=hi, scores=scores, mu=nw.mu)


def _target_cells(y, Z, noise_var, pilot_beta, targets, cfg, alpha,
                  variance_at) -> list[DebiasCell]:
    """Cells for a batch of targets, in order; more than one is stacked."""
    if len(targets) == 1:
        fits = [fit_nodewise(Z, noise_var, targets[0], cfg)]
    else:
        fits = fit_nodewise_stack(Z, noise_var, targets, cfg)
    return [_target_cell(y, Z, noise_var, pilot_beta, nw, alpha, variance_at)
            for nw in fits]


def _target_cells_payload(args):
    return _target_cells(*args)


def run_inference(data: Dataset, noise: NoiseSpec, targets,
                  alpha: float = 0.05,
                  cfg: SolverConfig = SolverConfig(),
                  variance_at: str = "debiased",
                  workers: int = 1) -> DebiasTable:
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
    workers : int
        Batches of target coordinates are processed in parallel when > 1.
        Results are identical for any worker count.

    Notes
    -----
    When `nodewise.stack_size` allows it for this design, the nodewise fits
    of up to that many targets are solved as one stack; the results are
    bit-identical to fitting them one at a time.  Each batch (one stack, or
    one target when stacking is off) is one unit of work for the workers.
    """
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    if variance_at not in VARIANCE_CONVENTIONS:
        raise InputError(f"variance_at must be one of {VARIANCE_CONVENTIONS}")
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
    Z_eff, noise_var, pilot = prepared.design, prepared.noise_var, prepared.fit
    n = data.n

    size = stack_size(p)
    payloads = [(data.y, Z_eff, noise_var, pilot.beta, targets[i:i + size],
                 cfg, alpha, variance_at)
                for i in range(0, len(targets), size)]
    if workers > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_target_cells_payload, payloads))
    else:
        batches = [_target_cells_payload(q) for q in payloads]
    cells = tuple(cell for batch in batches for cell in batch)

    return DebiasTable(cells=cells, alpha=alpha, n=n, noise_kind=noise.kind,
                       noise_var=noise_var, pilot=pilot,
                       variance_at=variance_at, mar=prepared.mar)


@dataclass(frozen=True)
class PreparedPilot:
    """Effective design, resolved noise variances, and the pilot fit."""

    design: np.ndarray
    noise_var: np.ndarray
    fit: FitResult
    mar: mar_mod.MarEstimate | None


def prepare_pilot(data: Dataset, noise: NoiseSpec,
                  cfg: SolverConfig = SolverConfig()) -> PreparedPilot:
    """Resolve the noise model and run the pilot corrected-lasso fit.

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

    n = data.n
    G = corrected_gram(Z_eff, noise_var)
    b = Z_eff.T @ data.y / n
    pilot_cfg = resolve_config(cfg, n, p, G, b)
    pilot = fit_corrected_lasso(b, G, pilot_cfg)
    return PreparedPilot(design=Z_eff, noise_var=noise_var, fit=pilot,
                         mar=mar_est)
