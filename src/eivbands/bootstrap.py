"""Gaussian multiplier bootstrap for simultaneous confidence bands.

Conditional on the data, draw i.i.d. standard normal multipliers g_i and form

    G_j = n^{-1/2} sum_i g_i * scores[i, j]

for every target column j; the band critical value is the (1 - alpha)
conditional quantile of max_j |G_j|, taken as the ceil((1 - alpha) * B)-th
ascending order statistic over B draws.

Multipliers come from a counter-based stream keyed by (seed, draw index,
observation index): draw b occupies positions [b*n, (b+1)*n) of the stream
keyed (seed, multiplier-domain), so every multiplier is a pure function of
(seed, b, i), whatever the chunking.  The maxima are not: the product
g @ scores of a chunk of draws can round differently for another chunk size,
so draws are taken in chunks of the fixed `_CHUNK_DRAWS`, which keeps the
maxima deterministic for a given (scores, draws, seed).

When the noise variances were estimated from missingness, each score column
first gets a correction for the sampling error of those estimates (see
`adjust_scores_for_estimated_noise`); the per-coordinate standard deviations
are kept from the unadjusted representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .debias import DebiasTable
from .errors import InputError

_CHUNK_DRAWS = 4096


@dataclass(frozen=True)
class MultiplierDraws:
    """Bootstrap maxima max_j |G_j|, one per draw, plus the stream identity."""

    maxima: np.ndarray
    seed: int
    draws: int


@dataclass(frozen=True)
class BandResult:
    """Simultaneous confidence band over a target set."""

    targets: tuple[int, ...]
    estimates: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    critical_value: float
    alpha: float
    draws: int
    seed: int


def multiplier_maxima(scores: np.ndarray, draws: int,
                      seed: int) -> MultiplierDraws:
    """Max-statistic draws of the multiplier process over the score columns."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[0] < 1 or scores.shape[1] < 1:
        raise InputError("scores must be a nonempty n x m matrix")
    if not np.all(np.isfinite(scores)):
        raise InputError("scores contain non-finite entries")
    if draws < 1:
        raise InputError("need at least one bootstrap draw")
    n = scores.shape[0]
    root_n = math.sqrt(n)
    bits = rng.stream(seed, rng.DOMAIN_MULTIPLIER)
    out = np.empty(draws)
    done = 0
    while done < draws:
        take = min(_CHUNK_DRAWS, draws - done)
        g = rng.normals(bits, take * n).reshape(take, n)
        stat = np.abs(g @ scores) / root_n
        out[done:done + take] = stat.max(axis=1)
        done += take
    return MultiplierDraws(maxima=out, seed=int(seed), draws=int(draws))


def critical_value(draws: MultiplierDraws, alpha: float) -> float:
    """ceil((1 - alpha) * B)-th ascending order statistic of the maxima.

    The index is computed as ceil((1 - alpha) * B - 1e-9) clamped to [1, B]
    so exact-integer products are not bumped to the next order statistic by
    float rounding.
    """
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    maxima = np.asarray(draws.maxima, dtype=np.float64)
    B = maxima.shape[0]
    if B < 1:
        raise InputError("empty bootstrap draws")
    k = int(math.ceil((1.0 - alpha) * B - 1e-9))
    k = min(max(k, 1), B)
    return float(np.sort(maxima)[k - 1])


def adjust_scores_for_estimated_noise(scores, influence, targets, mus,
                                      pilot_beta, slopes, sds) -> np.ndarray:
    """Correct bootstrap scores for estimated noise variances.

    The score column for target j gets, for each observation i,

        scores[i, col] - (e_j - mu_j)' diag(influence[i, :]) pilot_beta
                         / (sd_j * slope_j)

    and is then re-centered to empirical mean zero.  When the correction
    vanishes identically (influence all zero or pilot all zero) the input is
    returned unchanged, exactly.
    """
    scores = np.asarray(scores, dtype=np.float64)
    influence = np.asarray(influence, dtype=np.float64)
    pilot_beta = np.asarray(pilot_beta, dtype=np.float64)
    if scores.ndim != 2 or influence.ndim != 2:
        raise InputError("scores and influence must be matrices")
    n, m = scores.shape
    if influence.shape[0] != n:
        raise InputError("influence row count must match scores")
    p = influence.shape[1]
    if pilot_beta.shape != (p,):
        raise InputError("pilot_beta length must match influence columns")
    if not (len(targets) == len(mus) == len(slopes) == len(sds) == m):
        raise InputError("need one target, mu, slope and sd per score column")

    weighted = influence * pilot_beta[None, :]
    if not weighted.any():
        return scores
    adjusted = np.empty_like(scores)
    for col, (j, mu, slope, sd) in enumerate(zip(targets, mus, slopes, sds)):
        mu = np.asarray(mu, dtype=np.float64)
        if mu.shape != (p,) or not 0 <= j < p:
            raise InputError("each mu must have one entry per design column")
        correction = weighted[:, j] - weighted @ mu
        adjusted[:, col] = scores[:, col] - correction / (sd * slope)
    adjusted -= adjusted.mean(axis=0)
    return adjusted


def band_over(cells, scores: np.ndarray, alpha: float, n: int, draws: int,
              seed: int) -> BandResult:
    """Simultaneous band around the cells' estimates, one score column each.

    The half-width of cell k is c* sd_k / sqrt(n), with c* the critical
    value of the multiplier maxima of `scores` at level alpha.
    """
    if not cells or np.shape(scores)[1:] != (len(cells),):
        raise InputError("need one score column per cell")
    c_star = critical_value(multiplier_maxima(scores, draws, seed), alpha)
    est = np.array([c.estimate for c in cells])
    sds = np.array([c.sd for c in cells])
    half = c_star * sds / math.sqrt(n)
    return BandResult(targets=tuple(c.j for c in cells), estimates=est,
                      lower=est - half, upper=est + half,
                      critical_value=c_star, alpha=alpha,
                      draws=int(draws), seed=int(seed))


def simultaneous_bands(table: DebiasTable, draws: int, seed: int) -> BandResult:
    """Simultaneous band over the table's targets at the table's alpha."""
    if not table.cells:
        raise InputError("table has no cells")
    scores = table.score_matrix()
    if table.mar is not None:
        scores = adjust_scores_for_estimated_noise(
            scores, table.mar.influence,
            [c.j for c in table.cells], [c.mu for c in table.cells],
            table.pilot.beta,
            [c.slope for c in table.cells], [c.sd for c in table.cells])
    return band_over(table.cells, scores, table.alpha, table.n, draws, seed)
