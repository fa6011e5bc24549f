"""Gaussian multiplier bootstrap for simultaneous confidence bands.

Conditional on the data, draw i.i.d. standard normal multipliers g_i and form

    G_j = n^{-1/2} sum_i g_i * scores[i, j]

for every target column j; the band critical value is the (1 - alpha)
conditional quantile of max_j |G_j|, taken as the ceil((1 - alpha) * B)-th
ascending order statistic over B draws.

Multipliers come from a counter-based stream keyed by (seed, draw index,
observation index): draw b occupies positions [b*n, (b+1)*n) of the stream
keyed (seed, multiplier-domain), so every multiplier is a pure function of
(seed, b, i), whatever the chunking.  They are drawn once per
(n, draws, seed), in row chunks of the fixed `_CHUNK_DRAWS` draws.

`simultaneous_bands`, the one band routine, feeds the score columns of one
table or a stream of tables to a `MaximaStream`, which takes them in any
number of feeds, so a target set far wider than n (every edge of `graph`)
never has to be held at once.  The stream buffers the columns into blocks
of the fixed `_BLOCK_COLUMNS`; for each block and draw chunk it forms
g @ block, takes |.| in place and keeps a running maximum per draw, and it
divides by sqrt(n) once, at the end.  That division is exact: dividing by
a positive constant is monotone under correct rounding, so max_j |x_j| /
sqrt(n) equals max_j (|x_j| / sqrt(n)) bit for bit.  Memory is
O(draws*n + n*block + chunk*block) whatever the number of columns.

The product g @ block can round differently for another chunk or block
shape, so both widths are fixed, and block boundaries fall every
`_BLOCK_COLUMNS` columns of the whole sequence, however the caller splits
its feeds.  The maxima are therefore a pure function of (scores, draws,
seed) for one BLAS build and thread count.  Up to `_BLOCK_COLUMNS` columns
make one block, so the product is exactly the unblocked g @ scores; with
more, a maximum can differ from the unblocked product in the last bit.

When the noise variances were estimated from missingness, a table's score
columns first get a correction for the sampling error of those estimates:
`adjust_scores_for_estimated_noise` takes the table and returns its corrected
score matrix.  The per-coordinate standard deviations are kept from the
unadjusted representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .debias import DebiasTable
from .errors import InputError, check_integer

_CHUNK_DRAWS = 4096
_BLOCK_COLUMNS = 256


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


class MaximaStream:
    """Running max_j |G_j| per draw over score columns fed in pieces.

    Feed n-row score matrices in column order with `feed`; `maxima` returns
    the draws over every column fed so far.  The result does not depend on
    how the columns were split into feeds.
    """

    def __init__(self, n: int, draws: int, seed: int):
        if n < 1:
            raise InputError("scores must be a nonempty n x m matrix")
        check_integer("draws", draws)
        check_integer("seed", seed)
        if draws < 1:
            raise InputError("need at least one bootstrap draw")
        if not 0 <= seed < 2 ** 64:
            raise InputError(
                f"seed must be an unsigned 64-bit integer (got {seed})")
        self.n, self.draws, self.seed = int(n), int(draws), int(seed)
        bits = rng.stream(seed, rng.DOMAIN_MULTIPLIER)
        self._chunks = []
        for done in range(0, draws, _CHUNK_DRAWS):
            take = min(_CHUNK_DRAWS, draws - done)
            self._chunks.append(rng.normals(bits, take * n).reshape(take, n))
        self._block = np.empty((n, _BLOCK_COLUMNS))
        self._filled = 0
        self._columns = 0
        # running max_j |g @ s_j| per draw, divided by sqrt(n) only at the end
        self._top = np.zeros(draws)

    def feed(self, scores: np.ndarray) -> None:
        """Add the columns of an n x k score matrix (k may be 0)."""
        scores = np.asarray(scores, dtype=np.float64)
        if scores.ndim != 2 or scores.shape[0] != self.n:
            raise InputError(f"scores must be a matrix with {self.n} rows")
        if not np.all(np.isfinite(scores)):
            raise InputError("scores contain non-finite entries")
        m = scores.shape[1]
        start = 0
        while start < m:
            take = min(_BLOCK_COLUMNS - self._filled, m - start)
            self._block[:, self._filled:self._filled + take] = \
                scores[:, start:start + take]
            self._filled += take
            start += take
            if self._filled == _BLOCK_COLUMNS:
                self._flush()
        self._columns += m

    def _flush(self) -> None:
        block = self._block
        if self._filled < _BLOCK_COLUMNS:
            # the layout of a caller's own n x k matrix, so that up to one
            # block the product is the unblocked one bit for bit
            block = np.ascontiguousarray(block[:, :self._filled])
        done = 0
        for g in self._chunks:
            prod = g @ block
            np.abs(prod, out=prod)
            top = self._top[done:done + g.shape[0]]
            np.maximum(top, prod.max(axis=1), out=top)
            done += g.shape[0]
        self._filled = 0

    def maxima(self) -> MultiplierDraws:
        """The draws max_j |G_j| over every column fed so far."""
        if self._filled:
            self._flush()
        if not self._columns:
            raise InputError("scores must be a nonempty n x m matrix")
        return MultiplierDraws(maxima=self._top / math.sqrt(self.n),
                               seed=self.seed, draws=self.draws)


def multiplier_maxima(scores: np.ndarray, draws: int,
                      seed: int) -> MultiplierDraws:
    """Max-statistic draws of the multiplier process over the score columns."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[0] < 1 or scores.shape[1] < 1:
        raise InputError("scores must be a nonempty n x m matrix")
    stream = MaximaStream(scores.shape[0], draws, seed)
    stream.feed(scores)
    return stream.maxima()


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


def adjust_scores_for_estimated_noise(table: DebiasTable) -> np.ndarray:
    """Score matrix of a missing-at-random table, corrected for its
    estimated noise variances.

    The score column of the cell for target j gets, for each observation i,

        scores[i, col] - (e_j - mu_j)' diag(influence[i, :]) pilot_beta
                         / (sd_j * slope_j)

    with influence the table's `mar.influence` and pilot_beta its pilot's
    beta, and is then re-centered to empirical mean zero.  When the
    correction vanishes identically (influence all zero or pilot all zero)
    the score matrix is returned unchanged, exactly.
    """
    if table.mar is None:
        raise InputError("only a missing-at-random table has estimated noise")
    scores = table.score_matrix()
    weighted = table.mar.influence * table.pilot.beta[None, :]
    if not weighted.any():
        return scores
    cells = table.cells
    # a stack of (p, 1) mu columns: one gemv weighted @ mu per cell, the
    # product a column-at-a-time loop makes, so the bits are the same
    M = np.array([c.mu for c in cells])
    along = np.matmul(weighted, M[:, :, None])[:, :, 0].T
    correction = weighted[:, [c.j for c in cells]] - along
    scale = np.array([c.sd * c.slope for c in cells])
    # C-ordered like the scores, so the column means sum rows in order
    adjusted = np.empty_like(scores)
    np.subtract(scores, correction / scale, out=adjusted)
    adjusted -= adjusted.mean(axis=0)
    return adjusted


def simultaneous_bands(tables, draws: int, seed: int) -> BandResult:
    """Band estimate -+ c* sd / sqrt(n) over the cells of one `DebiasTable`
    or of an iterable of tables sharing n and alpha, with c* the critical
    value over all their score columns.  Tables are pulled one at a time,
    and only a cell's target, estimate and sd outlive its table."""
    if isinstance(tables, DebiasTable):
        tables = (tables,)
    stream, alpha, kept = None, None, []
    for table in tables:
        if not table.cells:
            raise InputError("table has no cells")
        if stream is None:
            stream, alpha = MaximaStream(table.n, draws, seed), table.alpha
        elif table.alpha != alpha:
            raise InputError(f"tables mix alpha {alpha} and {table.alpha}")
        stream.feed(table.score_matrix() if table.mar is None
                    else adjust_scores_for_estimated_noise(table))
        kept += [(c.j, c.estimate, c.sd) for c in table.cells]
    if stream is None:
        raise InputError("no tables to band")
    targets, estimates, sds = zip(*kept)
    c_star = critical_value(stream.maxima(), alpha)
    est = np.asarray(estimates, dtype=np.float64)
    half = c_star * np.asarray(sds, dtype=np.float64) / math.sqrt(stream.n)
    return BandResult(targets=targets, estimates=est, lower=est - half,
                      upper=est + half, critical_value=c_star, alpha=alpha,
                      draws=stream.draws, seed=stream.seed)
