"""Gaussian multiplier bootstrap for simultaneous confidence bands.

Conditional on the data, draw i.i.d. standard normal multipliers g_i and form

    G_j = n^{-1/2} sum_i g_i * scores[i, j]

for every target column j; the band critical value is the (1 - alpha)
conditional quantile of max_j |G_j|, taken as the ceil((1 - alpha) * B)-th
ascending order statistic over B draws.

Multipliers come from a counter-based stream keyed by (seed, draw index,
observation index): draw b occupies positions [b*n, (b+1)*n) of the stream
keyed (seed, multiplier-domain), so every multiplier is a pure function of
(seed, b, i), whatever the chunking.  They are drawn in row chunks of the
fixed `_CHUNK_DRAWS` draws (`_draw_chunks`).

`simultaneous_bands`, the one band routine, feeds the score columns of one
table or a stream of tables to a `MaximaStream`, which takes them in any
number of feeds, so a target set far wider than n (every edge of `graph`)
never has to be held at once.  Of each table it keeps only the targets,
estimates and sds, and its `BandResult` returns them, so a caller needs no
copy of its own.  The stream gathers the columns into blocks of the fixed
`_BLOCK_COLUMNS`; for each block and draw chunk it forms g @ block, takes
|.| in place and keeps a running maximum per draw, and it divides by
sqrt(n) once, at the end.  That division is exact: dividing by
a positive constant is monotone under correct rounding, so max_j |x_j| /
sqrt(n) equals max_j (|x_j| / sqrt(n)) bit for bit.  A running maximum
does not depend on the order of its folds either, so the stream may fold
the blocks chunk by chunk or the chunks block by block.  It holds the
smaller of its columns and its multipliers: up to max(block, draws / 4)
columns it holds the columns and draws each chunk only when asked for the
maxima, one chunk alive at a time; past that it draws and keeps every
chunk and folds each block as it fills.  Memory is
O(n*m + chunk*(n + block) + draws) for m columns up to the switch and
O(n*draws + n*block + chunk*block) past it: up to one block it grows with
neither the columns nor the draws, apart from one maximum per draw.

The product g @ block can round differently for another chunk or block
shape, so both widths are fixed, and block boundaries fall every
`_BLOCK_COLUMNS` columns of the whole sequence, however the caller splits
its feeds.  The maxima are therefore a pure function of (scores, draws,
seed) for one BLAS build and thread count.  Up to `_BLOCK_COLUMNS` columns
make one block, so the product is exactly the unblocked g @ scores; with
more, a maximum can differ from the unblocked product in the last bit.

A study replication asks only whether its band holds the null values.
`band_covers` answers that from the draws in chunk order, and stops at the
first chunk after which the answer can no longer change (see its
docstring), so the chunk width is also the granularity of that decision.
The decision and the band must share the width: the maxima it reads must
be the band's bit for bit, and g @ block in pieces of another height can
round differently from the band's product.  Both lay their blocks in a
`MaximaStream` and take their chunks from `_draw_chunks` and their
per-(chunk, block) maxima from `_fold_block`.
The width is small, 128 draws, so that most replications stop after one
or two chunks; the band itself loses little by it, and its (chunk, block)
product is smaller.

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

_CHUNK_DRAWS = 128
_BLOCK_COLUMNS = 256


def _check_stream(n: int, draws: int, seed: int) -> None:
    if n < 1:
        raise InputError("scores must be a nonempty n x m matrix")
    check_integer("draws", draws)
    check_integer("seed", seed)
    if draws < 1:
        raise InputError("need at least one bootstrap draw")
    if not 0 <= seed < 2 ** 64:
        raise InputError(
            f"seed must be an unsigned 64-bit integer (got {seed})")


def _check_scores(scores, n: int) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[0] != n:
        raise InputError(f"scores must be a matrix with {n} rows")
    if not np.all(np.isfinite(scores)):
        raise InputError("scores contain non-finite entries")
    return scores


def _draw_chunks(n: int, draws: int, seed: int):
    """The multipliers of draws 0, 1, ..., in (take, n) chunks of
    `_CHUNK_DRAWS` draws (the last one shorter), read off one stream."""
    bits = rng.stream(seed, rng.DOMAIN_MULTIPLIER)
    for done in range(0, draws, _CHUNK_DRAWS):
        take = min(_CHUNK_DRAWS, draws - done)
        yield rng.normals(bits, take * n).reshape(take, n)


def _fold_block(g: np.ndarray, block: np.ndarray, top: np.ndarray) -> None:
    """top = max(top, max_j |g @ block[:, j]|) per draw, in place."""
    prod = g @ block
    np.abs(prod, out=prod)
    np.maximum(top, prod.max(axis=1), out=top)


def _order_index(alpha: float, B: int) -> int:
    """k = ceil((1 - alpha) * B - 1e-9) clamped to [1, B]: c* is the k-th
    smallest of B maxima.  The 1e-9 keeps an exact-integer product from
    being bumped to the next order statistic by float rounding."""
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    if B < 1:
        raise InputError("empty bootstrap draws")
    k = int(math.ceil((1.0 - alpha) * B - 1e-9))
    return min(max(k, 1), B)


def _band_edges(estimates: np.ndarray, sds: np.ndarray, c: float,
                n: int) -> tuple[np.ndarray, np.ndarray]:
    """The band estimate -+ c sd / sqrt(n)."""
    half = c * sds / math.sqrt(n)
    return estimates - half, estimates + half


def _band_scores(table: DebiasTable) -> np.ndarray:
    """The (n, m) score columns a table contributes to its band."""
    return (table.scores.T if table.mar is None
            else adjust_scores_for_estimated_noise(table))


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
    sds: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    critical_value: float
    alpha: float
    draws: int
    seed: int


class MaximaStream:
    """Running max_j |G_j| per draw over score columns fed in pieces.

    Feed n-row score matrices in column order with `feed`; `maxima` returns
    the draws over every column fed so far, and more columns may follow it.
    The result does not depend on how the columns were split into feeds or
    where `maxima` was called.

    The stream holds the smaller of its score columns and its multipliers.
    It holds the columns, in blocks, and draws nothing until `maxima`, which
    draws each chunk of multipliers, folds it through every held block and
    drops it.  Only when the held columns would pass `_limit`, the larger of
    one block and draws / 4, does it draw and keep every chunk, fold and
    drop the held blocks, and from then on fold each block as it fills.  So
    it holds at most about n * max(`_BLOCK_COLUMNS`, draws / 4) score
    entries before the switch and n * draws multipliers plus one block
    after it, at most about 1.25 times the multipliers alone.
    """

    def __init__(self, n: int, draws: int, seed: int):
        _check_stream(n, draws, seed)
        self.n, self.draws, self.seed = int(n), int(draws), int(seed)
        self._limit = max(_BLOCK_COLUMNS, self.draws // 4)
        self._chunks = None  # every chunk of multipliers, once kept
        self._held = []  # full blocks not yet folded, while _chunks is None
        self._block = None  # the block being filled: its first _filled columns
        self._filled = 0
        self._columns = 0
        # running max_j |g @ s_j| per draw over the folded blocks, divided
        # by sqrt(n) only at the end
        self._top = np.zeros(draws)

    def feed(self, scores: np.ndarray) -> None:
        """Add the columns of an n x k score matrix (k may be 0)."""
        scores = _check_scores(scores, self.n)
        if (self._chunks is None
                and self._columns + scores.shape[1] > self._limit):
            self._keep_chunks()
        self._hold(scores)

    def _hold(self, scores: np.ndarray) -> None:
        m = scores.shape[1]
        start = 0
        while start < m:
            take = min(_BLOCK_COLUMNS - self._filled, m - start)
            piece = scores[:, start:start + take]
            if self._block is None:
                # a copy, so that the caller may reuse its matrix; a block
                # buffer is made only when a second piece joins it, so a
                # few columns never touch all of one
                self._block = np.array(piece, order="C")
            else:
                if self._block.shape[1] < _BLOCK_COLUMNS:
                    first = self._block
                    self._block = np.empty((self.n, _BLOCK_COLUMNS))
                    self._block[:, :self._filled] = first
                self._block[:, self._filled:self._filled + take] = piece
            self._filled += take
            start += take
            if self._filled == _BLOCK_COLUMNS:
                self._close()
        self._columns += m

    def _pending(self) -> np.ndarray:
        """The block being filled as one C-ordered n x k matrix, the layout
        of a caller's own matrix, so that up to one block the product is
        the unblocked one bit for bit."""
        if self._block.shape[1] == self._filled:
            return self._block
        return np.ascontiguousarray(self._block[:, :self._filled])

    def _close(self) -> None:
        if self._chunks is None:
            self._held.append(self._block)
            self._block = None
        else:
            self._fold(self._block)  # and fill the same buffer again
        self._filled = 0

    def _keep_chunks(self) -> None:
        self._chunks = list(_draw_chunks(self.n, self.draws, self.seed))
        for block in self._held:
            self._fold(block)
        self._held = []

    def _fold(self, block: np.ndarray) -> None:
        done = 0
        for g in self._chunks:
            _fold_block(g, block, self._top[done:done + g.shape[0]])
            done += g.shape[0]

    def _chunk_maxima(self):
        """Per chunk of draws, in draw order: the running maxima over every
        column fed so far, not yet divided by sqrt(n).  A partial block is
        folded into these, not into the stream, so it stays open."""
        blocks = self._held + ([self._pending()] if self._filled else [])
        chunks = (self._chunks if self._chunks is not None
                  else _draw_chunks(self.n, self.draws, self.seed))
        done = 0
        for g in chunks:
            top = self._top[done:done + g.shape[0]].copy()
            for block in blocks:
                _fold_block(g, block, top)
            done += g.shape[0]
            yield top

    def maxima(self) -> MultiplierDraws:
        """The draws max_j |G_j| over every column fed so far."""
        if not self._columns:
            raise InputError("scores must be a nonempty n x m matrix")
        top = np.empty(self.draws)
        done = 0
        for part in self._chunk_maxima():
            top[done:done + part.shape[0]] = part
            done += part.shape[0]
        top /= math.sqrt(self.n)
        return MultiplierDraws(maxima=top, seed=self.seed, draws=self.draws)


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
    """ceil((1 - alpha) * B)-th ascending order statistic of the maxima,
    with the index rule of `_order_index`."""
    maxima = np.asarray(draws.maxima, dtype=np.float64)
    k = _order_index(alpha, maxima.shape[0])
    return float(np.sort(maxima)[k - 1])


def adjust_scores_for_estimated_noise(table: DebiasTable) -> np.ndarray:
    """Score matrix of a missing-at-random table, corrected for its
    estimated noise variances.

    The score column of target j, row k of the table, gets, for each
    observation i,

        scores[i, col] - (e_j - mu_j)' diag(influence[i, :]) pilot_beta
                         / (sd_j * slope_j)

    with influence the table's `mar.influence` and pilot_beta its pilot's
    beta, and is then re-centered to empirical mean zero.  When the
    correction vanishes identically (influence all zero or pilot all zero)
    the score matrix is returned unchanged, exactly.
    """
    if table.mar is None:
        raise InputError("only a missing-at-random table has estimated noise")
    scores = table.scores.T
    scaled = table.mar.influence * table.pilot.beta[None, :]
    if not scaled.any():
        return scores
    # a stack of (p, 1) mu columns: one gemv scaled @ mu per target, the
    # product a column-at-a-time loop makes, so the bits are the same
    along = np.matmul(scaled, table.mus[:, :, None])[:, :, 0].T
    correction = scaled[:, list(table.targets)] - along
    scale = table.sds * table.slopes
    # C-ordered, whatever the scores' layout, so the column means sum rows
    # in order
    adjusted = np.empty(scores.shape)
    np.subtract(scores, correction / scale, out=adjusted)
    adjusted -= adjusted.mean(axis=0)
    return adjusted


def simultaneous_bands(tables, draws: int, seed: int) -> BandResult:
    """Band estimate -+ c* sd / sqrt(n) over the targets of one
    `DebiasTable` or of an iterable of tables sharing n and alpha, with c*
    the critical value over all their score columns.  Tables are pulled one
    at a time, and only their targets, estimates and sds outlive them: the
    result returns them, concatenated, as `targets`, `estimates` and
    `sds`."""
    if isinstance(tables, DebiasTable):
        tables = (tables,)
    stream, alpha = None, None
    targets, estimates, sds = [], [], []
    for table in tables:
        if not table.targets:
            raise InputError("table has no cells")
        if stream is None:
            stream, alpha = MaximaStream(table.n, draws, seed), table.alpha
        elif table.alpha != alpha:
            raise InputError(f"tables mix alpha {alpha} and {table.alpha}")
        elif table.n != stream.n:
            raise InputError(f"tables mix n {stream.n} and {table.n}")
        stream.feed(_band_scores(table))
        targets += table.targets
        estimates.append(table.estimates)
        sds.append(table.sds)
    if stream is None:
        raise InputError("no tables to band")
    c_star = critical_value(stream.maxima(), alpha)
    est, sds = np.concatenate(estimates), np.concatenate(sds)
    lower, upper = _band_edges(est, sds, c_star, stream.n)
    return BandResult(targets=tuple(targets), estimates=est, sds=sds,
                      lower=lower, upper=upper, critical_value=c_star,
                      alpha=alpha, draws=stream.draws, seed=stream.seed)


def band_covers(table: DebiasTable, values, draws: int, seed: int) -> bool:
    """Whether the band `simultaneous_bands(table, draws, seed)` holds
    values[k] for every target k, with no more draws than settle it.

    Draw b's maximum is formed exactly as the band forms it: the same
    chunks of multipliers (`_draw_chunks`), the same column blocks (a
    `MaximaStream` holds them, however many) and the same per-(chunk,
    block) step (`_fold_block`), so it is the band's draw b bit for bit;
    the chunks are only taken in order, and not all.

    With d of the B draws seen and k = `_order_index(alpha, B)`, c* is at
    most the k-th smallest maximum seen (the B - d unseen ones can only
    push the k-th order statistic down) and at least the (k - (B - d))-th
    (they can all fall below it).  A target's edges est -+ c sd / sqrt(n)
    are each monotone in c under correct rounding, since sd >= 0, so the
    band at a larger c holds every value the band at a smaller c holds.
    Hence when the band at the upper bound misses a value, the band at c*
    misses it, and when the band at the lower bound holds every value, so
    does the band at c*: either way the answer is the band's, not an
    approximation of it.  With every draw seen the two bounds are c*.
    """
    if not table.targets:
        raise InputError("table has no cells")
    stream = MaximaStream(table.n, draws, seed)
    scores = _check_scores(_band_scores(table), table.n)
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (len(table.targets),):
        raise InputError(f"need one value per cell ({len(table.targets)}), "
                         f"got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise InputError("values must be finite")
    k = _order_index(table.alpha, draws)

    def covers(c: float) -> bool:
        lower, upper = _band_edges(table.estimates, table.sds, float(c),
                                   table.n)
        return not np.any((values < lower) | (values > upper))

    # held, never kept ahead: each chunk is drawn only if it is reached
    stream._hold(scores)
    seen = np.empty(0)
    for top in stream._chunk_maxima():
        seen = np.sort(np.concatenate((seen, top / math.sqrt(table.n))))
        unseen = draws - seen.shape[0]
        if seen.shape[0] >= k and not covers(seen[k - 1]):
            return False
        if unseen < k and covers(seen[k - 1 - unseen]):
            return True
    raise AssertionError("with every draw seen both bounds are c*")
