import dataclasses
import math
import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import ndtri

from eivbands import bootstrap, rng
from eivbands.bootstrap import (
    _BLOCK_COLUMNS,
    _CHUNK_DRAWS,
    BandResult,
    MaximaStream,
    MultiplierDraws,
    adjust_scores_for_estimated_noise,
    band_covers,
    critical_value,
    multiplier_maxima,
    simultaneous_bands,
)
from eivbands.debias import run_inference
from eivbands.errors import InputError
from eivbands.lasso import Dataset, NoiseSpec, SolverConfig


# a seed of 1.5 would be truncated to 1 and True read as 1; a draws of 2.5
# would reach NumPy as a bare TypeError
NOT_INTEGERS = [pytest.param(10, 1.5, "seed", id="seed_1.5"),
                pytest.param(10, True, "seed", id="seed_True"),
                pytest.param(2.5, 0, "draws", id="draws_2.5"),
                pytest.param(True, 0, "draws", id="draws_True")]


def unit_scores(n=200, m=1, seed=0):
    # exactly unit empirical variance, exactly zero mean, per column
    gen = np.random.default_rng(seed)
    s = gen.normal(size=(n, m))
    s -= s.mean(axis=0)
    s /= np.sqrt(np.mean(s ** 2, axis=0))
    return s


class TestMultiplierMaxima:
    def test_zero_scores_zero_maxima(self):
        md = multiplier_maxima(np.zeros((50, 3)), 64, seed=1)
        npt.assert_array_equal(md.maxima, np.zeros(64))

    def test_deterministic_rerun(self):
        s = unit_scores(80, 4, seed=2)
        a = multiplier_maxima(s, 500, seed=9)
        b = multiplier_maxima(s, 500, seed=9)
        npt.assert_array_equal(a.maxima, b.maxima)
        c = multiplier_maxima(s, 500, seed=10)
        assert not np.array_equal(a.maxima, c.maxima)

    def test_draw_prefix_stable(self):
        # draw b depends only on (seed, b): a longer run extends, never reshuffles
        s = unit_scores(60, 2, seed=3)
        short = multiplier_maxima(s, 100, seed=4).maxima
        long = multiplier_maxima(s, 300, seed=4).maxima
        npt.assert_array_equal(long[:100], short)

    def test_chunk_boundary_consistency(self):
        # crossing the internal chunk size must not disturb the multiplier
        # stream; matmul block shapes may still differ in the last ulp
        s = unit_scores(16, 2, seed=5)
        import eivbands.bootstrap as bs
        full = multiplier_maxima(s, 5000, seed=6).maxima
        old = bs._CHUNK_DRAWS
        try:
            bs._CHUNK_DRAWS = 777
            chunked = multiplier_maxima(s, 5000, seed=6).maxima
        finally:
            bs._CHUNK_DRAWS = old
        npt.assert_allclose(full, chunked, rtol=0, atol=1e-12)

    def test_duplicated_column_changes_nothing(self):
        s = unit_scores(70, 3, seed=7)
        dup = np.column_stack([s, s[:, 1]])
        a = multiplier_maxima(s, 400, seed=8).maxima
        b = multiplier_maxima(dup, 400, seed=8).maxima
        npt.assert_array_equal(a, b)

    def test_single_column_normal_quantile(self):
        # with unit-variance scores each draw is conditionally N(0,1), so the
        # 97.5% quantile of |G| is the normal quantile
        md = multiplier_maxima(unit_scores(200, 1, seed=11), 200000, seed=12)
        q = critical_value(md, 0.05)
        assert q == pytest.approx(1.959964, abs=0.02)
        # |G| for a standard normal G has second moment 1
        assert np.mean(md.maxima ** 2) == pytest.approx(1.0, abs=0.02)

    def test_input_validation(self):
        with pytest.raises(InputError):
            multiplier_maxima(np.zeros((0, 1)), 10, 0)
        with pytest.raises(InputError):
            multiplier_maxima(np.zeros((5, 2)), 0, 0)
        with pytest.raises(InputError):
            multiplier_maxima(np.full((5, 2), np.nan), 10, 0)

    @pytest.mark.parametrize("seed", [-1, 2 ** 70])
    def test_seed_outside_uint64_raises(self, seed):
        with pytest.raises(InputError, match=rf"seed must be an unsigned "
                           rf"64-bit integer \(got {seed}\)"):
            multiplier_maxima(unit_scores(20, 2), 10, seed)

    def test_largest_seed_is_accepted(self):
        md = multiplier_maxima(unit_scores(20, 2), 10, 2 ** 64 - 1)
        assert md.seed == 2 ** 64 - 1

    @pytest.mark.parametrize("draws, seed, name", NOT_INTEGERS)
    def test_non_integer_draws_or_seed_raises(self, draws, seed, name):
        with pytest.raises(InputError, match=rf"{name} must be an integer"):
            multiplier_maxima(unit_scores(20, 2), draws, seed)

    def test_numpy_integers_are_accepted(self):
        md = multiplier_maxima(unit_scores(20, 2), np.int64(10), np.uint64(3))
        assert (md.draws, md.seed) == (10, 3)


def unblocked_maxima(scores, draws, seed):
    # the product over all columns at once, in draw chunks of _CHUNK_DRAWS
    n = scores.shape[0]
    bits = rng.stream(seed, rng.DOMAIN_MULTIPLIER)
    out = np.empty(draws)
    for done in range(0, draws, _CHUNK_DRAWS):
        take = min(_CHUNK_DRAWS, draws - done)
        g = rng.normals(bits, take * n).reshape(take, n)
        out[done:done + take] = (np.abs(g @ scores) / math.sqrt(n)).max(axis=1)
    return out


def fed_in_pieces(scores, width, draws, seed):
    stream = MaximaStream(scores.shape[0], draws, seed)
    for start in range(0, scores.shape[1], width):
        stream.feed(scores[:, start:start + width])
    return stream.maxima()


class TestMaximaStream:
    @pytest.mark.parametrize("m", [1, 10, _BLOCK_COLUMNS])
    def test_one_block_is_the_unblocked_product(self, m):
        # 5000 draws cross the draw chunk; up to one block of columns, the
        # running maximum and the final division change no bit
        s = unit_scores(40, m, seed=m)
        got = multiplier_maxima(s, 5000, seed=3).maxima
        npt.assert_array_equal(got, unblocked_maxima(s, 5000, 3))

    @pytest.mark.parametrize("m", [5, _BLOCK_COLUMNS + 1,
                                   3 * _BLOCK_COLUMNS + 5])
    def test_feed_split_changes_no_bit(self, m):
        s = unit_scores(30, m, seed=m)
        whole = multiplier_maxima(s, 700, seed=4)
        for width in (1, 7, 29, _BLOCK_COLUMNS + 3):
            pieces = fed_in_pieces(s, width, 700, 4)
            npt.assert_array_equal(pieces.maxima, whole.maxima)
            assert (pieces.seed, pieces.draws) == (4, 700)

    def test_blocks_agree_with_unblocked_product_to_rounding(self):
        s = unit_scores(30, 3 * _BLOCK_COLUMNS + 5, seed=5)
        npt.assert_allclose(multiplier_maxima(s, 300, seed=6).maxima,
                            unblocked_maxima(s, 300, 6), rtol=1e-13, atol=0)

    def test_empty_feeds_and_repeated_maxima(self):
        s = unit_scores(20, 9, seed=7)
        stream = MaximaStream(20, 100, seed=8)
        stream.feed(s[:, :0])
        stream.feed(s)
        stream.feed(np.empty((20, 0)))
        first = stream.maxima().maxima
        npt.assert_array_equal(first, multiplier_maxima(s, 100, 8).maxima)
        npt.assert_array_equal(stream.maxima().maxima, first)

    def test_input_validation(self):
        with pytest.raises(InputError):
            MaximaStream(0, 10, 0)
        with pytest.raises(InputError):
            MaximaStream(5, 0, 0)
        stream = MaximaStream(5, 10, 0)
        with pytest.raises(InputError):
            stream.maxima()
        for bad in (np.zeros((4, 2)), np.zeros(5), np.full((5, 2), np.inf)):
            with pytest.raises(InputError):
                stream.feed(bad)

    @pytest.mark.parametrize("trial", range(5))
    def test_maxima_mid_stream_changes_no_bit(self, trial):
        # asking for the maxima must not close the partial block, or the
        # later columns fall into shifted blocks and round differently
        s = unit_scores(40, 600, seed=100 + trial)
        stream = MaximaStream(40, 300, seed=trial)
        stream.feed(s[:, :100])
        npt.assert_array_equal(stream.maxima().maxima,
                               multiplier_maxima(s[:, :100], 300, trial).maxima)
        stream.feed(s[:, 100:])
        npt.assert_array_equal(stream.maxima().maxima,
                               multiplier_maxima(s, 300, trial).maxima)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_feed_splits_around_the_switch_change_no_bit(self, offset):
        # 1100 draws, not a whole number of chunks, hold up to 275 columns;
        # the first feed ends at, before or after that limit, and the
        # columns in all outnumber the draws
        draws, n = 1100, 30
        limit = MaximaStream(n, draws, 0)._limit
        assert limit == draws // 4 > _BLOCK_COLUMNS
        assert draws % _CHUNK_DRAWS
        s = unit_scores(n, draws + 37, seed=11)
        for m in (limit - 1, limit, limit + 1, s.shape[1]):
            whole = multiplier_maxima(s[:, :m], draws, seed=12).maxima
            stream = MaximaStream(n, draws, seed=12)
            first = min(limit + offset, m)
            stream.feed(s[:, :first])
            stream.maxima()
            for start in range(first, m, 97):
                stream.feed(s[:, start:min(start + 97, m)])
            npt.assert_array_equal(stream.maxima().maxima, whole)

    def test_memory_does_not_grow_with_columns(self):
        n, draws, width = 50, 300, _BLOCK_COLUMNS
        bound = 4 * (draws * n + n * width + draws * width) * 8

        def traced_peak(blocks):
            gen = np.random.default_rng(9)
            tracemalloc.start()
            try:
                stream = MaximaStream(n, draws, seed=10)
                for _ in range(blocks):
                    stream.feed(gen.normal(size=(n, width)))
                stream.maxima()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few, many = traced_peak(2), traced_peak(20)
        assert many < bound
        # ten times the columns cost at most one more block of scores
        assert many <= few + n * width * 8


def traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def held_bound(n, m, draws):
    # bytes for m held columns in whole blocks plus the block being filled,
    # a few chunks of multipliers and their products, and two floats per
    # draw (the running maxima and the result); no n x draws term
    blocks = -(-m // _BLOCK_COLUMNS) + 1
    return 8 * (n * _BLOCK_COLUMNS * blocks + 2 * draws
                + 4 * _CHUNK_DRAWS * (n + _BLOCK_COLUMNS))


class TestMemoryFollowsTheColumns:
    def test_one_column_many_draws(self):
        # criterion 06's band: all 200,000 x 64 multipliers are 102 MB
        n, draws = 64, 200_000
        peak = traced_peak(lambda: multiplier_maxima(np.ones((n, 1)), draws,
                                                     seed=13))
        assert peak < held_bound(n, 1, draws) < draws * n * 8 // 20

    def test_a_graph_of_edges_fed_a_source_at_a_time(self):
        # 870 edges, 29 a feed, held whole: fewer than a quarter of 20,000
        # draws, whose multipliers alone are 64 MB
        n, draws, m = 400, 20_000, 870
        s = np.random.default_rng(14).normal(size=(n, m))

        def run():
            stream = MaximaStream(n, draws, seed=15)
            for start in range(0, m, 29):
                stream.feed(s[:, start:start + 29])
            stream.maxima()
        assert traced_peak(run) < held_bound(n, m, draws) < draws * n * 8 // 8


class TestCriticalValue:
    def md(self, values):
        return MultiplierDraws(maxima=np.asarray(values, dtype=float),
                               seed=0, draws=len(values))

    def test_order_statistic_convention(self):
        md = self.md([0.1 * k for k in range(1, 11)])
        assert critical_value(md, 0.10) == pytest.approx(0.9, abs=0)
        assert critical_value(md, 0.05) == pytest.approx(1.0, abs=0)

    def test_alpha_near_one_gives_minimum(self):
        md = self.md([3.0, 1.0, 2.0])
        assert critical_value(md, 0.999) == 1.0

    def test_constant_draws(self):
        md = self.md([2.5] * 7)
        assert critical_value(md, 0.3) == 2.5

    def test_monotone_in_alpha(self):
        gen = np.random.default_rng(13)
        md = self.md(gen.exponential(size=200))
        grid = np.linspace(0.01, 0.99, 25)
        vals = [critical_value(md, a) for a in grid]
        assert all(v1 >= v2 for v1, v2 in zip(vals, vals[1:]))

    def test_exact_integer_index_not_bumped(self):
        # (1 - 0.05) * 20 = 19 exactly: must pick the 19th, not the 20th
        md = self.md(list(range(1, 21)))
        assert critical_value(md, 0.05) == 19.0

    def test_bad_alpha(self):
        with pytest.raises(InputError):
            critical_value(self.md([1.0]), 0.0)


# a table's per-target arrays, row k target k's
ROW_FIELDS = ("estimates", "slopes", "sds", "ci_low", "ci_high", "scores",
              "mus")


def rows_of(table, index):
    # the table of the given rows of `table`, in that order
    index = list(index)
    return dataclasses.replace(
        table, targets=tuple(table.targets[k] for k in index),
        **{name: getattr(table, name)[index] for name in ROW_FIELDS})


def correction_table(scores, influence, targets, mus, pilot_beta, slopes,
                     sds):
    # a MAR table that carries exactly these scores, influence, pilot and
    # targets; the correction reads nothing else
    template = mar_table()
    m, p = len(targets), len(pilot_beta)
    return dataclasses.replace(
        template, targets=tuple(targets), estimates=np.zeros(m),
        slopes=slopes, sds=sds, ci_low=np.zeros(m), ci_high=np.zeros(m),
        scores=scores.T, mus=np.array(mus), n=scores.shape[0],
        noise_var=np.zeros(p),
        pilot=dataclasses.replace(template.pilot, beta=pilot_beta),
        mar=dataclasses.replace(template.mar, influence=influence))


def column_loop(table):
    # the correction one score column at a time, into one C-ordered matrix:
    # the batched product must equal it bit for bit
    scores = table.scores.T
    weighted = table.mar.influence * table.pilot.beta[None, :]
    adjusted = np.empty(scores.shape)
    for col, j in enumerate(table.targets):
        correction = weighted[:, j] - weighted @ table.mus[col]
        adjusted[:, col] = scores[:, col] - correction / (
            table.sds[col] * table.slopes[col])
    adjusted -= adjusted.mean(axis=0)
    return adjusted


class TestAdjustScores:
    def test_zero_influence_is_exact_identity(self):
        s = unit_scores(30, 2, seed=14)
        table = correction_table(
            s, np.zeros((30, 5)), [0, 3], [np.zeros(5), np.zeros(5)],
            np.ones(5), [1.0, 1.0], [1.0, 1.0])
        out = adjust_scores_for_estimated_noise(table)
        npt.assert_array_equal(out, s)

    def test_zero_pilot_is_exact_identity(self):
        gen = np.random.default_rng(15)
        s = unit_scores(30, 1, seed=16)
        table = correction_table(
            s, gen.normal(size=(30, 4)), [2], [np.zeros(4)],
            np.zeros(4), [1.0], [1.0])
        out = adjust_scores_for_estimated_noise(table)
        npt.assert_array_equal(out, s)

    def test_double_loop_oracle(self):
        gen = np.random.default_rng(17)
        n, p = 12, 3
        scores = gen.normal(size=(n, 2))
        influence = gen.normal(size=(n, p))
        pilot = gen.normal(size=p)
        mus = [np.array([0.0, 0.4, -0.2]), np.array([0.3, 0.0, 0.1])]
        targets = [0, 1]
        slopes = [0.8, 1.3]
        sds = [0.9, 1.1]
        table = correction_table(scores, influence, targets, mus, pilot,
                                 slopes, sds)
        got = adjust_scores_for_estimated_noise(table)
        want = np.empty_like(scores)
        for col in range(2):
            j, mu = targets[col], mus[col]
            for i in range(n):
                corr = 0.0
                for k in range(p):
                    e_jk = 1.0 if k == j else 0.0
                    corr += (e_jk - mu[k]) * influence[i, k] * pilot[k]
                want[i, col] = scores[i, col] - corr / (sds[col] * slopes[col])
        want -= want.mean(axis=0)
        npt.assert_allclose(got, want, rtol=0, atol=1e-12)
        npt.assert_allclose(got.mean(axis=0), [0.0, 0.0], atol=1e-14)
        assert got.tobytes() == column_loop(table).tobytes()

    def test_equals_the_column_loop_bit_for_bit(self):
        # a fitted MAR table, and the same rows repeated and reordered
        table = mar_table(seed=18)
        wide = rows_of(table, [2, 1, 0] + [0, 1, 2] * 3)
        for t in (table, wide):
            got = adjust_scores_for_estimated_noise(t)
            assert got.shape == (t.n, len(t.targets))
            assert got.tobytes() == column_loop(t).tobytes()
            assert not np.array_equal(got, t.scores.T)

    def test_known_noise_table_raises(self):
        with pytest.raises(InputError, match="missing-at-random"):
            adjust_scores_for_estimated_noise(inference_table())


def inference_table(seed=0, n=60, p=5, targets=(0, 1, 2)):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n, p))
    beta0 = np.zeros(p)
    beta0[:2] = [1.0, -0.7]
    y = x @ beta0 + 0.4 * gen.normal(size=n)
    Z = x + 0.3 * gen.normal(size=(n, p))
    data = Dataset(y=y, Z=Z)
    noise = NoiseSpec.known(np.full(p, 0.09))
    return run_inference(data, noise, list(targets),
                         cfg=SolverConfig(tol=1e-9, max_iter=20000))


class TestSimultaneousBands:
    def test_single_target_matches_pointwise_quantile(self):
        table = inference_table(targets=(1,))
        band = simultaneous_bands(table, 200000, seed=21)
        # scores have unit empirical variance, so c* ~ normal quantile and
        # the band nearly equals the pointwise interval
        assert band.critical_value == pytest.approx(ndtri(0.975), abs=0.02)
        half_band = (band.upper[0] - band.lower[0]) / 2
        half_ci = (table.ci_high[0] - table.ci_low[0]) / 2
        assert half_band == pytest.approx(half_ci, rel=0.015)

    def test_superset_dominates_subset(self):
        t_small = inference_table(targets=(0, 1))
        t_big = inference_table(targets=(0, 1, 2, 3))
        b_small = simultaneous_bands(t_small, 300, seed=5)
        b_big = simultaneous_bands(t_big, 300, seed=5)
        # same seed means shared multipliers, so domination is exact per draw
        assert b_big.critical_value >= b_small.critical_value

    def test_band_contains_estimate_and_is_wider_than_ci(self):
        table = inference_table(seed=3)
        band = simultaneous_bands(table, 2000, seed=6)
        for k, est in enumerate(table.estimates):
            assert band.lower[k] < est < band.upper[k]
            assert band.upper[k] - band.lower[k] >= \
                (table.ci_high[k] - table.ci_low[k]) * (1 - 0.05)

    @pytest.mark.parametrize("seed", [-1, 2 ** 70])
    def test_seed_outside_uint64_raises(self, seed):
        with pytest.raises(InputError, match=rf"seed must be an unsigned "
                           rf"64-bit integer \(got {seed}\)"):
            simultaneous_bands(inference_table(), 50, seed)

    @pytest.mark.parametrize("draws, seed, name", NOT_INTEGERS)
    def test_non_integer_draws_or_seed_raises(self, draws, seed, name):
        with pytest.raises(InputError, match=rf"{name} must be an integer"):
            simultaneous_bands(inference_table(), draws, seed)

    def test_sds_are_the_cells_sds_bit_for_bit(self):
        table = inference_table(seed=2)
        band = simultaneous_bands(table, 100, seed=3)
        assert band.sds.tobytes() == table.sds.tobytes()

    def test_deterministic(self):
        table = inference_table(seed=4)
        b1 = simultaneous_bands(table, 500, seed=7)
        b2 = simultaneous_bands(table, 500, seed=7)
        npt.assert_array_equal(b1.lower, b2.lower)
        assert b1.critical_value == b2.critical_value
        assert isinstance(b1, BandResult)


def mar_table(seed=0, n=60, p=5):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n, p))
    y = x[:, 0] - 0.7 * x[:, 1] + 0.4 * gen.normal(size=n)
    mask = gen.uniform(size=(n, p)) >= 0.2
    data = Dataset(y=y, Z=np.where(mask, x, 0.0), mask=mask)
    return run_inference(data, NoiseSpec.mar(), [0, 1, 2],
                         cfg=SolverConfig(tol=1e-9, max_iter=20000))


def wide_table(template, m, seed, alpha=0.05):
    # m targets with fresh scores, estimates and sds on the template's n and p
    gen = np.random.default_rng(seed)
    scores = unit_scores(template.n, m, seed)
    p = template.noise_var.shape[0]
    est, sds = np.array([(gen.normal(), gen.uniform(0.5, 2.0))
                         for _ in range(m)]).reshape(m, 2).T
    return dataclasses.replace(
        template, targets=tuple(k % p for k in range(m)), estimates=est,
        slopes=np.ones(m), sds=sds, ci_low=np.zeros(m), ci_high=np.zeros(m),
        scores=scores.T, mus=np.zeros((m, p)), alpha=alpha, mar=None)


def reference_band(tables, draws, seed):
    # the band from one feed of every (adjusted) score column
    columns, targets, estimates, sds = [], [], [], []
    for t in tables:
        columns.append(t.scores.T if t.mar is None
                       else adjust_scores_for_estimated_noise(t))
        targets += t.targets
        estimates += t.estimates.tolist()
        sds += t.sds.tolist()
    c_star = critical_value(
        multiplier_maxima(np.column_stack(columns), draws, seed),
        tables[0].alpha)
    est = np.array(estimates)
    half = c_star * np.array(sds) / math.sqrt(tables[0].n)
    return targets, c_star, est, est - half, est + half


class TestBandOverAStream:
    def tables(self):
        # 200 + 3 + 100 columns: the MAR table sits in the first block, and
        # the block boundary at 256 falls inside the last table
        mar = mar_table(seed=1)
        return [wide_table(mar, 200, seed=2), mar, wide_table(mar, 100, 3)]

    def test_equals_the_one_feed_band_bit_for_bit(self):
        tables = self.tables()
        mar = tables[1]
        # the MAR adjustment moves the scores, so the test covers it
        plain = dataclasses.replace(mar, mar=None)
        assert reference_band([mar], 500, 0)[1] != \
            reference_band([plain], 500, 0)[1]
        assert sum(len(t.targets) for t in tables) > _BLOCK_COLUMNS
        band = simultaneous_bands(iter(tables), 700, seed=19)
        targets, c_star, est, lower, upper = reference_band(tables, 700, 19)
        assert band.targets == tuple(targets)
        assert band.critical_value == c_star
        assert (band.alpha, band.draws, band.seed) == (0.05, 700, 19)
        assert band.estimates.tobytes() == est.tobytes()
        sds = np.concatenate([t.sds for t in tables])
        assert band.sds.tobytes() == sds.tobytes()
        assert band.lower.tobytes() == lower.tobytes()
        assert band.upper.tobytes() == upper.tobytes()

    def test_one_table_is_a_stream_of_one(self):
        mar = mar_table(seed=4)
        one, stream = (simultaneous_bands(t, 300, seed=2)
                       for t in (mar, [mar]))
        assert one.critical_value == stream.critical_value
        assert one.targets == stream.targets
        npt.assert_array_equal(one.lower, stream.lower)
        npt.assert_array_equal(one.upper, stream.upper)

    def test_tables_are_pulled_one_at_a_time(self, monkeypatch):
        events = []
        original = MaximaStream.feed

        def feed(stream, scores):
            events.append("feed")
            return original(stream, scores)
        monkeypatch.setattr(bootstrap.MaximaStream, "feed", feed)

        def pulled():
            for k, table in enumerate(self.tables()):
                events.append(f"table {k}")
                yield table
        simultaneous_bands(pulled(), 50, seed=1)
        assert events == ["table 0", "feed", "table 1", "feed",
                          "table 2", "feed"]

    def test_a_table_is_released_before_the_next_but_one(self):
        # only each table's targets, estimates and sds may outlive it, and
        # neither its scores nor its mus, nor the arrays behind them: while
        # a table is built, the one before it may still be held, but none
        # earlier, and none once the band returns
        refs = []

        def dead(groups):
            return all(r() is None for group in groups for r in group)

        def fresh():
            # every yielded table is built here, so only the band holds one
            template = mar_table(seed=5)
            for k in range(3):
                assert dead(refs[:-1])
                table = (mar_table(seed=6) if k == 1
                         else wide_table(template, 40, seed=k))
                held = (table.scores, table.mus)
                refs.append([weakref.ref(x) for x in (
                    table, *held, *(a.base for a in held))])
                del held
                yield table
        band = simultaneous_bands(fresh(), 50, seed=1)
        assert len(band.targets) == 83
        assert dead(refs)

    def test_mixed_alpha_raises(self):
        mar = mar_table(seed=7)
        tables = [wide_table(mar, 3, seed=8), wide_table(mar, 3, 9, alpha=0.1)]
        with pytest.raises(InputError, match="alpha"):
            simultaneous_bands(tables, 50, seed=1)

    def test_mixed_n_raises(self):
        # named as the tables' n, not as a score matrix of the wrong shape
        tables = [inference_table(n=60), inference_table(n=61)]
        with pytest.raises(InputError, match="^tables mix n 60 and 61$"):
            simultaneous_bands(tables, 50, seed=1)

    @pytest.mark.parametrize("stream", [[], iter(())], ids=["list", "iter"])
    def test_empty_stream_raises(self, stream):
        with pytest.raises(InputError, match="no tables"):
            simultaneous_bands(stream, 50, seed=1)

    def test_empty_table_raises(self):
        table = inference_table()
        empty = rows_of(table, [])
        for tables in (empty, [table, empty]):
            with pytest.raises(InputError, match="no cells"):
                simultaneous_bands(tables, 50, seed=1)


def band_verdict(band, values):
    # the verdict a study replication takes from the whole band
    return not any(v < lo or v > hi
                   for v, lo, hi in zip(values, band.lower, band.upper))


def probes(band, seed):
    # value vectors inside, on and just across the band's edges, one cell
    # moved at a time, and random ones straddling the edges
    gen = np.random.default_rng(seed)
    est, lower, upper = band.estimates, band.lower, band.upper
    out = [est, lower, upper, np.nextafter(lower, np.inf),
           np.nextafter(upper, -np.inf)]
    for k in {0, len(est) // 2, len(est) - 1}:
        for edge, away in ((lower, -np.inf), (upper, np.inf)):
            for v in (edge[k], np.nextafter(edge[k], away)):
                probe = est.copy()
                probe[k] = v
                out.append(probe)
    half = (upper - lower) / 2
    for _ in range(3):
        out.append(est + gen.uniform(-1.02, 1.02, size=len(est)) * half)
    return out


def covers_tables():
    known, mar = inference_table(seed=2), mar_table(seed=3)
    return {"known": known, "mar": mar, "m1": wide_table(mar, 1, seed=4),
            f"m{_BLOCK_COLUMNS}": wide_table(mar, _BLOCK_COLUMNS, seed=5),
            f"m{_BLOCK_COLUMNS + 1}": wide_table(mar, _BLOCK_COLUMNS + 1,
                                                 seed=6)}


class TestBandCovers:
    @pytest.mark.parametrize("name", list(covers_tables()))
    @pytest.mark.parametrize("draws", [1, _CHUNK_DRAWS - 1, _CHUNK_DRAWS,
                                       _CHUNK_DRAWS + 1, 500])
    def test_equals_the_band_verdict(self, name, draws):
        table = covers_tables()[name]
        for alpha in (0.05, 0.2, 0.5, 0.9):
            table = dataclasses.replace(table, alpha=alpha)
            band = simultaneous_bands(table, draws, seed=draws)
            verdicts = set()
            for values in probes(band, seed=draws):
                want = band_verdict(band, values)
                assert band_covers(table, values, draws, draws) is want
                verdicts.add(want)
            assert verdicts == {True, False}

    def test_more_columns_than_draws(self):
        # 300 columns past 200 draws' limit: a band's stream would keep its
        # multipliers, the decision still takes them a chunk at a time
        table = wide_table(mar_table(seed=3), 300, seed=16, alpha=0.1)
        assert len(table.targets) > MaximaStream(table.n, 200, 0)._limit
        band = simultaneous_bands(table, 200, seed=17)
        verdicts = set()
        for values in probes(band, seed=18):
            want = band_verdict(band, values)
            assert band_covers(table, values, 200, 17) is want
            verdicts.add(want)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("offset, alpha, verdict", [
        (0.0, 0.05, True), (100.0, 0.5, False)])
    def test_a_clear_case_draws_fewer_than_every_multiplier(
            self, monkeypatch, offset, alpha, verdict):
        table = dataclasses.replace(inference_table(seed=9), alpha=alpha)
        values = table.estimates + offset * table.sds
        counted = []
        original = rng.normals

        def normals(bits, count):
            counted.append(count)
            return original(bits, count)
        monkeypatch.setattr(rng, "normals", normals)
        assert band_covers(table, values, 500, seed=10) is verdict
        assert 0 < sum(counted) < 500 * table.n
        counted.clear()
        simultaneous_bands(table, 500, seed=10)
        assert sum(counted) == 500 * table.n

    @pytest.mark.parametrize("draws, seed", [
        (0, 1), (2.5, 1), (True, 1), (10, -1), (10, 2 ** 70), (10, 1.5),
        (10, True)])
    def test_bad_draws_or_seed_raise_as_the_band_does(self, draws, seed):
        table = inference_table()
        values = table.estimates
        with pytest.raises(InputError) as band:
            simultaneous_bands(table, draws, seed)
        with pytest.raises(InputError) as covers:
            band_covers(table, values, draws, seed)
        assert str(covers.value) == str(band.value)

    def test_non_finite_scores_raise_as_the_band_does(self):
        table = inference_table()
        scores = table.scores.copy()
        scores[1] = np.nan
        table = dataclasses.replace(table, scores=scores)
        with pytest.raises(InputError) as band:
            simultaneous_bands(table, 50, 1)
        with pytest.raises(InputError) as covers:
            band_covers(table, [0.0] * 3, 50, 1)
        assert str(covers.value) == str(band.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_raise(self, bad):
        # a NaN compares false against both edges, so it would read as
        # covered; every non-finite value is rejected, in any cell
        table = inference_table()
        estimates = table.estimates.tolist()
        for values in ([bad] * 3, estimates[:2] + [bad]):
            with pytest.raises(InputError, match="values must be finite"):
                band_covers(table, values, 200, 1)

    def test_one_value_per_cell(self):
        table = inference_table()
        with pytest.raises(InputError, match="one value per cell"):
            band_covers(table, [0.0, 0.0], 50, 1)
        with pytest.raises(InputError, match="no cells"):
            band_covers(rows_of(table, []), [], 50, 1)
