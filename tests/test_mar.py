import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eivbands import mar
from eivbands.errors import InputError
from eivbands.lasso import Dataset


def masked(z, missing, seed=0):
    """Dataset of z with `missing` cells, chosen at random, masked out
    (zero-filled), so that miss_prob is missing / z.size."""
    z = np.asarray(z, dtype=np.float64)
    mask = np.ones(z.size, dtype=bool)
    mask[np.random.default_rng(seed).permutation(z.size)[:missing]] = False
    mask = mask.reshape(z.shape)
    return Dataset(y=np.zeros(z.shape[0]), Z=np.where(mask, z, 0.0),
                   mask=mask)


class TestMissingFraction:
    def test_counts_false_cells(self):
        mask = np.array([[True, False, True, True],
                         [True, True, False, True],
                         [True, True, True, False]])
        data = Dataset(y=np.zeros(3), Z=np.ones((3, 4)), mask=mask)
        assert mar.estimate(data).miss_prob == pytest.approx(3 / 12, abs=0)

    def test_none_missing(self):
        data = masked(np.ones((5, 4)), 0)
        assert mar.estimate(data).miss_prob == 0.0

    def test_all_missing_rejected(self):
        with pytest.raises(InputError, match="every design cell is missing"):
            mar.estimate(masked(np.ones((3, 3)), 9))

    def test_non_boolean_rejected(self):
        # Dataset is the one check of the mask
        with pytest.raises(InputError, match="boolean"):
            Dataset(y=np.zeros(3), Z=np.ones((3, 3)), mask=np.ones((3, 3)))


class TestRescale:
    def test_half_missing_doubles(self):
        z = np.array([[2.0, 0.0], [0.0, 2.0]])
        data = Dataset(y=np.zeros(2), Z=z, mask=z != 0.0)
        npt.assert_array_equal(mar.estimate(data).design, 2.0 * z)

    def test_zero_missing_is_bitwise_identity(self):
        gen = np.random.default_rng(0)
        data = masked(gen.normal(size=(6, 3)), 0)
        npt.assert_array_equal(mar.estimate(data).design, data.Z)

    def test_entrywise_oracle(self):
        gen = np.random.default_rng(1)
        data = masked(gen.normal(size=(10, 3)), 9, seed=1)
        z = data.Z
        got = mar.estimate(data).design
        for i in range(10):
            for j in range(3):
                assert got[i, j] == pytest.approx(z[i, j] / 0.7, rel=1e-15)

    def test_pi_one_rejected(self):
        with pytest.raises(InputError, match="every design cell is missing"):
            mar.estimate(masked(np.ones((2, 2)), 4))


class TestNoiseVariance:
    def test_unit_column_half_missing(self):
        # column of +-1 beside a missing column, pi = 0.5: mean square 1
        # times 0.5 / 0.25 = 2; the missing column's is 0
        z = np.array([[1.0, 0.0], [-1.0, 0.0]])
        mask = np.array([[True, False], [True, False]])
        data = Dataset(y=np.zeros(2), Z=z, mask=mask)
        npt.assert_allclose(mar.estimate(data).noise_var, [2.0, 0.0],
                            atol=1e-15)

    def test_zero_missing_gives_zero(self):
        data = masked(np.random.default_rng(2).normal(size=(5, 4)), 0)
        npt.assert_array_equal(mar.estimate(data).noise_var, np.zeros(4))

    def test_column_loop_oracle(self):
        gen = np.random.default_rng(3)
        data = masked(gen.normal(size=(10, 3)), 6, seed=3)
        z = data.Z
        pi = 0.2
        got = mar.estimate(data).noise_var
        for j in range(3):
            s = sum(float(z[i, j]) ** 2 for i in range(10)) / 10
            assert got[j] == pytest.approx(s * pi / 0.8 ** 2, rel=1e-13)

    @given(st.integers(0, 10000), st.integers(0, 14))
    @settings(max_examples=100, deadline=None)
    def test_nonnegative(self, seed, missing):
        z = np.random.default_rng(seed).normal(size=(5, 3))
        data = masked(z, missing, seed)
        assert np.all(mar.estimate(data).noise_var >= 0.0)


class TestInfluenceScores:
    def test_constant_magnitude_column_is_zero(self):
        # |z| constant within each column (the last one all missing, so
        # pi = 1/3): squared deviations vanish
        z = np.array([[1.0, 2.0, 0.0], [-1.0, 2.0, 0.0], [1.0, -2.0, 0.0]])
        data = Dataset(y=np.zeros(3), Z=z, mask=z != 0.0)
        npt.assert_array_equal(mar.estimate(data).influence,
                               np.zeros((3, 3)))

    def test_zero_missing_gives_zero(self):
        data = masked(np.random.default_rng(4).normal(size=(5, 2)), 0)
        npt.assert_array_equal(mar.estimate(data).influence,
                               np.zeros((5, 2)))

    def test_columns_mean_zero_and_oracle(self):
        gen = np.random.default_rng(5)
        data = masked(gen.normal(size=(10, 4)), 16, seed=5)
        z = data.Z
        pi = 0.4
        got = mar.estimate(data).influence
        npt.assert_allclose(got.mean(axis=0), np.zeros(4), atol=1e-12)
        scale = pi / 0.6 ** 2
        for j in range(4):
            mean_sq = sum(float(z[i, j]) ** 2 for i in range(10)) / 10
            for i in range(10):
                want = (z[i, j] ** 2 - mean_sq) * scale
                assert got[i, j] == pytest.approx(want, abs=1e-12)


class TestEstimate:
    def test_resolves_consistently(self):
        gen = np.random.default_rng(6)
        n, p = 400, 6
        x = gen.normal(size=(n, p))
        mask = gen.uniform(size=(n, p)) >= 0.2
        data = Dataset(y=gen.normal(size=n), Z=np.where(mask, x, 0.0),
                       mask=mask)
        est = mar.estimate(data)
        assert est.miss_prob == pytest.approx(1 - mask.mean(), abs=0)
        npt.assert_array_equal(est.design,
                               np.where(mask, x, 0.0) / (1 - est.miss_prob))
        npt.assert_allclose(est.influence.mean(axis=0), np.zeros(p),
                            atol=1e-12)

    def test_masked_cells_ignored_whatever_they_hold(self):
        # garbage under the mask must not leak into any estimate
        x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        mask = np.array([[True, False], [True, True], [False, True]])
        d1 = Dataset(y=np.zeros(3), Z=np.where(mask, x, 0.0), mask=mask)
        d2 = Dataset(y=np.zeros(3), Z=np.where(mask, x, 777.0), mask=mask)
        e1, e2 = mar.estimate(d1), mar.estimate(d2)
        npt.assert_array_equal(e1.design, e2.design)
        npt.assert_array_equal(e1.noise_var, e2.noise_var)
        npt.assert_array_equal(e1.influence, e2.influence)

    @pytest.mark.parametrize("missing", [0, 1, 37, 120])
    def test_design_and_influence_are_the_plain_expressions_bytewise(
            self, missing):
        # design and influence are formed in place; each must hold the bytes
        # of the plain expression, NaN and inf under the mask included, and
        # the dataset's Z must be left as it was
        gen = np.random.default_rng(missing)
        n, p = 30, 8
        Z = gen.normal(size=(n, p))
        mask = np.ones(n * p, dtype=bool)
        mask[gen.permutation(n * p)[:missing]] = False
        mask = mask.reshape(n, p)
        Z[~mask] = np.resize([np.nan, np.inf, -np.inf, 5.0], missing)
        before = Z.tobytes()
        est = mar.estimate(Dataset(y=np.zeros(n), Z=Z, mask=mask))
        pi_hat = est.miss_prob
        assert pi_hat == pytest.approx(missing / (n * p), rel=1e-12)
        z_tilde = np.where(mask, Z, 0.0)
        sq = z_tilde ** 2
        design = z_tilde / (1.0 - pi_hat)
        influence = (sq - sq.mean(axis=0)) * (pi_hat / (1.0 - pi_hat) ** 2)
        assert est.design.tobytes() == design.tobytes()
        assert est.influence.tobytes() == influence.tobytes()
        assert Z.tobytes() == before

    def test_requires_mask(self):
        with pytest.raises(InputError):
            mar.estimate(Dataset(y=np.zeros(3), Z=np.ones((3, 2))))

    def test_recovery_envelope(self):
        # sup-norm error of the noise-variance estimate stays within a
        # generous envelope of its sqrt(log(np)/n) rate
        gen = np.random.default_rng(7)
        n, p, pi = 400, 50, 0.1
        worst = 0.0
        for _ in range(5):
            x = gen.normal(size=(n, p))
            mask = gen.uniform(size=(n, p)) >= pi
            data = Dataset(y=np.zeros(n), Z=np.where(mask, x, 0.0),
                           mask=mask)
            got = mar.estimate(data).noise_var
            # true effective noise variance: E[x^2] * pi / (1 - pi)
            truth = np.full(p, pi / (1 - pi))
            worst = max(worst, np.abs(got - truth).max())
        assert worst <= 3.0 * np.sqrt(np.log(n * p) / n)
