from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eivbands import lasso
from eivbands.errors import InputError, NumericalError
from eivbands.lasso import (
    Dataset,
    FitResult,
    NoiseSpec,
    SolverConfig,
    corrected_gram,
    default_penalty,
    default_radius,
    fit_corrected_lasso,
    fit_corrected_lasso_stack,
    hard_threshold,
    resolve_config,
)

finite_vectors = hnp.arrays(
    np.float64,
    st.integers(1, 12),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


def dense_gram_oracle(Z, noise_var):
    # Triple-loop reference, no vectorized shortcuts.
    n, p = Z.shape
    G = np.empty((p, p))
    for j in range(p):
        for k in range(p):
            s = 0.0
            for i in range(n):
                s += Z[i, j] * Z[i, k]
            G[j, k] = s / n
            if j == k:
                G[j, k] -= noise_var[j]
    return G


class TestCorrectedGram:
    def test_matches_dense_oracle(self):
        gen = np.random.default_rng(42)
        Z = gen.normal(size=(5, 3))
        v = gen.uniform(0.1, 2.0, size=3)
        npt.assert_allclose(corrected_gram(Z, v), dense_gram_oracle(Z, v),
                            rtol=0, atol=1e-12)

    def test_zero_noise_is_plain_gram(self):
        Z = np.array([[1.0, 2.0], [3.0, 4.0]])
        npt.assert_allclose(corrected_gram(Z, np.zeros(2)), Z.T @ Z / 2,
                            rtol=0, atol=1e-15)

    def test_exactly_symmetric(self):
        gen = np.random.default_rng(7)
        Z = gen.normal(size=(40, 25))
        G = corrected_gram(Z, gen.uniform(0, 1, size=25))
        assert np.array_equal(G, G.T)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_is_the_plain_expression_bytewise(self, layout):
        # symmetrized and scaled in place, with the bytes of the plain
        # expression, whatever the layout BLAS sees
        gen = np.random.default_rng(11)
        Z = gen.normal(size=(37, 46))
        Z = {"C": Z, "F": np.asfortranarray(Z), "strided": Z[:, ::2]}[layout]
        n, p = Z.shape
        v = gen.uniform(0, 1, size=p)
        ZtZ = Z.T @ Z
        want = (ZtZ + ZtZ.T) / (2.0 * n) - np.diag(v)
        assert corrected_gram(Z, v).tobytes() == want.tobytes()

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InputError):
            corrected_gram(np.ones((4, 3)), np.ones(2))


class TestDatasetObservedCells:
    def grid(self):
        Z = np.arange(12.0).reshape(4, 3)
        mask = np.ones((4, 3), dtype=bool)
        mask[1, 2] = mask[3, 0] = False
        return Z, mask

    def test_masked_cells_may_hold_nan_and_inf(self):
        Z, mask = self.grid()
        Z[1, 2], Z[3, 0] = np.nan, -np.inf
        data = Dataset(y=np.zeros(4), Z=Z, mask=mask)
        assert data.Z is Z and data.mask is mask

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_one_non_finite_observed_cell_raises(self, value):
        Z, mask = self.grid()
        Z[1, 2] = np.nan
        Z[2, 1] = value
        with pytest.raises(InputError,
                           match="Z contains non-finite observed entries"):
            Dataset(y=np.zeros(4), Z=Z, mask=mask)


def project(V, radius):
    # the solvers' projection on a (k, p) stack, one radius per row
    V = np.array(V, dtype=np.float64, ndmin=2)
    a = np.abs(V)
    return lasso._project_l1_ball_stack(V, a, a.sum(axis=1),
                                        np.broadcast_to(radius, V.shape[:1]))


class TestProjection:
    def test_interior_identity(self):
        v = np.array([0.3, -0.2, 0.1])
        npt.assert_array_equal(project(v, 1.0), [v])

    def test_known_simplex_case(self):
        # Projection of (1, 1) onto radius 1 is (0.5, 0.5).
        npt.assert_allclose(project([1.0, 1.0], 1.0), [[0.5, 0.5]],
                            atol=1e-15)

    def bisection_oracle(self, v, radius):
        # Independent of the sorting construction: solve
        # sum max(|v| - theta, 0) = radius for theta by bisection.
        a = np.abs(v)
        if a.sum() <= radius:
            return v.copy()
        lo, hi = 0.0, a.max()
        for _ in range(200):
            mid = (lo + hi) / 2
            if np.maximum(a - mid, 0.0).sum() > radius:
                lo = mid
            else:
                hi = mid
        return np.sign(v) * np.maximum(a - hi, 0.0)

    @given(hnp.arrays(np.float64, st.tuples(st.integers(2, 5),
                                            st.integers(1, 12)),
                      elements=st.floats(-1e6, 1e6, allow_nan=False,
                                         allow_infinity=False)),
           st.lists(st.floats(0.01, 100.0), min_size=5, max_size=5),
           st.lists(st.booleans(), min_size=5, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_matches_bisection_oracle(self, V, radii, inside):
        # rows inside their ball (radius above the row's l1 norm) mixed with
        # rows that must be projected, in one stack
        k = V.shape[0]
        inside[0], inside[1] = True, False
        radius = np.array(radii[:k]) + np.where(
            inside[:k], np.abs(V).sum(axis=1), 0.0)
        got = project(V.copy(), radius)
        for i in range(k):
            want = self.bisection_oracle(V[i], radius[i])
            scale = 1 + np.abs(V[i]).max()
            if inside[i]:
                npt.assert_array_equal(got[i], V[i])
            npt.assert_allclose(got[i], want, rtol=0, atol=1e-7 * scale)
            # feasible up to cancellation roundoff on large inputs
            assert np.abs(got[i]).sum() <= radius[i] + 1e-12 * scale


def kkt_oracle(beta, grad, penalty, theta):
    # the minimum-norm subgradient residual at normal-cone weight theta,
    # coordinate by coordinate
    lam = penalty + theta
    worst = 0.0
    for bk, gk in zip(beta, grad):
        r = abs(gk + lam * np.sign(bk)) if bk != 0.0 else max(abs(gk) - lam, 0.0)
        worst = max(worst, r)
    return worst


def kkt_breakpoints(beta, grad, penalty):
    # every kink of the piecewise-linear residual in theta >= 0: each
    # coordinate's own kink and each crossing of a rising piece (slope +1)
    # with a falling one (slope -1); the minimum over theta sits on one
    rising, falling, kinks = [], [], [0.0]
    for bk, gk in zip(beta, grad):
        if bk != 0.0:
            c = gk * np.sign(bk) + penalty  # |c + theta|
            rising.append(c)
            falling.append(-c)
            kinks.append(-c)
        else:
            falling.append(abs(gk) - penalty)  # max(|g| - lam, 0)
            kinks.append(abs(gk) - penalty)
    kinks += [(f - r) / 2 for r in rising for f in falling]
    return [t for t in kinks if t >= 0.0]


class TestKktResidual:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_inside_the_ball_is_the_closed_form(self, seed, k, p):
        gen = np.random.default_rng(seed)
        beta = gen.normal(size=(k, p)) * (gen.uniform(size=(k, p)) < 0.5)
        grad = gen.normal(size=(k, p)) * gen.uniform(0.1, 3.0)
        penalty = gen.uniform(0.0, 1.0, size=k)
        l1 = np.abs(beta).sum(axis=1)
        radius = np.where(gen.uniform(size=k) < 0.5, np.inf, l1 * 2.0 + 1.0)
        got = lasso._kkt_residual_stack(beta, grad, penalty, radius)
        for i in range(k):
            assert got[i] == pytest.approx(
                kkt_oracle(beta[i], grad[i], penalty[i], 0.0),
                rel=1e-15, abs=0)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_on_the_ball_is_the_minimum_over_breakpoints(self, seed, k, p):
        gen = np.random.default_rng(seed)
        beta = gen.normal(size=(k, p)) * (gen.uniform(size=(k, p)) < 0.6)
        beta[:, 0] = gen.choice([-1.0, 1.0], size=k)  # never all zero
        grad = gen.normal(size=(k, p)) * gen.uniform(0.1, 3.0)
        penalty = gen.uniform(0.0, 1.0, size=k)
        radius = np.abs(beta).sum(axis=1)
        inside = gen.uniform(size=k) < 0.3  # mix in rows off the ball
        radius[inside] *= 2.0
        got = lasso._kkt_residual_stack(beta, grad, penalty, radius)
        for i in range(k):
            thetas = [0.0] if inside[i] else kkt_breakpoints(
                beta[i], grad[i], penalty[i])
            want = min(kkt_oracle(beta[i], grad[i], penalty[i], t)
                       for t in thetas)
            scale = 1.0 + np.abs(grad[i]).max() + penalty[i]
            assert abs(got[i] - want) <= 1e-9 * max(want, 1e-3 * scale)


def pin_mask(pins, p):
    # the solver's (k, p) boolean mask of each row's pins
    pin = np.zeros((len(pins), p), dtype=bool)
    for row, js in zip(pin, pins):
        row[list(js)] = True
    return pin


class TestSpectralBound:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_never_exceeds_the_spectral_norm(self, seed, k, p):
        # rows of one Gram pinned at up to two coordinates: each bounds the
        # spectral norm of its free block
        gen = np.random.default_rng(seed)
        n = int(gen.integers(1, 3 * p + 2))
        G = corrected_gram(gen.normal(size=(n, p)),
                           np.full(p, gen.uniform(0.0, 2.0)))
        pins = [tuple(gen.choice(p, size=min(p - 1, gen.integers(3)),
                                 replace=False)) for _ in range(k)]
        lam = lasso._spectral_bound_stack(G, pin_mask(pins, p))
        for i in range(k):
            free = ~np.isin(np.arange(p), pins[i])
            block = G[np.ix_(free, free)]
            assert 0.0 < lam[i] <= np.linalg.norm(block, 2) * (1 + 1e-12)

    def test_vanished_and_overflowing_rows_give_one(self):
        # coordinate 0 overflows every row that keeps it free, coordinate 1
        # is zero, so a row whose only free coordinate is 1 vanishes, and so
        # does a row with no free coordinate
        gen = np.random.default_rng(9)
        p = 7
        G = pd_instance(gen, p)[1]
        G[0, 0] = 1e300
        G[1, :] = G[:, 1] = 0.0
        pins = [(0,), (), (0, 2, 3, 4, 5, 6), tuple(range(p)), (0, 1)]
        with np.errstate(over="ignore", invalid="ignore"):
            lam = lasso._spectral_bound_stack(G, pin_mask(pins, p))
        assert lam[1] == lam[2] == lam[3] == 1.0
        # the other rows are what they are alone, bit for bit
        for i in (0, 4):
            assert lam[i] != 1.0
            assert lam[i].tobytes() == lasso._spectral_bound_stack(
                G, pin_mask(pins[i:i + 1], p))[0].tobytes()


class TestHardThreshold:
    def test_examples(self):
        beta = np.array([0.5, -1e-8, 0.0, -0.2])
        npt.assert_array_equal(hard_threshold(beta, 1e-7),
                               [0.5, 0.0, 0.0, -0.2])

    @given(finite_vectors, st.floats(0.0, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_entries_zero_or_large(self, beta, t):
        out = hard_threshold(beta, t)
        assert np.all((out == 0.0) | (np.abs(out) > t))
        # idempotent and preserves surviving entries exactly
        npt.assert_array_equal(hard_threshold(out, t), out)
        keep = np.abs(beta) > t
        npt.assert_array_equal(out[keep], beta[keep])

    def test_threshold_zero_is_identity(self):
        beta = np.array([0.0, -0.3, 2.0])
        npt.assert_array_equal(hard_threshold(beta, 0.0), beta)


class TestDefaults:
    def test_penalty_formula(self):
        n, p = 200, 120
        assert default_penalty(n, p) == pytest.approx(
            np.sqrt(np.log(p / 0.05) / n), abs=0)

    def test_radius_positive_definite_case(self):
        # on a positive definite G every diagonal entry is positive, so
        # term k is the ridge pilot of coordinate k alone, b_k / (G_kk + 1)
        gen = np.random.default_rng(3)
        A = gen.normal(size=(30, 4))
        G = A.T @ A / 30 + 0.5 * np.eye(4)
        b = gen.normal(size=4)
        assert default_radius(G, b) == pytest.approx(
            2 * sum(abs(b[k]) / (G[k, k] + 1) for k in range(4)), rel=1e-15)

    def test_radius_floors_negative_eigenvalues(self):
        G = np.diag([-2.0, 1.0])
        b = np.array([1.0, 1.0])
        # diagonal floored at (0, 1), terms (1/1, 1/2)
        assert default_radius(G, b) == pytest.approx(3.0, rel=1e-12)

    def test_radius_zero_b_fallback(self):
        assert default_radius(np.eye(3), np.zeros(3)) == 1.0

    def test_resolve_fills_both(self):
        # resolve_config fills the penalty, the solver the radius
        G = np.eye(2)
        b = np.array([1.0, 0.0])
        cfg = resolve_config(SolverConfig(), 50, 2)
        assert cfg.penalty == pytest.approx(default_penalty(50, 2))
        assert fit_corrected_lasso(b, G, cfg).radius == pytest.approx(
            2 * np.abs(np.linalg.solve(G + np.eye(2), b)).sum())

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.integers(1, 40),
           st.sampled_from(["noisy", "zero_b", "pinned"]))
    @settings(max_examples=150, deadline=None)
    def test_radius_matches_loop_oracle(self, seed, n, p, case):
        # a loop over the coordinates, on corrected Grams whose noise
        # variances make diagonal entries negative (entry 0's always; p > n
        # is drawn), with b = 0 or with pinned entries of b zeroed; every
        # row of a stack of such b gives the scalar rule's bits
        gen = np.random.default_rng(seed)
        Z = gen.normal(size=(n, p)) * gen.uniform(0.1, 5.0)
        v = gen.uniform(0.0, 30.0, size=p)
        v[0] = Z[:, 0] @ Z[:, 0] / n + 1.0
        G = corrected_gram(Z, v)
        b = gen.normal(size=(3, p)) * gen.uniform(0.01, 10.0)
        if case == "zero_b":
            b[0] = 0.0
        elif case == "pinned":
            pins = gen.choice(p, size=gen.integers(1, p + 1), replace=False)
            b[:, pins] = 0.0

        def oracle(row):
            total = 0.0
            for k in range(p):
                total += abs(row[k]) / (max(G[k, k], 0.0) + 1.0)
            return 2.0 * total if total > 0.0 else 1.0
        got = [default_radius(G, row) for row in b]
        for value, row in zip(got, b):
            assert value == pytest.approx(oracle(row), rel=4 * p * 2e-16)
        assert lasso._default_radii(G, b).tobytes() == np.array(got).tobytes()

    def test_resolve_defers_only_a_default_radius(self):
        # a default radius is left to the solvers, an explicit one kept, and
        # an explicit penalty wins
        cfg = resolve_config(SolverConfig(), 50, 2)
        assert cfg.radius is None
        assert cfg.penalty == default_penalty(50, 2)
        cfg = resolve_config(SolverConfig(radius=0.7), 50, 2)
        assert cfg.radius == 0.7
        assert resolve_config(SolverConfig(penalty=0.3), 50, 2).penalty == 0.3

    def test_penalty_scale_multiplies(self):
        c1 = resolve_config(SolverConfig(), 50, 2)
        c2 = resolve_config(SolverConfig(penalty_scale=0.5), 50, 2)
        assert c2.penalty == pytest.approx(0.5 * c1.penalty)


def pd_instance(gen, p, n=64):
    # Well-conditioned positive definite corrected-lasso instance.
    A = gen.normal(size=(n, p))
    G = A.T @ A / n + 0.5 * np.eye(p)
    b = gen.normal(size=p)
    return b, G


def assert_objective_never_rises(b, G, cfg, fit):
    # the problem capped at max_iter = k runs the fit's first k iterations
    # and stops, so its objective is the fit's after iteration k, bit for
    # bit: checked from 0 (the start) to the last one
    caps = range(1, fit.iterations + 1)
    rows = [fit_corrected_lasso(b, G, replace(cfg, max_iter=k)) for k in caps]
    assert [row.iterations for row in rows] == list(caps)
    F = np.array([0.0] + [row.objective for row in rows])
    assert F[-1] == fit.objective
    assert np.diff(F).max() <= 1e-12 * (1 + np.abs(F).max())


class TestSolver:
    def test_identity_gram_is_soft_threshold(self):
        b = np.array([1.0, 0.2, -0.8])
        cfg = SolverConfig(penalty=0.5, radius=np.inf, tol=1e-12)
        fit = fit_corrected_lasso(b, np.eye(3), cfg)
        # closed form: soft-threshold of b at the penalty
        npt.assert_allclose(fit.beta, [0.5, 0.0, -0.3], rtol=0, atol=1e-10)
        assert fit.converged

    @given(st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_identity_gram_random_soft_threshold(self, seed):
        gen = np.random.default_rng(seed)
        p = int(gen.integers(1, 9))
        b = gen.normal(size=p)
        lam = float(gen.uniform(0.0, 1.5))
        cfg = SolverConfig(penalty=lam, radius=np.inf, tol=1e-12,
                           truncation=0.0)
        fit = fit_corrected_lasso(b, np.eye(p), cfg)
        npt.assert_allclose(fit.beta,
                            np.sign(b) * np.maximum(np.abs(b) - lam, 0.0),
                            rtol=0, atol=1e-10)

    def test_huge_penalty_returns_zero(self):
        gen = np.random.default_rng(5)
        b, G = pd_instance(gen, 6)
        cfg = SolverConfig(penalty=np.abs(b).max() + 1.0, radius=np.inf)
        fit = fit_corrected_lasso(b, G, cfg)
        npt.assert_array_equal(fit.beta, np.zeros(6))
        assert fit.converged and fit.objective == 0.0

    def test_unpenalized_matches_dense_solve(self):
        gen = np.random.default_rng(11)
        for _ in range(10):
            p = int(gen.integers(2, 9))
            b, G = pd_instance(gen, p)
            cfg = SolverConfig(penalty=0.0, radius=np.inf, tol=1e-12,
                               max_iter=200000, truncation=0.0)
            fit = fit_corrected_lasso(b, G, cfg)
            npt.assert_allclose(fit.beta, np.linalg.solve(G, b),
                                rtol=0, atol=1e-8)
            assert fit.converged

    def test_objective_never_rises_indefinite(self):
        gen = np.random.default_rng(23)
        p, n = 30, 10  # p > n makes the corrected Gram indefinite
        Z = gen.normal(size=(n, p))
        G = corrected_gram(Z, np.full(p, 1.0))
        assert np.linalg.eigvalsh(G).min() < -0.1
        beta_true = np.zeros(p)
        beta_true[:3] = [3.0, -2.0, 4.0]
        y = Z @ beta_true + gen.normal(size=n)
        b = Z.T @ y / n
        cfg = resolve_config(SolverConfig(tol=1e-10, max_iter=3000), n, p)
        fit = fit_corrected_lasso(b, G, cfg)
        assert fit.iterations > 10  # the instance actually iterates
        assert_objective_never_rises(b, G, cfg, fit)
        assert fit.radius == default_radius(G, b)
        assert np.abs(fit.beta).sum() <= fit.radius * (1 + 1e-9)

    def test_accelerated_on_an_ill_conditioned_gram(self):
        # the AR(0.9) correlation matrix at p = 30 has condition number
        # about 260: plain projected gradient needs 1,100 iterations here,
        # the accelerated loop converges within 400, and its restarts never
        # let the objective rise
        p = 30
        G = 0.9 ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
        beta = np.zeros(p)
        beta[[3, 9, 15]] = [1.0, -1.0, 0.5]
        cfg = SolverConfig(penalty=0.01, radius=np.inf, tol=1e-8,
                           max_iter=400)
        fit = fit_corrected_lasso(G @ beta, G, cfg)
        assert fit.converged and fit.kkt_residual <= 1e-8
        assert_objective_never_rises(G @ beta, G, cfg, fit)

    def test_ball_constraint_active_feasible(self):
        gen = np.random.default_rng(2)
        b, G = pd_instance(gen, 5)
        cfg = SolverConfig(penalty=0.0, radius=0.05, tol=1e-10)
        fit = fit_corrected_lasso(b, G, cfg)
        assert np.abs(fit.beta).sum() <= 0.05 * (1 + 1e-9)
        # solution should sit on the boundary when unconstrained optimum is outside
        assert np.abs(fit.beta).sum() >= 0.05 * (1 - 1e-6)
        assert fit.converged and fit.kkt_residual <= 1e-10

    def test_truncation_zeroes_small_entries(self):
        b = np.array([1.0, 5e-8])
        cfg = SolverConfig(penalty=0.0, radius=np.inf, tol=1e-14)
        fit = fit_corrected_lasso(b, np.eye(2), cfg)
        npt.assert_array_equal(fit.beta, [1.0, 0.0])

    def test_permutation_equivariance(self):
        gen = np.random.default_rng(31)
        p = 7
        b, G = pd_instance(gen, p)
        perm = gen.permutation(p)
        cfg = SolverConfig(penalty=0.2, radius=np.inf, tol=1e-12,
                           truncation=0.0)
        fit = fit_corrected_lasso(b, G, cfg)
        fit_p = fit_corrected_lasso(b[perm], G[np.ix_(perm, perm)], cfg)
        # same arithmetic up to reordered float sums
        npt.assert_allclose(fit_p.beta, fit.beta[perm], rtol=0, atol=1e-9)

    def test_deterministic_rerun(self):
        gen = np.random.default_rng(13)
        b, G = pd_instance(gen, 6)
        cfg = SolverConfig(penalty=0.1, radius=2.0)
        f1 = fit_corrected_lasso(b, G, cfg)
        f2 = fit_corrected_lasso(b, G, cfg)
        npt.assert_array_equal(f1.beta, f2.beta)
        assert f1.objective == f2.objective

    def test_unresolved_config_rejected(self):
        with pytest.raises(InputError):
            fit_corrected_lasso(np.ones(2), np.eye(2), SolverConfig())

    def test_nonfinite_rejected(self):
        cfg = SolverConfig(penalty=0.1, radius=1.0)
        with pytest.raises(InputError):
            fit_corrected_lasso(np.array([np.nan, 0.0]), np.eye(2), cfg)


def solve_one_at_a_time(bs, Gs, cfgs):
    # the reference: fit_corrected_lasso per problem, errors kept in place
    out = []
    for b, G, cfg in zip(bs, Gs, cfgs):
        try:
            out.append(fit_corrected_lasso(b, G, cfg))
        except NumericalError as exc:
            out.append(exc)
    return out


# A stack forms every live row's G x in one product, a gemm once two or
# more rows share it, whose last bits depend on how many rows do; a row
# solved alone makes a gemv.  So a stacked row agrees with the row solved
# alone up to this bound, relative to 1 + the field's size, while its
# iterations, convergence, penalty and radius stay exact.  The largest
# deviation seen over 1,500 random stacks was 1.2e-13.
ROUNDING = 1e-10


def assert_same_bits(stacked, single, rounding=0.0):
    # equal bit for bit, or with `rounding` > 0 equal up to it in beta,
    # objective and kkt_residual
    assert len(stacked) == len(single)
    for got, want in zip(stacked, single):
        if isinstance(want, NumericalError):
            assert type(got) is type(want) and str(got) == str(want)
            continue
        assert isinstance(got, FitResult)
        for field in ("iterations", "converged"):
            assert type(getattr(got, field)) is type(getattr(want, field))
            assert getattr(got, field) == getattr(want, field)
        for field in ("beta", "objective", "kkt_residual", "penalty",
                      "radius"):
            g, w = np.asarray(getattr(got, field)), np.asarray(getattr(want, field))
            assert g.dtype == w.dtype and g.shape == w.shape, field
            if rounding and field not in ("penalty", "radius"):
                scale = 1.0 + np.abs(w).max(initial=0.0)
                assert np.abs(g - w).max(initial=0.0) <= rounding * scale, \
                    field
            else:
                assert g.tobytes() == w.tobytes(), field


def draw_design(gen, p):
    # Z and noise variances of one design: iid columns at a small n, with
    # noise that can make the corrected Gram indefinite, or, a third of the
    # time, noise-free AR(0.9) columns at n = 10 p, whose ill-conditioned
    # Gram makes the accelerated loop restart its momentum several times
    if gen.uniform() < 1 / 3:
        Z = gen.normal(size=(10 * p, p))
        for k in range(1, p):
            Z[:, k] = 0.9 * Z[:, k - 1] + np.sqrt(0.19) * Z[:, k]
        return Z, np.zeros(p)
    n = int(gen.integers(max(2, p // 2), 3 * p + 5))
    return gen.normal(size=(n, p)), np.full(p, gen.uniform(0.0, 1.5))


def random_config(gen, n, p):
    # one resolved config of a stack: a penalty scale, a default, tight or
    # infinite radius, an iteration cap from 1 to 20000 and a tolerance
    return resolve_config(SolverConfig(
        penalty_scale=gen.uniform(0.05, 2.0),
        radius=gen.choice([None, None, np.inf, 0.3]),
        max_iter=int(gen.choice([1, 4, 60, 20000])),
        tol=float(gen.choice([1e-8, 1e-5]))), n, p)


def random_stack(gen, k, p):
    # k problems at one config on one Gram, positive definite,
    # ill-conditioned or indefinite, whose b mixes 0 with small and large
    # scales, so that the rows leave the stack at different passes
    Z, v = draw_design(gen, p)
    n = Z.shape[0]
    G = corrected_gram(Z, v)
    bs = [Z.T @ gen.normal(size=n) / n * gen.choice([0.0, 0.3, 1.0, 3.0])
          for _ in range(k)]
    return np.array(bs), G, random_config(gen, n, p)


class TestStackedSolver:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 9), st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_matches_one_at_a_time_bitwise(self, seed, k, p):
        # a stack of one is the single solver bit for bit; a row of the
        # whole stack is it up to ROUNDING
        bs, G, cfg = random_stack(np.random.default_rng(seed), k, p)
        with np.errstate(over="ignore", invalid="ignore"):  # divergent ones
            single = solve_one_at_a_time(bs, [G] * k, [cfg] * k)
            assert_same_bits([fit_corrected_lasso_stack(bs[i:i + 1], G,
                                                        cfg)[0]
                              for i in range(k)], single)
            assert_same_bits(fit_corrected_lasso_stack(bs, G, cfg), single,
                             ROUNDING)

    def test_covers_ball_cap_zero_b_indefinite_and_divergence(self):
        # one stack per config, each with rows that leave it at different
        # passes because of their b: rows ending on a tight ball, a row
        # held at its iteration cap, rows with b = 0 that never move, a
        # row converging on an indefinite Gram, and a diverging row next
        # to one that converges
        gen = np.random.default_rng(8)
        p = 6
        b_pd, G_pd = pd_instance(gen, p)
        G_indef = np.diag([-1.0, 1.0, 2.0, 0.5, 1.5, 3.0])
        zero, e = np.zeros(p), np.eye(p)
        stacks = {
            "ball": (G_pd, SolverConfig(penalty=0.0, radius=0.05),
                     [b_pd, np.sign(b_pd), zero]),
            "capped": (G_pd, SolverConfig(penalty=0.01, radius=np.inf,
                                          max_iter=3), [b_pd, zero]),
            "indefinite": (G_indef, SolverConfig(penalty=0.05, radius=2.0),
                           [b_pd, zero]),
            "divergence": (G_indef, SolverConfig(penalty=1e-3,
                                                 radius=np.inf),
                           [e[0], e[1]]),
        }
        single, stacked = {}, []
        for name, (G, cfg, rows) in stacks.items():
            bs = np.array(rows)
            with np.errstate(over="ignore", invalid="ignore"):
                single[name] = solve_one_at_a_time(bs, [G] * len(bs),
                                                   [cfg] * len(bs))
                stacked += fit_corrected_lasso_stack(bs, G, cfg)
        for ball in single["ball"][:2]:
            assert np.abs(ball.beta).sum() >= 0.05 * (1 - 1e-6)
        capped, zero_b = single["capped"]
        assert capped.iterations == 3 and not capped.converged
        indefinite, _ = single["indefinite"]
        assert indefinite.converged and indefinite.iterations > 0
        diverged, converged = single["divergence"]
        assert isinstance(diverged, NumericalError)
        assert converged.converged and converged.iterations > 0
        for fits in (single["ball"], single["capped"], single["indefinite"]):
            assert fits[-1].iterations == 0 and not fits[-1].beta.any()
            assert len({fit.iterations for fit in fits}) == len(fits)
        assert_same_bits(stacked, sum(single.values(), []), ROUNDING)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12),
           st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_rows_sharing_grams_equal_rows_solved_alone(self, seed, k, p):
        # rows of one Gram at one config, pinned at 0, 1 or 2 coordinates
        # (all of them when p <= 2), with a regression's b on the free
        # coordinates, or unpinned with any b, in random order and cut into
        # stacks at random boundaries: every row equals itself solved alone
        # up to ROUNDING, an unpinned one alone equals the single solver bit
        # for bit, and a pinned one's beta keeps G's columns with +0.0 at
        # its pins
        gen = np.random.default_rng(seed)
        Z, v = draw_design(gen, p)
        n = Z.shape[0]
        G = corrected_gram(Z, v)
        cfg = random_config(gen, n, p)
        bs, pins = [], []
        for _ in range(k):
            m = int(gen.integers(3))
            pin = tuple(int(j) for j in gen.choice(p, size=min(m, p),
                                                   replace=False))
            if pin:
                b = G[:, pin[0]].copy()
                b[list(pin)] = 0.0
            else:
                b = Z.T @ gen.normal(size=n) / n * gen.choice([0.0, 1.0, 3.0])
            bs.append(b)
            pins.append(pin)
        bs = np.array(bs)
        cuts = np.sort(gen.choice(np.arange(1, k), size=gen.integers(k),
                                  replace=False)) if k > 1 else []
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = []
            for rows in np.split(np.arange(k), cuts):
                stacked += fit_corrected_lasso_stack(
                    bs[rows], G, cfg, [pins[i] for i in rows])
            alone = [fit_corrected_lasso_stack(bs[i:i + 1], G, cfg,
                                               pins[i:i + 1])[0]
                     for i in range(k)]
            assert_same_bits(stacked, alone, ROUNDING)
            free = [i for i in range(k) if not pins[i]]
            assert_same_bits([alone[i] for i in free], solve_one_at_a_time(
                bs[free], [G] * len(free), [cfg] * len(free)))
        for fit, pin in zip(alone, pins):
            if isinstance(fit, FitResult):
                assert fit.beta.shape == (p,)
                assert fit.beta[list(pin)].tobytes() == \
                    np.zeros(len(pin)).tobytes()

    def test_wide_stack_rows_match_rows_solved_alone(self):
        # at p = 300 a gemm row's last bits depend on how many rows share
        # the product: 60 nodewise-like rows (pinned at their target, with
        # b its column of G) and unpinned ones, at one config whose cap of
        # 60 iterations stops some rows while the others converge at
        # passes of their own.  Two runs give the same bytes, and every row
        # is itself solved alone up to ROUNDING, with the same iterations
        # and convergence
        gen = np.random.default_rng(29)
        n, p, k = 350, 300, 60
        Z = gen.normal(size=(n, p))
        Z[:, 1:] += 0.5 * Z[:, :-1]
        G = corrected_gram(Z, np.full(p, 0.25))
        targets = gen.choice(p, size=k, replace=False)
        b = G[:, targets].T.copy()
        pins = [(int(j),) if i % 3 else () for i, j in enumerate(targets)]
        for row, pin in zip(b, pins):
            row[list(pin)] = 0.0
        cfg = resolve_config(SolverConfig(max_iter=60), n, p)
        first = fit_corrected_lasso_stack(b, G, cfg, pins)
        again = fit_corrected_lasso_stack(b, G, cfg, pins)
        assert_same_bits(again, first)
        alone = [fit_corrected_lasso_stack(b[i:i + 1], G, cfg,
                                           pins[i:i + 1])[0]
                 for i in range(k)]
        assert_same_bits(first, alone, ROUNDING)
        iterations = {fit.iterations for fit in first}
        assert len(iterations) > 5 and max(iterations) == 60
        assert any(not fit.converged for fit in first)
        assert any(fit.converged and fit.iterations > 0 for fit in first)

    def test_pinned_rows_solve_the_sliced_subproblem(self):
        # pinned at two coordinates, a row solves the problem on G's free
        # block, up to rounding, with the same iterations, and holds its
        # pins at 0; its radius is the block's, up to rounding
        gen = np.random.default_rng(14)
        p = 8
        Z = gen.normal(size=(20, p))
        Z[:, 1:] += 0.7 * Z[:, :-1]
        v = np.full(p, 1.0)
        G = corrected_gram(Z, v)
        pin = (5, 2)
        free = ~np.isin(np.arange(p), pin)
        b = G[:, 0].copy()
        b[list(pin)] = 0.0
        cfg = resolve_config(SolverConfig(penalty_scale=0.2), 20, p - 2)
        fit = fit_corrected_lasso_stack(b[None], G, cfg, [pin])[0]
        sub = fit_corrected_lasso(b[free], G[np.ix_(free, free)], cfg)
        assert fit.iterations == sub.iterations > 0
        npt.assert_allclose(fit.radius, sub.radius, rtol=1e-15)
        assert not fit.beta[~free].any()
        npt.assert_allclose(fit.beta[free], sub.beta, rtol=0, atol=1e-12)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 40))
    @settings(max_examples=60, deadline=None)
    def test_pinned_row_radius_is_the_free_blocks(self, seed, p):
        # a row reads its pinned entries of b as 0, so its default radius,
        # a sum over all p terms, is the sliced free block's up to the
        # rounding of summing the same terms in another grouping
        gen = np.random.default_rng(seed)
        Z, v = draw_design(gen, p)
        G = corrected_gram(Z, v)
        pins = [tuple(int(j) for j in gen.choice(
            p, size=gen.integers(1, p), replace=False)) for _ in range(3)]
        b = G[:, [pin[0] for pin in pins]].T
        cfg = SolverConfig(penalty=float(np.abs(b).max()) + 1.0)
        fits = fit_corrected_lasso_stack(b, G, cfg, pins)
        for row, pin, fit in zip(b, pins, fits):
            free = ~np.isin(np.arange(p), pin)
            want = default_radius(G[np.ix_(free, free)], row[free])
            assert fit.iterations == 0 and np.isfinite(fit.radius)
            assert fit.radius == pytest.approx(want, rel=2 * p * 2.3e-16)

    def test_eager_radius_is_reported_by_a_fit_that_never_moves(self):
        # radius None and a penalty above max |b|: the scalar fit, an
        # unpinned row and a pinned row all stop at 0, and each reports the
        # default radius of its b, with the pinned row's entries read as 0
        gen = np.random.default_rng(6)
        p = 7
        Z = gen.normal(size=(30, p))
        Z[:, 1:] += 0.6 * Z[:, :-1]
        v = np.full(p, 0.3)
        G = corrected_gram(Z, v)
        b = G[:, 2].copy()
        cfg = SolverConfig(penalty=2.0 * float(np.abs(b).max()))
        pin = (2, 5)
        b_free = b.copy()
        b_free[list(pin)] = 0.0
        single = fit_corrected_lasso(b, G, cfg)
        unpinned, pinned = fit_corrected_lasso_stack(
            np.array([b, b]), G, cfg, pins=[(), pin])
        for fit in (single, unpinned, pinned):
            assert fit.iterations == 0 and fit.converged
        assert single.radius == unpinned.radius == default_radius(G, b)
        assert pinned.radius == default_radius(G, b_free)

    def test_reports_the_residual_of_the_returned_iterate(self):
        # untruncated, fit.beta is the last iterate; its residual must be
        # the one reported however the fit ended: bit for bit from the
        # single loop's product beta @ G, up to ROUNDING from a stack's.
        # Each case is a stack of its own config, with a second row,
        # sign(b), that leaves it at another pass
        gen = np.random.default_rng(9)
        p = 6
        b, G = pd_instance(gen, p)
        cases = {
            "converged": (b, SolverConfig(penalty=0.1, radius=np.inf,
                                          tol=1e-10, truncation=0.0)),
            "capped": (b, SolverConfig(penalty=0.01, radius=np.inf,
                                       max_iter=3, truncation=0.0)),
            "ball": (b, SolverConfig(penalty=0.0, radius=0.05,
                                     truncation=0.0)),
            "zero_b": (np.zeros(p), SolverConfig(penalty=0.1, radius=1.0,
                                                 truncation=0.0)),
        }
        first = []
        for bi, cfg in cases.values():
            bs = np.array([bi, np.sign(b)])
            single = [fit_corrected_lasso(row, G, cfg) for row in bs]
            stacked = fit_corrected_lasso_stack(bs, G, cfg)
            first.append(single[0])
            for row, *fits in zip(bs, single, stacked):
                for fit, rounding in zip(fits, (0.0, ROUNDING)):
                    want = lasso._kkt_residual_stack(
                        fit.beta[None], (fit.beta @ G - row)[None],
                        cfg.penalty, np.array([cfg.radius]))[0]
                    assert abs(fit.kkt_residual - want) <= \
                        rounding * (1 + want)
        converged, capped, ball, zero_b = first
        assert converged.converged and converged.iterations > 0
        assert capped.iterations == 3 and not capped.converged
        assert np.abs(ball.beta).sum() >= 0.05 * (1 - 1e-9)
        assert zero_b.iterations == 0

    def test_skips_power_iteration_when_zero_is_optimal(self, monkeypatch):
        def refuse(G, pin):
            raise AssertionError("spectral bound computed")
        monkeypatch.setattr(lasso, "_spectral_bound_stack", refuse)
        gen = np.random.default_rng(4)
        b, G = pd_instance(gen, 5)
        cfg = SolverConfig(penalty=float(np.abs(b).max()), radius=1.0)
        fit = fit_corrected_lasso(b, G, cfg)
        assert fit.iterations == 0 and fit.converged and not fit.beta.any()
        stacked = fit_corrected_lasso_stack(np.array([b, 0.5 * b]), G, cfg)
        assert_same_bits(stacked[:1], [fit])
        assert stacked[1].iterations == 0

    def test_validates_like_the_single_solver(self):
        cfg = SolverConfig(penalty=0.1, radius=1.0)
        bad = [
            (np.ones((2, 3)), np.ones((3, 2)), cfg, None),
            (np.ones(2), np.eye(2), cfg, None),
            (np.array([[np.nan, 0.0]]), np.eye(2), cfg, None),
            (np.ones((1, 2)), np.full((2, 2), np.inf), cfg, None),
            (np.ones((1, 2)), np.eye(2), cfg, [(2,)]),
            (np.ones((1, 2)), np.eye(2), cfg, [(-1,)]),
            (np.ones((1, 2)), np.eye(2), cfg, [(1, 1)]),
            (np.ones((2, 2)), np.eye(2), cfg, [(0,)]),
        ]
        for b, G, cfg, pins in bad:
            with pytest.raises(InputError):
                fit_corrected_lasso_stack(b, G, cfg, pins)

    def test_unresolved_config_rejected(self):
        # a stack takes one resolved config: with no penalty it raises
        # before any row is solved, and so does an empty stack
        for b in (np.ones((3, 2)), np.ones((0, 2))):
            with pytest.raises(InputError, match="penalty must be resolved"):
                fit_corrected_lasso_stack(b, np.eye(2), SolverConfig(),
                                          [(0,)] * len(b))


class TestTypes:
    def test_dataset_validates(self):
        with pytest.raises(InputError):
            Dataset(y=np.ones(3), Z=np.ones((4, 2)))
        with pytest.raises(InputError):
            Dataset(y=np.ones(1), Z=np.ones((1, 2)))
        with pytest.raises(InputError):
            Dataset(y=np.array([1.0, np.inf]), Z=np.ones((2, 2)))

    def test_dataset_mask_gates_finiteness(self):
        Z = np.array([[1.0, 0.0], [np.nan, 2.0]])
        mask = np.array([[True, True], [False, True]])
        with pytest.raises(InputError):
            Dataset(y=np.zeros(2), Z=Z)
        Dataset(y=np.zeros(2), Z=Z, mask=mask)  # masked nan is fine

    def test_noise_spec(self):
        s = NoiseSpec.known(np.array([0.5, 0.5]))
        assert s.kind == "known"
        assert NoiseSpec.mar().noise_var is None
        with pytest.raises(InputError):
            NoiseSpec.known(np.array([-1.0]))
        with pytest.raises(InputError):
            NoiseSpec("mar", np.ones(2))

    @pytest.mark.parametrize("value", [2.5, 3.0, True, False, "7", None])
    def test_max_iter_must_be_an_integer(self, value):
        with pytest.raises(InputError,
                           match=r"^max_iter must be an integer \(got "):
            SolverConfig(max_iter=value)

    def test_max_iter_takes_numpy_integers(self):
        assert SolverConfig(max_iter=np.int64(7)).max_iter == 7

    @pytest.mark.parametrize("field, value", [
        ("penalty", "x"), ("penalty_scale", "2"), ("radius", "1"),
        ("tol", True), ("truncation", None)])
    def test_float_fields_must_be_real(self, field, value):
        # refused as InputError, not a TypeError from a comparison, and a
        # bool is not read as 0 or 1
        with pytest.raises(InputError,
                           match=rf"^{field} must be a real number \(got "):
            SolverConfig(**{field: value})

    def test_solver_config_validates(self):
        with pytest.raises(InputError):
            SolverConfig(penalty=-0.1)
        with pytest.raises(InputError):
            SolverConfig(tol=0.0)
        with pytest.raises(InputError):
            SolverConfig(radius=0.0)
